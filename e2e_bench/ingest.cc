// ingest_1w2r: bench_ingest's shape on the Table-1 engine — a 500k-row base
// served with aqppd --ingest's wiring (IngestManager attached, absorber at
// its defaults), one closed-loop writer streaming 256-row INGEST batches and
// two closed-loop readers sending SUM queries.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "replay.h"
#include "service/client.h"
#include "truth.h"
#include "workloads.h"

namespace aqpp {
namespace e2e {

namespace {

constexpr size_t kBaseRows = 500'000;
constexpr size_t kBatchRows = 256;
// The writer cycles through this many distinct batches, which keeps the
// truth at any generation a small weighted sum of per-batch sums.
constexpr size_t kBatchPool = 32;
constexpr size_t kReaders = 2;
// Queries built per reader per second of window. A reader that uses its
// share up ends the window for everyone (a reader-less tail would skew qps
// and the percentiles), so this sits well above the readers' rate.
constexpr double kReaderPoolQps = 2000;
constexpr int kSetupReps = 9;
constexpr int kPrepareStageReps = 3;
constexpr size_t kReplayed = 300;

// One reader answer and the highest generation the writer had acked when
// the query was sent (an answer below it is stale).
struct ReaderReply {
  TimedReply timed;
  uint64_t acked_before = 0;
};

Result<std::vector<std::shared_ptr<Table>>> MakeBatches(const Table& base,
                                                        uint64_t seed) {
  Rng rng(seed ^ 0x5eedba7c4e5ULL);
  std::vector<std::shared_ptr<Table>> batches;
  for (size_t b = 0; b < kBatchPool; ++b) {
    std::vector<size_t> rows(kBatchRows);
    for (size_t& r : rows) r = rng.NextBounded(base.num_rows());
    AQPP_ASSIGN_OR_RETURN(auto batch, TakeRows(base, rows));
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

Status RunIngest(const RunConfig& config, RunReport* report) {
  AQPP_ASSIGN_OR_RETURN(std::shared_ptr<Table> base, MakeTpcdSkew(kBaseRows));
  Catalog catalog;
  AQPP_RETURN_NOT_OK(catalog.Register(kTableName, base));
  AQPP_ASSIGN_OR_RETURN(auto batches, MakeBatches(*base, config.seed));
  const size_t pool_size = kReaders * static_cast<size_t>(std::ceil(
                                          config.seconds * kReaderPoolQps));
  AQPP_ASSIGN_OR_RETURN(
      std::vector<RangeQuery> queries,
      MakeQueryPool(*base, Table1Template(), pool_size, config.seed));
  AQPP_ASSIGN_OR_RETURN(std::vector<std::string> sqls, ToSql(queries, *base));
  // Truth at generation g = base truth + the sums of the batches acked at or
  // below g; per query, the base part and each pool batch's part.
  AQPP_ASSIGN_OR_RETURN(std::vector<double> base_truth,
                        ExactTruths(*base, queries));
  std::vector<std::vector<double>> batch_sums;
  for (const auto& batch : batches) {
    AQPP_ASSIGN_OR_RETURN(RangeTruth t, RangeTruth::Build(*batch, kOrderKey,
                                                          kSuppKey,
                                                          kExtendedPrice));
    AQPP_ASSIGN_OR_RETURN(std::vector<double> sums, t.Answers(queries));
    batch_sums.push_back(std::move(sums));
  }

  // Set-up: Prepare + ingest manager + service + server.
  const IngestOptions aqppd_ingest;  // aqppd --ingest defaults: 4096 rows / 250 ms
  std::unique_ptr<ServedEngine> served;
  std::vector<double> setups;
  for (int r = 0; r < (config.trace ? 1 : kSetupReps); ++r) {
    served.reset();
    const Clock::time_point start = Clock::now();
    AQPP_ASSIGN_OR_RETURN(auto engine, PrepareEngine(base, Table1EngineOptions()));
    AQPP_ASSIGN_OR_RETURN(served,
                          ServeEngine(std::move(engine), &catalog, aqppd_ingest));
    setups.push_back(SecondsSince(start));
  }
  report->Set("setup_s", Percentile(setups, 0.5));
  report->Set("precomputed_mb",
              served->engine->prepare_stats().total_bytes() / double(1 << 20));

  // ---- Window: one writer, two readers, all closed loop -------------------
  const int port = served->server->port();
  std::atomic<bool> stop{false};
  std::atomic<bool> pool_ran_out{false};
  std::atomic<uint64_t> acked_generation{0};
  std::vector<uint64_t> ack_generations;  // writer's acks, in send order
  std::vector<Status> write_failures;
  std::vector<std::vector<ReaderReply>> reads(kReaders);
  std::vector<Status> connect_errors(kReaders + 1);
  std::vector<std::thread> threads;
  StealMonitor window;
  const Clock::time_point start = window.start();
  threads.emplace_back([&] {
    Result<ServiceClient> client = ServiceClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      connect_errors[kReaders] = client.status();
      return;
    }
    for (size_t b = 0; !stop.load(std::memory_order_relaxed); ++b) {
      Result<IngestReply> ack = client->Ingest(*batches[b % kBatchPool]);
      if (!ack.ok()) {
        write_failures.push_back(ack.status());
        return;
      }
      ack_generations.push_back(ack->generation);
      acked_generation.store(ack->generation, std::memory_order_release);
    }
  });
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Result<ServiceClient> client = ServiceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        connect_errors[r] = client.status();
        return;
      }
      size_t q = r;
      for (; q < sqls.size() && !stop.load(std::memory_order_relaxed);
           q += kReaders) {
        const uint64_t acked = acked_generation.load(std::memory_order_acquire);
        reads[r].push_back({TimedQuery(*client, q, sqls[q], start), acked});
      }
      if (q >= sqls.size()) pool_ran_out.store(true);
    });
  }
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  while (Clock::now() < deadline && !pool_ran_out.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  window.Stop();
  const double window_seconds = SecondsSince(start);
  report->Note("window_s", window_seconds);
  if (pool_ran_out.load()) {
    std::fprintf(stderr,
                 "note: a reader used up its queries after %.2f s; the window "
                 "ends there\n",
                 window_seconds);
  }
  report->Set("peak_rss_mb", PeakRssMb());
  for (const Status& st : connect_errors) AQPP_RETURN_NOT_OK(st);

  // ---- Checks ---------------------------------------------------------------
  const uint64_t acked_rows = ack_generations.size() * kBatchRows;
  for (size_t b = 0; b < ack_generations.size(); ++b) report->Attempt(false);
  for (const Status& st : write_failures) {
    report->Attempt(true);
    report->Violation("INGEST failed: " + st.ToString());
  }
  for (size_t b = 1; b < ack_generations.size(); ++b) {
    if (ack_generations[b] <= ack_generations[b - 1]) {
      report->Violation("writer acks not strictly increasing at batch " +
                        std::to_string(b));
      break;
    }
  }
  const uint64_t absorb_cycles = served->ingest->snapshot().absorbed_generation;
  AQPP_RETURN_NOT_OK(served->ingest->AbsorbNow());
  const IngestSnapshot snap = served->ingest->snapshot();
  if (snap.total_rows != kBaseRows + acked_rows ||
      snap.rows_committed != acked_rows) {
    report->Violation("accounting: total_rows " +
                      std::to_string(snap.total_rows) + " != base " +
                      std::to_string(kBaseRows) + " + acked " +
                      std::to_string(acked_rows));
  }

  std::vector<TimedReply> replies;
  std::vector<double> delta_rows;
  for (size_t r = 0; r < kReaders; ++r) {
    uint64_t last_generation = 0;
    for (const ReaderReply& rr : reads[r]) {
      if (rr.timed.reply.ok()) {
        const QueryReply& reply = *rr.timed.reply;
        if (reply.generation < last_generation) {
          report->Violation("reader " + std::to_string(r) +
                            ": generation went backwards");
        }
        if (reply.generation < rr.acked_before) {
          report->Violation("reader " + std::to_string(r) + ": stale answer (" +
                            std::to_string(reply.generation) + " < acked " +
                            std::to_string(rr.acked_before) + ")");
        }
        last_generation = reply.generation;
        delta_rows.push_back(static_cast<double>(reply.delta_rows));
      }
      replies.push_back(rr.timed);
    }
  }
  auto truth_of = [&](size_t i) {
    const TimedReply& r = replies[i];
    // Batches acked at or below the answer's generation are in its data.
    const size_t included = static_cast<size_t>(
        std::upper_bound(ack_generations.begin(), ack_generations.end(),
                         r.reply->generation) -
        ack_generations.begin());
    double truth = base_truth[r.query];
    for (size_t p = 0; p < kBatchPool && p < included; ++p) {
      const size_t times = (included - p + kBatchPool - 1) / kBatchPool;
      truth += static_cast<double>(times) * batch_sums[p][r.query];
    }
    return truth;
  };
  std::vector<AnswerAccuracy> answers = CheckReplies(replies, truth_of, report);
  SetLatencyMetrics(replies, window, report);
  SetAccuracyMetrics(answers, report);
  if (!config.trace) return Status::OK();

  // ---- Traced run: per-layer numbers -------------------------------------
  SetServiceStatMetrics(*served->service, report);
  report->Set("core.absorb_cycles", static_cast<double>(absorb_cycles));
  report->Set("core.delta_rows_p50", Percentile(delta_rows, 0.5));
  report->Set("bench.ingest_rows_per_s", acked_rows / window_seconds);
  AQPP_RETURN_NOT_OK(
      TimePrepareStages(*base, *served->engine, kPrepareStageReps, report));
  served.reset();

  // Replay stack: a fresh engine with the absorber off, so absorbs happen
  // only where the replay calls AbsorbNow (every absorb threshold of rows).
  IngestOptions manual = aqppd_ingest;
  manual.background = false;
  AQPP_ASSIGN_OR_RETURN(auto engine, PrepareEngine(base, Table1EngineOptions()));
  std::unique_ptr<EngineReplay> replay;
  AQPP_ASSIGN_OR_RETURN(
      auto replay_served,
      ServeEngine(std::move(engine), &catalog, manual, [&](ServedEngine* s) {
        AQPP_ASSIGN_OR_RETURN(replay, EngineReplay::Create(s->engine.get(),
                                                           &catalog,
                                                           s->ingest.get()));
        return Status::OK();
      }));
  const int replay_port = replay_served->server->port();
  AQPP_ASSIGN_OR_RETURN(ServiceClient writer,
                        ServiceClient::Connect("127.0.0.1", replay_port));
  AQPP_ASSIGN_OR_RETURN(ServiceClient reader,
                        ServiceClient::Connect("127.0.0.1", replay_port));
  IngestManager& ingest = *replay_served->ingest;
  SpanRecorder spans;
  for (size_t i = 0; i < std::min(kReplayed, sqls.size()); ++i) {
    const Table& batch = *batches[i % kBatchPool];
    Result<IngestReply> ack = spans.Time(i, "service.ingest_rtt", "",
                                         [&] { return writer.Ingest(batch); });
    Status appended = spans.Time(i, "core.append", "",
                                 [&] { return ingest.Append(batch); });
    report->Attempt(!ack.ok() || !appended.ok());
    if (!ack.ok() || !appended.ok()) {
      report->Violation("replay ingest failed");
      continue;
    }
    if (ingest.snapshot().delta_rows >= manual.absorb_threshold_rows) {
      Status absorbed =
          spans.Time(i, "core.absorb", "", [&] { return ingest.AbsorbNow(); });
      if (!absorbed.ok()) report->Violation("replay absorb failed");
      replay->Refresh();
    }
    replay->Replay(i, sqls[i], reader, &spans, report);
  }
  replay->SetMetrics(spans, report);
  report->Set("service.ingest_rtt_ms", spans.MedianMs("service.ingest_rtt"));
  report->Set("core.append_ms", spans.MedianMs("core.append"));
  report->Set("core.absorb_ms", spans.MedianMs("core.absorb"));
  return spans.WriteJsonLines(config.work_dir + "/results/" + config.workload +
                              "-seed" + std::to_string(config.seed) +
                              "-spans.jsonl");
}

}  // namespace e2e
}  // namespace aqpp
