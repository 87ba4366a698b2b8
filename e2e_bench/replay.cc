#include "replay.h"

#include <cstdio>

#include "core/precompute.h"
#include "sampling/samplers.h"
#include "sql/binder.h"

namespace aqpp {
namespace e2e {

Result<std::unique_ptr<EngineReplay>> EngineReplay::Create(
    AqppEngine* engine, const Catalog* catalog, IngestManager* ingest) {
  if (!engine->has_cube()) {
    return Status::FailedPrecondition("replay needs a prepared engine");
  }
  std::unique_ptr<EngineReplay> r(new EngineReplay());
  r->engine_ = engine;
  r->catalog_ = catalog;
  r->ingest_ = ingest;
  r->service_ = std::make_unique<QueryService>(EngineRef(engine));
  if (ingest != nullptr) r->service_->AttachIngest(ingest);
  AQPP_ASSIGN_OR_RETURN(auto session, r->service_->sessions().Open("replay"));
  r->session_ = session->id();
  r->canonicalizer_ = std::make_unique<QueryCanonicalizer>(&engine->table());
  r->Refresh();
  return r;
}

void EngineReplay::Refresh() {
  const EngineOptions& options = engine_->options();
  IdentificationOptions iopts = options.identification;
  iopts.confidence_level = options.confidence_level;
  Rng rng(options.seed);
  identifier_ = std::make_unique<AggregateIdentifier>(
      engine_->cube(), &engine_->sample(), iopts, rng);
  measure_cache_ = std::make_unique<MeasureCache>(engine_->sample().rows.get());
  estimator_ = std::make_unique<SampleEstimator>(
      &engine_->sample(),
      EstimatorOptions{.confidence_level = options.confidence_level,
                       .bootstrap_resamples = options.bootstrap_resamples});
  estimator_->set_measure_cache(measure_cache_.get());
}

void EngineReplay::Replay(uint64_t request, const std::string& sql,
                          ServiceClient& client, SpanRecorder* spans,
                          RunReport* report) {
  const std::string root = "query.tcp";
  Result<QueryReply> tcp =
      spans->Time(request, root, "", [&] { return client.Query(sql); });
  Status ping =
      spans->Time(request, "service.ping", root, [&] { return client.Ping(); });
  Result<BoundQuery> bound = spans->Time(
      request, "sql.parse_bind", root,
      [&] { return ParseAndBind(sql, *catalog_); });
  const Status failure =
      !tcp.ok() ? tcp.status() : !ping.ok() ? ping : bound.status();
  report->Attempt(!failure.ok());
  if (!failure.ok()) {
    report->Violation("replay " + std::to_string(request) + " failed: " +
                      failure.ToString());
    return;
  }
  const RangeQuery& query = bound->query;

  const SpanRecorder::Clock::time_point exec_start = SpanRecorder::Clock::now();
  QueryOutcome outcome = service_->Execute(session_, query);
  const SpanRecorder::Clock::time_point exec_end = SpanRecorder::Clock::now();
  spans->Record(request, "service.execute", root, exec_start, exec_end);

  CanonicalQuery canon = spans->Time(
      request, "service.canonicalize", "service.execute",
      [&] { return canonicalizer_->Canonicalize(query); });
  const double canonicalize_ms = spans->spans().back().ms();
  ExecuteControl control;
  control.seed = canon.seed;
  control.record = false;
  const SpanRecorder::Clock::time_point core_start = SpanRecorder::Clock::now();
  Result<ApproximateResult> direct = engine_->Execute(canon.query, control);
  const SpanRecorder::Clock::time_point core_end = SpanRecorder::Clock::now();
  spans->Record(request, "core.execute", "service.execute", core_start,
                core_end);
  if (!outcome.status.ok() || !direct.ok()) {
    report->Violation("replay " + std::to_string(request) +
                      " in-process execution failed");
    return;
  }
  // service.execute's self time: queueing, batch window, cache probe and
  // bookkeeping around its two children.
  admission_ms_.push_back(MsBetween(exec_start, exec_end) -
                          MsBetween(core_start, core_end) - canonicalize_ms);

  // The served answer is the seeded engine answer plus the exact delta fold.
  double expected = direct->ci.estimate;
  if (ingest_ != nullptr && IngestManager::FoldSupported(canon.query.func)) {
    std::shared_ptr<const Table> delta = ingest_->delta();
    if (delta != nullptr && delta->num_rows() > 0) {
      Result<double> shift = IngestManager::FoldValue(*delta, canon.query);
      if (shift.ok()) expected += *shift;
    }
  }
  if (!SameBits(tcp->estimate, expected) ||
      !SameBits(tcp->half_width, direct->ci.half_width) ||
      !SameBits(outcome.ci.estimate, expected)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "replay %llu: TCP %.17g±%.17g, service %.17g, engine "
                  "%.17g±%.17g",
                  static_cast<unsigned long long>(request), tcp->estimate,
                  tcp->half_width, outcome.ci.estimate, expected,
                  direct->ci.half_width);
    report->Violation(buf);
  }

  // The engine's phases, one public call each, same seed and inputs.
  Rng rng(canon.seed);
  Result<IdentifiedAggregate> identified =
      spans->Time(request, "core.identify", "core.execute",
                  [&] { return identifier_->Identify(canon.query, rng); });
  if (!identified.ok()) {
    report->Violation("replay identify failed: " +
                      identified.status().ToString());
    return;
  }
  ++replayed_;
  candidates_ += identified->num_candidates;
  const bool has_pre = !identified->pre.IsEmpty();
  if (has_pre) {
    ++used_pre_;
    // What identification read from the cube, read again (ReadPreValues'
    // plane order: SUM, COUNT, SUM of squares).
    const PrefixCube& cube = *engine_->cube();
    PreValues probed = spans->Time(request, "cube.probe", "core.identify", [&] {
      PreValues v;
      v.sum = cube.BoxValue(identified->pre, 0);
      if (cube.num_measures() > 1) v.count = cube.BoxValue(identified->pre, 1);
      if (cube.num_measures() > 2) v.sum_sq = cube.BoxValue(identified->pre, 2);
      return v;
    });
    if (!SameBits(probed.sum, identified->values.sum) ||
        !SameBits(probed.count, identified->values.count) ||
        !SameBits(probed.sum_sq, identified->values.sum_sq)) {
      report->Violation("replay " + std::to_string(request) +
                        ": cube probe disagrees with identification");
    }
  }
  Result<std::vector<uint8_t>> mask =
      spans->Time(request, "kernels.sample_mask", "core.execute",
                  [&] { return estimator_->Mask(canon.query.predicate); });
  if (!mask.ok()) {
    report->Violation("replay mask failed: " + mask.status().ToString());
    return;
  }
  std::vector<uint8_t> pre_mask =
      has_pre ? identifier_->PreMaskOnSample(identified->pre)
              : std::vector<uint8_t>();
  Result<ConfidenceInterval> ci =
      spans->Time(request, "synopsis.estimate", "core.execute", [&] {
        return has_pre ? estimator_->EstimateWithPreMasked(
                             canon.query, *mask, pre_mask, identified->values,
                             rng)
                       : estimator_->EstimateDirectMasked(canon.query, *mask,
                                                          rng);
      });
  if (!ci.ok()) {
    report->Violation("replay estimate failed: " + ci.status().ToString());
  }
}

void EngineReplay::SetMetrics(const SpanRecorder& spans,
                              RunReport* report) const {
  const double rtt = spans.MedianMs("query.tcp");
  const double ping = spans.MedianMs("service.ping");
  const double parse = spans.MedianMs("sql.parse_bind");
  const double canon = spans.MedianMs("service.canonicalize");
  const double admission = Percentile(admission_ms_, 0.5);
  const double core = spans.MedianMs("core.execute");
  report->Set("bench.replay_rtt_ms", rtt);
  report->Set("service.ping_ms", ping);
  report->Set("sql.parse_bind_ms", parse);
  report->Set("service.canonicalize_ms", canon);
  report->Set("service.admission_ms", admission);
  report->Set("core.execute_ms", core);
  report->Set("core.identify_ms", spans.MedianMs("core.identify"));
  report->Set("cube.probe_ms", spans.MedianMs("cube.probe"));
  report->Set("kernels.sample_mask_ms", spans.MedianMs("kernels.sample_mask"));
  report->Set("synopsis.estimate_ms", spans.MedianMs("synopsis.estimate"));
  if (replayed_ > 0) {
    report->Set("core.candidates_per_query",
                static_cast<double>(candidates_) / replayed_);
    report->Set("core.used_pre_frac",
                static_cast<double>(used_pre_) / replayed_);
  }
  report->Set("bench.unattributed_frac",
              UnattributedFraction({ping, parse, canon, admission, core}, rtt));
}

Status TimePrepareStages(const Table& table, const AqppEngine& engine,
                         int reps, RunReport* report) {
  const EngineOptions& options = engine.options();
  const QueryTemplate& tmpl = *engine.prepared_template();
  PrecomputeOptions popts = options.precompute;
  popts.shape.hill_climb.confidence_level = options.confidence_level;
  std::vector<double> draw, precompute, build;
  for (int r = 0; r < reps; ++r) {
    Rng rng(options.seed);
    Clock::time_point t0 = Clock::now();
    AQPP_ASSIGN_OR_RETURN(Sample sample,
                          CreateUniformSample(table, options.sample_rate, rng));
    draw.push_back(SecondsSince(t0));

    Precomputer precomputer(&table, &sample, tmpl.agg_column, popts);
    t0 = Clock::now();
    AQPP_ASSIGN_OR_RETURN(PrecomputeResult pre,
                          precomputer.Precompute(tmpl.condition_columns,
                                                 options.cube_budget));
    precompute.push_back(SecondsSince(t0));

    t0 = Clock::now();
    AQPP_ASSIGN_OR_RETURN(auto cube,
                          PrefixCube::Build(table, pre.cube->scheme(),
                                            pre.cube->measures()));
    build.push_back(SecondsSince(t0));
  }
  report->Set("sampling.draw_s", Percentile(draw, 0.5));
  report->Set("core.precompute_s", Percentile(precompute, 0.5));
  report->Set("cube.build_s", Percentile(build, 0.5));
  return Status::OK();
}

}  // namespace e2e
}  // namespace aqpp
