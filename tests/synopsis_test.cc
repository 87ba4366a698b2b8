// Property battery for the pluggable Synopsis layer (src/synopsis/).
//
// Every registered kind must honor the statistical contract stated in
// synopsis/synopsis.h, and the battery enforces it property by property:
//   * Estimate is a pure function of (built state, query, seed) — repeated
//     calls are bit-identical, and so are concurrent calls at 1/4/8 threads
//     (the TSan lane runs this file via the `concurrency` label);
//   * Degrade never tightens an interval (conservative inflation);
//   * SerializeTo is deterministic: restore + re-serialize is byte-equal,
//     and the restored synopsis estimates bit-identically;
//   * Absorb is stage-validate-commit: under the "synopsis/absorb"
//     failpoint a torn absorb leaves the serialized state byte-identical
//     (chaos label; needs -DAQPP_ENABLE_FAILPOINTS=ON), while a successful
//     absorb tracks the grown population exactly like a rebuild;
//   * the "reservoir" kind reproduces the legacy engine estimator
//     RNG-step-for-step — with EngineOptions::synopsis unset and set to
//     "reservoir", the same seeds give bit-identical answers;
//   * the AVG/VAR difference bootstrap, which resamples only the rows where
//     query and box disagree, matches the dense n-draw resample in
//     distribution and the dense row-order sum in its estimate's bits, and
//     Rng::NextBinomial matches the binomial pmf.
//
// Seeds route through testutil::TestSeed, so AQPP_TEST_SEED alone
// reproduces any failure.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/engine.h"
#include "expr/query.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "storage/table.h"
#include "synopsis/estimator.h"
#include "synopsis/reservoir.h"
#include "synopsis/synopsis.h"
#include "test_util.h"

namespace aqpp {
namespace {

using testutil::MakeSynthetic;

synopsis::SynopsisOptions MakeOptions(uint64_t seed) {
  synopsis::SynopsisOptions opts;
  opts.confidence_level = 0.95;
  opts.sample_rate = 0.2;
  // Stratify / bubble on c2 (domain 50): ~10 sampled rows per stratum at
  // 2500 rows x 0.2 — enough for per-stratum variance everywhere.
  opts.key_columns = {1};
  opts.measure_column = 2;
  opts.seed = seed;
  return opts;
}

std::unique_ptr<synopsis::Synopsis> BuildSynopsis(const std::string& kind,
                                                  const Table& table,
                                                  uint64_t seed) {
  auto created = synopsis::CreateSynopsis(kind, MakeOptions(seed));
  EXPECT_TRUE(created.ok()) << created.status();
  auto syn = std::move(created).value();
  Status built = syn->BuildFromTable(table);
  EXPECT_TRUE(built.ok()) << built;
  EXPECT_TRUE(syn->built());
  return syn;
}

// A fixed probe set spanning SUM/COUNT/AVG and 1-d / 2-d predicates, wide
// enough that every kind's sample sees predicate rows.
std::vector<RangeQuery> ProbeQueries() {
  std::vector<RangeQuery> qs;
  auto add = [&qs](AggregateFunction f, std::vector<RangeCondition> conds) {
    RangeQuery q;
    q.func = f;
    q.agg_column = 2;
    q.predicate = RangePredicate(std::move(conds));
    qs.push_back(std::move(q));
  };
  add(AggregateFunction::kSum, {{0, 20, 70}});
  add(AggregateFunction::kSum, {{0, 10, 60}, {1, 10, 35}});
  add(AggregateFunction::kCount, {{0, 30, 90}});
  add(AggregateFunction::kCount, {{0, 1, 100}, {1, 1, 50}});
  add(AggregateFunction::kAvg, {{0, 15, 80}});
  add(AggregateFunction::kAvg, {{0, 5, 55}, {1, 5, 30}});
  return qs;
}

Result<ConfidenceInterval> EstimateSeeded(const synopsis::Synopsis& syn,
                                          const RangeQuery& q, uint64_t seed) {
  ExecuteControl control;
  control.seed = seed;
  control.record = false;
  return syn.Estimate(q, control);
}

class SynopsisPropertyTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    table_ = MakeSynthetic({.rows = 2500,
                            .dom1 = 100,
                            .dom2 = 50,
                            .correlated = false,
                            .seed = testutil::TestSeed(9100)});
    synopsis_ = BuildSynopsis(GetParam(), *table_, testutil::TestSeed(9101));
    ASSERT_NE(synopsis_, nullptr);
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<synopsis::Synopsis> synopsis_;
};

std::string KindName(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

// ---- Registry ---------------------------------------------------------------

TEST(SynopsisRegistryTest, BuiltinsAreRegisteredAndSorted) {
  auto kinds = synopsis::RegisteredSynopses();
  ASSERT_GE(kinds.size(), 4u);
  for (const char* k : {"grouped", "reservoir", "reservoir_closed",
                        "stratified"}) {
    EXPECT_TRUE(synopsis::IsSynopsisRegistered(k)) << k;
  }
  for (size_t i = 1; i < kinds.size(); ++i) EXPECT_LT(kinds[i - 1], kinds[i]);

  auto missing = synopsis::CreateSynopsis("no_such_kind", MakeOptions(1));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---- Purity -----------------------------------------------------------------

TEST_P(SynopsisPropertyTest, EstimateIsPureFunctionOfQueryAndSeed) {
  // Repeated calls with the same (query, seed) are bit-identical, and an
  // independently built synopsis over the same table with the same build
  // seed estimates bit-identically too.
  auto rebuilt = BuildSynopsis(GetParam(), *table_, testutil::TestSeed(9101));
  ASSERT_NE(rebuilt, nullptr);
  uint64_t call_seed = testutil::TestSeed(9102);
  for (const RangeQuery& q : ProbeQueries()) {
    auto a = EstimateSeeded(*synopsis_, q, call_seed);
    auto b = EstimateSeeded(*synopsis_, q, call_seed);
    auto c = EstimateSeeded(*rebuilt, q, call_seed);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok() && c.ok());
    EXPECT_EQ(a->estimate, b->estimate);
    EXPECT_EQ(a->half_width, b->half_width);
    EXPECT_EQ(a->estimate, c->estimate);
    EXPECT_EQ(a->half_width, c->half_width);
    EXPECT_TRUE(std::isfinite(a->estimate));
    EXPECT_GE(a->half_width, 0.0);
  }
}

// ---- Concurrency ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, ConcurrentEstimatesAreBitIdentical) {
  // Per-call seeds make Estimate safe to run from many threads against one
  // shared synopsis; 4- and 8-thread runs must reproduce the 1-thread
  // answers bit for bit.
  const auto queries = ProbeQueries();
  const uint64_t base_seed = testutil::TestSeed(9103);

  std::vector<ConfidenceInterval> baseline(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = EstimateSeeded(*synopsis_, queries[i], base_seed + i);
    ASSERT_TRUE(r.ok()) << r.status();
    baseline[i] = *r;
  }

  for (size_t num_threads : {4u, 8u}) {
    std::vector<ConfidenceInterval> got(queries.size());
    std::vector<std::thread> threads;
    for (size_t tid = 0; tid < num_threads; ++tid) {
      threads.emplace_back([&, tid] {
        for (size_t i = tid; i < queries.size(); i += num_threads) {
          auto r = EstimateSeeded(*synopsis_, queries[i], base_seed + i);
          if (r.ok()) got[i] = *r;
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(baseline[i].estimate, got[i].estimate)
          << "threads=" << num_threads << " query#" << i;
      EXPECT_EQ(baseline[i].half_width, got[i].half_width)
          << "threads=" << num_threads << " query#" << i;
    }
  }
}

// ---- Degradation ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, DegradeNeverTightensIntervals) {
  const auto queries = ProbeQueries();
  const uint64_t call_seed = testutil::TestSeed(9104);

  std::vector<double> before;
  for (const RangeQuery& q : queries) {
    auto r = EstimateSeeded(*synopsis_, q, call_seed);
    ASSERT_TRUE(r.ok()) << r.status();
    before.push_back(r->half_width);
  }

  Rng degrade_rng = testutil::MakeTestRng(9105);
  ASSERT_TRUE(synopsis_->Degrade(0.5, degrade_rng).ok());
  EXPECT_GE(synopsis_->ci_inflation(), 2.0 * (1 - 1e-12));
  EXPECT_FALSE(synopsis_->engine_aligned());

  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = EstimateSeeded(*synopsis_, queries[i], call_seed);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GE(r->half_width, before[i] * (1 - 1e-12))
        << "query#" << i << " tightened after Degrade";
  }

  // A second degrade compounds the inflation.
  ASSERT_TRUE(synopsis_->Degrade(0.5, degrade_rng).ok());
  EXPECT_GE(synopsis_->ci_inflation(), 4.0 * (1 - 1e-12));

  auto bad = synopsis_->Degrade(0.0, degrade_rng);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

// ---- Persistence ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, SerializationRoundTripIsByteStable) {
  std::string bytes;
  ASSERT_TRUE(synopsis_->SerializeTo(&bytes).ok());
  ASSERT_FALSE(bytes.empty());

  auto restored =
      std::move(synopsis::CreateSynopsis(GetParam(), MakeOptions(1))).value();
  ASSERT_TRUE(restored->DeserializeFrom(bytes).ok());
  EXPECT_TRUE(restored->built());
  EXPECT_FALSE(restored->engine_aligned());

  std::string again;
  ASSERT_TRUE(restored->SerializeTo(&again).ok());
  EXPECT_EQ(bytes, again) << "restore + re-serialize is not byte-stable";

  uint64_t call_seed = testutil::TestSeed(9106);
  for (const RangeQuery& q : ProbeQueries()) {
    auto a = EstimateSeeded(*synopsis_, q, call_seed);
    auto b = EstimateSeeded(*restored, q, call_seed);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->estimate, b->estimate);
    EXPECT_EQ(a->half_width, b->half_width);
  }

  // Garbage rejects cleanly.
  auto fresh =
      std::move(synopsis::CreateSynopsis(GetParam(), MakeOptions(1))).value();
  EXPECT_FALSE(fresh->DeserializeFrom("not a synopsis").ok());
  EXPECT_FALSE(fresh->built());
}

// ---- Maintenance ------------------------------------------------------------

TEST_P(SynopsisPropertyTest, AbsorbTracksPopulationLikeRebuild) {
  // An all-matching COUNT is answered exactly by every kind (zero sample
  // variance), so it pins the absorbed population: after absorbing a batch
  // the count must equal base + batch rows — exactly what a rebuild over the
  // concatenation reports.
  RangeQuery count_all;
  count_all.func = AggregateFunction::kCount;
  count_all.agg_column = 2;
  count_all.predicate.Add({0, 1, 100});

  const uint64_t call_seed = testutil::TestSeed(9107);
  auto before = EstimateSeeded(*synopsis_, count_all, call_seed);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NEAR(before->estimate, 2500.0, 1e-6);

  auto batch = MakeSynthetic({.rows = 500,
                              .dom1 = 100,
                              .dom2 = 50,
                              .correlated = false,
                              .seed = testutil::TestSeed(9108)});
  Status absorbed = synopsis_->Absorb(*batch);
  ASSERT_TRUE(absorbed.ok()) << absorbed;
  EXPECT_FALSE(synopsis_->engine_aligned());

  auto after = EstimateSeeded(*synopsis_, count_all, call_seed);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_NEAR(after->estimate, 3000.0, 1e-6);

  // Schema drift is rejected before any mutation.
  Schema other({{"x", DataType::kInt64}});
  Table wrong(other);
  EXPECT_FALSE(synopsis_->Absorb(wrong).ok());
  auto still = EstimateSeeded(*synopsis_, count_all, call_seed);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(after->estimate, still->estimate);
}

TEST_P(SynopsisPropertyTest, TornAbsorbLeavesNoPartialState) {
  if (!fail::kCompiledIn) {
    GTEST_SKIP() << "failpoints compiled out (AQPP_ENABLE_FAILPOINTS=OFF)";
  }
  const auto queries = ProbeQueries();
  const uint64_t call_seed = testutil::TestSeed(9109);

  std::string bytes_before;
  ASSERT_TRUE(synopsis_->SerializeTo(&bytes_before).ok());
  std::vector<ConfidenceInterval> estimates_before;
  for (const RangeQuery& q : queries) {
    auto r = EstimateSeeded(*synopsis_, q, call_seed);
    ASSERT_TRUE(r.ok()) << r.status();
    estimates_before.push_back(*r);
  }

  fail::Registry::Global().Enable(
      "synopsis/absorb", fail::Trigger::Always(),
      {.kind = fail::ActionKind::kReturnError,
       .code = StatusCode::kIOError,
       .message = "injected absorb fault"});
  auto batch = MakeSynthetic({.rows = 400,
                              .dom1 = 100,
                              .dom2 = 50,
                              .correlated = false,
                              .seed = testutil::TestSeed(9110)});
  Status torn = synopsis_->Absorb(*batch);
  fail::Registry::Global().DisableAll();
  ASSERT_FALSE(torn.ok());
  EXPECT_NE(torn.message().find("injected absorb fault"), std::string::npos);

  // Stage-validate-commit: the failed absorb left the synopsis byte-for-byte
  // as it was, and every estimate is bit-identical.
  std::string bytes_after;
  ASSERT_TRUE(synopsis_->SerializeTo(&bytes_after).ok());
  EXPECT_EQ(bytes_before, bytes_after)
      << "torn absorb committed partial state";
  for (size_t i = 0; i < queries.size(); ++i) {
    auto r = EstimateSeeded(*synopsis_, queries[i], call_seed);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(estimates_before[i].estimate, r->estimate) << "query#" << i;
    EXPECT_EQ(estimates_before[i].half_width, r->half_width) << "query#" << i;
  }

  // The same batch absorbs cleanly once the fault clears.
  ASSERT_TRUE(synopsis_->Absorb(*batch).ok());
}

TEST(SynopsisMaintainerTest, ObserverFiresOnSuccessNotOnFailure) {
  auto table = MakeSynthetic({.rows = 1000, .seed = testutil::TestSeed(9111)});
  auto syn = BuildSynopsis("reservoir", *table, testutil::TestSeed(9112));
  ASSERT_NE(syn, nullptr);

  synopsis::SynopsisMaintainer maintainer(syn.get());
  int notified = 0;
  maintainer.set_update_observer([&notified] { ++notified; });

  auto batch = MakeSynthetic({.rows = 200, .seed = testutil::TestSeed(9113)});
  ASSERT_TRUE(maintainer.Absorb(*batch).ok());
  EXPECT_EQ(notified, 1);

  Schema other({{"x", DataType::kInt64}});
  Table wrong(other);
  EXPECT_FALSE(maintainer.Absorb(wrong).ok());
  EXPECT_EQ(notified, 1) << "observer fired for a failed absorb";
}

// ---- Sample adoption gates --------------------------------------------------

TEST(SynopsisAdoptionTest, ReservoirAdoptsUniformSamplesOnly) {
  auto table = MakeSynthetic({.rows = 2000, .seed = testutil::TestSeed(9114)});
  EngineOptions opts;
  opts.sample_rate = 0.1;
  opts.enable_precompute = false;
  opts.seed = testutil::TestSeed(9115);
  auto engine = std::move(AqppEngine::Create(table, opts)).value();
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0};
  ASSERT_TRUE(engine->Prepare(tmpl).ok());

  // The reservoir kinds deep-copy a uniform engine sample and become
  // engine-aligned; the stratified kind declines it (method mismatch).
  auto reservoir = std::move(synopsis::CreateSynopsis(
                                 "reservoir", MakeOptions(1)))
                       .value();
  ASSERT_TRUE(reservoir->BuildFromSample(engine->sample()).ok());
  EXPECT_TRUE(reservoir->built());
  EXPECT_TRUE(reservoir->engine_aligned());

  auto stratified = std::move(synopsis::CreateSynopsis(
                                  "stratified", MakeOptions(1)))
                        .value();
  Status declined = stratified->BuildFromSample(engine->sample());
  EXPECT_EQ(declined.code(), StatusCode::kUnimplemented);
  EXPECT_FALSE(stratified->built());
}

// ---- Engine bit-parity (the refactor's acceptance criterion) ----------------

TEST(SynopsisEngineParityTest, ReservoirSynopsisReproducesLegacyEngineBits) {
  // With EngineOptions::synopsis unset the engine runs the legacy estimator;
  // with "reservoir" it routes through the synopsis layer, which adopted the
  // engine's own sample. Same seeds => the same RNG draws in the same order
  // => bit-identical answers, including the AQP++ difference path.
  auto table = MakeSynthetic({.rows = 2500,
                              .dom1 = 100,
                              .dom2 = 50,
                              .correlated = true,
                              .seed = testutil::TestSeed(9116)});
  QueryTemplate tmpl;
  tmpl.func = AggregateFunction::kSum;
  tmpl.agg_column = 2;
  tmpl.condition_columns = {0, 1};

  EngineOptions legacy_opts;
  legacy_opts.sample_rate = 0.1;
  legacy_opts.cube_budget = 512;
  legacy_opts.confidence_level = 0.95;
  legacy_opts.seed = testutil::TestSeed(9117);
  auto legacy = std::move(AqppEngine::Create(table, legacy_opts)).value();
  ASSERT_TRUE(legacy->Prepare(tmpl).ok());

  EngineOptions syn_opts = legacy_opts;
  syn_opts.synopsis = "reservoir";
  auto routed = std::move(AqppEngine::Create(table, syn_opts)).value();
  ASSERT_TRUE(routed->Prepare(tmpl).ok());
  ASSERT_NE(routed->active_synopsis(), nullptr);
  EXPECT_STREQ(routed->active_synopsis()->kind(), "reservoir");

  // A third engine switches the synopsis on after the fact — SetSynopsis on
  // a prepared legacy engine must land in the same place.
  auto switched = std::move(AqppEngine::Create(table, legacy_opts)).value();
  ASSERT_TRUE(switched->Prepare(tmpl).ok());
  ASSERT_TRUE(switched->SetSynopsis("reservoir").ok());

  Rng seeder = testutil::MakeTestRng(9118);
  int compared = 0;
  for (const RangeQuery& base : ProbeQueries()) {
    for (int rep = 0; rep < 3; ++rep) {
      RangeQuery q = base;
      ExecuteControl control;
      control.seed = seeder.Next();
      control.record = false;
      auto want = legacy->Execute(q, control);
      auto got = routed->Execute(q, control);
      auto alt = switched->Execute(q, control);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(alt.ok()) << alt.status();
      EXPECT_EQ(want->ci.estimate, got->ci.estimate)
          << AggregateFunctionToString(q.func) << " rep=" << rep;
      EXPECT_EQ(want->ci.half_width, got->ci.half_width)
          << AggregateFunctionToString(q.func) << " rep=" << rep;
      EXPECT_EQ(want->used_pre, got->used_pre);
      EXPECT_EQ(want->pre_description, got->pre_description);
      EXPECT_EQ(want->ci.estimate, alt->ci.estimate);
      EXPECT_EQ(want->ci.half_width, alt->ci.half_width);
      EXPECT_EQ(want->used_pre, alt->used_pre);
      ++compared;
    }
  }
  ASSERT_GE(compared, 18);

  // SET SYNOPSIS off restores the legacy path bit-for-bit.
  ASSERT_TRUE(switched->SetSynopsis("").ok());
  EXPECT_EQ(switched->active_synopsis(), nullptr);
  ExecuteControl control;
  control.seed = testutil::TestSeed(9119);
  control.record = false;
  RangeQuery q = ProbeQueries()[0];
  auto want = legacy->Execute(q, control);
  auto got = switched->Execute(q, control);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(want->ci.estimate, got->ci.estimate);
  EXPECT_EQ(want->ci.half_width, got->ci.half_width);

  EXPECT_EQ(switched->SetSynopsis("no_such_kind").code(),
            StatusCode::kNotFound);
}

// ---- Support-restricted difference bootstrap -------------------------------
//
// AvgDifferenceBootstrapCI / VarDifferenceBootstrapCI resample only the rows
// where a contribution is nonzero: Rng::NextBinomial(n, m / n) draws land on
// the m-row support, uniformly. The checks below hold that path to the dense
// n-draw resample it replaced, and the binomial draw to its distribution.

// The dense resample loop the support path replaced: n uniform draws over
// all rows per resample, gathered in draw order.
ConfidenceInterval DenseAvgReference(const std::vector<double>& s_contrib,
                                     const std::vector<double>& c_contrib,
                                     const PreValues& pre, double level,
                                     size_t resamples, Rng& rng) {
  const size_t n = s_contrib.size();
  auto ratio_of = [&](double s, double c) {
    double den = pre.count + c;
    return den != 0 ? (pre.sum + s) / den : 0.0;
  };
  std::vector<double> estimates;
  for (size_t r = 0; r < resamples; ++r) {
    double s = 0.0, c = 0.0;
    for (size_t i = 0; i < n; ++i) {
      size_t j = static_cast<size_t>(rng.NextBounded(n));
      s += s_contrib[j];
      c += c_contrib[j];
    }
    estimates.push_back(ratio_of(s, c));
  }
  double s_full = 0.0, c_full = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s_full += s_contrib[i];
    c_full += c_contrib[i];
  }
  double alpha = (1.0 - level) / 2.0;
  ConfidenceInterval ci;
  ci.level = level;
  ci.estimate = ratio_of(s_full, c_full);
  ci.half_width =
      (Quantile(estimates, 1.0 - alpha) - Quantile(estimates, alpha)) / 2.0;
  return ci;
}

// A sparse AVG difference input: n rows, m of them where query and box
// disagree (diff = +1 on `plus` of those, -1 on the rest). The differing
// rows average 150 against the box's 100.5, so when plus != m / 2, how many
// draws land on them moves the ratio, not only which ones do.
struct SparseAvgInput {
  std::vector<double> s_contrib, c_contrib;
  std::vector<double> s2_contrib;
  PreValues pre;
};

SparseAvgInput MakeSparseAvgInput(size_t n, size_t m, size_t plus,
                                  uint64_t seed) {
  SparseAvgInput in;
  in.s_contrib.assign(n, 0.0);
  in.c_contrib.assign(n, 0.0);
  in.s2_contrib.assign(n, 0.0);
  Rng rng(seed);
  std::vector<size_t> rows = SampleWithoutReplacement(n, m, rng);
  for (size_t j = 0; j < rows.size(); ++j) {
    double diff = j < plus ? 1.0 : -1.0;
    double w = 50.0 + 10.0 * rng.NextDouble();
    double a = 150.0 + 25.0 * rng.NextGaussian();
    in.s2_contrib[rows[j]] = w * a * a * diff;
    in.s_contrib[rows[j]] = w * a * diff;
    in.c_contrib[rows[j]] = w * diff;
  }
  in.pre.count = 40000.0;
  in.pre.sum = 100.5 * in.pre.count;
  in.pre.sum_sq = (100.5 * 100.5 + 625.0) * in.pre.count;
  return in;
}

uint64_t DoubleBits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Two equally long sets of half-widths, one per resampler, drawn under
// independent seeds, must agree in mean and in their 10/50/90% quantiles.
// Each side carries sampling error only; the tolerances are 5 standard
// errors, estimated from the draws themselves, so a sound resampler fails a
// few times in 10^6 runs.
void ExpectSameDistribution(const std::vector<double>& sparse,
                            const std::vector<double>& dense) {
  ASSERT_EQ(sparse.size(), dense.size());
  const double dn = static_cast<double>(sparse.size());
  double se_mean =
      std::sqrt((VarianceSample(sparse) + VarianceSample(dense)) / dn);
  EXPECT_NEAR(Mean(sparse), Mean(dense), 5.0 * se_mean);
  // Quantiles, compared distribution-free: the share of dense half-widths
  // below the sparse q-quantile is q up to two-sample binomial error.
  for (double q : {0.1, 0.5, 0.9}) {
    double cut = Quantile(sparse, q);
    double below = 0;
    for (double h : dense) below += h < cut ? 1.0 : 0.0;
    double tol = 5.0 * std::sqrt(2.0 * q * (1.0 - q) / dn);
    EXPECT_NEAR(below / dn, q, tol) << "quantile " << q;
  }
}

TEST(SupportBootstrapTest, HalfWidthsMatchTheDenseResampleDistribution) {
  // n = 2000, m = 40; 400 seeds per side and input. A fixed draw count
  // (always m) is caught.
  const size_t n = 2000, m = 40, seeds = 400, resamples = 120;
  // Balanced signs load the width on which rows are drawn; unbalanced ones
  // on how many draws land on the support.
  for (size_t plus : {m / 2, 3 * m / 4}) {
    SCOPED_TRACE(::testing::Message() << "plus=" << plus);
    SparseAvgInput in =
        MakeSparseAvgInput(n, m, plus, testutil::TestSeed(1501 + plus));
    const uint64_t base = testutil::TestSeed(1502 + plus);
    std::vector<double> sparse, dense;
    for (uint64_t k = 0; k < seeds; ++k) {
      Rng a(base + 2 * k), b(base + 2 * k + 1);
      sparse.push_back(AvgDifferenceBootstrapCI(in.s_contrib, in.c_contrib,
                                                in.pre, 0.95, resamples, a)
                           .half_width);
      dense.push_back(DenseAvgReference(in.s_contrib, in.c_contrib, in.pre,
                                        0.95, resamples, b)
                          .half_width);
    }
    ExpectSameDistribution(sparse, dense);
  }
}

TEST(SupportBootstrapTest, DirectVarMatchesTheDenseResampleDistribution) {
  // The phi-case VAR (no pre box) resamples only the query mask's rows.
  // Reference: n uniform draws over all rows, masked rows folded into
  // weighted moments, percentile half-width over 120 resamples.
  auto table = MakeSynthetic({.rows = 20000, .seed = 1561});
  Rng sample_rng(testutil::TestSeed(1562));
  auto sample = CreateUniformSample(*table, 0.1, sample_rng);
  ASSERT_TRUE(sample.ok()) << sample.status();
  SampleEstimator est(&*sample);
  RangeQuery q;
  q.func = AggregateFunction::kVar;
  q.agg_column = 2;
  q.predicate.Add({0, 1, 2});  // ~2% of c1's domain of 100
  auto mask = est.Mask(q.predicate);
  ASSERT_TRUE(mask.ok());
  const size_t n = sample->size();
  const std::vector<double> measure = sample->rows->column(2).ToDoubleVector();
  const size_t resamples = est.options().bootstrap_resamples;
  const double level = est.options().confidence_level;
  const uint64_t base = testutil::TestSeed(1563);
  std::vector<double> sparse, dense;
  for (uint64_t k = 0; k < 400; ++k) {
    Rng a(base + 2 * k), b(base + 2 * k + 1);
    auto ci = est.EstimateDirectMasked(q, *mask, a);
    ASSERT_TRUE(ci.ok());
    sparse.push_back(ci->half_width);
    std::vector<double> estimates;
    for (size_t r = 0; r < resamples; ++r) {
      RunningMoments m;
      for (size_t d = 0; d < n; ++d) {
        size_t i = static_cast<size_t>(b.NextBounded(n));
        if ((*mask)[i]) m.AddWeighted(measure[i], sample->weights[i]);
      }
      estimates.push_back(m.variance_population());
    }
    double alpha = (1.0 - level) / 2.0;
    dense.push_back(
        (Quantile(estimates, 1.0 - alpha) - Quantile(estimates, alpha)) / 2.0);
  }
  ExpectSameDistribution(sparse, dense);
}

TEST(SupportBootstrapTest, SameSeedSameBits) {
  SparseAvgInput in =
      MakeSparseAvgInput(2000, 40, 30, testutil::TestSeed(1511));
  const uint64_t seed = testutil::TestSeed(1512);
  Rng a(seed), b(seed);
  ConfidenceInterval x =
      AvgDifferenceBootstrapCI(in.s_contrib, in.c_contrib, in.pre, 0.95, 120, a);
  ConfidenceInterval y =
      AvgDifferenceBootstrapCI(in.s_contrib, in.c_contrib, in.pre, 0.95, 120, b);
  EXPECT_EQ(DoubleBits(x.estimate), DoubleBits(y.estimate));
  EXPECT_EQ(DoubleBits(x.half_width), DoubleBits(y.half_width));
  EXPECT_GT(x.half_width, 0.0);
  ConfidenceInterval v = VarDifferenceBootstrapCI(
      in.s2_contrib, in.s_contrib, in.c_contrib, in.pre, 0.95, 120, a);
  ConfidenceInterval w = VarDifferenceBootstrapCI(
      in.s2_contrib, in.s_contrib, in.c_contrib, in.pre, 0.95, 120, b);
  EXPECT_EQ(DoubleBits(v.estimate), DoubleBits(w.estimate));
  EXPECT_EQ(DoubleBits(v.half_width), DoubleBits(w.half_width));
  // Both generators were advanced identically.
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(SupportBootstrapTest, EmptySupportIsTheBoxValueWithZeroWidth) {
  const size_t n = 2000;
  std::vector<double> zeros(n, 0.0), neg_zeros(n, -0.0);
  PreValues pre{1234.5, 17.0, 98765.0};
  Rng rng(testutil::TestSeed(1521));
  ConfidenceInterval ci =
      AvgDifferenceBootstrapCI(zeros, neg_zeros, pre, 0.95, 120, rng);
  EXPECT_EQ(ci.half_width, 0.0);
  EXPECT_EQ(DoubleBits(ci.estimate), DoubleBits(pre.sum / pre.count));
}

TEST(SupportBootstrapTest, FewerThanTwoResamplesAreRefused) {
  // One resample has no spread, so its percentile interval would have zero
  // width. The bootstrap refuses such a count, and each way one enters the
  // program rejects it as an invalid argument before any query runs.
  SparseAvgInput in =
      MakeSparseAvgInput(2000, 40, 30, testutil::TestSeed(1531));
  Rng rng(testutil::TestSeed(1532));
  EXPECT_DEATH(AvgDifferenceBootstrapCI(in.s_contrib, in.c_contrib, in.pre,
                                        0.95, 1, rng),
               "estimates.size\\(\\) >= 2");

  synopsis::SynopsisOptions one = MakeOptions(1);
  one.bootstrap_resamples = 1;
  EXPECT_EQ(synopsis::CreateSynopsis("reservoir", one).status().code(),
            StatusCode::kInvalidArgument);
  auto table = MakeSynthetic({.rows = 2000, .seed = testutil::TestSeed(1533)});
  EngineOptions eopts;
  eopts.bootstrap_resamples = 1;
  EXPECT_EQ(AqppEngine::Create(table, eopts).status().code(),
            StatusCode::kInvalidArgument);

  // A synopsis file whose header says one resample.
  synopsis::ReservoirSynopsis writer("reservoir", one);
  ASSERT_TRUE(writer.BuildFromTable(*table).ok());
  std::string bytes;
  ASSERT_TRUE(writer.SerializeTo(&bytes).ok());
  auto reader =
      std::move(synopsis::CreateSynopsis("reservoir", MakeOptions(1))).value();
  EXPECT_EQ(reader->DeserializeFrom(bytes).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(reader->built());
}

TEST(SupportBootstrapTest, EstimateIsBitIdenticalToTheDenseRowOrderSum) {
  // Contributions spanning 17 decades with mixed signs, and no box values
  // to round them away, so any other summation order changes the bits.
  // Signed zeros sit inside the support (a row where only one series is
  // nonzero) and outside it.
  const size_t n = 2000;
  SparseAvgInput in;
  in.s2_contrib.assign(n, 0.0);
  in.s_contrib.assign(n, 0.0);
  in.c_contrib.assign(n, 0.0);
  Rng gen(testutil::TestSeed(1531));
  std::vector<size_t> rows = SampleWithoutReplacement(n, 60, gen);
  Shuffle(rows, gen);
  for (size_t j = 0; j < rows.size(); ++j) {
    const size_t i = rows[j];
    double diff = j < 45 ? 1.0 : -1.0;  // keeps the count sum positive
    double w = 1.0 + gen.NextDouble();
    double a = std::exp(40.0 * gen.NextDouble() - 20.0);
    in.s2_contrib[i] = w * a * a * diff;
    in.s_contrib[i] = w * a * diff;
    in.c_contrib[i] = w * diff;
  }
  in.s_contrib[7] = 0.0;
  in.c_contrib[7] = 3.25;
  in.s_contrib[11] = -0.0;
  in.c_contrib[11] = -0.0;
  in.s2_contrib[13] = -0.0;
  in.s_contrib[13] = 1e-300;
  in.c_contrib[13] = -0.0;

  double s2 = 0.0, s = 0.0, c = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s2 += in.s2_contrib[i];
    s += in.s_contrib[i];
    c += in.c_contrib[i];
  }
  Rng rng(testutil::TestSeed(1532));
  ConfidenceInterval avg =
      AvgDifferenceBootstrapCI(in.s_contrib, in.c_contrib, in.pre, 0.95, 120, rng);
  EXPECT_EQ(DoubleBits(avg.estimate), DoubleBits(s / c));
  double mean = s / c;
  double var = std::max(0.0, s2 / c - mean * mean);
  ConfidenceInterval v = VarDifferenceBootstrapCI(
      in.s2_contrib, in.s_contrib, in.c_contrib, in.pre, 0.95, 120, rng);
  EXPECT_EQ(DoubleBits(v.estimate), DoubleBits(var));
}

// log P(X = k) for X ~ Binomial(n, p), 0 < p < 1.
double LogBinomialPmf(uint64_t n, double p, uint64_t k) {
  double dn = static_cast<double>(n), dk = static_cast<double>(k);
  return std::lgamma(dn + 1) - std::lgamma(dk + 1) - std::lgamma(dn - dk + 1) +
         dk * std::log(p) + (dn - dk) * std::log1p(-p);
}

TEST(BinomialDrawTest, DegenerateProbabilitiesConsumeNothing) {
  Rng rng(testutil::TestSeed(1541)), twin(testutil::TestSeed(1541));
  EXPECT_EQ(rng.NextBinomial(1000, 0.0), 0u);
  EXPECT_EQ(rng.NextBinomial(1000, 1.0), 1000u);
  EXPECT_EQ(rng.NextBinomial(0, 0.3), 0u);
  EXPECT_EQ(rng.Next(), twin.Next());
}

TEST(BinomialDrawTest, MomentsAndChiSquareMatchThePmf) {
  // Means below 10 take the inversion path, the rest BTRS; p > 1/2 draws
  // the failures. Tolerances: 6 standard errors for the moments, and the
  // chi-square statistic's 1 - 1e-6 quantile (Wilson-Hilferty), so a
  // correct sampler fails about once in 10^6 runs at any AQPP_TEST_SEED.
  // 10^6 draws per case resolve a 0.1% bias in the mean at small means.
  struct Case {
    uint64_t n;
    double p;
  };
  const Case cases[] = {{2000, 0.002}, {100, 0.05},   {1000, 0.0105},
                        {40, 0.5},     {20000, 0.02}, {5000, 0.1},
                        {20000, 0.97}, {300, 0.9}};
  const size_t draws = 1000000;
  Rng rng(testutil::TestSeed(1542));
  for (const Case& tc : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << tc.n << " p=" << tc.p);
    const double mean = static_cast<double>(tc.n) * tc.p;
    const double var = mean * (1.0 - tc.p);
    std::vector<double> x(draws);
    std::vector<size_t> hist(tc.n + 1, 0);
    for (size_t d = 0; d < draws; ++d) {
      uint64_t k = rng.NextBinomial(tc.n, tc.p);
      ASSERT_LE(k, tc.n);
      x[d] = static_cast<double>(k);
      ++hist[k];
    }
    const double dd = static_cast<double>(draws);
    EXPECT_NEAR(Mean(x), mean, 6.0 * std::sqrt(var / dd));
    EXPECT_NEAR(VarianceSample(x), var, 6.0 * var * std::sqrt((2.0 + 1.0 / var) / dd));

    // Bins of single values with expected count >= 20; the tails are
    // pooled into the first and last bins.
    std::vector<double> expected, observed;
    double pooled_e = 0, pooled_o = 0;
    for (uint64_t k = 0; k <= tc.n; ++k) {
      pooled_e += dd * std::exp(LogBinomialPmf(tc.n, tc.p, k));
      pooled_o += static_cast<double>(hist[k]);
      if (pooled_e >= 20.0) {
        expected.push_back(pooled_e);
        observed.push_back(pooled_o);
        pooled_e = pooled_o = 0;
      }
    }
    ASSERT_GE(expected.size(), 3u);
    expected.back() += pooled_e;
    observed.back() += pooled_o;
    double chi2 = 0;
    for (size_t b = 0; b < expected.size(); ++b) {
      double d = observed[b] - expected[b];
      chi2 += d * d / expected[b];
    }
    const double df = static_cast<double>(expected.size() - 1);
    const double z = 4.753;  // standard normal 1 - 1e-6 quantile
    const double h = 2.0 / (9.0 * df);
    const double critical = df * std::pow(1.0 - h + z * std::sqrt(h), 3);
    EXPECT_LT(chi2, critical) << "bins=" << expected.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SynopsisPropertyTest,
    ::testing::ValuesIn(synopsis::RegisteredSynopses()), KindName);

}  // namespace
}  // namespace aqpp
