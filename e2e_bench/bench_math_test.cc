// Tests of the benchmark's own arithmetic: the ten-beyond percentile rule,
// the trimmed mean, relative error and coverage, unattributed share, the
// host-steal filter, the exact-truth sweep, and a round trip of a result
// line through the JSON writer and reader.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "bench_math.h"
#include "json.h"
#include "truth.h"

namespace aqpp {
namespace e2e {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.95), 95);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile({7}, 0.95), 7);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  // Order of the input does not matter.
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 0.5), 3);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  // p95 of 200 samples has exactly ten beyond it; 199 leave nine.
  EXPECT_EQ(SamplesBeyond(200, 0.95), 10u);
  EXPECT_TRUE(SupportsPercentile(200, 0.95));
  EXPECT_EQ(SamplesBeyond(199, 0.95), 9u);
  EXPECT_FALSE(SupportsPercentile(199, 0.95));
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
  EXPECT_EQ(HighestSupportedPercentile(5), 0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(250), 0.95);
  EXPECT_EQ(HighestSupportedPercentile(13000), 0.999);
}

TEST(AccuracyTest, RelativeErrorAndCoverage) {
  EXPECT_DOUBLE_EQ(RelativeError(110, 100), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(-90, -100), 0.1);
  EXPECT_EQ(RelativeError(0, 0), 0);
  EXPECT_TRUE(std::isinf(RelativeError(1, 0)));
  EXPECT_TRUE(Covers(1, 3, 1));
  EXPECT_TRUE(Covers(1, 3, 3));
  EXPECT_FALSE(Covers(1, 3, 3.0000001));

  // Truth 100 everywhere: errors 0.01, 0.05, 0.20; the third interval
  // misses; half-widths 2, 6, 10.
  const std::vector<AnswerAccuracy> answers = {
      {101, 99, 103, 2, 100},
      {105, 99, 111, 6, 100},
      {120, 110, 130, 10, 100},
  };
  const AccuracySummary s = SummarizeAccuracy(answers);
  EXPECT_EQ(s.answers, 3u);
  EXPECT_DOUBLE_EQ(s.median_rel_error, 0.05);
  EXPECT_DOUBLE_EQ(s.ci_coverage, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.median_ci_rel_halfwidth, 0.06);
  EXPECT_EQ(SummarizeAccuracy({}).answers, 0u);
}

TEST(AccuracyTest, GrossMissGuard) {
  // Inside ten half-widths passes, beyond fails.
  EXPECT_TRUE(PlausibleAnswer({109, 108, 110, 1, 100}, 0));
  EXPECT_FALSE(PlausibleAnswer({111, 110, 112, 1, 100}, 0));
  // Estimate outside its own interval, or non-finite, always fails.
  EXPECT_FALSE(PlausibleAnswer({100, 101, 102, 0.5, 100}, 0));
  EXPECT_FALSE(PlausibleAnswer(
      {std::numeric_limits<double>::quiet_NaN(), 0, 1, 1, 100}, 0));
  // A zero-width answer: exact up to rounding passes without a floor; off
  // by 1% fails without one and passes under a 1% floor (10 x 1% = 10%).
  EXPECT_TRUE(PlausibleAnswer({100 + 1e-10, 100 + 1e-10, 100 + 1e-10, 0, 100}, 0));
  EXPECT_FALSE(PlausibleAnswer({101, 101, 101, 0, 100}, 0));
  EXPECT_TRUE(PlausibleAnswer({101, 101, 101, 0, 100}, 0.01));
  EXPECT_FALSE(PlausibleAnswer({111, 111, 111, 0, 100}, 0.01));
  EXPECT_TRUE(ZeroWidthMiss({101, 101, 101, 0, 100}));
  EXPECT_FALSE(ZeroWidthMiss({100, 100, 100, 0, 100}));
  EXPECT_FALSE(ZeroWidthMiss({101, 100, 102, 1, 100}));
}

TEST(UnattributedTest, ShareOfTheRoundTrip) {
  EXPECT_DOUBLE_EQ(UnattributedFraction({0.5, 0.25, 0.25}, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(UnattributedFraction({1.0, 1.0}, 2.0), 0.0);
  // Layers summing past the end-to-end figure read negative.
  EXPECT_DOUBLE_EQ(UnattributedFraction({3.0}, 2.0), -0.5);
  EXPECT_EQ(UnattributedFraction({1.0}, 0.0), 0.0);
}

TEST(TrimmedMeanTest, DropsBothEnds) {
  // 20 values, 5%: one dropped at each end.
  std::vector<double> v = {1000, -1000};
  for (int i = 1; i <= 18; ++i) v.push_back(i);
  EXPECT_NEAR(TrimmedMean(v), 9.5, 1e-12);
  EXPECT_NEAR(TrimmedMean({1, 2, 3, 10}, 0.25), 2.5, 1e-12);
  EXPECT_NEAR(TrimmedMean({4, 8}, 0.5), 6, 1e-12);  // at least one is kept
  EXPECT_EQ(TrimmedMean({}), 0);
}

TEST(TrimmedMeanTest, MovesWithTheShareOfTwoModes) {
  // Replies in a 10 ms and a 14 ms mode. The median jumps a whole mode
  // when the slow share crosses one half; the trimmed mean moves by the
  // share times the gap.
  auto mixed = [](int slow_per_10) {
    std::vector<double> v;
    for (int i = 0; i < 1000; ++i) v.push_back(i % 10 < slow_per_10 ? 14 : 10);
    return v;
  };
  EXPECT_EQ(Percentile(mixed(4), 0.5), 10);
  EXPECT_EQ(Percentile(mixed(6), 0.5), 14);
  // 50 of each end dropped: 350 of 900 slow, then 550 of 900.
  EXPECT_NEAR(TrimmedMean(mixed(4)), 10 + 4.0 * 350 / 900, 1e-9);
  EXPECT_NEAR(TrimmedMean(mixed(6)), 10 + 4.0 * 550 / 900, 1e-9);
  // A burst of outliers within the trimmed share does not move it.
  std::vector<double> burst = mixed(5);
  for (int i = 0; i < 50; ++i) burst[10 * i] = 500;  // 50 slow ones
  EXPECT_NEAR(TrimmedMean(mixed(5)), 12, 1e-9);
  EXPECT_NEAR(TrimmedMean(burst), 12, 1e-9);
}

TEST(QuietIntervalsTest, KeepsTheQuieterHalf) {
  // Ten 100 ms intervals; the host stole in 2, 3, 4 (much), 5 and 9.
  std::vector<double> bounds;
  for (int i = 0; i <= 10; ++i) bounds.push_back(0.1 * i);
  const QuietIntervals quiet(bounds, {0, 0, 3, 1, 40, 2, 0, 0, 0, 5});
  // Five clean intervals make half the window: 0, 1, 6, 7, 8.
  EXPECT_NEAR(quiet.CleanSeconds(), 0.5, 1e-12);
  EXPECT_NEAR(quiet.KeptSeconds(), 0.5, 1e-12);
  EXPECT_NEAR(quiet.WindowSeconds(), 1.0, 1e-12);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(quiet.Kept(0.1 * i + 0.05), i <= 1 || (i >= 6 && i <= 8)) << i;
  }
  EXPECT_FALSE(quiet.Kept(-0.01));
  EXPECT_FALSE(quiet.Kept(1.0));
}

TEST(QuietIntervalsTest, SelectionIgnoresLatency) {
  std::vector<double> bounds;
  for (int i = 0; i <= 10; ++i) bounds.push_back(0.1 * i);
  const QuietIntervals quiet(bounds, {0, 0, 3, 1, 40, 2, 0, 0, 0, 5});
  // A 250 ms reply inside the clean stretch 6-8 is kept like a 1 ms one.
  EXPECT_TRUE(quiet.Kept(0.89));   // sent at 0.64, done at 0.89
  EXPECT_TRUE(quiet.Kept(0.641));  // sent at 0.64, done at 0.641
  // Whether a reply counts depends on where it completed only: one that
  // started in a stolen interval and completed in a kept one counts.
  EXPECT_TRUE(quiet.Kept(0.61));  // sent at 0.45
  EXPECT_FALSE(quiet.Kept(0.45));
}

TEST(QuietIntervalsTest, SameRuleWhenNothingIsClean) {
  // Every interval stolen from: the least-stolen half is kept, earlier
  // first among equals.
  const QuietIntervals quiet({0, 0.1, 0.2, 0.3, 0.4}, {7, 2, 9, 2});
  EXPECT_EQ(quiet.CleanSeconds(), 0);
  EXPECT_NEAR(quiet.KeptSeconds(), 0.2, 1e-12);
  EXPECT_FALSE(quiet.Kept(0.05));
  EXPECT_TRUE(quiet.Kept(0.15));
  EXPECT_FALSE(quiet.Kept(0.25));
  EXPECT_TRUE(quiet.Kept(0.35));
  // Uneven intervals: kept until they cover half the window's length.
  const QuietIntervals uneven({0, 0.1, 0.2, 1.0}, {0, 0, 1});
  EXPECT_NEAR(uneven.KeptSeconds(), 1.0, 1e-12);
  EXPECT_TRUE(uneven.Kept(0.5));
}

TEST(QuietIntervalsTest, CleanWindowKeepsAlternateIntervals) {
  // Eight clean intervals of ten: among equals, even-numbered intervals
  // come first, so the kept half spans the window instead of its start.
  std::vector<double> bounds;
  for (int i = 0; i <= 10; ++i) bounds.push_back(0.1 * i);
  const QuietIntervals quiet(bounds, {0, 0, 0, 0, 0, 0, 0, 0, 3, 1});
  EXPECT_NEAR(quiet.KeptSeconds(), 0.5, 1e-12);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(quiet.Kept(0.1 * i + 0.05), (i % 2 == 0 && i < 8) || i == 1)
        << i;
  }
}

TEST(TruthTest, SweepMatchesBruteForce) {
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"v", DataType::kDouble}});
  Table table(schema);
  std::vector<int64_t> xs, ys;
  std::vector<double> vs;
  for (int i = 0; i < 500; ++i) {
    xs.push_back((i * 37) % 41);
    ys.push_back((i * 11) % 23);
    vs.push_back(0.5 * i - 40);
  }
  table.mutable_column(0).MutableInt64Data() = xs;
  table.mutable_column(1).MutableInt64Data() = ys;
  table.mutable_column(2).MutableDoubleData() = vs;
  table.SetRowCountFromColumns();
  auto truth = RangeTruth::Build(table, 0, 1, 2);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  std::vector<RangeQuery> queries;
  const AggregateFunction funcs[] = {
      AggregateFunction::kCount, AggregateFunction::kSum,
      AggregateFunction::kAvg, AggregateFunction::kVar};
  for (int q = 0; q < 40; ++q) {
    RangeQuery query;
    query.func = funcs[q % 4];
    query.agg_column = 2;
    const int64_t x_lo = q % 17, y_lo = q % 9;
    query.predicate.Add({0, x_lo, x_lo + 3 + q % 20});
    if (q % 3 != 0) query.predicate.Add({1, y_lo, y_lo + 2 + q % 12});
    queries.push_back(query);
  }
  auto answers = truth->Answers(queries);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  for (size_t q = 0; q < queries.size(); ++q) {
    double n = 0, sum = 0, sum_sq = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      bool pass = true;
      for (const RangeCondition& c : queries[q].predicate.conditions()) {
        const int64_t v = c.column == 0 ? xs[i] : ys[i];
        pass = pass && c.lo <= v && v <= c.hi;
      }
      if (!pass) continue;
      n += 1;
      sum += vs[i];
      sum_sq += vs[i] * vs[i];
    }
    double expected = 0;
    switch (queries[q].func) {
      case AggregateFunction::kCount: expected = n; break;
      case AggregateFunction::kSum: expected = sum; break;
      case AggregateFunction::kAvg: expected = n ? sum / n : 0; break;
      default: expected = n ? sum_sq / n - (sum / n) * (sum / n) : 0; break;
    }
    EXPECT_NEAR((*answers)[q], expected, 1e-9 * (1 + std::fabs(expected)))
        << "query " << q;
  }

  // A condition on a column the sweep does not index is an error.
  RangeQuery other;
  other.agg_column = 2;
  other.predicate.Add({2, 0, 1});
  EXPECT_FALSE(truth->Answers({other}).ok());
}

TEST(JsonTest, ResultLineRoundTrip) {
  Json metrics = Json::Object();
  const double awkward[] = {1.2034, 0.1 + 0.2, 1e-300, 123456789.123456789,
                            -0.0, 5e-324};
  for (size_t i = 0; i < std::size(awkward); ++i) {
    Json m = Json::Object();
    m.Set("value", Json::Number(awkward[i]));
    m.Set("unit", Json::String(i % 2 ? "ms" : "1/s"));
    metrics.Set("m" + std::to_string(i), std::move(m));
  }
  Json line = Json::Object();
  line.Set("correct", Json::Bool(true));
  line.Set("attempted", Json::Number(1000));
  line.Set("failed", Json::Number(0));
  line.Set("metrics", metrics);
  line.Set("note", Json::String("quote \" backslash \\ tab \t"));

  const std::string text = line.Dump();
  EXPECT_EQ(text.find('\n'), std::string::npos) << "one line";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Dump(), text);
  EXPECT_TRUE(parsed->Find("correct")->as_bool());
  EXPECT_EQ(parsed->Find("attempted")->as_number(), 1000);
  EXPECT_EQ(parsed->Find("note")->as_string(), "quote \" backslash \\ tab \t");
  const Json* m = parsed->Find("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->members().size(), std::size(awkward));
  for (size_t i = 0; i < std::size(awkward); ++i) {
    const double back = m->members()[i].second.Find("value")->as_number();
    EXPECT_EQ(std::memcmp(&back, &awkward[i], sizeof(double)), 0)
        << "value " << i << " lost digits";
  }
  // Keys keep their order; the first key is the first written.
  EXPECT_EQ(parsed->members().front().first, "correct");
}

TEST(JsonTest, RejectsMalformed) {
  for (const char* bad : {"", "{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x",
                          "\"unterminated", "nope"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
  auto empty = Json::Parse(" { } ");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->kind(), Json::Kind::kObject);
}

}  // namespace
}  // namespace e2e
}  // namespace aqpp
