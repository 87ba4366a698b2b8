// The benchmark's own arithmetic: percentiles under the ten-beyond rule,
// answer accuracy against exact truth, and the share of a round trip the
// per-layer timings leave unattributed, and which replies the host-steal
// filter keeps. Pure functions; bench_math_test.cc pins each rule.

#ifndef AQPP_E2E_BENCH_BENCH_MATH_H_
#define AQPP_E2E_BENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aqpp {
namespace e2e {

// Nearest-rank percentile, p in (0, 1]: the value at sorted index
// ceil(p * n) - 1. `values` is taken by value and partially sorted.
double Percentile(std::vector<double> values, double p);

// Samples strictly above the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

// A tail percentile is reported only when at least ten samples lie beyond
// it, so a single slow request cannot set it.
constexpr size_t kMinSamplesBeyond = 10;
bool SupportsPercentile(size_t n, double p);

// Highest of {0.5, 0.9, 0.95, 0.99, 0.999} that n samples support (0 when
// none does) — what the run prints next to its fixed-name p95.
double HighestSupportedPercentile(size_t n);

// Trimmed mean: the mean of `values` after dropping the floor(share * n)
// lowest and as many highest. Up to that share of outliers at either end
// cannot move it. Unlike the median, it moves in proportion to the share
// of values that lie in each of two separated modes, so it does not jump
// from one mode to the other when that share crosses one half. 0 when
// `values` is empty. `values` is taken by value and sorted.
constexpr double kTrimShare = 0.05;
double TrimmedMean(std::vector<double> values, double share = kTrimShare);

// |estimate - truth| / |truth|; 0 when both are 0, +inf when only the
// truth is 0.
double RelativeError(double estimate, double truth);

// Whether [lo, hi] contains the truth (inclusive).
bool Covers(double lo, double hi, double truth);

// Accuracy of a batch of answers, each against its exact truth.
struct AnswerAccuracy {
  double estimate = 0;
  double lo = 0;
  double hi = 0;
  double half_width = 0;
  double truth = 0;
};
struct AccuracySummary {
  size_t answers = 0;
  double median_rel_error = 0;
  double ci_coverage = 0;              // share of intervals holding the truth
  double median_ci_rel_halfwidth = 0;  // median of half_width / |truth|
};
AccuracySummary SummarizeAccuracy(const std::vector<AnswerAccuracy>& answers);

// A gross-error guard, not a coverage test (a 95% interval legitimately
// misses one answer in twenty): the estimate must be finite, inside its own
// interval, and no further from the truth than kGrossMissHalfWidths
// half-widths. The half-width is floored at `min_rel_half_width` * |truth|
// (the run passes its median relative half-width) so a collapsed,
// zero-width interval is judged on the scale the run's other answers have
// rather than demanding exactness; collapsed intervals that miss are
// counted separately (ZeroWidthMiss). kExactRelTolerance absorbs
// summation-order rounding.
constexpr double kGrossMissHalfWidths = 10.0;
constexpr double kExactRelTolerance = 1e-9;
bool PlausibleAnswer(const AnswerAccuracy& a, double min_rel_half_width);

// A zero-width interval that does not hold the truth beyond rounding.
bool ZeroWidthMiss(const AnswerAccuracy& a);

// 1 - sum(layer_ms) / end_to_end_ms: the share of the end-to-end median the
// listed blocking-path layers do not account for. Negative when the layers
// sum past the end-to-end figure (their timings overlap or were taken on a
// faster path).
double UnattributedFraction(const std::vector<double>& layer_ms,
                            double end_to_end_ms);

// The host-steal filter. A measured window is cut into consecutive
// intervals, each with the CPU ticks the host stole from this VM during it.
// The quieter half of the window is kept: intervals in order of fewest
// stolen ticks until they cover half its length. Among intervals with equal
// steal, the even-numbered ones come first (earlier first within each
// parity), so when most of the window is clean the kept half still spans
// the whole window rather than its first half. A reply counts when the
// interval it completed in is kept. The choice depends on the host's steal
// and on when a reply completed, never on how long it took, so a slow
// reply is kept as often as a fast one; and it is the same rule in every
// run, however much the host stole.
class QuietIntervals {
 public:
  // `bounds_s`: the n + 1 interval boundaries, increasing, in seconds from
  // the window's start; `steal[i]`: ticks stolen in [bounds_s[i],
  // bounds_s[i + 1]).
  QuietIntervals(std::vector<double> bounds_s, std::vector<uint64_t> steal);

  // Whether the interval holding `done_s` is kept (false outside the
  // window).
  bool Kept(double done_s) const;
  double KeptSeconds() const { return kept_s_; }
  // Seconds of intervals with no steal at all.
  double CleanSeconds() const { return clean_s_; }
  double WindowSeconds() const;

 private:
  std::vector<double> bounds_s_;
  std::vector<bool> kept_;
  double kept_s_ = 0;
  double clean_s_ = 0;
};

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_BENCH_MATH_H_
