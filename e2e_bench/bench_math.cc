#include "bench_math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace aqpp {
namespace e2e {

namespace {

size_t NearestRankIndex(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) - 1;
}

double Median(std::vector<double> values) {
  return values.empty() ? 0.0 : Percentile(std::move(values), 0.5);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t k = NearestRankIndex(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(k),
                   values.end());
  return values[k];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, p);
}

bool SupportsPercentile(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

double HighestSupportedPercentile(size_t n) {
  double best = 0;
  for (double p : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    if (SupportsPercentile(n, p)) best = p;
  }
  return best;
}

double TrimmedMean(std::vector<double> values, double share) {
  const size_t n = values.size();
  if (n == 0) return 0.0;
  const size_t cut = std::min(
      static_cast<size_t>(share * static_cast<double>(n)), (n - 1) / 2);
  std::sort(values.begin(), values.end());
  double sum = 0;
  for (size_t i = cut; i < n - cut; ++i) sum += values[i];
  return sum / static_cast<double>(n - 2 * cut);
}

double RelativeError(double estimate, double truth) {
  const double diff = std::fabs(estimate - truth);
  if (truth == 0) {
    return diff == 0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return diff / std::fabs(truth);
}

bool Covers(double lo, double hi, double truth) {
  return lo <= truth && truth <= hi;
}

AccuracySummary SummarizeAccuracy(const std::vector<AnswerAccuracy>& answers) {
  AccuracySummary s;
  s.answers = answers.size();
  if (answers.empty()) return s;
  std::vector<double> errors, widths;
  size_t covered = 0;
  for (const AnswerAccuracy& a : answers) {
    errors.push_back(RelativeError(a.estimate, a.truth));
    widths.push_back(a.truth == 0 ? std::numeric_limits<double>::infinity()
                                  : a.half_width / std::fabs(a.truth));
    if (Covers(a.lo, a.hi, a.truth)) ++covered;
  }
  s.median_rel_error = Median(std::move(errors));
  s.ci_coverage = static_cast<double>(covered) / static_cast<double>(s.answers);
  s.median_ci_rel_halfwidth = Median(std::move(widths));
  return s;
}

bool PlausibleAnswer(const AnswerAccuracy& a, double min_rel_half_width) {
  if (!std::isfinite(a.estimate) || !std::isfinite(a.half_width) ||
      a.half_width < 0 || !(a.lo <= a.estimate && a.estimate <= a.hi)) {
    return false;
  }
  const double scale =
      std::max(a.half_width, min_rel_half_width * std::fabs(a.truth));
  const double miss = std::fabs(a.estimate - a.truth);
  return miss <= kGrossMissHalfWidths * scale +
                     kExactRelTolerance * std::fabs(a.truth);
}

bool ZeroWidthMiss(const AnswerAccuracy& a) {
  return a.half_width == 0 &&
         std::fabs(a.estimate - a.truth) >
             kExactRelTolerance * std::fabs(a.truth);
}

double UnattributedFraction(const std::vector<double>& layer_ms,
                            double end_to_end_ms) {
  if (end_to_end_ms <= 0) return 0.0;
  double attributed = 0;
  for (double ms : layer_ms) attributed += ms;
  return 1.0 - attributed / end_to_end_ms;
}

QuietIntervals::QuietIntervals(std::vector<double> bounds_s,
                               std::vector<uint64_t> steal)
    : bounds_s_(std::move(bounds_s)), kept_(steal.size(), false) {
  const size_t n = steal.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::pair(steal[a], a % 2) < std::pair(steal[b], b % 2);
  });
  auto length = [&](size_t i) { return bounds_s_[i + 1] - bounds_s_[i]; };
  // A nanosecond absorbs rounding in the sums of interval lengths.
  const double half = WindowSeconds() / 2 - 1e-9;
  for (size_t i : order) {
    if (kept_s_ >= half) break;
    kept_[i] = true;
    kept_s_ += length(i);
  }
  for (size_t i = 0; i < n; ++i) {
    if (steal[i] == 0) clean_s_ += length(i);
  }
}

bool QuietIntervals::Kept(double done_s) const {
  // Interval i is [bounds_s_[i], bounds_s_[i + 1]).
  const auto above = std::upper_bound(bounds_s_.begin(), bounds_s_.end(), done_s);
  if (above == bounds_s_.begin() || above == bounds_s_.end()) return false;
  return kept_[static_cast<size_t>(above - bounds_s_.begin()) - 1];
}

double QuietIntervals::WindowSeconds() const {
  return bounds_s_.size() < 2 ? 0.0 : bounds_s_.back() - bounds_s_.front();
}

}  // namespace e2e
}  // namespace aqpp
