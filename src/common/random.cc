#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace aqpp {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// The tail of Stirling's series for log k!, i.e. log k! minus
// (k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2; tabulated below 10.
double StirlingTail(double k) {
  static constexpr double kTail[10] = {
      0.081061466795327261, 0.041340695955409297, 0.027677925684998338,
      0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
      0.01189670994589177,  0.010411265261972096, 0.0092554621827127329,
      0.0083305634333628708};
  if (k < 10) return kTail[static_cast<int>(k)];
  const double x = k + 1;
  const double x2 = x * x;
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / x2) / x2) / x;
}

// Sequential-search inversion from 0, for 0 < p <= 1/2 and n * p < 10.
uint64_t BinomialInversion(uint64_t n, double p, Rng& rng) {
  const double s = p / (1.0 - p);
  const double a = (static_cast<double>(n) + 1.0) * s;
  const double pmf0 = std::exp(static_cast<double>(n) * std::log1p(-p));
  for (;;) {
    double u = rng.NextDouble();
    double pmf = pmf0;
    uint64_t x = 0;
    // Rounding can leave the summed pmf just short of u; walking off the
    // support (or into underflow) redraws instead of looping.
    while (u > pmf && x <= n && pmf > 0) {
      u -= pmf;
      ++x;
      pmf *= a / static_cast<double>(x) - s;
    }
    if (u <= pmf && x <= n) return x;
  }
}

// BTRS: Hormann (1993), "The generation of binomial random variates",
// transformed rejection with squeeze; for p <= 1/2 and n * p >= 10.
// Its draw costs O(1). The simpler waiting-time method (sum geometric gaps
// until they pass n) costs one log per success, and on the table1_avg
// end-to-end benchmark it raised query_mean_ms from 0.496 to 0.576 ms
// (medians of 10 interleaved pairs, slower in 8; 4-vCPU Xeon VM).
uint64_t BinomialBtrs(uint64_t n, double p, Rng& rng) {
  const double dn = static_cast<double>(n);
  const double spq = std::sqrt(dn * p * (1.0 - p));
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = dn * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double r = p / (1.0 - p);
  const double m = std::floor((dn + 1.0) * p);
  // The terms of log(f(k) / f(m)) that do not depend on k.
  const double log_mode =
      (m + 0.5) * std::log((m + 1.0) / (r * (dn - m + 1.0))) +
      StirlingTail(m) + StirlingTail(dn - m);
  for (;;) {
    const double u = rng.NextDouble() - 0.5;
    double v = rng.NextDouble();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0 || k > dn) continue;
    if (us >= 0.07 && v <= v_r) return static_cast<uint64_t>(k);
    // Accept iff log v <= log(f(k) / f(m)), the pmf ratio in Stirling form.
    v = std::log(v * alpha / (a / (us * us) + b));
    const double log_ratio =
        log_mode + (dn + 1.0) * std::log((dn - m + 1.0) / (dn - k + 1.0)) +
        (k + 0.5) * std::log(r * (dn - k + 1.0) / (k + 1.0)) -
        StirlingTail(k) - StirlingTail(dn - k);
    if (v <= log_ratio) return static_cast<uint64_t>(k);
  }
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // Avoid the all-zero state (xoshiro fixed point).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  AQPP_DCHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  AQPP_DCHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range.
  uint64_t draw = span == 0 ? Next() : NextBounded(span);
  return lo + static_cast<int64_t>(draw);
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Guard against log(0).
  if (u1 <= 0) u1 = 0x1.0p-53;
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

uint64_t Rng::NextBinomial(uint64_t n, double p) {
  AQPP_DCHECK(p >= 0.0 && p <= 1.0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Both algorithms need p <= 1/2: draw the failures instead.
  if (p > 0.5) return n - NextBinomial(n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) {
    return BinomialInversion(n, p, *this);
  }
  return BinomialBtrs(n, p, *this);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xa3c59ac2ULL); }

std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng& rng) {
  AQPP_CHECK_LE(k, n);
  // For dense draws a shuffle-prefix is cheaper than Floyd's hashing.
  if (k * 3 >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    // Partial Fisher-Yates: fix positions [0, k).
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(rng.NextBounded(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    std::sort(all.begin(), all.end());
    return all;
  }
  std::unordered_set<size_t> chosen;
  chosen.reserve(k * 2);
  for (size_t j = n - k; j < n; ++j) {
    size_t t = static_cast<size_t>(rng.NextBounded(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  std::vector<size_t> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aqpp
