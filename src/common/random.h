// Fast, reproducible pseudo-random number generation.
//
// All randomized components of the library (samplers, generators, bootstrap)
// take an explicit `Rng&` so experiments are reproducible from a single seed.

#ifndef AQPP_COMMON_RANDOM_H_
#define AQPP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aqpp {

// xoshiro256** with a SplitMix64 seeder. Satisfies the UniformRandomBitGenerator
// concept so it plugs into <random> distributions as well.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  // Raw 64 random bits.
  uint64_t operator()() { return Next(); }
  uint64_t Next();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound) using Lemire's rejection method.
  // Requires bound > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  // Standard normal via Box-Muller.
  double NextGaussian();

  // Bernoulli(p).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  // Binomial(n, p): successes in n independent Bernoulli(p) trials, exact.
  // Inversion when n * min(p, 1 - p) < 10, else Hormann's (1993)
  // transformed rejection with squeeze (BTRS). Consumes only this
  // generator (no <random> distribution, whose algorithm is left to each
  // standard library), and none of it when p is 0 or 1. Requires
  // 0 <= p <= 1.
  uint64_t NextBinomial(uint64_t n, double p);

  // Forks a statistically independent child generator (for parallel use).
  Rng Fork();

 private:
  uint64_t s_[4];
  // Cached second Box-Muller variate.
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

// Fisher-Yates shuffle of `v` in place.
template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    size_t j = static_cast<size_t>(rng.NextBounded(i));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

// Floyd's algorithm: k distinct indices drawn uniformly from [0, n).
// Returned sorted ascending. Requires k <= n.
std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k, Rng& rng);

}  // namespace aqpp

#endif  // AQPP_COMMON_RANDOM_H_
