// In-memory span recorder for the traced run. The benchmark times each call
// it makes into a layer's public API and records one span per call: name,
// start, end, the request it replays and the span that caused it. Nothing
// is written until the run ends (WriteJsonLines), so recording costs one
// clock read pair and a vector append.

#ifndef AQPP_E2E_BENCH_SPANS_H_
#define AQPP_E2E_BENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace aqpp {
namespace e2e {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    uint64_t request = 0;
    std::string name;
    std::string parent;  // empty for a request's root span
    Clock::time_point start;
    Clock::time_point end;
    double ms() const {
      return std::chrono::duration<double, std::milli>(end - start).count();
    }
  };

  // Times `fn()` as span `name` of `request` and returns what it returns.
  template <typename Fn>
  auto Time(uint64_t request, const std::string& name,
            const std::string& parent, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    Record(request, name, parent, start, Clock::now());
    return result;
  }

  void Record(uint64_t request, const std::string& name,
              const std::string& parent, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back({request, name, parent, start, end});
  }

  // Durations (ms) of every span named `name`, in recording order.
  std::vector<double> DurationsMs(const std::string& name) const;
  // Median duration (ms) of spans named `name`; 0 when none was recorded.
  double MedianMs(const std::string& name) const;

  size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per span, times in microseconds from the first span.
  Status WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_SPANS_H_
