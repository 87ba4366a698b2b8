#include "spans.h"

#include <cstdio>

#include "bench_math.h"
#include "json.h"

namespace aqpp {
namespace e2e {

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ms());
  }
  return out;
}

double SpanRecorder::MedianMs(const std::string& name) const {
  return Percentile(DurationsMs(name), 0.5);
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point() : spans_.front().start;
  auto micros = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const Span& s : spans_) {
    Json line = Json::Object();
    line.Set("request", Json::Number(static_cast<double>(s.request)));
    line.Set("name", Json::String(s.name));
    line.Set("parent", Json::String(s.parent));
    line.Set("start_us", Json::Number(micros(s.start)));
    line.Set("end_us", Json::Number(micros(s.end)));
    std::fprintf(f, "%s\n", line.Dump().c_str());
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot close " + path);
}

}  // namespace e2e
}  // namespace aqpp
