// Minimal JSON for the benchmark's result lines: an ordered value tree, a
// writer that keeps every digit of a double (%.17g, so a value reads back
// bit-identical), and a strict reader for the round-trip test and for
// reading result files back.

#ifndef AQPP_E2E_BENCH_JSON_H_
#define AQPP_E2E_BENCH_JSON_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace aqpp {
namespace e2e {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json Bool(bool b);
  static Json Number(double v);
  static Json String(std::string s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  // Object members in insertion order.
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  // Member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;

  // Appends to an array / sets (replacing) an object member.
  Json& Push(Json v);
  Json& Set(const std::string& key, Json v);

  // Compact one-line text.
  std::string Dump() const;
  static Result<Json> Parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace e2e
}  // namespace aqpp

#endif  // AQPP_E2E_BENCH_JSON_H_
