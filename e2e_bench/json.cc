#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace aqpp {
namespace e2e {

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

Json Json::String(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

const Json* Json::Find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::Push(Json v) {
  items_.push_back(std::move(v));
  return items_.back();
}

Json& Json::Set(const std::string& key, Json v) {
  for (auto& [k, existing] : members_) {
    if (k == key) return existing = std::move(v);
  }
  members_.emplace_back(key, std::move(v));
  return members_.back().second;
}

namespace {

void DumpString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      *out += "null";
      break;
    case Json::Kind::kBool:
      *out += j.as_bool() ? "true" : "false";
      break;
    case Json::Kind::kNumber: {
      // JSON has no NaN/Infinity; a non-finite metric is written as null.
      if (!std::isfinite(j.as_number())) {
        *out += "null";
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", j.as_number());
      *out += buf;
      break;
    }
    case Json::Kind::kString:
      DumpString(j.as_string(), out);
      break;
    case Json::Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < j.items().size(); ++i) {
        if (i > 0) *out += ", ";
        DumpTo(j.items()[i], out);
      }
      out->push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < j.members().size(); ++i) {
        if (i > 0) *out += ", ";
        DumpString(j.members()[i].first, out);
        *out += ": ";
        DumpTo(j.members()[i].second, out);
      }
      out->push_back('}');
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> ParseDocument() {
    AQPP_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(const char* literal) {
    size_t n = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      AQPP_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::String(std::move(s));
    }
    if (Consume("true")) return Json::Bool(true);
    if (Consume("false")) return Json::Bool(false);
    if (Consume("null")) return Json();
    return ParseNumber();
  }

  Result<Json> ParseNumber() {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) return Error("expected a value");
    pos_ += static_cast<size_t>(end - begin);
    return Json::Number(v);
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = static_cast<unsigned>(
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          if (code >= 0x80) return Error("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;
    Json out = Json::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      AQPP_ASSIGN_OR_RETURN(Json item, ParseValue(depth + 1));
      out.Push(std::move(item));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return out;
      }
      return Error("expected ',' or ']'");
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;
    Json out = Json::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a member name");
      }
      AQPP_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Error("expected ':'");
      ++pos_;
      AQPP_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      out.Set(key, std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return out;
      }
      return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace e2e
}  // namespace aqpp
