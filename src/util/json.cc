#include "util/json.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace sjsel {
namespace {

// Recursive-descent parser over a raw byte range. Positions are byte
// offsets into the original text, quoted in every error.
class Parser {
 public:
  Parser(const char* begin, size_t size)
      : begin_(begin), p_(begin), end_(begin + size) {}

  Result<JsonValue> ParseDocument() {
    SkipWs();
    JsonValue v;
    SJSEL_ASSIGN_OR_RETURN(v, ParseValue(0));
    SkipWs();
    if (p_ != end_) return Error("trailing characters after document");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(offset()));
  }
  size_t offset() const { return static_cast<size_t>(p_ - begin_); }

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const char* q = p_;
    while (*lit != '\0') {
      if (q == end_ || *q != *lit) return false;
      ++q;
      ++lit;
    }
    p_ = q;
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > JsonValue::kMaxDepth) return Error("nesting too deep");
    if (p_ == end_) return Error("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        std::string s;
        SJSEL_ASSIGN_OR_RETURN(s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue::Bool(true);
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue::Bool(false);
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue::Null();
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++p_;  // '{'
    JsonValue obj = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Error("expected object key");
      std::string key;
      SJSEL_ASSIGN_OR_RETURN(key, ParseString());
      SkipWs();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipWs();
      JsonValue v;
      SJSEL_ASSIGN_OR_RETURN(v, ParseValue(depth + 1));
      obj.Set(key, std::move(v));
      SkipWs();
      if (Consume('}')) return obj;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++p_;  // '['
    JsonValue arr = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      SkipWs();
      JsonValue v;
      SJSEL_ASSIGN_OR_RETURN(v, ParseValue(depth + 1));
      arr.Append(std::move(v));
      SkipWs();
      if (Consume(']')) return arr;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++p_;  // '"'
    std::string out;
    while (true) {
      if (p_ == end_) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        return out;
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++p_;
        continue;
      }
      ++p_;  // '\'
      if (p_ == end_) return Error("unterminated escape");
      switch (*p_) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          ++p_;
          unsigned code = 0;
          if (!ReadHex4(&code)) return Error("bad \\u escape");
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned lo = 0;
            if (p_ + 1 < end_ && p_[0] == '\\' && p_[1] == 'u') {
              p_ += 2;
              if (!ReadHex4(&lo)) return Error("bad \\u escape");
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              return Error("lone high surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate");
          }
          AppendUtf8(&out, code);
          continue;  // ReadHex4 already advanced p_
        }
        default:
          return Error("unknown escape");
      }
      ++p_;
    }
  }

  bool ReadHex4(unsigned* out) {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (p_ == end_) return false;
      const char c = *p_;
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
      ++p_;
    }
    *out = v;
    return true;
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '+' || *p_ == '-')) ++p_;
      while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    }
    if (p_ == start) return Error("expected a value");
    const std::string text(start, static_cast<size_t>(p_ - start));
    char* parse_end = nullptr;
    const double v = std::strtod(text.c_str(), &parse_end);
    if (parse_end != text.c_str() + text.size() || !std::isfinite(v)) {
      return Error("bad number '" + text + "'");
    }
    return JsonValue::Number(v);
  }

  const char* begin_;
  const char* p_;
  const char* end_;
};

}  // namespace

JsonValue JsonValue::Bool(bool b) {
  JsonValue v(Kind::kBool);
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v(Kind::kNumber);
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v(Kind::kString);
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() { return JsonValue(Kind::kArray); }
JsonValue JsonValue::Object() { return JsonValue(Kind::kObject); }

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser parser(text.data(), text.size());
  return parser.ParseDocument();
}

JsonValue& JsonValue::Append(JsonValue v) {
  assert(kind_ == Kind::kArray);
  items_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue v) {
  assert(kind_ == Kind::kObject);
  const auto it = member_index_.find(key);
  if (it != member_index_.end()) {
    members_[it->second].second = std::move(v);
  } else {
    member_index_[key] = members_.size();
    members_.emplace_back(key, std::move(v));
  }
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = member_index_.find(key);
  return it == member_index_.end() ? nullptr : &members_[it->second].second;
}

Result<std::string> JsonValue::GetString(const std::string& key,
                                         const std::string& fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_string()) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return v->string_value();
}

Result<double> JsonValue::GetNumber(const std::string& key,
                                    double fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  return v->number_value();
}

Result<bool> JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return v->bool_value();
}

void JsonAppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      return;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Kind::kNumber: {
      // JSON has no NaN or infinity; null keeps the document valid.
      if (!std::isfinite(number_)) {
        out->append("null");
        return;
      }
      char buf[32];
      // Integral doubles inside the exactly-representable range print as
      // integers so counters and ids don't grow ".0"/exponent noise.
      if (number_ == std::floor(number_) && std::fabs(number_) <= 9e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", number_);
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
      }
      out->append(buf);
      return;
    }
    case Kind::kString:
      JsonAppendEscaped(out, string_);
      return;
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& v : items_) {
        if (!first) out->push_back(',');
        first = false;
        v.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, v] : members_) {
        if (!first) out->push_back(',');
        first = false;
        JsonAppendEscaped(out, key);
        out->push_back(':');
        v.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

}  // namespace sjsel
