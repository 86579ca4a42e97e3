#ifndef SJSEL_UTIL_JSON_H_
#define SJSEL_UTIL_JSON_H_

// A small JSON document model: parse, build, serialize. This exists for
// the server's newline-delimited JSON protocol (docs/SERVER.md) and the
// planner's machine-readable plan output — places that must both read
// and write JSON without external dependencies.
//
// Scope, deliberately narrow:
//  - UTF-8 text is passed through byte-for-byte; \uXXXX escapes are
//    decoded to UTF-8 on parse (surrogate pairs included).
//  - Numbers are doubles. Serialization uses %.17g, so any finite
//    double round-trips bit-for-bit; integers up to 2^53 print without
//    exponent noise. NaN and infinities, which JSON cannot spell, are
//    written as null.
//  - Object keys keep *insertion order* on serialization (deterministic
//    output that matches the order the writer chose), with O(log n)
//    lookup via a side index.
//  - Depth is capped (kMaxDepth) so adversarial input cannot blow the
//    stack; element/size caps are the caller's job (the server caps the
//    request line length before parsing).

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"

namespace sjsel {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Nesting levels Parse accepts before rejecting the document.
  static constexpr int kMaxDepth = 64;

  JsonValue() = default;  // null
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue Int(long long v) { return Number(static_cast<double>(v)); }
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  /// Parses one JSON document. The whole input must be consumed (trailing
  /// whitespace tolerated); anything else is an InvalidArgument naming the
  /// byte offset.
  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Accessors assume the matching kind (assert in debug builds, return a
  /// zero value otherwise). Use the typed Get* helpers for fallible reads.
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }

  // --- arrays ---
  size_t size() const { return items_.size(); }
  const JsonValue& at(size_t i) const { return items_[i]; }
  const std::vector<JsonValue>& items() const { return items_; }
  JsonValue& Append(JsonValue v);

  // --- objects ---
  /// Sets `key` (replacing an existing value; insertion order of the first
  /// Set is kept). Returns *this so building nests readably.
  JsonValue& Set(const std::string& key, JsonValue v);
  /// Null when absent (use Has to distinguish an explicit null).
  const JsonValue* Find(const std::string& key) const;
  bool Has(const std::string& key) const { return Find(key) != nullptr; }
  /// Keys in insertion order.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Typed object reads used by the protocol layer: value when present
  /// AND of the right kind, `fallback` when absent, error when present
  /// with the wrong kind (a misspelled type is a client bug worth naming).
  Result<std::string> GetString(const std::string& key,
                                const std::string& fallback) const;
  Result<double> GetNumber(const std::string& key, double fallback) const;
  Result<bool> GetBool(const std::string& key, bool fallback) const;

  /// Compact serialization: no whitespace, object keys in insertion
  /// order, numbers %.17g (integral values in [-2^53, 2^53] printed as
  /// integers). Deterministic: equal documents built in the same order
  /// serialize identically.
  std::string Dump() const;

 private:
  explicit JsonValue(Kind kind) : kind_(kind) {}
  void DumpTo(std::string* out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;                            // array
  std::vector<std::pair<std::string, JsonValue>> members_;  // object
  std::map<std::string, size_t> member_index_;              // key -> members_
};

/// Appends `s` to `out` as a quoted JSON string (escaping ", \, control
/// bytes). Exposed for writers that build JSON by hand (bench harness).
void JsonAppendEscaped(std::string* out, const std::string& s);

}  // namespace sjsel

#endif  // SJSEL_UTIL_JSON_H_
