#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace f2t::core::json {

/// Minimal JSON document model for the declarative inputs the tooling
/// reads (campaign specs). Writing stays hand-rolled at each call site —
/// the output schemas are small and byte-stability matters there — but
/// *parsing* user-authored JSON needs a real grammar. This is a strict
/// RFC 8259 subset: no comments, no trailing commas, objects keep their
/// textual key order (specs are echoed back into campaign results, and
/// determinism tests compare those bytes).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch so
  /// spec errors surface as one readable message instead of a default.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  ///< throws when not integral
  const std::string& as_string() const;
  const std::vector<Value>& as_array() const;
  const std::vector<std::pair<std::string, Value>>& as_object() const;

  /// Object member by key, or nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Object member by key; throws std::invalid_argument when absent.
  const Value& at(std::string_view key) const;

  /// Convenience lookups with defaults, for optional spec fields.
  double number_or(std::string_view key, double fallback) const;
  std::int64_t int_or(std::string_view key, std::int64_t fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Deepest array/object nesting `parse` accepts. Every artifact the
/// repo writes nests at most 5 deep; the bound keeps a hostile document
/// from overflowing the recursive parser's stack.
inline constexpr int kMaxDepth = 256;

/// Parses one JSON document (with nothing but whitespace after it).
/// Throws std::invalid_argument with a byte offset on malformed input,
/// including nesting deeper than kMaxDepth.
Value parse(std::string_view text);

/// Escapes a string for embedding in hand-rolled JSON writers.
std::string escape(std::string_view text);

}  // namespace f2t::core::json
