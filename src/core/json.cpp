#include "core/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace f2t::core::json {

namespace {

[[noreturn]] void fail_kind(const char* want, Value::Kind got) {
  throw std::invalid_argument(std::string("json: expected ") + want +
                              ", got kind " +
                              std::to_string(static_cast<int>(got)));
}

/// Recursive-descent parser over a string_view with a cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at byte " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal");
    }
    pos_ += word.size();
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_nested(&Parser::parse_object);
      case '[': return parse_nested(&Parser::parse_array);
      case '"': return Value::make_string(parse_string());
      case 't': expect_word("true"); return Value::make_bool(true);
      case 'f': expect_word("false"); return Value::make_bool(false);
      case 'n': expect_word("null"); return Value::make_null();
      default: return parse_number();
    }
  }

  Value parse_nested(Value (Parser::*parse)()) {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    Value v = (this->*parse)();
    --depth_;
    return v;
  }

  Value parse_object() {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (consume('}')) return Value::make_object(std::move(members));
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return Value::make_object(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (consume(']')) return Value::make_array(std::move(items));
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return Value::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(parse_hex4(), out); break;
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  /// Encodes a BMP code point (surrogate pairs are not needed by any spec
  /// this repo reads; lone surrogates encode as-is, matching lenient
  /// parsers).
  static void append_utf8(unsigned code, std::string& out) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    double value = 0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
      pos_ = start;
      fail("malformed number");
    }
    return Value::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) fail_kind("bool", kind_);
  return bool_;
}

double Value::as_double() const {
  if (kind_ != Kind::kNumber) fail_kind("number", kind_);
  return number_;
}

std::int64_t Value::as_int() const {
  const double d = as_double();
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw std::invalid_argument("json: expected an integer, got " +
                                std::to_string(d));
  }
  return i;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) fail_kind("string", kind_);
  return string_;
}

const std::vector<Value>& Value::as_array() const {
  if (kind_ != Kind::kArray) fail_kind("array", kind_);
  return array_;
}

const std::vector<std::pair<std::string, Value>>& Value::as_object() const {
  if (kind_ != Kind::kObject) fail_kind("object", kind_);
  return object_;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::invalid_argument("json: missing required key \"" +
                                std::string(key) + "\"");
  }
  return *v;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_double();
}

std::int64_t Value::int_or(std::string_view key, std::int64_t fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_int();
}

std::string Value::string_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v == nullptr ? std::move(fallback) : v->as_string();
}

bool Value::bool_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace f2t::core::json
