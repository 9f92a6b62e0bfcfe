// Minimal dependency-free JSON parser for consuming efrb-metrics documents
// (obs/json.hpp is write-only). Recursive descent over the full JSON
// grammar: objects, arrays, strings with escapes (\uXXXX decoded to UTF-8),
// numbers via strtod, true/false/null. Depth-capped so hostile input cannot
// blow the stack. Object member order is preserved; duplicate keys keep
// both entries with find() returning the first — the documents we parse
// never emit duplicates.
//
// Consumers: the test suite (round-trip validation of the metrics
// documents in profile_test and watchdog_test; the parser's own cases in
// obs_test).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace efrb::obs {

/// One parsed JSON value. A tagged aggregate rather than a std::variant so
/// recursive nesting needs no indirection and consumers can pattern-match
/// with plain accessors.
struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const noexcept { return type == Type::kNull; }
  bool is_bool() const noexcept { return type == Type::kBool; }
  bool is_number() const noexcept { return type == Type::kNumber; }
  bool is_string() const noexcept { return type == Type::kString; }
  bool is_array() const noexcept { return type == Type::kArray; }
  bool is_object() const noexcept { return type == Type::kObject; }

  /// First member with this key, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const noexcept {
    if (type != Type::kObject) return nullptr;
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Dotted-path lookup through nested objects: find_path("result.mops").
  const JsonValue* find_path(std::string_view path) const noexcept {
    const JsonValue* cur = this;
    while (cur != nullptr && !path.empty()) {
      const std::size_t dot = path.find('.');
      const std::string_view head =
          dot == std::string_view::npos ? path : path.substr(0, dot);
      path = dot == std::string_view::npos ? std::string_view{}
                                           : path.substr(dot + 1);
      cur = cur->find(head);
    }
    return cur;
  }

  /// Number at a dotted path, or `fallback` when missing / not a number.
  double number_at(std::string_view path, double fallback = 0) const noexcept {
    const JsonValue* v = find_path(path);
    return v != nullptr && v->is_number() ? v->number : fallback;
  }

  /// String at a dotted path, or "" when missing / not a string.
  std::string_view string_at(std::string_view path) const noexcept {
    const JsonValue* v = find_path(path);
    return v != nullptr && v->is_string() ? std::string_view(v->str)
                                          : std::string_view{};
  }
};

namespace jsondetail {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string* err;
  static constexpr int kMaxDepth = 64;

  bool fail(const char* msg) {
    if (err != nullptr && err->empty()) {
      *err = std::string(msg) + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool hex4(std::uint32_t* out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
    }
    pos += 4;
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected '\"'");
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("truncated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!hex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: pair with the following \uXXXX.
              if (!literal("\\u")) return fail("lone high surrogate");
              std::uint32_t lo = 0;
              if (!hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("lone low surrogate");
            }
            append_utf8(*out, cp);
            break;
          }
          default: return fail("bad escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        *out += c;
        ++pos;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (!consume('0')) {
      if (pos >= text.size() || text[pos] < '1' || text[pos] > '9') {
        return fail("bad number");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (consume('.')) {
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        return fail("bad fraction");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        return fail("bad exponent");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    const std::string num(text.substr(start, pos - start));
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(num.c_str(), nullptr);
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->type = JsonValue::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->type = JsonValue::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      for (;;) {
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        out->array.push_back(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return parse_string(&out->str);
    }
    if (c == 't') {
      if (!literal("true")) return fail("bad literal");
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (c == 'f') {
      if (!literal("false")) return fail("bad literal");
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return true;
    }
    if (c == 'n') {
      if (!literal("null")) return fail("bad literal");
      out->type = JsonValue::Type::kNull;
      return true;
    }
    return parse_number(out);
  }
};

}  // namespace jsondetail

/// Parse one JSON document. Trailing non-whitespace is an error. On failure
/// returns nullopt and, when `err` is non-null, a one-line diagnostic with
/// the byte offset.
inline std::optional<JsonValue> parse_json(std::string_view text,
                                           std::string* err = nullptr) {
  jsondetail::Parser p{text, 0, err};
  JsonValue v;
  if (!p.parse_value(&v, 0)) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) {
    p.fail("trailing characters after document");
    return std::nullopt;
  }
  return v;
}

}  // namespace efrb::obs
