#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/types.hpp"
#include "prof.hpp"

namespace tseig::prof {

double JsonValue::as_number() const {
  require(kind_ == Kind::number, "JsonValue: not a number");
  return num_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  require(kind_ == Kind::array, "JsonValue: not an array");
  return arr_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::object) return nullptr;
  auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::number ? v->num_ : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind_ == Kind::string ? v->str_ : fallback;
}

/// Recursive-descent parser over the document text; JsonValue's friend, so
/// it fills the values in place.
class JsonParser {
public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream os;
    os << "json_parse: " << what << " at byte " << pos_;
    throw invalid_argument(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    size_t k = 0;
    while (lit[k] != '\0') {
      if (pos_ + k >= text_.size() || text_[pos_ + k] != lit[k]) return false;
      ++k;
    }
    pos_ += k;
    return true;
  }

  JsonValue parse_value() {
    using Kind = JsonValue::Kind;
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{':
        v.kind_ = Kind::object;
        parse_object(v.obj_);
        break;
      case '[':
        v.kind_ = Kind::array;
        parse_array(v.arr_);
        break;
      case '"':
        v.kind_ = Kind::string;
        v.str_ = parse_string();
        break;
      case 't':
      case 'f':
        if (!consume_literal("true") && !consume_literal("false"))
          fail("bad literal");
        v.kind_ = Kind::boolean;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        break;
      default:
        v.kind_ = Kind::number;
        v.num_ = parse_number();
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The exporters only emit \u for control characters; decode the
          // BMP code point as UTF-8 (surrogate pairs are not produced).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  double parse_number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool any = false;
    auto digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
    };
    digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
        ++pos_;
      digits();
    }
    if (!any) fail("bad number");
    return std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
  }

  void parse_array(std::vector<JsonValue>& items) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  void parse_object(std::map<std::string, JsonValue>& members) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue json_parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace tseig::prof
