#include "report/json.h"

#include <cctype>
#include <stdexcept>

#include "obs/json_util.h"

namespace vlacnn::report {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n] != '\0') ++n;
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json v;
      v.type = Json::Type::kString;
      v.string = parse_string();
      return v;
    }
    if (c == 't') {
      if (!consume_word("true")) fail("bad literal");
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!consume_word("false")) fail("bad literal");
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = false;
      return v;
    }
    if (c == 'n') {
      if (!consume_word("null")) fail("bad literal");
      return Json{};
    }
    return parse_number();
  }

  Json parse_object() {
    Json v;
    v.type = Json::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    Json v;
    v.type = Json::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        char e = s_[pos_++];
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
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                fail("bad \\u escape");
              }
            }
            // Report emitters only escape control chars, so non-ASCII code
            // points pass through as raw UTF-8 and never hit this path; a
            // plain byte append keeps the parser self-contained.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else {
              out += '?';
            }
            break;
          }
          default: fail("bad escape");
        }
        continue;
      }
      out += c;
    }
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected value");
    Json v;
    v.type = Json::Type::kNumber;
    try {
      v.number = std::stod(s_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      fail("bad number");
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

const Json* Json::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing required key \"" + key + "\"");
  }
  return *v;
}

Json parse_json(const std::string& text) { return Parser(text).parse_document(); }

std::string json_quote(const std::string& s) { return obs::json_escaped(s); }

std::string json_number(double v) {
  std::string out;
  obs::json_append_number(out, v);
  return out;
}

}  // namespace vlacnn::report
