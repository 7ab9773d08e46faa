#include "report/json.h"

#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/env.h"
#include "obs/json_util.h"

namespace vlacnn::report {
namespace {

constexpr int kMaxDepth = 64;

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
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      }
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
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

  /// Consumes a run of digits; false when there is none.
  bool digits() {
    const std::size_t from = pos_;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    return pos_ > from;
  }

  bool consume(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  /// An RFC 8259 number token, `-? (0 | [1-9][0-9]*) (. [0-9]+)?
  /// ([eE] [+-]? [0-9]+)?`, converted as a whole by common/env.h's real
  /// grammar (finite, so an overflow is an error too).
  Json parse_number() {
    const std::size_t start = pos_;
    consume('-');
    if (!consume('0') && !digits()) fail("expected value");
    if (consume('.') && !digits()) fail("expected a digit after '.'");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (!digits()) fail("expected an exponent digit");
    }
    Json v;
    v.type = Json::Type::kNumber;
    try {
      v.number = parse_real("number",
                            std::string_view(s_).substr(start, pos_ - start));
    } catch (const std::runtime_error& e) {
      pos_ = start;
      fail(e.what());
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
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

void append_json(std::string& out, const Json& v) {
  switch (v.type) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += v.boolean ? "true" : "false"; break;
    case Json::Type::kNumber: obs::json_append_number(out, v.number); break;
    case Json::Type::kString: obs::json_append_escaped(out, v.string); break;
    case Json::Type::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ", ";
        append_json(out, v.array[i]);
      }
      out += ']';
      break;
    case Json::Type::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ", ";
        obs::json_append_escaped(out, v.object[i].first);
        out += ": ";
        append_json(out, v.object[i].second);
      }
      out += '}';
      break;
  }
}

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return "a bool";
    case Json::Type::kNumber: return "a number";
    case Json::Type::kString: return "a string";
    case Json::Type::kArray: return "an array";
    case Json::Type::kObject: return "an object";
  }
  return "?";
}

const Json& typed_at(const Json& obj, const std::string& key, Json::Type t) {
  const Json& v = obj.at(key);
  if (v.type != t) {
    throw std::runtime_error("json: key \"" + key + "\" holds " +
                             type_name(v.type) + ", expected " + type_name(t));
  }
  return v;
}

}  // namespace

double num_at(const Json& obj, const std::string& key,
              std::optional<double> null_as) {
  if (null_as && obj.at(key).is_null()) return *null_as;
  return typed_at(obj, key, Json::Type::kNumber).number;
}

const std::string& str_at(const Json& obj, const std::string& key) {
  return typed_at(obj, key, Json::Type::kString).string;
}

bool bool_at(const Json& obj, const std::string& key) {
  return typed_at(obj, key, Json::Type::kBool).boolean;
}

const std::vector<Json>& array_at(const Json& obj, const std::string& key) {
  return typed_at(obj, key, Json::Type::kArray).array;
}

const Json& object_at(const Json& obj, const std::string& key) {
  return typed_at(obj, key, Json::Type::kObject);
}

double integer_at(const Json& obj, const std::string& key, int bits,
                  bool is_signed) {
  const double v = num_at(obj, key);
  const double end = std::ldexp(1.0, bits);  // one past the largest value
  if (!(v == std::floor(v) && v >= (is_signed ? -end : 0.0) && v < end)) {
    throw std::runtime_error(
        "json: key \"" + key + "\" holds " + obs::g17(v) + ", expected " +
        (is_signed ? "a signed " : "an unsigned ") +
        std::to_string(bits + (is_signed ? 1 : 0)) + "-bit integer");
  }
  return v;
}

void read_labeled_jsonl(
    const std::string& path,
    const std::function<void(const std::string& label)>& on_block,
    const std::function<bool(const Json& line, const std::string& type)>&
        on_line) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  bool in_block = false;
  std::string text;
  for (std::size_t lineno = 1; std::getline(in, text); ++lineno) {
    if (text.empty()) continue;
    try {
      const Json line = parse_json(text);
      const std::string& type = str_at(line, "type");
      if (type == "run") {
        on_block(str_at(line, "label"));
        in_block = true;
        continue;
      }
      if (!in_block) {
        on_block("");
        in_block = true;
      }
      if (!on_line(line, type)) {
        throw std::runtime_error("unknown line type '" + type + "'");
      }
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
}

std::string json_quote(const std::string& s) { return obs::json_escaped(s); }

std::string json_number(double v) {
  std::string out;
  obs::json_append_number(out, v);
  return out;
}

}  // namespace vlacnn::report
