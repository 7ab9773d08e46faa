#include "obs/json_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>

namespace vlacnn::obs {

void json_append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_append_escaped(out, s);
  return out;
}

void append_g17(std::string& out, double v) {
  // The longest %.17g rendering is 24 bytes ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, 17);
  if (r.ec != std::errc()) {
    throw std::logic_error("append_g17: std::to_chars failed");
  }
  out.append(buf, r.ptr);
}

std::string g17(double v) {
  std::string out;
  append_g17(out, v);
  return out;
}

void json_append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  append_g17(out, v);
}

void write_text_file(const std::string& path, const std::string& bytes,
                     const char* who) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error(std::string(who) + ": cannot open " + path);
  }
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                     bytes.size();
  const bool closed = std::fclose(f) == 0;  // even after a short write
  if (!wrote || !closed) {
    throw std::runtime_error(std::string(who) + ": short write to " + path);
  }
}

}  // namespace vlacnn::obs
