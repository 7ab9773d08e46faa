#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hostbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void copy_file(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::vector<std::vector<std::string>> read_fields(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read inputs " + path);
  std::vector<std::vector<std::string>> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::vector<std::string> f;
    for (std::string w; ss >> w;) f.push_back(w);
    if (!f.empty()) out.push_back(std::move(f));
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms) {
  r.metric("setup_s", median(setup_s));
  r.metric("peak_rss_mb", peak_rss_mb());
  r.metric("ops_per_s", static_cast<double>(op_ms.size()) / (sum(op_ms) / 1e3));
  r.metric("op_ms_p50", median(op_ms));
  r.metric("op_ms_p90", percentile(op_ms, 0.90));
}

// -- SpanLog ------------------------------------------------------------------

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

int SpanLog::open(std::string name, long item, int parent) {
  Span s;
  s.name = std::move(name);
  s.item = item;
  s.parent = parent;
  s.start_us = now_us();
  s.end_us = s.start_us;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

void SpanLog::add_child(std::string name, int parent, double dur_us) {
  const Span& p = at(parent);
  Span s;
  s.name = std::move(name);
  s.item = p.item;
  s.parent = parent;
  s.start_us = p.start_us;
  s.end_us = p.start_us + dur_us;
  spans_.push_back(std::move(s));
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

double SpanLog::total_ms(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end_us - s.start_us;
  }
  return t / 1e3;
}

double SpanLog::children_ms(const std::string& parent_name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && at(s.parent).name == parent_name) {
      t += s.end_us - s.start_us;
    }
  }
  return t / 1e3;
}

double SpanLog::self_ms(const std::string& name) const {
  return total_ms(name) - children_ms(name);
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write spans " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"item\":%ld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i, s.name.c_str(), s.parent, s.item, s.start_us, s.end_us);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("short write to " + path);
}

}  // namespace hostbench
