#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "common/env.h"
#include "obs/json_util.h"

namespace vlacnn::obs {

namespace {

ReportMode parse_metrics_env() {
  constexpr int off = static_cast<int>(ReportMode::kOff);
  constexpr int text = static_cast<int>(ReportMode::kText);
  constexpr int json = static_cast<int>(ReportMode::kJson);
  return static_cast<ReportMode>(
      env_word("VLACNN_METRICS",
               {{"0", off}, {"false", off}, {"no", off}, {"off", off},
                {"1", text}, {"true", text}, {"yes", text}, {"on", text},
                {"text", text}, {"json", json}})
          .value_or(off));
}

// kOff/kText/kJson stored as int; -1 = not yet parsed from the environment.
std::atomic<int> g_mode{-1};

int load_mode() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    m = static_cast<int>(parse_metrics_env());
    int expected = -1;
    g_mode.compare_exchange_strong(expected, m, std::memory_order_relaxed);
    m = g_mode.load(std::memory_order_relaxed);
  }
  return m;
}

std::size_t shard_index() {
  // One fixed shard per thread; collisions just share an atomic.
  static thread_local const std::size_t idx =
      std::hash<std::thread::id>()(std::this_thread::get_id());
  return idx;
}

}  // namespace

ReportMode metrics_mode() { return static_cast<ReportMode>(load_mode()); }

bool metrics_enabled() { return load_mode() != static_cast<int>(ReportMode::kOff); }

void set_metrics_mode(ReportMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

// -- Counter ------------------------------------------------------------------

void Counter::add(std::uint64_t n) noexcept {
  shards_[shard_index() % kShards].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

// -- Gauge --------------------------------------------------------------------

void Gauge::raise_max(std::int64_t v) noexcept {
  std::int64_t cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void Gauge::set(std::int64_t v) noexcept {
  v_.store(v, std::memory_order_relaxed);
  raise_max(v);
}

void Gauge::add(std::int64_t d) noexcept {
  raise_max(v_.fetch_add(d, std::memory_order_relaxed) + d);
}

std::int64_t Gauge::value() const noexcept {
  return v_.load(std::memory_order_relaxed);
}

std::int64_t Gauge::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

void Gauge::reset() noexcept {
  v_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// -- FloatGauge ---------------------------------------------------------------

void FloatGauge::set(double v) noexcept {
  v_.store(v, std::memory_order_relaxed);
}

double FloatGauge::value() const noexcept {
  return v_.load(std::memory_order_relaxed);
}

void FloatGauge::reset() noexcept {
  v_.store(0.0, std::memory_order_relaxed);
}

// -- Histogram ----------------------------------------------------------------

void Histogram::observe(std::uint64_t v) noexcept {
  const std::size_t i = v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::sum() const noexcept {
  return sum_.load(std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket(std::size_t i) const noexcept {
  return buckets_[i].load(std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::uint64_t Histogram::bucket_lo(std::size_t i) noexcept {
  return i == 0 ? 0 : 1ull << (i - 1);
}

std::uint64_t Histogram::bucket_hi(std::size_t i) noexcept {
  if (i == 0) return 1;
  if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
  return 1ull << i;
}

std::uint64_t Histogram::quantile_bound(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (static_cast<double>(seen) >= target && seen > 0) return bucket_hi(i);
  }
  return bucket_hi(kBuckets - 1);
}

// -- Registry -----------------------------------------------------------------

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FloatGauge& Registry::float_gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = float_gauges_[name];
  if (!slot) slot = std::make_unique<FloatGauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, g] : float_gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string Registry::report_text() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  out += "== vlacnn metrics "
         "=============================================================\n";
  char buf[256];
  for (const auto& [name, c] : counters_) {
    std::snprintf(buf, sizeof(buf), "counter    %-42s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  for (const auto& [name, g] : gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge      %-42s %20lld  (max %lld)\n",
                  name.c_str(), static_cast<long long>(g->value()),
                  static_cast<long long>(g->max()));
    out += buf;
  }
  for (const auto& [name, g] : float_gauges_) {
    std::snprintf(buf, sizeof(buf), "gauge      %-42s %20.6g\n", name.c_str(),
                  g->value());
    out += buf;
  }
  for (const auto& [name, h] : histograms_) {
    const std::uint64_t n = h->count();
    const double mean =
        n > 0 ? static_cast<double>(h->sum()) / static_cast<double>(n) : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "histogram  %-42s count=%llu mean=%.1f p50<=%llu "
                  "p99<=%llu\n",
                  name.c_str(), static_cast<unsigned long long>(n), mean,
                  static_cast<unsigned long long>(h->quantile_bound(0.50)),
                  static_cast<unsigned long long>(h->quantile_bound(0.99)));
    out += buf;
  }
  out += "=============================================================="
         "=================\n";
  return out;
}

std::string Registry::report_json() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    json_append_escaped(out, name);
    out += ':' + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    json_append_escaped(out, name);
    out += ":{\"value\":" + std::to_string(g->value()) +
           ",\"max\":" + std::to_string(g->max()) + '}';
  }
  out += "},\"float_gauges\":{";
  first = true;
  for (const auto& [name, g] : float_gauges_) {
    if (!first) out += ',';
    first = false;
    json_append_escaped(out, name);
    out += ':';
    json_append_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    json_append_escaped(out, name);
    out += ":{\"count\":" + std::to_string(h->count()) +
           ",\"sum\":" + std::to_string(h->sum()) + ",\"buckets\":[";
    bool bfirst = true;
    for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
      const std::uint64_t b = h->bucket(i);
      if (b == 0) continue;
      if (!bfirst) out += ',';
      bfirst = false;
      out += '[' + std::to_string(Histogram::bucket_lo(i)) + ',' +
             std::to_string(Histogram::bucket_hi(i)) + ',' +
             std::to_string(b) + ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

// -- exit report --------------------------------------------------------------

namespace {
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();
}

void write_exit_report(std::FILE* out) {
  ReportMode mode;
  try {
    mode = metrics_mode();
  } catch (const std::exception&) {
    return;  // bad env value already reported by the run itself
  }
  if (mode == ReportMode::kOff) return;
  Registry& reg = Registry::global();
  if (mode == ReportMode::kJson) {
    std::fprintf(out, "%s\n", reg.report_json().c_str());
    return;
  }
  std::fputs(reg.report_text().c_str(), out);
  // Pool utilization needs wall-clock context the registry doesn't have.
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - g_process_start)
                             .count();
  const std::int64_t workers = reg.gauge("thread_pool.workers").value();
  const std::uint64_t busy_us = reg.counter("thread_pool.busy_us").value();
  if (workers > 0 && wall_us > 0) {
    std::fprintf(out,
                 "thread_pool utilization: %.1f%% (%.3f s busy across %lld "
                 "workers over %.3f s wall)\n",
                 100.0 * static_cast<double>(busy_us) /
                     (static_cast<double>(workers) * wall_us),
                 static_cast<double>(busy_us) * 1e-6,
                 static_cast<long long>(workers), wall_us * 1e-6);
  }
}

}  // namespace vlacnn::obs
