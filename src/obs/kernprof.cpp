#include "obs/kernprof.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/json_util.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

namespace {

std::mutex g_knob_mu;
bool g_path_parsed = false;
std::string g_path;
// -1 = not yet parsed; 0/1 mirror g_path.empty() for the lock-free gate.
std::atomic<int> g_enabled{-1};

bool g_interval_parsed = false;
double g_interval = 1e6;
bool g_interval_overridden = false;

double parse_interval_env() {
  const char* v = std::getenv("VLACNN_KERNPROF_INTERVAL");
  if (v == nullptr || *v == '\0') return 1e6;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(d) || !(d > 0)) {
    throw std::runtime_error("VLACNN_KERNPROF_INTERVAL: expected a positive "
                             "cycle count, got '" + std::string(v) + "'");
  }
  g_interval_overridden = true;
  return d;
}

}  // namespace

bool kernprof_enabled() {
  int e = g_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    std::lock_guard<std::mutex> lk(g_knob_mu);
    if (!g_path_parsed) {
      const char* v = std::getenv("VLACNN_KERNPROF");
      g_path = v == nullptr ? "" : v;
      g_path_parsed = true;
    }
    e = g_path.empty() ? 0 : 1;
    g_enabled.store(e, std::memory_order_relaxed);
  }
  return e != 0;
}

std::string kernprof_path() {
  kernprof_enabled();  // force the one-time env parse
  std::lock_guard<std::mutex> lk(g_knob_mu);
  return g_path;
}

void set_kernprof_path(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_path = path;
  g_path_parsed = true;
  g_enabled.store(path.empty() ? 0 : 1, std::memory_order_relaxed);
}

double kernprof_interval_cycles() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_interval_parsed) {
    g_interval = parse_interval_env();
    g_interval_parsed = true;
  }
  return g_interval;
}

bool kernprof_interval_overridden() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_interval_parsed) {
    g_interval = parse_interval_env();
    g_interval_parsed = true;
  }
  return g_interval_overridden;
}

void set_kernprof_interval_cycles(double cycles) {
  if (!(cycles > 0.0)) {
    throw std::invalid_argument(
        "set_kernprof_interval_cycles: interval must be positive");
  }
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_interval = cycles;
  g_interval_parsed = true;
  g_interval_overridden = true;
}

// -- profile records ----------------------------------------------------------

namespace {

void append_kv(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  json_append_number(out, v);
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, int v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":";
  json_append_escaped(out, v);
}

}  // namespace

std::string KernProfRun::to_jsonl() const {
  std::string out;
  out += "{\"type\":\"kernel\"";
  append_kv(out, "net", net);
  append_kv(out, "layer", layer);
  append_kv(out, "algo", algo);
  append_kv(out, "vlen_bits", static_cast<std::uint64_t>(vlen_bits));
  append_kv(out, "l2_bytes", l2_bytes);
  append_kv(out, "lanes", static_cast<std::uint64_t>(lanes));
  append_kv(out, "attach", attach);
  append_kv(out, "interval_cycles", interval_cycles);
  append_kv(out, "cycles", cycles);
  append_kv(out, "compute_cycles", compute_cycles);
  append_kv(out, "mem_issue_cycles", mem_issue_cycles);
  append_kv(out, "mem_stall_cycles", mem_stall_cycles);
  append_kv(out, "scalar_cycles", scalar_cycles);
  append_kv(out, "phase_count", static_cast<std::uint64_t>(phases.size()));
  append_kv(out, "window_count", static_cast<std::uint64_t>(windows.size()));
  out += "}\n";
  for (const KernProfPhase& p : phases) {
    out += "{\"type\":\"phase\"";
    append_kv(out, "name", p.name);
    append_kv(out, "cycles", p.cycles);
    append_kv(out, "raw_cycles", p.raw_cycles);
    append_kv(out, "compute_cycles", p.compute_cycles);
    append_kv(out, "mem_issue_cycles", p.mem_issue_cycles);
    append_kv(out, "mem_stall_cycles", p.mem_stall_cycles);
    append_kv(out, "scalar_cycles", p.scalar_cycles);
    append_kv(out, "vec_instructions", p.vec_instructions);
    append_kv(out, "vec_elems", p.vec_elems);
    append_kv(out, "avg_vl", p.avg_vl);
    append_kv(out, "flops", p.flops);
    append_kv(out, "l1_accesses", p.l1_accesses);
    append_kv(out, "l1_misses", p.l1_misses);
    append_kv(out, "l2_accesses", p.l2_accesses);
    append_kv(out, "l2_misses", p.l2_misses);
    append_kv(out, "mem_bytes", p.mem_bytes);
    out += "}\n";
  }
  for (const KernProfWindow& w : windows) {
    out += "{\"type\":\"window\"";
    append_kv(out, "t_start", w.t_start);
    append_kv(out, "t_end", w.t_end);
    append_kv(out, "compute_cycles", w.compute_cycles);
    append_kv(out, "mem_issue_cycles", w.mem_issue_cycles);
    append_kv(out, "mem_stall_cycles", w.mem_stall_cycles);
    append_kv(out, "scalar_cycles", w.scalar_cycles);
    append_kv(out, "avg_vl", w.avg_vl);
    append_kv(out, "lane_utilization", w.lane_utilization);
    append_kv(out, "l1_miss_rate", w.l1_miss_rate);
    append_kv(out, "l2_miss_rate", w.l2_miss_rate);
    append_kv(out, "dram_bytes_per_cycle", w.dram_bytes_per_cycle);
    append_kv(out, "mem_bytes", w.mem_bytes);
    out += "}\n";
  }
  return out;
}

// -- sink ---------------------------------------------------------------------

KernProfSink& KernProfSink::global() {
  static KernProfSink sink;
  return sink;
}

void KernProfSink::record(const std::string& label, std::string jsonl) {
  arm_kernprof_exit_write();
  std::lock_guard<std::mutex> lk(mu_);
  blocks_[label] = std::move(jsonl);
}

std::string KernProfSink::next_auto_label() {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[24];
  std::snprintf(buf, sizeof buf, "run%06llu",
                static_cast<unsigned long long>(++auto_seq_));
  return buf;
}

std::string KernProfSink::write_file() {
  const std::string path = kernprof_path();
  if (path.empty()) {
    throw std::runtime_error(
        "KernProfSink::write_file: no output path (set VLACNN_KERNPROF)");
  }
  std::string out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [label, block] : blocks_) {
      out += "{\"type\":\"run\",\"label\":";
      json_append_escaped(out, label);
      out += "}\n";
      out += block;
    }
  }
  write_text_file(path, out, "KernProfSink::write_file");
  return path;
}

std::size_t KernProfSink::block_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

void KernProfSink::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  blocks_.clear();
  auto_seq_ = 0;
}

void arm_kernprof_exit_write() {
  static std::once_flag once;
  std::call_once(once, [] {
    KernProfSink::global();  // outlive any static that records during exit
    std::atexit([] {
      KernProfSink& sink = KernProfSink::global();
      if (sink.block_count() == 0 || !kernprof_enabled()) return;
      try {
        sink.write_file();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "vlacnn: kernprof write failed: %s\n", e.what());
      }
    });
  });
}

}  // namespace vlacnn::obs
