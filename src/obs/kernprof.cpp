#include "obs/kernprof.h"

#include "obs/json_util.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

namespace {

constinit PathKnob g_path("VLACNN_KERNPROF");
constinit IntervalKnob g_interval("VLACNN_KERNPROF_INTERVAL");

}  // namespace

bool kernprof_enabled() { return g_path.enabled(); }

std::string kernprof_path() { return g_path.path(); }

void set_kernprof_path(const std::string& path) { g_path.set(path); }

double kernprof_interval_cycles() { return g_interval.cycles(); }

bool kernprof_interval_overridden() { return g_interval.overridden(); }

void set_kernprof_interval_cycles(double cycles) { g_interval.set(cycles); }

// -- profile records ----------------------------------------------------------

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
  static KernProfSink sink("KernProfSink", g_path, "kernprof");
  return sink;
}

}  // namespace vlacnn::obs
