#include "obs/kernprof.h"

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

// -- sink ---------------------------------------------------------------------

KernProfSink& KernProfSink::global() {
  static KernProfSink sink("KernProfSink", g_path);
  return sink;
}

}  // namespace vlacnn::obs
