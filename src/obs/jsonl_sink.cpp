#include "obs/jsonl_sink.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/env.h"
#include "obs/json_util.h"

namespace vlacnn::obs {

// -- knobs --------------------------------------------------------------------

bool PathKnob::load() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!path_) path_ = env_text(name_).value_or("");
  const bool on = !path_->empty();
  enabled_.store(on ? 1 : 0, std::memory_order_relaxed);
  return on;
}

std::string PathKnob::path() {
  enabled();  // the first env read
  std::lock_guard<std::mutex> lk(mu_);
  return *path_;
}

void PathKnob::set(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  path_ = path;
  enabled_.store(path.empty() ? 0 : 1, std::memory_order_relaxed);
}

void IntervalKnob::load_locked() {
  if (loaded_) return;
  if (const std::optional<double> v = env_positive(name_)) {
    cycles_ = *v;
    overridden_ = true;
  }
  loaded_ = true;
}

double IntervalKnob::cycles() {
  std::lock_guard<std::mutex> lk(mu_);
  load_locked();
  return cycles_;
}

bool IntervalKnob::overridden() {
  std::lock_guard<std::mutex> lk(mu_);
  load_locked();
  return overridden_;
}

void IntervalKnob::set(double cycles) {
  if (!std::isfinite(cycles) || !(cycles > 0)) {
    throw std::invalid_argument(std::string(name_) +
                                ": interval must be finite and > 0");
  }
  std::lock_guard<std::mutex> lk(mu_);
  cycles_ = cycles;
  loaded_ = true;
  overridden_ = true;
}

// -- sink ---------------------------------------------------------------------

namespace {

// Sinks armed for the exit write, oldest first. Every arming registers one
// more run of write_last_armed_at_exit(), and exit handlers run in reverse
// order of registration, so each run takes the sink armed last: one that was
// constructed before its handler was registered, and so is still alive.
std::mutex g_armed_mu;
std::vector<LabeledJsonlSink*> g_armed;  // guarded by g_armed_mu

}  // namespace

LabeledJsonlSink::LabeledJsonlSink(const char* who, PathKnob& knob,
                                   const char* what)
    : who_(who), knob_(knob), what_(what) {}

void LabeledJsonlSink::record(const std::string& label, std::string block) {
  std::call_once(armed_, [this] {
    {
      std::lock_guard<std::mutex> lk(g_armed_mu);
      g_armed.push_back(this);
    }
    std::atexit(write_last_armed_at_exit);
  });
  std::lock_guard<std::mutex> lk(mu_);
  blocks_[label] = std::move(block);
}

void LabeledJsonlSink::write_last_armed_at_exit() {
  LabeledJsonlSink* sink = nullptr;
  {
    std::lock_guard<std::mutex> lk(g_armed_mu);
    sink = g_armed.back();
    g_armed.pop_back();
  }
  if (sink->block_count() == 0 || !sink->knob_.enabled()) return;
  try {
    sink->write_file();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vlacnn: %s write failed: %s\n", sink->what_,
                 e.what());
  }
}

std::string LabeledJsonlSink::next_auto_label() {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[24];
  std::snprintf(buf, sizeof buf, "run%06llu",
                static_cast<unsigned long long>(++auto_seq_));
  return buf;
}

std::string LabeledJsonlSink::write_file() {
  const std::string who = std::string(who_) + "::write_file";
  const std::string path = knob_.path();
  if (path.empty()) {
    throw std::runtime_error(who + ": no output path (set " + knob_.name() +
                             ")");
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
  write_text_file(path, out, who.c_str());
  return path;
}

std::size_t LabeledJsonlSink::block_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

void LabeledJsonlSink::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  blocks_.clear();
  auto_seq_ = 0;
}

}  // namespace vlacnn::obs
