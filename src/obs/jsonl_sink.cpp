#include "obs/jsonl_sink.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

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

LabeledJsonlSink::LabeledJsonlSink(const char* who, PathKnob& knob)
    : who_(who), knob_(knob) {}

void LabeledJsonlSink::record(const std::string& label, std::string block) {
  std::lock_guard<std::mutex> lk(mu_);
  blocks_[label] = std::move(block);
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
