#include "obs/trace.h"

#include <cstdio>

#include "common/env.h"
#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace vlacnn::obs {

Tracer::Tracer(const std::string& path) {
  if (!path.empty()) open(path);
}

void Tracer::open(const std::string& path) {
  if (path.empty()) return;
  close();
  std::lock_guard<std::mutex> lk(mu_);
  path_ = path;
  events_.clear();
  t0_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
  log(LogLevel::kInfo, "trace", "collecting", {{"file", path}});
}

void Tracer::close() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  enabled_.store(false, std::memory_order_relaxed);
  write_file_locked();
  log(LogLevel::kInfo, "trace", "written",
      {{"file", path_}, {"events", std::to_string(events_.size())}});
  events_.clear();
  tids_.clear();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Tracer::tid_locked(std::thread::id id) {
  auto it = tids_.find(id);
  if (it != tids_.end()) return it->second;
  const int tid = static_cast<int>(tids_.size()) + 1;
  tids_.emplace(id, tid);
  return tid;
}

void Tracer::emit(const std::string& name, double ts_us, double dur_us,
                  const Args& args) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Event e;
  e.name = name;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = tid_locked(std::this_thread::get_id());
  e.args = args;
  events_.push_back(std::move(e));
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return events_.size();
}

void Tracer::write_file_locked() {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (i) json += ',';
    json += "\n{\"name\":";
    json_append_escaped(json, e.name);
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":%d",
                  e.ts_us, e.dur_us, e.tid);
    json += buf;
    if (!e.args.empty()) {
      json += ",\"args\":{";
      for (std::size_t a = 0; a < e.args.size(); ++a) {
        if (a) json += ',';
        json_append_escaped(json, e.args[a].first);
        json += ':';
        json_append_escaped(json, e.args[a].second);
      }
      json += '}';
    }
    json += '}';
  }
  json += "\n]}\n";
  write_text_file(path_, json, "trace");
}

Tracer& Tracer::global() {
  static Tracer tracer;
  static std::once_flag once;
  std::call_once(once, [] {
    if (const auto path = env_text("VLACNN_TRACE")) tracer.open(*path);
  });
  return tracer;
}

// -- Span ---------------------------------------------------------------------

Span::Span(std::string name, Tracer* tracer)
    : name_(std::move(name)), tracer_(tracer ? tracer : &Tracer::global()) {
  trace_on_ = tracer_->enabled();
  metrics_on_ = metrics_enabled();
  if (trace_on_) t0_us_ = tracer_->now_us();
  if (active()) start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active()) return;
  const double dur_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
  if (trace_on_) tracer_->emit(name_, t0_us_, dur_us, args_);
  if (metrics_on_) {
    Registry::global()
        .histogram("span." + name_ + ".us")
        .observe(static_cast<std::uint64_t>(dur_us));
  }
}

void Span::arg(std::string key, std::string value) {
  if (!active()) return;
  args_.emplace_back(std::move(key), std::move(value));
}

}  // namespace vlacnn::obs
