// Tracing half of the observability layer: an RAII Span records one timed
// phase of work and a Tracer collects spans as Chrome trace_event "complete"
// events ("ph":"X"), written as one JSON file that chrome://tracing and
// Perfetto load directly.
//
// Knob: VLACNN_TRACE=<file.json> enables the global tracer; unset means no
// file is ever created and a Span costs one relaxed load plus a branch.
// Spans do double duty: whenever metrics are on (VLACNN_METRICS), every span
// also feeds a "span.<name>.us" histogram in the global Registry, so the
// metrics report shows per-phase timings even without a trace file.
//
// Events are buffered in memory (the sweep engine emits spans at simulation
// -point granularity, thousands per run, not millions) and written by close()
// alone: report::finish_run() closes the global tracer before `main` returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace vlacnn::obs {

class Tracer {
 public:
  using Args = std::vector<std::pair<std::string, std::string>>;

  Tracer() = default;                        ///< disabled until open()
  explicit Tracer(const std::string& path);  ///< open(path) unless empty

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Start collecting; events will be written to `path` on close(). An empty
  /// path is a no-op. Reopening first closes (writes) the previous file.
  void open(const std::string& path);

  /// Write the buffered events as Chrome trace JSON and disable: the only
  /// writer of a trace file. No-op when not open. Throws if the file cannot
  /// be written.
  void close();

  /// Microseconds since this tracer was constructed (steady clock).
  double now_us() const;

  /// Record one complete event. Thread-safe; no-op when disabled.
  void emit(const std::string& name, double ts_us, double dur_us,
            const Args& args);

  std::size_t event_count() const;

  /// Process-wide tracer; first use opens $VLACNN_TRACE when set.
  static Tracer& global();

 private:
  struct Event {
    std::string name;
    double ts_us = 0;
    double dur_us = 0;
    int tid = 0;
    Args args;
  };

  int tid_locked(std::thread::id id);
  void write_file_locked();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::string path_;
  std::vector<Event> events_;
  std::map<std::thread::id, int> tids_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// RAII span: times its own scope. Construction snapshots the clock when the
/// tracer or metrics are active; destruction emits the trace event and/or
/// observes the "span.<name>.us" histogram. Tag args (net, layer, algo, ...)
/// are only stored when active(), so callers guard expensive formatting with
/// `if (span.active())`.
class Span {
 public:
  explicit Span(std::string name, Tracer* tracer = nullptr);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return trace_on_ || metrics_on_; }
  void arg(std::string key, std::string value);

 private:
  std::string name_;
  Tracer* tracer_;
  bool trace_on_ = false;
  bool metrics_on_ = false;
  double t0_us_ = 0;
  std::chrono::steady_clock::time_point start_{};
  Tracer::Args args_;
};

}  // namespace vlacnn::obs
