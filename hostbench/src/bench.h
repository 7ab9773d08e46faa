// Shared pieces of the host-performance benchmark driver: options, clock
// helpers, the in-memory span log of the traced run, and the result record
// main() prints.
//
// The driver measures the simulator from the outside: every number comes
// from timing calls into the library's public functions or from reading the
// existing obs metrics registry. Nothing under src/ knows it is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;  ///< sweep-cold | plan-warm | plan-observed
  std::string inputs;    ///< generated input list (written by run.py)
  std::string cache;     ///< committed sweep cache; only ever copied
  std::string tmpdir;    ///< scratch directory owned by this run
  std::string spans;     ///< traced run: span log output (JSONL)
  double seconds = 10;   ///< plan workloads: target length of the passes
  bool trace = false;    ///< per-layer run instead of the end-to-end run
};

/// What one workload run reports. Metrics keep insertion order; `info` lines
/// are printed before the machine-readable RESULT line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> info;

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
};

Result run_sweep_cold(const Options& opt);
Result run_plan(const Options& opt, bool observed);

/// Nearest-rank percentile (q in (0, 1]) of a non-empty sample; the result
/// is always one of the samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double sum(const std::vector<double>& v);

/// Peak resident set size of this process so far, MB.
double peak_rss_mb();

/// Copy a file, replacing `to`. Throws on failure.
void copy_file(const std::string& from, const std::string& to);

/// Size of a file in bytes (0 when missing).
std::uint64_t file_bytes(const std::string& path);

/// The whitespace-separated fields of every non-empty, non-'#' line.
std::vector<std::vector<std::string>> read_fields(const std::string& path);

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The end-to-end metrics every workload reports from its untraced run.
void add_end_to_end(Result& r, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms);

/// Spans recorded in memory by the traced run, around the benchmark's own
/// calls into each layer; written out once, when the run ends. A span has a
/// name, start, end, parent (-1 for a root) and the id of the point or
/// question it belongs to.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int parent = -1;
    long item = -1;
  };

  int open(std::string name, long item, int parent = -1);
  void close(int id);
  /// A child whose duration was read from the program's own instrumentation
  /// rather than timed here; placed at its parent's start.
  void add_child(std::string name, int parent, double dur_us);

  /// Over every span named `name`: how many, total duration, and self time
  /// (duration minus the part its children cover).
  std::size_t count(const std::string& name) const;
  double total_ms(const std::string& name) const;
  double self_ms(const std::string& name) const;
  /// Total duration of every span that has a parent named `parent_name`.
  double children_ms(const std::string& parent_name) const;

  void write_jsonl(const std::string& path) const;

 private:
  const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }
  double now_us() const;

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span for its scope; inert when the log is null (untraced run).
class Scope {
 public:
  Scope(SpanLog* log, std::string name, long item, int parent = -1)
      : log_(log), id_(log ? log->open(std::move(name), item, parent) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// End the span early (idempotent).
  void close() {
    if (log_ != nullptr && !closed_) log_->close(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  bool closed_ = false;
};

}  // namespace hostbench
