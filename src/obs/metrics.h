// Metrics half of the observability layer (vlacnn::obs): named counters,
// gauges, and fixed-log2-bucket histograms behind a process-wide registry.
//
// Design constraints, in order:
//  * near-zero overhead when disabled — instrumentation sites gate on
//    metrics_enabled(), a single relaxed load of a cached flag, so a build
//    with the knobs unset runs the exact same simulation code plus one
//    predictable branch per event (bench_obs_overhead keeps this honest);
//  * safe under the parallel sweep engine — Counter is sharded across cache
//    lines and lock-free, Gauge/Histogram are plain relaxed atomics, and the
//    registry hands out references that stay valid for the process lifetime
//    (reset() zeroes instruments in place, it never invalidates them);
//  * everything lands in one report — Registry::report_text()/report_json()
//    dump every instrument, and write_exit_report() prints that dump on
//    stderr as the last step of report::finish_run(), which every main
//    returns through (VLACNN_METRICS=1 for text, VLACNN_METRICS=json for
//    JSON, unset/0 for silence).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace vlacnn::obs {

/// What VLACNN_METRICS asked for: kOff (unset/0/false/no/off), kText
/// (1/true/yes/on), kJson ("json"). Any other value throws at first query —
/// a typo must not silently disable the metrics a run was meant to collect.
enum class ReportMode { kOff, kText, kJson };

/// Current mode; first call parses VLACNN_METRICS, later calls are one load.
ReportMode metrics_mode();

/// True when any metrics collection is on. This is the hot-path gate.
bool metrics_enabled();

/// Programmatic override of the env knob (tests, bench_obs_overhead).
void set_metrics_mode(ReportMode mode);

/// Monotonic counter, sharded across cache lines so concurrent sweep workers
/// do not serialize on one atomic. add() is wait-free; value() sums shards.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;
  std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_{};
};

/// Last-written value plus a high-water mark (set() and add() both update the
/// max, which is what queue-depth style gauges actually get read for).
class Gauge {
 public:
  void set(std::int64_t v) noexcept;
  void add(std::int64_t d) noexcept;
  std::int64_t value() const noexcept;
  std::int64_t max() const noexcept;
  void reset() noexcept;

 private:
  void raise_max(std::int64_t v) noexcept;
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Gauge over a double — for ratios and fractions (oracle gap, hit rates)
/// that an integer gauge would truncate to zero. Same discipline as Gauge:
/// relaxed atomics, references stay valid forever, reset() zeroes in place.
/// No max tracking — fractional gauges get read for their latest value.
class FloatGauge {
 public:
  void set(double v) noexcept;
  double value() const noexcept;
  void reset() noexcept;

 private:
  std::atomic<double> v_{0.0};
};

/// Histogram over unsigned values with fixed log2 buckets: bucket 0 holds the
/// value 0, bucket i >= 1 holds [2^(i-1), 2^i). 65 buckets cover the full
/// uint64 range, so observe() is a bit_width plus two relaxed adds — no
/// configuration, no resizing, no locks.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) noexcept;
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  std::uint64_t bucket(std::size_t i) const noexcept;
  void reset() noexcept;

  /// Inclusive lower / exclusive upper value bound of bucket i (the last
  /// bucket's upper bound saturates at UINT64_MAX).
  static std::uint64_t bucket_lo(std::size_t i) noexcept;
  static std::uint64_t bucket_hi(std::size_t i) noexcept;

  /// Smallest bucket upper bound covering at least fraction q of the
  /// observations (an upper bound on the q-quantile). 0 when empty.
  std::uint64_t quantile_bound(double q) const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name -> instrument map. Lookup takes a mutex, so hot paths cache the
/// returned reference (function-local static) and only pay the atomic ops.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  FloatGauge& float_gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Human-readable dump of every instrument, sorted by name.
  std::string report_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} with only the
  /// non-empty histogram buckets listed as [lo, hi, count] triples.
  std::string report_json() const;

  /// Zero every instrument in place. References stay valid.
  void reset();

  static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<FloatGauge>> float_gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The metrics step of report::finish_run() (tests parse its JSON output
/// back): writes the mode-appropriate report for Registry::global() to `out`,
/// the text one followed by a thread-pool utilization line over the wall
/// time since the process started. No-op when the mode is kOff or the env
/// value is invalid.
void write_exit_report(std::FILE* out);

}  // namespace vlacnn::obs
