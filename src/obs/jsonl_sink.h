// The labeled-JSONL sink (DESIGN.md §8) behind the three JSONL artifacts —
// serving timelines (VLACNN_TIMELINE), request traces (VLACNN_REQTRACE) and
// kernel profiles (VLACNN_KERNPROF) — and the two knob kinds that steer them.
//
// The file format, written here and read back by report::read_labeled_jsonl:
// a `{"type":"run","label":...}` line opens each labeled block, and blocks are
// written in sorted label order, so a parallel run that records blocks in
// completion order writes the same bytes as a serial one at any
// VLACNN_THREADS. A file without `run` lines (one recorder's to_jsonl()
// written directly) is one unlabeled block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace vlacnn::obs {

/// An output-path knob (VLACNN_TIMELINE, VLACNN_REPORT, ...). The env value
/// is read once, on first use; set() overrides it (tests, CLI flags), and ""
/// disables. enabled() is the hot-path gate: after the first call it is one
/// relaxed atomic load.
class PathKnob {
 public:
  constexpr explicit PathKnob(const char* name) : name_(name) {}

  bool enabled() {
    const int e = enabled_.load(std::memory_order_relaxed);
    return e < 0 ? load() : e != 0;
  }

  std::string path();  ///< "" when disabled
  void set(const std::string& path);
  const char* name() const { return name_; }

 private:
  bool load();  ///< the first env read; returns enabled()

  const char* name_;
  std::mutex mu_;
  std::optional<std::string> path_;  ///< guarded by mu_; nullopt until read
  std::atomic<int> enabled_{-1};     ///< -1 until read, then !path_->empty()
};

/// A simulated-cycle cadence knob (VLACNN_TIMELINE_INTERVAL,
/// VLACNN_KERNPROF_INTERVAL): 1e6 cycles unless the env or set() picks one.
/// The env value is read once, on first use, and a malformed or non-positive
/// value throws — a typo must not silently change a run's resolution.
class IntervalKnob {
 public:
  constexpr explicit IntervalKnob(const char* name) : name_(name) {}

  double cycles();

  /// True when the cadence was chosen explicitly (the env knob or set()).
  /// When false, drivers with long horizons may coarsen the default so a
  /// run cannot buffer millions of lines.
  bool overridden();

  /// Throws std::invalid_argument unless `cycles` is finite and > 0.
  void set(double cycles);

 private:
  void load_locked();

  const char* name_;
  std::mutex mu_;
  bool loaded_ = false;      ///< guarded by mu_
  double cycles_ = 1e6;      ///< guarded by mu_
  bool overridden_ = false;  ///< guarded by mu_
};

/// A process-wide collection point for JSONL blocks, keyed by a deterministic
/// label (a grid point; unlabeled serial callers take next_auto_label()).
/// Thread-safe. report::finish_run() writes it to the knob's path before
/// `main` returns, when the knob is enabled and a block was recorded.
class LabeledJsonlSink {
 public:
  /// Buffer one block under `label`. Last write wins: by the determinism
  /// guarantee, concurrent writers for one label carry identical bytes.
  void record(const std::string& label, std::string block);

  /// "run000001", "run000002", ... for callers without a natural label.
  /// Deterministic only for serial callers; parallel drivers must label.
  std::string next_auto_label();

  /// Write every block to the knob's path in sorted label order; returns the
  /// path. Throws "<who>::write_file: no output path (set <KNOB>)" when the
  /// knob is disabled, and write_text_file's errors on I/O failure.
  std::string write_file();

  bool enabled() const { return knob_.enabled(); }  ///< the knob is on
  std::size_t block_count() const;
  void reset();  ///< drop all blocks and the auto-label counter (tests)

 protected:
  /// `who` names the sink in its errors ("TimelineSink").
  LabeledJsonlSink(const char* who, PathKnob& knob);

 private:
  const char* who_;
  PathKnob& knob_;
  mutable std::mutex mu_;
  std::map<std::string, std::string> blocks_;  ///< guarded by mu_
  std::uint64_t auto_seq_ = 0;                 ///< guarded by mu_
};

}  // namespace vlacnn::obs
