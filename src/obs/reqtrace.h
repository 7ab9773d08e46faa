// Per-request distributed tracing for the serving simulator (DESIGN.md §13):
// every request gets a trace id and a span record — queue wait, batch
// formation, service, per-layer service segments, plus annotation notes from
// the dispatch layer — buffered until the request reaches a terminal state
// and then passed through a deterministic *tail-based* sampler that keeps the
// k slowest completions, every drop, every SLO violation, and a seeded 1-in-N
// head sample. A latency sketch with exemplars (obs/sketch.h) links aggregate
// tail buckets back to concrete trace ids, so `vlacnn-report requests` can
// jump from "p99 degraded" to the one request that caused it.
//
// Knobs (obs/jsonl_sink.h; env grammar in common/env.h):
//   VLACNN_REQTRACE=<file.jsonl>  enable and name the output file
//   VLACNN_REQTRACE_TOPK=<k>      slowest-k retention (default 8; >= 1;
//                                 malformed values throw)
//   VLACNN_REQTRACE_HEAD=<n>      seeded 1-in-n head sample (default 0 = off;
//                                 malformed values throw)
//
// Units are simulated **cycles** throughout; nothing reads a wall clock. The
// exactness contract mirrors the Sterbenz latency attribution in
// serving/request_sim.h: for every sampled request
//   (queue_wait + formation_wait) + service == completion - arrival
// bit-exactly (left-to-right), and the per-layer segments — produced by a
// chain of exact_split()s — reconstitute the service span bit-exactly when
// folded back-to-front (right-to-left). The process-wide ReqTraceSink is a
// labeled-JSONL sink: one block per labeled simulation, written in label
// order by report::finish_run(), so a parallel capacity-planner run emits the
// same bytes as a serial one at any VLACNN_THREADS.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/jsonl_sink.h"
#include "obs/sketch.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

// VLACNN_REQTRACE is a PathKnob (obs/jsonl_sink.h); the path setter serves
// tests and the --reqtrace CLI flag.

bool reqtrace_enabled();  ///< the hot-path gate
std::string reqtrace_path();  ///< "" when disabled
void set_reqtrace_path(const std::string& path);

/// Slowest-k retention from VLACNN_REQTRACE_TOPK (default 8). Throws
/// std::runtime_error on a malformed or zero value — a typo must not silently
/// change what a run was meant to sample.
std::size_t reqtrace_top_k();

/// Head-sample period from VLACNN_REQTRACE_HEAD (default 0 = no head sample;
/// n >= 1 keeps a seeded 1-in-n sample of all offered requests). Throws
/// std::runtime_error on a malformed value.
std::uint64_t reqtrace_head_every();

/// Programmatic overrides of the sampling knobs (tests). top_k must be >= 1.
void set_reqtrace_top_k(std::size_t k);
void set_reqtrace_head_every(std::uint64_t n);

// -- trace records ------------------------------------------------------------

/// One key=value annotation attached to a traced request by the service model
/// (the learned dispatcher notes its plan, mispredictions, exploration state,
/// and selector charge here).
struct TraceNote {
  std::string key;
  std::string value;
};

/// Why the sampler retained a trace (a request can qualify several ways).
enum : unsigned {
  kKeepSlowest = 1u << 0,    ///< among the k slowest completions
  kKeepDrop = 1u << 1,       ///< rejected at the queue bound
  kKeepViolation = 1u << 2,  ///< completed past the SLO deadline
  kKeepHead = 1u << 3,       ///< seeded 1-in-N head sample
};

/// "slowest,drop,violation,head" subset, in that fixed order ("" when 0).
std::string keep_reasons_string(unsigned reasons);

/// One per-layer service segment of a traced request. Durations come from a
/// chain of exact_split()s over the service span: folding them back-to-front
/// (right-to-left) reconstitutes the span bit-exactly.
struct TraceSegment {
  std::string name;     ///< "conv<ordinal>/<algo>"
  double duration = 0;  ///< cycles
};

/// One request's complete trace. For completions the top-level spans are the
/// exact Sterbenz attribution; drops carry only the arrival timestamp
/// (arrival == completion, all spans zero). Fleet-routed traces (chip >= 0)
/// carry one extra leading span, the router hop, and the identity extends to
///   (router_hop + (queue_wait + formation_wait)) + service
///     == completion - arrival
/// left-to-right — the single-chip identity is its hop == 0 special case.
struct RequestTrace {
  std::uint64_t trace_id = 0;  ///< 1-based offered-arrival sequence number
  double arrival = 0;          ///< cycles: joined (or was rejected at) the queue
  double dispatch = 0;         ///< cycles: batch started
  double completion = 0;       ///< cycles: batch finished
  double queue_wait = 0;       ///< all-instances-busy share of the wait
  double formation_wait = 0;   ///< batching-policy (instance-idle) share
  double service = 0;          ///< in-service cycles
  double router_hop = 0;       ///< fleet front-end hop span (0 off-fleet)
  int chip = -1;               ///< serving fleet chip (-1 = not a fleet run)
  int batch = 0;               ///< batch size the request was served in
  int instance = -1;           ///< serving instance (-1 for drops)
  bool dropped = false;
  bool within_slo = true;
  unsigned keep = 0;                   ///< kKeep* reason mask
  std::vector<TraceSegment> layers;    ///< per-layer service segments
  std::vector<TraceNote> notes;        ///< dispatch annotations

  double latency() const { return completion - arrival; }

  /// One JSONL line, fixed key order, %.17g numbers.
  std::string to_json() const;
};

/// The deterministic head-sample decision: true when `every` >= 1 and the
/// seeded hash of trace_id selects this request (every == 1 keeps all).
/// A pure function of (trace_id, every, seed) — independent of thread count,
/// arrival order, and every other request.
bool head_sampled(std::uint64_t trace_id, std::uint64_t every,
                  std::uint64_t seed);

// -- tail-based sampler -------------------------------------------------------

/// Keeps every trace offered with a pre-set keep reason (drops, SLO
/// violations, head samples) plus the k slowest *completed* traces seen so
/// far. Fully deterministic: the k-slowest comparison is (latency, then lower
/// trace_id wins ties), so the retained set is a pure function of the offered
/// sequence. Memory is O(k + always-kept traces).
class TailSampler {
 public:
  explicit TailSampler(std::size_t top_k);

  /// Offer one terminal trace (keep flags for drop/violation/head already
  /// set). The sampler adds/removes kKeepSlowest as the top-k evolves;
  /// a trace with no remaining reason is discarded.
  void offer(RequestTrace&& t);

  /// All retained traces in ascending trace_id order. Call once, at the end.
  std::vector<RequestTrace> take();

  std::size_t top_k() const { return top_k_; }
  std::size_t retained() const { return kept_.size(); }

 private:
  /// Slowness order for the top-k set: latency ascending, ties broken so the
  /// *later* (higher-id) trace is evicted first — begin() is always the next
  /// trace to fall out.
  struct SlowKey {
    double latency;
    std::uint64_t trace_id;
    bool operator<(const SlowKey& o) const {
      if (latency != o.latency) return latency < o.latency;
      return trace_id > o.trace_id;
    }
  };

  std::size_t top_k_;
  std::map<SlowKey, std::uint64_t> slowest_;       ///< key -> trace_id
  std::map<std::uint64_t, RequestTrace> kept_;     ///< by trace_id
};

// -- recorder -----------------------------------------------------------------

/// Static configuration of one simulation's request tracing.
struct ReqTraceConfig {
  std::size_t top_k = 8;          ///< slowest-k retention
  std::uint64_t head_every = 0;   ///< 1-in-N head sample (0 = off)
  std::uint64_t head_seed = 0x7e1e5c0;  ///< head-sample hash seed
  double slo_cycles = 0;          ///< deadline for violation retention (0=off)
  double sketch_relative_error = 0.01;
  /// Per-conv-layer (label, cycles-per-image) weights used to subdivide each
  /// traced request's service span into per-layer segments. Empty = no layer
  /// segments. The weights are proportions; segments always reconstitute the
  /// actual service span exactly (see exact_split chaining).
  std::vector<std::pair<std::string, double>> service_layers;
};

/// Build the default config from the env knobs; slo_cycles from the caller.
ReqTraceConfig default_reqtrace_config(double slo_cycles);

/// Single-simulation recorder driven by the serving event loop. Not
/// thread-safe: one recorder per simulation, like the arrival process.
/// finish() seals the sampler; to_jsonl()/sampled() are valid after that.
class RequestTraceRecorder {
 public:
  explicit RequestTraceRecorder(const ReqTraceConfig& cfg);

  /// A request rejected at the queue bound. `id` is its 1-based offered
  /// sequence number (ServingStats::offered at the drop).
  void on_drop(std::uint64_t id, double t);

  /// A request served to completion, with the event loop's exact Sterbenz
  /// attribution. `notes` are the dispatch annotations captured when this
  /// request's batch was dispatched.
  void on_completion(std::uint64_t id, double arrival, double dispatch,
                     double completion, double queue_wait,
                     double formation_wait, double service, bool within_slo,
                     int batch, int instance,
                     const std::vector<TraceNote>& notes);

  /// The fleet-routed variant: additionally records the exact-split router
  /// hop span and the serving chip (>= 0), so the trace line carries the
  /// extended four-span attribution (see RequestTrace).
  void on_completion_routed(std::uint64_t id, double arrival, double dispatch,
                            double completion, double router_hop,
                            double queue_wait, double formation_wait,
                            double service, bool within_slo, int batch,
                            int chip, int instance,
                            const std::vector<TraceNote>& notes);

  /// Seal the sampler. Idempotent; must be the last mutating call.
  void finish();

  const ReqTraceConfig& config() const { return cfg_; }

  /// Retained traces in ascending trace_id order (valid after finish()).
  const std::vector<RequestTrace>& sampled() const { return sampled_; }

  /// The completion-latency sketch with trace-id exemplars.
  const QuantileSketch& latency_sketch() const { return sketch_; }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t violations() const { return violations_; }

  /// The full JSONL block: one header line, exemplar lines for the tail
  /// (p90 and beyond) of the latency sketch, then one line per retained
  /// request in trace_id order. Byte-stable: fixed key order, %.17g numbers.
  std::string to_jsonl() const;

 private:
  ReqTraceConfig cfg_;
  TailSampler sampler_;
  QuantileSketch sketch_;
  std::uint64_t offered_ = 0, completed_ = 0, dropped_ = 0, violations_ = 0;
  bool finished_ = false;
  std::vector<RequestTrace> sampled_;
};

/// Subdivide a service span of `total` cycles across `layers` weights by a
/// chain of exact_split()s: returned segments are proportional to the weights
/// and reconstitute `total` bit-exactly when folded right-to-left
/// (d[0] + (d[1] + (... + d[n-1]))). Exposed for tests; the recorder applies
/// it to every completed trace. Empty `layers` yields no segments;
/// non-positive weights count as zero (zero-duration segments, with the last
/// segment absorbing whatever remains — the whole span when every weight is
/// zero).
std::vector<TraceSegment> split_service_span(
    double total, const std::vector<std::pair<std::string, double>>& layers);

// -- sink ---------------------------------------------------------------------

/// The process-wide labeled-JSONL sink of finished request-trace blocks,
/// written to reqtrace_path(). The capacity planner labels blocks by grid
/// point, the same label as the point's timeline block.
class ReqTraceSink final : public LabeledJsonlSink {
 public:
  static ReqTraceSink& global();

 private:
  using LabeledJsonlSink::LabeledJsonlSink;
};

}  // namespace vlacnn::obs
