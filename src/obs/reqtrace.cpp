#include "obs/reqtrace.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/env.h"
#include "common/exact_split.h"
#include "common/rng.h"
#include "obs/json_util.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

namespace {

constinit PathKnob g_path("VLACNN_REQTRACE");

std::mutex g_knob_mu;  // guards the sampling knobs; nullopt = not yet read
std::optional<std::size_t> g_top_k;
std::optional<std::uint64_t> g_head_every;

}  // namespace

bool reqtrace_enabled() { return g_path.enabled(); }

std::string reqtrace_path() { return g_path.path(); }

void set_reqtrace_path(const std::string& path) { g_path.set(path); }

std::size_t reqtrace_top_k() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_top_k) {
    g_top_k = env_uint("VLACNN_REQTRACE_TOPK", 1, SIZE_MAX).value_or(8);
  }
  return *g_top_k;
}

std::uint64_t reqtrace_head_every() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_head_every) {
    g_head_every = env_uint("VLACNN_REQTRACE_HEAD").value_or(0);
  }
  return *g_head_every;
}

void set_reqtrace_top_k(std::size_t k) {
  if (k < 1) {
    throw std::invalid_argument("set_reqtrace_top_k: top_k must be >= 1");
  }
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_top_k = k;
}

void set_reqtrace_head_every(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_head_every = n;
}

// -- trace records ------------------------------------------------------------

std::string keep_reasons_string(unsigned reasons) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (reasons & kKeepSlowest) add("slowest");
  if (reasons & kKeepDrop) add("drop");
  if (reasons & kKeepViolation) add("violation");
  if (reasons & kKeepHead) add("head");
  return out;
}

std::string RequestTrace::to_json() const {
  std::string out = "{\"type\":\"request\",\"id\":";
  out += std::to_string(trace_id);
  append_kv(out, "arrival", arrival);
  append_kv(out, "dispatch", dispatch);
  append_kv(out, "completion", completion);
  append_kv(out, "latency", latency());
  append_kv(out, "queue_wait", queue_wait);
  append_kv(out, "formation_wait", formation_wait);
  append_kv(out, "service", service);
  // Fleet-only keys, emitted only for routed traces: single-chip trace files
  // keep their exact historical bytes (the v1 line schema grows additively).
  if (chip >= 0) {
    append_kv(out, "router_hop", router_hop);
    append_kv(out, "chip", chip);
  }
  append_kv(out, "batch", batch);
  append_kv(out, "instance", instance);
  append_kv(out, "dropped", dropped);
  append_kv(out, "within_slo", within_slo);
  out += ",\"keep\":";
  json_append_escaped(out, keep_reasons_string(keep));
  out += ",\"layers\":[";
  bool first = true;
  for (const TraceSegment& seg : layers) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json_append_escaped(out, seg.name);
    out += ",\"cycles\":";
    json_append_number(out, seg.duration);
    out += '}';
  }
  out += "],\"notes\":[";
  first = true;
  for (const TraceNote& note : notes) {
    if (!first) out += ',';
    first = false;
    out += "{\"k\":";
    json_append_escaped(out, note.key);
    out += ",\"v\":";
    json_append_escaped(out, note.value);
    out += '}';
  }
  out += "]}";
  return out;
}

bool head_sampled(std::uint64_t trace_id, std::uint64_t every,
                  std::uint64_t seed) {
  if (every == 0) return false;
  if (every == 1) return true;
  // One splitmix64 step over (seed xor id): uncorrelated with the arrival
  // process's own stream, and a pure function of the id — so the decision is
  // identical whatever order completions drain in.
  Rng rng(seed ^ trace_id);
  return rng.next_below(every) == 0;
}

// -- tail-based sampler -------------------------------------------------------

TailSampler::TailSampler(std::size_t top_k) : top_k_(top_k) {}

void TailSampler::offer(RequestTrace&& t) {
  if (!t.dropped && top_k_ > 0) {
    const SlowKey key{t.latency(), t.trace_id};
    if (slowest_.size() < top_k_) {
      t.keep |= kKeepSlowest;
      slowest_.emplace(key, t.trace_id);
    } else if (slowest_.begin()->first < key) {
      // The new trace is slower than the fastest of the current top-k (ties
      // resolved by SlowKey so the lower id wins retention): evict that one
      // and drop its record unless another reason still holds it.
      const std::uint64_t victim = slowest_.begin()->second;
      slowest_.erase(slowest_.begin());
      auto it = kept_.find(victim);
      if (it != kept_.end()) {
        it->second.keep &= ~kKeepSlowest;
        if (it->second.keep == 0) kept_.erase(it);
      }
      t.keep |= kKeepSlowest;
      slowest_.emplace(key, t.trace_id);
    }
  }
  if (t.keep != 0) kept_.insert_or_assign(t.trace_id, std::move(t));
}

std::vector<RequestTrace> TailSampler::take() {
  std::vector<RequestTrace> out;
  out.reserve(kept_.size());
  for (auto& [id, t] : kept_) out.push_back(std::move(t));
  kept_.clear();
  slowest_.clear();
  return out;
}

// -- recorder -----------------------------------------------------------------

ReqTraceConfig default_reqtrace_config(double slo_cycles) {
  ReqTraceConfig cfg;
  cfg.top_k = reqtrace_top_k();
  cfg.head_every = reqtrace_head_every();
  cfg.slo_cycles = slo_cycles;
  return cfg;
}

std::vector<TraceSegment> split_service_span(
    double total, const std::vector<std::pair<std::string, double>>& layers) {
  std::vector<TraceSegment> out(layers.size());
  exact_partition(
      total, layers.size(), [&](std::size_t i) { return layers[i].second; },
      [&](std::size_t i, double d) {
        out[i].name = layers[i].first;
        out[i].duration = d;
      });
  return out;
}

RequestTraceRecorder::RequestTraceRecorder(const ReqTraceConfig& cfg)
    : cfg_(cfg), sampler_(cfg.top_k), sketch_(cfg.sketch_relative_error) {}

void RequestTraceRecorder::on_drop(std::uint64_t id, double t) {
  ++offered_;
  ++dropped_;
  RequestTrace tr;
  tr.trace_id = id;
  tr.arrival = t;
  tr.dispatch = t;
  tr.completion = t;
  tr.dropped = true;
  tr.within_slo = false;  // a dropped request always misses its SLO
  tr.keep = kKeepDrop;
  if (head_sampled(id, cfg_.head_every, cfg_.head_seed)) tr.keep |= kKeepHead;
  sampler_.offer(std::move(tr));
}

void RequestTraceRecorder::on_completion(std::uint64_t id, double arrival,
                                         double dispatch, double completion,
                                         double queue_wait,
                                         double formation_wait, double service,
                                         bool within_slo, int batch,
                                         int instance,
                                         const std::vector<TraceNote>& notes) {
  on_completion_routed(id, arrival, dispatch, completion, /*router_hop=*/0.0,
                       queue_wait, formation_wait, service, within_slo, batch,
                       /*chip=*/-1, instance, notes);
}

void RequestTraceRecorder::on_completion_routed(
    std::uint64_t id, double arrival, double dispatch, double completion,
    double router_hop, double queue_wait, double formation_wait,
    double service, bool within_slo, int batch, int chip, int instance,
    const std::vector<TraceNote>& notes) {
  ++offered_;
  ++completed_;
  if (!within_slo) ++violations_;
  RequestTrace tr;
  tr.trace_id = id;
  tr.arrival = arrival;
  tr.dispatch = dispatch;
  tr.completion = completion;
  tr.queue_wait = queue_wait;
  tr.formation_wait = formation_wait;
  tr.service = service;
  tr.router_hop = router_hop;
  tr.chip = chip;
  tr.batch = batch;
  tr.instance = instance;
  tr.within_slo = within_slo;
  tr.layers = split_service_span(service, cfg_.service_layers);
  tr.notes = notes;
  if (!within_slo) tr.keep |= kKeepViolation;
  if (head_sampled(id, cfg_.head_every, cfg_.head_seed)) tr.keep |= kKeepHead;
  sketch_.observe(tr.latency(), id);
  sampler_.offer(std::move(tr));
}

void RequestTraceRecorder::finish() {
  if (finished_) return;
  finished_ = true;
  sampled_ = sampler_.take();
}

std::string RequestTraceRecorder::to_jsonl() const {
  std::string out = "{\"type\":\"header\",\"top_k\":";
  out += std::to_string(static_cast<std::uint64_t>(cfg_.top_k));
  append_kv(out, "head_every", cfg_.head_every);
  append_kv(out, "head_seed", cfg_.head_seed);
  append_kv(out, "slo_cycles", cfg_.slo_cycles);
  append_kv(out, "sketch_relative_error", cfg_.sketch_relative_error);
  append_kv(out, "offered", offered_);
  append_kv(out, "completed", completed_);
  append_kv(out, "dropped", dropped_);
  append_kv(out, "violations", violations_);
  append_kv(out, "sampled", static_cast<std::uint64_t>(sampled_.size()));
  append_kv(out, "layers",
            static_cast<std::uint64_t>(cfg_.service_layers.size()));
  out += "}\n";
  // Aggregate-to-concrete bridge: every tail (>= p90) latency bucket names
  // the slowest request it holds, whether or not the sampler retained it.
  for (const auto& [upper, ex] : sketch_.tail_exemplars(0.90)) {
    out += "{\"type\":\"exemplar\",\"bucket_upper\":";
    json_append_number(out, upper);
    append_kv(out, "latency", ex.value);
    append_kv(out, "id", ex.id);
    out += "}\n";
  }
  for (const RequestTrace& tr : sampled_) {
    out += tr.to_json();
    out += '\n';
  }
  return out;
}

// -- sink ---------------------------------------------------------------------

ReqTraceSink& ReqTraceSink::global() {
  static ReqTraceSink sink("ReqTraceSink", g_path);
  return sink;
}

}  // namespace vlacnn::obs
