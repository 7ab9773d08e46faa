#include "obs/reqtrace.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/rng.h"
#include "obs/json_util.h"

namespace vlacnn::serving {
// Declared here instead of including serving/request_sim.h: the obs layer
// sits below serving in the include order, and the recorder needs exactly one
// function from it — the Sterbenz-exact splitter the latency attribution is
// built on (defined in serving/request_sim.cpp; same static library, so the
// reference always resolves). A test pins reqtrace's segment sums against the
// serving-side attribution, so the two cannot drift apart silently.
std::pair<double, double> exact_split(double total, double head_approx);
}  // namespace vlacnn::serving

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

namespace {

std::mutex g_knob_mu;
bool g_path_parsed = false;
std::string g_path;
// -1 = not yet parsed; 0/1 mirror g_path.empty() for the lock-free gate.
std::atomic<int> g_enabled{-1};

bool g_top_k_parsed = false;
std::size_t g_top_k = 8;
bool g_head_parsed = false;
std::uint64_t g_head_every = 0;

std::uint64_t parse_u64_env(const char* name, std::uint64_t fallback,
                            std::uint64_t min_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || n < min_value) {
    throw std::runtime_error(std::string(name) + ": expected an integer >= " +
                             std::to_string(min_value) + ", got '" +
                             std::string(v) + "'");
  }
  return static_cast<std::uint64_t>(n);
}

}  // namespace

bool reqtrace_enabled() {
  int e = g_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    std::lock_guard<std::mutex> lk(g_knob_mu);
    if (!g_path_parsed) {
      const char* v = std::getenv("VLACNN_REQTRACE");
      g_path = v == nullptr ? "" : v;
      g_path_parsed = true;
    }
    e = g_path.empty() ? 0 : 1;
    g_enabled.store(e, std::memory_order_relaxed);
  }
  return e != 0;
}

std::string reqtrace_path() {
  reqtrace_enabled();  // force the one-time env parse
  std::lock_guard<std::mutex> lk(g_knob_mu);
  return g_path;
}

void set_reqtrace_path(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_path = path;
  g_path_parsed = true;
  g_enabled.store(path.empty() ? 0 : 1, std::memory_order_relaxed);
}

std::size_t reqtrace_top_k() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_top_k_parsed) {
    g_top_k = static_cast<std::size_t>(
        parse_u64_env("VLACNN_REQTRACE_TOPK", 8, 1));
    g_top_k_parsed = true;
  }
  return g_top_k;
}

std::uint64_t reqtrace_head_every() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_head_parsed) {
    g_head_every = parse_u64_env("VLACNN_REQTRACE_HEAD", 0, 0);
    g_head_parsed = true;
  }
  return g_head_every;
}

void set_reqtrace_top_k(std::size_t k) {
  if (k < 1) {
    throw std::invalid_argument("set_reqtrace_top_k: top_k must be >= 1");
  }
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_top_k = k;
  g_top_k_parsed = true;
}

void set_reqtrace_head_every(std::uint64_t n) {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_head_every = n;
  g_head_parsed = true;
}

// -- trace records ------------------------------------------------------------

namespace {

void append_kv(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  json_append_number(out, v);
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, int v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

}  // namespace

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
  std::vector<TraceSegment> out;
  if (layers.empty()) return out;
  out.reserve(layers.size());
  // Chain exact_split over the not-yet-assigned remainder: each layer's share
  // is its weight over the *remaining* weights, so proportions are honoured,
  // and because every cut is Sterbenz-exact the right-to-left fold of the
  // durations telescopes back to `total` bit for bit. (A left fold of naive
  // per-layer products would not: each product rounds independently.)
  double remaining = total;
  double weight_left = 0;
  for (const auto& [name, w] : layers) weight_left += w > 0 ? w : 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const double w = layers[i].second > 0 ? layers[i].second : 0;
    TraceSegment seg;
    seg.name = layers[i].first;
    if (i + 1 == layers.size()) {
      seg.duration = remaining;  // the last segment absorbs the remainder
    } else {
      const double approx =
          weight_left > 0 && std::isfinite(weight_left)
              ? remaining * (w / weight_left)
              : 0;
      const auto [head, tail] = serving::exact_split(remaining, approx);
      seg.duration = head;
      remaining = tail;
      weight_left -= w;
    }
    out.push_back(std::move(seg));
  }
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
  static ReqTraceSink sink;
  return sink;
}

void ReqTraceSink::record(const std::string& label, std::string jsonl) {
  arm_reqtrace_exit_write();
  std::lock_guard<std::mutex> lk(mu_);
  blocks_[label] = std::move(jsonl);
}

std::string ReqTraceSink::next_auto_label() {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[24];
  std::snprintf(buf, sizeof buf, "run%06llu",
                static_cast<unsigned long long>(++auto_seq_));
  return buf;
}

std::string ReqTraceSink::write_file() {
  const std::string path = reqtrace_path();
  if (path.empty()) {
    throw std::runtime_error(
        "ReqTraceSink::write_file: no output path (set VLACNN_REQTRACE)");
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
  write_text_file(path, out, "ReqTraceSink::write_file");
  return path;
}

std::size_t ReqTraceSink::block_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

void ReqTraceSink::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  blocks_.clear();
  auto_seq_ = 0;
}

void arm_reqtrace_exit_write() {
  static std::once_flag once;
  std::call_once(once, [] {
    ReqTraceSink::global();  // outlive any static that records during exit
    std::atexit([] {
      ReqTraceSink& sink = ReqTraceSink::global();
      if (sink.block_count() == 0 || !reqtrace_enabled()) return;
      try {
        sink.write_file();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "vlacnn: reqtrace write failed: %s\n", e.what());
      }
    });
  });
}

}  // namespace vlacnn::obs
