#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <stdexcept>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/json.h"

namespace vlacnn::serving {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

bool ChipSpec::hosts(int model) const {
  if (hosted_models.empty()) return true;
  return std::find(hosted_models.begin(), hosted_models.end(), model) !=
         hosted_models.end();
}

std::string ChipSpec::short_label() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "c%dv%ul%llui%d", point.cores,
                point.vlen_bits,
                static_cast<unsigned long long>(point.l2_total_bytes >> 20),
                point.instances);
  return buf;
}

int FleetTrafficMix::pick(std::uint64_t seq) const {
  if (names.empty() || names.size() != shares.size()) {
    throw std::invalid_argument(
        "FleetTrafficMix: names and shares must be non-empty and same-sized");
  }
  double total = 0;
  for (double s : shares) {
    if (!(s > 0) || !std::isfinite(s)) {
      throw std::invalid_argument(
          "FleetTrafficMix: shares must be positive and finite");
    }
    total += s;
  }
  // Pure function of (seed, seq): one splitmix64 stream keyed by the request
  // id, so the model of request k never depends on how many requests came
  // before it — recomposing the fleet cannot reshuffle the traffic.
  Rng rng(seed ^ (seq * 0x9e3779b97f4a7c15ull));
  const double u = static_cast<double>(rng.next_float()) * total;
  double acc = 0;
  for (std::size_t m = 0; m + 1 < shares.size(); ++m) {
    acc += shares[m];
    if (u < acc) return static_cast<int>(m);
  }
  return static_cast<int>(shares.size()) - 1;
}

std::string FleetTrafficMix::to_string() const {
  double total = 0;
  for (double s : shares) total += s;
  std::string out;
  for (std::size_t m = 0; m < names.size(); ++m) {
    if (!out.empty()) out += ',';
    char buf[32];
    std::snprintf(buf, sizeof buf, "=%.2f",
                  total > 0 ? shares[m] / total : 0.0);
    out += names[m];
    out += buf;
  }
  return out;
}

std::string FleetStats::to_json() const {
  using report::json_number;
  std::string out = "{\"fleet\": ";
  out += fleet.to_json();
  out += ", \"mean_router_hop\": " + json_number(mean_router_hop);
  out += ", \"total_area_mm2\": " + json_number(total_area_mm2);
  out += ", \"per_chip\": [";
  for (std::size_t c = 0; c < per_chip.size(); ++c) {
    if (c > 0) out += ", ";
    out += "{\"chip\": " + std::to_string(c);
    out += ", \"label\": \"";
    out += c < chip_labels.size() ? chip_labels[c] : "";
    out += "\", \"stats\": " + per_chip[c].to_json() + "}";
  }
  out += "], \"per_model\": [";
  for (std::size_t m = 0; m < per_model.size(); ++m) {
    const FleetModelStats& ms = per_model[m];
    if (m > 0) out += ", ";
    out += "{\"name\": \"" + ms.name + "\"";
    out += ", \"offered\": " + std::to_string(ms.offered);
    out += ", \"completed\": " + std::to_string(ms.completed);
    out += ", \"dropped\": " + std::to_string(ms.dropped);
    out += ", \"p50\": " + json_number(ms.p50);
    out += ", \"p99\": " + json_number(ms.p99);
    out += ", \"p999\": " + json_number(ms.p999);
    out += ", \"mean_latency\": " + json_number(ms.mean_latency);
    out += ", \"slo_attainment\": " + json_number(ms.slo_attainment);
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

/// Trace events per simulation are capped so a planner run over hundreds of
/// grid points cannot balloon the in-memory trace buffer; the cap is logged
/// when hit.
constexpr std::uint64_t kMaxBatchTraceEvents = 4096;

/// Simulated cycles -> trace microseconds at the repo's 2 GHz presentation
/// clock, so a Perfetto timeline of batches reads in real service time.
constexpr double kTraceCyclesPerUs = 2000.0;

/// What simulate_requests adds to the one-chip, one-model fleet it runs: the
/// caller's policy object, a single-chip request log, and single-chip obs
/// output (trace lines without router_hop/chip keys, sink blocks under the
/// caller's labels). simulate_fleet passes none.
struct SingleChipRun {
  BatchingPolicy& policy;
  std::vector<RequestRecord>* request_log;
  const std::string& timeline_label;
  const std::string& reqtrace_label;
};

/// FIFO on a power-of-two ring buffer: no per-element allocation (unlike
/// std::deque's block churn), and memory bounded by the peak live queue.
template <class T>
class Fifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const T& front() const { return buf_[head_]; }
  void push_back(const T& v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> next(std::max<std::size_t>(16, 2 * buf_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0, size_ = 0;
};

/// Nearest-rank order statistics at ascending ranks, by successive
/// nth_element partitions of the not-yet-selected suffix: the values a full
/// sort would put at those ranks, in linear expected time.
class RankSelector {
 public:
  explicit RankSelector(std::vector<double>& v) : v_(v) {}
  double at(std::size_t k) {
    std::nth_element(v_.begin() + static_cast<std::ptrdiff_t>(lo_),
                     v_.begin() + static_cast<std::ptrdiff_t>(k), v_.end());
    lo_ = k;
    return v_[k];
  }
  double nearest(double q) { return at(nearest_rank_index(v_.size(), q)); }

 private:
  std::vector<double>& v_;
  std::size_t lo_ = 0;
};

/// The ServiceModel overriding `chip`'s cost model for `model`, or null.
ServiceModel* service_override(const FleetChip& chip, int model) {
  return chip.services.empty()
             ? nullptr
             : chip.services[static_cast<std::size_t>(model)];
}

/// One ServingStats scope's accumulators: the whole fleet, one chip of a
/// multi-chip fleet, or one model of a multi-model mix (a single chip's or
/// model's scope *is* the fleet scope, so those are never filled).
struct Tally {
  ServingStats s;
  std::vector<double> latencies;  ///< completion order until finalize()
  double wait_sum = 0, queue_wait_sum = 0, formation_sum = 0;
  double service_sum = 0, batch_images = 0;

  void complete(double lat, double qw, double fw, double service) {
    latencies.push_back(lat);
    queue_wait_sum += qw;
    formation_sum += fw;
    service_sum += service;
  }

  /// Fill the derived fields of `s` (the counters are kept live).
  void finalize(double makespan, double queue_area, double busy_cycles,
                int instances, double slo_cycles) {
    s.completed = latencies.size();
    s.makespan = makespan;
    s.slo = slo_cycles;
    if (s.batches > 0) {
      s.mean_batch = batch_images / static_cast<double>(s.batches);
    }
    if (!latencies.empty()) {
      double sum = 0;
      for (double l : latencies) sum += l;
      const double n = static_cast<double>(latencies.size());
      s.mean_latency = sum / n;
      s.mean_wait = wait_sum / n;
      s.mean_queue_wait = queue_wait_sum / n;
      s.mean_formation_wait = formation_sum / n;
      s.mean_service = service_sum / n;
      RankSelector r(latencies);
      s.p50 = r.nearest(0.50);
      s.p95 = r.nearest(0.95);
      s.p99 = r.nearest(0.99);
      s.p999 = r.nearest(0.999);
      s.max_latency = r.at(latencies.size() - 1);
    }
    if (makespan > 0) {
      s.mean_queue = queue_area / makespan;
      s.utilization = busy_cycles / (static_cast<double>(instances) * makespan);
    }
    if (slo_cycles > 0 && s.offered > 0) {
      // Nearest-rank semantics again: count exact per-request cycle values.
      const auto within =
          std::count_if(latencies.begin(), latencies.end(),
                        [&](double l) { return l <= slo_cycles; });
      s.slo_attainment =
          static_cast<double>(within) / static_cast<double>(s.offered);
    }
  }
};

/// Per-chip mutable simulation state.
struct ChipState {
  struct Queued {
    double arrival;       ///< fleet arrival, cycles
    double idle_at_join;  ///< chip idle-time integral when it joined
    std::uint64_t seq;    ///< fleet trace id (1-based)
  };
  struct Member {
    double arrival;
    double formation_wait;  ///< measured at dispatch, clamped
    std::uint64_t seq;
    int model;
  };
  /// Idle instance ids, lowest first.
  std::priority_queue<int, std::vector<int>, std::greater<int>> idle;
  /// The batch in service on one instance.
  struct Batch {
    double dispatched_at = 0;
    std::vector<Member> members;
    std::vector<obs::TraceNote> notes;  ///< service-model notes (tracing)
  };
  std::vector<Fifo<Queued>> queues;  ///< per model
  std::vector<Batch> batches;        ///< per instance
  std::size_t queued_total = 0;

  double idle_time = 0;   ///< integral of [some instance idle]
  double queue_area = 0;  ///< integral of queued_total
  double busy_cycles = 0;
  Tally tally;  ///< counters always; latencies and sums only when C > 1
};

/// The serving event loop. kObs compiles the observability hooks (metrics,
/// batch trace events, timeline, request traces) in or out — the no-obs twin
/// is the baseline side of bench_obs_overhead's serving gate, so it must not
/// even read the knobs. Latency attribution
/// and the request logs are product output and exist in both.
template <bool kObs>
FleetStats run_serving_loop(const FleetConfig& cfg, ArrivalProcess& arrivals,
                            const SingleChipRun* single) {
  const int C = static_cast<int>(cfg.chips.size());
  const int M = static_cast<int>(cfg.mix.names.size());
  if (C == 0) {
    throw std::invalid_argument("serving loop: need at least one chip");
  }
  if (M == 0 || cfg.mix.names.size() != cfg.mix.shares.size()) {
    throw std::invalid_argument("serving loop: inconsistent traffic mix");
  }
  cfg.mix.pick(1);  // validates the shares, so one model can skip the draw
  if (!(cfg.router_hop_cycles >= 0) ||
      !std::isfinite(cfg.router_hop_cycles)) {
    throw std::invalid_argument(
        "serving loop: router hop must be finite and >= 0");
  }
  const double hop = cfg.router_hop_cycles;
  const auto qi = [M](int c, int m) {
    return static_cast<std::size_t>(c * M + m);
  };

  // Placement (the ascending host list per model, validated up front so the
  // router never sees an empty candidate set), per-chip state, and one fresh
  // batching policy per (chip, model) queue — policies may keep state
  // (batching.h's one-per-simulation contract) — or the single-chip caller's.
  std::vector<std::vector<int>> hosts(static_cast<std::size_t>(M));
  std::vector<ChipState> chips(static_cast<std::size_t>(C));
  std::vector<std::unique_ptr<BatchingPolicy>> owned_policies;
  std::vector<BatchingPolicy*> policies;  ///< indexed by qi(chip, model)
  for (int c = 0; c < C; ++c) {
    const FleetChip& chip = cfg.chips[static_cast<std::size_t>(c)];
    const int inst = chip.spec.point.instances;
    if (inst < 1) {
      throw std::invalid_argument("serving loop: chip needs >= 1 instance");
    }
    if (chip.costs.size() != static_cast<std::size_t>(M) ||
        (!chip.services.empty() &&
         chip.services.size() != static_cast<std::size_t>(M))) {
      throw std::invalid_argument(
          "serving loop: chip needs one cost model per mix model");
    }
    for (int m = 0; m < M; ++m) {
      if (single == nullptr) owned_policies.push_back(make_policy(cfg.policy));
      policies.push_back(single != nullptr ? &single->policy
                                           : owned_policies.back().get());
      if (!chip.spec.hosts(m)) continue;
      const BatchCostModel& bc = chip.costs[static_cast<std::size_t>(m)];
      if (service_override(chip, m) == nullptr &&
          (!(bc.first_image_cycles > 0) || !(bc.marginal_image_cycles >= 0))) {
        throw std::invalid_argument(
            "serving loop: hosted model needs positive first-image and "
            "non-negative marginal cycles");
      }
      hosts[static_cast<std::size_t>(m)].push_back(c);
    }
    ChipState& cs = chips[static_cast<std::size_t>(c)];
    for (int i = 0; i < inst; ++i) cs.idle.push(i);
    cs.queues.resize(static_cast<std::size_t>(M));
    cs.batches.resize(static_cast<std::size_t>(inst));
  }
  for (int m = 0; m < M; ++m) {
    if (hosts[static_cast<std::size_t>(m)].empty()) {
      throw std::invalid_argument(
          "serving loop: model '" + cfg.mix.names[static_cast<std::size_t>(m)] +
          "' has no hosting chip");
    }
  }

  // One chip needs no routing decision; the router is built only for more.
  const std::unique_ptr<FleetRouter> router =
      C > 1 ? make_router(cfg.router, static_cast<std::size_t>(M)) : nullptr;
  std::vector<std::uint64_t> outstanding(static_cast<std::size_t>(C), 0);

  // One in-flight batch per busy (chip, instance), ordered by completion;
  // ties pop the lowest (chip, instance) first.
  struct InFlight {
    double completion;
    int chip;
    int instance;
    bool operator>(const InFlight& o) const {
      if (completion != o.completion) return completion > o.completion;
      if (chip != o.chip) return chip > o.chip;
      return instance > o.instance;
    }
  };
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<InFlight>>
      busy;

  // Routed-but-not-yet-delivered requests. The hop is one constant, so
  // delivery times are nondecreasing in routing order — a FIFO, no priority
  // queue needed.
  struct Transit {
    double deliver;  ///< arrival + hop
    double arrival;  ///< fleet arrival
    std::uint64_t seq;
    int model;
    int chip;
  };
  Fifo<Transit> transit;

  // Fleet-level accumulators; per-model ones only when there are several.
  FleetStats out;
  Tally fleet;
  std::vector<Tally> models(M > 1 ? static_cast<std::size_t>(M) : 0);
  double hop_sum = 0;
  std::size_t total_queued = 0;
  double now = 0;
  double pending = kInf;  ///< next arrival; kInf = none schedulable now
  if (cfg.request_log != nullptr) cfg.request_log->clear();
  std::vector<RequestRecord>* single_log =
      single != nullptr ? single->request_log : nullptr;
  if (single_log != nullptr) single_log->clear();

  // Observability. Caller-owned recorders see the whole fleet; otherwise,
  // with a knob on, the loop owns one timeline recorder per chip and one
  // request-trace recorder (trace ids are fleet-wide) and sinks them below.
  bool metrics = false;
  obs::Histogram* lat_hist = nullptr;
  obs::Counter* completed_ctr = nullptr;
  obs::Counter* dropped_ctr = nullptr;
  obs::Counter* batches_ctr = nullptr;
  obs::Tracer* tracer = nullptr;
  std::uint64_t traced_batches = 0;
  std::vector<obs::TimelineRecorder*> timelines;  ///< per chip; empty = off
  std::vector<std::unique_ptr<obs::TimelineRecorder>> owned_timelines;
  obs::RequestTraceRecorder* rrec = nullptr;
  std::unique_ptr<obs::RequestTraceRecorder> owned_rrec;
  if constexpr (kObs) {
    metrics = obs::metrics_enabled();
    if (metrics) {
      obs::Registry& reg = obs::Registry::global();
      lat_hist = &reg.histogram("serving.request_latency_cycles");
      completed_ctr = &reg.counter("serving.requests_completed");
      dropped_ctr = &reg.counter("serving.requests_dropped");
      batches_ctr = &reg.counter("serving.batches_dispatched");
    }
    tracer = &obs::Tracer::global();
    if (cfg.timeline != nullptr) {
      timelines.assign(static_cast<std::size_t>(C), cfg.timeline);
    } else if (obs::timeline_enabled()) {
      for (const FleetChip& chip : cfg.chips) {
        owned_timelines.push_back(std::make_unique<obs::TimelineRecorder>(
            chip_timeline_config(chip.spec.point.instances, cfg.slo_cycles,
                                 cfg.attainment_target,
                                 cfg.expected_horizon_cycles)));
        timelines.push_back(owned_timelines.back().get());
      }
    }
    rrec = cfg.reqtrace;
    if (rrec == nullptr && obs::reqtrace_enabled()) {
      owned_rrec = std::make_unique<obs::RequestTraceRecorder>(
          obs::default_reqtrace_config(cfg.slo_cycles));
      rrec = owned_rrec.get();
    }
  }
  // One flag guards every per-event hook, so a run with all of them off
  // tests a single branch per event; constant false in the no-obs twin.
  const bool observe = kObs && (metrics || rrec != nullptr ||
                                !timelines.empty() || tracer->enabled());

  const auto timeline = [&](int chip) {  // chip's recorder, or null
    return timelines.empty() ? nullptr
                             : timelines[static_cast<std::size_t>(chip)];
  };
  auto poll = [&] {
    if (pending == kInf) pending = arrivals.next_arrival().value_or(kInf);
  };
  auto advance = [&](double t_new) {
    const double dt = t_new - now;
    for (ChipState& cs : chips) {
      cs.queue_area += static_cast<double>(cs.queued_total) * dt;
      if (!cs.idle.empty()) cs.idle_time += dt;
    }
    now = t_new;
  };

  // A routed request reaches its chip's queue (the hop elapsed — or was zero).
  auto enqueue = [&](double arrival, std::uint64_t seq, int model, int chip) {
    ChipState& cs = chips[static_cast<std::size_t>(chip)];
    ++cs.tally.s.offered;
    if (cfg.queue_capacity > 0 && cs.queued_total >= cfg.queue_capacity) {
      ++fleet.s.dropped;
      ++cs.tally.s.dropped;
      if (M > 1) ++models[static_cast<std::size_t>(model)].s.dropped;
      --outstanding[static_cast<std::size_t>(chip)];
      if (observe) [[unlikely]] {
        if (auto* t = timeline(chip)) t->on_drop(now);
        if (rrec != nullptr) rrec->on_drop(seq, now);
      }
      arrivals.on_completion(now);  // a rejection is still a response
      return;
    }
    cs.queues[static_cast<std::size_t>(model)].push_back(
        {arrival, cs.idle_time, seq});
    ++cs.queued_total;
    ++total_queued;
    if (observe) [[unlikely]] {
      if (auto* t = timeline(chip)) t->on_arrival(now);
    }
    cs.tally.s.max_queue =
        std::max(cs.tally.s.max_queue, static_cast<double>(cs.queued_total));
    fleet.s.max_queue =
        std::max(fleet.s.max_queue, static_cast<double>(total_queued));
  };

  auto try_dispatch = [&]() -> bool {
    bool dispatched = false;
    while (true) {
      // Among all (chip, model) queues the policy would dispatch from right
      // now, serve the one whose head joined earliest; ties go to the lowest
      // (chip, model) — the scan order below — so the pick is deterministic.
      int bc = -1, bm = -1, bn = 0;
      double best_join = kInf;
      for (int c = 0; c < C; ++c) {
        ChipState& cs = chips[static_cast<std::size_t>(c)];
        if (cs.idle.empty()) continue;
        for (int m = 0; m < M; ++m) {
          const auto& q = cs.queues[static_cast<std::size_t>(m)];
          if (q.empty()) continue;
          const double join = q.front().arrival + hop;
          const int n = policies[qi(c, m)]->dispatch_size(q.size(), join, now);
          if (n <= 0) continue;
          if (join < best_join) {
            best_join = join;
            bc = c;
            bm = m;
            bn = n;
          }
        }
      }
      if (bc < 0) break;
      ChipState& cs = chips[static_cast<std::size_t>(bc)];
      auto& q = cs.queues[static_cast<std::size_t>(bm)];
      const int n = std::min(bn, static_cast<int>(q.size()));
      const int inst = cs.idle.top();
      cs.idle.pop();
      ChipState::Batch& batch = cs.batches[static_cast<std::size_t>(inst)];
      batch.members.clear();
      for (int i = 0; i < n; ++i) {
        const ChipState::Queued& qr = q.front();
        const double wait = now - qr.arrival;  // fleet wait, hop included
        fleet.wait_sum += wait;
        if (C > 1) cs.tally.wait_sum += wait;
        const double chip_wait = now - (qr.arrival + hop);
        double fw = cs.idle_time - qr.idle_at_join;
        if (fw < 0) fw = 0;
        if (fw > chip_wait) fw = chip_wait > 0 ? chip_wait : 0;
        batch.members.push_back({qr.arrival, fw, qr.seq, bm});
        q.pop_front();
      }
      cs.queued_total -= static_cast<std::size_t>(n);
      total_queued -= static_cast<std::size_t>(n);
      batch.dispatched_at = now;
      const FleetChip& chip = cfg.chips[static_cast<std::size_t>(bc)];
      ServiceModel* model = service_override(chip, bm);
      const double service =
          model != nullptr
              ? model->service_cycles(n)
              : chip.costs[static_cast<std::size_t>(bm)].service_cycles(n);
      if (!(service > 0) || !std::isfinite(service)) {
        throw std::logic_error(
            "serving loop: service model returned a non-positive or "
            "non-finite batch time");
      }
      busy.push({now + service, bc, inst});
      cs.busy_cycles += service;
      ++cs.tally.s.batches;
      ++fleet.s.batches;
      cs.tally.batch_images += n;
      fleet.batch_images += n;
      dispatched = true;
      if (observe) [[unlikely]] {
        if (auto* t = timeline(bc)) t->on_dispatch(now, n);
        if (rrec != nullptr) {
          // Ask the service model for this batch's decision notes now, while
          // its "most recent call" state is this dispatch.
          batch.notes.clear();
          if (model != nullptr) model->trace_annotations(batch.notes);
        }
        if (tracer->enabled() && traced_batches < kMaxBatchTraceEvents) {
          // Trace timestamps are *simulated* time, so the file renders the
          // serving schedule itself, not the wall clock of the simulator.
          obs::Tracer::Args args{{"instance", std::to_string(inst)},
                                 {"batch", std::to_string(n)},
                                 {"service_cycles", std::to_string(service)}};
          if (single == nullptr) args.push_back({"chip", std::to_string(bc)});
          tracer->emit("serving.batch", now / kTraceCyclesPerUs,
                       service / kTraceCyclesPerUs, args);
          if (++traced_batches == kMaxBatchTraceEvents) {
            obs::log(obs::LogLevel::kInfo, "serving", "batch_trace_capped",
                     {{"cap", std::to_string(kMaxBatchTraceEvents)}});
          }
        }
      }
    }
    return dispatched;
  };

  poll();
  while (true) {
    const double tc = busy.empty() ? kInf : busy.top().completion;
    const double tq = transit.empty() ? kInf : transit.front().deliver;
    const double ta = pending;
    double td = kInf;
    for (int c = 0; c < C; ++c) {
      ChipState& cs = chips[static_cast<std::size_t>(c)];
      if (cs.idle.empty()) continue;
      for (int m = 0; m < M; ++m) {
        const auto& q = cs.queues[static_cast<std::size_t>(m)];
        if (q.empty()) continue;
        const double d = policies[qi(c, m)]->flush_deadline(
            q.size(), q.front().arrival + hop);
        td = std::min(td, std::max(d, now));
      }
    }
    const double t_next = std::min({tc, tq, ta, td});
    if (t_next == kInf) break;
    advance(t_next);

    // Tie order at equal timestamps: completions free instances first,
    // router-hop deliveries join queues second, new arrivals are routed
    // third, policy flushes run last — fixed, so the fleet-wide event
    // sequence (and every stat) is reproducible.
    if (tc <= t_next) {
      const InFlight f = busy.top();
      busy.pop();
      ChipState& cs = chips[static_cast<std::size_t>(f.chip)];
      const ChipState::Batch& batch =
          cs.batches[static_cast<std::size_t>(f.instance)];
      const double dispatched_at = batch.dispatched_at;
      for (const ChipState::Member& m : batch.members) {
        const double lat = now - m.arrival;
        // Exact four-span attribution, a chain of Sterbenz splits: latency
        // into pre-dispatch vs service, pre-dispatch into hop vs on-chip
        // wait, the wait into queue vs formation. Left-to-right,
        //   (hop + (qw + fw)) + service == lat bit-exactly.
        const auto [pre, service_c] =
            exact_split(lat, dispatched_at - m.arrival);
        const auto [hop_c, wait_c] = exact_split(pre, hop);
        const auto [qw, fw] = exact_split(wait_c, wait_c - m.formation_wait);
        fleet.complete(lat, qw, fw, service_c);
        if (C > 1) cs.tally.complete(lat, qw, fw, service_c);
        if (M > 1) {
          models[static_cast<std::size_t>(m.model)].latencies.push_back(lat);
        }
        hop_sum += hop_c;
        const bool within = cfg.slo_cycles <= 0 || lat <= cfg.slo_cycles;
        if (cfg.request_log != nullptr) {
          cfg.request_log->push_back(
              {m.model, f.chip, hop_c,
               {m.arrival, dispatched_at, now, qw, fw, service_c, within}});
        }
        if (single_log != nullptr) {
          single_log->push_back(
              {m.arrival, dispatched_at, now, qw, fw, service_c, within});
        }
        if (observe) [[unlikely]] {
          if (auto* t = timeline(f.chip)) t->on_completion(now, lat, within);
          if (rrec != nullptr) {
            const int n = static_cast<int>(batch.members.size());
            if (single != nullptr) {
              rrec->on_completion(m.seq, m.arrival, dispatched_at, now, qw, fw,
                                  service_c, within, n, f.instance,
                                  batch.notes);
            } else {
              rrec->on_completion_routed(m.seq, m.arrival, dispatched_at, now,
                                         hop_c, qw, fw, service_c, within, n,
                                         f.chip, f.instance, batch.notes);
            }
          }
          if (metrics) {
            lat_hist->observe(
                static_cast<std::uint64_t>(std::llround(std::max(lat, 0.0))));
          }
        }
        arrivals.on_completion(now);
      }
      outstanding[static_cast<std::size_t>(f.chip)] -= batch.members.size();
      cs.idle.push(f.instance);
      if (observe) [[unlikely]] {
        if (auto* t = timeline(f.chip)) t->on_batch_done(now);
      }
      try_dispatch();
      poll();
      continue;
    }
    if (tq <= t_next) {
      const Transit tr = transit.front();
      transit.pop_front();
      enqueue(tr.arrival, tr.seq, tr.model, tr.chip);
      try_dispatch();
      poll();
      continue;
    }
    if (ta <= t_next) {
      ++fleet.s.offered;
      const std::uint64_t seq = fleet.s.offered;
      const int model = M > 1 ? cfg.mix.pick(seq) : 0;
      if (M > 1) ++models[static_cast<std::size_t>(model)].s.offered;
      const int chip =
          C > 1 ? router->route(model, hosts[static_cast<std::size_t>(model)],
                                outstanding)
                : 0;
      ++outstanding[static_cast<std::size_t>(chip)];
      pending = kInf;
      // Join (or drop) before polling: a closed-loop process re-arms the
      // client of a dropped request in arrivals.on_completion().
      if (hop == 0) {
        enqueue(now, seq, model, chip);
      } else {
        transit.push_back({now + hop, now, seq, model, chip});
      }
      poll();
      try_dispatch();
      continue;
    }
    // Flush deadline: some policy named this cycle, so it must dispatch now.
    if (!try_dispatch()) {
      throw std::logic_error(
          "serving loop: batching policy refused to dispatch at its own "
          "flush deadline");
    }
  }
  if (total_queued != 0) {
    throw std::logic_error(
        "serving loop: batching policy left requests queued forever "
        "(flush_deadline returned +inf with idle instances)");
  }

  // Finalize: fleet aggregate, then per-chip (fleet makespan, so chip
  // utilizations are comparable), then per-model slices — skipped for
  // simulate_requests, which reads only the fleet scope. One chip or one
  // model is the fleet scope itself, so its slice is a copy.
  double queue_area = 0, busy_cycles = 0;
  int total_instances = 0;
  for (int c = 0; c < C; ++c) {
    const ChipState& cs = chips[static_cast<std::size_t>(c)];
    queue_area += cs.queue_area;
    busy_cycles += cs.busy_cycles;
    total_instances += cfg.chips[static_cast<std::size_t>(c)].spec.point.instances;
    out.total_area_mm2 += cfg.chips[static_cast<std::size_t>(c)].area_mm2;
  }
  if (!fleet.latencies.empty()) {
    out.mean_router_hop = hop_sum / static_cast<double>(fleet.latencies.size());
  }
  fleet.finalize(now, queue_area, busy_cycles, total_instances,
                 cfg.slo_cycles);
  out.fleet = fleet.s;
  for (int c = 0; single == nullptr && c < C; ++c) {
    ChipState& cs = chips[static_cast<std::size_t>(c)];
    const FleetChip& chip = cfg.chips[static_cast<std::size_t>(c)];
    if (C > 1) {
      cs.tally.finalize(now, cs.queue_area, cs.busy_cycles,
                        chip.spec.point.instances, cfg.slo_cycles);
    }
    out.per_chip.push_back(C > 1 ? cs.tally.s : fleet.s);
    out.chip_labels.push_back(chip.spec.short_label());
  }
  for (int m = 0; single == nullptr && m < M; ++m) {
    Tally& t = M > 1 ? models[static_cast<std::size_t>(m)] : fleet;
    if (M > 1) t.finalize(now, 0, 0, 1, cfg.slo_cycles);
    out.per_model.push_back({cfg.mix.names[static_cast<std::size_t>(m)],
                             t.s.offered, t.s.completed, t.s.dropped, t.s.p50,
                             t.s.p99, t.s.p999, t.s.mean_latency,
                             t.s.slo_attainment});
  }

  if constexpr (kObs) {
    if (metrics) {
      completed_ctr->add(out.fleet.completed);
      dropped_ctr->add(out.fleet.dropped);
      batches_ctr->add(out.fleet.batches);
    }
    if (cfg.timeline != nullptr) cfg.timeline->finish(out.fleet.makespan);
    if (!owned_timelines.empty()) {
      obs::TimelineSink& sink = obs::TimelineSink::global();
      const std::string& label =
          single != nullptr ? single->timeline_label : cfg.label;
      const std::string base = label.empty() ? sink.next_auto_label() : label;
      for (int c = 0; c < C; ++c) {
        obs::TimelineRecorder& r = *owned_timelines[static_cast<std::size_t>(c)];
        r.finish(out.fleet.makespan);
        char suffix[16];
        std::snprintf(suffix, sizeof suffix, "/chip%02d", c);
        sink.record(single != nullptr ? base : base + suffix, r.to_jsonl());
      }
    }
    if (rrec != nullptr) rrec->finish();
    if (owned_rrec != nullptr) {
      obs::ReqTraceSink& rsink = obs::ReqTraceSink::global();
      const std::string& label =
          single != nullptr ? single->reqtrace_label : cfg.label;
      rsink.record(label.empty() ? rsink.next_auto_label() : label,
                   owned_rrec->to_jsonl());
    }
  }
  return out;
}

/// simulate_requests as a one-chip, one-model, zero-hop fleet.
template <bool kObs>
ServingStats simulate_one_chip(const RequestSimConfig& cfg,
                               ArrivalProcess& arrivals,
                               BatchingPolicy& policy) {
  FleetConfig fc;
  FleetChip chip;
  chip.spec.point.instances = cfg.instances;
  chip.costs = {cfg.cost};
  chip.services = {cfg.service};
  fc.chips.push_back(std::move(chip));
  fc.mix.names = {"model"};
  fc.mix.shares = {1.0};
  fc.queue_capacity = cfg.queue_capacity;
  fc.slo_cycles = cfg.slo_cycles;
  fc.timeline = cfg.timeline;
  fc.reqtrace = cfg.reqtrace;
  const SingleChipRun run{policy, cfg.request_log, cfg.timeline_label,
                          cfg.reqtrace_label};
  return run_serving_loop<kObs>(fc, arrivals, &run).fleet;
}

}  // namespace

FleetStats simulate_fleet(const FleetConfig& cfg, ArrivalProcess& arrivals) {
  return run_serving_loop<true>(cfg, arrivals, nullptr);
}

ServingStats simulate_requests(const RequestSimConfig& cfg,
                               ArrivalProcess& arrivals,
                               BatchingPolicy& policy) {
  return simulate_one_chip<true>(cfg, arrivals, policy);
}

ServingStats simulate_requests_no_obs(const RequestSimConfig& cfg,
                                      ArrivalProcess& arrivals,
                                      BatchingPolicy& policy) {
  return simulate_one_chip<false>(cfg, arrivals, policy);
}

obs::TimelineConfig chip_timeline_config(int instances, double slo_cycles,
                                         double attainment_target,
                                         double expected_horizon_cycles) {
  obs::TimelineConfig tcfg =
      obs::default_timeline_config(instances, slo_cycles);
  tcfg.attainment_target = attainment_target;
  // A low-rate run's makespan can span tens of billions of cycles, and the
  // sink buffers every block until exit.
  if (expected_horizon_cycles > 0 && !obs::timeline_interval_overridden()) {
    tcfg.interval_cycles =
        std::max(tcfg.interval_cycles, expected_horizon_cycles / 256.0);
  }
  return tcfg;
}

}  // namespace vlacnn::serving
