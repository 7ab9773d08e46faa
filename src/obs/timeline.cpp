#include "obs/timeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/json_util.h"

namespace vlacnn::obs {

// -- env knobs ----------------------------------------------------------------

namespace {

std::mutex g_knob_mu;
bool g_path_parsed = false;
std::string g_path;
// -1 = not yet parsed; 0/1 mirror g_path.empty() for the lock-free gate.
std::atomic<int> g_enabled{-1};

bool g_interval_parsed = false;
double g_interval = 1e6;
bool g_interval_overridden = false;

double parse_interval_env() {
  const char* v = std::getenv("VLACNN_TIMELINE_INTERVAL");
  if (v == nullptr || *v == '\0') return 1e6;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(d) || !(d > 0)) {
    throw std::runtime_error("VLACNN_TIMELINE_INTERVAL: expected a positive "
                             "cycle count, got '" + std::string(v) + "'");
  }
  g_interval_overridden = true;
  return d;
}

}  // namespace

bool timeline_enabled() {
  int e = g_enabled.load(std::memory_order_relaxed);
  if (e < 0) {
    std::lock_guard<std::mutex> lk(g_knob_mu);
    if (!g_path_parsed) {
      const char* v = std::getenv("VLACNN_TIMELINE");
      g_path = v == nullptr ? "" : v;
      g_path_parsed = true;
    }
    e = g_path.empty() ? 0 : 1;
    g_enabled.store(e, std::memory_order_relaxed);
  }
  return e != 0;
}

std::string timeline_path() {
  timeline_enabled();  // force the one-time env parse
  std::lock_guard<std::mutex> lk(g_knob_mu);
  return g_path;
}

void set_timeline_path(const std::string& path) {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_path = path;
  g_path_parsed = true;
  g_enabled.store(path.empty() ? 0 : 1, std::memory_order_relaxed);
}

double timeline_interval_cycles() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_interval_parsed) {
    g_interval = parse_interval_env();
    g_interval_parsed = true;
  }
  return g_interval;
}

void set_timeline_interval_cycles(double cycles) {
  if (!std::isfinite(cycles) || !(cycles > 0)) {
    throw std::invalid_argument(
        "set_timeline_interval_cycles: interval must be positive");
  }
  std::lock_guard<std::mutex> lk(g_knob_mu);
  g_interval = cycles;
  g_interval_parsed = true;
  g_interval_overridden = true;
}

bool timeline_interval_overridden() {
  std::lock_guard<std::mutex> lk(g_knob_mu);
  if (!g_interval_parsed) {
    g_interval = parse_interval_env();
    g_interval_parsed = true;
  }
  return g_interval_overridden;
}

// -- JSON lines ---------------------------------------------------------------

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

std::string TimelineSnapshot::to_json() const {
  std::string out = "{\"type\":\"snapshot\"";
  append_kv(out, "t_start", t_start);
  append_kv(out, "t_end", t_end);
  append_kv(out, "arrivals", arrivals);
  append_kv(out, "drops", drops);
  append_kv(out, "dispatches", dispatches);
  append_kv(out, "completions", completions);
  append_kv(out, "queue_depth", queue_depth);
  append_kv(out, "in_flight", in_flight);
  append_kv(out, "mean_queue", mean_queue);
  append_kv(out, "utilization", utilization);
  append_kv(out, "arrival_rate", arrival_rate);
  append_kv(out, "completion_rate", completion_rate);
  append_kv(out, "rolling_p99", rolling_p99);
  append_kv(out, "rolling_count", rolling_count);
  append_kv(out, "burn_short", burn_short);
  append_kv(out, "burn_long", burn_long);
  append_kv(out, "alert", alert);
  append_kv(out, "cum_offered", cum_offered);
  append_kv(out, "cum_completed", cum_completed);
  append_kv(out, "cum_dropped", cum_dropped);
  out += '}';
  return out;
}

std::string TimelineAlert::to_json() const {
  std::string out = raised ? "{\"type\":\"alert\"" : "{\"type\":\"clear\"";
  append_kv(out, "t", t);
  append_kv(out, "burn_rate", burn_rate);
  out += '}';
  return out;
}

// -- recorder -----------------------------------------------------------------

TimelineRecorder::TimelineRecorder(const TimelineConfig& cfg)
    : cfg_(cfg), rolling_(std::max<std::size_t>(cfg.rolling_window, 1),
                          cfg.sketch_relative_error) {
  if (!std::isfinite(cfg.interval_cycles) || !(cfg.interval_cycles > 0)) {
    throw std::invalid_argument("TimelineRecorder: interval must be positive");
  }
  if (cfg.rolling_window == 0) {
    throw std::invalid_argument("TimelineRecorder: rolling_window must be >= 1");
  }
  if (cfg.instances < 1) {
    throw std::invalid_argument("TimelineRecorder: instances must be >= 1");
  }
}

void TimelineRecorder::integrate_to(double t) {
  const double dt = t - now_;
  if (dt > 0) {
    iv_queue_area_ += static_cast<double>(queue_depth_) * dt;
    iv_busy_area_ += static_cast<double>(in_flight_) * dt;
    now_ = t;
  }
}

void TimelineRecorder::advance(double t) {
  while (interval_start_ + cfg_.interval_cycles <= t) {
    const double boundary = interval_start_ + cfg_.interval_cycles;
    integrate_to(boundary);
    close_interval(boundary, /*final_flush=*/false);
  }
  integrate_to(t);
}

void TimelineRecorder::close_interval(double boundary, bool final_flush) {
  const double dt = boundary - interval_start_;
  // A run whose makespan lands exactly on a boundary leaves a zero-width
  // trailing interval. Skip it only when it is empty: boundary events are
  // applied *after* advance() closes the preceding interval, so e.g. a
  // completion exactly at the makespan lives here and must still be flushed
  // (as a zero-width snapshot) or the cumulative counts would undercount.
  const bool pending = iv_arrivals_ != 0 || iv_drops_ != 0 ||
                       iv_dispatches_ != 0 || iv_completions_ != 0 ||
                       iv_resolved_ != 0;
  if (final_flush && !(dt > 0) && !pending && !snapshots_.empty()) return;

  TimelineSnapshot s;
  s.t_start = interval_start_;
  s.t_end = boundary;
  s.arrivals = iv_arrivals_;
  s.drops = iv_drops_;
  s.dispatches = iv_dispatches_;
  s.completions = iv_completions_;
  s.queue_depth = queue_depth_;
  s.in_flight = in_flight_;
  if (dt > 0) {
    s.mean_queue = iv_queue_area_ / dt;
    s.utilization =
        iv_busy_area_ / (static_cast<double>(cfg_.instances) * dt);
    s.arrival_rate = static_cast<double>(iv_arrivals_) / dt;
    s.completion_rate = static_cast<double>(iv_completions_) / dt;
  }

  // Burn rates: this interval alone (short) and the rolling window (long).
  const double budget = 1.0 - cfg_.attainment_target;
  const bool burn_on = cfg_.slo_cycles > 0 && budget > 0;
  if (burn_on && iv_resolved_ > 0) {
    s.burn_short = (static_cast<double>(iv_missed_) /
                    static_cast<double>(iv_resolved_)) / budget;
  }
  burn_window_.emplace_back(iv_resolved_, iv_missed_);
  while (burn_window_.size() > cfg_.rolling_window) burn_window_.pop_front();
  std::uint64_t win_resolved = 0, win_missed = 0;
  for (const auto& [r, m] : burn_window_) {
    win_resolved += r;
    win_missed += m;
  }
  if (burn_on && win_resolved > 0) {
    s.burn_long = (static_cast<double>(win_missed) /
                   static_cast<double>(win_resolved)) / budget;
  }

  // Rolling p99 includes this interval's still-open sketch; roll after.
  s.rolling_p99 = rolling_.quantile(0.99);
  s.rolling_count = rolling_.count();
  rolling_.roll();

  const bool above = burn_on && s.burn_long >= cfg_.alert_threshold;
  if (above != alerting_) {
    alerting_ = above;
    TimelineAlert a;
    a.t = boundary;
    a.raised = above;
    a.burn_rate = s.burn_long;
    alerts_.push_back(a);
  }
  s.alert = alerting_;

  s.cum_offered = cum_offered_;
  s.cum_completed = cum_completed_;
  s.cum_dropped = cum_dropped_;
  snapshots_.push_back(s);

  iv_arrivals_ = iv_drops_ = iv_dispatches_ = iv_completions_ = 0;
  iv_resolved_ = iv_missed_ = 0;
  iv_queue_area_ = iv_busy_area_ = 0;
  interval_start_ = boundary;
}

void TimelineRecorder::on_arrival(double t) {
  advance(t);
  ++iv_arrivals_;
  ++cum_offered_;
  ++queue_depth_;
}

void TimelineRecorder::on_drop(double t) {
  advance(t);
  ++iv_drops_;
  ++cum_offered_;
  ++cum_dropped_;
  ++iv_resolved_;
  ++iv_missed_;  // a dropped request always misses its SLO
}

void TimelineRecorder::on_dispatch(double t, int batch) {
  advance(t);
  ++iv_dispatches_;
  const std::uint64_t b = batch > 0 ? static_cast<std::uint64_t>(batch) : 0;
  queue_depth_ = queue_depth_ >= b ? queue_depth_ - b : 0;
  ++in_flight_;
}

void TimelineRecorder::on_completion(double t, double latency_cycles,
                                     bool within_slo) {
  advance(t);
  ++iv_completions_;
  ++cum_completed_;
  ++iv_resolved_;
  if (!within_slo) ++iv_missed_;
  rolling_.observe(latency_cycles);
}

void TimelineRecorder::on_batch_done(double t) {
  advance(t);
  if (in_flight_ > 0) --in_flight_;
}

void TimelineRecorder::finish(double t) {
  if (finished_) return;
  finished_ = true;
  advance(t);
  close_interval(now_, /*final_flush=*/true);
}

std::string TimelineRecorder::to_jsonl() const {
  std::string out = "{\"type\":\"header\"";
  append_kv(out, "interval_cycles", cfg_.interval_cycles);
  append_kv(out, "rolling_window",
            static_cast<std::uint64_t>(cfg_.rolling_window));
  append_kv(out, "sketch_relative_error", cfg_.sketch_relative_error);
  append_kv(out, "slo_cycles", cfg_.slo_cycles);
  append_kv(out, "attainment_target", cfg_.attainment_target);
  append_kv(out, "alert_threshold", cfg_.alert_threshold);
  append_kv(out, "instances", cfg_.instances);
  out += "}\n";
  std::size_t ai = 0;
  for (const TimelineSnapshot& s : snapshots_) {
    out += s.to_json();
    out += '\n';
    // Alerts fire at interval boundaries, so each belongs right after the
    // snapshot whose close tripped it.
    while (ai < alerts_.size() && alerts_[ai].t <= s.t_end) {
      out += alerts_[ai].to_json();
      out += '\n';
      ++ai;
    }
  }
  for (; ai < alerts_.size(); ++ai) {
    out += alerts_[ai].to_json();
    out += '\n';
  }
  return out;
}

TimelineConfig default_timeline_config(int instances, double slo_cycles) {
  TimelineConfig cfg;
  cfg.interval_cycles = timeline_interval_cycles();
  cfg.instances = instances < 1 ? 1 : instances;
  cfg.slo_cycles = slo_cycles;
  return cfg;
}

// -- steady-state analysis ----------------------------------------------------

TimelineAnalysis analyze_timeline(const std::vector<TimelineSnapshot>& snaps,
                                  const std::vector<TimelineAlert>& alerts,
                                  double tolerance) {
  TimelineAnalysis a;
  if (snaps.empty()) return a;
  a.final_rolling_p99 = snaps.back().rolling_p99;

  // Warm-up: the rolling p99 is still filling in until it lands within
  // `tolerance` (relative) of its final value.
  std::size_t start = 0;
  if (a.final_rolling_p99 > 0) {
    while (start + 1 < snaps.size() &&
           std::fabs(snaps[start].rolling_p99 - a.final_rolling_p99) >
               tolerance * a.final_rolling_p99) {
      ++start;
    }
  }
  a.warmup_snapshots = start;
  a.warmup_end_cycles = start > 0 ? snaps[start - 1].t_end
                                  : snaps.front().t_start;

  double tw = 0, arr = 0, comp = 0, util = 0, mq = 0;
  for (std::size_t i = start; i < snaps.size(); ++i) {
    const TimelineSnapshot& s = snaps[i];
    const double dt = s.t_end - s.t_start;
    if (dt <= 0) continue;
    tw += dt;
    arr += s.arrival_rate * dt;
    comp += s.completion_rate * dt;
    util += s.utilization * dt;
    mq += s.mean_queue * dt;
  }
  if (tw > 0) {
    a.steady_arrival_rate = arr / tw;
    a.steady_completion_rate = comp / tw;
    a.steady_utilization = util / tw;
    a.steady_mean_queue = mq / tw;
  }

  for (const TimelineSnapshot& s : snaps) {
    a.max_burn_rate = std::max(a.max_burn_rate, s.burn_long);
    a.max_burn_rate = std::max(a.max_burn_rate, s.burn_short);
  }

  // Alert time: raise..clear spans; an unclosed raise runs to the last
  // snapshot boundary.
  double raised_at = 0;
  bool open = false;
  for (const TimelineAlert& al : alerts) {
    if (al.raised) {
      ++a.alert_count;
      if (!open) {
        open = true;
        raised_at = al.t;
      }
    } else if (open) {
      open = false;
      a.time_in_alert_cycles += al.t - raised_at;
    }
  }
  if (open) a.time_in_alert_cycles += snaps.back().t_end - raised_at;
  return a;
}

// -- sink ---------------------------------------------------------------------

TimelineSink& TimelineSink::global() {
  static TimelineSink sink;
  return sink;
}

void TimelineSink::record(const std::string& label, std::string jsonl) {
  arm_timeline_exit_write();
  std::lock_guard<std::mutex> lk(mu_);
  blocks_[label] = std::move(jsonl);
}

std::string TimelineSink::next_auto_label() {
  std::lock_guard<std::mutex> lk(mu_);
  char buf[24];
  std::snprintf(buf, sizeof buf, "run%06llu",
                static_cast<unsigned long long>(++auto_seq_));
  return buf;
}

std::string TimelineSink::write_file() {
  const std::string path = timeline_path();
  if (path.empty()) {
    throw std::runtime_error(
        "TimelineSink::write_file: no output path (set VLACNN_TIMELINE)");
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
  write_text_file(path, out, "TimelineSink::write_file");
  return path;
}

std::size_t TimelineSink::block_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

void TimelineSink::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  blocks_.clear();
  auto_seq_ = 0;
}

void arm_timeline_exit_write() {
  static std::once_flag once;
  std::call_once(once, [] {
    TimelineSink::global();  // outlive any static that records during exit
    std::atexit([] {
      TimelineSink& sink = TimelineSink::global();
      if (sink.block_count() == 0 || !timeline_enabled()) return;
      try {
        sink.write_file();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "vlacnn: timeline write failed: %s\n", e.what());
      }
    });
  });
}

}  // namespace vlacnn::obs
