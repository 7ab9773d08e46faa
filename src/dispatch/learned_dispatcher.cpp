#include "dispatch/learned_dispatcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "algos/conv_args.h"
#include "common/env.h"
#include "ml/dataset.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "report/collector.h"

namespace vlacnn::dispatch {

double default_dispatch_cycles() {
  return env_positive("VLACNN_DISPATCH_CYCLES")
      .value_or(kDefaultDispatchCyclesPerLayer);
}

namespace {

/// Index of the forest's fallback algorithm when its prediction is not
/// applicable to a layer: gemm6, the repo-wide universal fallback (see
/// SweepDriver::network_rows), by kAllAlgos position.
std::size_t gemm6_index() {
  for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
    if (kAllAlgos[a] == Algo::kGemm6) return a;
  }
  return 0;  // unreachable with the current registry
}

}  // namespace

LearnedDispatcher::LearnedDispatcher(const FlatForest* forest,
                                     LayerCycleTable table,
                                     std::vector<std::vector<float>> features,
                                     double weight_bytes,
                                     const DispatchConfig& cfg)
    : forest_(forest),
      table_(std::move(table)),
      cfg_(cfg),
      rng_(cfg.seed) {
  if (forest_ == nullptr) {
    throw std::invalid_argument("dispatch: null forest");
  }
  if (table_.empty() || features.size() != table_.size()) {
    throw std::invalid_argument(
        "dispatch: cycle table and feature vectors must cover the same "
        "non-empty layer set");
  }
  if (!(cfg_.dispatch_cycles_per_layer > 0)) {
    throw std::invalid_argument(
        "dispatch: dispatch_cycles_per_layer must be positive");
  }
  if (!(cfg_.epsilon >= 0) || cfg_.epsilon > 1) {
    throw std::invalid_argument("dispatch: epsilon must be in [0, 1]");
  }
  weight_cycles_ = weight_bytes / MemConfig{}.mem_bytes_per_cycle;

  const std::size_t layers = table_.size();
  stats_.layers = static_cast<int>(layers);
  plan_.resize(layers);
  untried_.resize(layers);

  const std::size_t fallback = gemm6_index();
  for (std::size_t l = 0; l < layers; ++l) {
    // Oracle argmin over applicable algorithms (lowest index wins ties, the
    // same order network_optimal reduces in).
    std::size_t oracle = kAllAlgos.size();
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
      const double c = table_[l][a];
      if (std::isnan(c)) continue;
      if (!(c > 0)) {
        throw std::invalid_argument("dispatch: non-positive cycles at layer " +
                                    std::to_string(l));
      }
      if (c < best) {
        best = c;
        oracle = a;
      }
    }
    if (oracle == kAllAlgos.size()) {
      throw std::invalid_argument("dispatch: layer " + std::to_string(l) +
                                  " has no applicable algorithm");
    }
    oracle_per_image_ += best;

    int predicted = forest_->predict(features[l]);
    if (predicted < 0 || static_cast<std::size_t>(predicted) >= kAllAlgos.size() ||
        std::isnan(table_[l][static_cast<std::size_t>(predicted)])) {
      predicted = static_cast<int>(
          std::isnan(table_[l][fallback]) ? oracle : fallback);
    }
    plan_[l] = predicted;

    if (static_cast<std::size_t>(predicted) != oracle) {
      ++stats_.mispredicted_layers;
      // Everything applicable except the (already observed) prediction is
      // fair game for exploration; a correctly-predicted layer is converged
      // from the start and never pays exploration cost.
      for (std::size_t a = 0; a < kAllAlgos.size(); ++a) {
        if (a == static_cast<std::size_t>(predicted)) continue;
        if (!std::isnan(table_[l][a])) {
          untried_[l].push_back(static_cast<int>(a));
        }
      }
    }
  }
}

bool LearnedDispatcher::converged() const {
  for (const auto& u : untried_) {
    if (!u.empty()) return false;
  }
  return true;
}

double LearnedDispatcher::service_cycles(int batch) {
  if (batch < 1) {
    throw std::invalid_argument("dispatch: batch must be >= 1");
  }
  ++stats_.batches;
  stats_.images += static_cast<std::uint64_t>(batch);
  last_explored_.clear();

  double per_image = 0;
  for (std::size_t l = 0; l < plan_.size(); ++l) {
    std::size_t choice = static_cast<std::size_t>(plan_[l]);
    auto& untried = untried_[l];
    if (!untried.empty() && rng_.next_float() < cfg_.epsilon) {
      // Explore one untried applicable algorithm; the whole batch pays its
      // (possibly worse) cycles — the honest cost of learning online.
      const std::size_t pick = untried.size() == 1
                                   ? 0
                                   : static_cast<std::size_t>(rng_.next_below(
                                         untried.size()));
      choice = static_cast<std::size_t>(untried[pick]);
      untried.erase(untried.begin() + static_cast<std::ptrdiff_t>(pick));
      ++stats_.explorations;
      last_explored_.emplace_back(l, choice);
      // Greedy adoption: keep the best algorithm observed so far. Ties keep
      // the incumbent, matching the oracle's lowest-index reduction only
      // once the true argmin has been observed — which is the point.
      if (table_[l][choice] < table_[l][static_cast<std::size_t>(plan_[l])]) {
        plan_[l] = static_cast<int>(choice);
      }
    }
    per_image += table_[l][choice];
  }

  const double b = static_cast<double>(batch);
  stats_.learned_conv_cycles += b * per_image;
  stats_.oracle_conv_cycles += b * oracle_per_image_;
  const double selector =
      b * static_cast<double>(stats_.layers) * cfg_.dispatch_cycles_per_layer;
  stats_.selector_cycles += selector;

  last_per_image_ = per_image;
  return serving::BatchCostModel::amortizing(per_image, weight_cycles_)
             .service_cycles(batch) +
         selector;
}

void LearnedDispatcher::trace_annotations(std::vector<obs::TraceNote>& out) {
  out.push_back({"dispatch", "learned"});
  std::string plan;
  for (std::size_t l = 0; l < plan_.size(); ++l) {
    if (!plan.empty()) plan += ',';
    plan += to_string(kAllAlgos[static_cast<std::size_t>(plan_[l])]);
  }
  out.push_back({"plan", std::move(plan)});
  std::string explored;
  for (const auto& [l, a] : last_explored_) {
    if (!explored.empty()) explored += ',';
    explored += "conv" + std::to_string(l + 1) + ':' + to_string(kAllAlgos[a]);
  }
  out.push_back({"explore", explored.empty() ? "none" : std::move(explored)});
  out.push_back({"converged", converged() ? "true" : "false"});
  out.push_back({"conv_cycles_per_image", obs::g17(last_per_image_)});
  out.push_back({"oracle_cycles_per_image", obs::g17(oracle_per_image_)});
  out.push_back(
      {"selector_cycles_per_image",
       obs::g17(static_cast<double>(stats_.layers) *
                cfg_.dispatch_cycles_per_layer)});
}

std::unique_ptr<serving::ServiceModel> LearnedDispatcher::clone() const {
  return std::make_unique<LearnedDispatcher>(*this);
}

namespace {

/// Factory-built wrapper: forwards service_cycles to the dispatcher, keeps
/// its forest alive, and publishes the final stats to obs metrics and the
/// report collector for each grid point its simulation served. The planner
/// publishes in grid order on one thread, so the last-gap gauge ends on the
/// last grid point's gap at any pool size.
class ReportingLearnedModel final : public serving::ServiceModel {
 public:
  ReportingLearnedModel(LearnedDispatcher d,
                        std::shared_ptr<const FlatForest> forest,
                        std::string net)
      : d_(std::move(d)), forest_(std::move(forest)), net_(std::move(net)) {}

  double service_cycles(int batch) override {
    return d_.service_cycles(batch);
  }

  void trace_annotations(std::vector<obs::TraceNote>& out) override {
    d_.trace_annotations(out);
  }

  std::unique_ptr<serving::ServiceModel> clone() const override {
    return std::make_unique<ReportingLearnedModel>(*this);
  }

  void publish(const ServingPoint& point) const override {
    const DispatchStats& s = d_.stats();
    if (obs::metrics_enabled()) {
      auto& reg = obs::Registry::global();
      reg.counter("dispatch.batches").add(s.batches);
      reg.counter("dispatch.images").add(s.images);
      reg.counter("dispatch.explorations").add(s.explorations);
      reg.counter("dispatch.mispredicted_layers")
          .add(static_cast<std::uint64_t>(s.mispredicted_layers));
      // Distribution of per-point gaps in basis points; the float gauge
      // keeps the last published point's exact gap.
      reg.histogram("dispatch.oracle_gap_bp")
          .observe(static_cast<std::uint64_t>(
              std::llround(std::max(s.oracle_gap(), 0.0) * 1e4)));
      reg.float_gauge("dispatch.last_oracle_gap").set(s.oracle_gap());
    }
    if (report::enabled()) {
      report::Json cell;
      cell.add("net", net_)
          .add("cores", point.cores)
          .add("vlen_bits", point.vlen_bits)
          .add("l2_total_bytes", point.l2_total_bytes)
          .add("instances", point.instances)
          .add("layers", s.layers)
          .add("mispredicted_layers", s.mispredicted_layers)
          .add("batches", s.batches)
          .add("images", s.images)
          .add("explorations", s.explorations)
          .add("learned_conv_cycles", s.learned_conv_cycles)
          .add("oracle_conv_cycles", s.oracle_conv_cycles)
          .add("selector_cycles", s.selector_cycles)
          .add("oracle_gap", s.oracle_gap());
      report::Collector::global().record(report::Section::kDispatch,
                                         {std::move(cell)});
    }
  }

 private:
  LearnedDispatcher d_;
  std::shared_ptr<const FlatForest> forest_;  ///< keeps d_'s forest alive
  std::string net_;
};

}  // namespace

serving::ServiceModelFactory learned_service_factory(
    std::shared_ptr<const FlatForest> forest, SweepDriver* driver,
    const Network& net, const DispatchConfig& cfg) {
  if (forest == nullptr || driver == nullptr) {
    throw std::invalid_argument(
        "dispatch: factory needs a forest and a driver");
  }
  const double weight_bytes = serving::conv_weight_bytes(net);
  // The Network is copied into the closure: grid evaluation outlives many a
  // caller-scope Network, and the copy is a handful of layer descriptors.
  return [forest = std::move(forest), driver, net, weight_bytes, cfg](
             std::uint32_t vlen_bits, std::uint64_t l2_slice)
             -> std::unique_ptr<serving::ServiceModel> {
    LayerCycleTable table = driver->layer_algo_cycles(net, vlen_bits, l2_slice);
    const auto descs = net.conv_descs();
    std::vector<std::vector<float>> features;
    features.reserve(descs.size());
    for (const ConvLayerDesc& d : descs) {
      features.push_back(selection_features(vlen_bits, l2_slice, d));
    }
    return std::make_unique<ReportingLearnedModel>(
        LearnedDispatcher(forest.get(), std::move(table), std::move(features),
                          weight_bytes, cfg),
        forest, net.name());
  };
}

}  // namespace vlacnn::dispatch
