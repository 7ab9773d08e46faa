#include "core/conv_engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace vlacnn {

ConvEngine::ConvEngine(VpuConfig vpu, std::uint64_t l2_bytes)
    : vpu_(vpu), l2_bytes_(l2_bytes) {
  validate(vpu_);
}

Algo ConvEngine::choose(const ConvLayerDesc& desc) const {
  return HeuristicSelector().select(desc, vpu_.vlen_bits, l2_bytes_);
}

Tensor ConvEngine::run(const ConvLayerDesc& desc, const Tensor& input,
                       const std::vector<float>& weights_oihw,
                       std::optional<Algo> algo) const {
  const Algo a = algo.value_or(choose(desc));
  obs::Span span("engine.run");
  if (span.active()) span.arg("algo", to_string(a));
  if (obs::metrics_enabled()) {
    static obs::Counter& runs = obs::Registry::global().counter("engine.runs");
    runs.add();
  }
  return conv_functional(a, desc, input, weights_oihw, vpu_);
}

TimingStats ConvEngine::estimate(const ConvLayerDesc& desc, Algo algo) const {
  obs::Span span("engine.estimate");
  if (span.active()) span.arg("algo", to_string(algo));
  if (obs::metrics_enabled()) {
    static obs::Counter& estimates =
        obs::Registry::global().counter("engine.estimates");
    estimates.add();
  }
  SimConfig config = make_sim_config(vpu_.vlen_bits, l2_bytes_, vpu_.lanes,
                                     vpu_.attach);
  return conv_simulate(algo, desc, config);
}

}  // namespace vlacnn
