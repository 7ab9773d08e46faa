#include "serving/serving.h"

#include <stdexcept>

#include "common/thread_pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/collector.h"

namespace vlacnn {

namespace {

bool is_pow2_u64(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

bool ServingPoint::feasible() const {
  if (instances < 1 || instances > cores) return false;
  if (l2_total_bytes % static_cast<std::uint64_t>(instances) != 0) return false;
  const std::uint64_t slice = l2_slice_bytes();
  return slice >= (1u << 20) && is_pow2_u64(slice);
}

ServingEval ServingSimulator::evaluate(const Network& net,
                                       const ServingPoint& point,
                                       std::optional<Algo> fixed) const {
  if (!point.feasible()) {
    throw std::invalid_argument("serving: infeasible configuration");
  }
  obs::Span span("serving.evaluate");
  if (span.active()) {
    span.arg("cores", std::to_string(point.cores));
    span.arg("vlen", std::to_string(point.vlen_bits));
    span.arg("l2_total", std::to_string(point.l2_total_bytes));
    span.arg("instances", std::to_string(point.instances));
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& points =
        obs::Registry::global().counter("serving.points_evaluated");
    points.add();
  }
  const std::uint64_t slice = point.l2_slice_bytes();
  double cycles = 0;
  if (fixed.has_value()) {
    cycles = driver_->network_cycles(net, *fixed, point.vlen_bits, slice);
  } else {
    cycles = driver_->network_optimal(net, point.vlen_bits, slice).cycles;
  }
  ServingEval e;
  e.point = point;
  e.cycles_per_image = cycles;
  e.images_per_cycle = static_cast<double>(point.instances) / cycles;
  e.area_mm2 =
      area_.chip_mm2(point.vlen_bits, point.l2_total_bytes, point.cores);
  if (report::enabled()) {
    report::Collector::global().record(
        report::Section::kServing, {report::Json()
                                        .add("cores", point.cores)
                                        .add("vlen_bits", point.vlen_bits)
                                        .add("l2_total_bytes",
                                             point.l2_total_bytes)
                                        .add("instances", point.instances)
                                        .add("cycles_per_image",
                                             e.cycles_per_image)
                                        .add("images_per_cycle",
                                             e.images_per_cycle)
                                        .add("area_mm2", e.area_mm2)});
  }
  return e;
}

std::vector<ServingPoint> ServingSimulator::grid_points() {
  std::vector<ServingPoint> points;
  const int core_counts[] = {1, 4, 16, 64};
  const std::uint64_t l2_sizes[] = {1ull << 20, 4ull << 20, 16ull << 20,
                                    64ull << 20, 256ull << 20};
  for (int cores : core_counts) {
    for (std::uint32_t vlen : paper2_vlens()) {
      for (std::uint64_t l2 : l2_sizes) {
        for (int instances : core_counts) {
          ServingPoint p{cores, vlen, l2, instances};
          if (p.feasible()) points.push_back(p);
        }
      }
    }
  }
  return points;
}

std::vector<ServingEval> ServingSimulator::grid(const Network& net,
                                                std::optional<Algo> fixed) const {
  // Evaluate one pool task per feasible point. Each slot is written by
  // exactly one task, so the output order (and every number in it) matches
  // the serial nested-loop order bit for bit; the ResultsDb deduplicates the
  // many points that share (vlen, slice) sweeps.
  const std::vector<ServingPoint> points = grid_points();
  obs::Span span("serving.grid");
  if (span.active()) {
    span.arg("net", net.name());
    span.arg("points", std::to_string(points.size()));
  }
  obs::log(obs::LogLevel::kInfo, "serving", "grid",
           {{"net", net.name()}, {"points", std::to_string(points.size())}});
  std::vector<ServingEval> out(points.size());
  ThreadPool::shared().parallel_for(points.size(), [&](std::size_t i) {
    out[i] = evaluate(net, points[i], fixed);
  });
  return out;
}

}  // namespace vlacnn
