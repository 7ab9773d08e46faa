#include "serving/serving.h"

#include <map>
#include <stdexcept>
#include <tuple>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/collector.h"

namespace vlacnn {

namespace {

bool is_pow2_u64(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

void require_feasible(const ServingPoint& point) {
  if (!point.feasible()) {
    throw std::invalid_argument("serving: infeasible configuration");
  }
}

}  // namespace

bool ServingPoint::feasible() const {
  if (instances < 1 || instances > cores) return false;
  if (l2_total_bytes % static_cast<std::uint64_t>(instances) != 0) return false;
  const std::uint64_t slice = l2_slice_bytes();
  return slice >= (1u << 20) && is_pow2_u64(slice);
}

double instance_cycles(SweepDriver& driver, const Network& net,
                       std::uint32_t vlen_bits, std::uint64_t l2_slice_bytes,
                       std::optional<Algo> fixed) {
  if (fixed.has_value()) {
    return driver.network_cycles(net, *fixed, vlen_bits, l2_slice_bytes);
  }
  return driver.network_optimal(net, vlen_bits, l2_slice_bytes).cycles;
}

PointGroups group_points(const std::vector<ServingPoint>& points,
                         bool by_instances) {
  std::map<std::tuple<std::uint32_t, std::uint64_t, int>, std::size_t> ids;
  PointGroups g;
  g.group.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ServingPoint& p = points[i];
    const auto [it, added] = ids.try_emplace(
        {p.vlen_bits, p.l2_slice_bytes(), by_instances ? p.instances : 0},
        g.first.size());
    if (added) g.first.push_back(i);
    g.group.push_back(it->second);
  }
  return g;
}

std::vector<double> instance_cycles(SweepDriver& driver, const Network& net,
                                    const std::vector<ServingPoint>& points,
                                    std::optional<Algo> fixed) {
  const PointGroups g = group_points(points, false);
  std::vector<double> per_group;
  per_group.reserve(g.first.size());
  for (std::size_t i : g.first) {
    per_group.push_back(instance_cycles(driver, net, points[i].vlen_bits,
                                        points[i].l2_slice_bytes(), fixed));
  }
  std::vector<double> out;
  out.reserve(points.size());
  for (std::size_t k : g.group) out.push_back(per_group[k]);
  return out;
}

ServingEval ServingSimulator::evaluate(const Network& net,
                                       const ServingPoint& point,
                                       std::optional<Algo> fixed) const {
  require_feasible(point);
  return evaluate(point, instance_cycles(*driver_, net, point.vlen_bits,
                                         point.l2_slice_bytes(), fixed));
}

ServingEval ServingSimulator::evaluate(const ServingPoint& point,
                                       double cycles_per_image) const {
  require_feasible(point);
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
  ServingEval e;
  e.point = point;
  e.cycles_per_image = cycles_per_image;
  e.images_per_cycle = static_cast<double>(point.instances) / cycles_per_image;
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
  const std::vector<ServingPoint> points = grid_points();
  obs::Span span("serving.grid");
  if (span.active()) {
    span.arg("net", net.name());
    span.arg("points", std::to_string(points.size()));
  }
  obs::log(obs::LogLevel::kInfo, "serving", "grid",
           {{"net", net.name()}, {"points", std::to_string(points.size())}});
  const std::vector<double> cycles = instance_cycles(*driver_, net, points,
                                                     fixed);
  std::vector<ServingEval> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.push_back(evaluate(points[i], cycles[i]));
  }
  return out;
}

}  // namespace vlacnn
