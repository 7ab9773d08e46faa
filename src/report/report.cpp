#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "obs/json_util.h"
#include "report/json.h"

namespace vlacnn::report {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const char* attach_str(VpuAttach a) {
  return a == VpuAttach::kIntegratedL1 ? "int" : "dec";
}

VpuAttach attach_from(const std::string& s) {
  if (s == "int") return VpuAttach::kIntegratedL1;
  if (s == "dec") return VpuAttach::kDecoupledL2;
  throw std::runtime_error("report: bad attach '" + s + "'");
}

double num_at(const Json& obj, const std::string& key) {
  const Json& v = obj.at(key);
  if (v.type != Json::Type::kNumber) {
    throw std::runtime_error("report: key \"" + key + "\" is not a number");
  }
  return v.number;
}

int int_at(const Json& obj, const std::string& key) {
  return static_cast<int>(num_at(obj, key));
}

const std::string& str_at(const Json& obj, const std::string& key) {
  const Json& v = obj.at(key);
  if (v.type != Json::Type::kString) {
    throw std::runtime_error("report: key \"" + key + "\" is not a string");
  }
  return v.string;
}

}  // namespace

const char* to_string(Bound b) {
  switch (b) {
    case Bound::kCompute: return "compute";
    case Bound::kBandwidth: return "bandwidth";
    case Bound::kDegenerate: return "degenerate";
  }
  return "degenerate";
}

Bound bound_from_string(const std::string& s) {
  if (s == "compute") return Bound::kCompute;
  if (s == "bandwidth") return Bound::kBandwidth;
  if (s == "degenerate") return Bound::kDegenerate;
  throw std::runtime_error("report: bad bound '" + s + "'");
}

Attribution attribute(const SweepRow& row, const RooflineParams& p) {
  Attribution a;
  const double lanes = static_cast<double>(row.key.lanes);
  const double peak = p.peak_flops_per_cycle(row.key.lanes);
  const bool zero_cycles = !(row.cycles > 0);
  const bool zero_bytes = !(row.mem_bytes > 0);

  if (row.has_breakdown) {
    a.vec_utilization =
        zero_cycles ? 0.0 : row.bd.vec_elems / (lanes * row.cycles);
    a.l1_miss_rate =
        row.bd.l1_accesses > 0 ? row.bd.l1_misses / row.bd.l1_accesses : kNaN;
    a.l2_miss_rate =
        row.bd.l2_accesses > 0 ? row.bd.l2_misses / row.bd.l2_accesses : kNaN;
  } else {
    a.vec_utilization = kNaN;
    a.l1_miss_rate = kNaN;
    a.l2_miss_rate = kNaN;
  }

  // Degenerate inputs are clamped here, once, so every emitter downstream
  // sees either a finite number or a deliberate inf/NaN paired with a label.
  a.arith_intensity =
      zero_bytes ? (row.flops > 0 ? kInf : 0.0) : row.flops / row.mem_bytes;
  a.achieved_flops_per_cycle = zero_cycles ? 0.0 : row.flops / row.cycles;
  a.attainable_flops_per_cycle =
      std::isinf(a.arith_intensity)
          ? peak
          : std::min(peak, a.arith_intensity * p.mem_bytes_per_cycle);
  a.roofline_efficiency =
      a.attainable_flops_per_cycle > 0
          ? a.achieved_flops_per_cycle / a.attainable_flops_per_cycle
          : 0.0;

  if (zero_cycles) {
    a.bound = Bound::kDegenerate;
    a.degenerate = "zero_cycles";
  } else {
    a.bound = a.arith_intensity >= p.ridge(row.key.lanes) ? Bound::kCompute
                                                          : Bound::kBandwidth;
    if (zero_bytes) {
      a.degenerate = "zero_dram_bytes";
    } else if (!row.has_breakdown) {
      a.degenerate = "missing_breakdown";
    }
  }
  return a;
}

std::string entry_key(const SweepKey& k) {
  char layer[8];
  std::snprintf(layer, sizeof layer, "L%02d", k.layer);
  return k.net + "/" + layer + "/" + to_string(k.algo) + "/vlen" +
         std::to_string(k.vlen_bits) + "/l2:" + std::to_string(k.l2_bytes) +
         "/lanes" + std::to_string(k.lanes) + "/" + attach_str(k.attach);
}

double RunReport::total_cycles() const {
  double total = 0;
  for (const ReportEntry& e : entries) total += e.row.cycles;
  return total;
}

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(4096 + entries.size() * 1024);
  out += "{\n";
  out += "  \"schema\": \"vlacnn.report.v1\",\n";
  out += "  \"tool\": " + json_quote(tool) + ",\n";
  out += "  \"wall_ms\": " + json_number(wall_ms) + ",\n";
  out += "  \"roofline\": {\"flops_per_lane_per_cycle\": " +
         json_number(roofline.flops_per_lane_per_cycle) +
         ", \"mem_bytes_per_cycle\": " +
         json_number(roofline.mem_bytes_per_cycle) + "},\n";
  out += "  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SweepRow& r = entries[i].row;
    const Attribution& a = entries[i].attr;
    out += i ? ",\n    {" : "\n    {";
    out += "\"key\": " + json_quote(entry_key(r.key));
    out += ", \"net\": " + json_quote(r.key.net);
    out += ", \"layer\": " + std::to_string(r.key.layer);
    out += ", \"algo\": " + json_quote(to_string(r.key.algo));
    out += ", \"vlen_bits\": " + std::to_string(r.key.vlen_bits);
    out += ", \"l2_bytes\": " + std::to_string(r.key.l2_bytes);
    out += ", \"lanes\": " + std::to_string(r.key.lanes);
    out += ", \"attach\": " + json_quote(attach_str(r.key.attach));
    out += ",\n     \"desc\": {\"ic\": " + std::to_string(r.desc.ic) +
           ", \"ih\": " + std::to_string(r.desc.ih) +
           ", \"iw\": " + std::to_string(r.desc.iw) +
           ", \"oc\": " + std::to_string(r.desc.oc) +
           ", \"kh\": " + std::to_string(r.desc.kh) +
           ", \"kw\": " + std::to_string(r.desc.kw) +
           ", \"stride\": " + std::to_string(r.desc.stride) +
           ", \"pad\": " + std::to_string(r.desc.pad) + "}";
    out += ",\n     \"cycles\": " + json_number(r.cycles);
    out += ", \"avg_vl\": " + json_number(r.avg_vl);
    out += ", \"l2_miss_rate\": " + json_number(r.l2_miss_rate);
    out += ", \"mem_bytes\": " + json_number(r.mem_bytes);
    out += ", \"flops\": " + json_number(r.flops);
    if (r.has_breakdown) {
      out += ",\n     \"breakdown\": {\"compute_cycles\": " +
             json_number(r.bd.compute_cycles) +
             ", \"mem_issue_cycles\": " + json_number(r.bd.mem_issue_cycles) +
             ", \"mem_stall_cycles\": " + json_number(r.bd.mem_stall_cycles) +
             ", \"scalar_cycles\": " + json_number(r.bd.scalar_cycles) +
             ", \"vec_instructions\": " + json_number(r.bd.vec_instructions) +
             ", \"vec_elems\": " + json_number(r.bd.vec_elems) +
             ", \"l1_accesses\": " + json_number(r.bd.l1_accesses) +
             ", \"l1_misses\": " + json_number(r.bd.l1_misses) +
             ", \"l2_accesses\": " + json_number(r.bd.l2_accesses) +
             ", \"l2_misses\": " + json_number(r.bd.l2_misses) + "}";
    } else {
      out += ",\n     \"breakdown\": null";
    }
    out += ",\n     \"attribution\": {\"vec_utilization\": " +
           json_number(a.vec_utilization) +
           ", \"arith_intensity\": " + json_number(a.arith_intensity) +
           ", \"achieved_flops_per_cycle\": " +
           json_number(a.achieved_flops_per_cycle) +
           ", \"attainable_flops_per_cycle\": " +
           json_number(a.attainable_flops_per_cycle) +
           ", \"roofline_efficiency\": " + json_number(a.roofline_efficiency) +
           ", \"l1_miss_rate\": " + json_number(a.l1_miss_rate) +
           ", \"l2_miss_rate\": " + json_number(a.l2_miss_rate) +
           ", \"bound\": " + json_quote(to_string(a.bound)) +
           ", \"degenerate\": " + json_quote(a.degenerate) + "}";
    out += "}";
  }
  out += entries.empty() ? "],\n" : "\n  ],\n";
  out += "  \"serving\": [";
  for (std::size_t i = 0; i < serving.size(); ++i) {
    const ServingCell& c = serving[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"cores\": " + std::to_string(c.cores);
    out += ", \"vlen_bits\": " + std::to_string(c.vlen_bits);
    out += ", \"l2_total_bytes\": " + std::to_string(c.l2_total_bytes);
    out += ", \"instances\": " + std::to_string(c.instances);
    out += ", \"cycles_per_image\": " + json_number(c.cycles_per_image);
    out += ", \"images_per_cycle\": " + json_number(c.images_per_cycle);
    out += ", \"area_mm2\": " + json_number(c.area_mm2) + "}";
  }
  out += serving.empty() ? "],\n" : "\n  ],\n";
  out += "  \"request_sim\": [";
  for (std::size_t i = 0; i < request_sim.size(); ++i) {
    const RequestSimCell& c = request_sim[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"cores\": " + std::to_string(c.cores);
    out += ", \"vlen_bits\": " + std::to_string(c.vlen_bits);
    out += ", \"l2_total_bytes\": " + std::to_string(c.l2_total_bytes);
    out += ", \"instances\": " + std::to_string(c.instances);
    out += ", \"policy\": " + json_quote(c.policy);
    out += ", \"arrivals\": " + json_quote(c.arrivals);
    out += ",\n     \"load_rps\": " + json_number(c.load_rps);
    out += ", \"slo_cycles\": " + json_number(c.slo_cycles);
    out += ", \"offered\": " + std::to_string(c.offered);
    out += ", \"completed\": " + std::to_string(c.completed);
    out += ", \"dropped\": " + std::to_string(c.dropped);
    out += ",\n     \"p50\": " + json_number(c.p50);
    out += ", \"p95\": " + json_number(c.p95);
    out += ", \"p99\": " + json_number(c.p99);
    out += ", \"p999\": " + json_number(c.p999);
    out += ", \"mean_latency\": " + json_number(c.mean_latency);
    out += ",\n     \"utilization\": " + json_number(c.utilization);
    out += ", \"mean_queue\": " + json_number(c.mean_queue);
    out += ", \"slo_attainment\": " + json_number(c.slo_attainment);
    out += ",\n     \"mean_queue_wait\": " + json_number(c.mean_queue_wait);
    out += ", \"mean_formation_wait\": " + json_number(c.mean_formation_wait);
    out += ", \"mean_service\": " + json_number(c.mean_service) + "}";
  }
  out += request_sim.empty() ? "],\n" : "\n  ],\n";
  out += "  \"dispatch\": [";
  for (std::size_t i = 0; i < dispatch.size(); ++i) {
    const DispatchCell& c = dispatch[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"net\": " + json_quote(c.net);
    out += ", \"cores\": " + std::to_string(c.cores);
    out += ", \"vlen_bits\": " + std::to_string(c.vlen_bits);
    out += ", \"l2_total_bytes\": " + std::to_string(c.l2_total_bytes);
    out += ", \"instances\": " + std::to_string(c.instances);
    out += ",\n     \"layers\": " + std::to_string(c.layers);
    out += ", \"mispredicted_layers\": " + std::to_string(c.mispredicted_layers);
    out += ", \"batches\": " + std::to_string(c.batches);
    out += ", \"images\": " + std::to_string(c.images);
    out += ", \"explorations\": " + std::to_string(c.explorations);
    out += ",\n     \"learned_conv_cycles\": " + json_number(c.learned_conv_cycles);
    out += ", \"oracle_conv_cycles\": " + json_number(c.oracle_conv_cycles);
    out += ", \"selector_cycles\": " + json_number(c.selector_cycles);
    out += ", \"oracle_gap\": " + json_number(c.oracle_gap) + "}";
  }
  out += dispatch.empty() ? "],\n" : "\n  ],\n";
  out += "  \"timeline\": [";
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const TimelineCell& c = timeline[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"cores\": " + std::to_string(c.cores);
    out += ", \"vlen_bits\": " + std::to_string(c.vlen_bits);
    out += ", \"l2_total_bytes\": " + std::to_string(c.l2_total_bytes);
    out += ", \"instances\": " + std::to_string(c.instances);
    out += ", \"policy\": " + json_quote(c.policy);
    out += ", \"arrivals\": " + json_quote(c.arrivals);
    out += ",\n     \"snapshots\": " + std::to_string(c.snapshots);
    out += ", \"interval_cycles\": " + json_number(c.interval_cycles);
    out += ", \"alerts\": " + std::to_string(c.alerts);
    out += ", \"warmup_cycles\": " + json_number(c.warmup_cycles);
    out += ",\n     \"steady_p99\": " + json_number(c.steady_p99);
    out += ", \"max_burn_rate\": " + json_number(c.max_burn_rate);
    out += ", \"time_in_alert_cycles\": " + json_number(c.time_in_alert_cycles) +
           "}";
  }
  out += timeline.empty() ? "],\n" : "\n  ],\n";
  out += "  \"fleet\": [";
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const FleetCell& c = fleet[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"label\": " + json_quote(c.label);
    out += ", \"router\": " + json_quote(c.router);
    out += ", \"mix\": " + json_quote(c.mix);
    out += ", \"chips\": " + std::to_string(c.chips);
    out += ",\n     \"total_area_mm2\": " + json_number(c.total_area_mm2);
    out += ", \"load_rps\": " + json_number(c.load_rps);
    out += ", \"slo_cycles\": " + json_number(c.slo_cycles);
    out += ",\n     \"offered\": " + std::to_string(c.offered);
    out += ", \"completed\": " + std::to_string(c.completed);
    out += ", \"dropped\": " + std::to_string(c.dropped);
    out += ",\n     \"p50\": " + json_number(c.p50);
    out += ", \"p99\": " + json_number(c.p99);
    out += ", \"p999\": " + json_number(c.p999);
    out += ", \"mean_latency\": " + json_number(c.mean_latency);
    out += ",\n     \"utilization\": " + json_number(c.utilization);
    out += ", \"slo_attainment\": " + json_number(c.slo_attainment);
    out += ", \"mean_router_hop\": " + json_number(c.mean_router_hop);
    out += ", \"meets_slo\": ";
    out += c.meets_slo ? "true" : "false";
    out += "}";
  }
  out += fleet.empty() ? "],\n" : "\n  ],\n";
  out += "  \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseCell& c = phases[i];
    out += i ? ",\n    {" : "\n    {";
    out += "\"key\": " + json_quote(c.key);
    out += ", \"phase\": " + json_quote(c.phase);
    out += ", \"cycles\": " + json_number(c.cycles);
    out += ",\n     \"compute_cycles\": " + json_number(c.compute_cycles);
    out += ", \"mem_issue_cycles\": " + json_number(c.mem_issue_cycles);
    out += ", \"mem_stall_cycles\": " + json_number(c.mem_stall_cycles);
    out += ", \"scalar_cycles\": " + json_number(c.scalar_cycles);
    out += ",\n     \"avg_vl\": " + json_number(c.avg_vl);
    out += ", \"l1_miss_rate\": " + json_number(c.l1_miss_rate);
    out += ", \"l2_miss_rate\": " + json_number(c.l2_miss_rate);
    out += ", \"mem_bytes\": " + json_number(c.mem_bytes) + "}";
  }
  out += phases.empty() ? "],\n" : "\n  ],\n";
  out += "  \"totals\": {\"entries\": " + std::to_string(entries.size()) +
         ", \"serving_cells\": " + std::to_string(serving.size()) +
         ", \"request_sim_cells\": " + std::to_string(request_sim.size()) +
         ", \"dispatch_cells\": " + std::to_string(dispatch.size()) +
         ", \"timeline_cells\": " + std::to_string(timeline.size()) +
         ", \"fleet_cells\": " + std::to_string(fleet.size()) +
         ", \"phase_cells\": " + std::to_string(phases.size()) +
         ", \"cycles\": " + json_number(total_cycles()) + "}\n";
  out += "}\n";
  return out;
}

std::string RunReport::to_csv() const {
  std::string out =
      "net,layer,algo,vlen_bits,l2_bytes,lanes,attach,"
      "ic,ih,iw,oc,kh,kw,stride,pad,"
      "cycles,avg_vl,l2_miss_rate,mem_bytes,flops,has_breakdown,"
      "compute_cycles,mem_issue_cycles,mem_stall_cycles,scalar_cycles,"
      "vec_instructions,vec_elems,l1_accesses,l1_misses,l2_accesses,l2_misses,"
      "vec_utilization,arith_intensity,achieved_flops_per_cycle,"
      "attainable_flops_per_cycle,roofline_efficiency,bound,degenerate\n";
  for (const ReportEntry& e : entries) {
    const SweepRow& r = e.row;
    const Attribution& a = e.attr;
    // CSV is for spreadsheets, not round-tripping: obs::g17 prints inf/nan
    // as printf does, which pairs with the bound/degenerate labels.
    out += r.key.net + "," + std::to_string(r.key.layer) + "," +
           to_string(r.key.algo) + "," + std::to_string(r.key.vlen_bits) +
           "," + std::to_string(r.key.l2_bytes) + "," +
           std::to_string(r.key.lanes) + "," + attach_str(r.key.attach) + "," +
           std::to_string(r.desc.ic) + "," + std::to_string(r.desc.ih) + "," +
           std::to_string(r.desc.iw) + "," + std::to_string(r.desc.oc) + "," +
           std::to_string(r.desc.kh) + "," + std::to_string(r.desc.kw) + "," +
           std::to_string(r.desc.stride) + "," + std::to_string(r.desc.pad) +
           "," + obs::g17(r.cycles) + "," + obs::g17(r.avg_vl) + "," +
           obs::g17(r.l2_miss_rate) + "," + obs::g17(r.mem_bytes) +
           "," + obs::g17(r.flops) + "," +
           (r.has_breakdown ? "1" : "0") + ",";
    if (r.has_breakdown) {
      out += obs::g17(r.bd.compute_cycles) + "," +
             obs::g17(r.bd.mem_issue_cycles) + "," +
             obs::g17(r.bd.mem_stall_cycles) + "," +
             obs::g17(r.bd.scalar_cycles) + "," +
             obs::g17(r.bd.vec_instructions) + "," +
             obs::g17(r.bd.vec_elems) + "," +
             obs::g17(r.bd.l1_accesses) + "," +
             obs::g17(r.bd.l1_misses) + "," +
             obs::g17(r.bd.l2_accesses) + "," +
             obs::g17(r.bd.l2_misses) + ",";
    } else {
      out += ",,,,,,,,,,";
    }
    out += obs::g17(a.vec_utilization) + "," +
           obs::g17(a.arith_intensity) + "," +
           obs::g17(a.achieved_flops_per_cycle) + "," +
           obs::g17(a.attainable_flops_per_cycle) + "," +
           obs::g17(a.roofline_efficiency) + "," + to_string(a.bound) +
           "," + a.degenerate + "\n";
  }
  // Per-phase cells get their own block below the entry table (a spreadsheet
  // splits on the blank line); absent entirely when kernprof was off.
  if (!phases.empty()) {
    out +=
        "\nkey,phase,cycles,compute_cycles,mem_issue_cycles,mem_stall_cycles,"
        "scalar_cycles,avg_vl,l1_miss_rate,l2_miss_rate,mem_bytes\n";
    for (const PhaseCell& c : phases) {
      out += c.key + "," + c.phase + "," + obs::g17(c.cycles) + "," +
             obs::g17(c.compute_cycles) + "," +
             obs::g17(c.mem_issue_cycles) + "," +
             obs::g17(c.mem_stall_cycles) + "," +
             obs::g17(c.scalar_cycles) + "," + obs::g17(c.avg_vl) +
             "," + obs::g17(c.l1_miss_rate) + "," +
             obs::g17(c.l2_miss_rate) + "," + obs::g17(c.mem_bytes) +
             "\n";
    }
  }
  return out;
}

RunReport report_from_json(const std::string& text) {
  const Json doc = parse_json(text);
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "vlacnn.report.v1") {
    throw std::runtime_error(
        "report: not a vlacnn.report.v1 file (schema tag missing/unknown)");
  }
  RunReport r;
  r.tool = str_at(doc, "tool");
  r.wall_ms = num_at(doc, "wall_ms");
  const Json& roof = doc.at("roofline");
  r.roofline.flops_per_lane_per_cycle =
      num_at(roof, "flops_per_lane_per_cycle");
  r.roofline.mem_bytes_per_cycle = num_at(roof, "mem_bytes_per_cycle");

  for (const Json& e : doc.at("entries").array) {
    ReportEntry entry;
    SweepRow& row = entry.row;
    row.key.net = str_at(e, "net");
    row.key.layer = int_at(e, "layer");
    row.key.algo = algo_from_string(str_at(e, "algo"));
    row.key.vlen_bits = static_cast<std::uint32_t>(num_at(e, "vlen_bits"));
    row.key.l2_bytes = static_cast<std::uint64_t>(num_at(e, "l2_bytes"));
    row.key.lanes = static_cast<std::uint32_t>(num_at(e, "lanes"));
    row.key.attach = attach_from(str_at(e, "attach"));
    const Json& d = e.at("desc");
    row.desc = ConvLayerDesc{int_at(d, "ic"),     int_at(d, "ih"),
                             int_at(d, "iw"),     int_at(d, "oc"),
                             int_at(d, "kh"),     int_at(d, "kw"),
                             int_at(d, "stride"), int_at(d, "pad")};
    row.cycles = num_at(e, "cycles");
    row.avg_vl = num_at(e, "avg_vl");
    row.l2_miss_rate = num_at(e, "l2_miss_rate");
    row.mem_bytes = num_at(e, "mem_bytes");
    row.flops = num_at(e, "flops");
    const Json& bd = e.at("breakdown");
    if (!bd.is_null()) {
      row.has_breakdown = true;
      row.bd.compute_cycles = num_at(bd, "compute_cycles");
      row.bd.mem_issue_cycles = num_at(bd, "mem_issue_cycles");
      row.bd.mem_stall_cycles = num_at(bd, "mem_stall_cycles");
      row.bd.scalar_cycles = num_at(bd, "scalar_cycles");
      row.bd.vec_instructions = num_at(bd, "vec_instructions");
      row.bd.vec_elems = num_at(bd, "vec_elems");
      row.bd.l1_accesses = num_at(bd, "l1_accesses");
      row.bd.l1_misses = num_at(bd, "l1_misses");
      row.bd.l2_accesses = num_at(bd, "l2_accesses");
      row.bd.l2_misses = num_at(bd, "l2_misses");
    }
    // Derived fields in the file are informational; recompute so a stale or
    // hand-edited attribution block cannot skew a diff.
    entry.attr = attribute(row, r.roofline);
    r.entries.push_back(std::move(entry));
  }
  std::sort(r.entries.begin(), r.entries.end(),
            [](const ReportEntry& a, const ReportEntry& b) {
              return a.row.key < b.row.key;
            });

  for (const Json& s : doc.at("serving").array) {
    ServingCell c;
    c.cores = int_at(s, "cores");
    c.vlen_bits = static_cast<std::uint32_t>(num_at(s, "vlen_bits"));
    c.l2_total_bytes = static_cast<std::uint64_t>(num_at(s, "l2_total_bytes"));
    c.instances = int_at(s, "instances");
    c.cycles_per_image = num_at(s, "cycles_per_image");
    c.images_per_cycle = num_at(s, "images_per_cycle");
    c.area_mm2 = num_at(s, "area_mm2");
    r.serving.push_back(c);
  }

  // Optional section: reports written before the request-level simulator
  // existed simply lack it (the v1 schema grows additively).
  if (const Json* rs = doc.find("request_sim"); rs != nullptr) {
    for (const Json& s : rs->array) {
      RequestSimCell c;
      c.cores = int_at(s, "cores");
      c.vlen_bits = static_cast<std::uint32_t>(num_at(s, "vlen_bits"));
      c.l2_total_bytes =
          static_cast<std::uint64_t>(num_at(s, "l2_total_bytes"));
      c.instances = int_at(s, "instances");
      c.policy = str_at(s, "policy");
      c.arrivals = str_at(s, "arrivals");
      c.load_rps = num_at(s, "load_rps");
      c.slo_cycles = num_at(s, "slo_cycles");
      c.offered = static_cast<std::uint64_t>(num_at(s, "offered"));
      c.completed = static_cast<std::uint64_t>(num_at(s, "completed"));
      c.dropped = static_cast<std::uint64_t>(num_at(s, "dropped"));
      c.p50 = num_at(s, "p50");
      c.p95 = num_at(s, "p95");
      c.p99 = num_at(s, "p99");
      c.p999 = num_at(s, "p999");
      c.mean_latency = num_at(s, "mean_latency");
      c.utilization = num_at(s, "utilization");
      c.mean_queue = num_at(s, "mean_queue");
      c.slo_attainment = num_at(s, "slo_attainment");
      // Attribution columns arrived after the section did; old files lack
      // them and parse back as zeros.
      if (const Json* f = s.find("mean_queue_wait")) {
        c.mean_queue_wait = f->num_or(0);
      }
      if (const Json* f = s.find("mean_formation_wait")) {
        c.mean_formation_wait = f->num_or(0);
      }
      if (const Json* f = s.find("mean_service")) {
        c.mean_service = f->num_or(0);
      }
      r.request_sim.push_back(c);
    }
  }

  // Optional for the same reason: only learned-dispatch runs emit it.
  if (const Json* dp = doc.find("dispatch"); dp != nullptr) {
    for (const Json& s : dp->array) {
      DispatchCell c;
      c.net = str_at(s, "net");
      c.cores = int_at(s, "cores");
      c.vlen_bits = static_cast<std::uint32_t>(num_at(s, "vlen_bits"));
      c.l2_total_bytes =
          static_cast<std::uint64_t>(num_at(s, "l2_total_bytes"));
      c.instances = int_at(s, "instances");
      c.layers = int_at(s, "layers");
      c.mispredicted_layers = int_at(s, "mispredicted_layers");
      c.batches = static_cast<std::uint64_t>(num_at(s, "batches"));
      c.images = static_cast<std::uint64_t>(num_at(s, "images"));
      c.explorations = static_cast<std::uint64_t>(num_at(s, "explorations"));
      c.learned_conv_cycles = num_at(s, "learned_conv_cycles");
      c.oracle_conv_cycles = num_at(s, "oracle_conv_cycles");
      c.selector_cycles = num_at(s, "selector_cycles");
      c.oracle_gap = num_at(s, "oracle_gap");
      r.dispatch.push_back(c);
    }
  }

  // Optional: only timeline-enabled planner runs emit it.
  if (const Json* tl = doc.find("timeline"); tl != nullptr) {
    for (const Json& s : tl->array) {
      TimelineCell c;
      c.cores = int_at(s, "cores");
      c.vlen_bits = static_cast<std::uint32_t>(num_at(s, "vlen_bits"));
      c.l2_total_bytes =
          static_cast<std::uint64_t>(num_at(s, "l2_total_bytes"));
      c.instances = int_at(s, "instances");
      c.policy = str_at(s, "policy");
      c.arrivals = str_at(s, "arrivals");
      c.snapshots = static_cast<std::uint64_t>(num_at(s, "snapshots"));
      c.interval_cycles = num_at(s, "interval_cycles");
      c.alerts = static_cast<std::uint64_t>(num_at(s, "alerts"));
      c.warmup_cycles = num_at(s, "warmup_cycles");
      c.steady_p99 = num_at(s, "steady_p99");
      c.max_burn_rate = num_at(s, "max_burn_rate");
      c.time_in_alert_cycles = num_at(s, "time_in_alert_cycles");
      r.timeline.push_back(c);
    }
  }

  // Optional: only fleet-planner/fleet-CLI runs emit it.
  if (const Json* fl = doc.find("fleet"); fl != nullptr) {
    for (const Json& s : fl->array) {
      FleetCell c;
      c.label = str_at(s, "label");
      c.router = str_at(s, "router");
      c.mix = str_at(s, "mix");
      c.chips = int_at(s, "chips");
      c.total_area_mm2 = num_at(s, "total_area_mm2");
      c.load_rps = num_at(s, "load_rps");
      c.slo_cycles = num_at(s, "slo_cycles");
      c.offered = static_cast<std::uint64_t>(num_at(s, "offered"));
      c.completed = static_cast<std::uint64_t>(num_at(s, "completed"));
      c.dropped = static_cast<std::uint64_t>(num_at(s, "dropped"));
      c.p50 = num_at(s, "p50");
      c.p99 = num_at(s, "p99");
      c.p999 = num_at(s, "p999");
      c.mean_latency = num_at(s, "mean_latency");
      c.utilization = num_at(s, "utilization");
      c.slo_attainment = num_at(s, "slo_attainment");
      c.mean_router_hop = num_at(s, "mean_router_hop");
      c.meets_slo = s.at("meets_slo").boolean;
      r.fleet.push_back(std::move(c));
    }
  }

  // Optional: only kernprof-enabled runs emit it.
  if (const Json* ph = doc.find("phases"); ph != nullptr) {
    for (const Json& s : ph->array) {
      PhaseCell c;
      c.key = str_at(s, "key");
      c.phase = str_at(s, "phase");
      c.cycles = num_at(s, "cycles");
      c.compute_cycles = num_at(s, "compute_cycles");
      c.mem_issue_cycles = num_at(s, "mem_issue_cycles");
      c.mem_stall_cycles = num_at(s, "mem_stall_cycles");
      c.scalar_cycles = num_at(s, "scalar_cycles");
      c.avg_vl = num_at(s, "avg_vl");
      // Miss rates serialize as null (NaN) when the phase made no accesses.
      c.l1_miss_rate = s.at("l1_miss_rate").num_or(kNaN);
      c.l2_miss_rate = s.at("l2_miss_rate").num_or(kNaN);
      c.mem_bytes = num_at(s, "mem_bytes");
      r.phases.push_back(std::move(c));
    }
  }
  return r;
}

DiffResult diff_reports(const RunReport& base, const RunReport& cur,
                        const DiffOptions& opt) {
  DiffResult d;
  std::map<std::string, double> base_cycles;
  for (const ReportEntry& e : base.entries) {
    base_cycles[entry_key(e.row.key)] = e.row.cycles;
  }
  std::map<std::string, double> cur_cycles;
  for (const ReportEntry& e : cur.entries) {
    cur_cycles[entry_key(e.row.key)] = e.row.cycles;
  }

  auto delta_pct = [](double b, double c) {
    if (b > 0) return (c - b) / b * 100.0;
    return c > 0 ? std::numeric_limits<double>::infinity() : 0.0;
  };

  double base_sum = 0, cur_sum = 0;
  for (const auto& [key, b] : base_cycles) {
    auto it = cur_cycles.find(key);
    if (it == cur_cycles.end()) {
      d.only_base.push_back(key);
      continue;
    }
    ++d.compared;
    base_sum += b;
    cur_sum += it->second;
    const double pct = delta_pct(b, it->second);
    if (pct > opt.cycle_budget_pct) {
      d.regressions.push_back({key, b, it->second, pct});
    } else if (pct < -opt.cycle_budget_pct) {
      d.improvements.push_back({key, b, it->second, pct});
    }
  }
  for (const auto& [key, c] : cur_cycles) {
    if (base_cycles.find(key) == base_cycles.end()) d.only_cur.push_back(key);
  }
  auto by_severity = [](const DiffDelta& a, const DiffDelta& b) {
    return std::abs(a.delta_pct) > std::abs(b.delta_pct);
  };
  std::stable_sort(d.regressions.begin(), d.regressions.end(), by_severity);
  std::stable_sort(d.improvements.begin(), d.improvements.end(), by_severity);

  d.total = {"TOTAL(cycles)", base_sum, cur_sum, delta_pct(base_sum, cur_sum)};
  d.total_regressed = d.total.delta_pct > opt.cycle_budget_pct;

  d.wall = {"wall_ms", base.wall_ms, cur.wall_ms,
            delta_pct(base.wall_ms, cur.wall_ms)};
  d.wall_regressed =
      opt.wall_budget_pct >= 0 && d.wall.delta_pct > opt.wall_budget_pct;
  return d;
}

std::string summarize(const RunReport& r) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof line,
                "report tool=%s  entries=%zu  serving_cells=%zu  wall=%.1f ms\n"
                "roofline: %.3g flops/lane/cycle, %.3g DRAM B/cycle\n",
                r.tool.c_str(), r.entries.size(), r.serving.size(), r.wall_ms,
                r.roofline.flops_per_lane_per_cycle,
                r.roofline.mem_bytes_per_cycle);
  out += line;
  if (!r.entries.empty()) {
    std::snprintf(line, sizeof line,
                  "%-44s %12s %6s %6s %6s %6s %6s %8s %5s %-9s\n", "key",
                  "cycles", "comp%", "mem%", "stall%", "scal%", "util", "AI",
                  "eff", "bound");
    out += line;
    for (const ReportEntry& e : r.entries) {
      const SweepRow& row = e.row;
      const Attribution& a = e.attr;
      char comp[8] = "   -", mem[8] = "   -", stall[8] = "   -",
           scal[8] = "   -", util[8] = "   -";
      if (row.has_breakdown && row.cycles > 0) {
        std::snprintf(comp, sizeof comp, "%5.1f",
                      100.0 * row.bd.compute_cycles / row.cycles);
        std::snprintf(mem, sizeof mem, "%5.1f",
                      100.0 * row.bd.mem_issue_cycles / row.cycles);
        std::snprintf(stall, sizeof stall, "%5.1f",
                      100.0 * row.bd.mem_stall_cycles / row.cycles);
        std::snprintf(scal, sizeof scal, "%5.1f",
                      100.0 * row.bd.scalar_cycles / row.cycles);
        std::snprintf(util, sizeof util, "%5.2f", a.vec_utilization);
      }
      char ai[16];
      if (std::isinf(a.arith_intensity)) {
        std::snprintf(ai, sizeof ai, "inf");
      } else {
        std::snprintf(ai, sizeof ai, "%8.2f", a.arith_intensity);
      }
      std::string label = to_string(a.bound);
      if (!a.degenerate.empty()) label += "!" + a.degenerate;
      std::snprintf(line, sizeof line,
                    "%-44s %12.4g %6s %6s %6s %6s %6s %8s %5.2f %-9s\n",
                    entry_key(row.key).c_str(), row.cycles, comp, mem, stall,
                    scal, util, ai, a.roofline_efficiency, label.c_str());
      out += line;
    }
    std::snprintf(line, sizeof line, "%-44s %12.6g\n", "TOTAL",
                  r.total_cycles());
    out += line;
  }
  if (!r.serving.empty()) {
    std::snprintf(line, sizeof line, "\n%6s %6s %8s %5s %14s %14s %10s\n",
                  "cores", "vlen", "l2MB", "inst", "cyc/img", "img/Mcyc",
                  "area mm2");
    out += line;
    for (const ServingCell& c : r.serving) {
      std::snprintf(line, sizeof line,
                    "%6d %6u %8.1f %5d %14.4g %14.4g %10.2f\n", c.cores,
                    c.vlen_bits,
                    static_cast<double>(c.l2_total_bytes) / (1024.0 * 1024.0),
                    c.instances, c.cycles_per_image,
                    c.images_per_cycle * 1e6, c.area_mm2);
      out += line;
    }
  }
  if (!r.request_sim.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%6s %6s %8s %5s %-16s %10s %10s %10s %6s %6s\n", "cores",
                  "vlen", "l2MB", "inst", "policy", "p50cyc", "p99cyc",
                  "p999cyc", "util", "slo%");
    out += line;
    for (const RequestSimCell& c : r.request_sim) {
      std::snprintf(line, sizeof line,
                    "%6d %6u %8.1f %5d %-16s %10.4g %10.4g %10.4g %6.2f %6.2f\n",
                    c.cores, c.vlen_bits,
                    static_cast<double>(c.l2_total_bytes) / (1024.0 * 1024.0),
                    c.instances, c.policy.c_str(), c.p50, c.p99, c.p999,
                    c.utilization, 100.0 * c.slo_attainment);
      out += line;
    }
  }
  if (!r.timeline.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%6s %6s %8s %5s %-16s %6s %12s %10s %8s %6s\n", "cores",
                  "vlen", "l2MB", "inst", "policy", "snaps", "warmup_cyc",
                  "p99roll", "maxburn", "alerts");
    out += line;
    for (const TimelineCell& c : r.timeline) {
      std::snprintf(line, sizeof line,
                    "%6d %6u %8.1f %5d %-16s %6llu %12.4g %10.4g %8.3f %6llu\n",
                    c.cores, c.vlen_bits,
                    static_cast<double>(c.l2_total_bytes) / (1024.0 * 1024.0),
                    c.instances, c.policy.c_str(),
                    static_cast<unsigned long long>(c.snapshots),
                    c.warmup_cycles, c.steady_p99, c.max_burn_rate,
                    static_cast<unsigned long long>(c.alerts));
      out += line;
    }
  }
  if (!r.phases.empty()) {
    std::snprintf(line, sizeof line, "\n%-44s %-16s %12s %6s %6s %6s %6s %6s\n",
                  "key", "phase", "cycles", "comp%", "mem%", "stall%", "scal%",
                  "l2miss");
    out += line;
    // Per-key totals for the share columns: cells are key-grouped, and the
    // exact-partition invariant makes the per-key cycle sum the row total.
    std::map<std::string, double> key_cycles;
    for (const PhaseCell& c : r.phases) key_cycles[c.key] += c.cycles;
    for (const PhaseCell& c : r.phases) {
      const double raw = c.compute_cycles + c.mem_issue_cycles +
                         c.mem_stall_cycles + c.scalar_cycles;
      char comp[8] = "   -", mem[8] = "   -", stall[8] = "   -",
           scal[8] = "   -", l2m[8] = "   -";
      if (raw > 0) {
        std::snprintf(comp, sizeof comp, "%5.1f",
                      100.0 * c.compute_cycles / raw);
        std::snprintf(mem, sizeof mem, "%5.1f",
                      100.0 * c.mem_issue_cycles / raw);
        std::snprintf(stall, sizeof stall, "%5.1f",
                      100.0 * c.mem_stall_cycles / raw);
        std::snprintf(scal, sizeof scal, "%5.1f",
                      100.0 * c.scalar_cycles / raw);
      }
      if (std::isfinite(c.l2_miss_rate)) {
        std::snprintf(l2m, sizeof l2m, "%5.3f", c.l2_miss_rate);
      }
      const double total = key_cycles[c.key];
      char share[16] = "";
      if (total > 0) {
        std::snprintf(share, sizeof share, " (%4.1f%%)",
                      100.0 * c.cycles / total);
      }
      std::snprintf(line, sizeof line,
                    "%-44s %-16s %12.4g %6s %6s %6s %6s %6s%s\n",
                    c.key.c_str(), c.phase.c_str(), c.cycles, comp, mem, stall,
                    scal, l2m, share);
      out += line;
    }
  }
  if (!r.fleet.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%-36s %-4s %5s %10s %10s %10s %6s %6s %4s\n", "fleet",
                  "rtr", "chips", "area mm2", "p50cyc", "p99cyc", "util",
                  "slo%", "ok");
    out += line;
    for (const FleetCell& c : r.fleet) {
      std::snprintf(line, sizeof line,
                    "%-36s %-4s %5d %10.1f %10.4g %10.4g %6.2f %6.2f %4s\n",
                    c.label.c_str(), c.router.c_str(), c.chips,
                    c.total_area_mm2, c.p50, c.p99, c.utilization,
                    100.0 * c.slo_attainment, c.meets_slo ? "yes" : "no");
      out += line;
    }
  }
  if (!r.dispatch.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%-8s %6s %6s %8s %5s %6s %6s %10s %10s %8s\n", "net",
                  "cores", "vlen", "l2MB", "inst", "layers", "mispr",
                  "explored", "selector", "gap%");
    out += line;
    for (const DispatchCell& c : r.dispatch) {
      std::snprintf(line, sizeof line,
                    "%-8s %6d %6u %8.1f %5d %6d %6d %10llu %10.4g %8.3f\n",
                    c.net.c_str(), c.cores, c.vlen_bits,
                    static_cast<double>(c.l2_total_bytes) / (1024.0 * 1024.0),
                    c.instances, c.layers, c.mispredicted_layers,
                    static_cast<unsigned long long>(c.explorations),
                    c.selector_cycles, 100.0 * c.oracle_gap);
      out += line;
    }
  }
  return out;
}

std::string diff_to_string(const DiffResult& d, const DiffOptions& opt) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof line,
                "compared %zu grid points (cycle budget %.2f%%%s)\n",
                d.compared, opt.cycle_budget_pct,
                opt.wall_budget_pct >= 0 ? ", wall gated" : "");
  out += line;
  auto emit = [&](const char* tag, const DiffDelta& x) {
    std::snprintf(line, sizeof line, "  %-10s %-44s %14.6g -> %14.6g  %+.2f%%\n",
                  tag, x.key.c_str(), x.base, x.cur, x.delta_pct);
    out += line;
  };
  for (const DiffDelta& x : d.regressions) emit("REGRESSED", x);
  for (const DiffDelta& x : d.improvements) emit("improved", x);
  for (const std::string& k : d.only_base) {
    out += "  only-in-baseline " + k + "\n";
  }
  for (const std::string& k : d.only_cur) {
    out += "  only-in-current  " + k + "\n";
  }
  emit(d.total_regressed ? "REGRESSED" : "total", d.total);
  if (opt.wall_budget_pct >= 0) {
    emit(d.wall_regressed ? "REGRESSED" : "wall", d.wall);
  }
  out += d.ok() ? "OK: within budget\n" : "FAIL: regression over budget\n";
  return out;
}

}  // namespace vlacnn::report
