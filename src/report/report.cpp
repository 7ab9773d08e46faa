#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "algos/conv_args.h"
#include "common/env.h"
#include "obs/json_util.h"
#include "report/json.h"
#include "vpu/vpu_config.h"

namespace vlacnn::report {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// The line breaks keep each section's v1 layout byte for byte.
constexpr SectionLayout kLayouts[] = {
    {"serving", "serving_cells", 4, {}},
    {"request_sim", "request_sim_cells", 6,
     {"load_rps", "p50", "utilization", "mean_queue_wait"}},
    {"dispatch", "dispatch_cells", 5, {"layers", "learned_conv_cycles"}},
    {"timeline", "timeline_cells", 6, {"snapshots", "steady_p99"}},
    {"fleet", "fleet_cells", 3,
     {"total_area_mm2", "offered", "p50", "utilization"}},
    {"phases", "phase_cells", 1, {"compute_cycles", "avg_vl"}},
};
static_assert(std::size(kLayouts) == kAllSections.size());

/// The "cores vlen l2MB inst" columns of the serving-point tables.
std::string point_columns(const Json& c) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%6d %6u %8.1f %5d", int_at(c, "cores"),
                uint_at<unsigned>(c, "vlen_bits"),
                static_cast<double>(uint_at(c, "l2_total_bytes")) /
                    (1024.0 * 1024.0),
                int_at(c, "instances"));
  return buf;
}

}  // namespace

const SectionLayout& layout(Section s) {
  return kLayouts[static_cast<std::size_t>(s)];
}

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

  a.vec_utilization =
      zero_cycles ? 0.0 : row.bd.vec_elems / (lanes * row.cycles);
  a.l1_miss_rate =
      row.bd.l1_accesses > 0 ? row.bd.l1_misses / row.bd.l1_accesses : kNaN;
  a.l2_miss_rate =
      row.bd.l2_accesses > 0 ? row.bd.l2_misses / row.bd.l2_accesses : kNaN;

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
    if (zero_bytes) a.degenerate = "zero_dram_bytes";
  }
  return a;
}

std::string entry_key(const SweepKey& k) {
  return point_label(layer_head(k.net, k.layer), to_string(k.algo),
                     k.vlen_bits, k.l2_bytes, k.lanes, k.attach);
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
    out += ", \"attach\": " + json_quote(to_string(r.key.attach));
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
  for (Section sec : kAllSections) {
    const SectionLayout& l = layout(sec);
    const std::vector<Json>& cs = cells(sec);
    out += "  \"" + std::string(l.name) + "\": [";
    for (std::size_t i = 0; i < cs.size(); ++i) {
      out += i ? ",\n    {" : "\n    {";
      const auto& fields = cs[i].object;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) {
          const auto& br = l.line_breaks;
          out += std::find(br.begin(), br.end(), fields[f].first) != br.end()
                     ? ",\n     "
                     : ", ";
        }
        out += json_quote(fields[f].first) + ": ";
        append_json(out, fields[f].second);
      }
      out += "}";
    }
    out += cs.empty() ? "],\n" : "\n  ],\n";
  }
  out += "  \"totals\": {\"entries\": " + std::to_string(entries.size());
  for (Section sec : kAllSections) {
    out += ", \"" + std::string(layout(sec).total) +
           "\": " + std::to_string(cells(sec).size());
  }
  out += ", \"cycles\": " + json_number(total_cycles()) + "}\n";
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
           std::to_string(r.key.lanes) + "," + to_string(r.key.attach) + "," +
           std::to_string(r.desc.ic) + "," + std::to_string(r.desc.ih) + "," +
           std::to_string(r.desc.iw) + "," + std::to_string(r.desc.oc) + "," +
           std::to_string(r.desc.kh) + "," + std::to_string(r.desc.kw) + "," +
           std::to_string(r.desc.stride) + "," + std::to_string(r.desc.pad) +
           "," + obs::g17(r.cycles) + "," + obs::g17(r.avg_vl) + "," +
           obs::g17(r.l2_miss_rate) + "," + obs::g17(r.mem_bytes) +
           "," + obs::g17(r.flops) + ",1,";
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
    out += obs::g17(a.vec_utilization) + "," +
           obs::g17(a.arith_intensity) + "," +
           obs::g17(a.achieved_flops_per_cycle) + "," +
           obs::g17(a.attainable_flops_per_cycle) + "," +
           obs::g17(a.roofline_efficiency) + "," + to_string(a.bound) +
           "," + a.degenerate + "\n";
  }
  // Per-phase cells get their own block below the entry table (a spreadsheet
  // splits on the blank line), headed by the cells' field names; absent
  // entirely when kernprof was off.
  const std::vector<Json>& phases = cells(Section::kPhases);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const auto& fields = phases[i].object;
    if (i == 0) {
      out += "\n";
      for (std::size_t f = 0; f < fields.size(); ++f) {
        out += (f ? "," : "") + fields[f].first;
      }
      out += "\n";
    }
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const Json& v = fields[f].second;
      out += (f ? "," : "") +
             (v.type == Json::Type::kString ? v.string : obs::g17(v.number));
    }
    out += "\n";
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

  for (const Json& e : array_at(doc, "entries")) {
    ReportEntry entry;
    SweepRow& row = entry.row;
    row.key.net = str_at(e, "net");
    row.key.layer = int_at(e, "layer");
    try {
      row.key.algo = algo_from_string(str_at(e, "algo"));
    } catch (const std::invalid_argument& err) {
      throw std::runtime_error(std::string("report: ") + err.what());
    }
    row.key.vlen_bits = uint_at<std::uint32_t>(e, "vlen_bits");
    row.key.l2_bytes = uint_at(e, "l2_bytes");
    row.key.lanes = uint_at<std::uint32_t>(e, "lanes");
    row.key.attach = static_cast<VpuAttach>(
        parse_word("attach", str_at(e, "attach"),
                   {{kAttachWords[0], 0}, {kAttachWords[1], 1}}).value);
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
    const Json& bd = object_at(e, "breakdown");
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
    // Derived fields in the file are informational; recompute so a stale or
    // hand-edited attribution block cannot skew a diff.
    entry.attr = attribute(row, r.roofline);
    r.entries.push_back(std::move(entry));
  }
  std::sort(r.entries.begin(), r.entries.end(),
            [](const ReportEntry& a, const ReportEntry& b) {
              return a.row.key < b.row.key;
            });
  // Two rows for one grid point would make the diff compare whichever came
  // last, so a report must name each point once.
  for (std::size_t i = 1; i < r.entries.size(); ++i) {
    if (!(r.entries[i - 1].row.key < r.entries[i].row.key)) {
      throw std::runtime_error("report: duplicate entry " +
                               entry_key(r.entries[i].row.key));
    }
  }

  for (Section sec : kAllSections) {
    const SectionLayout& l = layout(sec);
    // Every v1 report has "serving"; the later sections are optional, as the
    // schema grows additively.
    if (sec != Section::kServing && doc.find(l.name) == nullptr) continue;
    for (const Json& c : array_at(doc, l.name)) {
      if (c.type != Json::Type::kObject) {
        throw std::runtime_error("report: a \"" + std::string(l.name) +
                                 "\" cell is not an object");
      }
      Json& cell = r.cells(sec).emplace_back(c);
      for (auto& member : cell.object) {
        if (member.second.is_null()) {
          member.second.type = Json::Type::kNumber;
          member.second.number = kNaN;
        }
      }
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
                r.tool.c_str(), r.entries.size(),
                r.cells(Section::kServing).size(), r.wall_ms,
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
      if (row.cycles > 0) {
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
  // The cell tables read each field by name and type, so a report whose
  // cells lack a field or hold the wrong type fails here, naming the field.
  const std::vector<Json>& serving = r.cells(Section::kServing);
  if (!serving.empty()) {
    std::snprintf(line, sizeof line, "\n%6s %6s %8s %5s %14s %14s %10s\n",
                  "cores", "vlen", "l2MB", "inst", "cyc/img", "img/Mcyc",
                  "area mm2");
    out += line;
    for (const Json& c : serving) {
      std::snprintf(line, sizeof line, "%s %14.4g %14.4g %10.2f\n",
                    point_columns(c).c_str(), num_at(c, "cycles_per_image"),
                    num_at(c, "images_per_cycle") * 1e6,
                    num_at(c, "area_mm2"));
      out += line;
    }
  }
  const std::vector<Json>& request_sim = r.cells(Section::kRequestSim);
  if (!request_sim.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%6s %6s %8s %5s %-16s %10s %10s %10s %6s %6s\n", "cores",
                  "vlen", "l2MB", "inst", "policy", "p50cyc", "p99cyc",
                  "p999cyc", "util", "slo%");
    out += line;
    for (const Json& c : request_sim) {
      std::snprintf(line, sizeof line,
                    "%s %-16s %10.4g %10.4g %10.4g %6.2f %6.2f\n",
                    point_columns(c).c_str(), str_at(c, "policy").c_str(),
                    num_at(c, "p50"), num_at(c, "p99"), num_at(c, "p999"),
                    num_at(c, "utilization"),
                    100.0 * num_at(c, "slo_attainment"));
      out += line;
    }
  }
  const std::vector<Json>& timeline = r.cells(Section::kTimeline);
  if (!timeline.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%6s %6s %8s %5s %-16s %6s %12s %10s %8s %6s\n", "cores",
                  "vlen", "l2MB", "inst", "policy", "snaps", "warmup_cyc",
                  "p99roll", "maxburn", "alerts");
    out += line;
    for (const Json& c : timeline) {
      std::snprintf(line, sizeof line,
                    "%s %-16s %6llu %12.4g %10.4g %8.3f %6llu\n",
                    point_columns(c).c_str(), str_at(c, "policy").c_str(),
                    uint_at<unsigned long long>(c, "snapshots"),
                    num_at(c, "warmup_cycles"), num_at(c, "steady_p99"),
                    num_at(c, "max_burn_rate"),
                    uint_at<unsigned long long>(c, "alerts"));
      out += line;
    }
  }
  const std::vector<Json>& phases = r.cells(Section::kPhases);
  if (!phases.empty()) {
    std::snprintf(line, sizeof line, "\n%-44s %-16s %12s %6s %6s %6s %6s %6s\n",
                  "key", "phase", "cycles", "comp%", "mem%", "stall%", "scal%",
                  "l2miss");
    out += line;
    // Per-key totals for the share columns: cells are key-grouped, and the
    // exact-partition invariant makes the per-key cycle sum the row total.
    std::map<std::string, double> key_cycles;
    for (const Json& c : phases) {
      key_cycles[str_at(c, "key")] += num_at(c, "cycles");
    }
    for (const Json& c : phases) {
      const double cycles = num_at(c, "cycles");
      const double parts[] = {
          num_at(c, "compute_cycles"), num_at(c, "mem_issue_cycles"),
          num_at(c, "mem_stall_cycles"), num_at(c, "scalar_cycles")};
      const double raw = parts[0] + parts[1] + parts[2] + parts[3];
      char pct[4][8] = {"   -", "   -", "   -", "   -"};
      if (raw > 0) {
        for (int i = 0; i < 4; ++i) {
          std::snprintf(pct[i], sizeof pct[i], "%5.1f", 100.0 * parts[i] / raw);
        }
      }
      char l2m[8] = "   -";
      const double l2_miss_rate = num_at(c, "l2_miss_rate");
      if (std::isfinite(l2_miss_rate)) {
        std::snprintf(l2m, sizeof l2m, "%5.3f", l2_miss_rate);
      }
      const std::string& key = str_at(c, "key");
      const double total = key_cycles[key];
      char share[16] = "";
      if (total > 0) {
        std::snprintf(share, sizeof share, " (%4.1f%%)",
                      100.0 * cycles / total);
      }
      std::snprintf(line, sizeof line,
                    "%-44s %-16s %12.4g %6s %6s %6s %6s %6s%s\n", key.c_str(),
                    str_at(c, "phase").c_str(), cycles, pct[0], pct[1], pct[2],
                    pct[3], l2m, share);
      out += line;
    }
  }
  const std::vector<Json>& fleet = r.cells(Section::kFleet);
  if (!fleet.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%-36s %-4s %5s %10s %10s %10s %6s %6s %4s\n", "fleet",
                  "rtr", "chips", "area mm2", "p50cyc", "p99cyc", "util",
                  "slo%", "ok");
    out += line;
    for (const Json& c : fleet) {
      std::snprintf(line, sizeof line,
                    "%-36s %-4s %5d %10.1f %10.4g %10.4g %6.2f %6.2f %4s\n",
                    str_at(c, "label").c_str(), str_at(c, "router").c_str(),
                    int_at(c, "chips"), num_at(c, "total_area_mm2"),
                    num_at(c, "p50"), num_at(c, "p99"),
                    num_at(c, "utilization"),
                    100.0 * num_at(c, "slo_attainment"),
                    bool_at(c, "meets_slo") ? "yes" : "no");
      out += line;
    }
  }
  const std::vector<Json>& dispatch = r.cells(Section::kDispatch);
  if (!dispatch.empty()) {
    std::snprintf(line, sizeof line,
                  "\n%-8s %6s %6s %8s %5s %6s %6s %10s %10s %8s\n", "net",
                  "cores", "vlen", "l2MB", "inst", "layers", "mispr",
                  "explored", "selector", "gap%");
    out += line;
    for (const Json& c : dispatch) {
      std::snprintf(line, sizeof line,
                    "%-8s %s %6d %6d %10llu %10.4g %8.3f\n",
                    str_at(c, "net").c_str(), point_columns(c).c_str(),
                    int_at(c, "layers"), int_at(c, "mispredicted_layers"),
                    uint_at<unsigned long long>(c, "explorations"),
                    num_at(c, "selector_cycles"),
                    100.0 * num_at(c, "oracle_gap"));
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
