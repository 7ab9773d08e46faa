// Report subsystem: attribution math (including the degenerate-input guards),
// roofline classification, JSON emit/parse round-trip, the baseline diff the
// regression gate runs on, collector determinism, and the sweep driver's
// breakdown threading.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "report/collector.h"
#include "report/json.h"
#include "report/report.h"
#include "sweep/sweep.h"

namespace vlacnn {
namespace {

using report::Attribution;
using report::Bound;
using report::DiffOptions;
using report::DiffResult;
using report::RooflineParams;
using report::RunReport;
using report::Section;

SweepRow healthy_row(int layer = 0, Algo algo = Algo::kGemm6) {
  SweepRow r;
  r.key = SweepKey{"tiny", layer, algo, 512, 1u << 20, 8,
                   VpuAttach::kIntegratedL1};
  r.desc = ConvLayerDesc{3, 32, 32, 8, 3, 3, 1, 1};
  r.cycles = 1000.0;
  r.avg_vl = 14.0;
  r.l2_miss_rate = 0.25;
  r.mem_bytes = 4096.0;
  r.flops = 64000.0;
  r.bd.compute_cycles = 400.0;
  r.bd.mem_issue_cycles = 300.0;
  r.bd.mem_stall_cycles = 200.0;
  r.bd.scalar_cycles = 100.0;
  r.bd.vec_instructions = 500.0;
  r.bd.vec_elems = 7000.0;
  r.bd.l1_accesses = 1000.0;
  r.bd.l1_misses = 50.0;
  r.bd.l2_accesses = 50.0;
  r.bd.l2_misses = 10.0;
  return r;
}

/// Point the collector at a temp dir for one test, restoring "off" after.
class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vlacnn_report_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    report::Collector::global().reset();
  }
  void TearDown() override {
    report::set_report_dir("");
    report::Collector::global().reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

// ------------------------------------------------------- attribution -------

TEST(ReportAttribution, RooflineClassification) {
  const RooflineParams p;  // peak = 16 flops/cycle @ 8 lanes, ridge = 2.5
  SweepRow r = healthy_row();
  // AI = 64000/4096 = 15.625 >= ridge -> compute-bound.
  Attribution a = report::attribute(r, p);
  EXPECT_EQ(a.bound, Bound::kCompute);
  EXPECT_TRUE(a.degenerate.empty());
  EXPECT_DOUBLE_EQ(a.arith_intensity, 15.625);
  EXPECT_DOUBLE_EQ(a.achieved_flops_per_cycle, 64.0);
  EXPECT_DOUBLE_EQ(a.attainable_flops_per_cycle, 16.0);  // capped at peak
  EXPECT_DOUBLE_EQ(a.vec_utilization, 7000.0 / (8.0 * 1000.0));
  EXPECT_DOUBLE_EQ(a.l1_miss_rate, 0.05);
  EXPECT_DOUBLE_EQ(a.l2_miss_rate, 0.2);

  // Low AI -> bandwidth-bound, attainable = AI * bandwidth below the roof.
  r.flops = 1000.0;  // AI = 1000/4096 ~ 0.244 < 2.5
  a = report::attribute(r, p);
  EXPECT_EQ(a.bound, Bound::kBandwidth);
  EXPECT_DOUBLE_EQ(a.attainable_flops_per_cycle,
                   1000.0 / 4096.0 * p.mem_bytes_per_cycle);
}

TEST(ReportAttribution, ZeroCyclesIsClampedAndLabeled) {
  SweepRow r = healthy_row();
  r.cycles = 0;
  const Attribution a = report::attribute(r, RooflineParams{});
  EXPECT_EQ(a.bound, Bound::kDegenerate);
  EXPECT_EQ(a.degenerate, "zero_cycles");
  EXPECT_DOUBLE_EQ(a.vec_utilization, 0.0);          // clamped, not NaN
  EXPECT_DOUBLE_EQ(a.achieved_flops_per_cycle, 0.0);  // clamped, not inf
  EXPECT_DOUBLE_EQ(a.roofline_efficiency, 0.0);
}

TEST(ReportAttribution, ZeroDramBytesGivesInfiniteAiButValidJson) {
  SweepRow r = healthy_row();
  r.mem_bytes = 0;
  const Attribution a = report::attribute(r, RooflineParams{});
  EXPECT_TRUE(std::isinf(a.arith_intensity));
  EXPECT_EQ(a.degenerate, "zero_dram_bytes");
  EXPECT_EQ(a.bound, Bound::kCompute);  // everything served from cache
  EXPECT_DOUBLE_EQ(a.attainable_flops_per_cycle, 16.0);  // the compute roof

  // "ai": inf would be invalid JSON; the emitter must produce null and the
  // whole document must still parse.
  RunReport rep;
  rep.tool = "t";
  rep.entries.push_back({r, a});
  const std::string json = rep.to_json();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  const report::Json doc = report::parse_json(json);
  const report::Json& attr =
      doc.at("entries").array.at(0).at("attribution");
  EXPECT_TRUE(attr.at("arith_intensity").is_null());
  EXPECT_EQ(attr.at("degenerate").string, "zero_dram_bytes");
}

// --------------------------------------------------- JSON round-trip -------

/// A report with one entry and one cell in each section, in the v1 layout:
/// each section's field order and line breaks.
const char* const kSampleReport = R"({
  "schema": "vlacnn.report.v1",
  "tool": "sample",
  "wall_ms": 12.5,
  "roofline": {"flops_per_lane_per_cycle": 2, "mem_bytes_per_cycle": 6.4000000000000004},
  "entries": [
    {"key": "vgg16/L02/gemm6/vlen1024/l2:4194304/lanes8/int", "net": "vgg16", "layer": 2, "algo": "gemm6", "vlen_bits": 1024, "l2_bytes": 4194304, "lanes": 8, "attach": "int",
     "desc": {"ic": 64, "ih": 112, "iw": 112, "oc": 128, "kh": 3, "kw": 3, "stride": 1, "pad": 1},
     "cycles": 123456789.5, "avg_vl": 31.75, "l2_miss_rate": 0.125, "mem_bytes": 4194304, "flops": 1849688064,
     "breakdown": {"compute_cycles": 80000000, "mem_issue_cycles": 20000000, "mem_stall_cycles": 15000000, "scalar_cycles": 8456789.5, "vec_instructions": 3500000, "vec_elems": 110000000, "l1_accesses": 4000000, "l1_misses": 200000, "l2_accesses": 200000, "l2_misses": 25000},
     "attribution": {"vec_utilization": 0.11137500056244375, "arith_intensity": 441, "achieved_flops_per_cycle": 14.98247339406149, "attainable_flops_per_cycle": 16, "roofline_efficiency": 0.93640458712884311, "l1_miss_rate": 0.050000000000000003, "l2_miss_rate": 0.125, "bound": "compute", "degenerate": ""}}
  ],
  "serving": [
    {"cores": 16, "vlen_bits": 2048, "l2_total_bytes": 67108864, "instances": 4, "cycles_per_image": 550000000, "images_per_cycle": 7.2727272727272728e-09, "area_mm2": 12.625}
  ],
  "request_sim": [
    {"cores": 4, "vlen_bits": 1024, "l2_total_bytes": 16777216, "instances": 2, "policy": "adaptive8@2e+06", "arrivals": "poisson",
     "load_rps": 20, "slo_cycles": 8000000000, "offered": 500, "completed": 498, "dropped": 2,
     "p50": 1250000000, "p95": 2500000000, "p99": 3000000000, "p999": 3500000000, "mean_latency": 1500000000,
     "utilization": 0.625, "mean_queue": 1.75, "slo_attainment": 0.996,
     "mean_queue_wait": 142857142.85714287, "mean_formation_wait": 0, "mean_service": 1357142857.1428571}
  ],
  "dispatch": [
    {"net": "vgg16", "cores": 4, "vlen_bits": 2048, "l2_total_bytes": 8388608, "instances": 2,
     "layers": 13, "mispredicted_layers": 3, "batches": 917, "images": 3668, "explorations": 41,
     "learned_conv_cycles": 0.14285714285714285, "oracle_conv_cycles": 0.2857142857142857, "selector_cycles": 190736000, "oracle_gap": 0.33333333333333331}
  ],
  "timeline": [
    {"cores": 4, "vlen_bits": 1024, "l2_total_bytes": 16777216, "instances": 2, "policy": "adaptive8@2e+06", "arrivals": "poisson",
     "snapshots": 57, "interval_cycles": 1000000, "alerts": 3, "warmup_cycles": 4000000,
     "steady_p99": 0.33333333333333331, "max_burn_rate": 2.5, "time_in_alert_cycles": 7000000}
  ],
  "fleet": [
    {"label": "2xc4v2048l16i4+1xc1v512l1i1", "router": "jsq", "mix": "vgg16=0.70,yolo20=0.30", "chips": 3,
     "total_area_mm2": 41.25, "load_rps": 45, "slo_cycles": 24000000000,
     "offered": 800, "completed": 800, "dropped": 0,
     "p50": 5000000000, "p99": 11000000000, "p999": 12000000000, "mean_latency": 6000000000,
     "utilization": 0.5, "slo_attainment": 1, "mean_router_hop": 1000, "meets_slo": true}
  ],
  "phases": [
    {"key": "vgg16/L02/gemm6/vlen1024/l2:4194304/lanes8/int", "phase": "macro-kernel", "cycles": 100000000,
     "compute_cycles": 70000000, "mem_issue_cycles": 15000000, "mem_stall_cycles": 10000000, "scalar_cycles": 5000000,
     "avg_vl": 32, "l1_miss_rate": 0.0625, "l2_miss_rate": null, "mem_bytes": 3000000}
  ],
  "totals": {"entries": 1, "serving_cells": 1, "request_sim_cells": 1, "dispatch_cells": 1, "timeline_cells": 1, "fleet_cells": 1, "phase_cells": 1, "cycles": 123456789.5}
}
)";

/// summarize()'s cell tables for kSampleReport.
const char* const kSampleCellTables = R"(
 cores   vlen     l2MB  inst        cyc/img       img/Mcyc   area mm2
    16   2048     64.0     4        5.5e+08       0.007273      12.62

 cores   vlen     l2MB  inst policy               p50cyc     p99cyc    p999cyc   util   slo%
     4   1024     16.0     2 adaptive8@2e+06    1.25e+09      3e+09    3.5e+09   0.62  99.60

 cores   vlen     l2MB  inst policy            snaps   warmup_cyc    p99roll  maxburn alerts
     4   1024     16.0     2 adaptive8@2e+06      57        4e+06     0.3333    2.500      3

key                                          phase                  cycles  comp%   mem% stall%  scal% l2miss
vgg16/L02/gemm6/vlen1024/l2:4194304/lanes8/int macro-kernel            1e+08   70.0   15.0   10.0    5.0      - (100.0%)

fleet                                rtr  chips   area mm2     p50cyc     p99cyc   util   slo%   ok
2xc4v2048l16i4+1xc1v512l1i1          jsq      3       41.2      5e+09    1.1e+10   0.50 100.00  yes

net       cores   vlen     l2MB  inst layers  mispr   explored   selector     gap%
vgg16         4   2048      8.0     2     13      3         41  1.907e+08   33.333
)";

/// `j` as JSON text, for comparing cells field for field: same names, order,
/// types, and (through %.17g) bit-exact numbers.
std::string text(const report::Json& j) {
  std::string out;
  report::append_json(out, j);
  return out;
}

/// A serving-point cell's leading fields: cores, vlen_bits, l2_total_bytes,
/// instances, then the policy and arrival labels.
report::Json point_cell(int cores, std::uint64_t l2, int instances,
                        const std::string& arrivals = "poisson") {
  return report::Json()
      .add("cores", cores)
      .add("vlen_bits", 1024)
      .add("l2_total_bytes", l2)
      .add("instances", instances)
      .add("policy", "adaptive8@2e+06")
      .add("arrivals", arrivals);
}

TEST(ReportJson, EmitParseRoundTripIsExact) {
  RunReport rep;
  rep.tool = "roundtrip";
  rep.wall_ms = 12.25;
  SweepRow r1 = healthy_row(0, Algo::kGemm6);
  r1.cycles = 1.0 / 3.0;  // %.17g must survive the trip bit-exactly
  SweepRow r2 = healthy_row(1, Algo::kDirect);
  r2.bd.l2_misses = 1.0 / 7.0;
  rep.entries.push_back({r1, report::attribute(r1, rep.roofline)});
  rep.entries.push_back({r2, report::attribute(r2, rep.roofline)});
  rep.cells(Section::kServing)
      .push_back(report::Json()
                     .add("cores", 4)
                     .add("vlen_bits", 1024)
                     .add("l2_total_bytes", 16u << 20)
                     .add("instances", 4)
                     .add("cycles_per_image", 5e8)
                     .add("images_per_cycle", 8e-9)
                     .add("area_mm2", 12.5));
  rep.cells(Section::kDispatch)
      .push_back(report::Json()
                     .add("net", "vgg16")
                     .add("cores", 4)
                     .add("vlen_bits", 2048)
                     .add("l2_total_bytes", 8u << 20)
                     .add("instances", 2)
                     .add("layers", 13)
                     .add("mispredicted_layers", 3)
                     .add("batches", 917)
                     .add("images", 3668)
                     .add("explorations", 41)
                     .add("learned_conv_cycles", 1.0 / 7.0)
                     .add("oracle_conv_cycles", 2.0 / 7.0)
                     .add("selector_cycles", 4000.0 * 13 * 3668)
                     .add("oracle_gap", 1.0 / 3.0));

  const RunReport back = report::report_from_json(rep.to_json());
  EXPECT_EQ(back.tool, "roundtrip");
  EXPECT_EQ(back.wall_ms, 12.25);
  ASSERT_EQ(back.entries.size(), 2u);
  const SweepRow& b1 = back.entries[0].row;
  EXPECT_TRUE(!(b1.key < r1.key) && !(r1.key < b1.key));
  EXPECT_EQ(b1.cycles, r1.cycles);  // bit-exact, not NEAR
  EXPECT_EQ(b1.desc, r1.desc);
  EXPECT_EQ(b1.bd.vec_elems, r1.bd.vec_elems);
  EXPECT_EQ(back.entries[1].row.bd.l2_misses, r2.bd.l2_misses);
  for (Section s : report::kAllSections) {
    ASSERT_EQ(back.cells(s).size(), rep.cells(s).size());
    for (std::size_t i = 0; i < rep.cells(s).size(); ++i) {
      EXPECT_EQ(text(back.cells(s)[i]), text(rep.cells(s)[i]));
    }
  }
  const report::Json& bd = back.cells(Section::kDispatch)[0];
  EXPECT_EQ(report::num_at(bd, "learned_conv_cycles"), 1.0 / 7.0);
  EXPECT_EQ(report::uint_at(bd, "images"), 3668u);
  EXPECT_EQ(report::int_at(back.cells(Section::kServing)[0], "instances"), 4);
  EXPECT_EQ(back.total_cycles(), rep.total_cycles());
  EXPECT_NE(rep.to_json().find("\"dispatch_cells\": 1"), std::string::npos);
}

TEST(ReportJson, SampleReportRoundTripsByteForByte) {
  // Re-emitting a parsed report reproduces it, line breaks included, and
  // summarize() reads every section's fields by name into its table.
  const RunReport back = report::report_from_json(kSampleReport);
  EXPECT_EQ(back.to_json(), kSampleReport);
  const std::string summary = report::summarize(back);
  ASSERT_NE(summary.find("\n cores"), std::string::npos);
  EXPECT_EQ(summary.substr(summary.find("\n cores")), kSampleCellTables);
  // The CSV phase block is headed by the phase cells' field names.
  EXPECT_NE(back.to_csv().find(
                "\nkey,phase,cycles,compute_cycles,mem_issue_cycles,"
                "mem_stall_cycles,scalar_cycles,avg_vl,l1_miss_rate,"
                "l2_miss_rate,mem_bytes\nvgg16/L02/gemm6/vlen1024/l2:4194304/"
                "lanes8/int,macro-kernel,100000000,70000000,15000000,10000000,"
                "5000000,32,0.0625,nan,3000000\n"),
            std::string::npos);
}

TEST(ReportJson, RequestSimAttributionAndTimelineSectionsRoundTrip) {
  RunReport rep;
  rep.tool = "roundtrip_tl";
  report::Json rc = point_cell(4, 8u << 20, 2);
  rc.add("load_rps", 20.0)
      .add("slo_cycles", 8e9)
      .add("offered", 2000)
      .add("completed", 1990)
      .add("dropped", 10)
      .add("p50", 1e9)
      .add("p95", 2e9)
      .add("p99", 3e9)
      .add("p999", 4e9)
      .add("mean_latency", 3.0 / 7.0)  // %.17g must survive bit-exactly
      .add("utilization", 0.5)
      .add("mean_queue", 1.5)
      .add("slo_attainment", 0.995)
      .add("mean_queue_wait", 1.0 / 7.0)
      .add("mean_formation_wait", 1.0 / 13.0)
      .add("mean_service", 2.0 / 11.0);
  rep.cells(Section::kRequestSim).push_back(rc);
  report::Json tc = point_cell(4, 8u << 20, 2);
  tc.add("snapshots", 57)
      .add("interval_cycles", 1e6)
      .add("alerts", 3)
      .add("warmup_cycles", 4e6)
      .add("steady_p99", 1.0 / 3.0)
      .add("max_burn_rate", 2.5)
      .add("time_in_alert_cycles", 7e6);
  rep.cells(Section::kTimeline).push_back(tc);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"timeline_cells\": 1"), std::string::npos);
  const RunReport back = report::report_from_json(json);
  ASSERT_EQ(back.cells(Section::kRequestSim).size(), 1u);
  const report::Json& brc = back.cells(Section::kRequestSim)[0];
  EXPECT_EQ(text(brc), text(rc));
  EXPECT_EQ(report::num_at(brc, "mean_queue_wait"), 1.0 / 7.0);
  ASSERT_EQ(back.cells(Section::kTimeline).size(), 1u);
  const report::Json& btc = back.cells(Section::kTimeline)[0];
  EXPECT_EQ(text(btc), text(tc));
  EXPECT_EQ(report::num_at(btc, "steady_p99"), 1.0 / 3.0);  // bit-exact
  EXPECT_EQ(report::uint_at(btc, "snapshots"), 57u);
  // The summary table renders the timeline section.
  const std::string summary = report::summarize(back);
  EXPECT_NE(summary.find("adaptive8@2e+06"), std::string::npos);

  // Pre-attribution reports (no attribution keys, no timeline section) still
  // parse; their cells simply lack the attribution fields.
  RunReport old;
  old.tool = "old";
  old.cells(Section::kRequestSim).push_back(rc);
  std::string old_json = old.to_json();
  for (const char* key : {"\"mean_queue_wait\"", "\"mean_formation_wait\"",
                          "\"mean_service\""}) {
    // Rename the keys so the parser sees a file without them (unknown keys
    // are kept, but read by no one), exactly like a report written before
    // they existed.
    const std::size_t at = old_json.find(key);
    ASSERT_NE(at, std::string::npos);
    old_json.replace(at, 6, "\"gone_");
  }
  const std::size_t tl = old_json.find("  \"timeline\": [],\n");
  ASSERT_NE(tl, std::string::npos);
  old_json.erase(tl, std::string("  \"timeline\": [],\n").size());
  const RunReport oldback = report::report_from_json(old_json);
  ASSERT_EQ(oldback.cells(Section::kRequestSim).size(), 1u);
  const report::Json& oc = oldback.cells(Section::kRequestSim)[0];
  for (const char* key :
       {"mean_queue_wait", "mean_formation_wait", "mean_service"}) {
    EXPECT_EQ(oc.find(key), nullptr) << key;
  }
  EXPECT_TRUE(oldback.cells(Section::kTimeline).empty());
}

/// A kernel-phase cell of grid point `key`.
report::Json phase_cell(const std::string& key, const std::string& phase,
                        double cycles, double l1_miss_rate = 0.125,
                        double l2_miss_rate = 2.0 / 3.0) {
  return report::Json()
      .add("key", key)
      .add("phase", phase)
      .add("cycles", cycles)
      .add("compute_cycles", 1.0 / 7.0)
      .add("mem_issue_cycles", 1.0 / 11.0)
      .add("mem_stall_cycles", 1.0 / 13.0)
      .add("scalar_cycles", 1.0 / 17.0)
      .add("avg_vl", 14.5)
      .add("l1_miss_rate", l1_miss_rate)
      .add("l2_miss_rate", l2_miss_rate)
      .add("mem_bytes", 65536.0);
}

TEST(ReportJson, PhaseSectionRoundTripsWithNaNMissRates) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::string key = "vgg16/L02/gemm6/vlen512/l2:1048576/lanes8/int";
  RunReport rep;
  rep.tool = "roundtrip_ph";
  rep.cells(Section::kPhases)
      .push_back(phase_cell(key, "macro-kernel", 1.0 / 3.0));
  // A phase that issued no cache accesses has NaN miss rates.
  rep.cells(Section::kPhases).push_back(phase_cell(key, "im2col", 42.0, kNaN, kNaN));

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"phase_cells\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"l1_miss_rate\": null"), std::string::npos);
  const RunReport back = report::report_from_json(json);
  ASSERT_EQ(back.cells(Section::kPhases).size(), 2u);
  const report::Json& bp = back.cells(Section::kPhases)[0];
  EXPECT_EQ(text(bp), text(rep.cells(Section::kPhases)[0]));
  EXPECT_EQ(report::num_at(bp, "cycles"), 1.0 / 3.0);  // bit-exact, not NEAR
  // NaN serializes as JSON null and parses back as NaN, not 0.
  const report::Json& bi = back.cells(Section::kPhases)[1];
  EXPECT_TRUE(std::isnan(report::num_at(bi, "l1_miss_rate")));
  EXPECT_TRUE(std::isnan(report::num_at(bi, "l2_miss_rate")));
  // The summary table renders the phase section (and "-" for the NaN rate).
  const std::string summary = report::summarize(back);
  EXPECT_NE(summary.find("macro-kernel"), std::string::npos);
  EXPECT_NE(summary.find("im2col"), std::string::npos);
  // Pre-kernprof reports (no "phases" key) still parse with no cells.
  RunReport old;
  old.tool = "old";
  std::string old_json = old.to_json();
  const std::size_t ph = old_json.find("  \"phases\": [],\n");
  ASSERT_NE(ph, std::string::npos);
  old_json.erase(ph, std::string("  \"phases\": [],\n").size());
  EXPECT_TRUE(report::report_from_json(old_json).cells(Section::kPhases).empty());
  // CSV grows a phase block only when cells exist; NaN prints as nan there.
  EXPECT_EQ(old.to_csv().find("l1_miss_rate"), std::string::npos);
  EXPECT_NE(rep.to_csv().find("key,phase,cycles"), std::string::npos);
  EXPECT_NE(rep.to_csv().find(",im2col,42,"), std::string::npos);
  EXPECT_NE(rep.to_csv().find(",14.5,nan,nan,65536\n"), std::string::npos);
}

TEST(ReportCollector, RecordPhasesKeyedDedupAndKeyOrder) {
  report::Collector c;
  // Record keys out of order; re-record the second to confirm last-write-wins
  // replaces the whole group for that key.
  c.record(Section::kPhases,
           {phase_cell("b", "im2col", 100.0), phase_cell("b", "pack", 100.0)});
  c.record(Section::kPhases, {phase_cell("a", "im2col", 100.0)});
  c.record(Section::kPhases, {phase_cell("b", "im2col", 50.0)});
  const RunReport snap = c.snapshot("t", 0.0);
  const std::vector<report::Json>& phases = snap.cells(Section::kPhases);
  ASSERT_EQ(phases.size(), 2u);  // flattened in key order, b replaced whole
  EXPECT_EQ(report::str_at(phases[0], "key"), "a");
  EXPECT_EQ(report::num_at(phases[0], "cycles"), 100.0);
  EXPECT_EQ(report::str_at(phases[1], "key"), "b");
  EXPECT_EQ(report::num_at(phases[1], "cycles"), 50.0);
  // A group keeps its recorded order.
  c.record(Section::kPhases,
           {phase_cell("a", "pack", 1.0), phase_cell("a", "im2col", 2.0)});
  const RunReport again = c.snapshot("t", 0.0);
  ASSERT_EQ(again.cells(Section::kPhases).size(), 3u);
  EXPECT_EQ(report::str_at(again.cells(Section::kPhases)[0], "phase"), "pack");
  c.reset();
  EXPECT_TRUE(c.snapshot("t", 0.0).cells(Section::kPhases).empty());
}

TEST(ReportCollector, RecordTimelineKeyedDedup) {
  report::Collector c;
  auto timeline = [](const std::string& arrivals, double max_burn_rate) {
    return point_cell(2, 4u << 20, 1, arrivals)
        .add("max_burn_rate", max_burn_rate);
  };
  c.record(Section::kTimeline, {timeline("poisson", 0.5)});
  c.record(Section::kTimeline, {timeline("poisson", 0.25)});  // later wins
  c.record(Section::kTimeline, {timeline("closed_loop", 0.125)});  // new key
  const RunReport snap = c.snapshot("t", 0.0);
  const std::vector<report::Json>& cells = snap.cells(Section::kTimeline);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(report::num_at(cells[0], "max_burn_rate"), 0.125);  // closed_loop
  EXPECT_EQ(report::num_at(cells[1], "max_burn_rate"), 0.25);   // < poisson
}

TEST(ReportCollector, RecordDispatchKeyedDedup) {
  report::Collector c;
  auto dispatch = [](int instances, double oracle_gap) {
    return report::Json()
        .add("net", "vgg16")
        .add("cores", 2)
        .add("vlen_bits", 512)
        .add("l2_total_bytes", 4u << 20)
        .add("instances", instances)
        .add("oracle_gap", oracle_gap);
  };
  c.record(Section::kDispatch, {dispatch(1, 0.5)});
  c.record(Section::kDispatch, {dispatch(1, 0.25)});   // same key: later wins
  c.record(Section::kDispatch, {dispatch(2, 0.125)});  // different key
  const RunReport snap = c.snapshot("t", 0.0);
  const std::vector<report::Json>& cells = snap.cells(Section::kDispatch);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(report::num_at(cells[0], "oracle_gap"), 0.25);
  EXPECT_EQ(report::num_at(cells[1], "oracle_gap"), 0.125);
}

TEST(ReportCollector, KeysCompareNumbersAsNumbersAndMustBeComplete) {
  report::Collector c;
  // Text order would put cores 16 before 4, and 16 MiB before 4 MiB.
  for (int cores : {16, 4}) {
    for (std::uint64_t l2 : {16ull << 20, 4ull << 20}) {
      c.record(Section::kServing, {point_cell(cores, l2, 1)});
    }
  }
  const RunReport snap = c.snapshot("t", 0.0);
  std::vector<std::pair<int, std::uint64_t>> order;
  for (const report::Json& cell : snap.cells(Section::kServing)) {
    order.emplace_back(report::int_at(cell, "cores"),
                       report::uint_at(cell, "l2_total_bytes"));
  }
  const std::vector<std::pair<int, std::uint64_t>> want = {
      {4, 4u << 20}, {4, 16u << 20}, {16, 4u << 20}, {16, 16u << 20}};
  EXPECT_EQ(order, want);
  // A cell short of its section's key fields is a producer bug.
  EXPECT_THROW(c.record(Section::kFleet, {report::Json().add("label", "x")}),
               std::invalid_argument);
}

TEST(ReportJson, RejectsWrongSchema) {
  EXPECT_THROW(report::report_from_json("{\"schema\": \"other.v9\"}"),
               std::runtime_error);
  EXPECT_THROW(report::report_from_json("{]"), std::runtime_error);
}

/// report_from_json's error for `json`, or "" when it parses.
std::string report_error(const std::string& json) {
  try {
    report::report_from_json(json);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// kSampleReport with the first `from` replaced by `to`.
std::string sample_with(const std::string& from, const std::string& to) {
  std::string json = kSampleReport;
  const std::size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? json : json.replace(at, from.size(), to);
}

TEST(ReportJson, IntegerFieldsAreCheckedAndEntriesUnique) {
  EXPECT_EQ(report_error(kSampleReport), "");
  // A fraction, a sign or an out-of-range value in an integer field names
  // the field instead of wrapping into another grid point.
  EXPECT_EQ(report_error(sample_with("\"layer\": 2", "\"layer\": 2.5")),
            "json: key \"layer\" holds 2.5, expected a signed 32-bit integer");
  EXPECT_EQ(report_error(sample_with("\"lanes\": 8", "\"lanes\": -8")),
            "json: key \"lanes\" holds -8, expected an unsigned 32-bit integer");
  EXPECT_EQ(
      report_error(sample_with("\"l2_bytes\": 4194304", "\"l2_bytes\": -1")),
      "json: key \"l2_bytes\" holds -1, expected an unsigned 64-bit integer");
  EXPECT_EQ(report_error(sample_with("\"layer\": 2", "\"layer\": 1e30")),
            "json: key \"layer\" holds 1e+30, expected a signed 32-bit integer");
  EXPECT_NE(report_error(sample_with("\"vlen_bits\": 1024",
                                     "\"vlen_bits\": 4294967296"))
                .find("\"vlen_bits\""),
            std::string::npos);
  EXPECT_NE(report_error(sample_with("\"stride\": 1", "\"stride\": 1.5"))
                .find("\"stride\""),
            std::string::npos);
  EXPECT_NE(report_error(sample_with("\"algo\": \"gemm6\"",
                                     "\"algo\": \"gemm7\""))
                .find("gemm7"),
            std::string::npos);
  // Two rows for one grid point: the diff would compare only one of them.
  RunReport dup;
  dup.entries.push_back({healthy_row(2), report::attribute(healthy_row(2), {})});
  dup.entries.push_back(dup.entries.back());
  EXPECT_EQ(report_error(dup.to_json()),
            "report: duplicate entry "
            "tiny/L02/gemm6/vlen512/l2:1048576/lanes8/int");
  // Document-level sections must have their type, and cells must be objects.
  EXPECT_NE(report_error(sample_with("\"serving\": [", "\"serving\": 5, \"x\": [")),
            "");
  EXPECT_NE(report_error(sample_with("\"entries\": [", "\"entries\": {}, \"x\": [")),
            "");
  EXPECT_EQ(report_error(sample_with("\"fleet\": [\n", "\"fleet\": [7,\n")),
            "report: a \"fleet\" cell is not an object");

  // The accessors on their own: in range passes, at the edges too.
  const report::Json j = report::parse_json(
      "{\"neg\": -1, \"big\": 2147483648, \"max\": 4294967295, \"s\": \"x\"}");
  EXPECT_EQ(report::int_at(j, "neg"), -1);
  EXPECT_THROW(report::int_at(j, "big"), std::runtime_error);
  EXPECT_EQ(report::int_at<std::int64_t>(j, "big"), 2147483648);
  EXPECT_EQ(report::uint_at<std::uint32_t>(j, "max"), 4294967295u);
  EXPECT_THROW(report::uint_at(j, "neg"), std::runtime_error);
  EXPECT_THROW(report::uint_at(j, "s"), std::runtime_error);
  EXPECT_THROW(report::uint_at(j, "absent"), std::runtime_error);
}

TEST(ReportJson, EntryWithoutBreakdownNamesTheField) {
  // Every entry carries its row's breakdown; a null one (as reports once
  // wrote for rows that lacked it) fails naming the field.
  EXPECT_EQ(report_error(sample_with(
                "\"breakdown\": {\"compute_cycles\": 80000000, "
                "\"mem_issue_cycles\": 20000000, \"mem_stall_cycles\": "
                "15000000, \"scalar_cycles\": 8456789.5, "
                "\"vec_instructions\": 3500000, \"vec_elems\": 110000000, "
                "\"l1_accesses\": 4000000, \"l1_misses\": 200000, "
                "\"l2_accesses\": 200000, \"l2_misses\": 25000}",
                "\"breakdown\": null")),
            "json: key \"breakdown\" holds null, expected an object");
}

// ---------------------------------------------------------------- diff -----

TEST(ReportDiff, IdenticalReportsAreOk) {
  RunReport rep;
  rep.tool = "t";
  for (int i = 0; i < 3; ++i) {
    SweepRow r = healthy_row(i);
    rep.entries.push_back({r, report::attribute(r, rep.roofline)});
  }
  const DiffResult d = report::diff_reports(rep, rep, DiffOptions{});
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.compared, 3u);
  EXPECT_TRUE(d.regressions.empty());
  EXPECT_TRUE(d.improvements.empty());
  EXPECT_EQ(d.total.delta_pct, 0.0);
}

TEST(ReportDiff, TenPercentPerturbationFailsTwoPercentBudget) {
  RunReport base;
  base.tool = "t";
  for (int i = 0; i < 3; ++i) {
    SweepRow r = healthy_row(i);
    base.entries.push_back({r, report::attribute(r, base.roofline)});
  }
  RunReport cur = base;
  cur.entries[1].row.cycles *= 1.10;  // +10% on one grid point

  DiffOptions opt;  // default 2% budget
  const DiffResult d = report::diff_reports(base, cur, opt);
  EXPECT_FALSE(d.ok());
  ASSERT_EQ(d.regressions.size(), 1u);
  EXPECT_NEAR(d.regressions[0].delta_pct, 10.0, 1e-9);
  EXPECT_EQ(d.regressions[0].key,
            report::entry_key(base.entries[1].row.key));

  // A +10% *improvement* stays ok (improvements are reported, not gated).
  RunReport faster = base;
  faster.entries[1].row.cycles *= 0.90;
  const DiffResult d2 = report::diff_reports(base, faster, opt);
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(d2.improvements.size(), 1u);
}

TEST(ReportDiff, DisjointKeysReportedButNotGated) {
  RunReport base, cur;
  SweepRow a = healthy_row(0), b = healthy_row(1);
  base.entries.push_back({a, report::attribute(a, base.roofline)});
  cur.entries.push_back({b, report::attribute(b, cur.roofline)});
  const DiffResult d = report::diff_reports(base, cur, DiffOptions{});
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.compared, 0u);
  ASSERT_EQ(d.only_base.size(), 1u);
  ASSERT_EQ(d.only_cur.size(), 1u);
}

TEST(ReportDiff, WallGatingIsOptIn) {
  RunReport base, cur;
  base.wall_ms = 100;
  cur.wall_ms = 200;  // +100% wall
  EXPECT_TRUE(report::diff_reports(base, cur, DiffOptions{}).ok());
  DiffOptions opt;
  opt.wall_budget_pct = 50;
  EXPECT_FALSE(report::diff_reports(base, cur, opt).ok());
}

// ----------------------------------------------------------- collector -----

TEST(ReportCollector, SlugifyTitles) {
  EXPECT_EQ(report::slugify("Fig 1: per-layer algorithm comparison, VGG-16"),
            "fig_1_per_layer_algorithm_comparison_vgg_16");
  EXPECT_EQ(report::slugify("  --  "), "report");
  EXPECT_EQ(report::slugify("plain"), "plain");
}

TEST_F(ReportTest, SnapshotIsDeterministicAcrossRecordOrder) {
  auto& c = report::Collector::global();
  const SweepRow r0 = healthy_row(0), r1 = healthy_row(1),
                 r2 = healthy_row(2);
  const report::Json s4 = point_cell(4, 4u << 20, 4).add("area_mm2", 3.5);
  const report::Json s1 = point_cell(1, 1u << 20, 1).add("area_mm2", 1.5);
  c.record_row(r1);
  c.record_row(r0);
  c.record_row(r2);
  c.record(Section::kServing, {s4});
  c.record(Section::kServing, {s1});
  const std::string json_a = c.snapshot("t", 0).to_json();

  c.reset();
  c.record_row(r2);
  c.record(Section::kServing, {s1});
  c.record_row(r0);
  c.record(Section::kServing, {s4});
  c.record_row(r1);
  const std::string json_b = c.snapshot("t", 0).to_json();
  EXPECT_EQ(json_a, json_b);  // byte-identical regardless of arrival order
}

TEST_F(ReportTest, WriteReportFilesEmitsJsonAndCsv) {
  report::set_report_dir(dir_.string());
  ASSERT_TRUE(report::enabled());
  report::Collector::global().record_row(healthy_row());
  const std::string json_path =
      report::write_report_files("My Fancy Title!", 42.5);
  EXPECT_EQ(json_path, (dir_ / "my_fancy_title.report.json").string());
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const RunReport back = report::report_from_json(text);
  EXPECT_EQ(back.tool, "my_fancy_title");
  EXPECT_EQ(back.wall_ms, 42.5);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_TRUE(
      std::filesystem::exists(dir_ / "my_fancy_title.report.csv"));
  // summarize() must render every report without tripping on content.
  EXPECT_NE(report::summarize(back).find("TOTAL"), std::string::npos);
}

// /dev/full opens fine and fails every write with ENOSPC: a writer that only
// checks the open reports success and loses the file. Each whole-file writer
// must throw naming the path instead, and a sweep row whose persist fails
// must stay uncached.
TEST_F(ReportTest, WritersNameThePathOnAFullDevice) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "needs /dev/full";
  }
  const auto expect_short_write = [](const std::string& path, auto write) {
    try {
      write();
      ADD_FAILURE() << "reported success writing " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("short write to " + path),
                std::string::npos)
          << e.what();
    }
  };
  report::set_report_dir(dir_.string());
  report::Collector::global().record_row(healthy_row());
  for (const char* ext : {".report.json", ".report.csv"}) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::filesystem::path link = dir_ / (std::string("full") + ext);
    std::filesystem::create_symlink("/dev/full", link);
    expect_short_write(link.string(),
                       [] { report::write_report_files("full", 1.0); });
  }

  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}};
  expect_short_write("/dev/full",
                     [&] { write_csv_file("/dev/full", table); });

  const std::string cache = (dir_ / "cache.csv").string();
  ResultsDb db(cache);
  std::filesystem::create_symlink("/dev/full", cache);
  const SweepRow row = healthy_row();
  expect_short_write(cache, [&] {
    db.get_or_compute(row.key, [&] { return row; });
  });
  EXPECT_FALSE(db.find(row.key).has_value());
}

// --------------------------------------- sweep driver integration ----------

TEST_F(ReportTest, SweepFillsBreakdownAndCollectorReconciles) {
  report::set_report_dir(dir_.string());
  ResultsDb db((dir_ / "cache.csv").string());
  SweepDriver driver(&db);
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  for (Algo a : kAllAlgos) {
    driver.get("tiny", 0, d, a, 512, 1u << 20);
  }
  const RunReport rep = report::Collector::global().snapshot("t", 0);
  ASSERT_EQ(rep.entries.size(), kAllAlgos.size());
  for (const report::ReportEntry& e : rep.entries) {
    // The recorded cycle split must reconcile with the row's total.
    const SweepBreakdown& bd = e.row.bd;
    const double sum = bd.compute_cycles + bd.mem_issue_cycles +
                       bd.mem_stall_cycles + bd.scalar_cycles;
    EXPECT_NEAR(sum, e.row.cycles, e.row.cycles * 1e-9)
        << report::entry_key(e.row.key);
    EXPECT_TRUE(e.attr.degenerate.empty());
  }
}

TEST_F(ReportTest, ParallelSweepReportMatchesSerialReport) {
  // With reporting enabled, the report a parallel fan-out produces must be
  // byte-identical to one built by serial get() calls over the same grid.
  report::set_report_dir(dir_.string());
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  const ConvLayerDesc d2{8, 16, 16, 16, 1, 1, 1, 0};

  ResultsDb serial_db((dir_ / "serial.csv").string());
  SweepDriver serial(&serial_db);
  for (int layer = 0; layer < 2; ++layer) {
    for (Algo a : {Algo::kGemm3, Algo::kGemm6}) {
      serial.get("tiny", layer, layer == 0 ? d : d2, a, 512, 1u << 20);
    }
  }
  const std::string serial_json =
      report::Collector::global().snapshot("t", 0).to_json();

  report::Collector::global().reset();
  ResultsDb par_db((dir_ / "parallel.csv").string());
  SweepDriver parallel(&par_db);
  std::vector<SweepRequest> reqs;
  for (Algo a : {Algo::kGemm3, Algo::kGemm6}) {
    for (int layer = 1; layer >= 0; --layer) {  // different order on purpose
      reqs.push_back({"tiny", layer, layer == 0 ? d : d2, a, 512, 1u << 20, 8,
                      VpuAttach::kIntegratedL1});
    }
  }
  parallel.get_many(reqs);
  const std::string parallel_json =
      report::Collector::global().snapshot("t", 0).to_json();
  EXPECT_EQ(serial_json, parallel_json);
}

// -- the labeled-JSONL reader -------------------------------------------------

/// Write `text` to a fresh temp file; returns its path.
std::string write_temp(const std::string& name, const std::string& text) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::ofstream(path) << text;
  return path.string();
}

/// read_labeled_jsonl's error for `text`, or "" when it reads cleanly. The
/// line callback reads one number field, "v", the way vlacnn-report does.
std::string jsonl_error(const std::string& text) {
  const std::string path = write_temp("vlacnn_test_jsonl_error.jsonl", text);
  try {
    report::read_labeled_jsonl(
        path, [](const std::string&) {},
        [](const report::Json& j, const std::string& type) {
          if (type != "x") return false;
          report::num_at(j, "v", 0.0);
          return true;
        });
  } catch (const std::runtime_error& e) {
    std::filesystem::remove(path);
    return std::string(e.what()).substr(path.size());
  }
  std::filesystem::remove(path);
  return "";
}

TEST(LabeledJsonl, RunLinesOpenBlocksAndAnUnlabeledHeadIsOneBlock) {
  const std::string path = write_temp(
      "vlacnn_test_jsonl_blocks.jsonl",
      "{\"type\":\"x\",\"v\":1}\n\n"
      "{\"type\":\"run\",\"label\":\"a\"}\n{\"type\":\"x\",\"v\":2}\n"
      "{\"type\":\"x\",\"v\":null}\n"
      "{\"type\":\"run\",\"label\":\"b\"}\n");
  std::vector<std::pair<std::string, std::vector<double>>> blocks;
  report::read_labeled_jsonl(
      path, [&](const std::string& label) { blocks.push_back({label, {}}); },
      [&](const report::Json& j, const std::string&) {
        blocks.back().second.push_back(report::num_at(j, "v", -1.0));
        return true;
      });
  const std::vector<std::pair<std::string, std::vector<double>>> want = {
      {"", {1}}, {"a", {2, -1}}, {"b", {}}};  // null reads as null_as
  EXPECT_EQ(blocks, want);
  std::filesystem::remove(path);
}

TEST(LabeledJsonl, EveryLineErrorNamesFileAndLine) {
  EXPECT_EQ(jsonl_error("{\"type\":\"x\",\"v\":1}\n"), "");
  EXPECT_EQ(jsonl_error("{\"type\":\"x\",\"v\":1}\n{\"type\":\"x\",\"v\":"),
            ":2: json parse error at offset 16: unexpected end of input");
  EXPECT_EQ(jsonl_error("{\"type\":\"x\"}\n"),
            ":1: json: missing required key \"v\"");
  EXPECT_EQ(jsonl_error("{\"type\":\"y\"}\n"), ":1: unknown line type 'y'");
  EXPECT_EQ(jsonl_error("{\"type\":\"run\",\"label\":7}\n"),
            ":1: json: key \"label\" holds a number, expected a string");
  EXPECT_EQ(jsonl_error("{\"type\":7}\n"),
            ":1: json: key \"type\" holds a number, expected a string");
  // A number field holding anything but a number (or null) is an error.
  for (const char* v : {"\"x\"", "true", "[1]", "{}"}) {
    EXPECT_NE(jsonl_error(std::string("{\"type\":\"x\",\"v\":") + v + "}"),
              "")
        << v;
  }
  EXPECT_EQ(jsonl_error("{\"type\":\"x\",\"v\":\"x\"}"),
            ":1: json: key \"v\" holds a string, expected a number");
  // A number is one RFC 8259 token, converted whole: a token with a tail is
  // a parse error, not its prefix (97338839-7.95 used to read as 97338839).
  for (const char* v : {"97338839-7.953200221", "1.0.0", "+8", ".5", "01",
                        "1.", "1e", "1e+", "2-1"}) {
    EXPECT_NE(jsonl_error(std::string("{\"type\":\"x\",\"v\":") + v + "}")
                  .find(":1: json parse error at offset "),
              std::string::npos)
        << v;
  }
  EXPECT_EQ(jsonl_error("{\"type\":\"x\",\"v\":1e400}"),
            ":1: json parse error at offset 16: number: expected a finite "
            "number, got '1e400'");
  EXPECT_EQ(jsonl_error("{\"type\":\"x\",\"v\":-0.5E+3}"), "");
}

TEST(LabeledJsonl, DeepNestingFailsWithAnOffsetNotAStackOverflow) {
  const std::string deep(1000000, '[');
  try {
    report::parse_json(deep);
    ADD_FAILURE() << "a million open brackets parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "json parse error at offset 64: nesting deeper "
                           "than 64 levels");
  }
  // The cap sits far above any artifact's depth (about 4).
  EXPECT_NO_THROW(
      report::parse_json(std::string(64, '[') + std::string(64, ']')));
  EXPECT_THROW(report::report_from_json(deep), std::runtime_error);
  EXPECT_EQ(jsonl_error("{\"type\":\"x\",\"v\":1}\n" + deep),
            ":2: json parse error at offset 64: nesting deeper than 64 levels");
}

// -- seeded mutation fuzz of the report, labeled-JSONL and sweep-cache readers

/// Timeline, request-trace and kernel-profile lines in the labeled-JSONL
/// format, with the fields vlacnn-report reads.
const char* const kSampleJsonl =
    R"({"type":"run","label":"cores4/vlen1024/l2:16777216/inst2/nobatch/poisson"}
{"type":"header","interval_cycles":1000000,"slo_cycles":8000000000,"instances":2}
{"type":"snapshot","t_start":0,"t_end":1000000,"arrivals":3,"drops":0,"dispatches":2,"completions":2,"queue_depth":1,"in_flight":1,"mean_queue":0.5,"utilization":0.625,"rolling_p99":3000000,"rolling_count":2,"burn_short":0,"burn_long":null,"alert":false,"cum_offered":3,"cum_completed":2,"cum_dropped":0}
{"type":"alert","t":2000000,"burn_rate":2.5}
{"type":"run","label":"fleet/1xc4v1024l16i2/jsq/poisson"}
{"type":"header","slo_cycles":8000000000,"offered":2,"completed":2,"dropped":0,"violations":1}
{"type":"exemplar","bucket_upper":128.5,"latency":110,"id":7}
{"type":"request","id":7,"arrival":0,"dispatch":10,"completion":110,"latency":110,"queue_wait":10,"formation_wait":0,"service":100,"router_hop":0,"chip":1,"batch":2,"instance":-1,"dropped":false,"within_slo":true,"keep":"slow","layers":[{"name":"conv1/gemm6","cycles":60},{"name":"conv2/direct","cycles":40}],"notes":[{"k":"explore","v":"none"}]}
{"type":"run","label":"vgg16/L02/gemm6/vlen1024/l2:4194304/lanes8/int"}
{"type":"kernel","net":"vgg16","layer":2,"algo":"gemm6","vlen_bits":1024,"l2_bytes":4194304,"lanes":8,"attach":"int","interval_cycles":1000000,"cycles":100,"compute_cycles":70,"mem_issue_cycles":15,"mem_stall_cycles":10,"scalar_cycles":5}
{"type":"phase","name":"macro-kernel","cycles":100,"raw_cycles":100,"compute_cycles":70,"mem_issue_cycles":15,"mem_stall_cycles":10,"scalar_cycles":5,"vec_instructions":8,"vec_elems":256,"avg_vl":32,"flops":4096,"l1_accesses":64,"l1_misses":4,"l2_accesses":4,"l2_misses":1,"mem_bytes":256}
{"type":"window","t_start":0,"t_end":100,"compute_cycles":70,"mem_issue_cycles":15,"mem_stall_cycles":10,"scalar_cycles":5,"avg_vl":32,"lane_utilization":0.5,"l1_miss_rate":0.0625,"l2_miss_rate":0.25,"dram_bytes_per_cycle":2.56}
)";

/// Reads a labeled-JSONL line the way vlacnn-report's loaders do, by type:
/// 'n' a number (null reads as 0), 'u' a count, 'i' a signed int (an index
/// that may be -1), 'b' a bool, 's' a string, 'a' layer segments.
bool read_like_vlacnn_report(const report::Json& j, const std::string& type) {
  static const std::map<std::string,
                        std::vector<std::pair<const char*, char>>>
      kReads = {
          {"header",
           {{"slo_cycles", 'n'}}},
          {"snapshot",
           {{"t_end", 'n'}, {"arrivals", 'u'}, {"queue_depth", 'u'},
            {"in_flight", 'i'}, {"burn_long", 'n'}, {"alert", 'b'},
            {"cum_dropped", 'u'}}},
          {"alert", {{"t", 'n'}, {"burn_rate", 'n'}}},
          {"exemplar", {{"latency", 'n'}, {"id", 'u'}}},
          {"request",
           {{"id", 'u'}, {"latency", 'n'}, {"chip", 'i'}, {"batch", 'i'},
            {"instance", 'i'}, {"dropped", 'b'}, {"keep", 's'},
            {"layers", 'a'}}},
          {"kernel",
           {{"net", 's'}, {"layer", 'i'}, {"vlen_bits", 'u'},
            {"l2_bytes", 'u'}, {"lanes", 'u'}, {"cycles", 'n'}}},
          {"phase",
           {{"name", 's'}, {"cycles", 'n'}, {"vec_elems", 'n'},
            {"mem_bytes", 'n'}}},
          {"window", {{"t_end", 'n'}, {"l2_miss_rate", 'n'}}},
      };
  const auto reads = kReads.find(type);
  if (reads == kReads.end()) return false;
  for (const auto& [key, kind] : reads->second) {
    switch (kind) {
      case 'n': report::num_at(j, key, 0.0); break;
      case 'u': report::uint_at(j, key); break;
      case 'i': report::int_at(j, key); break;
      case 'b': report::bool_at(j, key); break;
      case 's': report::str_at(j, key); break;
      default:
        for (const report::Json& seg : report::array_at(j, key)) {
          report::str_at(seg, "name");
          report::num_at(seg, "cycles", 0.0);
        }
    }
  }
  return true;
}

/// One random edit: a bit flip, a deletion, a duplicated span, a truncation,
/// a digit replaced by '-', '.' or "e99", or a run of '['.
void mutate(Rng& rng, std::string& s) {
  if (s.empty()) {
    s = "[";
    return;
  }
  const std::size_t at = rng.next_below(s.size());
  switch (rng.next_below(8)) {
    case 0: s[at] = static_cast<char>(s[at] ^ (1 << rng.next_below(8))); break;
    case 1: s.erase(at, 1 + rng.next_below(16)); break;
    case 2: s.insert(at, s.substr(at, 1 + rng.next_below(64))); break;
    case 3: s.resize(at); break;
    case 7: s.insert(at, std::string(1 + rng.next_below(128), '[')); break;
    default: {
      const std::size_t digit = s.find_first_of("0123456789", at);
      if (digit != std::string::npos) {
        static const char* const kJunk[] = {"-", ".", "e99"};
        s.replace(digit, 1, kJunk[rng.next_below(3)]);
      }
    }
  }
}

TEST(ReaderFuzz, MutantsParseOrThrowRuntimeError) {
  // Every mutant must parse (a report then also summarizes) or throw
  // std::runtime_error: no other exception, crash, hang or sanitizer report.
  // The seed is fixed, so a failing mutant reproduces.
  Rng rng(20261017);
  const std::string path = write_temp("vlacnn_test_fuzz.jsonl", "");
  constexpr int kMutants = 10000;
  int reports_read = 0, jsonl_read = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string doc = kSampleReport;
    std::string jsonl = kSampleJsonl;
    for (int edits = 1 + static_cast<int>(rng.next_below(3)); edits > 0;
         --edits) {
      mutate(rng, doc);
      mutate(rng, jsonl);
    }
    try {
      report::summarize(report::report_from_json(doc));
      ++reports_read;
    } catch (const std::runtime_error&) {
    }
    std::ofstream(path, std::ios::trunc) << jsonl;
    try {
      report::read_labeled_jsonl(
          path, [](const std::string&) {}, read_like_vlacnn_report);
      ++jsonl_read;
    } catch (const std::runtime_error&) {
    }
  }
  std::filesystem::remove(path);
  // Both kinds of outcome occur, so the fuzz reaches past the parser.
  EXPECT_GT(reports_read, kMutants / 20);
  EXPECT_LT(reports_read, kMutants);
  EXPECT_GT(jsonl_read, kMutants / 20);
  EXPECT_LT(jsonl_read, kMutants);
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// True when `msg` names `path:<line>:`.
bool names_path_line(const std::string& msg, const std::string& path) {
  const std::size_t at = msg.find(path + ":");
  if (at == std::string::npos) return false;
  std::size_t i = at + path.size() + 1;
  const std::size_t digits_from = i;
  while (i < msg.size() && msg[i] >= '0' && msg[i] <= '9') ++i;
  return i > digits_from && i < msg.size() && msg[i] == ':';
}

TEST(ReaderFuzz, SweepCacheMutantsLoadHealOrThrowNamingTheLine) {
  // Every mutant of a cache in the committed format loads (healing a torn
  // tail) or throws std::runtime_error naming path:line. A mutant that heals
  // reloads to the same rows: a torn tail appended to its rewrite forces one
  // more rewrite, which must reproduce the first byte for byte.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vlacnn_test_fuzz_cache_" + std::to_string(::getpid()) + ".csv"))
          .string();
  std::filesystem::remove(path);
  {
    ResultsDb db(path);
    for (int i = 0; i < 20; ++i) {
      SweepRow r = healthy_row(i, kAllAlgos[i % 4]);
      r.key.vlen_bits = 512u << (i % 4);
      r.key.l2_bytes = (1ull << 20) << (i % 7);
      r.cycles = 97338839.953200221 * (i + 1);
      r.l2_miss_rate = 0.49136542951466489 / (i + 1);
      db.get_or_compute(r.key, [&] { return r; });
    }
  }
  const std::string cache = read_text(path);
  Rng rng(20261018);
  constexpr int kMutants = 8000;
  int loaded = 0, healed = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = cache;
    for (int edits = 1 + static_cast<int>(rng.next_below(3)); edits > 0;
         --edits) {
      mutate(rng, text);
    }
    std::ofstream(path, std::ios::trunc) << text;
    std::size_t rows = 0;
    try {
      const ResultsDb db(path);
      ++loaded;
      if (!db.healed_on_load()) continue;
      rows = db.size();
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(names_path_line(e.what(), path)) << e.what();
      continue;
    }
    ++healed;
    const std::string rewrite = read_text(path);
    std::ofstream(path, std::ios::app) << "x";
    const ResultsDb again(path);
    EXPECT_TRUE(again.healed_on_load());
    EXPECT_EQ(again.size(), rows);
    EXPECT_EQ(read_text(path), rewrite) << text;
  }
  std::filesystem::remove(path);
  // Mutants load clean, heal and throw, so the fuzz reaches every outcome.
  EXPECT_GT(healed, kMutants / 20);
  EXPECT_GT(loaded - healed, kMutants / 50);
  EXPECT_LT(loaded, kMutants);
}

}  // namespace
}  // namespace vlacnn
