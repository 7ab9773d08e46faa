// Report subsystem: attribution math (including the degenerate-input guards),
// roofline classification, JSON emit/parse round-trip, the baseline diff the
// regression gate runs on, collector determinism, and the sweep driver's
// breakdown threading (cold fill + lazy upgrade of v1 rows).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

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
  r.has_breakdown = true;
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

TEST(ReportAttribution, MissingBreakdownLabeled) {
  SweepRow r = healthy_row();
  r.has_breakdown = false;
  const Attribution a = report::attribute(r, RooflineParams{});
  EXPECT_EQ(a.degenerate, "missing_breakdown");
  EXPECT_TRUE(std::isnan(a.vec_utilization));
  EXPECT_TRUE(std::isnan(a.l1_miss_rate));
  EXPECT_EQ(a.bound, Bound::kCompute);  // headline AI is still classifiable

  RunReport rep;
  rep.tool = "t";
  rep.entries.push_back({r, a});
  const report::Json doc = report::parse_json(rep.to_json());
  const report::Json& e = doc.at("entries").array.at(0);
  EXPECT_TRUE(e.at("breakdown").is_null());
  EXPECT_TRUE(e.at("attribution").at("vec_utilization").is_null());
}

// --------------------------------------------------- JSON round-trip -------

TEST(ReportJson, EmitParseRoundTripIsExact) {
  RunReport rep;
  rep.tool = "roundtrip";
  rep.wall_ms = 12.25;
  SweepRow r1 = healthy_row(0, Algo::kGemm6);
  r1.cycles = 1.0 / 3.0;  // %.17g must survive the trip bit-exactly
  SweepRow r2 = healthy_row(1, Algo::kDirect);
  r2.has_breakdown = false;
  rep.entries.push_back({r1, report::attribute(r1, rep.roofline)});
  rep.entries.push_back({r2, report::attribute(r2, rep.roofline)});
  rep.serving.push_back({4, 1024, 16u << 20, 4, 5e8, 8e-9, 12.5});
  report::DispatchCell dc;
  dc.net = "vgg16";
  dc.cores = 4;
  dc.vlen_bits = 2048;
  dc.l2_total_bytes = 8u << 20;
  dc.instances = 2;
  dc.layers = 13;
  dc.mispredicted_layers = 3;
  dc.batches = 917;
  dc.images = 3668;
  dc.explorations = 41;
  dc.learned_conv_cycles = 1.0 / 7.0;  // %.17g must survive bit-exactly
  dc.oracle_conv_cycles = 2.0 / 7.0;
  dc.selector_cycles = 4000.0 * 13 * 3668;
  dc.oracle_gap = 1.0 / 3.0;
  rep.dispatch.push_back(dc);

  const RunReport back = report::report_from_json(rep.to_json());
  EXPECT_EQ(back.tool, "roundtrip");
  EXPECT_EQ(back.wall_ms, 12.25);
  ASSERT_EQ(back.entries.size(), 2u);
  const SweepRow& b1 = back.entries[0].row;
  EXPECT_TRUE(!(b1.key < r1.key) && !(r1.key < b1.key));
  EXPECT_EQ(b1.cycles, r1.cycles);  // bit-exact, not NEAR
  EXPECT_EQ(b1.desc, r1.desc);
  ASSERT_TRUE(b1.has_breakdown);
  EXPECT_EQ(b1.bd.vec_elems, r1.bd.vec_elems);
  EXPECT_FALSE(back.entries[1].row.has_breakdown);
  ASSERT_EQ(back.serving.size(), 1u);
  EXPECT_EQ(back.serving[0].cycles_per_image, 5e8);
  EXPECT_EQ(back.serving[0].instances, 4);
  ASSERT_EQ(back.dispatch.size(), 1u);
  const report::DispatchCell& bd = back.dispatch[0];
  EXPECT_EQ(bd.net, dc.net);
  EXPECT_EQ(bd.cores, dc.cores);
  EXPECT_EQ(bd.vlen_bits, dc.vlen_bits);
  EXPECT_EQ(bd.l2_total_bytes, dc.l2_total_bytes);
  EXPECT_EQ(bd.instances, dc.instances);
  EXPECT_EQ(bd.layers, dc.layers);
  EXPECT_EQ(bd.mispredicted_layers, dc.mispredicted_layers);
  EXPECT_EQ(bd.batches, dc.batches);
  EXPECT_EQ(bd.images, dc.images);
  EXPECT_EQ(bd.explorations, dc.explorations);
  EXPECT_EQ(bd.learned_conv_cycles, dc.learned_conv_cycles);
  EXPECT_EQ(bd.oracle_conv_cycles, dc.oracle_conv_cycles);
  EXPECT_EQ(bd.selector_cycles, dc.selector_cycles);
  EXPECT_EQ(bd.oracle_gap, dc.oracle_gap);
  EXPECT_EQ(back.total_cycles(), rep.total_cycles());
  EXPECT_NE(rep.to_json().find("\"dispatch_cells\": 1"), std::string::npos);
}

TEST(ReportJson, RequestSimAttributionAndTimelineCellsRoundTrip) {
  RunReport rep;
  rep.tool = "roundtrip_tl";
  report::RequestSimCell rc;
  rc.cores = 4;
  rc.vlen_bits = 1024;
  rc.l2_total_bytes = 8u << 20;
  rc.instances = 2;
  rc.policy = "adaptive8@2e+06";
  rc.arrivals = "poisson";
  rc.offered = 2000;
  rc.completed = 1990;
  rc.dropped = 10;
  rc.mean_latency = 3.0 / 7.0;  // %.17g must survive bit-exactly
  rc.mean_queue_wait = 1.0 / 7.0;
  rc.mean_formation_wait = 1.0 / 13.0;
  rc.mean_service = 2.0 / 11.0;
  rep.request_sim.push_back(rc);
  report::TimelineCell tc;
  tc.cores = 4;
  tc.vlen_bits = 1024;
  tc.l2_total_bytes = 8u << 20;
  tc.instances = 2;
  tc.policy = "adaptive8@2e+06";
  tc.arrivals = "poisson";
  tc.snapshots = 57;
  tc.interval_cycles = 1e6;
  tc.alerts = 3;
  tc.warmup_cycles = 4e6;
  tc.steady_p99 = 1.0 / 3.0;
  tc.max_burn_rate = 2.5;
  tc.time_in_alert_cycles = 7e6;
  rep.timeline.push_back(tc);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"timeline_cells\": 1"), std::string::npos);
  const RunReport back = report::report_from_json(json);
  ASSERT_EQ(back.request_sim.size(), 1u);
  EXPECT_EQ(back.request_sim[0].mean_queue_wait, rc.mean_queue_wait);
  EXPECT_EQ(back.request_sim[0].mean_formation_wait, rc.mean_formation_wait);
  EXPECT_EQ(back.request_sim[0].mean_service, rc.mean_service);
  ASSERT_EQ(back.timeline.size(), 1u);
  const report::TimelineCell& bt = back.timeline[0];
  EXPECT_EQ(bt.cores, tc.cores);
  EXPECT_EQ(bt.vlen_bits, tc.vlen_bits);
  EXPECT_EQ(bt.l2_total_bytes, tc.l2_total_bytes);
  EXPECT_EQ(bt.instances, tc.instances);
  EXPECT_EQ(bt.policy, tc.policy);
  EXPECT_EQ(bt.arrivals, tc.arrivals);
  EXPECT_EQ(bt.snapshots, tc.snapshots);
  EXPECT_EQ(bt.interval_cycles, tc.interval_cycles);
  EXPECT_EQ(bt.alerts, tc.alerts);
  EXPECT_EQ(bt.warmup_cycles, tc.warmup_cycles);
  EXPECT_EQ(bt.steady_p99, tc.steady_p99);  // bit-exact, not NEAR
  EXPECT_EQ(bt.max_burn_rate, tc.max_burn_rate);
  EXPECT_EQ(bt.time_in_alert_cycles, tc.time_in_alert_cycles);
  // The summary table renders the timeline section.
  const std::string text = report::summarize(back);
  EXPECT_NE(text.find("adaptive8@2e+06"), std::string::npos);

  // Pre-attribution reports (no attribution keys, no timeline section) still
  // parse, with the new fields defaulting to zero.
  RunReport old;
  old.tool = "old";
  report::RequestSimCell oc;
  oc.policy = "nobatch";
  oc.arrivals = "poisson";
  old.request_sim.push_back(oc);
  std::string old_json = old.to_json();
  for (const char* key : {"\"mean_queue_wait\"", "\"mean_formation_wait\"",
                          "\"mean_service\""}) {
    // Rename the keys so the parser sees a file without them (unknown keys
    // are ignored), exactly like a report written before they existed.
    const std::size_t at = old_json.find(key);
    ASSERT_NE(at, std::string::npos);
    old_json.replace(at, 6, "\"gone_");
  }
  const RunReport oldback = report::report_from_json(old_json);
  ASSERT_EQ(oldback.request_sim.size(), 1u);
  EXPECT_EQ(oldback.request_sim[0].mean_queue_wait, 0.0);
  EXPECT_EQ(oldback.request_sim[0].mean_service, 0.0);
}

TEST(ReportJson, PhaseCellsRoundTripWithNaNMissRates) {
  RunReport rep;
  rep.tool = "roundtrip_ph";
  report::PhaseCell pc;
  pc.key = "vgg16/L02/gemm6/vlen512/l2:1048576/lanes8/int";
  pc.phase = "macro-kernel";
  pc.cycles = 1.0 / 3.0;  // %.17g must survive bit-exactly
  pc.compute_cycles = 1.0 / 7.0;
  pc.mem_issue_cycles = 1.0 / 11.0;
  pc.mem_stall_cycles = 1.0 / 13.0;
  pc.scalar_cycles = 1.0 / 17.0;
  pc.avg_vl = 14.5;
  pc.l1_miss_rate = 0.125;
  pc.l2_miss_rate = 2.0 / 3.0;
  pc.mem_bytes = 65536.0;
  rep.phases.push_back(pc);
  report::PhaseCell im2col;  // a phase that issued no cache accesses
  im2col.key = pc.key;
  im2col.phase = "im2col";
  im2col.cycles = 42.0;
  im2col.l1_miss_rate = std::numeric_limits<double>::quiet_NaN();
  im2col.l2_miss_rate = std::numeric_limits<double>::quiet_NaN();
  rep.phases.push_back(im2col);

  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"phase_cells\": 2"), std::string::npos);
  const RunReport back = report::report_from_json(json);
  ASSERT_EQ(back.phases.size(), 2u);
  const report::PhaseCell& bp = back.phases[0];
  EXPECT_EQ(bp.key, pc.key);
  EXPECT_EQ(bp.phase, pc.phase);
  EXPECT_EQ(bp.cycles, pc.cycles);  // bit-exact, not NEAR
  EXPECT_EQ(bp.compute_cycles, pc.compute_cycles);
  EXPECT_EQ(bp.mem_issue_cycles, pc.mem_issue_cycles);
  EXPECT_EQ(bp.mem_stall_cycles, pc.mem_stall_cycles);
  EXPECT_EQ(bp.scalar_cycles, pc.scalar_cycles);
  EXPECT_EQ(bp.avg_vl, pc.avg_vl);
  EXPECT_EQ(bp.l1_miss_rate, pc.l1_miss_rate);
  EXPECT_EQ(bp.l2_miss_rate, pc.l2_miss_rate);
  EXPECT_EQ(bp.mem_bytes, pc.mem_bytes);
  // NaN serializes as JSON null and parses back as NaN, not 0.
  EXPECT_TRUE(std::isnan(back.phases[1].l1_miss_rate));
  EXPECT_TRUE(std::isnan(back.phases[1].l2_miss_rate));
  // The summary table renders the phase section (and "-" for the NaN rate).
  const std::string text = report::summarize(back);
  EXPECT_NE(text.find("macro-kernel"), std::string::npos);
  EXPECT_NE(text.find("im2col"), std::string::npos);
  // Pre-kernprof reports (no "phases" key) still parse with no cells.
  RunReport old;
  old.tool = "old";
  const RunReport oldback = report::report_from_json(old.to_json());
  EXPECT_TRUE(oldback.phases.empty());
  // CSV grows a phase block only when cells exist.
  EXPECT_EQ(old.to_csv().find("l1_miss_rate"), std::string::npos);
  EXPECT_NE(rep.to_csv().find("key,phase,cycles"), std::string::npos);
}

TEST(ReportCollector, RecordPhasesKeyedDedupAndKeyOrder) {
  report::Collector c;
  report::PhaseCell pc;
  pc.phase = "im2col";
  pc.cycles = 100.0;
  // Record keys out of order; re-record the second to confirm last-write-wins
  // replaces the whole vector for that key.
  pc.key = "b";
  c.record_phases("b", {pc, pc});
  pc.key = "a";
  c.record_phases("a", {pc});
  pc.key = "b";
  pc.cycles = 50.0;
  c.record_phases("b", {pc});
  const RunReport snap = c.snapshot("t", 0.0);
  ASSERT_EQ(snap.phases.size(), 2u);  // flattened in key order, b deduped
  EXPECT_EQ(snap.phases[0].key, "a");
  EXPECT_EQ(snap.phases[0].cycles, 100.0);
  EXPECT_EQ(snap.phases[1].key, "b");
  EXPECT_EQ(snap.phases[1].cycles, 50.0);
  c.reset();
  EXPECT_TRUE(c.snapshot("t", 0.0).phases.empty());
}

TEST(ReportCollector, RecordTimelineKeyedDedup) {
  report::Collector c;
  report::TimelineCell tc;
  tc.cores = 2;
  tc.vlen_bits = 512;
  tc.l2_total_bytes = 4u << 20;
  tc.instances = 1;
  tc.policy = "nobatch";
  tc.arrivals = "poisson";
  tc.max_burn_rate = 0.5;
  c.record_timeline(tc);
  tc.max_burn_rate = 0.25;  // same key: later record wins
  c.record_timeline(tc);
  tc.arrivals = "closed_loop";  // different key: second cell
  tc.max_burn_rate = 0.125;
  c.record_timeline(tc);
  const RunReport snap = c.snapshot("t", 0.0);
  ASSERT_EQ(snap.timeline.size(), 2u);
  EXPECT_EQ(snap.timeline[0].max_burn_rate, 0.125);  // closed_loop < poisson
  EXPECT_EQ(snap.timeline[1].max_burn_rate, 0.25);
}

TEST(ReportCollector, RecordDispatchKeyedDedup) {
  report::Collector c;
  report::DispatchCell dc;
  dc.net = "vgg16";
  dc.cores = 2;
  dc.vlen_bits = 512;
  dc.l2_total_bytes = 4u << 20;
  dc.instances = 1;
  dc.oracle_gap = 0.5;
  c.record_dispatch(dc);
  dc.oracle_gap = 0.25;  // same key: later record wins
  c.record_dispatch(dc);
  dc.instances = 2;  // different key: second cell
  dc.oracle_gap = 0.125;
  c.record_dispatch(dc);
  const RunReport snap = c.snapshot("t", 0.0);
  ASSERT_EQ(snap.dispatch.size(), 2u);
  EXPECT_EQ(snap.dispatch[0].oracle_gap, 0.25);
  EXPECT_EQ(snap.dispatch[1].oracle_gap, 0.125);
}

TEST(ReportJson, RejectsWrongSchema) {
  EXPECT_THROW(report::report_from_json("{\"schema\": \"other.v9\"}"),
               std::runtime_error);
  EXPECT_THROW(report::report_from_json("{]"), std::runtime_error);
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
  c.record_row(r1);
  c.record_row(r0);
  c.record_row(r2);
  c.record_serving({4, 512, 4u << 20, 4, 1e6, 4e-6, 3.5});
  c.record_serving({1, 512, 1u << 20, 1, 2e6, 0.5e-6, 1.5});
  const std::string json_a = c.snapshot("t", 0).to_json();

  c.reset();
  c.record_row(r2);
  c.record_serving({1, 512, 1u << 20, 1, 2e6, 0.5e-6, 1.5});
  c.record_row(r0);
  c.record_serving({4, 512, 4u << 20, 4, 1e6, 4e-6, 3.5});
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
    ASSERT_TRUE(e.row.has_breakdown) << report::entry_key(e.row.key);
    // The recorded cycle split must reconcile with the row's total.
    const SweepBreakdown& bd = e.row.bd;
    const double sum = bd.compute_cycles + bd.mem_issue_cycles +
                       bd.mem_stall_cycles + bd.scalar_cycles;
    EXPECT_NEAR(sum, e.row.cycles, e.row.cycles * 1e-9)
        << report::entry_key(e.row.key);
    EXPECT_TRUE(e.attr.degenerate.empty());
  }
}

TEST_F(ReportTest, V1RowsAreLazilyUpgradedOnlyWhenReportingEnabled) {
  const std::string cache = (dir_ / "cache.csv").string();
  const ConvLayerDesc d{3, 32, 32, 8, 3, 3, 1, 1};
  double v1_cycles = 0;
  {
    // Seed the cache, then strip the breakdown to emulate a v1-loaded row.
    ResultsDb db(cache);
    SweepDriver driver(&db);
    SweepRow r = driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
    v1_cycles = r.cycles;
    r.has_breakdown = false;
    r.bd = SweepBreakdown{};
    db.put(r);
  }
  {
    // Reporting disabled: the row stays breakdown-less (no hidden resim).
    ResultsDb db(cache);
    SweepDriver driver(&db);
    const SweepRow r = driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
    EXPECT_FALSE(r.has_breakdown);
  }
  {
    // Reporting enabled: get() re-simulates, persists, and the upgraded row
    // reproduces the original headline cycles bit-for-bit (the simulation is
    // deterministic).
    report::set_report_dir(dir_.string());
    ResultsDb db(cache);
    SweepDriver driver(&db);
    const SweepRow r = driver.get("tiny", 0, d, Algo::kGemm3, 512, 1u << 20);
    EXPECT_TRUE(r.has_breakdown);
    EXPECT_EQ(r.cycles, v1_cycles);
    report::set_report_dir("");
  }
  // The upgrade was persisted: a fresh (report-off) load sees the breakdown.
  ResultsDb db(cache);
  const auto hit = db.find(SweepKey{"tiny", 0, Algo::kGemm3, 512, 1u << 20, 8,
                                    VpuAttach::kIntegratedL1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->has_breakdown);
  EXPECT_GT(hit->bd.compute_cycles, 0.0);
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
}

}  // namespace
}  // namespace vlacnn
