#include "report/collector.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "obs/json_util.h"
#include "obs/jsonl_sink.h"
#include "obs/kernprof.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace vlacnn::report {

namespace {

constinit obs::PathKnob g_dir("VLACNN_REPORT");

const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();
std::mutex g_title_mu;
std::string g_title;  // guarded by g_title_mu; "" = no title set

}  // namespace

bool enabled() { return g_dir.enabled(); }

std::string report_dir() { return g_dir.path(); }

void set_report_dir(const std::string& dir) { g_dir.set(dir); }

std::string slugify(const std::string& title) {
  std::string out;
  bool pending_sep = false;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (pending_sep && !out.empty()) out += '_';
      pending_sep = false;
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      pending_sep = true;
    }
  }
  return out.empty() ? "report" : out;
}

Collector& Collector::global() {
  static Collector c;
  return c;
}

void Collector::record_row(const SweepRow& row) {
  std::lock_guard<std::mutex> lk(mu_);
  rows_[row.key] = row;
}

bool Collector::KeyLess::operator()(const std::vector<Json>& a,
                                    const std::vector<Json>& b) const {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(), [](const Json& x, const Json& y) {
        if (x.type != y.type) return x.type < y.type;
        if (x.type == Json::Type::kString) return x.string < y.string;
        if (x.type == Json::Type::kBool) return x.boolean < y.boolean;
        return x.number < y.number;
      });
}

void Collector::record(Section s, std::vector<Json> cells) {
  if (cells.empty()) return;
  const std::size_t n = layout(s).key_fields;
  const Json& first = cells.front();
  if (first.type != Json::Type::kObject || first.object.size() < n) {
    throw std::invalid_argument(std::string("report: a ") + layout(s).name +
                                " cell needs its " + std::to_string(n) +
                                " key fields");
  }
  std::vector<Json> key;
  for (std::size_t i = 0; i < n; ++i) key.push_back(first.object[i].second);
  std::lock_guard<std::mutex> lk(mu_);
  cells_[static_cast<std::size_t>(s)][std::move(key)] = std::move(cells);
}

RunReport Collector::snapshot(const std::string& tool, double wall_ms,
                              const RooflineParams& p) const {
  RunReport r;
  r.tool = tool;
  r.wall_ms = wall_ms;
  r.roofline = p;
  std::lock_guard<std::mutex> lk(mu_);
  r.entries.reserve(rows_.size());
  for (const auto& [key, row] : rows_) {
    r.entries.push_back({row, attribute(row, p)});
  }
  for (Section s : kAllSections) {
    std::vector<Json>& out = r.cells(s);
    for (const auto& [key, group] : cells_[static_cast<std::size_t>(s)]) {
      out.insert(out.end(), group.begin(), group.end());
    }
  }
  return r;
}

void Collector::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  rows_.clear();
  for (Groups& groups : cells_) groups.clear();
}

std::size_t Collector::row_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rows_.size();
}

std::string write_report_files(const std::string& title, double wall_ms) {
  const std::string dir = report_dir();
  if (dir.empty()) {
    throw std::runtime_error("report: VLACNN_REPORT not set");
  }
  const std::string slug = slugify(title);
  const RunReport r = Collector::global().snapshot(slug, wall_ms);
  const std::string json_path = dir + "/" + slug + ".report.json";
  obs::write_text_file(json_path, r.to_json(), "report");
  obs::write_text_file(dir + "/" + slug + ".report.csv", r.to_csv(), "report");
  obs::log(obs::LogLevel::kInfo, "report", "written",
           {{"path", json_path},
            {"entries", std::to_string(r.entries.size())},
            {"serving_cells",
             std::to_string(r.cells(Section::kServing).size())}});
  return json_path;
}

void set_report_title(const std::string& title) {
  std::lock_guard<std::mutex> lk(g_title_mu);
  if (g_title.empty()) g_title = title;
}

int finish_run(const char* tool, int code) {
  bool failed = false;
  const auto attempt = [&](const auto& write) {
    try {
      write();
    } catch (const std::exception& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "%s: %s\n", tool, e.what());
      failed = true;
    }
  };
  attempt([] {
    std::lock_guard<std::mutex> lk(g_title_mu);
    if (g_title.empty() || !enabled()) return;
    using Ms = std::chrono::duration<double, std::milli>;
    const Ms wall = std::chrono::steady_clock::now() - g_process_start;
    write_report_files(g_title, wall.count());
  });
  obs::LabeledJsonlSink* const sinks[] = {&obs::TimelineSink::global(),
                                          &obs::ReqTraceSink::global(),
                                          &obs::KernProfSink::global()};
  for (obs::LabeledJsonlSink* sink : sinks) {
    attempt([sink] {
      if (sink->enabled() && sink->block_count() > 0) sink->write_file();
    });
  }
  attempt([] { obs::Tracer::global().close(); });
  obs::write_exit_report(stderr);
  return failed && code == 0 ? 1 : code;
}

int run_tool(const char* tool, const std::function<int()>& body) {
  int code = 1;
  try {
    code = body();
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
  }
  return finish_run(tool, code);
}

}  // namespace vlacnn::report
