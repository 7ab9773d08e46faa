#include "report/collector.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/json_util.h"
#include "obs/jsonl_sink.h"
#include "obs/log.h"

namespace vlacnn::report {

namespace {

constinit obs::PathKnob g_dir("VLACNN_REPORT");

std::chrono::steady_clock::time_point g_epoch;
std::mutex g_arm_mu;
std::string g_armed_title;  // guarded by g_arm_mu; "" = not armed

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

void arm_exit_report(const std::string& title) {
  if (!enabled()) return;
  // Touch the collector singleton before registering the hook: exit handlers
  // run in reverse registration order, so constructing it first (its
  // destructor registers with the same atexit machinery) guarantees it is
  // still alive when the hook below snapshots it.
  Collector::global();
  {
    std::lock_guard<std::mutex> lk(g_arm_mu);
    if (!g_armed_title.empty()) return;  // first title wins
    g_armed_title = title;
    g_epoch = std::chrono::steady_clock::now();
  }
  std::atexit([] {
    std::string title;
    {
      std::lock_guard<std::mutex> lk(g_arm_mu);
      title = g_armed_title;
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - g_epoch)
                               .count();
    try {
      write_report_files(title, wall_ms);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vlacnn report: %s\n", e.what());
    }
  });
}

}  // namespace vlacnn::report
