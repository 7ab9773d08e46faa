#include "sweep/results_db.h"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "common/csv.h"
#include "obs/json_util.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace vlacnn {

namespace {

// Cache-engine instruments, resolved once. A "hit" is any request served from
// memory, a "miss" is a request that had to run the compute function, and a
// "singleflight_wait" is a request that blocked on another thread's compute.
struct DbMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& waits;
  obs::Counter& puts;
  obs::Counter& loaded_rows;
  obs::Counter& heals;

  static DbMetrics& get() {
    static DbMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return DbMetrics{reg.counter("results_db.hit"),
                       reg.counter("results_db.miss"),
                       reg.counter("results_db.singleflight_wait"),
                       reg.counter("results_db.put"),
                       reg.counter("results_db.loaded_rows"),
                       reg.counter("results_db.heal")};
    }();
    return m;
  }
};

// v1 schema: headline numbers only. Still loadable; the loader heals such
// files by rewriting them under the current header, with the breakdown
// columns left empty until a report-enabled run upgrades the row.
const std::vector<std::string> kHeaderV1 = {
    "net",     "layer",  "algo",    "vlen",        "l2_bytes",
    "lanes",   "attach", "ic",      "ih",          "iw",
    "oc",      "kh",     "kw",      "stride",      "pad",
    "cycles",  "avg_vl", "l2_miss_rate", "mem_bytes", "flops"};

// v2 schema: v1 plus the cycle-attribution breakdown. The ten breakdown
// columns are either all populated or all empty on a given row (empty =
// loaded from a v1 cache, breakdown unknown).
const std::vector<std::string> kHeader = [] {
  std::vector<std::string> h = kHeaderV1;
  const char* extra[] = {"compute_cycles", "mem_issue_cycles",
                         "mem_stall_cycles", "scalar_cycles",
                         "vec_instructions", "vec_elems",
                         "l1_accesses", "l1_misses",
                         "l2_accesses", "l2_misses"};
  h.insert(h.end(), std::begin(extra), std::end(extra));
  return h;
}();

std::vector<std::string> to_fields(const SweepRow& r) {
  std::vector<std::string> f = {
      r.key.net,
      std::to_string(r.key.layer),
      to_string(r.key.algo),
      std::to_string(r.key.vlen_bits),
      std::to_string(r.key.l2_bytes),
      std::to_string(r.key.lanes),
      r.key.attach == VpuAttach::kIntegratedL1 ? "int" : "dec",
      std::to_string(r.desc.ic),
      std::to_string(r.desc.ih),
      std::to_string(r.desc.iw),
      std::to_string(r.desc.oc),
      std::to_string(r.desc.kh),
      std::to_string(r.desc.kw),
      std::to_string(r.desc.stride),
      std::to_string(r.desc.pad),
      // %.17g round-trips every IEEE-754 double exactly: a reloaded cache is
      // bit-identical to the run that wrote it, so near-tie algorithm picks
      // in network_optimal cannot flip between cold and cached runs.
      obs::g17(r.cycles),
      obs::g17(r.avg_vl),
      obs::g17(r.l2_miss_rate),
      obs::g17(r.mem_bytes),
      obs::g17(r.flops)};
  if (r.has_breakdown) {
    for (double v : {r.bd.compute_cycles, r.bd.mem_issue_cycles,
                     r.bd.mem_stall_cycles, r.bd.scalar_cycles,
                     r.bd.vec_instructions, r.bd.vec_elems, r.bd.l1_accesses,
                     r.bd.l1_misses, r.bd.l2_accesses, r.bd.l2_misses}) {
      f.push_back(obs::g17(v));
    }
  } else {
    f.insert(f.end(), kHeader.size() - kHeaderV1.size(), std::string());
  }
  return f;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) line += ',';
    line += fields[i];
  }
  line += '\n';
  return line;
}

// Strict numeric parsers: reject trailing junk, which plain std::stoi/stod
// silently accept ("1.2e" truncated from "1.2e+07" must not parse as 1.2).
int field_int(const std::string& s) {
  std::size_t pos = 0;
  const int v = std::stoi(s, &pos);
  if (pos != s.size()) {
    throw std::invalid_argument("trailing characters in integer '" + s + "'");
  }
  return v;
}

std::uint64_t field_u64(const std::string& s) {
  std::size_t pos = 0;
  const unsigned long long v = std::stoull(s, &pos);
  if (pos != s.size()) {
    throw std::invalid_argument("trailing characters in integer '" + s + "'");
  }
  return v;
}

double field_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) {
    throw std::invalid_argument("trailing characters in number '" + s + "'");
  }
  return v;
}

SweepRow row_from_fields(const std::vector<std::string>& f) {
  SweepRow r;
  r.key.net = f[0];
  r.key.layer = field_int(f[1]);
  r.key.algo = algo_from_string(f[2]);
  r.key.vlen_bits = static_cast<std::uint32_t>(field_u64(f[3]));
  r.key.l2_bytes = field_u64(f[4]);
  r.key.lanes = static_cast<std::uint32_t>(field_u64(f[5]));
  if (f[6] != "int" && f[6] != "dec") {
    throw std::invalid_argument("bad attach '" + f[6] + "'");
  }
  r.key.attach = f[6] == "int" ? VpuAttach::kIntegratedL1
                               : VpuAttach::kDecoupledL2;
  r.desc = ConvLayerDesc{field_int(f[7]),  field_int(f[8]),  field_int(f[9]),
                         field_int(f[10]), field_int(f[11]), field_int(f[12]),
                         field_int(f[13]), field_int(f[14])};
  r.cycles = field_double(f[15]);
  r.avg_vl = field_double(f[16]);
  r.l2_miss_rate = field_double(f[17]);
  r.mem_bytes = field_double(f[18]);
  r.flops = field_double(f[19]);
  if (f.size() == kHeaderV1.size()) return r;  // v1 row: no breakdown
  std::size_t empties = 0;
  for (std::size_t i = kHeaderV1.size(); i < f.size(); ++i) {
    if (f[i].empty()) ++empties;
  }
  if (empties == kHeader.size() - kHeaderV1.size()) return r;  // unknown
  if (empties != 0) {
    throw std::invalid_argument("breakdown columns must be all set or all empty");
  }
  r.has_breakdown = true;
  r.bd.compute_cycles = field_double(f[20]);
  r.bd.mem_issue_cycles = field_double(f[21]);
  r.bd.mem_stall_cycles = field_double(f[22]);
  r.bd.scalar_cycles = field_double(f[23]);
  r.bd.vec_instructions = field_double(f[24]);
  r.bd.vec_elems = field_double(f[25]);
  r.bd.l1_accesses = field_double(f[26]);
  r.bd.l1_misses = field_double(f[27]);
  r.bd.l2_accesses = field_double(f[28]);
  r.bd.l2_misses = field_double(f[29]);
  return r;
}

}  // namespace

ResultsDb::ResultsDb(std::string path) : path_(std::move(path)) {
  CsvReadOptions opts;
  opts.tolerate_partial_tail = true;
  CsvTable t = read_csv_file(path_, opts);
  if (t.header.empty()) return;
  // An old-schema (v1) cache loads fine — the headline numbers are unchanged
  // — but is healed onto the current schema so subsequent appends line up.
  const bool old_schema = t.header == kHeaderV1;
  if (!old_schema && t.header != kHeader) {
    throw std::runtime_error("results_db: incompatible cache file " + path_ +
                             " (delete it to regenerate)");
  }
  bool heal = t.dropped_partial_tail || old_schema;
  if (!t.complete_tail && !t.dropped_partial_tail && !t.rows.empty()) {
    // Right field count but no trailing newline: the final field may have been
    // cut mid-write (put() flushes whole lines, so only a crash produces
    // this). Drop the row; it will be recomputed on demand.
    t.rows.pop_back();
    t.row_lines.pop_back();
    heal = true;
  }
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    SweepRow r;
    try {
      r = row_from_fields(t.rows[i]);
    } catch (const std::exception& e) {
      if (i + 1 == t.rows.size()) {
        // A truncated final line can keep the right field count; treat an
        // unparseable last row like a partial tail and recompute it later.
        heal = true;
        break;
      }
      throw std::runtime_error("results_db: " + path_ + ":" +
                               std::to_string(t.row_lines[i]) + ": " +
                               e.what() + " (delete the file to regenerate)");
    }
    rows_[r.key] = r;
  }
  if (heal) {
    // Rewrite the file from the surviving rows so the partial tail does not
    // corrupt subsequent appends.
    CsvTable clean;
    clean.header = kHeader;
    for (const auto& [key, row] : rows_) clean.rows.push_back(to_fields(row));
    write_csv_file(path_, clean);
    healed_on_load_ = true;
  }
  if (obs::metrics_enabled()) {
    DbMetrics& m = DbMetrics::get();
    m.loaded_rows.add(rows_.size());
    if (healed_on_load_) m.heals.add();
  }
  obs::log(obs::LogLevel::kInfo, "results_db", "loaded",
           {{"path", path_},
            {"rows", std::to_string(rows_.size())},
            {"healed", healed_on_load_ ? "true" : "false"}});
}

std::optional<SweepRow> ResultsDb::find(const SweepKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rows_.find(key);
  if (obs::metrics_enabled()) {
    (it != rows_.end() ? DbMetrics::get().hits : DbMetrics::get().misses).add();
  }
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

std::size_t ResultsDb::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rows_.size();
}

void ResultsDb::persist_locked(const SweepRow& row) {
  if (!out_.is_open()) {
    // Lazy open keeps a read-only ResultsDb from creating files. Header and
    // row boundaries were validated at load, so appending is safe.
    std::error_code ec;
    const auto existing_size = std::filesystem::file_size(path_, ec);
    const bool fresh = ec || existing_size == 0;
    if (fresh) {
      CsvTable empty;
      empty.header = kHeader;
      write_csv_file(path_, empty);  // creates parent dir + header
    }
    out_.open(path_, std::ios::app);
    if (!out_) {
      throw std::runtime_error("results_db: cannot append " + path_);
    }
  }
  // One complete line per write, flushed immediately: a crash can truncate at
  // most the final line, which the loader tolerates.
  const std::string line = join_fields(to_fields(row));
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  out_.flush();
}

void ResultsDb::put(const SweepRow& row) {
  if (obs::metrics_enabled()) DbMetrics::get().puts.add();
  std::lock_guard<std::mutex> lk(mu_);
  rows_[row.key] = row;
  persist_locked(row);
}

SweepRow ResultsDb::get_or_compute(const SweepKey& key,
                                   const std::function<SweepRow()>& compute) {
  const bool metered = obs::metrics_enabled();
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (auto it = rows_.find(key); it != rows_.end()) {
        if (metered) DbMetrics::get().hits.add();
        return it->second;
      }
      auto fit = inflight_.find(key);
      if (fit == inflight_.end()) {
        flight = std::make_shared<InFlight>();
        inflight_.emplace(key, flight);
        if (metered) DbMetrics::get().misses.add();
        break;  // this thread is the leader
      }
      // Another thread is computing this key: wait for it, then re-check.
      if (metered) DbMetrics::get().waits.add();
      std::shared_ptr<InFlight> theirs = fit->second;
      lk.unlock();
      {
        std::unique_lock<std::mutex> flk(theirs->m);
        theirs->cv.wait(flk, [&] { return theirs->done; });
        if (theirs->err) std::rethrow_exception(theirs->err);
      }
      lk.lock();
    }
  }

  SweepRow row;
  std::exception_ptr err;
  try {
    row = compute();
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!err) {
      try {
        rows_[key] = row;
        persist_locked(row);
      } catch (...) {
        rows_.erase(key);
        err = std::current_exception();
      }
    }
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> flk(flight->m);
    flight->err = err;
    flight->done = true;
    flight->cv.notify_all();
  }
  if (err) std::rethrow_exception(err);
  return row;
}

std::string default_results_path() {
  const char* dir = std::getenv("REPRO_RESULTS_DIR");
  std::string base = dir != nullptr ? dir : "results";
  return base + "/sweep_cache.csv";
}

}  // namespace vlacnn
