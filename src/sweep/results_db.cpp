#include "sweep/results_db.h"

#include <array>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "common/csv.h"
#include "common/env.h"
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
  obs::Counter& loaded_rows;
  obs::Counter& heals;

  static DbMetrics& get() {
    static DbMetrics m = [] {
      obs::Registry& reg = obs::Registry::global();
      return DbMetrics{reg.counter("results_db.hit"),
                       reg.counter("results_db.miss"),
                       reg.counter("results_db.singleflight_wait"),
                       reg.counter("results_db.loaded_rows"),
                       reg.counter("results_db.heal")};
    }();
    return m;
  }
};

// The key, the layer descriptor, the five headline numbers and the ten
// cycle-attribution breakdown numbers. Every row fills all 30 columns.
const std::vector<std::string> kHeader = {
    "net",     "layer",  "algo",    "vlen",        "l2_bytes",
    "lanes",   "attach", "ic",      "ih",          "iw",
    "oc",      "kh",     "kw",      "stride",      "pad",
    "cycles",  "avg_vl", "l2_miss_rate", "mem_bytes", "flops",
    "compute_cycles",   "mem_issue_cycles", "mem_stall_cycles",
    "scalar_cycles",    "vec_instructions", "vec_elems",
    "l1_accesses",      "l1_misses",        "l2_accesses",
    "l2_misses"};

/// A row's 15 numbers in column order: the headline values, then the
/// breakdown.
std::array<double, 15> numbers(const SweepRow& r) {
  const SweepBreakdown& d = r.bd;
  return {r.cycles,           r.avg_vl,           r.l2_miss_rate,
          r.mem_bytes,        r.flops,            d.compute_cycles,
          d.mem_issue_cycles, d.mem_stall_cycles, d.scalar_cycles,
          d.vec_instructions, d.vec_elems,        d.l1_accesses,
          d.l1_misses,        d.l2_accesses,      d.l2_misses};
}

std::vector<std::string> to_fields(const SweepRow& r) {
  std::vector<std::string> f = {
      r.key.net,
      std::to_string(r.key.layer),
      to_string(r.key.algo),
      std::to_string(r.key.vlen_bits),
      std::to_string(r.key.l2_bytes),
      std::to_string(r.key.lanes),
      to_string(r.key.attach),
      std::to_string(r.desc.ic),
      std::to_string(r.desc.ih),
      std::to_string(r.desc.iw),
      std::to_string(r.desc.oc),
      std::to_string(r.desc.kh),
      std::to_string(r.desc.kw),
      std::to_string(r.desc.stride),
      std::to_string(r.desc.pad)};
  // %.17g round-trips every IEEE-754 double exactly: a reloaded cache is
  // bit-identical to the run that wrote it, so near-tie algorithm picks in
  // network_optimal cannot flip between cold and cached runs.
  for (double v : numbers(r)) f.push_back(obs::g17(v));
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

/// One row's fields, each read by the one grammar of common/env.h: integers
/// are plain digits within their key or desc field's range, reals are finite
/// and >= 0, and an error names the field's column.
SweepRow row_from_fields(const std::vector<std::string>& f) {
  const auto i32 = [&](std::size_t i) {
    return parse_uint<int>(kHeader[i], f[i]);
  };
  const auto u32 = [&](std::size_t i) {
    return parse_uint<std::uint32_t>(kHeader[i], f[i]);
  };
  const auto real = [&](std::size_t i) {
    return parse_real(kHeader[i], f[i], kNonNegative);
  };
  SweepRow r;
  r.key.net = f[0];
  r.key.layer = i32(1);
  r.key.algo = algo_from_string(f[2]);
  r.key.vlen_bits = u32(3);
  r.key.l2_bytes = parse_uint<std::uint64_t>(kHeader[4], f[4]);
  r.key.lanes = u32(5);
  r.key.attach = static_cast<VpuAttach>(
      parse_word(kHeader[6], f[6],
                 {{kAttachWords[0], 0}, {kAttachWords[1], 1}}).value);
  r.desc = ConvLayerDesc{i32(7),  i32(8),  i32(9),  i32(10),
                         i32(11), i32(12), i32(13), i32(14)};
  r.cycles = real(15);
  r.avg_vl = real(16);
  r.l2_miss_rate = real(17);
  r.mem_bytes = real(18);
  r.flops = real(19);
  r.bd.compute_cycles = real(20);
  r.bd.mem_issue_cycles = real(21);
  r.bd.mem_stall_cycles = real(22);
  r.bd.scalar_cycles = real(23);
  r.bd.vec_instructions = real(24);
  r.bd.vec_elems = real(25);
  r.bd.l1_accesses = real(26);
  r.bd.l1_misses = real(27);
  r.bd.l2_accesses = real(28);
  r.bd.l2_misses = real(29);
  return r;
}

}  // namespace

bool bit_identical(const SweepRow& a, const SweepRow& b) {
  const auto x = numbers(a), y = numbers(b);
  return a.desc == b.desc && std::memcmp(x.data(), y.data(), sizeof x) == 0;
}

ResultsDb::ResultsDb(std::string path) : path_(std::move(path)) {
  CsvReadOptions opts;
  opts.tolerate_partial_tail = true;
  CsvTable t = read_csv_file(path_, opts);
  if (t.header.empty()) return;
  if (t.header != kHeader) {
    throw std::runtime_error("results_db: " + path_ + ":" +
                             std::to_string(t.header_line) +
                             ": incompatible cache header (delete the file "
                             "to regenerate)");
  }
  bool heal = t.dropped_partial_tail;
  if (!t.complete_tail && !t.dropped_partial_tail && !t.rows.empty()) {
    // Right field count but no trailing newline: the final field may have been
    // cut mid-write (appends flush whole lines, so only a crash produces
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
    rewrite();
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

std::vector<SweepRow> ResultsDb::rows() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SweepRow> out;
  out.reserve(rows_.size());
  for (const auto& [key, row] : rows_) out.push_back(row);
  return out;
}

void ResultsDb::rewrite() {
  // The append writer, if open, appends after whatever this writes.
  std::lock_guard<std::mutex> lk(mu_);
  CsvTable t;
  t.header = kHeader;
  for (const auto& [key, row] : rows_) t.rows.push_back(to_fields(row));
  write_csv_file(path_, t);
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
  if (!out_) throw std::runtime_error("results_db: short write to " + path_);
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

bool repro_exact_mode() {
  return env_word("REPRO_EXACT", {{"1", 1}, {"true", 1}, {"yes", 1},
                                  {"on", 1}, {"0", 0}, {"false", 0},
                                  {"no", 0}, {"off", 0}})
             .value_or(0) != 0;
}

std::string default_results_path() {
  return env_text("REPRO_RESULTS_DIR").value_or("results") +
         (repro_exact_mode() ? "/sweep_cache_exact.csv" : "/sweep_cache.csv");
}

}  // namespace vlacnn
