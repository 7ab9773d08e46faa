// Tests for the thread-safe results cache: exact round-trip persistence,
// recovery from a crash-truncated trailing row, header and row validation,
// the key-ordered rewrite, and the concurrent append / single-flight
// deduplication paths used by the parallel sweep engine.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "sweep/results_db.h"

namespace vlacnn {
namespace {

class ResultsDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vlacnn_resultsdb_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    path_ = (dir_ / "cache.csv").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static SweepRow make_row(int layer, Algo algo, double cycles,
                           double avg_vl = 13.7, double miss = 0.123,
                           double mem = 4096, double flops = 1e9) {
    SweepRow r;
    r.key = SweepKey{"tiny", layer, algo, 512, 1u << 20, 8,
                     VpuAttach::kIntegratedL1};
    // A row is a function of its shape, so each layer gets its own.
    r.desc = ConvLayerDesc{3, 32, 32, 8 + layer, 3, 3, 1, 1};
    r.cycles = cycles;
    r.avg_vl = avg_vl;
    r.l2_miss_rate = miss;
    r.mem_bytes = mem;
    r.flops = flops;
    return r;
  }

  /// Seeds `r` through the one write path, as a computed row.
  static void put(ResultsDb& db, const SweepRow& r) {
    db.get_or_compute(r.key, r.desc, [&] { return r; });
  }

  static bool bit_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  }

  std::string read_file() const {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST(ResultsDbPath, EmptyResultsDirMeansTheDefault) {
  ::unsetenv("REPRO_RESULTS_DIR");
  EXPECT_EQ(default_results_path(), "results/sweep_cache.csv");
  ::setenv("REPRO_RESULTS_DIR", "/tmp/elsewhere", 1);
  EXPECT_EQ(default_results_path(), "/tmp/elsewhere/sweep_cache.csv");
  ::setenv("REPRO_RESULTS_DIR", "", 1);  // not the filesystem root
  EXPECT_EQ(default_results_path(), "results/sweep_cache.csv");
  // A SweepKey does not record the sampler mode: exact rows get their own
  // file rather than mixing with (and being served as) sampled ones.
  ::setenv("REPRO_EXACT", "1", 1);
  EXPECT_EQ(default_results_path(), "results/sweep_cache_exact.csv");
  ::setenv("REPRO_RESULTS_DIR", "/tmp/elsewhere", 1);
  EXPECT_EQ(default_results_path(), "/tmp/elsewhere/sweep_cache_exact.csv");
  ::setenv("REPRO_EXACT", "off", 1);
  EXPECT_EQ(default_results_path(), "/tmp/elsewhere/sweep_cache.csv");
  ::unsetenv("REPRO_EXACT");
  ::unsetenv("REPRO_RESULTS_DIR");
}

TEST_F(ResultsDbTest, RoundTripIsBitExact) {
  // Doubles chosen to break %.9e: they differ only past the 10th significant
  // digit or live at the extremes of the exponent range.
  const double nasty[] = {1.0 / 3.0,
                          2.0 / 3.0 * 1e18,
                          3.141592653589793,
                          0.1,
                          1e-300,
                          123456789.123456789,
                          1.0000000001,
                          5e300};
  {
    ResultsDb db(path_);
    int layer = 0;
    for (double v : nasty) {
      put(db, make_row(layer++, Algo::kGemm3, v, v / 7.0, v / 1e301, v * 0.5,
                       v == 0 ? 1 : v));
    }
  }
  ResultsDb db2(path_);
  EXPECT_FALSE(db2.healed_on_load());
  int layer = 0;
  for (double v : nasty) {
    const auto hit = db2.find(SweepKey{"tiny", layer++, Algo::kGemm3, 512,
                                       1u << 20, 8,
                                       VpuAttach::kIntegratedL1});
    ASSERT_TRUE(hit.has_value()) << "layer " << (layer - 1);
    EXPECT_TRUE(bit_equal(hit->cycles, v));
    EXPECT_TRUE(bit_equal(hit->avg_vl, v / 7.0));
    EXPECT_TRUE(bit_equal(hit->l2_miss_rate, v / 1e301));
    EXPECT_TRUE(bit_equal(hit->mem_bytes, v * 0.5));
  }
}

TEST_F(ResultsDbTest, BreakdownRoundTripIsBitExact) {
  const double nasty[] = {1.0 / 3.0, 3.141592653589793, 1e-300, 5e300,
                          123456789.123456789};
  {
    ResultsDb db(path_);
    int layer = 0;
    for (double v : nasty) {
      SweepRow r = make_row(layer++, Algo::kGemm6, v);
      r.bd.compute_cycles = v * 0.4;
      r.bd.mem_issue_cycles = v * 0.3;
      r.bd.mem_stall_cycles = v * 0.2;
      r.bd.scalar_cycles = v * 0.1;
      r.bd.vec_instructions = v / 7.0;
      r.bd.vec_elems = v / 3.0;
      r.bd.l1_accesses = v / 11.0;
      r.bd.l1_misses = v / 13.0;
      r.bd.l2_accesses = v / 17.0;
      r.bd.l2_misses = v / 19.0;
      put(db, r);
    }
  }
  ResultsDb db2(path_);
  EXPECT_FALSE(db2.healed_on_load());
  int layer = 0;
  for (double v : nasty) {
    const auto hit = db2.find(SweepKey{"tiny", layer++, Algo::kGemm6, 512,
                                       1u << 20, 8, VpuAttach::kIntegratedL1});
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(bit_equal(hit->bd.compute_cycles, v * 0.4));
    EXPECT_TRUE(bit_equal(hit->bd.mem_issue_cycles, v * 0.3));
    EXPECT_TRUE(bit_equal(hit->bd.mem_stall_cycles, v * 0.2));
    EXPECT_TRUE(bit_equal(hit->bd.scalar_cycles, v * 0.1));
    EXPECT_TRUE(bit_equal(hit->bd.vec_instructions, v / 7.0));
    EXPECT_TRUE(bit_equal(hit->bd.vec_elems, v / 3.0));
    EXPECT_TRUE(bit_equal(hit->bd.l1_accesses, v / 11.0));
    EXPECT_TRUE(bit_equal(hit->bd.l1_misses, v / 13.0));
    EXPECT_TRUE(bit_equal(hit->bd.l2_accesses, v / 17.0));
    EXPECT_TRUE(bit_equal(hit->bd.l2_misses, v / 19.0));
  }
}

TEST_F(ResultsDbTest, OldSchemaV1HeaderNamesFileAndLine) {
  // A pre-breakdown cache, exactly as the first schema wrote it: its 20
  // columns are not the current 30, so it fails like any other header.
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(path_);
    out << "net,layer,algo,vlen,l2_bytes,lanes,attach,ic,ih,iw,oc,kh,kw,"
           "stride,pad,cycles,avg_vl,l2_miss_rate,mem_bytes,flops\n";
    out << "tiny,0,gemm3,512,1048576,8,int,3,32,32,8,3,3,1,1,"
           "100.5,13.699999999999999,0.123,4096,1000000000\n";
  }
  try {
    ResultsDb db(path_);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  path_ + ":1: incompatible cache header (delete the file to "
                          "regenerate)"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResultsDbTest, RowWithoutBreakdownNamesLineAndColumn) {
  // A row whose ten breakdown columns are empty, as the first schema's rows
  // were once healed, before a good row: the first empty column fails it.
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
    put(db, make_row(1, Algo::kDirect, 200.25));
  }
  CsvTable t = read_csv_file(path_);
  std::fill(t.rows[0].begin() + 20, t.rows[0].end(), std::string());
  write_csv_file(path_, t);
  try {
    ResultsDb db(path_);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path_ +
                                         ":2: compute_cycles: expected "),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ResultsDbTest, RewriteWritesOneRowPerKeyInKeyOrder) {
  ResultsDb db(path_);
  for (int layer : {3, 0, 2, 1}) put(db, make_row(layer, Algo::kGemm3, layer));
  const std::vector<SweepRow> rows = db.rows();
  ASSERT_EQ(rows.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rows[i].key.layer, i);

  db.rewrite();
  const CsvTable t = read_csv_file(path_);
  ASSERT_EQ(t.rows.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.rows[i][1], std::to_string(i));
  // Appends after a rewrite land after it, and the file reloads clean.
  put(db, make_row(4, Algo::kGemm3, 4));
  ResultsDb again(path_);
  EXPECT_FALSE(again.healed_on_load());
  EXPECT_EQ(again.size(), 5u);
}

TEST_F(ResultsDbTest, MixedBreakdownColumnsRejected) {
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
    put(db, make_row(1, Algo::kDirect, 200.25));
  }
  // Blank out the first row's final breakdown field (l2_misses): every
  // breakdown column must hold a number, and since a good row follows, this
  // is corruption (not a torn tail) and must throw.
  std::string text = read_file();
  const auto line_start = text.find("\ntiny,0,") + 1;
  const auto line_end = text.find('\n', line_start);
  const auto last_comma = text.rfind(',', line_end);
  text.erase(last_comma + 1, line_end - last_comma - 1);
  {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(ResultsDb db(path_), std::runtime_error);
}

TEST_F(ResultsDbTest, TruncatedTrailingRowIsDroppedAndHealed) {
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
    put(db, make_row(1, Algo::kDirect, 200.25));
  }
  {
    // Simulate a crash mid-append: a ragged final line with no newline.
    std::ofstream out(path_, std::ios::app);
    out << "tiny,2,gemm6,512,104857";
  }
  ResultsDb db(path_);
  EXPECT_TRUE(db.healed_on_load());
  EXPECT_EQ(db.size(), 2u);
  // The heal rewrote the file: reloading again is clean, and appending after
  // the heal must not concatenate with leftover garbage.
  put(db, make_row(2, Algo::kGemm6, 300.125));
  ResultsDb db2(path_);
  EXPECT_FALSE(db2.healed_on_load());
  EXPECT_EQ(db2.size(), 3u);
}

TEST_F(ResultsDbTest, MissingTrailingNewlineDropsSuspectLastRow) {
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
    put(db, make_row(1, Algo::kDirect, 123456.789));
  }
  // Cut the file mid-way through the last row's final field: the row still has
  // the right number of commas and parses, but the value is wrong.
  std::string text = read_file();
  std::filesystem::resize_file(path_, text.size() - 4);
  ResultsDb db(path_);
  EXPECT_TRUE(db.healed_on_load());
  EXPECT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.find(SweepKey{"tiny", 0, Algo::kGemm3, 512, 1u << 20, 8,
                               VpuAttach::kIntegratedL1})
                  .has_value());
}

TEST_F(ResultsDbTest, UnparseableFinalRowIsDropped) {
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
  }
  {
    // Right arity, garbage numeric field, complete line: e.g. a torn write
    // that happened to land on a comma boundary.
    std::ofstream out(path_, std::ios::app);
    out << "tiny,1,gemm3,512,1048576,8,int,3,32,32,8,3,3,1,1,"
           "12x4,1,1,1,1,0,0,0,0,0,0,0,0,0,0\n";
  }
  ResultsDb db(path_);
  EXPECT_TRUE(db.healed_on_load());
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(ResultsDbTest, HeaderMismatchThrows) {
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(path_);
    out << "foo,bar\n1,2\n";
  }
  EXPECT_THROW(ResultsDb db(path_), std::runtime_error);
}

TEST_F(ResultsDbTest, CorruptMiddleRowNamesFileAndLine) {
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
    put(db, make_row(1, Algo::kDirect, 200.25));
  }
  // Corrupt the *first* data row (line 2): not a partial tail, must throw
  // with the file path and line number in the message.
  std::string text = read_file();
  const auto first_row = text.find("\ntiny,");
  ASSERT_NE(first_row, std::string::npos);
  text.replace(first_row + 6, 1, "X");  // layer ordinal -> "X"
  {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }
  try {
    ResultsDb db(path_);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path_), std::string::npos) << msg;
    EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
  }
}

TEST_F(ResultsDbTest, BadFieldBeforeAGoodRowNamesLineAndColumn) {
  // Most of these used to load as another number: a vlen past 32 bits
  // wrapped onto the real 512-bit row's key, a sign wrapped, and nan, a
  // leading space or a hex prefix read as (part of) a number. The rest threw
  // without naming the column.
  const struct {
    const char* column;
    const char* value;
  } cases[] = {{"layer", "-0"},        {"vlen", "4294967808"},
               {"l2_bytes", "+1048576"}, {"lanes", "-1"},
               {"attach", "both"},     {"ic", "3.0"},
               {"pad", "1e0"},         {"cycles", "nan"},
               {"cycles", " 5"},       {"avg_vl", "inf"},
               {"mem_bytes", "0x10"},  {"flops", "-1"},
               {"l2_misses", ""}};
  {
    ResultsDb db(path_);
    put(db, make_row(0, Algo::kGemm3, 100.5));
    put(db, make_row(1, Algo::kDirect, 200.25));
  }
  const CsvTable good = read_csv_file(path_);
  for (const auto& c : cases) {
    const auto col = std::find(good.header.begin(), good.header.end(),
                               std::string(c.column));
    ASSERT_NE(col, good.header.end()) << c.column;
    CsvTable bad = good;
    bad.rows[0][static_cast<std::size_t>(col - good.header.begin())] = c.value;
    write_csv_file(path_, bad);
    try {
      ResultsDb db(path_);
      ADD_FAILURE() << c.column << " '" << c.value << "' loaded";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path_ + ":2: " + c.column + ": expected "),
                std::string::npos)
          << msg;
      EXPECT_NE(msg.find(std::string("got '") + c.value + "'"),
                std::string::npos)
          << msg;
    }
  }
}

TEST_F(ResultsDbTest, ConcurrentPutsAllLand) {
  ResultsDb db(path_);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      for (int i = 0; i < kPerThread; ++i) {
        put(db, make_row(t * kPerThread + i, Algo::kGemm3,
                         1000.0 + t * kPerThread + i + 1.0 / 3.0));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.size(), static_cast<std::size_t>(kThreads * kPerThread));

  // Every concurrently appended row reloads bit-exactly.
  ResultsDb db2(path_);
  EXPECT_FALSE(db2.healed_on_load());
  ASSERT_EQ(db2.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    const auto hit = db2.find(SweepKey{"tiny", i, Algo::kGemm3, 512, 1u << 20,
                                       8, VpuAttach::kIntegratedL1});
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(bit_equal(hit->cycles, 1000.0 + i + 1.0 / 3.0));
  }
}

TEST_F(ResultsDbTest, SingleFlightComputesEachKeyOnce) {
  ResultsDb db(path_);
  const SweepRow want = make_row(0, Algo::kGemm3, 42.5);
  const SweepKey key = want.key;
  std::atomic<int> calls{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<double> got(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const SweepRow r = db.get_or_compute(key, want.desc, [&] {
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return want;
      });
      got[t] = r.cycles;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(calls.load(), 1);
  for (double v : got) EXPECT_EQ(v, 42.5);
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(ResultsDbTest, SingleFlightComputesEachShapeOnce) {
  // A row is a function of its shape (layer descriptor, algorithm, hardware
  // point), not of its (net, layer) name: threads missing different keys of
  // one shape run one compute, and each key stores a copy under its own name.
  ResultsDb db(path_);
  const SweepRow want = make_row(0, Algo::kGemm3, 42.5);
  std::atomic<int> calls{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<SweepRow> got(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SweepKey key = want.key;
      key.net = "net" + std::to_string(t);
      got[t] = db.get_or_compute(key, want.desc, [&] {
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        SweepRow r = want;
        r.key = key;
        return r;
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(db.computed(), 1u);
  EXPECT_EQ(db.size(), static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t].key.net, "net" + std::to_string(t));
    EXPECT_TRUE(bit_identical(got[t], want)) << t;
  }
  // Every copy was appended under its own key.
  ResultsDb again(path_);
  EXPECT_FALSE(again.healed_on_load());
  EXPECT_EQ(again.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(ResultsDbTest, MissCopiesALoadedRowOfTheSameShape) {
  const SweepRow loaded = make_row(0, Algo::kGemm3, 100.5);
  {
    ResultsDb db(path_);
    put(db, loaded);
  }
  ResultsDb db(path_);
  int calls = 0;
  const auto count = [&] {
    ++calls;
    return make_row(0, Algo::kDirect, 7.0);
  };
  // Another name for the loaded row's shape: a copy, no compute.
  SweepKey renamed = loaded.key;
  renamed.net = "other";
  renamed.layer = 5;
  const SweepRow copy = db.get_or_compute(renamed, loaded.desc, count);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(copy.key.net, "other");
  EXPECT_EQ(copy.key.layer, 5);
  EXPECT_TRUE(bit_identical(copy, loaded));
  // Another algorithm is another shape: computed.
  const SweepRow direct = make_row(0, Algo::kDirect, 7.0);
  EXPECT_EQ(db.get_or_compute(direct.key, direct.desc, count).cycles, 7.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(db.computed(), 1u);

  ResultsDb again(path_);
  EXPECT_EQ(again.size(), 3u);
  ASSERT_TRUE(again.find(renamed).has_value());
  EXPECT_TRUE(bit_identical(*again.find(renamed), loaded));
}

TEST_F(ResultsDbTest, SingleFlightPropagatesFailureThenRecovers) {
  ResultsDb db(path_);
  const SweepRow good = make_row(0, Algo::kGemm3, 7.25);
  const SweepKey key = good.key;
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        db.get_or_compute(key, good.desc, [&]() -> SweepRow {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          throw std::runtime_error("simulated failure");
        });
      } catch (const std::runtime_error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Every caller sees a failure (the leader's exception fans out to waiters;
  // threads that arrived after the flight was erased fail on their own).
  EXPECT_EQ(failures.load(), kThreads);
  EXPECT_EQ(db.size(), 0u);

  // The key is not poisoned: a working compute succeeds afterwards.
  const SweepRow r = db.get_or_compute(key, good.desc, [&] { return good; });
  EXPECT_EQ(r.cycles, 7.25);
  EXPECT_EQ(db.size(), 1u);
}

}  // namespace
}  // namespace vlacnn
