// Tests for the utility substrate: the Sterbenz splitter, RNG, CSV, small
// linear algebra, Pareto.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <set>

#include "area/pareto.h"
#include "common/csv.h"
#include "common/env.h"
#include "common/exact_split.h"
#include "common/linalg.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace vlacnn {
namespace {

// -------------------------------------------------------- ExactSplit ------

TEST(ExactSplit, HeadPlusTailReconstitutesTotalExactly) {
  // The Sterbenz-based split must reconstitute total bit-for-bit even when
  // naive subtraction would round: exercise awkward magnitude ratios.
  const double totals[] = {1.0, 3.0, 0.1, 1e-9, 1e12, 12345.6789,
                           7.000000000000001};
  const double fracs[] = {0.0, 1e-17, 0.1, 0.3333333333333333, 0.5,
                          0.6666666666666666, 0.9999999999999999, 1.0};
  for (double total : totals) {
    for (double f : fracs) {
      const auto [head, tail] = exact_split(total, f * total);
      EXPECT_EQ(head + tail, total) << total << " " << f;
      EXPECT_GE(head, 0.0);
      EXPECT_GE(tail, 0.0);
      // head stays within a rounding of the request.
      EXPECT_NEAR(head, f * total, 1e-12 * total + 1e-300);
    }
  }
}

TEST(ExactSplit, ClampsAndDegenerateInputs) {
  EXPECT_EQ(exact_split(10.0, -5.0).first, 0.0);
  EXPECT_EQ(exact_split(10.0, -5.0).second, 10.0);
  EXPECT_EQ(exact_split(10.0, 25.0).first, 10.0);
  EXPECT_EQ(exact_split(10.0, 25.0).second, 0.0);
  EXPECT_EQ(exact_split(0.0, 1.0), (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(exact_split(-3.0, 1.0), (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(exact_split(std::nan(""), 1.0),
            (std::pair<double, double>{0.0, 0.0}));
  EXPECT_EQ(exact_split(10.0, std::nan("")).first, 0.0);
  EXPECT_EQ(exact_split(10.0, std::nan("")).second, 10.0);
}

// ---------------------------------------------------------------- Rng ------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t n : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(n), n);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, FloatInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.next_float();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.uniform(-2.5f, 7.5f);
    EXPECT_GE(f, -2.5f);
    EXPECT_LT(f, 7.5f);
  }
}

TEST(Rng, NormalHasReasonableMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<std::size_t> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<std::size_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(*s.begin(), 0u);
  EXPECT_EQ(*s.rbegin(), 9u);
}

TEST(Rng, FillUniformFillsEverything) {
  Rng rng(17);
  std::vector<float> v(64, -100.0f);
  fill_uniform(rng, v.data(), v.size(), 0.0f, 1.0f);
  for (float f : v) {
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

// ---------------------------------------------------------------- Csv ------

TEST(Csv, ParseRoundTrip) {
  CsvTable t = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_EQ(t.header.size(), 3u);
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[1][2], "6");
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW(parse_csv("a,b\n1,2,3\n"), std::runtime_error);
  try {
    parse_csv("\na,b\n1,2\n3\n4,5\n", {}, "f.csv");
    ADD_FAILURE() << "a ragged row parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "f.csv:4: ragged row ('3')");  // names source:line
  }
}

TEST(Csv, TracksLineNumbersAndTail) {
  CsvTable t = parse_csv("a,b\n\n1,2\n3,4\n");
  ASSERT_EQ(t.row_lines.size(), 2u);
  EXPECT_EQ(t.row_lines[0], 3);  // blank line 2 skipped
  EXPECT_EQ(t.row_lines[1], 4);
  EXPECT_EQ(t.header_line, 1);
  EXPECT_EQ(parse_csv("\n\na,b\n").header_line, 3);
  EXPECT_TRUE(t.complete_tail);
  EXPECT_FALSE(parse_csv("a,b\n1,2").complete_tail);
}

TEST(Csv, LenientModeDropsOnlyPartialFinalLine) {
  CsvReadOptions opts;
  opts.tolerate_partial_tail = true;
  // Truncated final line (too few fields): dropped and flagged.
  CsvTable t = parse_csv("a,b,c\n1,2,3\n4,5", opts);
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_TRUE(t.dropped_partial_tail);
  EXPECT_FALSE(t.complete_tail);
  // A ragged row in the middle is corruption, not a torn append: still throws.
  EXPECT_THROW(parse_csv("a,b\n1\n3,4\n", opts), std::runtime_error);
}

TEST(Csv, SkipsEmptyLinesAndCarriageReturns) {
  CsvTable t = parse_csv("a,b\r\n\n1,2\r\n");
  ASSERT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.rows[0][0], "1");
}

TEST(Csv, MissingFileGivesEmptyTable) {
  CsvTable t = read_csv_file("/nonexistent/definitely/not/here.csv");
  EXPECT_TRUE(t.header.empty());
  EXPECT_TRUE(t.rows.empty());
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("vlacnn_csv_test_" + std::to_string(::getpid()) + ".csv");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(CsvFileTest, WriteReadRoundTrip) {
  CsvTable t;
  t.header = {"x", "y"};
  t.rows = {{"1", "2"}, {"3", "4"}};
  write_csv_file(path_.string(), t);
  CsvTable r = read_csv_file(path_.string());
  EXPECT_EQ(r.header, t.header);
  EXPECT_EQ(r.rows, t.rows);
}

// ------------------------------------------------------------- Linalg ------

TEST(Linalg, MatmulKnown) {
  Mat a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  Mat b(2, 2);
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  Mat c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Linalg, MatmulShapeMismatchThrows) {
  EXPECT_THROW(matmul(Mat(2, 3), Mat(2, 3)), std::invalid_argument);
}

TEST(Linalg, TransposeInvolution) {
  Rng rng(1);
  Mat a(3, 5);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) a(i, j) = rng.uniform(-1, 1);
  Mat t = transpose(transpose(a));
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(t(i, j), a(i, j));
}

TEST(Linalg, SolveRecoverKnownSolution) {
  Rng rng(2);
  const std::size_t n = 6;
  Mat a(n, n);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = rng.uniform(-3, 3);
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
    a(i, i) += 4.0;  // diagonally dominant
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  std::vector<double> x = solve(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Linalg, SolveSingularThrows) {
  Mat a(2, 2);  // rank 1
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(solve(a, {1.0, 2.0}), std::runtime_error);
}

TEST(Linalg, LeastSquaresExactForConsistentSystem) {
  Mat a(4, 2);
  a(0, 0) = 1; a(0, 1) = 0;
  a(1, 0) = 0; a(1, 1) = 1;
  a(2, 0) = 1; a(2, 1) = 1;
  a(3, 0) = 2; a(3, 1) = -1;
  std::vector<double> x_true{3.0, -2.0};
  std::vector<double> b(4, 0.0);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 2; ++j) b[i] += a(i, j) * x_true[j];
  std::vector<double> x = least_squares(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-10);
  EXPECT_NEAR(x[1], -2.0, 1e-10);
  EXPECT_LT(residual_inf(a, x, b), 1e-10);
}

// ------------------------------------------------------------- Pareto ------

TEST(Pareto, SimpleFrontier) {
  std::vector<ParetoPoint> pts = {
      {1, 10, 0}, {2, 5, 1}, {3, 7, 2}, {4, 1, 3}, {5, 0.5, 4}, {2, 20, 5}};
  auto f = pareto_frontier(pts);
  // Expected frontier: (1,10), (2,5), (4,1), (5,0.5).
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(pts[f[0]].tag, 0u);
  EXPECT_EQ(pts[f[1]].tag, 1u);
  EXPECT_EQ(pts[f[2]].tag, 3u);
  EXPECT_EQ(pts[f[3]].tag, 4u);
}

TEST(Pareto, FrontierPropertyRandom) {
  Rng rng(23);
  std::vector<ParetoPoint> pts;
  for (std::size_t i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100), i});
  }
  auto f = pareto_frontier(pts);
  std::set<std::size_t> on(f.begin(), f.end());
  auto dominates = [](const ParetoPoint& a, const ParetoPoint& b) {
    return a.obj_a <= b.obj_a && a.obj_b <= b.obj_b &&
           (a.obj_a < b.obj_a || a.obj_b < b.obj_b);
  };
  // No frontier point is dominated; every non-frontier point is dominated by
  // some frontier point.
  for (std::size_t i : f) {
    for (std::size_t j = 0; j < pts.size(); ++j) {
      EXPECT_FALSE(dominates(pts[j], pts[i]))
          << "frontier point " << i << " dominated by " << j;
    }
  }
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (on.count(j)) continue;
    bool dominated = false;
    for (std::size_t i : f) dominated |= dominates(pts[i], pts[j]);
    EXPECT_TRUE(dominated) << "point " << j << " not dominated";
  }
}

TEST(Pareto, KneeMinimisesProduct) {
  std::vector<ParetoPoint> pts = {{1, 100, 0}, {2, 20, 1}, {10, 3, 2}};
  auto f = pareto_frontier(pts);
  EXPECT_EQ(pareto_knee(pts, f), 2u);  // products: 100, 40, 30
}

TEST(Pareto, KneeEmptyFrontierThrows) {
  std::vector<ParetoPoint> pts;
  EXPECT_THROW(pareto_knee(pts, {}), std::invalid_argument);
}

// --------------------------------------------------------- ThreadPool ------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(1);  // the caller is the only executor
  EXPECT_EQ(pool.size(), 0u);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, FirstExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, DefaultThreadsRejectsGarbageEnv) {
  ::setenv("VLACNN_THREADS", "abc", 1);
  EXPECT_THROW(ThreadPool::default_threads(), std::runtime_error);
  ::setenv("VLACNN_THREADS", "0", 1);
  EXPECT_THROW(ThreadPool::default_threads(), std::runtime_error);
  // Past unsigned's range: no wrap to 1 (or 0) threads.
  ::setenv("VLACNN_THREADS", "4294967297", 1);
  EXPECT_THROW(ThreadPool::default_threads(), std::runtime_error);
  ::setenv("VLACNN_THREADS", "4294967296", 1);
  EXPECT_THROW(ThreadPool::default_threads(), std::runtime_error);
  ::setenv("VLACNN_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::default_threads(), 3u);
  ::unsetenv("VLACNN_THREADS");
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  // Empty means unset: the hardware default, not an error.
  const unsigned unset = ThreadPool::default_threads();
  ::setenv("VLACNN_THREADS", "", 1);
  EXPECT_EQ(ThreadPool::default_threads(), unset);
  ::unsetenv("VLACNN_THREADS");
}

// The one knob grammar (common/env.h), on a knob no product code reads.
TEST(EnvKnobs, OneGrammarForEveryKind) {
  const char* k = "VLACNN_TEST_ENV_GRAMMAR";
  const std::initializer_list<EnvWord> words = {{"off", 0}, {"on", 1}};
  for (const bool set_empty : {false, true}) {  // empty is the same as unset
    if (set_empty) {
      ::setenv(k, "", 1);
    } else {
      ::unsetenv(k);
    }
    EXPECT_FALSE(env_text(k));
    EXPECT_FALSE(env_uint(k));
    EXPECT_FALSE(env_positive(k));
    EXPECT_FALSE(env_word(k, words));
  }

  // Unsigned: decimal digits only, within [lo, hi].
  ::setenv(k, "18446744073709551615", 1);
  EXPECT_EQ(env_uint(k), std::numeric_limits<std::uint64_t>::max());
  ::setenv(k, "5", 1);
  EXPECT_EQ(env_uint(k, 5, 5), 5u);
  EXPECT_THROW(env_uint(k, 6), std::runtime_error);
  EXPECT_THROW(env_uint(k, 0, 4), std::runtime_error);
  for (const char* bad : {"-1", "+1", " 1", "1 ", "0x10", "1e3", "4.0",
                          "18446744073709551616"}) {
    ::setenv(k, bad, 1);
    EXPECT_THROW(env_uint(k), std::runtime_error) << bad;
  }

  // Positive reals: the whole string, finite and > 0.
  ::setenv(k, "2.5e5", 1);
  EXPECT_EQ(env_positive(k), 2.5e5);
  for (const char* bad : {"0", "-1", "+1", " 1", "1x", "inf", "nan", "1e400",
                          "0x10"}) {
    ::setenv(k, bad, 1);
    EXPECT_THROW(env_positive(k), std::runtime_error) << bad;
  }

  // Words: a fixed table, matched case-insensitively.
  ::setenv(k, "On", 1);
  EXPECT_EQ(env_word(k, words), 1);
  ::setenv(k, "onn", 1);
  EXPECT_THROW(env_word(k, words), std::runtime_error);

  // Every error starts with the knob name and quotes the value.
  ::setenv(k, "-1x", 1);
  for (int kind = 0; kind < 3; ++kind) {
    try {
      if (kind == 0) env_uint(k);
      if (kind == 1) env_positive(k);
      if (kind == 2) env_word(k, words);
      ADD_FAILURE() << "kind " << kind << " accepted '-1x'";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("VLACNN_TEST_ENV_GRAMMAR: ", 0), 0u) << what;
      EXPECT_NE(what.find("'-1x'"), std::string::npos) << what;
    }
  }
  ::unsetenv(k);

  // Flags and file fields read through the same parsers, naming their own
  // source: a range is the destination type's unless the caller narrows it.
  EXPECT_EQ(parse_uint<int>("--max-batch", "2147483647"), 2147483647);
  for (const char* bad : {"-0", "-1", "2147483648", "1e3"}) {
    EXPECT_THROW(parse_uint<int>("--max-batch", bad), std::runtime_error)
        << bad;
  }
  EXPECT_THROW(parse_uint<std::uint32_t>("vlen", "4294967808"),
               std::runtime_error);
  EXPECT_EQ(parse_real("number", "-0.5e1"), -5.0);
  const auto real_error = [](const char* text, RealRange range) {
    try {
      parse_real("--attainment", text, range);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_EQ(real_error("1", {0, 1, true}), "");
  EXPECT_EQ(real_error("0", {0, 1, true}),
            "--attainment: expected a finite number in (0, 1], got '0'");
  EXPECT_EQ(real_error("-5", kNonNegative),
            "--attainment: expected a finite number >= 0, got '-5'");
  EXPECT_EQ(real_error("nan", {}),
            "--attainment: expected a finite number, got 'nan'");
  EXPECT_STREQ(
      parse_word("--policy", "AdaPtive", {{"nobatch", 0}, {"adaptive", 2}})
          .word,
      "adaptive");
}

}  // namespace
}  // namespace vlacnn
