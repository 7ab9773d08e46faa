// Observability layer: counters/gauges/histograms (including exactness under
// concurrency — these run under TSan via the VLACNN_SANITIZE build), span ->
// Chrome-trace JSON round-trip through a real parser, env-knob gating, and
// the end-to-end counters the sweep engine feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/kernprof.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "obs/sketch.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "report/collector.h"
#include "sweep/sweep.h"

namespace vlacnn {
namespace {

// -- minimal JSON parser ------------------------------------------------------
// Just enough JSON to validate the trace files we emit: full syntax checking,
// plus counting and key inspection of the traceEvents array. Throws
// std::runtime_error on any malformed input.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject } type =
      Type::kNull;
  double number = 0;
  bool boolean = false;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return literal("true", v);
      }
      case 'f': {
        JsonValue v;
        v.type = JsonValue::Type::kBool;
        return literal("false", v);
      }
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }

  JsonValue literal(const std::string& word, JsonValue v) {
    if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    std::size_t used = 0;
    const std::string text = s_.substr(start, pos_ - start);
    v.number = std::stod(text, &used);
    if (used != text.size()) fail("bad number");
    return v;
  }

  JsonValue string_value() {
    JsonValue v;
    v.type = JsonValue::Type::kString;
    expect('"');
    while (peek() != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.string += '"'; break;
          case '\\': v.string += '\\'; break;
          case '/': v.string += '/'; break;
          case 'n': v.string += '\n'; break;
          case 'r': v.string += '\r'; break;
          case 't': v.string += '\t'; break;
          case 'b': v.string += '\b'; break;
          case 'f': v.string += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            v.string += static_cast<char>(
                std::stoul(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: fail("bad escape");
        }
      } else {
        v.string += c;
      }
    }
    ++pos_;  // closing quote
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.object.emplace_back(key.string, value());
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Flips the metrics mode for one test and restores kOff on exit (ctest runs
/// each test in its own process, but restoring keeps in-process runs clean).
struct ScopedMetrics {
  explicit ScopedMetrics(obs::ReportMode mode) { obs::set_metrics_mode(mode); }
  ~ScopedMetrics() { obs::set_metrics_mode(obs::ReportMode::kOff); }
};

// -- metrics ------------------------------------------------------------------

TEST(ObsCounter, ConcurrentIncrementsSumExactly) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, AddNAccumulates) {
  obs::Counter c;
  c.add(3);
  c.add(39);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAddAndHighWaterMark) {
  obs::Gauge g;
  g.set(5);
  g.add(10);
  g.add(-12);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 15);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST(ObsFloatGauge, SetValueAndReset) {
  obs::FloatGauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(0.0073);
  EXPECT_EQ(g.value(), 0.0073);
  g.set(-1.5);  // gaps can be negative (learned beat the static oracle plan)
  EXPECT_EQ(g.value(), -1.5);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(ObsFloatGauge, RegistryReportsAndParsesBack) {
  obs::Registry reg;
  reg.float_gauge("f.gap").set(0.25);
  EXPECT_EQ(&reg.float_gauge("f.gap"), &reg.float_gauge("f.gap"));
  const std::string text = reg.report_text();
  EXPECT_NE(text.find("f.gap"), std::string::npos);
  EXPECT_NE(text.find("0.25"), std::string::npos);
  JsonValue root = JsonParser(reg.report_json()).parse();
  const JsonValue* fg = root.find("float_gauges");
  ASSERT_NE(fg, nullptr);
  const JsonValue* v = fg->find("f.gap");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->number, 0.25);
  reg.reset();
  EXPECT_EQ(reg.float_gauge("f.gap").value(), 0.0);
}

TEST(ObsHistogram, BucketBoundaries) {
  // bucket 0 = {0}; bucket i>=1 = [2^(i-1), 2^i).
  EXPECT_EQ(obs::Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_hi(0), 1u);
  EXPECT_EQ(obs::Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_hi(1), 2u);
  EXPECT_EQ(obs::Histogram::bucket_lo(11), 1024u);
  EXPECT_EQ(obs::Histogram::bucket_hi(11), 2048u);
  EXPECT_EQ(obs::Histogram::bucket_hi(64),
            std::numeric_limits<std::uint64_t>::max());

  obs::Histogram h;
  h.observe(0);     // bucket 0
  h.observe(1);     // bucket 1
  h.observe(2);     // bucket 2
  h.observe(3);     // bucket 2
  h.observe(1023);  // bucket 10: [512, 1024)
  h.observe(1024);  // bucket 11: [1024, 2048)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 1023 + 1024);
}

TEST(ObsHistogram, ConcurrentObservesCountExactly) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<std::uint64_t>(t) + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(ObsHistogram, QuantileBoundCoversObservations) {
  obs::Histogram h;
  for (int i = 0; i < 99; ++i) h.observe(10);   // bucket [8,16)
  h.observe(100000);                            // far tail
  EXPECT_EQ(h.quantile_bound(0.5), 16u);
  EXPECT_GE(h.quantile_bound(1.0), 100000u);
}

// -- DDSketch merge properties ------------------------------------------------

TEST(DDSketchMerge, MergedQuantilesMatchSingleShotWithinErrorBound) {
  // The merge contract: folding two sketches answers exactly what single-shot
  // insertion of both streams would, and the single-shot answer itself stays
  // within the configured relative error of the true nearest-rank value.
  const double e = 0.01;
  const double gamma = (1.0 + e) / (1.0 - e);
  obs::QuantileSketch single(e), left(e), right(e);
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    // Spread across several decades so many distinct buckets participate.
    const double v = static_cast<double>(i) * (i % 3 == 0 ? 1000.0 : 1.0);
    values.push_back(v);
    single.observe(v);
    (i % 2 == 0 ? left : right).observe(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), single.count());
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), single.quantile(q)) << q;
    // Nearest rank against the exact sorted data: the sketch answers with the
    // closing boundary of the true value's bucket, i.e. within one gamma.
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double truth = values[rank - 1];
    EXPECT_GE(left.quantile(q), truth * (1.0 - 1e-12)) << q;
    EXPECT_LE(left.quantile(q), truth * gamma * (1.0 + 1e-12)) << q;
  }
}

TEST(DDSketchMerge, EmptyAndSingleBucketEdges) {
  obs::QuantileSketch a(0.01), b(0.01);
  a.merge(b);  // empty into empty
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.quantile(0.5), 0.0);

  obs::QuantileSketch full(0.01);
  full.observe(100.0);
  const double before = full.quantile(1.0);
  full.merge(b);  // empty into non-empty: nothing changes
  EXPECT_EQ(full.count(), 1u);
  EXPECT_EQ(full.quantile(1.0), before);
  b.merge(full);  // non-empty into empty adopts the contents
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.quantile(1.0), before);

  // Both sides in one (identical) bucket, including the exact-zero bucket.
  obs::QuantileSketch z1(0.01), z2(0.01);
  z1.observe(0.0);
  z2.observe(-5.0);  // clamped to the zero bucket
  z1.merge(z2);
  EXPECT_EQ(z1.count(), 2u);
  EXPECT_EQ(z1.quantile(1.0), 0.0);
  obs::QuantileSketch s1(0.01), s2(0.01);
  s1.observe(100.0);
  s2.observe(100.0);
  s1.merge(s2);
  EXPECT_EQ(s1.count(), 2u);
  EXPECT_EQ(s1.quantile(0.5), s1.quantile(1.0));  // one bucket answers all q
}

TEST(DDSketchMerge, FoldsExemplarsLargestValueThenLowestId) {
  obs::QuantileSketch a(0.01), b(0.01);
  a.observe(100.0, 7);
  b.observe(100.0, 3);   // same bucket, same value: the lower id must win
  b.observe(5000.0, 9);  // a bucket only the right side observed
  a.merge(b);
  const auto& ex = a.exemplar_buckets();
  ASSERT_EQ(ex.size(), 2u);
  const auto hundred = ex.find(a.bucket_index(100.0));
  ASSERT_NE(hundred, ex.end());
  EXPECT_EQ(hundred->second.value, 100.0);
  EXPECT_EQ(hundred->second.id, 3u);
  const auto big = ex.find(a.bucket_index(5000.0));
  ASSERT_NE(big, ex.end());
  EXPECT_EQ(big->second.id, 9u);
  // tail_exemplars over the merged sketch reaches both buckets at low q.
  EXPECT_EQ(a.tail_exemplars(0.01).size(), 2u);
  EXPECT_EQ(a.tail_exemplars(1.0).size(), 1u);  // only the 5000 bucket
}

TEST(ObsRegistry, SameNameSameInstrumentAndResetKeepsReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(7);
  reg.reset();
  EXPECT_EQ(b.value(), 0u);  // zeroed in place, reference still valid
  b.add(1);
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(ObsRegistry, ReportTextListsInstruments) {
  obs::Registry reg;
  reg.counter("test.hits").add(42);
  reg.gauge("test.depth").set(3);
  reg.histogram("test.lat").observe(100);
  const std::string text = reg.report_text();
  EXPECT_NE(text.find("test.hits"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("test.depth"), std::string::npos);
  EXPECT_NE(text.find("test.lat"), std::string::npos);
}

TEST(ObsRegistry, ReportJsonParsesBack) {
  obs::Registry reg;
  reg.counter("c.one").add(1);
  reg.gauge("g \"quoted\"").set(-5);
  reg.histogram("h.lat").observe(0);
  reg.histogram("h.lat").observe(1000);
  const std::string json = reg.report_json();
  JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c1 = counters->find("c.one");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->number, 1.0);
  const JsonValue* g = root.find("gauges")->find("g \"quoted\"");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->find("value")->number, -5.0);
  const JsonValue* h = root.find("histograms")->find("h.lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 2.0);
  EXPECT_EQ(h->find("buckets")->array.size(), 2u);  // bucket 0 and [512,1024)
}

TEST(ObsRegistry, ExitReportJsonParsesBack) {
  // VLACNN_METRICS=json exit output must stay machine-parseable: run the
  // actual exit-hook body against a temp stream and parse it back with the
  // same JSON parser the trace schema test uses, locking the schema down.
  ScopedMetrics on(obs::ReportMode::kJson);
  obs::Registry::global().counter("exit_report.test_marker").add(7);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::write_exit_report(f);
  std::rewind(f);
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
  std::fclose(f);
  ASSERT_FALSE(json.empty());
  const JsonValue root = JsonParser(json).parse();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* marker = counters->find("exit_report.test_marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_GE(marker->number, 7.0);
  EXPECT_NE(root.find("gauges"), nullptr);
  EXPECT_NE(root.find("histograms"), nullptr);
}

TEST(ObsRegistry, ZeroCountHistogramsAndNeverSetGaugesReportClean) {
  // Degenerate instruments — a histogram that never observed anything and
  // gauges that were registered but never set — must still produce valid,
  // NaN-free JSON (an empty histogram's mean is 0/0 if computed naively) and
  // a finite text report.
  obs::Registry reg;
  reg.histogram("zero.hist");
  reg.gauge("zero.gauge");
  reg.float_gauge("zero.float");
  const std::string json = reg.report_json();
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const JsonValue root = JsonParser(json).parse();
  const JsonValue* h = root.find("histograms")->find("zero.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 0.0);
  EXPECT_EQ(h->find("sum")->number, 0.0);
  EXPECT_TRUE(h->find("buckets")->array.empty());
  const JsonValue* g = root.find("gauges")->find("zero.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->find("value")->number, 0.0);
  EXPECT_EQ(g->find("max")->number, 0.0);
  const JsonValue* fg = root.find("float_gauges")->find("zero.float");
  ASSERT_NE(fg, nullptr);
  EXPECT_EQ(fg->number, 0.0);
  // The text report's empty-histogram mean is 0.0, not NaN.
  const std::string text = reg.report_text();
  EXPECT_NE(text.find("count=0 mean=0.0"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(ObsRegistry, ExitReportJsonCleanWithDegenerateInstruments) {
  // The VLACNN_METRICS=json exit path with never-touched instruments in the
  // global registry: the dump still parses and carries them as zeros.
  ScopedMetrics on(obs::ReportMode::kJson);
  obs::Registry::global().histogram("exit_zero.hist");
  obs::Registry::global().gauge("exit_zero.gauge");
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::write_exit_report(f);
  std::rewind(f);
  std::string json;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) json.append(buf, n);
  std::fclose(f);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.find("nan"), std::string::npos);
  const JsonValue root = JsonParser(json).parse();
  const JsonValue* h = root.find("histograms")->find("exit_zero.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->number, 0.0);
  EXPECT_TRUE(h->find("buckets")->array.empty());
  const JsonValue* g = root.find("gauges")->find("exit_zero.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->find("value")->number, 0.0);
}

TEST(ObsRegistry, ExitReportOffWritesNothing) {
  ScopedMetrics off(obs::ReportMode::kOff);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  obs::write_exit_report(f);
  std::fflush(f);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(std::ftell(f), 0L);
  std::fclose(f);
}

TEST(ObsMetrics, DisabledByDefaultWithoutEnv) {
  if (std::getenv("VLACNN_METRICS") != nullptr) {
    GTEST_SKIP() << "VLACNN_METRICS set in the environment";
  }
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_EQ(obs::metrics_mode(), obs::ReportMode::kOff);
}

// -- logger -------------------------------------------------------------------

TEST(ObsLog, LevelGating) {
  obs::set_log_level(obs::LogLevel::kOff);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));
  obs::set_log_level(obs::LogLevel::kInfo);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kDebug));
  obs::set_log_level(obs::LogLevel::kDebug);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kDebug));
  // Emitting at every level must not crash; output goes to stderr.
  obs::log(obs::LogLevel::kInfo, "test", "message with spaces",
           {{"key", "value with spaces"}, {"empty", ""}});
  obs::set_log_level(obs::LogLevel::kOff);
}

// -- tracer / spans -----------------------------------------------------------

TEST(ObsTrace, DisabledTracerCreatesNoFileAndNoEvents) {
  obs::Tracer tracer;  // never opened
  EXPECT_FALSE(tracer.enabled());
  {
    obs::Span span("phase", &tracer);
    EXPECT_FALSE(span.active());
    span.arg("dropped", "yes");
  }
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(ObsTrace, GlobalTracerOffWithoutEnvKnob) {
  if (std::getenv("VLACNN_TRACE") != nullptr) {
    GTEST_SKIP() << "VLACNN_TRACE set in the environment";
  }
  EXPECT_FALSE(obs::Tracer::global().enabled());
  obs::Span span("should_not_record");
  EXPECT_FALSE(span.active());
}

TEST(ObsTrace, SpanJsonRoundTripsThroughParser) {
  const auto dir =
      std::filesystem::temp_directory_path() / "vlacnn_test_obs_trace";
  std::filesystem::remove_all(dir);
  const auto file = dir / "trace.json";

  obs::Tracer tracer(file.string());
  ASSERT_TRUE(tracer.enabled());
  // Spans from several threads, with args that need JSON escaping.
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("worker.phase", &tracer);
        ASSERT_TRUE(span.active());
        span.arg("thread", std::to_string(t));
        span.arg("nasty", "quote\" backslash\\ tab\t");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(), kThreads * kSpansPerThread);
  tracer.close();
  EXPECT_FALSE(tracer.enabled());
  ASSERT_TRUE(std::filesystem::exists(file));

  JsonValue root = JsonParser(read_file(file)).parse();
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  ASSERT_EQ(events->array.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  for (const JsonValue& e : events->array) {
    EXPECT_EQ(e.find("name")->string, "worker.phase");
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_GE(e.find("ts")->number, 0.0);
    EXPECT_GE(e.find("dur")->number, 0.0);
    EXPECT_EQ(e.find("pid")->number, 1.0);
    EXPECT_GE(e.find("tid")->number, 1.0);
    EXPECT_LE(e.find("tid")->number, kThreads);
    EXPECT_EQ(e.find("args")->find("nasty")->string,
              "quote\" backslash\\ tab\t");
  }
  std::filesystem::remove_all(dir);
}

TEST(ObsTrace, SpanFeedsMetricsHistogramWhenMetricsOn) {
  ScopedMetrics on(obs::ReportMode::kText);
  obs::Histogram& h =
      obs::Registry::global().histogram("span.unit_test_phase.us");
  const std::uint64_t before = h.count();
  {
    obs::Span span("unit_test_phase");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(h.count(), before + 1);
}

// -- end to end through the sweep engine --------------------------------------

TEST(ObsEndToEnd, SweepCountersTrackHitsMissesAndSimPoints) {
  ScopedMetrics on(obs::ReportMode::kText);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t hits0 = reg.counter("results_db.hit").value();
  const std::uint64_t miss0 = reg.counter("results_db.miss").value();
  const std::uint64_t sims0 = reg.counter("sweep.sim_points").value();

  const auto dir =
      std::filesystem::temp_directory_path() / "vlacnn_test_obs_sweep";
  std::filesystem::remove_all(dir);
  {
    ResultsDb db((dir / "cache.csv").string());
    SweepDriver driver(&db);
    const ConvLayerDesc tiny{8, 8, 8, 4, 3, 3, 1, 1};
    driver.get("obs-test", 0, tiny, Algo::kDirect, 512, 1u << 20);   // miss
    driver.get("obs-test", 0, tiny, Algo::kDirect, 512, 1u << 20);   // hit
  }
  EXPECT_EQ(reg.counter("results_db.miss").value(), miss0 + 1);
  EXPECT_EQ(reg.counter("results_db.hit").value(), hits0 + 1);
  EXPECT_EQ(reg.counter("sweep.sim_points").value(), sims0 + 1);
  // The simulation also rolled its cache stats into the memsim counters.
  EXPECT_GT(reg.counter("memsim.l1_accesses").value(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(ObsEndToEnd, ThreadPoolExposesSizeAndPending) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 2u);  // caller participates, so 2 helpers
  EXPECT_EQ(pool.pending(), 0u);
  std::atomic<int> ran{0};
  pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
  // parallel_for may leave already-satisfied drain tasks queued; workers
  // discard them as no-ops, so pending() must come back to zero.
  for (int i = 0; i < 1000 && pool.pending() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.pending(), 0u);
}

// -- JSON escaping + exit-path robustness -------------------------------------

TEST(ObsRegistry, HostileInstrumentNamesStayParseable) {
  // Every writer in the obs layer now shares obs/json_util.h; names with
  // quotes, backslashes and raw control bytes must round-trip through the
  // report regardless of which instrument they label.
  obs::Registry reg;
  const std::string c_name = "evil\"quote\\back\tslash";
  const std::string g_name = std::string("ctrl\x01mix\x1f") + "\n\r";
  const std::string f_name = "float\x02gauge";
  const std::string h_name = "hist\x7f\xc3\xa9";  // DEL passes, UTF-8 passes
  reg.counter(c_name).add(3);
  reg.gauge(g_name).set(-4);
  reg.float_gauge(f_name).set(1.25);
  reg.histogram(h_name).observe(9);
  const JsonValue root = JsonParser(reg.report_json()).parse();
  ASSERT_NE(root.find("counters")->find(c_name), nullptr);
  EXPECT_EQ(root.find("counters")->find(c_name)->number, 3.0);
  ASSERT_NE(root.find("gauges")->find(g_name), nullptr);
  EXPECT_EQ(root.find("gauges")->find(g_name)->find("value")->number, -4.0);
  ASSERT_NE(root.find("float_gauges")->find(f_name), nullptr);
  EXPECT_EQ(root.find("float_gauges")->find(f_name)->number, 1.25);
  ASSERT_NE(root.find("histograms")->find(h_name), nullptr);
  EXPECT_EQ(root.find("histograms")->find(h_name)->find("count")->number, 1.0);
}

// A short write must still close the file: /dev/full opens fine and fails
// every write with ENOSPC, and a block larger than stdio's buffer makes
// fwrite itself come back short.
template <typename Sink>
void expect_short_write_closes(Sink& sink, std::string (*get_path)(),
                               void (*set_path)(const std::string&),
                               const std::string& who) {
  const auto open_fds = [] {
    std::filesystem::directory_iterator it("/proc/self/fd");
    return std::distance(begin(it), end(it));
  };
  const std::string before = get_path();
  set_path("/dev/full");
  sink.reset();
  sink.record("big", std::string(1 << 20, 'x'));
  const auto fds = open_fds();
  for (int i = 0; i < 5; ++i) {
    try {
      sink.write_file();
      ADD_FAILURE() << who << " reported success writing /dev/full";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), who + ": short write to /dev/full");
    }
  }
  EXPECT_EQ(open_fds(), fds) << who << " leaked a descriptor";
  sink.reset();
  set_path(before);
}

TEST(ObsSinks, ShortWriteClosesTheFile) {
  if (!std::filesystem::exists("/dev/full") ||
      !std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
  }
  expect_short_write_closes(obs::TimelineSink::global(), obs::timeline_path,
                            obs::set_timeline_path, "TimelineSink::write_file");
  expect_short_write_closes(obs::ReqTraceSink::global(), obs::reqtrace_path,
                            obs::set_reqtrace_path, "ReqTraceSink::write_file");
  expect_short_write_closes(obs::KernProfSink::global(), obs::kernprof_path,
                            obs::set_kernprof_path, "KernProfSink::write_file");
}

// -- finish_run: the one artifact writer --------------------------------------

/// Points the three sinks, the global tracer and the report at files in a
/// fresh directory, and puts every knob back afterwards. finish_run keeps
/// the first report title a process sets, so every test here sets the same.
class ObsFinishRun : public ::testing::Test {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    saved_ = {obs::timeline_path(), obs::reqtrace_path(),
              obs::kernprof_path()};
    for (obs::LabeledJsonlSink* s : sinks()) s->reset();
    report::Collector::global().reset();
    report::set_report_title("obs finish run");
  }
  void TearDown() override {
    obs::set_timeline_path(saved_[0]);
    obs::set_reqtrace_path(saved_[1]);
    obs::set_kernprof_path(saved_[2]);
    for (obs::LabeledJsonlSink* s : sinks()) s->reset();
    report::set_report_dir("");
    std::filesystem::remove_all(dir_);
  }
  static std::array<obs::LabeledJsonlSink*, 3> sinks() {
    return {&obs::TimelineSink::global(), &obs::ReqTraceSink::global(),
            &obs::KernProfSink::global()};
  }
  /// Arms all five artifacts, each sink with two blocks recorded out of
  /// label order; `full` names the one artifact pointed at /dev/full
  /// ("tl", "rt", "kp", "trace", "report"), "" none.
  void arm_all(const std::string& full) {
    const auto at = [&](const std::string& name, const std::string& file) {
      return name == full ? std::string("/dev/full") : (dir_ / file).string();
    };
    obs::set_timeline_path(at("tl", "tl.jsonl"));
    obs::set_reqtrace_path(at("rt", "rt.jsonl"));
    obs::set_kernprof_path(at("kp", "kp.jsonl"));
    for (obs::LabeledJsonlSink* s : sinks()) {
      s->record("b", "{\"type\":\"header\"}\n");
      s->record("a", "{\"type\":\"kernel\"}\n");
    }
    obs::Tracer::global().open(at("trace", "trace.json"));
    { obs::Span span("finish_run.test"); }
    if (full == "report") {
      std::filesystem::create_symlink("/dev/full", report_json());
    }
    report::set_report_dir(dir_.string());
  }
  std::filesystem::path report_json() const {
    return dir_ / "obs_finish_run.report.json";
  }
  static constexpr const char* kBlocks =
      "{\"type\":\"run\",\"label\":\"a\"}\n{\"type\":\"kernel\"}\n"
      "{\"type\":\"run\",\"label\":\"b\"}\n{\"type\":\"header\"}\n";

  ScopedMetrics off_{obs::ReportMode::kOff};
  /// One directory per test: ctest runs the three at once.
  const std::filesystem::path dir_ =
      std::filesystem::temp_directory_path() /
      (std::string("vlacnn_test_obs_") +
       testing::UnitTest::GetInstance()->current_test_info()->name());
  std::array<std::string, 3> saved_;
};

TEST_F(ObsFinishRun, WritesEveryArmedArtifactInLabelOrder) {
  arm_all("");
  EXPECT_EQ(report::finish_run("obs-test", 0), 0);
  for (const char* file : {"tl.jsonl", "rt.jsonl", "kp.jsonl"}) {
    EXPECT_EQ(read_file(dir_ / file), kBlocks) << file;
  }
  const JsonValue trace = JsonParser(read_file(dir_ / "trace.json")).parse();
  ASSERT_EQ(trace.find("traceEvents")->array.size(), 1u);
  EXPECT_EQ(trace.find("traceEvents")->array[0].find("name")->string,
            "finish_run.test");
  EXPECT_FALSE(obs::Tracer::global().enabled());
  const report::RunReport r =
      report::report_from_json(read_file(report_json()));
  EXPECT_EQ(r.tool, "obs_finish_run");
  EXPECT_TRUE(std::filesystem::exists(dir_ / "obs_finish_run.report.csv"));
}

TEST_F(ObsFinishRun, AFailedWriteNamesItsPathAndSparesTheOthers) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "needs /dev/full";
  }
  for (const std::string full : {"report", "rt", "trace"}) {
    SetUp();
    arm_all(full);
    testing::internal::CaptureStderr();
    const int code = report::finish_run("obs-test", 0);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1) << full;
    const std::string path =
        full == "report" ? report_json().string() : "/dev/full";
    EXPECT_NE(err.find("obs-test: "), std::string::npos) << err;
    EXPECT_NE(err.find("short write to " + path), std::string::npos) << err;
    for (const char* file : {"tl.jsonl", "rt.jsonl", "kp.jsonl"}) {
      if (std::string(file).starts_with(full)) continue;
      EXPECT_EQ(read_file(dir_ / file), kBlocks) << full << ": " << file;
    }
    EXPECT_EQ(std::filesystem::exists(dir_ / "trace.json"), full != "trace");
    EXPECT_TRUE(std::filesystem::exists(dir_ / "obs_finish_run.report.csv") ||
                full == "report");
    TearDown();
  }
}

TEST_F(ObsFinishRun, KeepsANonzeroCodeAndWritesNoFileForAnEmptySink) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "needs /dev/full";
  }
  arm_all("tl");
  obs::KernProfSink::global().reset();
  testing::internal::CaptureStderr();
  EXPECT_EQ(report::finish_run("obs-test", 2), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("TimelineSink::write_file: short write to /dev/full"),
            std::string::npos)
      << err;
  EXPECT_FALSE(std::filesystem::exists(dir_ / "kp.jsonl"));
  EXPECT_EQ(read_file(dir_ / "rt.jsonl"), kBlocks);
}

TEST(ObsTrace, HostileSpanArgsStayParseable) {
  const auto dir =
      std::filesystem::temp_directory_path() / "vlacnn_test_obs_hostile";
  std::filesystem::remove_all(dir);
  const auto file = dir / "trace.json";
  const std::string nasty = std::string("a\x01b\x1f") + "\"\\\n\r\t";
  obs::Tracer tracer(file.string());
  {
    obs::Span span(nasty, &tracer);  // hostile *name*, not just args
    span.arg(nasty, nasty);
  }
  tracer.close();
  const JsonValue root = JsonParser(read_file(file)).parse();
  const JsonValue& e = root.find("traceEvents")->array.at(0);
  EXPECT_EQ(e.find("name")->string, nasty);
  EXPECT_EQ(e.find("args")->find(nasty)->string, nasty);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vlacnn
