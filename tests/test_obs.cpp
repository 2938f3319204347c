// Observability layer: span nesting/ordering invariants, Chrome trace JSON
// well-formedness (parsed back by a minimal JSON reader), histogram bucket
// math, Prometheus exposition shape, warn-level log routing into the trace,
// the zero-cost disabled path, and — the determinism contract — identical
// netlists and identical engine counters with tracing on and off on a
// fraig+rewrite flow.
#include "backend/write_rtlil.hpp"
#include "benchgen/random_circuit.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "rewrite/rewrite_engine.hpp"
#include "rtlil/module.hpp"
#include "sweep/fraig_engine.hpp"
#include "util/log.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace smartly;

namespace {

// --- minimal JSON reader (tests only): enough to parse the trace back ----

struct Json {
  enum Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Null;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    static const Json null;
    const auto it = obj.find(key);
    return it == obj.end() ? null : it->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json* out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == s_.size(); // whole document, no trailing garbage
  }

private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0)
      return false;
    pos_ += n;
    return true;
  }
  bool value(Json* out) {
    skip_ws();
    if (pos_ >= s_.size())
      return false;
    const char c = s_[pos_];
    if (c == '{')
      return object(out);
    if (c == '[')
      return array(out);
    if (c == '"') {
      out->kind = Json::Str;
      return string(&out->str);
    }
    if (literal("true")) {
      out->kind = Json::Bool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->kind = Json::Bool;
      return true;
    }
    if (literal("null")) {
      out->kind = Json::Null;
      return true;
    }
    return number(out);
  }
  bool object(Json* out) {
    out->kind = Json::Obj;
    ++pos_; // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key))
        return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':')
        return false;
      ++pos_;
      Json v;
      if (!value(&v))
        return false;
      out->obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size())
        return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array(Json* out) {
    out->kind = Json::Arr;
    ++pos_; // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      if (!value(&v))
        return false;
      out->arr.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size())
        return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"')
      return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"')
        return true;
      if (c == '\\') {
        if (pos_ >= s_.size())
          return false;
        const char e = s_[pos_++];
        switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size())
            return false;
          *out += '?'; // control chars round-trip as placeholders; fine here
          pos_ += 4;
          break;
        }
        default: return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }
  bool number(Json* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    if (pos_ == start)
      return false;
    out->kind = Json::Num;
    out->number = std::strtod(s_.c_str() + start, nullptr);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

Json parse_trace_or_fail() {
  const std::string text = obs::chrome_trace_json();
  Json doc;
  EXPECT_TRUE(JsonParser(text).parse(&doc)) << "trace JSON does not parse:\n" << text;
  EXPECT_EQ(doc.kind, Json::Obj);
  EXPECT_EQ(doc.at("traceEvents").kind, Json::Arr);
  return doc;
}

const Json* find_event(const Json& doc, const std::string& name) {
  for (const Json& e : doc.at("traceEvents").arr)
    if (e.at("name").str == name)
      return &e;
  return nullptr;
}

/// Every trace test runs against the process-global tracer; start clean and
/// leave tracing off for the next test.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::set_tracing(false);
    obs::reset_trace();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::reset_trace();
  }
};

// --- histogram bucket math ------------------------------------------------

TEST(ObsHistogram, BucketBoundsArePowersOfTwoMinusOne) {
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_bound(5), 31u);
  EXPECT_EQ(obs::Histogram::bucket_bound(31), 0x7fffffffu);
}

TEST(ObsHistogram, BucketIndexPicksSmallestContainingBucket) {
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_index(7), 3);
  EXPECT_EQ(obs::Histogram::bucket_index(8), 4);
  // Saturates at the +Inf bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(UINT64_MAX), obs::Histogram::kBuckets - 1);
}

TEST(ObsHistogram, ObserveAccumulatesCountSumAndBuckets) {
  obs::Histogram h;
  for (const uint64_t v : {0, 1, 3, 3, 100})
    h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 107u);
  EXPECT_EQ(h.bucket(0), 1u); // 0
  EXPECT_EQ(h.bucket(1), 1u); // 1
  EXPECT_EQ(h.bucket(2), 2u); // 3, 3
  EXPECT_EQ(h.bucket(7), 1u); // 100 <= 127
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// --- registry snapshot + exposition ---------------------------------------

TEST(ObsRegistry, SnapshotIsSortedAndExpandsHistograms) {
  obs::Registry r;
  r.counter("zeta.count").add(3);
  r.counter("alpha.count").add(1);
  r.gauge("mid.gauge").set(7);
  r.histogram("beta.hist").observe(10);
  const auto snap = r.snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snap)
    names.push_back(name);
  for (size_t i = 1; i < names.size(); ++i)
    EXPECT_LT(names[i - 1], names[i]) << "snapshot must be sorted";
  std::map<std::string, uint64_t> m(snap.begin(), snap.end());
  EXPECT_EQ(m.at("zeta.count"), 3u);
  EXPECT_EQ(m.at("alpha.count"), 1u);
  EXPECT_EQ(m.at("mid.gauge"), 7u);
  EXPECT_EQ(m.at("beta.hist.count"), 1u);
  EXPECT_EQ(m.at("beta.hist.sum"), 10u);
}

TEST(ObsRegistry, PrometheusTextRendersAllThreeKinds) {
  obs::Registry r;
  r.counter("fraig.sat_queries").add(42);
  r.gauge("service.jobs_completed").set(5);
  auto& h = r.histogram("service.job_us");
  h.observe(1);
  h.observe(100);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("# TYPE smartly_fraig_sat_queries counter"), std::string::npos);
  EXPECT_NE(text.find("smartly_fraig_sat_queries 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE smartly_service_jobs_completed gauge"), std::string::npos);
  EXPECT_NE(text.find("smartly_service_jobs_completed 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE smartly_service_job_us histogram"), std::string::npos);
  // Cumulative buckets: le="1" already contains the first observation, the
  // +Inf bucket contains both, and sum/count close the series.
  EXPECT_NE(text.find("smartly_service_job_us_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("smartly_service_job_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("smartly_service_job_us_sum 101"), std::string::npos);
  EXPECT_NE(text.find("smartly_service_job_us_count 2"), std::string::npos);
}

TEST(ObsRegistry, ReferencesSurviveResetAll) {
  obs::Registry r;
  obs::Counter& c = r.counter("stable.ref");
  c.add(9);
  r.reset_all();
  EXPECT_EQ(c.value(), 0u); // zeroed in place, same storage
  c.add(2);
  EXPECT_EQ(r.counter("stable.ref").value(), 2u);
}

// --- spans + trace JSON ---------------------------------------------------

TEST_F(ObsTest, NestedSpansAreContainedAndCloseInnerFirst) {
  obs::set_tracing(true);
  {
    const obs::Span outer("test", "outer");
    {
      const obs::Span inner("test", "inner", "arg", 17);
    }
  }
  EXPECT_EQ(obs::trace_event_count(), 2u);
  const Json doc = parse_trace_or_fail();
  const Json* outer = find_event(doc, "outer");
  const Json* inner = find_event(doc, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread, complete events, inner temporally contained in outer.
  EXPECT_EQ(outer->at("ph").str, "X");
  EXPECT_EQ(inner->at("ph").str, "X");
  EXPECT_EQ(outer->at("tid").number, inner->at("tid").number);
  EXPECT_LE(outer->at("ts").number, inner->at("ts").number);
  EXPECT_LE(inner->at("ts").number + inner->at("dur").number,
            outer->at("ts").number + outer->at("dur").number);
  EXPECT_EQ(inner->at("args").at("arg").number, 17.0);
  // Events append at destruction: the inner span lands before the outer.
  const auto& events = doc.at("traceEvents").arr;
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").str, "inner");
  EXPECT_EQ(events[1].at("name").str, "outer");
}

TEST_F(ObsTest, TraceJsonCarriesTheChromeEnvelope) {
  obs::set_tracing(true);
  { const obs::Span s("test", "one"); }
  obs::trace_instant("test", "marker", "hello \"quoted\"\n");
  const Json doc = parse_trace_or_fail();
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  for (const Json& e : doc.at("traceEvents").arr) {
    EXPECT_EQ(e.at("name").kind, Json::Str);
    EXPECT_EQ(e.at("cat").kind, Json::Str);
    EXPECT_EQ(e.at("pid").number, 1.0);
    EXPECT_GE(e.at("tid").number, 1.0);
    EXPECT_EQ(e.at("ts").kind, Json::Num);
  }
  const Json* marker = find_event(doc, "marker");
  ASSERT_NE(marker, nullptr);
  EXPECT_EQ(marker->at("ph").str, "i");
  EXPECT_EQ(marker->at("s").str, "t");
  EXPECT_EQ(marker->at("args").at("message").str, "hello \"quoted\"\n");
}

TEST_F(ObsTest, WarnAndErrorLogsBecomeInstantEvents) {
  obs::set_tracing(true);
  log_warn("sweep region %d looks off", 3);
  log_error("oracle gave up");
  log_info("chatty"); // below Warn: never traced
  const Json doc = parse_trace_or_fail();
  const Json* warn = find_event(doc, "log.warn");
  const Json* error = find_event(doc, "log.error");
  ASSERT_NE(warn, nullptr);
  ASSERT_NE(error, nullptr);
  EXPECT_NE(warn->at("args").at("message").str.find("sweep region 3 looks off"),
            std::string::npos);
  EXPECT_EQ(find_event(doc, "log.info"), nullptr);
  EXPECT_EQ(doc.at("traceEvents").arr.size(), 2u);
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  ASSERT_FALSE(obs::tracing_enabled());
  for (int i = 0; i < 100000; ++i) {
    const obs::Span s("test", "noop");
  }
  obs::trace_instant("test", "noop", "dropped");
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST_F(ObsTest, ResetTraceDropsBufferedEvents) {
  obs::set_tracing(true);
  { const obs::Span s("test", "gone"); }
  EXPECT_EQ(obs::trace_event_count(), 1u);
  obs::reset_trace();
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const Json doc = parse_trace_or_fail();
  EXPECT_TRUE(doc.at("traceEvents").arr.empty());
}

// --- stage profile --------------------------------------------------------

TEST(ObsProfile, AccumulatesRepeatedStagesInFirstSeenOrder) {
  obs::StageProfile p;
  { const auto s = p.scope("alpha"); }
  { const auto s = p.scope("beta"); }
  { const auto s = p.scope("alpha"); }
  ASSERT_EQ(p.stages().size(), 2u);
  EXPECT_EQ(p.stages()[0].name, "alpha");
  EXPECT_EQ(p.stages()[1].name, "beta");
  for (const obs::StageTiming& s : p.stages()) {
    EXPECT_GE(s.wall_seconds, 0.0);
    EXPECT_GE(s.cpu_seconds, 0.0);
  }
}

// --- determinism with tracing on -------------------------------------------

TEST_F(ObsTest, FraigRewriteCountersAndNetlistIdenticalWithTracingOnAndOff) {
  // Engine counters are published from the deterministic Stats structs, and
  // spans never feed back into a decision: a traced run and an untraced one
  // must give the same netlist and the same counters.
  const std::string verilog = benchgen::random_verilog(/*seed=*/7, /*size=*/6);
  std::string netlists[2];
  std::map<std::string, uint64_t> counters[2];
  for (int traced = 0; traced < 2; ++traced) {
    obs::Registry::global().reset_all();
    obs::reset_trace();
    obs::set_tracing(traced == 1);

    auto design = verilog::read_verilog(verilog);
    rtlil::Module& top = *design->top();
    sweep::fraig_sweep(top);
    rewrite::rewrite_sweep(top);

    netlists[traced] = backend::write_rtlil(top);
    const auto snapshot = obs::Registry::global().snapshot();
    counters[traced] = {snapshot.begin(), snapshot.end()};
  }
  EXPECT_GT(obs::trace_event_count(), 0u); // the traced run really recorded spans
  EXPECT_EQ(netlists[1], netlists[0]) << "netlist diverged with tracing on";
  EXPECT_EQ(counters[1], counters[0]) << "engine counters diverged with tracing on";
  EXPECT_TRUE(counters[0].count("fraig.rounds"));
  EXPECT_TRUE(counters[0].count("rewrite.rounds"));
}

} // namespace
