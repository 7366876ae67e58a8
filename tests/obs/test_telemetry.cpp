// Telemetry registry semantics: counter/timer identity and aggregation,
// thread-local timer slabs across pool workers, snapshot ordering,
// and RunReport serialization. Every test also compiles (and the
// API-surface ones still run) with RFMIX_OBS=OFF, where the registry
// collapses to shared no-ops.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"

namespace rfmix::obs {
namespace {

TEST(Telemetry, CounterAccumulatesAndReads) {
  Counter& c = counter("test.telemetry.basic");
  const std::uint64_t before = c.value();
  c.increment();
  c.add(41);
#if RFMIX_OBS_ENABLED
  EXPECT_EQ(c.value(), before + 42);
  EXPECT_EQ(counter_value("test.telemetry.basic"), before + 42);
#else
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(counter_value("test.telemetry.basic"), 0u);
#endif
  (void)before;
}

TEST(Telemetry, LookupReturnsStableIdentity) {
  Counter& a = counter("test.telemetry.identity");
  Counter& b = counter("test.telemetry.identity");
  EXPECT_EQ(&a, &b);
  Timer& ta = timer("test.telemetry.identity.t");
  Timer& tb = timer("test.telemetry.identity.t");
  EXPECT_EQ(&ta, &tb);
#if RFMIX_OBS_ENABLED
  // Distinct names are distinct instruments.
  EXPECT_NE(&a, &counter("test.telemetry.identity2"));
#endif
}

TEST(Telemetry, MacroCountsThroughCachedReference) {
  const std::uint64_t before = counter_value("test.telemetry.macro");
  for (int i = 0; i < 3; ++i) RFMIX_OBS_COUNT("test.telemetry.macro");
  RFMIX_OBS_COUNT_N("test.telemetry.macro", 7);
#if RFMIX_OBS_ENABLED
  EXPECT_EQ(counter_value("test.telemetry.macro"), before + 10);
#else
  EXPECT_EQ(counter_value("test.telemetry.macro"), 0u);
#endif
  (void)before;
}

TEST(Telemetry, TimerRecordsCallsAndTime) {
  Timer& t = timer("test.telemetry.timer");
  const std::uint64_t calls_before = t.calls();
  const std::uint64_t ns_before = t.total_ns();
  t.record(1500);
  t.record(500);
#if RFMIX_OBS_ENABLED
  EXPECT_EQ(t.calls(), calls_before + 2);
  EXPECT_EQ(t.total_ns(), ns_before + 2000);
  EXPECT_DOUBLE_EQ(t.total_s(), static_cast<double>(ns_before + 2000) * 1e-9);
#else
  EXPECT_EQ(t.calls(), 0u);
  EXPECT_EQ(t.total_ns(), 0u);
#endif
  (void)calls_before;
  (void)ns_before;
}

TEST(Telemetry, ScopedTimerCreditsOneCall) {
  Timer& t = timer("test.telemetry.scoped");
  const std::uint64_t before = t.calls();
  {
    ScopedTimer scope(t);
  }
#if RFMIX_OBS_ENABLED
  EXPECT_EQ(t.calls(), before + 1);
#endif
  (void)before;
}

#if RFMIX_OBS_ENABLED

TEST(Telemetry, SnapshotIsSortedByName) {
  counter("test.telemetry.zzz").increment();
  counter("test.telemetry.aaa").increment();
  timer("test.telemetry.zzz.t").record(1);
  const TelemetrySnapshot s = snapshot();
  ASSERT_FALSE(s.counters.empty());
  for (std::size_t i = 1; i < s.counters.size(); ++i)
    EXPECT_LT(s.counters[i - 1].name, s.counters[i].name);
  for (std::size_t i = 1; i < s.timers.size(); ++i)
    EXPECT_LT(s.timers[i - 1].name, s.timers[i].name);
}

TEST(Telemetry, SnapshotCarriesValues) {
  Counter& c = counter("test.telemetry.snapvalue");
  const std::uint64_t target = c.value() + 5;
  c.add(5);
  const TelemetrySnapshot s = snapshot();
  bool found = false;
  for (const CounterSnapshot& cs : s.counters) {
    if (cs.name == "test.telemetry.snapvalue") {
      EXPECT_EQ(cs.value, target);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Telemetry, CounterValueOfUnknownNameIsZeroWithoutCreating) {
  const std::size_t n_before = snapshot().counters.size();
  EXPECT_EQ(counter_value("test.telemetry.never_created"), 0u);
  EXPECT_EQ(snapshot().counters.size(), n_before);
}

// The slab design's core claim: concurrent ScopedTimers on many pool
// workers aggregate without losing calls. Runs the scopes through
// parallel_for on a private pool so worker threads (not just the caller)
// hit the thread-local slabs, including threads created after the timer.
TEST(Telemetry, TimerAggregatesAcrossPoolWorkers) {
  Timer& t = timer("test.telemetry.pool_aggregate");
  const std::uint64_t calls_before = t.calls();
  constexpr std::size_t kTasks = 256;
  runtime::ScopedPool pool(4);
  runtime::parallel_for(0, kTasks, [&](std::size_t) {
    ScopedTimer scope(t);
    std::atomic_signal_fence(std::memory_order_seq_cst);  // keep the scope
  });
  EXPECT_EQ(t.calls(), calls_before + kTasks);
}

// Totals recorded on a thread must survive that thread's exit (slabs are
// retired into the registry, not dropped).
TEST(Telemetry, DeadThreadTotalsAreRetained) {
  Timer& t = timer("test.telemetry.retired");
  const std::uint64_t calls_before = t.calls();
  const std::uint64_t ns_before = t.total_ns();
  std::thread worker([&] { t.record(12345); });
  worker.join();
  EXPECT_EQ(t.calls(), calls_before + 1);
  EXPECT_EQ(t.total_ns(), ns_before + 12345);
}

TEST(Telemetry, ResetAllZeroesCountersAndTimers) {
  counter("test.telemetry.reset").add(9);
  timer("test.telemetry.reset.t").record(9);
  reset_all();
  EXPECT_EQ(counter_value("test.telemetry.reset"), 0u);
  EXPECT_EQ(timer("test.telemetry.reset.t").calls(), 0u);
  EXPECT_EQ(timer("test.telemetry.reset.t").total_ns(), 0u);
}

#endif  // RFMIX_OBS_ENABLED

TEST(RunReportTest, EmitsSchemaFields) {
  RunReport report("unit_test_tool");
  report.set_config("points", 29.0);
  report.set_config("mode", std::string("active"));
  report.add_metric("gain_db", 29.2);
  report.add_metric("verdict", std::string("pass"));
  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tool\": \"unit_test_tool\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"started_utc\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_s\""), std::string::npos);
  EXPECT_NE(json.find("\"gain_db\": 29.2"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"pass\""), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"active\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"timers\""), std::string::npos);
}

TEST(RunReportTest, ReportsObsBuildFlag) {
  RunReport report("unit_test_tool");
  std::ostringstream os;
  report.write(os);
#if RFMIX_OBS_ENABLED
  EXPECT_NE(os.str().find("\"obs_enabled\": true"), std::string::npos);
#else
  EXPECT_NE(os.str().find("\"obs_enabled\": false"), std::string::npos);
#endif
}

TEST(RunReportTest, TelemetrySectionTracksRegistry) {
  counter("test.report.counter").add(3);
  RunReport report("unit_test_tool");
  std::ostringstream os;
  report.write(os);
#if RFMIX_OBS_ENABLED
  EXPECT_NE(os.str().find("\"test.report.counter\""), std::string::npos);
#else
  // Disabled builds still produce the sections, just empty of instruments.
  EXPECT_EQ(os.str().find("\"test.report.counter\""), std::string::npos);
#endif
}

}  // namespace
}  // namespace rfmix::obs
