/**
 * @file
 * Telemetry tests: percentile math, stats serialization round-trips,
 * trace-sink output validity, disabled-by-default tracing, the
 * instrumentation context's scoped installs, and the per-run report
 * artifact. Every emitted document is parsed back with a
 * small JSON parser so a serialization regression fails loudly instead
 * of producing artifacts Perfetto rejects.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>

#include "json_test_util.hh"

#include "common/faultinject.hh"
#include "common/stats.hh"
#include "embedding/generator.hh"
#include "fafnir/event_engine.hh"
#include "telemetry/attribution.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/report.hh"
#include "telemetry/slo.hh"
#include "telemetry/trace_sink.hh"

using namespace fafnir;
using testutil::JsonValue;
using testutil::parseJson;

namespace
{

/** An event-engine rig for exercising real instrumentation sites. */
core::EventLookupTiming
runOneLookup()
{
    EventQueue eq;
    dram::MemorySystem memory(eq, dram::Geometry::withTotalRanks(8),
                              dram::Timing::ddr4_2400(),
                              dram::Interleave::BlockRank, 512);
    const embedding::TableConfig tables{32, 1u << 16, 512, 4};
    const embedding::VectorLayout layout(tables, memory.mapper());
    core::EventDrivenEngine engine(memory, layout,
                                   core::EventEngineConfig{});

    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 8;
    wc.querySize = 16;
    wc.zipfSkew = 0.9;
    wc.hotFraction = 0.01;
    const embedding::Batch batch =
        embedding::BatchGenerator(wc, 7).next();
    return engine.lookup(batch, 0);
}

} // namespace

// --- Percentile math. -------------------------------------------------

TEST(Distribution, NearestRankPercentilesOnKnownSet)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.p50(), 50.0);
    EXPECT_DOUBLE_EQ(d.p95(), 95.0);
    EXPECT_DOUBLE_EQ(d.p99(), 99.0);
    EXPECT_DOUBLE_EQ(d.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 1.0);
}

TEST(Distribution, EmptyReportsNaN)
{
    const Distribution d;
    EXPECT_TRUE(std::isnan(d.min()));
    EXPECT_TRUE(std::isnan(d.max()));
    EXPECT_TRUE(std::isnan(d.p50()));
    EXPECT_EQ(d.count(), 0u);
    EXPECT_TRUE(std::isnan(d.mean()));
}

TEST(Distribution, MinMaxTrackSamples)
{
    Distribution d;
    d.sample(5.0);
    d.sample(-3.0);
    d.sample(12.0);
    EXPECT_DOUBLE_EQ(d.min(), -3.0);
    EXPECT_DOUBLE_EQ(d.max(), 12.0);
    d.reset();
    EXPECT_TRUE(std::isnan(d.min()));
}

TEST(Distribution, ReservoirIsDeterministicAndAccurate)
{
    // Two identical streams larger than the reservoir must agree
    // exactly, and the sampled percentile must stay close to truth.
    Distribution a;
    Distribution b;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        a.sample(i);
        b.sample(i);
    }
    EXPECT_DOUBLE_EQ(a.p50(), b.p50());
    EXPECT_DOUBLE_EQ(a.p99(), b.p99());
    EXPECT_NEAR(a.p50(), n / 2.0, n * 0.05);
    EXPECT_NEAR(a.p99(), n * 0.99, n * 0.05);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), n - 1.0);
    EXPECT_EQ(a.count(), static_cast<std::uint64_t>(n));
}

// --- Stats serialization round-trips. ---------------------------------

TEST(StatRegistry, JsonRoundTrip)
{
    StatRegistry registry;
    Counter hits;
    ++hits;
    ++hits;
    ++hits;
    Distribution latency;
    for (int i = 1; i <= 100; ++i)
        latency.sample(i);

    StatGroup &group = registry.group("cache");
    group.addCounter("hits", hits, "cache hits");
    group.addDistribution("latency", latency, "hit latency");
    group.addFormula("hitsTimesTwo",
                     [&] { return static_cast<double>(hits.value()) * 2; });

    std::ostringstream os;
    registry.dumpJson(os);
    const JsonValue root = parseJson(os.str());

    const JsonValue &cache = root.at("cache");
    EXPECT_DOUBLE_EQ(cache.at("hits").number, 3.0);
    EXPECT_DOUBLE_EQ(cache.at("hitsTimesTwo").number, 6.0);
    const JsonValue &dist = cache.at("latency");
    EXPECT_DOUBLE_EQ(dist.at("count").number, 100.0);
    EXPECT_DOUBLE_EQ(dist.at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(dist.at("max").number, 100.0);
    EXPECT_DOUBLE_EQ(dist.at("p50").number, 50.0);
    EXPECT_DOUBLE_EQ(dist.at("p95").number, 95.0);
    EXPECT_DOUBLE_EQ(dist.at("p99").number, 99.0);
}

TEST(StatRegistry, EmptyDistributionSerializesAsNullBounds)
{
    StatRegistry registry;
    Distribution empty;
    registry.group("g").addDistribution("d", empty);

    std::ostringstream os;
    registry.dumpJson(os);
    const JsonValue root = parseJson(os.str());
    const JsonValue &d = root.at("g").at("d");
    EXPECT_DOUBLE_EQ(d.at("count").number, 0.0);
    // NaN must not leak into the document; it serializes as null.
    EXPECT_EQ(d.at("min").kind, JsonValue::Kind::Null);
    EXPECT_EQ(d.at("p50").kind, JsonValue::Kind::Null);
}

TEST(StatRegistry, CsvFlattensEveryStat)
{
    StatRegistry registry;
    Counter c;
    ++c;
    Distribution d;
    d.sample(4.0);
    registry.group("g").addCounter("c", c);
    registry.group("g").addDistribution("d", d);

    std::ostringstream os;
    registry.dumpCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("stat,value"), std::string::npos);
    EXPECT_NE(csv.find("g.c,1"), std::string::npos);
    EXPECT_NE(csv.find("g.d.p50,"), std::string::npos);
}

TEST(StatRegistry, GroupIsGetOrCreate)
{
    StatRegistry registry;
    StatGroup &a = registry.group("x");
    StatGroup &b = registry.group("x");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_TRUE(registry.has("x"));
    EXPECT_FALSE(registry.has("y"));
    registry.clear();
    EXPECT_EQ(registry.size(), 0u);
}

// --- Instrumentation context. -----------------------------------------

TEST(Instruments, NestedInstallersRestoreThePreviousContext)
{
    ASSERT_EQ(instruments().trace, nullptr);
    ASSERT_EQ(instruments().faults, nullptr);
    telemetry::TraceSink outer_sink;
    telemetry::TraceSink inner_sink;
    fault::FaultPlan plan(1);
    {
        ScopedInstruments outer({.trace = &outer_sink, .faults = &plan});
        {
            ScopedInstruments inner({.trace = &inner_sink});
            EXPECT_EQ(instruments().trace, &inner_sink);
            EXPECT_EQ(instruments().faults, nullptr);
        }
        EXPECT_EQ(instruments().trace, &outer_sink);
        EXPECT_EQ(instruments().faults, &plan);
    }
    EXPECT_EQ(instruments().trace, nullptr);
    EXPECT_EQ(instruments().faults, nullptr);
}

TEST(Instruments, NullingOneFieldKeepsTheOtherFive)
{
    // The serving pipeline's hedge backup runs with attribution off and
    // every other instrument still installed.
    telemetry::TraceSink sink;
    telemetry::Attribution attr;
    telemetry::TimeSeries series(telemetry::TimeSeriesConfig{});
    telemetry::SloMonitor slo(
        telemetry::SloMonitor::parseSpec("availability>=0.99"),
        telemetry::BurnConfig{});
    telemetry::FlightRecorder rec;
    fault::FaultPlan plan(1);
    ScopedInstruments all({&sink, &attr, &series, &slo, &rec, &plan});
    // nullptr under FAFNIR_FLIGHTREC_COMPILED_OUT, &rec otherwise.
    telemetry::FlightRecorder *const recorder = instruments().recorder;
    {
        Instruments unattributed = instruments();
        unattributed.attribution = nullptr;
        ScopedInstruments off(unattributed);
        const Instruments in = instruments();
        EXPECT_EQ(in.attribution, nullptr);
        EXPECT_EQ(in.trace, &sink);
        EXPECT_EQ(in.series, &series);
        EXPECT_EQ(in.slo, &slo);
        EXPECT_EQ(in.recorder, recorder);
        EXPECT_EQ(in.faults, &plan);
    }
    EXPECT_EQ(instruments().attribution, &attr);
}

// --- Trace sink. ------------------------------------------------------

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    ASSERT_EQ(instruments().trace, nullptr);
    telemetry::TraceSink uninstalled;
    runOneLookup(); // instrumented sites all over the stack
    EXPECT_EQ(uninstalled.eventCount(), 0u);
}

TEST(TraceSink, InstalledSinkCapturesTheLookup)
{
    telemetry::TraceSink sink;
    {
        ScopedInstruments install({.trace = &sink});
        ASSERT_EQ(instruments().trace, &sink);
        runOneLookup();
    }
    EXPECT_EQ(instruments().trace, nullptr);
    EXPECT_GT(sink.eventCount(), 0u);
}

TEST(TraceSink, WritesValidChromeTraceJson)
{
    telemetry::TraceSink sink;
    sink.setThreadName(telemetry::kPidTree, 1, "PE 1");
    // 2 us at tick 1 us: ts and dur are microseconds in the output.
    sink.completeEvent(telemetry::kPidTree, 1, "pe", "reduce",
                       kTicksPerUs, 2 * kTicksPerUs,
                       {{"items", 3.0}});
    sink.instantEvent(telemetry::kPidSim, 0, "sim", "dispatch",
                      5 * kTicksPerUs);
    sink.counterEvent(telemetry::kPidTree, "occupancy", 0, 4.0);

    std::ostringstream os;
    sink.write(os);
    const JsonValue root = parseJson(os.str());

    EXPECT_EQ(root.at("displayTimeUnit").text, "ns");
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);

    bool found_span = false;
    bool found_counter = false;
    for (const JsonValue &e : events.array) {
        const std::string phase = e.at("ph").text;
        if (phase == "X" && e.at("name").text == "reduce") {
            found_span = true;
            EXPECT_DOUBLE_EQ(e.at("ts").number, 1.0);
            EXPECT_DOUBLE_EQ(e.at("dur").number, 2.0);
            EXPECT_DOUBLE_EQ(e.at("args").at("items").number, 3.0);
        }
        if (phase == "C" && e.at("name").text == "occupancy")
            found_counter = true;
    }
    EXPECT_TRUE(found_span);
    EXPECT_TRUE(found_counter);
}

TEST(TraceSink, EndToEndTraceOfALookupParses)
{
    telemetry::TraceSink sink;
    {
        ScopedInstruments install({.trace = &sink});
        runOneLookup();
    }
    std::ostringstream os;
    sink.write(os);
    const JsonValue root = parseJson(os.str());
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);
    EXPECT_GT(events.array.size(), 10u);

    // Tree spans and process metadata must both be present.
    bool tree_span = false;
    bool named_process = false;
    for (const JsonValue &e : events.array) {
        if (e.at("ph").text == "X" &&
            e.at("pid").number == telemetry::kPidTree) {
            tree_span = true;
        }
        if (e.at("ph").text == "M" &&
            e.at("name").text == "process_name") {
            named_process = true;
        }
    }
    EXPECT_TRUE(tree_span);
    EXPECT_TRUE(named_process);
}

// --- Flow events (Perfetto arrows). -----------------------------------

TEST(TraceSink, FlowEventsRoundTripWithSharedId)
{
    telemetry::TraceSink sink;
    const std::uint64_t fid = sink.newFlowId();
    sink.completeEvent(telemetry::kPidDram, 0, "dram.read", "rd",
                       kTicksPerUs, kTicksPerUs);
    sink.flowBegin(fid, telemetry::kPidDram, 0, "flow", "q0",
                   kTicksPerUs);
    sink.flowStep(fid, telemetry::kPidTree, 4, "flow", "q0",
                  3 * kTicksPerUs);
    sink.flowEnd(fid, telemetry::kPidService, 3, "flow", "q0",
                 5 * kTicksPerUs);

    std::ostringstream os;
    sink.write(os);
    const JsonValue root = parseJson(os.str());

    bool begin = false, step = false, end = false;
    for (const JsonValue &e : root.at("traceEvents").array) {
        const std::string phase = e.at("ph").text;
        if (phase != "s" && phase != "t" && phase != "f")
            continue;
        EXPECT_DOUBLE_EQ(e.at("id").number,
                         static_cast<double>(fid));
        EXPECT_EQ(e.at("cat").text, "flow");
        if (phase == "s") {
            begin = true;
            EXPECT_DOUBLE_EQ(e.at("ts").number, 1.0);
        }
        if (phase == "t")
            step = true;
        if (phase == "f") {
            end = true;
            // Perfetto requires binding the arrowhead to the
            // enclosing slice, not the next one.
            EXPECT_EQ(e.at("bp").text, "e");
        }
    }
    EXPECT_TRUE(begin);
    EXPECT_TRUE(step);
    EXPECT_TRUE(end);
}

TEST(TraceSink, FlowIdsAreMonotonic)
{
    telemetry::TraceSink sink;
    const std::uint64_t first = sink.newFlowId();
    const std::uint64_t second = sink.newFlowId();
    EXPECT_GT(second, first);
    EXPECT_EQ(sink.lastFlowId(), second);
}

TEST(TraceSink, LookupEmitsWellFormedFlowPairs)
{
    telemetry::TraceSink sink;
    {
        ScopedInstruments install({.trace = &sink});
        runOneLookup();
    }
    std::ostringstream os;
    sink.write(os);
    const JsonValue root = parseJson(os.str());

    // Every flow terminator must share its id with exactly one start,
    // and arrows must not point backwards in time.
    std::map<double, double> begin_ts;
    std::size_t terminators = 0;
    for (const JsonValue &e : root.at("traceEvents").array) {
        const std::string phase = e.at("ph").text;
        if (phase == "s") {
            const double id = e.at("id").number;
            EXPECT_EQ(begin_ts.count(id), 0u)
                << "duplicate flow start " << id;
            begin_ts[id] = e.at("ts").number;
        }
    }
    EXPECT_FALSE(begin_ts.empty());
    for (const JsonValue &e : root.at("traceEvents").array) {
        const std::string phase = e.at("ph").text;
        if (phase != "t" && phase != "f")
            continue;
        ++terminators;
        const double id = e.at("id").number;
        ASSERT_EQ(begin_ts.count(id), 1u)
            << "flow " << phase << " without start, id " << id;
        EXPECT_GE(e.at("ts").number, begin_ts[id]);
    }
    EXPECT_GT(terminators, 0u);
}

// --- Run report. ------------------------------------------------------

TEST(RunReport, WritesValidJsonWithConfigAndMetrics)
{
    telemetry::RunReport report("test_tool");
    report.setConfig("engine", std::string("event"));
    report.setConfig("ranks", std::uint64_t{32});
    report.setConfig("skew", 0.9);
    report.setConfig("dedup", true);
    report.setMetric("totalUs", 12.5);
    report.noteArtifact("trace", "trace.json");

    StatRegistry registry;
    Counter c;
    ++c;
    registry.group("g").addCounter("c", c);

    std::ostringstream os;
    report.write(os, &registry);
    const JsonValue root = parseJson(os.str());

    EXPECT_EQ(root.at("tool").text, "test_tool");
    EXPECT_FALSE(root.at("git").text.empty());
    EXPECT_NE(root.at("timestamp").text.find("T"), std::string::npos);
    EXPECT_GE(root.at("wallSeconds").number, 0.0);
    EXPECT_EQ(root.at("config").at("engine").text, "event");
    EXPECT_DOUBLE_EQ(root.at("config").at("ranks").number, 32.0);
    EXPECT_EQ(root.at("config").at("dedup").kind,
              JsonValue::Kind::Boolean);
    EXPECT_TRUE(root.at("config").at("dedup").boolean);
    EXPECT_DOUBLE_EQ(root.at("metrics").at("totalUs").number, 12.5);
    EXPECT_EQ(root.at("artifacts").at("trace").text, "trace.json");
    EXPECT_DOUBLE_EQ(root.at("stats").at("g").at("c").number, 1.0);
}
