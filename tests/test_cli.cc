/**
 * @file
 * Flag-parser tests: value forms, types, and error handling — plus the
 * bench-harness parallelism clamp, which must name *every* installed
 * telemetry facility forcing a run serial, not just the first.
 */

#include <gtest/gtest.h>

#include <array>

#include "bench/bench_util.hh"
#include "common/cli.hh"
#include "common/faultinject.hh"
#include "telemetry/attribution.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

using namespace fafnir;

namespace
{

/** Build a mutable argv from literals. */
struct Args
{
    std::vector<std::string> storage;
    std::vector<char *> argv;

    explicit Args(std::initializer_list<const char *> args)
    {
        storage.emplace_back("prog");
        for (const char *a : args)
            storage.emplace_back(a);
        for (auto &s : storage)
            argv.push_back(s.data());
    }

    int argc() const { return static_cast<int>(argv.size()); }
    char **data() { return argv.data(); }
};

} // namespace

TEST(Cli, ParsesEqualsForm)
{
    unsigned ranks = 32;
    double skew = 0.9;
    bool verbose = false;
    std::string name = "default";
    FlagParser parser("test");
    parser.addUnsigned("ranks", ranks, "ranks");
    parser.addDouble("skew", skew, "skew");
    parser.addBool("verbose", verbose, "verbosity");
    parser.addString("name", name, "name");

    Args args{"--ranks=8", "--skew=1.25", "--verbose=true",
              "--name=hello"};
    parser.parse(args.argc(), args.data());
    EXPECT_EQ(ranks, 8u);
    EXPECT_DOUBLE_EQ(skew, 1.25);
    EXPECT_TRUE(verbose);
    EXPECT_EQ(name, "hello");
}

TEST(Cli, ParsesSpaceForm)
{
    unsigned batch = 8;
    FlagParser parser("test");
    parser.addUnsigned("batch", batch, "batch");
    Args args{"--batch", "16"};
    parser.parse(args.argc(), args.data());
    EXPECT_EQ(batch, 16u);
}

TEST(Cli, Uint64RoundTrip)
{
    std::uint64_t seed = 1;
    FlagParser parser("test");
    parser.addUint64("seed", seed, "seed");
    Args args{"--seed=123456789012345"};
    parser.parse(args.argc(), args.data());
    EXPECT_EQ(seed, 123456789012345ull);
}

TEST(Cli, DefaultsSurviveWhenUnset)
{
    unsigned a = 7;
    double b = 2.5;
    FlagParser parser("test");
    parser.addUnsigned("a", a, "a");
    parser.addDouble("b", b, "b");
    Args args{};
    parser.parse(args.argc(), args.data());
    EXPECT_EQ(a, 7u);
    EXPECT_DOUBLE_EQ(b, 2.5);
}

TEST(Cli, BoolAcceptsNumericForms)
{
    bool flag = true;
    FlagParser parser("test");
    parser.addBool("flag", flag, "flag");
    Args args{"--flag=0"};
    parser.parse(args.argc(), args.data());
    EXPECT_FALSE(flag);
}

TEST(Cli, RejectsUnknownFlag)
{
    unsigned a = 0;
    FlagParser parser("test");
    parser.addUnsigned("a", a, "a");
    Args args{"--typo=3"};
    EXPECT_DEATH(parser.parse(args.argc(), args.data()), "unknown flag");
}

TEST(Cli, RejectsBadValue)
{
    unsigned a = 0;
    FlagParser parser("test");
    parser.addUnsigned("a", a, "a");
    Args args{"--a=notanumber"};
    EXPECT_DEATH(parser.parse(args.argc(), args.data()), "bad value");
}

TEST(Cli, RejectsMissingValue)
{
    unsigned a = 0;
    FlagParser parser("test");
    parser.addUnsigned("a", a, "a");
    Args args{"--a"};
    EXPECT_DEATH(parser.parse(args.argc(), args.data()), "needs a value");
}

TEST(Cli, RejectsBareWord)
{
    FlagParser parser("test");
    Args args{"word"};
    EXPECT_DEATH(parser.parse(args.argc(), args.data()),
                 "expected --flag");
}

TEST(Cli, RejectsDuplicateRegistration)
{
    // Registering the same flag twice must die loudly at registration
    // time, not silently last-writer-win at parse time.
    unsigned a = 0;
    unsigned b = 0;
    FlagParser parser("test");
    parser.addUnsigned("ranks", a, "first owner");
    EXPECT_DEATH(parser.addUnsigned("ranks", b, "second owner"),
                 "duplicate flag");
}

TEST(Cli, RejectsDuplicateRegistrationAcrossTypes)
{
    unsigned a = 0;
    std::string s;
    FlagParser parser("test");
    parser.addUnsigned("mode", a, "numeric owner");
    EXPECT_DEATH(parser.addString("mode", s, "string owner"),
                 "duplicate flag");
}

TEST(ClampParallelism, PassesThroughWithoutTelemetry)
{
    ASSERT_EQ(instruments().trace, nullptr);
    ASSERT_EQ(instruments().faults, nullptr);
    ASSERT_EQ(instruments().series, nullptr);
    EXPECT_EQ(bench::clampReasons(), "");
    EXPECT_EQ(bench::clampParallelism(8, "--jobs"), 8u);
    EXPECT_EQ(bench::sweepJobs(4), 4u);
}

TEST(ClampParallelism, ClampsToOneUnderEachFacility)
{
    {
        telemetry::TraceSink sink;
        ScopedInstruments install({.trace = &sink});
        EXPECT_EQ(bench::clampReasons(), "--trace");
        EXPECT_EQ(bench::clampParallelism(8, "--jobs"), 1u);
    }
    {
        fault::FaultPlan plan =
            fault::FaultPlan::parse("dram_latency:0.1", 1);
        ScopedInstruments install({.faults = &plan});
        EXPECT_EQ(bench::clampReasons(), "--faults");
        EXPECT_EQ(bench::clampParallelism(4, "--jobs"), 1u);
    }
    {
        telemetry::TimeSeries series(telemetry::TimeSeriesConfig{});
        ScopedInstruments install({.series = &series});
        EXPECT_EQ(bench::clampReasons(), "--timeline/--slo");
        EXPECT_EQ(bench::clampParallelism(2, "--jobs"), 1u);
    }
#ifndef FAFNIR_FLIGHTREC_COMPILED_OUT
    {
        telemetry::FlightRecorder rec;
        ScopedInstruments install({.recorder = &rec});
        EXPECT_EQ(bench::clampReasons(), "--debug-bundle-dir");
        EXPECT_EQ(bench::clampParallelism(2, "--jobs"), 1u);
    }
#endif
    {
        // Sweep points sharing one collector race on its query list.
        telemetry::Attribution attr;
        ScopedInstruments install({.attribution = &attr});
        EXPECT_EQ(bench::clampReasons(), "--attrib");
        EXPECT_EQ(bench::clampParallelism(4, "--jobs"), 1u);
    }
    {
        telemetry::SloMonitor monitor(
            telemetry::SloMonitor::parseSpec("availability>=0.99"),
            telemetry::BurnConfig{});
        ScopedInstruments install({.slo = &monitor});
        EXPECT_EQ(bench::clampReasons(), "--timeline/--slo");
    }
    // A request of 1 is already serial: no clamp, whatever's installed.
    telemetry::TraceSink sink;
    ScopedInstruments install({.trace = &sink});
    EXPECT_EQ(bench::clampParallelism(1, "--jobs"), 1u);
}

TEST(ClampParallelism, ReportsAllActiveReasonsAtOnce)
{
    // The old clamp named only the first facility in an if/else chain,
    // so a user who removed the flag it blamed just got a new one-line
    // surprise on the next run. All active reasons must be listed.
    telemetry::TraceSink sink;
    fault::FaultPlan plan = fault::FaultPlan::parse("dram_latency:0.1", 1);
    telemetry::TimeSeries series(telemetry::TimeSeriesConfig{});
    ScopedInstruments install(
        {.trace = &sink, .series = &series, .faults = &plan});

    EXPECT_EQ(bench::clampReasons(), "--trace, --faults, --timeline/--slo");
    EXPECT_EQ(bench::clampParallelism(8, "--jobs"), 1u);
}
