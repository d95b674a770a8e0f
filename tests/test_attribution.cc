/**
 * @file
 * Per-query causal attribution tests.
 *
 * The central contract: for every served query the seven breakdown
 * components (batch prepare, dispatch queue, DRAM service,
 * controller/contention queueing, PE compute, forward wait, service
 * queue) sum to the query's end-to-end latency — within 1%, though the
 * construction is exact. The first two are zero for standalone engine
 * runs and back-annotated by the serving pipeline via
 * annotateBatchStages. Also pins the meeting-level histogram, the JSON
 * artifact shape, and that the collector is inert when not installed.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "embedding/generator.hh"
#include "fafnir/event_engine.hh"
#include "json_test_util.hh"
#include "telemetry/attribution.hh"

using namespace fafnir;
using testutil::JsonValue;
using testutil::parseJson;

namespace
{

struct Rig
{
    EventQueue eq;
    dram::MemorySystem memory;
    embedding::TableConfig tables{32, 1u << 16, 512, 4};
    embedding::VectorLayout layout;
    core::EventDrivenEngine engine;

    explicit Rig(unsigned ranks = 8)
        : memory(eq, dram::Geometry::withTotalRanks(ranks),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 512),
          layout(tables, memory.mapper()),
          engine(memory, layout, core::EventEngineConfig{})
    {}

    core::EventLookupTiming
    lookup(unsigned batch_size, unsigned query_size, std::uint64_t seed,
           Tick start = 0)
    {
        embedding::WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = batch_size;
        wc.querySize = query_size;
        wc.zipfSkew = 0.9;
        wc.hotFraction = 0.01;
        return engine.lookup(
            embedding::BatchGenerator(wc, seed).next(), start);
    }
};

} // namespace

TEST(Attribution, ComponentsSumToEndToEndLatency)
{
    telemetry::Attribution attr;
    Rig rig;
    core::EventLookupTiming timing;
    {
        ScopedInstruments install({.attribution = &attr});
        timing = rig.lookup(16, 32, 11);
    }

    ASSERT_EQ(attr.queries().size(), timing.queryComplete.size());
    for (const auto &q : attr.queries()) {
        ASSERT_GT(q.total(), 0u);
        const double total = static_cast<double>(q.total());
        const double sum = static_cast<double>(q.componentSum());
        EXPECT_NEAR(sum, total, total * 0.01)
            << "query " << q.query << " breakdown does not sum";
        EXPECT_EQ(q.complete, timing.queryComplete[q.query]);
        EXPECT_GT(q.hops, 0u);
        EXPECT_GT(q.flow, 0u);
    }
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);
}

TEST(Attribution, ExactAcrossBatchesAndStartOffsets)
{
    telemetry::Attribution attr;
    Rig rig;
    {
        ScopedInstruments install({.attribution = &attr});
        Tick start = 0;
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            const auto timing = rig.lookup(8, 16, seed, start);
            start = timing.complete + 123 * kTicksPerNs;
        }
    }
    ASSERT_EQ(attr.queries().size(), 4u * 8u);
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);
    // Batch ordinals must be stamped in lookup order.
    EXPECT_EQ(attr.queries().front().batch, 0u);
    EXPECT_EQ(attr.queries().back().batch, 3u);
}

TEST(Attribution, MeetingHistogramCountsEveryReduce)
{
    telemetry::Attribution attr;
    Rig rig;
    {
        ScopedInstruments install({.attribution = &attr});
        rig.lookup(16, 32, 7);
    }
    const auto &histogram = attr.meetingHistogram();
    ASSERT_FALSE(histogram.empty());
    std::uint64_t merges = 0;
    for (const std::uint64_t level : histogram)
        merges += level;
    // Dense shared queries must merge somewhere in an 8-rank tree.
    EXPECT_GT(merges, 0u);
    const double mean = attr.meanMeetingHeight();
    EXPECT_GE(mean, 0.0);
    EXPECT_LT(mean, static_cast<double>(histogram.size()));
}

TEST(Attribution, NotInstalledMeansNothingRecorded)
{
    ASSERT_EQ(instruments().attribution, nullptr);
    telemetry::Attribution idle;
    Rig rig;
    rig.lookup(8, 16, 3); // attribution hooks all over the stack
    EXPECT_TRUE(idle.queries().empty());
    EXPECT_TRUE(idle.meetingHistogram().empty());
}

TEST(Attribution, BatchStageAnnotationKeepsSumExact)
{
    // The serving pipeline back-annotates host prepare and dispatch
    // wait onto a batch's queries after the engine run: spans extend
    // backwards (issued moves earlier), so the telescoping sum stays
    // exact with the two new components included.
    telemetry::Attribution attr;
    Rig rig;
    {
        ScopedInstruments install({.attribution = &attr});
        rig.lookup(8, 16, 21, 0);
        rig.lookup(8, 16, 22, 50 * kTicksPerUs);
    }
    ASSERT_EQ(attr.queries().size(), 16u);

    const Tick prepare = 300 * kTicksPerNs;
    const Tick dispatch = 120 * kTicksPerNs;
    attr.annotateBatchStages(1, prepare, dispatch);

    for (const auto &q : attr.queries()) {
        if (q.batch == 0) {
            EXPECT_EQ(q.batchPrepare, 0u);
            EXPECT_EQ(q.dispatchQueue, 0u);
        } else {
            EXPECT_EQ(q.batchPrepare, prepare);
            EXPECT_EQ(q.dispatchQueue, dispatch);
        }
        const double total = static_cast<double>(q.total());
        EXPECT_NEAR(static_cast<double>(q.componentSum()), total,
                    total * 0.01)
            << "batch " << q.batch << " query " << q.query;
    }
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);

    // Zero-cost stages are a no-op (no span shifting, counters still).
    const auto before = attr.queries().front().issued;
    attr.annotateBatchStages(0, 0, 0);
    EXPECT_EQ(attr.queries().front().issued, before);
    EXPECT_EQ(attr.queries().front().batchPrepare, 0u);
}

TEST(Attribution, JsonArtifactRoundTrips)
{
    telemetry::Attribution attr;
    Rig rig;
    {
        ScopedInstruments install({.attribution = &attr});
        rig.lookup(8, 16, 5);
    }
    std::ostringstream os;
    attr.write(os);
    const JsonValue root = parseJson(os.str());

    const JsonValue &queries = root.at("queries");
    ASSERT_EQ(queries.kind, JsonValue::Kind::Array);
    ASSERT_EQ(queries.array.size(), attr.queries().size());
    for (const JsonValue &q : queries.array) {
        const double total = q.at("totalNs").number;
        const double sum = q.at("batchPrepareNs").number +
                           q.at("dispatchQueueNs").number +
                           q.at("dramServiceNs").number +
                           q.at("ctrlQueueNs").number +
                           q.at("peComputeNs").number +
                           q.at("forwardWaitNs").number +
                           q.at("serviceQueueNs").number;
        EXPECT_NEAR(sum, total, total * 0.01 + 1e-3);
        EXPECT_GE(q.at("hops").number, 1.0);
    }

    const JsonValue &histogram = root.at("meetingHistogram");
    ASSERT_EQ(histogram.kind, JsonValue::Kind::Array);
    for (const JsonValue &bin : histogram.array) {
        EXPECT_GE(bin.at("height").number, 0.0);
        EXPECT_GE(bin.at("merges").number, 0.0);
    }

    const JsonValue &summary = root.at("summary");
    EXPECT_DOUBLE_EQ(summary.at("queries").number,
                     static_cast<double>(attr.queries().size()));
    EXPECT_NEAR(summary.at("componentCoverage").number, 1.0, 0.01);
}

TEST(Attribution, StatsGroupExposesCoverageFormula)
{
    StatRegistry registry;
    telemetry::Attribution attr;
    attr.registerStats(registry.group("attrib"));
    Rig rig;
    {
        ScopedInstruments install({.attribution = &attr});
        rig.lookup(8, 16, 9);
    }
    std::ostringstream os;
    registry.dumpJson(os);
    const JsonValue root = parseJson(os.str());
    const JsonValue &group = root.at("attrib");
    EXPECT_DOUBLE_EQ(group.at("queries").number, 8.0);
    EXPECT_NEAR(group.at("componentCoverage").number, 1.0, 0.01);
    EXPECT_GT(group.at("peComputeTicks").number, 0.0);
}
