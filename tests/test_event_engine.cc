/**
 * @file
 * Event-driven engine tests: agreement with the analytic engine's
 * functional quantities, pipeline-semantics properties (early queries
 * finish early, no stalls/deadlocks, merged forwards wait for both
 * sides, injected backpressure only delays), determinism, and
 * cross-engine latency relationships. Tick-exact agreement with the
 * reference engine lives in test_event_oracle.cc.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/faultinject.hh"
#include "embedding/generator.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

struct EventRig
{
    EventQueue eq;
    TableConfig tables{32, 1u << 16, 512, 4};
    dram::MemorySystem memory;
    VectorLayout layout;

    explicit EventRig(unsigned ranks = 32)
        : memory(eq, dram::Geometry::withTotalRanks(ranks),
                 dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
                 512),
          layout(tables, memory.mapper())
    {}

    Batch
    makeBatch(unsigned batch_size, unsigned query_size, std::uint64_t seed,
              double skew = 0.9)
    {
        WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = batch_size;
        wc.querySize = query_size;
        wc.zipfSkew = skew;
        wc.hotFraction = 0.01;
        return BatchGenerator(wc, seed).next();
    }
};

} // namespace

TEST(EventEngine, CompletesAndOrders)
{
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    const Batch batch = rig.makeBatch(8, 16, 1);
    const EventLookupTiming t = engine.lookup(batch, 0);

    EXPECT_GT(t.complete, 0u);
    EXPECT_GE(t.memLast, t.memFirst);
    EXPECT_GE(t.complete, t.memLast);
    ASSERT_EQ(t.queryComplete.size(), 8u);
    for (Tick qc : t.queryComplete) {
        EXPECT_GT(qc, 0u);
        EXPECT_LE(qc, t.complete);
    }
}

TEST(EventEngine, FunctionalQuantitiesMatchAnalyticEngine)
{
    const Batch batch = EventRig().makeBatch(16, 16, 2);

    EventRig a_rig;
    FafnirEngine analytic(a_rig.memory, a_rig.layout, EngineConfig{});
    const LookupTiming a = analytic.lookup(batch, 0);

    EventRig e_rig;
    EventDrivenEngine event(e_rig.memory, e_rig.layout,
                            EventEngineConfig{});
    const EventLookupTiming e = event.lookup(batch, 0);

    // Same functional run underneath: identical work counts.
    EXPECT_EQ(a.memAccesses, e.memAccesses);
    EXPECT_EQ(a.activity.reduces, e.activity.reduces);
    EXPECT_EQ(a.activity.forwards, e.activity.forwards);
    EXPECT_EQ(a.rootCombines, e.rootCombines);
    EXPECT_EQ(a.memLast, e.memLast); // same reads on fresh systems
}

TEST(EventEngine, PipeliningBeatsTheBarrierModel)
{
    // The analytic engine holds every PE until its last input arrives;
    // the event pipeline lets early routes through, so batch completion
    // should not be (much) worse, and per-query medians should improve.
    const Batch batch = EventRig().makeBatch(32, 16, 3, 1.0);

    EventRig a_rig;
    FafnirEngine analytic(a_rig.memory, a_rig.layout, EngineConfig{});
    const LookupTiming a = analytic.lookup(batch, 0);

    EventRig e_rig;
    EventDrivenEngine event(e_rig.memory, e_rig.layout,
                            EventEngineConfig{});
    const EventLookupTiming e = event.lookup(batch, 0);

    // Allow a small overflow-penalty margin.
    EXPECT_LE(e.complete, a.complete + a.complete / 4);

    std::vector<Tick> a_sorted = a.queryComplete;
    std::vector<Tick> e_sorted = e.queryComplete;
    std::sort(a_sorted.begin(), a_sorted.end());
    std::sort(e_sorted.begin(), e_sorted.end());
    // Earliest-finishing query benefits most from distinct-route flow.
    EXPECT_LE(e_sorted.front(), a_sorted.front());
}

TEST(EventEngine, DeterministicAcrossRuns)
{
    const Batch batch = EventRig().makeBatch(16, 16, 4);
    auto run_once = [&] {
        EventRig rig;
        EventDrivenEngine engine(rig.memory, rig.layout,
                                 EventEngineConfig{});
        return engine.lookup(batch, 0);
    };
    const auto a = run_once();
    const auto b = run_once();
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.queryComplete, b.queryComplete);
    EXPECT_EQ(a.fifoOverflows, b.fifoOverflows);
}

TEST(EventEngine, OverflowsReportedUnderPressure)
{
    EventRig rig;
    EventEngineConfig cfg;
    cfg.base.hwBatch = 2; // tiny FIFOs
    cfg.base.dedup = true;
    EventDrivenEngine engine(rig.memory, rig.layout, cfg);
    const Batch batch = rig.makeBatch(32, 16, 5, 1.1);
    const EventLookupTiming t = engine.lookup(batch, 0);
    EXPECT_GT(t.fifoOverflows, 0u);
    EXPECT_GT(t.complete, 0u); // no deadlock despite pressure
}

TEST(EventEngine, ForwardWaitsObserved)
{
    // Forwards must wait for the opposite side; with uneven rank loads
    // some waits are inevitable on skewed batches.
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    const Batch batch = rig.makeBatch(32, 16, 6, 1.1);
    const EventLookupTiming t = engine.lookup(batch, 0);
    EXPECT_GT(t.forwardWaits, 0u);
}

TEST(EventEngine, SmallSystems)
{
    for (unsigned ranks : {1u, 2u, 4u}) {
        EventRig rig(ranks);
        EventDrivenEngine engine(rig.memory, rig.layout,
                                 EventEngineConfig{});
        const Batch batch = rig.makeBatch(4, 8, 7 + ranks);
        const EventLookupTiming t = engine.lookup(batch, 0);
        EXPECT_GT(t.complete, 0u) << ranks << " ranks";
        EXPECT_EQ(t.queryComplete.size(), 4u);
    }
}

TEST(EventEngine, TimelineRecordsPipelineActivity)
{
    EventRig rig;
    EventEngineConfig cfg;
    cfg.recordTimeline = true;
    EventDrivenEngine engine(rig.memory, rig.layout, cfg);
    const Batch batch = rig.makeBatch(8, 8, 15);
    const EventLookupTiming t = engine.lookup(batch, 0);

    ASSERT_FALSE(t.timeline.empty());
    // Chronological and within the run window.
    for (std::size_t i = 1; i < t.timeline.size(); ++i)
        EXPECT_GE(t.timeline[i].tick, t.timeline[i - 1].tick);
    std::size_t deliveries = 0;
    std::size_t emissions = 0;
    for (const auto &event : t.timeline) {
        EXPECT_LE(event.tick, t.complete);
        EXPECT_GE(event.pe, 1u);
        EXPECT_LE(event.pe, engine.topology().numPes());
        if (std::string(event.kind) == "deliver")
            ++deliveries;
        else if (std::string(event.kind) == "emit")
            ++emissions;
    }
    // Every DRAM read produces a leaf delivery; internal edges add more.
    EXPECT_GE(deliveries, t.memAccesses);
    EXPECT_GT(emissions, 0u);

    std::ostringstream os;
    writeTimeline(os, t.timeline);
    EXPECT_NE(os.str().find("tick\tpe\tkind\tindex"), std::string::npos);
    EXPECT_NE(os.str().find("emit"), std::string::npos);
}

TEST(EventEngine, TimelineOffByDefault)
{
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    const Batch batch = rig.makeBatch(4, 8, 16);
    EXPECT_TRUE(engine.lookup(batch, 0).timeline.empty());
}

TEST(EventEngine, SequentialBatchesAdvanceTime)
{
    EventRig rig;
    EventDrivenEngine engine(rig.memory, rig.layout, EventEngineConfig{});
    Tick t = 0;
    for (int i = 0; i < 3; ++i) {
        const Batch batch = rig.makeBatch(8, 16, 100 + i);
        const auto timing = engine.lookup(batch, t);
        EXPECT_GE(timing.issued, t);
        EXPECT_GT(timing.complete, t);
        t = timing.complete;
    }
}

TEST(EventEngine, MergedForwardWaitsForBothSides)
{
    // One PE over two ranks. Queries 0 and 1 both want vector X, which
    // enters on side A (for query 0) and on side B (for query 1), so the
    // merge unit folds the two forwards of X into one output with
    // sources on both sides. Queries 2 and 3 want Y and Z, later second
    // reads on side A and side B. The merged forward may only leave
    // once both sides are complete: it waits on A, then on B, and
    // counts as one wait.
    EventRig rig(2);
    EventEngineConfig cfg;
    cfg.recordTimeline = true;
    EventDrivenEngine engine(rig.memory, rig.layout, cfg);
    ASSERT_EQ(engine.topology().numPes(), 1u);

    constexpr IndexId x = 3;
    constexpr IndexId y = 7;
    constexpr IndexId z = 9;
    PreparedBatch prepared;
    prepared.sets = IndexSetTable({x, y, z});
    auto set_of = [&](IndexId index) {
        return IndexSetTable::single(prepared.sets.slotOf(index));
    };
    for (IndexId index : {x, x, y, z})
        prepared.sets.addQuery(set_of(index));
    prepared.rankReads.resize(2);
    // Each side's reads go to its own rank, second read to another row
    // of the same bank: both X reads land first, then Y and Z pay a row
    // conflict each.
    auto add_read = [&](unsigned rank, IndexId index, QueryId query,
                        std::uint64_t row) {
        RankRead read;
        read.index = index;
        read.address = rig.memory.mapper().encode(
            dram::Coordinates{.rank = rank, .row = row});
        read.item.indices = set_of(index);
        read.item.queries.push_back(query);
        prepared.rankReads[rank].push_back(std::move(read));
        ++prepared.accessCount;
    };
    add_read(0, x, 0, 0); // A0
    add_read(0, y, 2, 1); // A1
    add_read(1, x, 1, 0); // B0
    add_read(1, z, 3, 1); // B1
    prepared.uniqueCount = 3;
    prepared.totalReferences = 4;

    // Precondition: output 0 is the merged forward of X from A0 and B0.
    const TreeRun run = FunctionalTree(engine.topology())
                            .run(prepared, false, /*keep_trace=*/true);
    ASSERT_EQ(run.trace[1].outputs.size(), 3u);
    const OutputRef merged = run.output(1, 0);
    ASSERT_EQ(merged.action, PeAction::Forward);
    ASSERT_EQ(merged.sources.size(), 2u);
    EXPECT_EQ(merged.sources[0], (Provenance{0, 0}));
    EXPECT_EQ(merged.sources[1], (Provenance{1, 0}));

    const EventLookupTiming t = engine.lookupPrepared(prepared, 0);
    // Delivery index = side * |A| + position; emission index = output.
    Tick a0 = 0, a1 = 0, b0 = 0, b1 = 0;
    Tick emit[3] = {MaxTick, MaxTick, MaxTick};
    for (const TimelineEvent &event : t.timeline) {
        if (std::string(event.kind) == "emit") {
            emit[event.index] = event.tick;
            continue;
        }
        Tick *at[] = {&a0, &a1, &b0, &b1};
        *at[event.index] = event.tick;
    }
    // Both X copies land before either side completes; Y lands no
    // later than Z (on a tie its completion fires first: it was issued
    // first).
    ASSERT_LT(std::max(a0, b0), a1);
    ASSERT_LE(a1, b1);
    // Held until both sides are complete. It waits on side A, then on
    // side B, yet counts once; Y waits for side B too.
    EXPECT_GE(emit[0], std::max(a1, b1));
    EXPECT_EQ(t.forwardWaits, 2u);
    // The last arrival unblocks all three outputs; they leave in
    // ascending output index.
    EXPECT_LT(emit[0], emit[1]);
    EXPECT_LT(emit[1], emit[2]);
}

TEST(EventEngine, InjectedBackpressureCountsFiredStallsAndOnlyDelays)
{
    const Batch batch = EventRig().makeBatch(32, 16, 41, 1.0);
    auto run = [&](fault::FaultPlan *plan) {
        ScopedInstruments install({.faults = plan});
        EventRig rig;
        EventDrivenEngine engine(rig.memory, rig.layout,
                                 EventEngineConfig{});
        return engine.lookup(batch, 0);
    };
    const EventLookupTiming clean = run(nullptr);
    EXPECT_EQ(clean.injectedBackpressure, 0u);

    fault::FaultPlan plan = fault::FaultPlan::parse("pe_backpressure:0.3", 5);
    const EventLookupTiming faulted = run(&plan);
    EXPECT_GT(faulted.injectedBackpressure, 0u);
    EXPECT_EQ(faulted.injectedBackpressure,
              plan.firedCount(fault::Hook::PeBackpressure));
    // One check per delivery.
    EXPECT_GT(plan.checkedCount(fault::Hook::PeBackpressure),
              faulted.injectedBackpressure);

    ASSERT_EQ(faulted.queryComplete.size(), clean.queryComplete.size());
    for (std::size_t q = 0; q < clean.queryComplete.size(); ++q)
        EXPECT_GE(faulted.queryComplete[q], clean.queryComplete[q])
            << "query " << q;
    EXPECT_GT(faulted.complete, clean.complete);
}
