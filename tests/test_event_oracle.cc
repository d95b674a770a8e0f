/**
 * @file
 * Differential oracle for the event-driven engine: the production
 * EventDrivenEngine (ready counters, query->root index, flat delivery
 * events) must be tick-identical to the rescanning reference in
 * reference_event_engine.hh. Each case runs both engines on twin
 * systems (own event queue, memory and fault plan) and compares every
 * observable: per-query and batch completion, every timeline record,
 * the pressure counters, link bytes, values, per-PE telemetry, and —
 * with instruments installed — the attribution records and the trace.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <sstream>

#include "common/faultinject.hh"
#include "embedding/generator.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "reference_event_engine.hh"
#include "telemetry/attribution.hh"
#include "telemetry/trace_sink.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

/** The simulated system both engines run on. */
struct SystemShape
{
    unsigned ranks = 32;
    bool hbm = false;
    TableConfig tables{32, 1u << 16, 512, 4};
};

/** One engine on its own queue and memory. */
template <typename Engine>
struct Rig
{
    EventQueue eq;
    dram::MemorySystem memory;
    VectorLayout layout;
    Engine engine;

    Rig(const SystemShape &shape, const EventEngineConfig &config,
        const EmbeddingStore *store = nullptr)
        : memory(eq,
                 shape.hbm ? dram::Geometry::hbm2()
                           : dram::Geometry::withTotalRanks(shape.ranks),
                 shape.hbm ? dram::Timing::hbm2()
                           : dram::Timing::ddr4_2400(),
                 dram::Interleave::BlockRank, 512),
          layout(shape.tables, memory.mapper()),
          engine(memory, layout, config, store)
    {}
};

using ProdRig = Rig<EventDrivenEngine>;
using RefRig = Rig<reference::EventDrivenEngine>;

bool
sameBits(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

void
expectIdentical(const EventLookupTiming &got, const EventLookupTiming &want,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(got.issued, want.issued);
    EXPECT_EQ(got.memFirst, want.memFirst);
    EXPECT_EQ(got.memLast, want.memLast);
    EXPECT_EQ(got.complete, want.complete);
    EXPECT_EQ(got.queryComplete, want.queryComplete);
    EXPECT_EQ(got.memAccesses, want.memAccesses);
    EXPECT_EQ(got.rootCombines, want.rootCombines);
    EXPECT_EQ(got.maxPeOutputs, want.maxPeOutputs);
    EXPECT_EQ(got.bufferOverflows, want.bufferOverflows);
    EXPECT_EQ(got.dramPayloadBytes, want.dramPayloadBytes);
    EXPECT_EQ(got.linkPayloadBytes, want.linkPayloadBytes);
    EXPECT_EQ(got.fifoOverflows, want.fifoOverflows);
    EXPECT_EQ(got.forwardWaits, want.forwardWaits);
    EXPECT_EQ(got.injectedBackpressure, want.injectedBackpressure);
    ASSERT_EQ(got.timeline.size(), want.timeline.size());
    for (std::size_t i = 0; i < want.timeline.size(); ++i) {
        const TimelineEvent &g = got.timeline[i];
        const TimelineEvent &w = want.timeline[i];
        ASSERT_TRUE(g.tick == w.tick && g.pe == w.pe &&
                    std::strcmp(g.kind, w.kind) == 0 && g.index == w.index)
            << "timeline[" << i << "]: got " << g.tick << " pe" << g.pe
            << ' ' << g.kind << ' ' << g.index << ", want " << w.tick
            << " pe" << w.pe << ' ' << w.kind << ' ' << w.index;
    }
    ASSERT_EQ(got.results.size(), want.results.size());
    for (std::size_t q = 0; q < want.results.size(); ++q)
        EXPECT_TRUE(sameBits(got.results[q], want.results[q]))
            << "query " << q;
}

void
expectSameTelemetry(const std::vector<PeTelemetry> &got,
                    const std::vector<PeTelemetry> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t pe = 1; pe < want.size(); ++pe) {
        SCOPED_TRACE("PE " + std::to_string(pe));
        EXPECT_EQ(got[pe].deliveries.value(), want[pe].deliveries.value());
        EXPECT_EQ(got[pe].outputs.value(), want[pe].outputs.value());
        EXPECT_EQ(got[pe].reduces.value(), want[pe].reduces.value());
        EXPECT_EQ(got[pe].forwards.value(), want[pe].forwards.value());
        EXPECT_EQ(got[pe].busyTicks.value(), want[pe].busyTicks.value());
    }
}

Batch
makeBatch(const TableConfig &tables, unsigned batch_size,
          unsigned query_size, double skew, double hot,
          std::uint64_t seed)
{
    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = batch_size;
    wc.querySize = query_size;
    wc.zipfSkew = skew;
    wc.hotFraction = hot;
    return BatchGenerator(wc, seed).next();
}

/**
 * Run @p count batches back to back (each issued at the previous
 * completion) on twin systems and compare every batch and the lifetime
 * telemetry. @p drive(engine, k, start) runs batch k on either engine.
 * A non-empty @p fault_spec arms a fault plan per twin, same seed.
 */
template <typename Drive>
void
expectTwins(const SystemShape &shape, EventEngineConfig config,
            std::size_t count, const std::string &what,
            const std::string &fault_spec, const EmbeddingStore *store,
            Drive drive)
{
    config.recordTimeline = true;
    auto run = [&](auto *tag, fault::FaultPlan *plan) {
        using R = std::remove_pointer_t<decltype(tag)>;
        // Install the plan before building the system: the queue and
        // memory sample it at construction.
        ScopedInstruments install({.faults = plan});
        auto rig = std::make_unique<R>(shape, config, store);
        std::vector<EventLookupTiming> timings;
        Tick t = 0;
        for (std::size_t k = 0; k < count; ++k) {
            timings.push_back(drive(rig->engine, k, t));
            t = timings.back().complete;
        }
        return std::make_pair(std::move(timings), std::move(rig));
    };
    std::optional<fault::FaultPlan> prod_plan;
    std::optional<fault::FaultPlan> ref_plan;
    if (!fault_spec.empty()) {
        prod_plan = fault::FaultPlan::parse(fault_spec, 11);
        ref_plan = fault::FaultPlan::parse(fault_spec, 11);
    }
    const auto [got, prod] = run(static_cast<ProdRig *>(nullptr),
                                 prod_plan ? &*prod_plan : nullptr);
    const auto [want, ref] = run(static_cast<RefRig *>(nullptr),
                                 ref_plan ? &*ref_plan : nullptr);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < want.size(); ++b)
        expectIdentical(got[b], want[b],
                        what + " batch " + std::to_string(b));
    expectSameTelemetry(prod->engine.peTelemetry(),
                        ref->engine.peTelemetry());
    if (prod_plan) {
        EXPECT_EQ(prod_plan->totalFired(), ref_plan->totalFired()) << what;
        EXPECT_EQ(prod_plan->totalChecked(), ref_plan->totalChecked())
            << what;
    }
}

/** expectTwins over generated batches, each compiled by the engine. */
void
expectTwinRuns(const SystemShape &shape, const EventEngineConfig &config,
               const std::vector<Batch> &batches, const std::string &what,
               const std::string &fault_spec = "",
               const EmbeddingStore *store = nullptr)
{
    expectTwins(shape, config, batches.size(), what, fault_spec, store,
                [&](auto &engine, std::size_t k, Tick start) {
                    return engine.lookup(batches[k], start);
                });
}

struct SweepParam
{
    unsigned ranks;
    unsigned batchSize;
    unsigned querySize;
    bool dedup;
    bool interactive;
    unsigned ranksPerLeafPe;
    bool hbm;
};

class EventOracleSweep : public ::testing::TestWithParam<SweepParam>
{
};

} // namespace

// The EngineInvariants configuration space, three chained batches each.
TEST_P(EventOracleSweep, TickIdenticalToTheReference)
{
    const SweepParam p = GetParam();
    if (p.hbm && p.ranks != 32)
        GTEST_SKIP() << "HBM geometry is fixed at 32 pseudo channels";
    if (p.ranksPerLeafPe > p.ranks)
        GTEST_SKIP() << "leaf scale larger than the system";
    SystemShape shape;
    shape.ranks = p.ranks;
    shape.hbm = p.hbm;
    EventEngineConfig config;
    config.base.dedup = p.dedup;
    config.base.interactive = p.interactive;
    config.base.ranksPerLeafPe = p.ranksPerLeafPe;
    std::vector<Batch> batches;
    for (std::uint64_t round = 0; round < 3; ++round)
        batches.push_back(makeBatch(shape.tables, p.batchSize, p.querySize,
                                    1.0, 0.005, 4242 + p.ranks + round));
    expectTwinRuns(shape, config, batches, "sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EventOracleSweep,
    ::testing::Values(SweepParam{32, 8, 16, true, false, 2, false},
                      SweepParam{32, 8, 16, false, false, 2, false},
                      SweepParam{32, 32, 16, true, false, 2, false},
                      SweepParam{32, 8, 16, true, true, 2, false},
                      SweepParam{32, 8, 16, true, false, 1, false},
                      SweepParam{32, 8, 16, true, false, 4, false},
                      SweepParam{16, 8, 8, true, false, 2, false},
                      SweepParam{8, 16, 8, true, false, 2, false},
                      SweepParam{4, 4, 4, true, false, 2, false},
                      SweepParam{2, 4, 8, false, false, 2, false},
                      SweepParam{1, 2, 4, true, false, 2, false},
                      SweepParam{32, 8, 16, true, false, 2, true},
                      SweepParam{32, 16, 16, false, true, 2, true},
                      SweepParam{32, 48, 16, true, false, 2, false},
                      SweepParam{32, 48, 16, false, false, 2, false}));

TEST(EventOracle, FuzzedBatchesAndConfigs)
{
    std::mt19937_64 rng(20240611);
    auto pick = [&](std::uint64_t n) { return rng() % n; };
    const unsigned rank_choices[] = {1, 2, 4, 8, 16, 32};
    const PayloadFormat payloads[] = {PayloadFormat::Fp32,
                                      PayloadFormat::Int8,
                                      PayloadFormat::TwoBit};
    for (int iter = 0; iter < 40; ++iter) {
        SystemShape shape;
        shape.ranks = rank_choices[pick(6)];
        shape.tables = TableConfig{16 + static_cast<unsigned>(pick(17)),
                                   256u << pick(6), 512, 4};
        EventEngineConfig config;
        config.base.dedup = pick(4) != 0;
        config.base.interactive = pick(8) == 0;
        config.base.ranksPerLeafPe =
            std::min<unsigned>(shape.ranks, 1u << pick(3));
        config.base.hwBatch = 2 + static_cast<unsigned>(pick(40));
        config.base.readOrder =
            pick(2) == 0 ? ReadOrder::InOrder : ReadOrder::RowHitFirst;
        config.base.payload = payloads[pick(3)];
        config.overflowPenalty = pick(6);
        config.computeValues = pick(2) == 0;
        const EmbeddingStore store(shape.tables);
        std::vector<Batch> batches;
        const unsigned rounds = 1 + static_cast<unsigned>(pick(3));
        for (unsigned r = 0; r < rounds; ++r) {
            batches.push_back(makeBatch(
                shape.tables, 1 + static_cast<unsigned>(pick(40)),
                1 + static_cast<unsigned>(pick(24)),
                0.5 * static_cast<double>(pick(5)),
                0.01 * static_cast<double>(1 + pick(20)), rng()));
        }
        expectTwinRuns(shape, config, batches,
                       "fuzz iteration " + std::to_string(iter), "",
                       config.computeValues ? &store : nullptr);
        if (HasFatalFailure() || HasNonfatalFailure())
            return;
    }
}

TEST(EventOracle, ForwardsMergedAcrossSides)
{
    // Real layouts keep a vector on one rank, so the merge unit never
    // folds forwards from both input sides. Moving some reads of an
    // undeduplicated batch to random ranks makes such merges common:
    // copies of one index serving different queries meet on opposite
    // sides and merge into one forward that must wait for both.
    std::mt19937_64 rng(77);
    SystemShape shape;
    shape.tables = TableConfig{32, 1u << 10, 512, 4};
    const EmbeddingStore store(shape.tables);
    EventEngineConfig config;
    config.computeValues = true;
    std::size_t both_sided = 0;
    for (int iter = 0; iter < 12; ++iter) {
        ProdRig layout_rig(shape, config);
        std::vector<PreparedBatch> prepared;
        for (int b = 0; b < 2; ++b) {
            const Batch batch = makeBatch(shape.tables, 32, 12, 1.1, 0.01,
                                          rng());
            PreparedBatch p = prepareBatch(layout_rig.layout, &store, batch,
                                           /*dedup=*/false);
            for (auto &reads : p.rankReads) {
                for (std::size_t i = 0; i < reads.size();) {
                    const std::size_t to = rng() % p.rankReads.size();
                    if (rng() % 3 == 0 && &p.rankReads[to] != &reads) {
                        p.rankReads[to].push_back(std::move(reads[i]));
                        reads.erase(reads.begin() + static_cast<long>(i));
                    } else {
                        ++i;
                    }
                }
            }
            const TreeRun run = FunctionalTree(layout_rig.engine.topology())
                                    .run(p, false, /*keep_trace=*/true);
            for (std::uint32_t row = 0; row < run.table.size(); ++row) {
                const OutputRef out = run.table[row];
                both_sided += out.action == PeAction::Forward &&
                              out.sources.size() == 2 &&
                              out.sources[0].side != out.sources[1].side;
            }
            prepared.push_back(std::move(p));
        }
        expectTwins(shape, config, prepared.size(),
                    "shuffle iteration " + std::to_string(iter), "", &store,
                    [&](auto &engine, std::size_t k, Tick start) {
                        PreparedBatch copy = prepared[k];
                        return engine.lookupPrepared(copy, start);
                    });
        if (HasFatalFailure() || HasNonfatalFailure())
            return;
    }
    EXPECT_GT(both_sided, 0u) << "no forward merged across sides";
}

TEST(EventOracle, FaultPlans)
{
    const SystemShape shape;
    std::vector<Batch> batches;
    for (std::uint64_t s = 0; s < 3; ++s)
        batches.push_back(makeBatch(shape.tables, 32, 16, 1.0, 0.01, 70 + s));
    for (const char *spec :
         {"pe_backpressure:0.3", "pe_backpressure:1:16", "dram_latency:0.2",
          "dram_latency:0.5,pe_backpressure:0.2"}) {
        expectTwinRuns(shape, EventEngineConfig{}, batches, spec, spec);
    }
}

TEST(EventOracle, TinyFifos)
{
    const SystemShape shape;
    EventEngineConfig config;
    config.base.hwBatch = 2;
    std::vector<Batch> batches;
    for (std::uint64_t s = 0; s < 3; ++s)
        batches.push_back(makeBatch(shape.tables, 32, 16, 1.1, 0.01, 5 + s));
    expectTwinRuns(shape, config, batches, "hwBatch=2");

    // The case exercises the overflow path at all.
    ProdRig rig(shape, config);
    EXPECT_GT(rig.engine.lookup(batches[0], 0).fifoOverflows, 0u);
}

TEST(EventOracle, InstrumentedRunsMatch)
{
    // Attribution back-walk and every trace event (occupancy counters,
    // emission spans with flows, critical-path arrows).
    const SystemShape shape;
    std::vector<Batch> batches;
    for (std::uint64_t s = 0; s < 2; ++s)
        batches.push_back(makeBatch(shape.tables, 16, 16, 0.9, 0.01, 90 + s));
    auto run = [&](auto *tag) {
        using R = std::remove_pointer_t<decltype(tag)>;
        telemetry::TraceSink sink;
        telemetry::Attribution attribution;
        ScopedInstruments install(
            {.trace = &sink, .attribution = &attribution});
        R rig(shape, EventEngineConfig{});
        Tick t = 0;
        for (const Batch &batch : batches)
            t = rig.engine.lookup(batch, t).complete;
        std::ostringstream os;
        sink.write(os);
        return std::make_pair(os.str(), attribution.queries());
    };
    const auto [got_trace, got_attr] = run(static_cast<ProdRig *>(nullptr));
    const auto [want_trace, want_attr] =
        run(static_cast<RefRig *>(nullptr));
    EXPECT_EQ(got_trace, want_trace);
    ASSERT_EQ(got_attr.size(), want_attr.size());
    for (std::size_t i = 0; i < want_attr.size(); ++i) {
        const auto &g = got_attr[i];
        const auto &w = want_attr[i];
        SCOPED_TRACE("attribution record " + std::to_string(i));
        EXPECT_EQ(g.batch, w.batch);
        EXPECT_EQ(g.query, w.query);
        EXPECT_EQ(g.issued, w.issued);
        EXPECT_EQ(g.complete, w.complete);
        EXPECT_EQ(g.dramService, w.dramService);
        EXPECT_EQ(g.ctrlQueue, w.ctrlQueue);
        EXPECT_EQ(g.peCompute, w.peCompute);
        EXPECT_EQ(g.forwardWait, w.forwardWait);
        EXPECT_EQ(g.serviceQueue, w.serviceQueue);
        EXPECT_EQ(g.criticalRank, w.criticalRank);
        EXPECT_EQ(g.hops, w.hops);
        EXPECT_EQ(g.flow, w.flow);
    }
}

namespace
{

/**
 * The hedged serving pattern on two replicas: each batch is prepared
 * once and runs on the less busy replica; a run slower than the median
 * of the earlier ones is replayed, same prepared batch, on the other
 * replica from the moment it crossed that median (attribution off for
 * the backup). Returns every engine run in call order.
 */
template <typename R>
std::pair<std::vector<EventLookupTiming>, std::vector<PeTelemetry>>
serveHedged(const SystemShape &shape, const EmbeddingStore &store,
            const std::vector<Batch> &batches)
{
    EventEngineConfig config;
    config.computeValues = true;
    config.recordTimeline = true;
    R replicas[2] = {R(shape, config, &store), R(shape, config, &store)};
    telemetry::Attribution attribution;
    ScopedInstruments install({.attribution = &attribution});
    std::vector<EventLookupTiming> runs;
    std::vector<Tick> history;
    Tick free[2] = {0, 0};
    const Tick gap = 200 * kTicksPerNs;
    for (std::size_t k = 0; k < batches.size(); ++k) {
        PreparedBatch prepared = prepareBatch(replicas[0].layout, &store,
                                              batches[k], /*dedup=*/true);
        const unsigned primary = free[1] < free[0] ? 1 : 0;
        const Tick arrival = gap * k;
        runs.push_back(replicas[primary].engine.lookupPrepared(
            prepared, std::max(arrival, free[primary])));
        const EventLookupTiming &t = runs.back();
        free[primary] = t.complete;
        const Tick service = t.complete - t.issued;
        if (history.size() >= 2) {
            std::vector<Tick> sorted = history;
            std::sort(sorted.begin(), sorted.end());
            const Tick p50 = sorted[sorted.size() / 2];
            if (service > p50) {
                const unsigned backup = 1 - primary;
                Instruments unattributed = instruments();
                unattributed.attribution = nullptr;
                ScopedInstruments off(unattributed);
                runs.push_back(replicas[backup].engine.lookupPrepared(
                    prepared, std::max(t.issued + p50, free[backup])));
                free[backup] = runs.back().complete;
            }
        }
        history.push_back(service);
    }
    std::vector<PeTelemetry> telemetry;
    for (const R &r : replicas)
        for (const PeTelemetry &pe : r.engine.peTelemetry())
            telemetry.push_back(pe);
    return {std::move(runs), std::move(telemetry)};
}

} // namespace

TEST(EventOracle, HedgedServing)
{
    SystemShape shape;
    shape.tables = TableConfig{32, 1u << 12, 512, 4};
    const EmbeddingStore store(shape.tables);
    std::vector<Batch> batches;
    for (std::uint64_t s = 0; s < 16; ++s)
        batches.push_back(makeBatch(shape.tables, 32, 8,
                                    s % 3 == 0 ? 1.1 : 0.0, 0.01, 300 + s));
    const auto [got, got_pes] =
        serveHedged<ProdRig>(shape, store, batches);
    const auto [want, want_pes] =
        serveHedged<RefRig>(shape, store, batches);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_GT(got.size(), batches.size()) << "no batch was hedged";
    for (std::size_t i = 0; i < want.size(); ++i)
        expectIdentical(got[i], want[i], "run " + std::to_string(i));
    expectSameTelemetry(got_pes, want_pes);
}
