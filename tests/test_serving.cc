/**
 * @file
 * Serving-pipeline unit tests: the hash-dedup prepare matches the
 * ordered-map reference bit for bit, pipelined multi-engine serving
 * returns the same values as the serial single-engine path, dispatch
 * policies shard work as specified, hedging fires and never changes
 * values, slot pools actually recycle buffers, the modeled prepare cost
 * follows its formula at any worker count, and the back-annotated
 * attribution split stays exact.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/faultinject.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "sim/eventq.hh"
#include "fafnir/host.hh"
#include "fafnir/serving.hh"
#include "telemetry/attribution.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

constexpr ReduceOp kAllOps[] = {ReduceOp::Sum, ReduceOp::Min,
                                ReduceOp::Max, ReduceOp::Mean};

TableConfig
smallTables()
{
    return TableConfig{32, 4096, 512, 4};
}

std::vector<Batch>
makeBatches(std::size_t count, unsigned batch_size, unsigned query_size,
            std::uint64_t seed, double skew = 0.9)
{
    WorkloadConfig wc;
    wc.tables = smallTables();
    wc.batchSize = batch_size;
    wc.querySize = query_size;
    wc.zipfSkew = skew;
    wc.hotFraction = 0.01;
    BatchGenerator gen(wc, seed);
    std::vector<Batch> batches;
    batches.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        batches.push_back(gen.next());
    return batches;
}

EventEngineConfig
valueConfig(ReduceOp op)
{
    EventEngineConfig cfg;
    cfg.computeValues = true;
    cfg.reduceOp = op;
    return cfg;
}

/** Serial reference: one engine, plain lookups, same batches. */
std::vector<std::vector<Vector>>
serialResults(const std::vector<Batch> &batches, ReduceOp op,
              const EmbeddingStore &store)
{
    auto replicas = makeEventReplicas(1, {}, smallTables(),
                                      valueConfig(op), &store);
    std::vector<std::vector<Vector>> results;
    Tick t = 0;
    for (const auto &batch : batches) {
        auto timing = replicas[0].engine->lookup(batch, t);
        t = timing.complete;
        results.push_back(std::move(timing.results));
    }
    return results;
}

::testing::AssertionResult
bitIdentical(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (!a.empty() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
        return ::testing::AssertionFailure() << "contents differ";
    return ::testing::AssertionSuccess();
}

/** Structural equality of two prepared batches, to the bit. */
void
expectPreparedIdentical(const PreparedBatch &a, const PreparedBatch &b)
{
    ASSERT_EQ(a.rankReads.size(), b.rankReads.size());
    EXPECT_EQ(a.uniqueCount, b.uniqueCount);
    EXPECT_EQ(a.totalReferences, b.totalReferences);
    EXPECT_EQ(a.accessCount, b.accessCount);
    ASSERT_EQ(a.sets.numSlots(), b.sets.numSlots());
    for (std::uint32_t s = 0; s < a.sets.numSlots(); ++s)
        EXPECT_EQ(a.sets.indexOf(s), b.sets.indexOf(s)) << "slot " << s;
    ASSERT_EQ(a.sets.numQueries(), b.sets.numQueries());
    for (QueryId q = 0; q < a.sets.numQueries(); ++q) {
        EXPECT_EQ(a.sets.indexSet(a.sets.querySet(q)),
                  b.sets.indexSet(b.sets.querySet(q)))
            << "query " << q;
    }
    for (std::size_t r = 0; r < a.rankReads.size(); ++r) {
        ASSERT_EQ(a.rankReads[r].size(), b.rankReads[r].size())
            << "rank " << r;
        for (std::size_t i = 0; i < a.rankReads[r].size(); ++i) {
            const RankRead &ra = a.rankReads[r][i];
            const RankRead &rb = b.rankReads[r][i];
            EXPECT_EQ(ra.index, rb.index) << "rank " << r << " read " << i;
            EXPECT_EQ(ra.address, rb.address);
            EXPECT_EQ(ra.item.indices, rb.item.indices);
            ASSERT_EQ(ra.item.queries.size(), rb.item.queries.size());
            for (std::size_t q = 0; q < ra.item.queries.size(); ++q) {
                EXPECT_EQ(ra.item.queries[q], rb.item.queries[q])
                    << "rank " << r << " read " << i << " user " << q;
            }
            EXPECT_TRUE(bitIdentical(ra.item.value, rb.item.value));
        }
    }
}

} // namespace

TEST(PrepareBatch, HashDedupMatchesOrderedMapReference)
{
    EmbeddingStore store(smallTables());
    auto replicas = makeEventReplicas(1, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    const VectorLayout &layout = *replicas[0].layout;
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        for (const Batch &batch : makeBatches(3, 24, 20, seed)) {
            for (bool dedup : {true, false}) {
                PreparedBatch fast =
                    prepareBatch(layout, &store, batch, dedup);
                PreparedBatch ref =
                    prepareBatchReference(layout, &store, batch, dedup);
                expectPreparedIdentical(fast, ref);
            }
        }
    }
}

TEST(PrepareBatch, HashDedupHandlesAdversarialCollisions)
{
    // Indices congruent modulo the table capacity all land in one probe
    // chain; order and users must still match the reference.
    EmbeddingStore store(smallTables());
    auto replicas = makeEventReplicas(1, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    Batch batch;
    for (QueryId q = 0; q < 8; ++q) {
        Query query;
        query.id = q;
        for (unsigned i = 0; i < 12; ++i)
            query.indices.push_back(((i * 64 + q * 8) % 4096) +
                                    (q % 4) * 4096);
        batch.queries.push_back(std::move(query));
    }
    PreparedBatch fast =
        prepareBatch(*replicas[0].layout, &store, batch, true);
    PreparedBatch ref =
        prepareBatchReference(*replicas[0].layout, &store, batch, true);
    expectPreparedIdentical(fast, ref);
}

TEST(PrepareBatch, RecycledPoolKeepsOutputsIdentical)
{
    // Steady state: buffers cycle through one VectorPool across many
    // batches; contents must never depend on buffer provenance.
    EmbeddingStore store(smallTables());
    auto replicas = makeEventReplicas(1, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    const VectorLayout &layout = *replicas[0].layout;
    VectorPool pool;
    for (const Batch &batch : makeBatches(12, 16, 24, 29)) {
        PreparedBatch got = prepareBatch(layout, &store, batch, true, &pool);
        PreparedBatch ref =
            prepareBatchReference(layout, &store, batch, true);
        expectPreparedIdentical(got, ref);
        releasePrepared(got, pool);
    }
    EXPECT_GT(pool.stats().reuses, 0u) << "pool never recycled a buffer";
}

TEST(ServingPipeline, ValuesBitIdenticalToSerialAllShapes)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(10, 16, 24, 42);
    for (ReduceOp op : kAllOps) {
        const auto want = serialResults(batches, op, store);
        for (unsigned engines : {1u, 2u, 4u}) {
            for (unsigned depth : {1u, 2u}) {
                auto replicas = makeEventReplicas(
                    engines, {}, smallTables(), valueConfig(op), &store);
                ServingConfig cfg;
                cfg.engines = engines;
                cfg.pipelineDepth = depth;
                ServingPipeline pipeline(cfg, replicas, &store);
                auto report =
                    pipeline.serve(batches, 2 * kTicksPerUs);
                ASSERT_EQ(report.batches.size(), batches.size());
                for (std::size_t b = 0; b < batches.size(); ++b) {
                    const auto &got = report.batches[b].timing.results;
                    ASSERT_EQ(got.size(), want[b].size())
                        << "engines " << engines << " depth " << depth;
                    for (std::size_t q = 0; q < got.size(); ++q) {
                        EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                            << "engines=" << engines << " depth=" << depth
                            << " op=" << toString(op) << " batch=" << b
                            << " query=" << q;
                    }
                }
            }
        }
    }
}

TEST(ServingPipeline, PrepareWorkersOnlyChangeModeledCost)
{
    // prepareWorkers is a cost-model parameter: the prepare stage's busy
    // time is exactly the modeled formula summed over batches, with or
    // without a fault plan installed, and served values stay equal to
    // the unfaulted serial reference — timing faults move ticks, never
    // bits.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(8, 16, 24, 61);
    const auto want = serialResults(batches, ReduceOp::Sum, store);
    for (unsigned workers : {1u, 4u}) {
        for (bool faulted : {false, true}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         " faulted=" + std::to_string(faulted));
            fault::FaultPlan plan = fault::FaultPlan::parse(
                "dram_latency:0.3,event_delay:0.2,pool_exhaust:0.5", 5);
            ScopedInstruments install({.faults = faulted ? &plan : nullptr});
            auto replicas = makeEventReplicas(
                2, {}, smallTables(), valueConfig(ReduceOp::Sum), &store);
            ServingConfig cfg;
            cfg.engines = 2;
            cfg.prepareWorkers = workers;
            ServingPipeline pipeline(cfg, replicas, &store);
            const auto report = pipeline.serve(batches, kTicksPerUs);

            const auto pw = static_cast<Tick>(workers);
            Tick expected = 0;
            for (const Batch &batch : batches)
                expected += cfg.prepareFixed +
                            cfg.preparePerReference *
                                batch.totalIndices() / pw +
                            cfg.prepareShardOverhead * (pw - 1);
            EXPECT_EQ(report.prepareBusy, expected);

            ASSERT_EQ(report.batches.size(), batches.size());
            for (std::size_t b = 0; b < batches.size(); ++b) {
                const auto &got = report.batches[b].timing.results;
                ASSERT_EQ(got.size(), want[b].size());
                for (std::size_t q = 0; q < got.size(); ++q)
                    EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                        << "batch=" << b << " query=" << q;
            }
        }
    }
}

TEST(ServingPipeline, RoundRobinShardsEvenly)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(12, 8, 16, 7);
    auto replicas = makeEventReplicas(4, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 4;
    cfg.dispatch = DispatchPolicy::RoundRobin;
    ServingPipeline pipeline(cfg, replicas, &store);
    auto report = pipeline.serve(batches, 0);
    for (unsigned e = 0; e < 4; ++e)
        EXPECT_EQ(report.batchesPerEngine[e], 3u) << "engine " << e;
    for (const auto &b : report.batches)
        EXPECT_EQ(b.engine, b.batch % 4);
}

TEST(ServingPipeline, LeastLoadedIsWorkConserving)
{
    // Under a burst (gap 0) no engine may sit idle while another has
    // more than one batch queued beyond it.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(16, 8, 16, 9);
    auto replicas = makeEventReplicas(4, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 4;
    cfg.pipelineDepth = 4;
    cfg.dispatch = DispatchPolicy::LeastLoaded;
    ServingPipeline pipeline(cfg, replicas, &store);
    auto report = pipeline.serve(batches, 0);
    std::uint64_t total = 0;
    for (unsigned e = 0; e < 4; ++e) {
        EXPECT_GT(report.batchesPerEngine[e], 0u) << "engine " << e;
        total += report.batchesPerEngine[e];
    }
    EXPECT_EQ(total, batches.size());
}

TEST(ServingPipeline, FourReplicasOutpaceOne)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(24, 16, 24, 21);
    auto run = [&](unsigned engines) {
        auto replicas =
            makeEventReplicas(engines, {}, smallTables(),
                              valueConfig(ReduceOp::Sum), &store);
        ServingConfig cfg;
        cfg.engines = engines;
        cfg.pipelineDepth = engines + 1;
        ServingPipeline pipeline(cfg, replicas, &store);
        return pipeline.serve(batches, 0).requestsPerSecond();
    };
    const double one = run(1);
    const double four = run(4);
    EXPECT_GT(four, 2.0 * one);
}

TEST(ServingPipeline, SlotPoolsRecycleBuffers)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(8, 16, 24, 33);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    cfg.pipelineDepth = 2;
    ServingPipeline pipeline(cfg, replicas, &store);
    pipeline.serve(batches, 0);
    for (const auto &stats : pipeline.slotPoolStats()) {
        EXPECT_GT(stats.acquires, 0u);
        EXPECT_GT(stats.reuses, 0u)
            << "slot pool never recycled a buffer";
    }
}

TEST(ServingPipeline, HedgingFiresAndKeepsValues)
{
    EmbeddingStore store(smallTables());
    // Mostly small batches with a few much larger stragglers, so the
    // running p50 is small and the big batches overshoot it.
    auto batches = makeBatches(16, 8, 12, 55);
    const auto big = makeBatches(4, 32, 48, 56);
    batches.insert(batches.end(), big.begin(), big.end());
    const auto want = serialResults(batches, ReduceOp::Sum, store);

    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    cfg.hedgePct = 50.0;
    ServingPipeline pipeline(cfg, replicas, &store);
    auto report = pipeline.serve(batches, 4 * kTicksPerUs);
    EXPECT_GT(report.hedgesIssued, 0u);
    EXPECT_GE(report.hedgesIssued, report.hedgesWon);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const auto &got = report.batches[b].timing.results;
        ASSERT_EQ(got.size(), want[b].size());
        for (std::size_t q = 0; q < got.size(); ++q)
            EXPECT_TRUE(bitIdentical(got[q], want[b][q]))
                << "batch " << b << " query " << q;
    }
}

TEST(ServingPipeline, AttributionStaysExactWithPipelineStages)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 12, 16, 77);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    ServingPipeline pipeline(cfg, replicas, &store);

    telemetry::Attribution attr;
    {
        ScopedInstruments install({.attribution = &attr});
        pipeline.serve(batches, kTicksPerUs);
    }
    ASSERT_FALSE(attr.queries().empty());
    std::uint64_t with_stages = 0;
    for (const auto &q : attr.queries()) {
        EXPECT_EQ(q.componentSum(), q.total())
            << "batch " << q.batch << " query " << q.query;
        if (q.batchPrepare > 0)
            ++with_stages;
    }
    EXPECT_GT(with_stages, 0u) << "no query saw a batchPrepare stage";
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);
}

TEST(ServingPipeline, StatsCountServedWork)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 8, 12, 88);
    auto replicas = makeEventReplicas(2, {}, smallTables(),
                                      valueConfig(ReduceOp::Sum), &store);
    ServingConfig cfg;
    cfg.engines = 2;
    ServingPipeline pipeline(cfg, replicas, &store);
    StatRegistry registry;
    pipeline.registerStats(registry.group("serving"));
    const auto report = pipeline.serve(batches, 0);
    // Every batch lands on exactly one engine and the report's per-engine
    // split accounts for all of them.
    std::uint64_t total = 0;
    for (auto count : report.batchesPerEngine)
        total += count;
    EXPECT_EQ(total, batches.size());
    EXPECT_GT(report.makespan, 0u);
    EXPECT_GT(report.requestsPerSecond(), 0.0);
}
