/**
 * @file
 * Sharded serving-tier conformance: served values are bit-identical to
 * the single-store reference reduction at every shard count and
 * placement policy — including under an installed fault plan and with
 * hedging on — the placement is always a partition of the table space,
 * the rebalance plan is a pure function of the observed load, and the
 * 8-component attribution split stays exact through the cross-shard
 * combine stage.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/faultinject.hh"
#include "embedding/generator.hh"
#include "fafnir/serving.hh"
#include "fafnir/sharding.hh"
#include "telemetry/attribution.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

constexpr ReduceOp kAllOps[] = {ReduceOp::Sum, ReduceOp::Min,
                                ReduceOp::Max, ReduceOp::Mean};
constexpr PlacementPolicy kPolicies[] = {PlacementPolicy::Hash,
                                         PlacementPolicy::Range};

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
    wc.popularity =
        skew > 0 ? Popularity::Zipfian : Popularity::Uniform;
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

/** Build a tier over @p shards x @p replicas engines and serve. */
ShardedReport
serveSharded(const std::vector<Batch> &batches,
             const EmbeddingStore &store, unsigned shards,
             PlacementPolicy placement, ReduceOp op,
             unsigned replicas = 1, double hedge_pct = 0.0)
{
    auto groups = makeShardReplicas(shards, replicas, {}, smallTables(),
                                    valueConfig(op), &store);
    ShardTierConfig tc;
    tc.shards = shards;
    tc.placement = placement;
    tc.reduceOp = op;
    tc.serving.engines = replicas;
    tc.serving.pipelineDepth = 2 * replicas;
    tc.serving.hedgePct = hedge_pct;
    ShardedServingTier tier(tc, groups, &store);
    return tier.serve(batches, 2 * kTicksPerUs);
}

/** Every served vector must equal the single-store reduction to the
 *  bit, whatever the tier's shape was. */
void
expectMatchesReference(const ShardedReport &report,
                       const std::vector<Batch> &batches,
                       const EmbeddingStore &store, ReduceOp op)
{
    ASSERT_EQ(report.batches.size(), batches.size());
    for (const ShardedBatchTrace &trace : report.batches) {
        const std::vector<Vector> want =
            store.reduceBatch(batches[trace.batch], op);
        ASSERT_EQ(trace.results.size(), want.size());
        for (std::size_t q = 0; q < want.size(); ++q)
            EXPECT_TRUE(bitIdentical(trace.results[q], want[q]))
                << "op=" << toString(op) << " batch=" << trace.batch
                << " query=" << q;
    }
}

} // namespace

TEST(ShardedTier, BitIdenticalAtAnyShardCountPlacementOpAndSkew)
{
    // The headline conformance claim: shard count and placement are
    // pure deployment choices — they may move ticks, never bits.
    EmbeddingStore store(smallTables());
    for (double skew : {0.9, 0.0}) {
        const auto batches = makeBatches(6, 12, 20, 42, skew);
        for (ReduceOp op : kAllOps) {
            for (PlacementPolicy placement : kPolicies) {
                for (unsigned shards : {1u, 2u, 4u, 8u}) {
                    SCOPED_TRACE(std::string("op=") + toString(op) +
                                 " placement=" + toString(placement) +
                                 " shards=" + std::to_string(shards) +
                                 " skew=" + std::to_string(skew));
                    expectMatchesReference(
                        serveSharded(batches, store, shards, placement,
                                     op),
                        batches, store, op);
                }
            }
        }
    }
}

TEST(ShardedTier, BitIdenticalUnderFaultPlan)
{
    // Timing faults perturb every shard's engines independently and
    // shift the combine order's arrival times — values still may not
    // move.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(5, 12, 16, 67);
    fault::FaultPlan plan =
        fault::FaultPlan::parse("dram_latency:0.3,event_delay:0.2", 5);
    ScopedInstruments install({.faults = &plan});
    for (ReduceOp op : {ReduceOp::Sum, ReduceOp::Mean}) {
        for (unsigned shards : {2u, 4u}) {
            SCOPED_TRACE(std::string("op=") + toString(op) +
                         " shards=" + std::to_string(shards));
            expectMatchesReference(
                serveSharded(batches, store, shards,
                             PlacementPolicy::Hash, op),
                batches, store, op);
        }
    }
    EXPECT_GT(plan.totalFired(), 0u);
}

TEST(ShardedTier, BitIdenticalWithHedgingOn)
{
    // Mostly small batches plus oversized stragglers so per-shard
    // hedges actually fire; a backup winning must not change values.
    EmbeddingStore store(smallTables());
    auto batches = makeBatches(12, 8, 12, 55);
    const auto big = makeBatches(3, 32, 48, 56);
    batches.insert(batches.end(), big.begin(), big.end());
    const ShardedReport report =
        serveSharded(batches, store, 2, PlacementPolicy::Hash,
                     ReduceOp::Sum, /*replicas=*/2, /*hedge_pct=*/50.0);
    std::uint64_t hedges = 0;
    for (const PipelineReport &shard : report.perShard)
        hedges += shard.hedgesIssued;
    EXPECT_GT(hedges, 0u) << "no shard hedged a straggler";
    expectMatchesReference(report, batches, store, ReduceOp::Sum);
}

TEST(ShardRouter, PlacementPartitionsTheTableSpace)
{
    const TableConfig tables = smallTables();
    for (PlacementPolicy policy : kPolicies) {
        for (unsigned shards : {1u, 2u, 3u, 4u, 8u}) {
            ShardRouter router(shards, policy, tables);
            ASSERT_EQ(router.placement().size(), tables.numTables);
            std::vector<unsigned> perShard(shards, 0);
            for (unsigned t = 0; t < tables.numTables; ++t) {
                // Exactly one shard per table, and it is in range.
                ASSERT_LT(router.shardOfTable(t), shards)
                    << toString(policy) << " shards=" << shards;
                ++perShard[router.shardOfTable(t)];
            }
            // A partition: the per-shard owner counts cover every
            // table exactly once.
            EXPECT_EQ(std::accumulate(perShard.begin(), perShard.end(),
                                      0u),
                      tables.numTables);
            if (policy == PlacementPolicy::Range) {
                // Contiguous coverage of the id space: shard ids are
                // non-decreasing over table ids (no gaps or overlaps)
                // and every shard owns at least one table when
                // shards <= tables.
                for (unsigned t = 1; t < tables.numTables; ++t)
                    EXPECT_GE(router.shardOfTable(t),
                              router.shardOfTable(t - 1));
                if (shards <= tables.numTables)
                    for (unsigned s = 0; s < shards; ++s)
                        EXPECT_GT(perShard[s], 0u) << "shard " << s;
            }
        }
    }
}

TEST(ShardRouter, SplitCoversEveryReferenceExactlyOnce)
{
    const TableConfig tables = smallTables();
    for (PlacementPolicy policy : kPolicies) {
        ShardRouter router(4, policy, tables);
        for (const Batch &batch : makeBatches(4, 16, 24, 77)) {
            const ShardRouter::SplitBatch split = router.split(batch);
            std::size_t refs = 0;
            for (unsigned s = 0; s < 4; ++s) {
                const auto &sub = split.perShard[s];
                ASSERT_EQ(sub.globalQuery.size(),
                          sub.batch.queries.size());
                for (std::size_t lq = 0; lq < sub.batch.queries.size();
                     ++lq) {
                    const Query &query = sub.batch.queries[lq];
                    // Dense local ids in global order.
                    EXPECT_EQ(query.id, lq);
                    if (lq > 0)
                        EXPECT_GT(sub.globalQuery[lq],
                                  sub.globalQuery[lq - 1]);
                    EXPECT_FALSE(query.indices.empty());
                    for (IndexId index : query.indices)
                        EXPECT_EQ(router.shardOfIndex(index), s);
                    refs += query.indices.size();
                }
            }
            EXPECT_EQ(refs, batch.totalIndices());
            ASSERT_EQ(split.totalIndices.size(), batch.queries.size());
            for (std::size_t g = 0; g < batch.queries.size(); ++g)
                EXPECT_EQ(split.totalIndices[g],
                          batch.queries[g].indices.size());
        }
    }
}

TEST(ShardRouter, RebalanceIsDeterministicAndKeepsThePartition)
{
    const TableConfig tables = smallTables();
    ShardRouter router(4, PlacementPolicy::Hash, tables);
    // Synthetic hot-spot load: a few tables dominate.
    std::vector<std::uint64_t> refs(tables.numTables, 10);
    refs[3] = 4000;
    refs[7] = 2500;
    refs[11] = 900;
    ASSERT_GE(router.imbalance(refs), 1.5);

    const auto moves = router.rebalance(refs, 1.5);
    ASSERT_FALSE(moves.empty());
    // Pure function of (placement, load, threshold): planning twice
    // gives the identical move list, element for element.
    const auto again = router.rebalance(refs, 1.5);
    ASSERT_EQ(moves.size(), again.size());
    for (std::size_t i = 0; i < moves.size(); ++i) {
        EXPECT_EQ(moves[i].table, again[i].table);
        EXPECT_EQ(moves[i].from, again[i].from);
        EXPECT_EQ(moves[i].to, again[i].to);
    }

    const double before = router.imbalance(refs);
    router.apply(moves);
    // Still a partition, and strictly better balanced.
    for (unsigned t = 0; t < tables.numTables; ++t)
        ASSERT_LT(router.shardOfTable(t), 4u);
    EXPECT_LT(router.imbalance(refs), before);
}

TEST(ShardedTier, RebalanceHookRespondsToZipfianSkew)
{
    // Heavy skew concentrates references on the hot tables' shards;
    // the tier's hook must observe it and emit a deterministic plan.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(8, 16, 24, 91, /*skew=*/1.2);
    auto groups = makeShardReplicas(4, 1, {}, smallTables(),
                                    valueConfig(ReduceOp::Sum), &store);
    ShardTierConfig tc;
    tc.shards = 4;
    tc.rebalanceThreshold = 1.2;
    ShardedServingTier tier(tc, groups, &store);
    tier.serve(batches, 0);
    std::uint64_t refs = 0;
    for (std::uint64_t r : tier.refsPerTable())
        refs += r;
    std::size_t want = 0;
    for (const Batch &b : batches)
        want += b.totalIndices();
    EXPECT_EQ(refs, want);
    if (tier.observedImbalance() >= tc.rebalanceThreshold) {
        const auto moves = tier.rebalance();
        EXPECT_FALSE(moves.empty());
        // Values stay bit-identical after the placement moved.
        const auto after = tier.serve(batches, 0);
        expectMatchesReference(after, batches, store, ReduceOp::Sum);
    }
}

TEST(ShardedTier, AttributionStaysExactThroughShardCombine)
{
    // The 8-component breakdown must still telescope to end-to-end
    // latency when the cross-shard combine extends `complete`, and
    // multi-shard queries must actually carry the new component.
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(5, 12, 20, 101);
    auto groups = makeShardReplicas(2, 1, {}, smallTables(),
                                    valueConfig(ReduceOp::Sum), &store);
    ShardTierConfig tc;
    tc.shards = 2;
    ShardedServingTier tier(tc, groups, &store);

    telemetry::Attribution attr;
    {
        ScopedInstruments install({.attribution = &attr});
        tier.serve(batches, kTicksPerUs);
    }
    ASSERT_FALSE(attr.queries().empty());
    std::uint64_t with_combine = 0;
    for (const auto &q : attr.queries()) {
        EXPECT_EQ(q.componentSum(), q.total())
            << "batch " << q.batch << " query " << q.query;
        if (q.shardCombine > 0)
            ++with_combine;
    }
    EXPECT_GT(with_combine, 0u) << "no query saw the combine stage";
    EXPECT_DOUBLE_EQ(attr.componentCoverage(), 1.0);
}

TEST(ShardedTier, ReportAccountsLoadAndCrossShardQueries)
{
    EmbeddingStore store(smallTables());
    const auto batches = makeBatches(6, 12, 24, 13);
    auto groups = makeShardReplicas(2, 1, {}, smallTables(),
                                    valueConfig(ReduceOp::Sum), &store);
    ShardTierConfig tc;
    tc.shards = 2;
    ShardedServingTier tier(tc, groups, &store);
    StatRegistry registry;
    tier.registerStats(registry.group("serving.shard"));
    const ShardedReport report = tier.serve(batches, 0);

    ASSERT_EQ(report.refsPerShard.size(), 2u);
    std::uint64_t refs =
        report.refsPerShard[0] + report.refsPerShard[1];
    std::size_t want = 0;
    for (const Batch &b : batches)
        want += b.totalIndices();
    EXPECT_EQ(refs, want);
    // 24 indices over 32 tables on 2 shards: essentially every query
    // spans both shards.
    EXPECT_GT(report.crossShardQueries, 0u);
    EXPECT_GE(report.loadImbalance(), 1.0);
    EXPECT_GT(report.makespan, 0u);
    for (const ShardedBatchTrace &trace : report.batches) {
        EXPECT_GE(trace.combineDone, trace.shardsDone);
        if (trace.shardsTouched > 1)
            EXPECT_GT(trace.combineDone, trace.shardsDone);
    }
    EXPECT_GT(report.combineBusy, 0u);
}
