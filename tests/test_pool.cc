/**
 * @file
 * VectorPool: buffer recycling semantics, and the guarantee that pooled
 * and unpooled PE evaluation produce bit-identical outputs.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "fafnir/pool.hh"
#include "fafnir/tree.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

TEST(VectorPool, RecyclesReleasedCapacity)
{
    VectorPool pool;
    Vector a = pool.acquire(16);
    EXPECT_EQ(a.size(), 16u);
    EXPECT_EQ(pool.stats().reuses, 0u);

    const float *data = a.data();
    pool.release(std::move(a));
    EXPECT_EQ(pool.idleBuffers(), 1u);

    Vector b = pool.acquire(8);
    EXPECT_EQ(b.size(), 8u);
    EXPECT_EQ(b.data(), data); // same buffer came back
    EXPECT_EQ(pool.stats().reuses, 1u);
    EXPECT_EQ(pool.idleBuffers(), 0u);
}

TEST(VectorPool, IgnoresEmptyBuffers)
{
    VectorPool pool;
    pool.release(Vector{});
    EXPECT_EQ(pool.idleBuffers(), 0u);
    EXPECT_EQ(pool.stats().releases, 0u);
}

namespace
{

/** Two reducible input sides plus an unpaired forward. */
void
makeInputs(IndexSetTable &sets, std::vector<Item> &a, std::vector<Item> &b,
           std::size_t dim)
{
    // Query q < 3 is {2q, 2q + 1}; query 3 is {40, 41}.
    sets = IndexSetTable({0, 1, 2, 3, 4, 5, 40, 41});
    for (std::uint32_t slot = 0; slot < 8; slot += 2) {
        const std::uint32_t pair[] = {slot, slot + 1};
        sets.addQuery(sets.intern(pair));
    }
    for (IndexId i = 0; i < 6; i += 2) {
        const QueryId q = i / 2;
        Item left;
        left.indices = IndexSetTable::single(sets.slotOf(i));
        left.queries = {q};
        left.value.assign(dim, 1.0f + static_cast<float>(i));
        Item right;
        right.indices = IndexSetTable::single(sets.slotOf(i + 1));
        right.queries = {q};
        right.value.assign(dim, 0.5f + static_cast<float>(i));
        a.push_back(std::move(left));
        b.push_back(std::move(right));
    }
    // Query 3 has both vectors on side A: one reduceless forward each.
    Item lone;
    lone.indices = IndexSetTable::single(sets.slotOf(40));
    lone.queries = {3};
    lone.value.assign(dim, 7.0f);
    a.push_back(std::move(lone));
}

} // namespace

TEST(VectorPool, PooledPeOutputsBitIdentical)
{
    IndexSetTable sets;
    std::vector<Item> a;
    std::vector<Item> b;
    makeInputs(sets, a, b, 33); // odd length: no convenient vector width

    ProcessingElement pe;
    OutputTable plain(/*values=*/true);
    PeActivity plain_activity;
    const RowRange plain_out =
        pe.process(sets, plain, plain.addInputs(a), plain.addInputs(b),
                   plain_activity, ReduceOp::Sum, nullptr);

    VectorPool pool;
    PeActivity pooled_activity;
    // Two rounds so round two actually reuses round one's buffers.
    for (int round = 0; round < 2; ++round) {
        OutputTable pooled(/*values=*/true);
        const RowRange in_a = pooled.addInputs(a, &pool);
        const RowRange in_b = pooled.addInputs(b, &pool);
        const RowRange out = pe.process(sets, pooled, in_a, in_b,
                                        pooled_activity, ReduceOp::Sum,
                                        &pool);
        ASSERT_EQ(out.size(), plain_out.size());
        for (std::uint32_t k = 0; k < plain_out.size(); ++k) {
            const OutputRef got = pooled[out.begin + k];
            const OutputRef want = plain[plain_out.begin + k];
            EXPECT_EQ(got.indices, want.indices);
            EXPECT_TRUE(std::equal(got.queries.begin(), got.queries.end(),
                                   want.queries.begin(),
                                   want.queries.end()));
            EXPECT_EQ(pooled.value(out.begin + k),
                      plain.value(plain_out.begin + k));
            EXPECT_EQ(got.action, want.action);
        }
        pooled.releaseValues(in_a, pool);
        pooled.releaseValues(in_b, pool);
        pooled.releaseValues(out, pool);
    }
    EXPECT_GT(pool.stats().reuses, 0u);
}

// A full multi-level tree evaluation must recycle buffers (levels above
// the leaves are served from dead lower-level outputs) and still match
// the reference gather-reduce exactly.
TEST(VectorPool, FunctionalTreeReusesBuffers)
{
    const TableConfig tables{32, 4096, 512, 4};
    const auto geometry = dram::Geometry::withTotalRanks(32);
    const dram::AddressMapper mapper(geometry, dram::Interleave::BlockRank,
                                     tables.vectorBytes);
    EmbeddingStore store(tables);
    const VectorLayout layout(tables, mapper);
    const Host host(layout, &store);
    const TreeTopology topology(32);
    const FunctionalTree tree(topology);

    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = 16;
    wc.querySize = 8;
    BatchGenerator gen(wc, 7);
    const Batch batch = gen.next();

    const PreparedBatch prepared = host.prepare(batch, /*dedup=*/true);
    const TreeRun run = tree.run(prepared, /*values=*/true);

    EXPECT_GT(run.poolStats.acquires, 0u);
    EXPECT_GT(run.poolStats.reuses, 0u);
    EXPECT_GT(run.poolStats.releases, 0u);

    const auto reference = store.reduceBatch(batch);
    ASSERT_EQ(run.results.size(), reference.size());
    for (std::size_t q = 0; q < reference.size(); ++q) {
        EXPECT_TRUE(vectorsEqual(run.results[q], reference[q]))
            << "query " << q << " mismatch with pooling";
    }
}
