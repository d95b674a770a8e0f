/**
 * @file
 * Differential oracle of the interned header algebra.
 *
 * Fuzzed batches run through the production PE and tree evaluator
 * (interned index sets, derived residuals, flat merge) and through the
 * literal-header reference in reference_tree.hh. Every PE must agree
 * output by output: order, index sets, query-id lists, derived
 * residuals, actions, sources, header bits, values and activity
 * counters — and the tree's trace and results must match the
 * reference's. The sweep covers query sizes 1-80 (past 64), dedup on and
 * off, every payload format, Zipf and uniform indices, and several tree
 * shapes.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>

#include "dram/address.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "reference_tree.hh"

using namespace fafnir;
using namespace fafnir::core;
using namespace fafnir::embedding;

namespace
{

constexpr unsigned kBitsPerIndex = 5;

struct Case
{
    unsigned batchSize;
    unsigned minQuerySize;
    unsigned maxQuerySize;
    Popularity popularity;
    bool dedup;
    PayloadFormat payload;
    unsigned ranks;
    unsigned ranksPerLeafPe;
    ReduceOp op;
    std::uint64_t seed;

    std::string
    describe() const
    {
        std::ostringstream os;
        os << "batch=" << batchSize << " q=" << minQuerySize << ".."
           << maxQuerySize << " zipf="
           << (popularity == Popularity::Zipfian) << " dedup=" << dedup
           << " payload=" << payloadFormatName(payload)
           << " ranks=" << ranks << "/" << ranksPerLeafPe
           << " seed=" << seed;
        return os.str();
    }
};

bool
sameBits(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void
expectSameActivity(const PeActivity &got, const PeActivity &want,
                   const std::string &where)
{
    EXPECT_EQ(got.compares, want.compares) << where;
    EXPECT_EQ(got.reduces, want.reduces) << where;
    EXPECT_EQ(got.forwards, want.forwards) << where;
    EXPECT_EQ(got.duplicatesDropped, want.duplicatesDropped) << where;
    EXPECT_EQ(got.headersMerged, want.headersMerged) << where;
    EXPECT_EQ(got.dequants, want.dequants) << where;
    EXPECT_EQ(got.requants, want.requants) << where;
}

void
expectSameSources(std::span<const Provenance> got,
                  const std::vector<Provenance> &want,
                  const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t s = 0; s < want.size(); ++s)
        EXPECT_EQ(got[s], want[s]) << where << " source " << s;
}

/** One output row against a literal-header reference output. */
void
expectSameOutput(const IndexSetTable &sets, const OutputTable &table,
                 std::uint32_t row, const reference::PeOutput &want,
                 const std::string &where)
{
    const OutputRef got = table[row];
    EXPECT_EQ(got.action, want.action) << where;
    expectSameSources(got.sources, want.sources, where);
    EXPECT_EQ(sets.indexSet(got.indices), want.item.indices) << where;
    const auto &queries = want.item.queries;
    ASSERT_EQ(got.queries.size(), queries.size()) << where;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(got.queries[i], queries[i].query) << where;
        EXPECT_EQ(sets.residual(got.indices, got.queries[i]),
                  queries[i].remaining)
            << where << " residual " << i;
    }
    EXPECT_EQ(headerBits(sets, got.indices, got.queries, kBitsPerIndex),
              want.item.headerBits(kBitsPerIndex))
        << where;
    EXPECT_TRUE(sameBits(table.value(row), want.item.value)) << where;
}

std::vector<IndexSet>
querySetsOf(const Batch &batch)
{
    std::vector<IndexSet> sets;
    for (const auto &q : batch.queries)
        sets.emplace_back(q.indices);
    return sets;
}

/** The literal-header twin of @p item. */
reference::Item
literal(const IndexSetTable &sets, const Item &item,
        const std::vector<IndexSet> &query_sets)
{
    reference::Item lit;
    lit.indices = sets.indexSet(item.indices);
    for (QueryId q : item.queries)
        lit.queries.push_back({q, query_sets[q].minus(lit.indices)});
    lit.value = item.value;
    return lit;
}

/** One PE step on hand-built inputs against the reference PE. */
void
expectPeMatchesReference(IndexSetTable &sets,
                         const std::vector<IndexSet> &query_sets,
                         const std::vector<Item> &a,
                         const std::vector<Item> &b)
{
    std::vector<reference::Item> ref_a;
    std::vector<reference::Item> ref_b;
    for (const Item &item : a)
        ref_a.push_back(literal(sets, item, query_sets));
    for (const Item &item : b)
        ref_b.push_back(literal(sets, item, query_sets));
    PeActivity want_activity;
    const auto want = reference::process(ref_a, ref_b, want_activity);
    OutputTable table(/*values=*/true);
    const RowRange in_a = table.addInputs(a);
    const RowRange in_b = table.addInputs(b);
    ProcessingElement pe;
    PeActivity activity;
    const RowRange got = pe.process(sets, table, in_a, in_b, activity);
    expectSameActivity(activity, want_activity, "crafted PE");
    ASSERT_EQ(got.size(), want.size());
    for (std::uint32_t k = 0; k < got.size(); ++k) {
        expectSameOutput(sets, table, got.begin + k, want[k],
                         "crafted output " + std::to_string(k));
    }
}

/** Run three batches of @p c, adding the reference's activity to
 *  @p swept. */
void
runCase(const Case &c, PeActivity &swept)
{
    SCOPED_TRACE(c.describe());
    // Small vectors (16 floats) keep the value path cheap; rows are
    // plentiful enough for 80 distinct indices per query.
    const TableConfig tables{16, 2048, 64, 4};
    const auto geometry = dram::Geometry::withTotalRanks(c.ranks);
    const dram::AddressMapper mapper(geometry, dram::Interleave::BlockRank,
                                     tables.vectorBytes);
    const EmbeddingStore store(tables);
    const VectorLayout layout(tables, mapper);
    const TreeTopology topology(c.ranks, c.ranksPerLeafPe);

    WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = c.batchSize;
    wc.querySize = c.maxQuerySize;
    if (c.minQuerySize != c.maxQuerySize)
        wc.minQuerySize = c.minQuerySize;
    wc.popularity = c.popularity;
    wc.zipfSkew = 1.1;
    wc.hotFraction = 0.02; // heavy sharing: merges and duplicates
    BatchGenerator gen(wc, c.seed);

    for (int round = 0; round < 3; ++round) {
        const Batch batch = gen.next();
        const std::vector<IndexSet> query_sets = querySetsOf(batch);
        const bool values = round != 1; // one header-only round
        const PreparedBatch prepared = prepareBatch(
            layout, &store, batch, c.dedup, nullptr, c.payload);
        const reference::TreeRun want = reference::runTree(
            topology, prepared, query_sets, values, c.op);
        swept += want.total;

        // PE by PE: drive the production PE over the same topology, each
        // PE reading its children's rows of one table.
        IndexSetTable sets = prepared.sets;
        OutputTable table(values);
        ProcessingElement pe_model;
        const unsigned num_pes = topology.numPes();
        std::vector<std::vector<Item>> side_a(num_pes + 1);
        std::vector<std::vector<Item>> side_b(num_pes + 1);
        for (unsigned rank = 0; rank < topology.numRanks(); ++rank) {
            const unsigned pe = topology.leafPeOf(rank);
            auto &side =
                topology.sideOf(rank) == 0 ? side_a[pe] : side_b[pe];
            for (const auto &read : prepared.rankReads[rank])
                side.push_back(read.item);
        }
        std::vector<RowRange> up(num_pes + 1);
        for (unsigned pe = num_pes; pe >= 1; --pe) {
            const std::string where = "round " + std::to_string(round) +
                                      " PE " + std::to_string(pe);
            RowRange a;
            RowRange b;
            if (topology.isLeafPe(pe)) {
                a = table.addInputs(side_a[pe]);
                b = table.addInputs(side_b[pe]);
            } else {
                a = up[topology.leftChild(pe)];
                b = up[topology.rightChild(pe)];
            }
            const reference::PeTrace &ref = want.trace[pe];
            ASSERT_EQ(a.size(), ref.inputsA.size()) << where;
            ASSERT_EQ(b.size(), ref.inputsB.size()) << where;

            PeActivity activity;
            const RowRange got = pe_model.process(sets, table, a, b, activity,
                                                  c.op, nullptr, c.payload);
            expectSameActivity(activity, ref.activity, where);
            ASSERT_EQ(got.size(), ref.outputs.size()) << where;
            for (std::uint32_t k = 0; k < got.size(); ++k) {
                expectSameOutput(sets, table, got.begin + k, ref.outputs[k],
                                 where + " output " + std::to_string(k));
            }
            up[pe] = got;
            if (pe == 1)
                break;
        }

        // The evaluator's trace and results against the reference run.
        const TreeRun run = FunctionalTree(topology).run(
            prepared, values, /*keep_trace=*/true, c.op);
        ASSERT_EQ(run.trace.size(), want.trace.size());
        for (unsigned pe = 1; pe <= num_pes; ++pe) {
            const std::string where = "round " + std::to_string(round) +
                                      " traced PE " + std::to_string(pe);
            const PeTrace &trace = run.trace[pe];
            const reference::PeTrace &ref = want.trace[pe];
            EXPECT_EQ(trace.inputs[0], ref.inputsA.size()) << where;
            EXPECT_EQ(trace.inputs[1], ref.inputsB.size()) << where;
            expectSameActivity(trace.activity, ref.activity, where);
            ASSERT_EQ(trace.outputs.size(), ref.outputs.size()) << where;
            for (std::size_t k = 0; k < ref.outputs.size(); ++k) {
                const std::string out = where + " output " +
                                        std::to_string(k);
                const OutputRef got = run.output(pe, k);
                EXPECT_EQ(got.action, ref.outputs[k].action) << out;
                expectSameSources(got.sources, ref.outputs[k].sources, out);
                const auto &queries = ref.outputs[k].item.queries;
                ASSERT_EQ(got.queries.size(), queries.size()) << out;
                for (std::size_t i = 0; i < queries.size(); ++i)
                    EXPECT_EQ(got.queries[i], queries[i].query) << out;
            }
        }
        ASSERT_EQ(run.root.size(), want.rootOutputs.size());
        for (std::uint32_t k = 0; k < want.rootOutputs.size(); ++k) {
            expectSameOutput(run.sets, run.table, run.root.begin + k,
                             want.rootOutputs[k],
                             "root output " + std::to_string(k));
        }
        expectSameActivity(run.total, want.total, "tree total");
        EXPECT_EQ(run.rootCombines, want.rootCombines);
        // The query->root index lists exactly the root outputs whose
        // literal header carries the query, in ascending order.
        ASSERT_EQ(want.rootItemsPerQuery.size(), run.sets.numQueries());
        for (QueryId q = 0; q < want.rootItemsPerQuery.size(); ++q) {
            std::vector<std::uint32_t> carriers;
            for (std::size_t k = 0; k < want.rootOutputs.size(); ++k)
                if (want.rootOutputs[k].item.findQuery(q) != nullptr)
                    carriers.push_back(static_cast<std::uint32_t>(k));
            const auto index = run.rootOutputsOf(q);
            EXPECT_EQ(std::vector<std::uint32_t>(index.begin(), index.end()),
                      carriers)
                << "query " << q;
            EXPECT_EQ(index.size(), want.rootItemsPerQuery[q])
                << "query " << q;
        }
        EXPECT_EQ(run.maxPeOutputs, want.maxPeOutputs);
        ASSERT_EQ(run.results.size(), want.results.size());
        for (std::size_t q = 0; q < want.results.size(); ++q)
            EXPECT_TRUE(sameBits(run.results[q], want.results[q]))
                << "query " << q;
    }
}

} // namespace

TEST(PeOracle, QuerySizesUpToEighty)
{
    PeActivity swept;
    std::uint64_t seed = 11;
    for (const auto &[lo, hi] : {std::pair{1u, 1u}, std::pair{1u, 8u},
                                 std::pair{24u, 24u}, std::pair{60u, 80u}}) {
        for (bool dedup : {true, false}) {
            runCase({16, lo, hi, Popularity::Zipfian, dedup,
                     PayloadFormat::Fp32, 32, 2, ReduceOp::Sum, seed++},
                    swept);
        }
    }
    // The sweep reaches the merge unit's header concatenation.
    EXPECT_GT(swept.reduces, 0u);
    EXPECT_GT(swept.headersMerged, 0u);
}

TEST(PeOracle, EveryPayloadFormat)
{
    PeActivity swept;
    std::uint64_t seed = 101;
    for (PayloadFormat payload : {PayloadFormat::Fp32, PayloadFormat::Int8,
                                  PayloadFormat::TwoBit}) {
        for (bool dedup : {true, false}) {
            runCase({24, 4, 32, Popularity::Zipfian, dedup, payload, 16, 2,
                     ReduceOp::Sum, seed++},
                    swept);
        }
    }
    EXPECT_GT(swept.requants, 0u);
}

TEST(PeOracle, UniformIndices)
{
    PeActivity swept;
    std::uint64_t seed = 201;
    for (bool dedup : {true, false}) {
        runCase({32, 8, 24, Popularity::Uniform, dedup, PayloadFormat::Fp32,
                 32, 2, ReduceOp::Sum, seed++},
                swept);
        runCase({8, 1, 70, Popularity::Uniform, dedup, PayloadFormat::Int8,
                 8, 2, ReduceOp::Max, seed++},
                swept);
    }
}

TEST(PeOracle, TreeShapes)
{
    // {ranks, ranks per leaf PE}: a single PE, the paper's 1PE:2R, and
    // the 1PE:1R / 1PE:4R scales.
    const std::pair<unsigned, unsigned> shapes[] = {
        {2, 2}, {8, 2}, {64, 2}, {16, 1}, {32, 4}};
    PeActivity swept;
    std::uint64_t seed = 301;
    for (const auto &[ranks, per_leaf] : shapes) {
        for (Popularity popularity :
             {Popularity::Zipfian, Popularity::Uniform}) {
            runCase({16, 1, 40, popularity, true, PayloadFormat::Fp32,
                     ranks, per_leaf, ReduceOp::Mean, seed++},
                    swept);
        }
    }
}

TEST(PeOracle, MergeUnitOnHandBuiltHeaders)
{
    // Inputs the batch path never produces — an item listing a query
    // twice — so the merge unit's duplicate drop is exercised too.
    const std::vector<IndexSet> query_sets = {
        {1, 2, 3}, {1, 2, 4}, {1, 5}};
    IndexSetTable sets({1, 2, 3, 4, 5});
    for (const IndexSet &q : query_sets) {
        std::vector<std::uint32_t> slots;
        for (IndexId index : q)
            slots.push_back(sets.slotOf(index));
        sets.addQuery(sets.intern(slots));
    }
    auto item = [&sets](IndexId index, SmallVec<QueryId, 2> queries) {
        Item it;
        it.indices = IndexSetTable::single(sets.slotOf(index));
        it.queries = std::move(queries);
        it.value = {static_cast<float>(index), 0.5f};
        return it;
    };
    // {1} twice for query 0 with nothing opposite: one output, one drop.
    expectPeMatchesReference(sets, query_sets, {item(1, {0, 0})}, {});
    // Repeated query on a reducing item, a merge of {1,2} across queries
    // 0 and 1, and a reduce for query 2 out of the second entries.
    expectPeMatchesReference(sets, query_sets,
                             {item(1, {0, 0, 1}), item(5, {2})},
                             {item(2, {0, 1}), item(1, {2})});
}

TEST(PeOracle, KeyedSortFallsBackOnSharedPrefixes)
{
    // The merge unit sorts on a key of each set's first two slots and
    // falls back to full set order on ties. Here four outputs share the
    // prefix {1, 2} and differ later ({1,2}, {1,2,5}, {1,2,6}, {1,2,7},
    // produced in reverse of set order), {1,2,6} is formed twice and
    // merges, and {1} sits beside {1, 2}.
    const std::vector<IndexSet> query_sets = {
        {1, 2, 7, 10}, {1, 2, 6}, {1, 2, 5}, {1, 8}, {1, 2, 9},
        {1, 2, 6, 11}, {1, 2, 3, 12}};
    IndexSetTable sets({1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12});
    for (const IndexSet &q : query_sets) {
        std::vector<std::uint32_t> slots;
        for (IndexId index : q)
            slots.push_back(sets.slotOf(index));
        sets.addQuery(sets.intern(slots));
    }
    auto item = [&sets](std::vector<IndexId> indices,
                        SmallVec<QueryId, 2> queries) {
        std::vector<std::uint32_t> slots;
        for (IndexId index : indices)
            slots.push_back(sets.slotOf(index));
        Item it;
        it.indices = sets.intern(slots);
        it.queries = std::move(queries);
        it.value = {static_cast<float>(indices.back()), 0.25f};
        return it;
    };
    expectPeMatchesReference(
        sets, query_sets,
        {item({1, 2}, {0, 1, 2, 4, 5}), item({1}, {3}),
         item({1, 2, 3}, {6})},
        {item({7}, {0}), item({6}, {1, 5}), item({5}, {2})});
}
