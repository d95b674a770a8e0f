/**
 * @file
 * Unit tests of the processing element: compare/reduce/forward decisions,
 * the merge unit's dedup and header concatenation, pairing under
 * same-side multiplicity, and activity accounting — including the
 * concrete PE steps of the paper's Figure 6 walkthrough.
 */

#include <gtest/gtest.h>

#include <optional>

#include "fafnir/pe.hh"

using namespace fafnir;
using namespace fafnir::core;
using fafnir::embedding::Vector;

namespace
{

/**
 * The index space of one test batch: query q's full set is queries[q],
 * interned over one slot per index the queries mention. An item's
 * residual for q is derived as queries[q] minus the item's indices.
 * PE steps read and append rows of one output table.
 */
struct Rig
{
    IndexSetTable sets;
    OutputTable table;
    ProcessingElement pe;

    explicit Rig(const std::vector<std::vector<IndexId>> &queries,
                 bool values = false)
        : table(values)
    {
        std::vector<IndexId> all;
        for (const auto &q : queries)
            all.insert(all.end(), q.begin(), q.end());
        std::sort(all.begin(), all.end());
        all.erase(std::unique(all.begin(), all.end()), all.end());
        sets = IndexSetTable(all);
        for (const auto &q : queries)
            sets.addQuery(intern(q));
    }

    SetId
    intern(std::vector<IndexId> indices)
    {
        std::sort(indices.begin(), indices.end());
        std::vector<std::uint32_t> slots;
        for (IndexId index : indices)
            slots.push_back(sets.slotOf(index));
        return sets.intern(slots);
    }

    /** An item summing @p indices, wanted by @p queries. */
    Item
    item(std::vector<IndexId> indices, std::vector<QueryId> queries)
    {
        Item it;
        it.indices = intern(std::move(indices));
        for (QueryId q : queries)
            it.queries.push_back(q);
        return it;
    }

    /** One PE step over rows @p a and @p b. */
    RowRange
    run(RowRange a, RowRange b, PeActivity &activity)
    {
        return pe.process(sets, table, a, b, activity);
    }

    /** One PE step over fresh input rows @p a and @p b. */
    RowRange
    run(const std::vector<Item> &a, const std::vector<Item> &b,
        PeActivity &activity)
    {
        const RowRange ra = table.addInputs(a);
        const RowRange rb = table.addInputs(b);
        return run(ra, rb, activity);
    }

    RowRange
    run(const std::vector<Item> &a, const std::vector<Item> &b)
    {
        PeActivity activity;
        return run(a, b, activity);
    }

    OutputRef
    at(RowRange outputs, std::uint32_t k) const
    {
        return table[outputs.begin + k];
    }

    /** The output summing exactly @p indices, if any. */
    std::optional<OutputRef>
    find(RowRange outputs, std::initializer_list<IndexId> indices) const
    {
        const IndexSet key{std::vector<IndexId>(indices)};
        for (std::uint32_t row = outputs.begin; row < outputs.end; ++row)
            if (sets.indexSet(table[row].indices) == key)
                return table[row];
        return std::nullopt;
    }

    /** Derived residual of @p out's @p i-th query. */
    IndexSet
    residual(const OutputRef &out, std::size_t i) const
    {
        return sets.residual(out.indices, out.queries[i]);
    }
};

} // namespace

TEST(Pe, ReducesMatchingPair)
{
    // Query 0 = {1, 2}: item {1} on A, item {2} on B -> one reduce.
    Rig rig({{1, 2}});
    const RowRange out =
        rig.run({rig.item({1}, {0})}, {rig.item({2}, {0})});
    ASSERT_EQ(out.size(), 1u);
    const OutputRef reduced = rig.at(out, 0);
    EXPECT_EQ(reduced.action, PeAction::Reduce);
    EXPECT_EQ(rig.sets.indexSet(reduced.indices), IndexSet({1, 2}));
    ASSERT_EQ(reduced.queries.size(), 1u);
    EXPECT_TRUE(rig.residual(reduced, 0).empty());
}

TEST(Pe, ForwardsWhenNoMatch)
{
    // Query 0 = {1, 9}; B holds an unrelated query's item.
    Rig rig({{1, 9}, {5, 7}});
    const RowRange out =
        rig.run({rig.item({1}, {0})}, {rig.item({5}, {1})});
    ASSERT_EQ(out.size(), 2u);
    for (std::uint32_t k = 0; k < out.size(); ++k)
        EXPECT_EQ(rig.at(out, k).action, PeAction::Forward);
}

TEST(Pe, EmptySideForwardsEverything)
{
    // "In some cases only one of the inputs exists, which automatically
    // leads to a forward action" (Figure 6, PE (4|15)).
    Rig rig({{1, 9}, {2, 5}});
    const RowRange out =
        rig.run({rig.item({1}, {0}), rig.item({2}, {1})}, {});
    ASSERT_EQ(out.size(), 2u);
    for (std::uint32_t k = 0; k < out.size(); ++k)
        EXPECT_EQ(rig.at(out, k).action, PeAction::Forward);
}

TEST(Pe, SharedItemReducesAndForwards)
{
    // Figure 6 step 1: index 11's value reduces with 50 for query c but
    // must also forward for query a.
    // query a (0) = {11, 44}; query c (2) = {50, 11}.
    Rig rig({{11, 44}, {99}, {50, 11}});
    const RowRange out =
        rig.run({rig.item({50}, {2})}, {rig.item({11}, {0, 2})});
    // Expect: reduced {50,11} for query c; forwarded {11} for query a.
    const auto reduced = rig.find(out, {50, 11});
    ASSERT_TRUE(reduced.has_value());
    EXPECT_EQ(reduced->queries.size(), 1u);
    EXPECT_EQ(reduced->queries[0], 2u);

    const auto forwarded = rig.find(out, {11});
    ASSERT_TRUE(forwarded.has_value());
    ASSERT_EQ(forwarded->queries.size(), 1u);
    EXPECT_EQ(forwarded->queries[0], 0u);
    EXPECT_EQ(rig.residual(*forwarded, 0), IndexSet({44}));
}

TEST(Pe, MergeUnitDropsDuplicateOutputs)
{
    // The symmetric scan produces the reduced item from both sides; the
    // merge unit must emit it once.
    Rig rig({{1, 2}});
    PeActivity activity;
    const RowRange out =
        rig.run({rig.item({1}, {0})}, {rig.item({2}, {0})}, activity);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(activity.reduces, 1u);
}

TEST(Pe, MergeUnitConcatenatesHeaders)
{
    // Two queries both need {1} u {2}: same value, two residuals — the
    // merge unit concatenates the queries fields (Figure 6 step at
    // PE (2|3)).
    Rig rig({{1, 2, 7}, {1, 2, 9}});
    const RowRange out =
        rig.run({rig.item({1}, {0, 1})}, {rig.item({2}, {0, 1})});
    const auto merged = rig.find(out, {1, 2});
    ASSERT_TRUE(merged.has_value());
    ASSERT_EQ(merged->queries.size(), 2u);
    EXPECT_EQ(rig.residual(*merged, 0), IndexSet({7}));
    EXPECT_EQ(rig.residual(*merged, 1), IndexSet({9}));
}

TEST(Pe, SameSideMultiplicityPairsOnce)
{
    // Query 0 = {1, 2, 3}; A holds {1} and {2}, B holds {3}. Exactly one
    // of A's items may reduce with B's; the other must forward.
    Rig rig({{1, 2, 3}});
    const RowRange out = rig.run({rig.item({1}, {0}), rig.item({2}, {0})},
                                 {rig.item({3}, {0})});
    unsigned reduces = 0;
    unsigned forwards = 0;
    IndexSet covered;
    for (std::uint32_t k = 0; k < out.size(); ++k) {
        const OutputRef o = rig.at(out, k);
        if (o.action == PeAction::Reduce)
            ++reduces;
        else
            ++forwards;
        // Items of one query stay pairwise disjoint.
        const IndexSet indices = rig.sets.indexSet(o.indices);
        EXPECT_TRUE(covered.disjointWith(indices));
        covered = covered.disjointUnion(indices);
    }
    EXPECT_EQ(reduces, 1u);
    EXPECT_EQ(forwards, 1u);
    EXPECT_EQ(covered, IndexSet({1, 2, 3}));
}

TEST(Pe, ValuesAreSummedWhenPresent)
{
    Rig rig({{1, 2}}, /*values=*/true);
    Item a = rig.item({1}, {0});
    Item b = rig.item({2}, {0});
    a.value = {1.0f, 2.0f};
    b.value = {10.0f, 20.0f};
    const RowRange out = rig.run({a}, {b});
    ASSERT_EQ(out.size(), 1u);
    const Vector &sum = rig.table.value(out.begin);
    ASSERT_EQ(sum.size(), 2u);
    EXPECT_FLOAT_EQ(sum[0], 11.0f);
    EXPECT_FLOAT_EQ(sum[1], 22.0f);
}

TEST(Pe, HeaderOnlyTableCarriesNoValues)
{
    // Timing runs skip the arithmetic: leaf values are not even copied.
    Rig rig({{1, 2}, {3}});
    Item a = rig.item({1}, {0});
    a.value = {1.0f};
    Item b = rig.item({2}, {0});
    b.value = {2.0f};
    Item c = rig.item({3}, {1});
    c.value = {3.0f};
    const RowRange out = rig.run({a, c}, {b});
    ASSERT_EQ(out.size(), 2u);
    for (std::uint32_t row = 0; row < rig.table.size(); ++row)
        EXPECT_TRUE(rig.table.value(row).empty()) << "row " << row;
}

TEST(Pe, ActivityCountsCompares)
{
    Rig rig({{1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}});
    PeActivity activity;
    rig.run({rig.item({1}, {0}), rig.item({2}, {1})},
            {rig.item({3}, {2}), rig.item({4}, {3}), rig.item({5}, {4})},
            activity);
    EXPECT_EQ(activity.compares, 6u); // 2 x 3 fabric comparisons
}

TEST(Pe, OutputBoundFormula)
{
    EXPECT_EQ(ProcessingElement::outputBound(3, 4, 100), 19u); // nm+n+m
    EXPECT_EQ(ProcessingElement::outputBound(8, 8, 32), 32u);  // capped at B
}

TEST(Pe, PartialChainOverTwoLevels)
{
    // Level 1 reduces {1}+{2}; level 2 reads that output row in place and
    // reduces the partial with {3}.
    Rig rig({{1, 2, 3}});
    const RowRange l1 = rig.run({rig.item({1}, {0})}, {rig.item({2}, {0})});
    ASSERT_EQ(l1.size(), 1u);
    EXPECT_EQ(rig.residual(rig.at(l1, 0), 0), IndexSet({3}));

    const RowRange leaf = rig.table.addInputs(
        std::vector<Item>{rig.item({3}, {0})});
    PeActivity activity;
    const RowRange l2 = rig.run(l1, leaf, activity);
    ASSERT_EQ(l2.size(), 1u);
    const OutputRef root = rig.at(l2, 0);
    EXPECT_EQ(rig.sets.indexSet(root.indices), IndexSet({1, 2, 3}));
    EXPECT_TRUE(rig.residual(root, 0).empty());
    EXPECT_EQ(root.indices, rig.sets.querySet(0));
    // Its sources are positions within the parent's inputs.
    ASSERT_EQ(root.sources.size(), 2u);
    EXPECT_EQ(root.sources[0], (Provenance{0, 0}));
    EXPECT_EQ(root.sources[1], (Provenance{1, 0}));
}

TEST(Pe, OperandOutsideItsQueryFaults)
{
    // Query 0 = {1, 2}: an operand {3} on B is not wanted by it.
    Rig rig({{1, 2}, {3}});
    EXPECT_DEATH(rig.run({rig.item({1}, {0})}, {rig.item({3}, {0})}),
                 "not wanted by query set");
}

TEST(Pe, OverlappingOperandsFault)
{
    // Both sides carry vector 1 for query 0: reducing would count it
    // twice.
    Rig rig({{1, 2}});
    EXPECT_DEATH(rig.run({rig.item({1}, {0})}, {rig.item({1}, {0})}),
                 "overlap");
}

TEST(Item, HeaderBitsAccounting)
{
    // Residuals {3,4,5} (query 0) and {9} (query 1) of an item {1,2}.
    Rig rig({{1, 2, 3, 4, 5}, {1, 2, 9}});
    const Item item = rig.item({1, 2}, {0, 1});
    // 2 indices + 4 residual indices at 5 bits each.
    EXPECT_EQ(headerBits(rig.sets, item.indices,
                         {item.queries.data(), item.queries.size()}, 5),
              30u);
}

TEST(Item, ToStringReadable)
{
    Rig rig({{1}, {2}, {50, 11, 94, 26}});
    const Item item = rig.item({50, 11}, {2});
    const std::string s = item.toString(rig.sets);
    EXPECT_NE(s.find("{11,50}"), std::string::npos);
    EXPECT_NE(s.find("q2:{26,94}"), std::string::npos);
}
