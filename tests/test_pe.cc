/**
 * @file
 * Unit tests of the processing element: compare/reduce/forward decisions,
 * the merge unit's dedup and header concatenation, pairing under
 * same-side multiplicity, and activity accounting — including the
 * concrete PE steps of the paper's Figure 6 walkthrough.
 */

#include <gtest/gtest.h>

#include "fafnir/pe.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

/**
 * The index space of one test batch: query q's full set is queries[q],
 * interned over one slot per index the queries mention. An item's
 * residual for q is derived as queries[q] minus the item's indices.
 */
struct Rig
{
    IndexSetTable sets;

    explicit Rig(const std::vector<std::vector<IndexId>> &queries)
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

    std::vector<PeOutput>
    run(const std::vector<Item> &a, const std::vector<Item> &b)
    {
        PeActivity activity;
        return ProcessingElement::process(sets, a, b, activity,
                                          /*values=*/false);
    }

    const Item *
    find(const std::vector<PeOutput> &outputs,
         std::initializer_list<IndexId> indices) const
    {
        const IndexSet key{std::vector<IndexId>(indices)};
        for (const auto &out : outputs)
            if (sets.indexSet(out.item.indices) == key)
                return &out.item;
        return nullptr;
    }

    /** Derived residual of @p item's @p i-th query. */
    IndexSet
    residual(const Item &item, std::size_t i) const
    {
        return sets.residual(item.indices, item.queries[i]);
    }
};

} // namespace

TEST(Pe, ReducesMatchingPair)
{
    // Query 0 = {1, 2}: item {1} on A, item {2} on B -> one reduce.
    Rig rig({{1, 2}});
    const auto out = rig.run({rig.item({1}, {0})}, {rig.item({2}, {0})});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].action, PeAction::Reduce);
    EXPECT_EQ(rig.sets.indexSet(out[0].item.indices), IndexSet({1, 2}));
    ASSERT_EQ(out[0].item.queries.size(), 1u);
    EXPECT_TRUE(rig.residual(out[0].item, 0).empty());
}

TEST(Pe, ForwardsWhenNoMatch)
{
    // Query 0 = {1, 9}; B holds an unrelated query's item.
    Rig rig({{1, 9}, {5, 7}});
    const auto out = rig.run({rig.item({1}, {0})}, {rig.item({5}, {1})});
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out)
        EXPECT_EQ(o.action, PeAction::Forward);
}

TEST(Pe, EmptySideForwardsEverything)
{
    // "In some cases only one of the inputs exists, which automatically
    // leads to a forward action" (Figure 6, PE (4|15)).
    Rig rig({{1, 9}, {2, 5}});
    const auto out = rig.run({rig.item({1}, {0}), rig.item({2}, {1})}, {});
    ASSERT_EQ(out.size(), 2u);
    for (const auto &o : out)
        EXPECT_EQ(o.action, PeAction::Forward);
}

TEST(Pe, SharedItemReducesAndForwards)
{
    // Figure 6 step 1: index 11's value reduces with 50 for query c but
    // must also forward for query a.
    // query a (0) = {11, 44}; query c (2) = {50, 11}.
    Rig rig({{11, 44}, {99}, {50, 11}});
    const auto out =
        rig.run({rig.item({50}, {2})}, {rig.item({11}, {0, 2})});
    // Expect: reduced {50,11} for query c; forwarded {11} for query a.
    const Item *reduced = rig.find(out, {50, 11});
    ASSERT_NE(reduced, nullptr);
    EXPECT_EQ(reduced->queries.size(), 1u);
    EXPECT_EQ(reduced->queries[0], 2u);

    const Item *forwarded = rig.find(out, {11});
    ASSERT_NE(forwarded, nullptr);
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
    const auto out = ProcessingElement::process(
        rig.sets, {rig.item({1}, {0})}, {rig.item({2}, {0})}, activity,
        false);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(activity.reduces, 1u);
}

TEST(Pe, MergeUnitConcatenatesHeaders)
{
    // Two queries both need {1} u {2}: same value, two residuals — the
    // merge unit concatenates the queries fields (Figure 6 step at
    // PE (2|3)).
    Rig rig({{1, 2, 7}, {1, 2, 9}});
    const auto out =
        rig.run({rig.item({1}, {0, 1})}, {rig.item({2}, {0, 1})});
    const Item *merged = rig.find(out, {1, 2});
    ASSERT_NE(merged, nullptr);
    ASSERT_EQ(merged->queries.size(), 2u);
    EXPECT_EQ(rig.residual(*merged, 0), IndexSet({7}));
    EXPECT_EQ(rig.residual(*merged, 1), IndexSet({9}));
}

TEST(Pe, SameSideMultiplicityPairsOnce)
{
    // Query 0 = {1, 2, 3}; A holds {1} and {2}, B holds {3}. Exactly one
    // of A's items may reduce with B's; the other must forward.
    Rig rig({{1, 2, 3}});
    const auto out = rig.run({rig.item({1}, {0}), rig.item({2}, {0})},
                             {rig.item({3}, {0})});
    unsigned reduces = 0;
    unsigned forwards = 0;
    IndexSet covered;
    for (const auto &o : out) {
        if (o.action == PeAction::Reduce)
            ++reduces;
        else
            ++forwards;
        // Items of one query stay pairwise disjoint.
        const IndexSet indices = rig.sets.indexSet(o.item.indices);
        EXPECT_TRUE(covered.disjointWith(indices));
        covered = covered.disjointUnion(indices);
    }
    EXPECT_EQ(reduces, 1u);
    EXPECT_EQ(forwards, 1u);
    EXPECT_EQ(covered, IndexSet({1, 2, 3}));
}

TEST(Pe, ValuesAreSummedWhenPresent)
{
    Rig rig({{1, 2}});
    Item a = rig.item({1}, {0});
    Item b = rig.item({2}, {0});
    a.value = {1.0f, 2.0f};
    b.value = {10.0f, 20.0f};
    PeActivity activity;
    const auto out = ProcessingElement::process(rig.sets, {a}, {b},
                                                activity, /*values=*/true);
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].item.value.size(), 2u);
    EXPECT_FLOAT_EQ(out[0].item.value[0], 11.0f);
    EXPECT_FLOAT_EQ(out[0].item.value[1], 22.0f);
}

TEST(Pe, ActivityCountsCompares)
{
    Rig rig({{1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}});
    PeActivity activity;
    ProcessingElement::process(
        rig.sets, {rig.item({1}, {0}), rig.item({2}, {1})},
        {rig.item({3}, {2}), rig.item({4}, {3}), rig.item({5}, {4})},
        activity, false);
    EXPECT_EQ(activity.compares, 6u); // 2 x 3 fabric comparisons
}

TEST(Pe, OutputBoundFormula)
{
    EXPECT_EQ(ProcessingElement::outputBound(3, 4, 100), 19u); // nm+n+m
    EXPECT_EQ(ProcessingElement::outputBound(8, 8, 32), 32u);  // capped at B
}

TEST(Pe, PartialChainOverTwoLevels)
{
    // Level 1 reduces {1}+{2}; level 2 reduces the partial with {3}.
    Rig rig({{1, 2, 3}});
    const auto l1 = rig.run({rig.item({1}, {0})}, {rig.item({2}, {0})});
    ASSERT_EQ(l1.size(), 1u);
    EXPECT_EQ(rig.residual(l1[0].item, 0), IndexSet({3}));

    const auto l2 = rig.run({l1[0].item}, {rig.item({3}, {0})});
    ASSERT_EQ(l2.size(), 1u);
    EXPECT_EQ(rig.sets.indexSet(l2[0].item.indices), IndexSet({1, 2, 3}));
    EXPECT_TRUE(rig.residual(l2[0].item, 0).empty());
    EXPECT_EQ(l2[0].item.indices, rig.sets.querySet(0));
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
    EXPECT_EQ(item.headerBits(rig.sets, 5), 30u);
}

TEST(Item, ToStringReadable)
{
    Rig rig({{1}, {2}, {50, 11, 94, 26}});
    const Item item = rig.item({50, 11}, {2});
    const std::string s = item.toString(rig.sets);
    EXPECT_NE(s.find("{11,50}"), std::string::npos);
    EXPECT_NE(s.find("q2:{26,94}"), std::string::npos);
}
