/**
 * @file
 * Unit and property tests of the header algebra — IndexSet and the
 * per-batch interned IndexSetTable. The correctness of every PE decision
 * rests on these operations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "common/random.hh"
#include "fafnir/indexset.hh"

using namespace fafnir;
using namespace fafnir::core;

TEST(IndexSet, ConstructionNormalizes)
{
    const IndexSet s(std::vector<IndexId>{5, 1, 3, 1, 5});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(std::vector<IndexId>(s.begin(), s.end()),
              (std::vector<IndexId>{1, 3, 5}));
}

TEST(IndexSet, Contains)
{
    const IndexSet s{2, 4, 6};
    EXPECT_TRUE(s.contains(4));
    EXPECT_FALSE(s.contains(5));
    EXPECT_TRUE(s.containsAll(IndexSet{2, 6}));
    EXPECT_FALSE(s.containsAll(IndexSet{2, 5}));
    EXPECT_TRUE(s.containsAll(IndexSet{})); // empty subset of anything
}

TEST(IndexSet, Disjointness)
{
    EXPECT_TRUE(IndexSet({1, 3}).disjointWith(IndexSet{2, 4}));
    EXPECT_FALSE(IndexSet({1, 3}).disjointWith(IndexSet{3}));
    EXPECT_TRUE(IndexSet{}.disjointWith(IndexSet{1}));
}

TEST(IndexSet, DisjointUnionMerges)
{
    const IndexSet u = IndexSet({1, 5}).disjointUnion(IndexSet{2, 7});
    EXPECT_EQ(std::vector<IndexId>(u.begin(), u.end()),
              (std::vector<IndexId>{1, 2, 5, 7}));
}

TEST(IndexSet, DisjointUnionFaultsOnOverlap)
{
    EXPECT_DEATH(IndexSet({1, 2}).disjointUnion(IndexSet{2, 3}),
                 "disjointUnion");
}

TEST(IndexSet, Minus)
{
    const IndexSet d = IndexSet({1, 2, 3, 4}).minus(IndexSet{2, 4, 9});
    EXPECT_EQ(std::vector<IndexId>(d.begin(), d.end()),
              (std::vector<IndexId>{1, 3}));
    EXPECT_TRUE(IndexSet({1}).minus(IndexSet{1}).empty());
}

TEST(IndexSet, OrderingAndEquality)
{
    EXPECT_EQ(IndexSet({1, 2}), IndexSet({2, 1}));
    EXPECT_LT(IndexSet({1, 2}), IndexSet({1, 3}));
    EXPECT_LT(IndexSet({1}), IndexSet({1, 0xffffffff}));
}

TEST(IndexSet, ToString)
{
    EXPECT_EQ(IndexSet({3, 1}).toString(), "{1,3}");
    EXPECT_EQ(IndexSet{}.toString(), "{}");
}

/** Property sweep against std::set as the oracle. */
TEST(IndexSet, RandomizedAgainstStdSet)
{
    Rng rng(99);
    for (int round = 0; round < 300; ++round) {
        std::set<IndexId> sa, sb;
        std::vector<IndexId> va, vb;
        const unsigned na = 1 + rng.nextBelow(10);
        const unsigned nb = 1 + rng.nextBelow(10);
        for (unsigned i = 0; i < na; ++i) {
            const auto v = static_cast<IndexId>(rng.nextBelow(30));
            sa.insert(v);
            va.push_back(v);
        }
        for (unsigned i = 0; i < nb; ++i) {
            const auto v = static_cast<IndexId>(rng.nextBelow(30));
            sb.insert(v);
            vb.push_back(v);
        }
        const IndexSet a(va);
        const IndexSet b(vb);

        // contains / containsAll
        for (IndexId v = 0; v < 30; ++v)
            EXPECT_EQ(a.contains(v), sa.count(v) == 1);
        EXPECT_EQ(a.containsAll(b),
                  std::includes(sa.begin(), sa.end(), sb.begin(),
                                sb.end()));

        // disjointness
        bool overlap = false;
        for (IndexId v : sb)
            overlap |= sa.count(v) == 1;
        EXPECT_EQ(a.disjointWith(b), !overlap);

        // minus
        std::vector<IndexId> expect_minus;
        for (IndexId v : sa)
            if (!sb.count(v))
                expect_minus.push_back(v);
        {
            const IndexSet m = a.minus(b);
            EXPECT_EQ(std::vector<IndexId>(m.begin(), m.end()), expect_minus);
        }

        // union when disjoint
        if (!overlap) {
            std::set<IndexId> su = sa;
            su.insert(sb.begin(), sb.end());
            const std::vector<IndexId> expect_union(su.begin(), su.end());
            const IndexSet un = a.disjointUnion(b);
            EXPECT_EQ(std::vector<IndexId>(un.begin(), un.end()),
                      expect_union);
        }
    }
}

namespace
{

/** Intern @p indices (any order) into @p sets. */
SetId
internIndices(IndexSetTable &sets, std::vector<IndexId> indices)
{
    std::sort(indices.begin(), indices.end());
    std::vector<std::uint32_t> slots;
    for (IndexId index : indices)
        slots.push_back(sets.slotOf(index));
    return sets.intern(slots);
}

} // namespace

TEST(IndexSetTable, SlotsFollowIndexOrder)
{
    const IndexSetTable sets({3, 10, 42});
    EXPECT_EQ(sets.numSlots(), 3u);
    EXPECT_EQ(sets.slotOf(10), 1u);
    EXPECT_EQ(sets.indexOf(2), 42u);
    EXPECT_EQ(sets.size(IndexSetTable::kEmptySet), 0u);
    EXPECT_EQ(sets.indexSet(IndexSetTable::single(1)), IndexSet({10}));
    EXPECT_DEATH(sets.slotOf(11), "no slot");
}

TEST(IndexSetTable, InternsEachSetOnce)
{
    IndexSetTable sets({1, 2, 3, 4});
    const SetId a = internIndices(sets, {1, 3});
    EXPECT_EQ(internIndices(sets, {3, 1}), a);
    EXPECT_EQ(internIndices(sets, {2}), IndexSetTable::single(1));
    EXPECT_EQ(internIndices(sets, {}), IndexSetTable::kEmptySet);
    // Two union paths to {1,2,3} land on one id.
    const SetId left = sets.unite(a, internIndices(sets, {2}));
    const SetId right = sets.unite(internIndices(sets, {1, 2}),
                                   internIndices(sets, {3}));
    EXPECT_EQ(left, right);
    EXPECT_EQ(sets.indexSet(left), IndexSet({1, 2, 3}));
    const std::size_t before = sets.numSets();
    // A repeated union finds the interned set instead of adding one.
    EXPECT_EQ(sets.unite(internIndices(sets, {2}), a), left);
    EXPECT_EQ(sets.numSets(), before);
}

TEST(IndexSetTable, OverlapShowsInUnionSize)
{
    IndexSetTable sets({1, 2, 3});
    const SetId a = internIndices(sets, {1, 2});
    const SetId b = internIndices(sets, {2, 3});
    const SetId u = sets.unite(a, b);
    EXPECT_EQ(sets.indexSet(u), IndexSet({1, 2, 3}));
    EXPECT_NE(sets.size(u), sets.size(a) + sets.size(b));
    EXPECT_EQ(sets.unite(a, a), a);
}

TEST(IndexSetTable, QueriesAndDerivedResiduals)
{
    IndexSetTable sets({5, 9, 11, 44});
    const QueryId q = sets.addQuery(internIndices(sets, {11, 44, 5}));
    EXPECT_EQ(q, 0u);
    EXPECT_EQ(sets.numQueries(), 1u);
    const SetId item = internIndices(sets, {11});
    EXPECT_EQ(sets.residual(item, q), IndexSet({5, 44}));
    EXPECT_TRUE(sets.includes(sets.querySet(q), item));
    EXPECT_FALSE(sets.includes(item, sets.querySet(q)));
}

/** Property sweep: interned order, union and containment agree with
 *  IndexSet on random sets. */
TEST(IndexSetTable, RandomizedAgainstIndexSet)
{
    Rng rng(7);
    std::vector<IndexId> universe;
    for (IndexId i = 0; i < 40; ++i)
        universe.push_back(3 * i + 1);
    IndexSetTable sets(universe);
    auto draw = [&] {
        std::vector<IndexId> v;
        const unsigned n = rng.nextBelow(12);
        for (unsigned i = 0; i < n; ++i)
            v.push_back(universe[rng.nextBelow(universe.size())]);
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        return v;
    };
    for (int round = 0; round < 500; ++round) {
        const std::vector<IndexId> va = draw();
        const std::vector<IndexId> vb = draw();
        const IndexSet a(va);
        const IndexSet b(vb);
        const SetId sa = internIndices(sets, va);
        const SetId sb = internIndices(sets, vb);
        EXPECT_EQ(sets.indexSet(sa), a);
        EXPECT_EQ(sa == sb, a == b);
        EXPECT_EQ(sets.less(sa, sb), a < b);
        EXPECT_EQ(sets.includes(sa, sb), a.containsAll(b));
        const SetId u = sets.unite(sa, sb);
        EXPECT_EQ(sets.size(u) == sets.size(sa) + sets.size(sb),
                  a.disjointWith(b));
        if (a.disjointWith(b)) {
            EXPECT_EQ(sets.indexSet(u), a.disjointUnion(b));
        }
    }
}

namespace
{

/** A random sorted, distinct slot list of up to @p max_size slots below
 *  @p num_slots. */
std::vector<std::uint32_t>
drawSlots(Rng &rng, std::size_t num_slots, std::size_t max_size)
{
    std::vector<std::uint32_t> v;
    const std::size_t n = rng.nextBelow(max_size + 1);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<std::uint32_t>(rng.nextBelow(num_slots)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    return v;
}

std::vector<std::uint32_t>
slotsOf(const IndexSetTable &sets, SetId id)
{
    const auto s = sets.slots(id);
    return {s.begin(), s.end()};
}

} // namespace

/**
 * Differential test of the hashed union: unite(a, b) must be exactly
 * intern(set_union(a, b)) for disjoint and overlapping operands alike,
 * a repeated union must return the same id without adding a set, and
 * every new set must take the next id in creation order.
 */
TEST(IndexSetTable, UniteMatchesInternOfSetUnion)
{
    Rng rng(2024);
    constexpr std::size_t kSlots = 48;
    IndexSetTable sets(std::vector<IndexId>(
        [] {
            std::vector<IndexId> v(kSlots);
            for (std::size_t i = 0; i < kSlots; ++i)
                v[i] = static_cast<IndexId>(5 * i + 2);
            return v;
        }()));
    // Every set ever interned, with its id: the model of creation order.
    std::map<std::vector<std::uint32_t>, SetId> seen;
    auto remember = [&](const std::vector<std::uint32_t> &slots, SetId id) {
        if (slots.size() < 2)
            return;
        const auto [it, fresh] = seen.emplace(slots, id);
        EXPECT_EQ(it->second, id) << "a set changed its id";
        if (fresh) {
            EXPECT_EQ(id, sets.numSets() - 1)
                << "ids out of creation order";
        }
    };
    std::size_t overlapping = 0;
    std::size_t repeats = 0;
    for (int round = 0; round < 3000; ++round) {
        const auto va = drawSlots(rng, kSlots, 10);
        const auto vb = drawSlots(rng, kSlots, 10);
        const SetId a = sets.intern(va);
        remember(va, a);
        const SetId b = sets.intern(vb);
        remember(vb, b);

        std::vector<std::uint32_t> want;
        std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                       std::back_inserter(want));
        const bool disjoint = want.size() == va.size() + vb.size();
        overlapping += disjoint ? 0 : 1;
        const bool known = want.size() < 2 || seen.count(want) != 0;
        const std::size_t before = sets.numSets();
        const SetId u = sets.unite(a, b);
        EXPECT_EQ(slotsOf(sets, u), want) << "round " << round;
        EXPECT_EQ(sets.numSets(), before + (known ? 0 : 1));
        remember(want, u);
        EXPECT_EQ(sets.size(u) == sets.size(a) + sets.size(b), disjoint);

        // Intern of the same content, and the union again in either
        // operand order, find the same id and add nothing.
        const std::size_t after = sets.numSets();
        EXPECT_EQ(sets.intern(want), u);
        EXPECT_EQ(sets.unite(a, b), u);
        EXPECT_EQ(sets.unite(b, a), u);
        EXPECT_EQ(sets.numSets(), after);
        repeats += known ? 1 : 0;
    }
    // Both operand kinds and both outcomes were exercised.
    EXPECT_GT(overlapping, 500u);
    EXPECT_GT(repeats, 100u);
    EXPECT_GT(seen.size(), 1000u);
}

/**
 * A table over few slots, filled with every subset of two or more slots
 * so that distinct sets share buckets of the content index and it grows
 * several times; every set must stay findable by content and by union.
 */
TEST(IndexSetTable, GrowthKeepsEverySetFindable)
{
    constexpr std::uint32_t kSlots = 9;
    IndexSetTable sets({10, 11, 12, 13, 14, 15, 16, 17, 18});
    std::vector<std::pair<std::vector<std::uint32_t>, SetId>> all;
    for (std::uint32_t mask = 0; mask < (1u << kSlots); ++mask) {
        std::vector<std::uint32_t> slots;
        for (std::uint32_t s = 0; s < kSlots; ++s)
            if ((mask >> s & 1u) != 0)
                slots.push_back(s);
        if (slots.size() < 2)
            continue;
        const std::size_t before = sets.numSets();
        const SetId id = sets.intern(slots);
        EXPECT_EQ(id, before); // new content, next id
        all.emplace_back(std::move(slots), id);
    }
    ASSERT_EQ(all.size(), (1u << kSlots) - 1 - kSlots);
    const std::size_t total = sets.numSets();
    for (const auto &[slots, id] : all) {
        EXPECT_EQ(sets.intern(slots), id);
        EXPECT_EQ(slotsOf(sets, id), slots);
        // Split off the first slot: the disjoint union finds the set.
        const std::vector<std::uint32_t> rest(slots.begin() + 1,
                                              slots.end());
        EXPECT_EQ(sets.unite(IndexSetTable::single(slots[0]),
                             sets.intern(rest)),
                  id);
        // Overlapping operands: the set with one of its own slots.
        EXPECT_EQ(sets.unite(id, IndexSetTable::single(slots.back())), id);
    }
    EXPECT_EQ(sets.numSets(), total);
}

/** The merge unit's sort key agrees with less() wherever keys differ,
 *  and wants() with includes() on either side of the 64-query mask. */
TEST(IndexSetTable, SortKeyAndWantsAgreeWithSlotLists)
{
    Rng rng(99);
    constexpr std::size_t kSlots = 30;
    std::vector<IndexId> universe(kSlots);
    for (std::size_t i = 0; i < kSlots; ++i)
        universe[i] = static_cast<IndexId>(i);
    IndexSetTable sets(universe);
    for (int q = 0; q < 80; ++q)
        sets.addQuery(sets.intern(drawSlots(rng, kSlots, 12)));
    std::size_t key_ties = 0;
    for (int round = 0; round < 2000; ++round) {
        const SetId a = sets.intern(drawSlots(rng, kSlots, 6));
        const SetId b = sets.intern(drawSlots(rng, kSlots, 6));
        if (sets.sortKey(a) != sets.sortKey(b)) {
            EXPECT_EQ(sets.sortKey(a) < sets.sortKey(b), sets.less(a, b));
        } else {
            ++key_ties;
        }
        const auto q = static_cast<QueryId>(rng.nextBelow(80));
        EXPECT_EQ(sets.wants(q, a), sets.includes(sets.querySet(q), a))
            << "query " << q;
    }
    EXPECT_GT(key_ties, 0u);
}
