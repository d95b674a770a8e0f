/**
 * @file
 * Index sets — the value domain of Fafnir headers.
 *
 * The `indices` field of a flit header (Section IV-B of the paper) is a
 * set of embedding-vector indices, and every residual in its `queries`
 * field is one too. Two representations live here:
 *
 *  - IndexSet: a sorted small vector of IndexIds. It is the readable,
 *    self-contained form used at the edges (debug strings, tests, the
 *    reference tree evaluator under tests/).
 *  - IndexSetTable: the per-batch interned form the tree runs on. Prepare
 *    gives each unique index of a batch a dense slot, in ascending
 *    IndexId order, and a set becomes a 32-bit SetId naming one sorted
 *    slot list in the table. Each distinct set is stored once with its
 *    size and an additive content hash (the sum of a 64-bit mix of each
 *    slot), so equality is an id compare, size is O(1), and the hash of
 *    a disjoint union is the sum of its operands' hashes: unite() probes
 *    the content index without touching a slot list unless a candidate's
 *    hash and size match. Slots preserve IndexId order, so lexicographic
 *    order on slot lists equals IndexSet order.
 *
 * The table also holds the batch's full query sets. A residual is not
 * stored anywhere: for an item that sums `indices` and still serves query
 * q, the residual is querySet(q) \ indices.
 */

#ifndef FAFNIR_FAFNIR_INDEXSET_HH
#define FAFNIR_FAFNIR_INDEXSET_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/smallvec.hh"
#include "common/types.hh"

namespace fafnir::core
{

/** An immutable-ish sorted set of embedding-vector indices. */
class IndexSet
{
  public:
    /**
     * Inline storage: most sets are a handful of indices, so eight
     * inline slots cover the common case without a heap allocation.
     */
    using Storage = SmallVec<IndexId, 8>;

    IndexSet() = default;

    IndexSet(std::initializer_list<IndexId> init)
        : items_(init)
    {
        normalize();
    }

    /** Build from an arbitrary vector (sorted + deduplicated). */
    explicit IndexSet(const std::vector<IndexId> &items)
    {
        items_.reserve(items.size());
        for (IndexId index : items)
            items_.push_back(index);
        normalize();
    }

    /** A singleton set. */
    static IndexSet
    single(IndexId index)
    {
        IndexSet s;
        s.items_.push_back(index);
        return s;
    }

    bool empty() const { return items_.empty(); }
    std::size_t size() const { return items_.size(); }

    auto begin() const { return items_.begin(); }
    auto end() const { return items_.end(); }
    const Storage &items() const { return items_; }

    bool
    contains(IndexId index) const
    {
        return std::binary_search(items_.begin(), items_.end(), index);
    }

    /** True if every element of @p other is in this set. */
    bool
    containsAll(const IndexSet &other) const
    {
        return std::includes(items_.begin(), items_.end(),
                             other.items_.begin(), other.items_.end());
    }

    bool
    disjointWith(const IndexSet &other) const
    {
        auto a = items_.begin();
        auto b = other.items_.begin();
        while (a != items_.end() && b != other.items_.end()) {
            if (*a < *b)
                ++a;
            else if (*b < *a)
                ++b;
            else
                return false;
        }
        return true;
    }

    /** Set union; faults if the operands overlap (reduction must not
     *  double-count a vector). */
    IndexSet
    disjointUnion(const IndexSet &other) const
    {
        FAFNIR_ASSERT(disjointWith(other),
                      "disjointUnion on overlapping sets");
        IndexSet result;
        result.items_.resize(items_.size() + other.items_.size());
        std::merge(items_.begin(), items_.end(), other.items_.begin(),
                   other.items_.end(), result.items_.begin());
        return result;
    }

    /** Elements of this set not in @p other. */
    IndexSet
    minus(const IndexSet &other) const
    {
        IndexSet result;
        std::set_difference(items_.begin(), items_.end(),
                            other.items_.begin(), other.items_.end(),
                            std::back_inserter(result.items_));
        return result;
    }

    bool operator==(const IndexSet &other) const = default;

    /** Lexicographic order, usable as a map key. */
    bool
    operator<(const IndexSet &other) const
    {
        return items_ < other.items_;
    }

    std::string
    toString() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                s += ',';
            s += std::to_string(items_[i]);
        }
        return s + "}";
    }

  private:
    void
    normalize()
    {
        std::sort(items_.begin(), items_.end());
        items_.erase(std::unique(items_.begin(), items_.end()),
                     items_.end());
    }

    Storage items_;
};

/** Id of an interned index set within one batch's IndexSetTable. */
using SetId = std::uint32_t;

/**
 * The interned index sets of one batch.
 *
 * Ids are dense: 0 is the empty set, 1..numSlots() are the singletons
 * of slots 0..numSlots()-1, and every later id is a set of two or more
 * slots interned by content. Ids depend on creation order; set order
 * and equality do not.
 */
class IndexSetTable
{
  public:
    static constexpr SetId kEmptySet = 0;

    IndexSetTable() : IndexSetTable(std::vector<IndexId>{}) {}

    /**
     * A table over @p unique_indices (strictly ascending): slot s is the
     * s-th smallest index, and its singleton is pre-interned.
     */
    explicit IndexSetTable(std::vector<IndexId> unique_indices);

    std::size_t numSlots() const { return indexOf_.size(); }
    IndexId indexOf(std::uint32_t slot) const { return indexOf_[slot]; }
    /** Slot of @p index; faults if the batch does not reference it. */
    std::uint32_t slotOf(IndexId index) const;

    /** The singleton {slot}. */
    static SetId single(std::uint32_t slot) { return slot + 1; }

    /**
     * Id of the set with sorted, distinct slots @p slots (interned on
     * first sight). @p slots must not point into this table.
     */
    SetId intern(std::span<const std::uint32_t> slots);

    /**
     * Id of a ∪ b. The additive hash of a disjoint union is
     * hash(a) + hash(b), so a union formed before is found in O(1) plus
     * one walk of the candidate against the two operands; a new one is
     * merged straight into the table. Overlapping operands give the true
     * union, so size(unite(a, b)) == size(a) + size(b) is the O(1) test
     * that they were disjoint.
     */
    SetId unite(SetId a, SetId b);

    std::span<const std::uint32_t>
    slots(SetId id) const
    {
        const Entry &e = sets_[id];
        return {slots_.data() + e.offset, e.size};
    }

    std::size_t size(SetId id) const { return sets_[id].size; }
    std::size_t numSets() const { return sets_.size(); }

    /** Lexicographic order on slot lists (== IndexSet order). */
    bool
    less(SetId a, SetId b) const
    {
        const auto sa = slots(a);
        const auto sb = slots(b);
        return std::lexicographical_compare(sa.begin(), sa.end(),
                                            sb.begin(), sb.end());
    }

    /**
     * The first two slots of @p id, each plus one so that a missing slot
     * sorts first, packed high to low. Where the keys of two sets differ
     * they order the sets exactly as less() does; equal keys leave the
     * order to less().
     */
    std::uint64_t
    sortKey(SetId id) const
    {
        const Entry &e = sets_[id];
        const std::uint64_t first = e.size > 0 ? slots_[e.offset] + 1u : 0;
        const std::uint64_t second =
            e.size > 1 ? slots_[e.offset + 1] + 1u : 0;
        return first << 32 | second;
    }

    /** True if every slot of @p inner is in @p outer. */
    bool
    includes(SetId outer, SetId inner) const
    {
        const auto so = slots(outer);
        const auto si = slots(inner);
        return std::includes(so.begin(), so.end(), si.begin(), si.end());
    }

    /** Register the next query's full set; returns its QueryId. */
    QueryId
    addQuery(SetId set)
    {
        const auto q = static_cast<QueryId>(queries_.size());
        queries_.push_back(set);
        if (q < kMaskedQueries) {
            if (users_.empty())
                users_.assign(numSlots(), 0);
            for (std::uint32_t s : slots(set))
                users_[s] |= std::uint64_t{1} << q;
        }
        return q;
    }

    /**
     * True if every slot of @p set is in querySet(@p q): the same test
     * as includes(querySet(q), set), read for the first 64 queries from
     * a per-slot mask of the queries that use the slot.
     */
    bool
    wants(QueryId q, SetId set) const
    {
        if (q >= kMaskedQueries)
            return includes(querySet(q), set);
        std::uint64_t all = ~std::uint64_t{0};
        for (std::uint32_t s : slots(set))
            all &= users_[s];
        return (all >> q & 1u) != 0;
    }

    std::size_t numQueries() const { return queries_.size(); }
    SetId querySet(QueryId q) const { return queries_[q]; }

    /** @p id as embedding-vector indices. */
    IndexSet indexSet(SetId id) const;

    /**
     * The residual of query @p q for an item summing @p indices:
     * querySet(q) \ indices, as embedding-vector indices.
     */
    IndexSet residual(SetId indices, QueryId q) const;

  private:
    struct Entry
    {
        std::uint32_t offset;
        std::uint32_t size;
        /** Sum of slotHash() over the slots. */
        std::uint64_t hash;
    };

    /**
     * Bucket of the content index holding a set of @p size slots with
     * content hash @p hash for which @p same holds, or else the empty
     * bucket where such a set would go.
     */
    template <typename Same>
    std::size_t findBucket(std::uint64_t hash, std::size_t size,
                           Same same) const;
    /** Intern slots_[offset..] (just appended) as a new set. */
    SetId addSet(std::size_t bucket, std::uint32_t offset,
                 std::uint64_t hash);
    /** Double the content index, re-placing sets by their stored
     *  hashes. */
    void growContent();

    std::vector<IndexId> indexOf_;
    /** Slot lists of every set, back to back. */
    std::vector<std::uint32_t> slots_;
    std::vector<Entry> sets_;
    /** Open-addressing content index of the sets of size >= 2. */
    std::vector<SetId> byContent_;
    std::size_t contentCount_ = 0;
    std::vector<SetId> queries_;
    /** Queries tracked in users_. */
    static constexpr QueryId kMaskedQueries = 64;
    /** Per slot: bit q set when querySet(q) holds the slot (q < 64). */
    std::vector<std::uint64_t> users_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_INDEXSET_HH
