/**
 * @file
 * Implementation of the per-batch interned index-set table.
 */

#include "indexset.hh"

namespace fafnir::core
{

namespace
{

/** One slot's term of the additive content hash (splitmix64). */
std::uint64_t
slotHash(std::uint32_t slot)
{
    std::uint64_t z = (slot + UINT64_C(1)) * UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

std::uint64_t
contentHash(std::span<const std::uint32_t> slots)
{
    std::uint64_t h = 0;
    for (std::uint32_t s : slots)
        h += slotHash(s);
    return h;
}

std::size_t
bucketOf(std::uint64_t hash)
{
    return static_cast<std::size_t>(hash ^ (hash >> 32));
}

} // namespace

IndexSetTable::IndexSetTable(std::vector<IndexId> unique_indices)
    : indexOf_(std::move(unique_indices))
{
    FAFNIR_ASSERT(std::adjacent_find(indexOf_.begin(), indexOf_.end(),
                                     [](IndexId a, IndexId b) {
                                         return a >= b;
                                     }) == indexOf_.end(),
                  "slot indices must be strictly ascending");
    const auto n = static_cast<std::uint32_t>(indexOf_.size());
    slots_.resize(n);
    sets_.reserve(n + 1);
    sets_.push_back({0, 0, 0});
    for (std::uint32_t s = 0; s < n; ++s) {
        slots_[s] = s;
        sets_.push_back({s, 1, slotHash(s)});
    }
}

std::uint32_t
IndexSetTable::slotOf(IndexId index) const
{
    const auto it = std::lower_bound(indexOf_.begin(), indexOf_.end(), index);
    FAFNIR_ASSERT(it != indexOf_.end() && *it == index, "index ", index,
                  " has no slot in this batch");
    return static_cast<std::uint32_t>(it - indexOf_.begin());
}

template <typename Same>
std::size_t
IndexSetTable::findBucket(std::uint64_t hash, std::size_t size,
                          Same same) const
{
    const std::size_t mask = byContent_.size() - 1;
    for (std::size_t b = bucketOf(hash) & mask;; b = (b + 1) & mask) {
        const SetId have = byContent_[b];
        if (have == kEmptySet)
            return b;
        const Entry &e = sets_[have];
        if (e.hash == hash && e.size == size && same(have))
            return b;
    }
}

SetId
IndexSetTable::addSet(std::size_t bucket, std::uint32_t offset,
                      std::uint64_t hash)
{
    const auto id = static_cast<SetId>(sets_.size());
    sets_.push_back(
        {offset, static_cast<std::uint32_t>(slots_.size() - offset), hash});
    byContent_[bucket] = id;
    ++contentCount_;
    return id;
}

SetId
IndexSetTable::intern(std::span<const std::uint32_t> slots)
{
    if (slots.empty())
        return kEmptySet;
    if (slots.size() == 1) {
        FAFNIR_ASSERT(slots[0] < numSlots(), "slot out of range");
        return single(slots[0]);
    }
    if (2 * (contentCount_ + 1) > byContent_.size())
        growContent();
    const std::uint64_t hash = contentHash(slots);
    const std::size_t b =
        findBucket(hash, slots.size(), [&](SetId have) {
            const auto stored = this->slots(have);
            return std::equal(stored.begin(), stored.end(), slots.begin());
        });
    if (byContent_[b] != kEmptySet)
        return byContent_[b];
    FAFNIR_ASSERT(std::adjacent_find(slots.begin(), slots.end(),
                                     [](std::uint32_t x, std::uint32_t y) {
                                         return x >= y;
                                     }) == slots.end() &&
                      slots.back() < numSlots(),
                  "interned slots must be sorted, distinct and in range");
    const auto offset = static_cast<std::uint32_t>(slots_.size());
    slots_.insert(slots_.end(), slots.begin(), slots.end());
    return addSet(b, offset, hash);
}

SetId
IndexSetTable::unite(SetId a, SetId b)
{
    if (a == kEmptySet || a == b)
        return b;
    if (b == kEmptySet)
        return a;
    if (2 * (contentCount_ + 1) > byContent_.size())
        growContent();
    // Assume the operands are disjoint: the union is then the merge of
    // the two slot lists, with hash(a) + hash(b). A candidate with that
    // hash and size is the union exactly when walking it takes each
    // slot from whichever operand is next in order.
    const std::uint64_t hash = sets_[a].hash + sets_[b].hash;
    const std::size_t size = sets_[a].size + sets_[b].size;
    const std::size_t bucket = findBucket(hash, size, [&](SetId have) {
        const std::uint32_t *x = slots_.data() + sets_[a].offset;
        const std::uint32_t *x_end = x + sets_[a].size;
        const std::uint32_t *y = slots_.data() + sets_[b].offset;
        const std::uint32_t *y_end = y + sets_[b].size;
        for (const std::uint32_t s : slots(have)) {
            const bool from_x = x != x_end && (y == y_end || *x < *y);
            if (s != (from_x ? *x++ : *y++))
                return false;
        }
        return true;
    });
    if (byContent_[bucket] != kEmptySet)
        return byContent_[bucket];

    // A new set: merge straight into the slot store. Reserve first so
    // the operands' slot lists stay put while the merge appends.
    const auto offset = static_cast<std::uint32_t>(slots_.size());
    if (slots_.capacity() < slots_.size() + size)
        slots_.reserve(std::max(2 * slots_.capacity(), slots_.size() + size));
    const auto sa = slots(a);
    const auto sb = slots(b);
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::back_inserter(slots_));
    if (slots_.size() - offset == size)
        return addSet(bucket, offset, hash);

    // The operands overlap: the true union has its own content hash and
    // may be interned already.
    const std::vector<std::uint32_t> merged(slots_.begin() + offset,
                                            slots_.end());
    slots_.resize(offset);
    return intern(merged);
}

void
IndexSetTable::growContent()
{
    std::vector<SetId> old(std::max<std::size_t>(16, 2 * byContent_.size()),
                           kEmptySet);
    old.swap(byContent_);
    const std::size_t mask = byContent_.size() - 1;
    for (SetId id : old) {
        if (id == kEmptySet)
            continue;
        std::size_t b = bucketOf(sets_[id].hash) & mask;
        while (byContent_[b] != kEmptySet)
            b = (b + 1) & mask;
        byContent_[b] = id;
    }
}

IndexSet
IndexSetTable::indexSet(SetId id) const
{
    std::vector<IndexId> indices;
    for (std::uint32_t s : slots(id))
        indices.push_back(indexOf_[s]);
    return IndexSet(indices);
}

IndexSet
IndexSetTable::residual(SetId indices, QueryId q) const
{
    return indexSet(querySet(q)).minus(indexSet(indices));
}

} // namespace fafnir::core
