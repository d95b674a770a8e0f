/**
 * @file
 * Implementation of the per-batch interned index-set table.
 */

#include "indexset.hh"

namespace fafnir::core
{

namespace
{

constexpr std::uint64_t kGolden = UINT64_C(0x9E3779B97F4A7C15);

std::uint64_t
contentHash(std::span<const std::uint32_t> slots)
{
    std::uint64_t h = slots.size();
    for (std::uint32_t s : slots)
        h = (h ^ s) * kGolden;
    return h ^ (h >> 29);
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
    sets_.push_back({0, 0});
    for (std::uint32_t s = 0; s < n; ++s) {
        slots_[s] = s;
        sets_.push_back({s, 1});
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
    const std::size_t mask = byContent_.size() - 1;
    for (std::size_t b = contentHash(slots) & mask;; b = (b + 1) & mask) {
        const SetId have = byContent_[b];
        if (have == kEmptySet) {
            FAFNIR_ASSERT(std::adjacent_find(slots.begin(), slots.end(),
                                             [](std::uint32_t x,
                                                std::uint32_t y) {
                                                 return x >= y;
                                             }) == slots.end() &&
                              slots.back() < numSlots(),
                          "interned slots must be sorted, distinct and "
                          "in range");
            const auto id = static_cast<SetId>(sets_.size());
            sets_.push_back({static_cast<std::uint32_t>(slots_.size()),
                             static_cast<std::uint32_t>(slots.size())});
            slots_.insert(slots_.end(), slots.begin(), slots.end());
            byContent_[b] = id;
            ++contentCount_;
            return id;
        }
        const auto stored = this->slots(have);
        if (std::equal(stored.begin(), stored.end(), slots.begin(),
                       slots.end()))
            return have;
    }
}

SetId
IndexSetTable::unite(SetId a, SetId b)
{
    if (a == kEmptySet || a == b)
        return b;
    if (b == kEmptySet)
        return a;
    const auto sa = slots(a);
    const auto sb = slots(b);
    scratch_.clear();
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                   std::back_inserter(scratch_));
    return intern(scratch_);
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
        std::size_t b = contentHash(slots(id)) & mask;
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
