/**
 * @file
 * Functional PE implementation: compare, reduce/forward, merge.
 */

#include "pe.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"
#include "fafnir/pool.hh"

namespace fafnir::core
{

namespace
{

/** A copy of @p v, into recycled capacity when a pool is supplied. */
embedding::Vector
copyValue(const embedding::Vector &v, VectorPool *pool)
{
    if (pool == nullptr || v.empty())
        return v;
    embedding::Vector out = pool->acquire(v.size());
    std::copy(v.begin(), v.end(), out.begin());
    return out;
}

/** Element-wise combine used by the reduce path. */
embedding::Vector
addValues(const embedding::Vector &a, const embedding::Vector &b,
          embedding::ReduceOp op, VectorPool *pool)
{
    FAFNIR_ASSERT(a.size() == b.size(), "value dimension mismatch");
    embedding::Vector out = pool != nullptr ? pool->acquire(a.size())
                                            : embedding::Vector(a.size());
    embedding::combineSpan(op, out.data(), a.data(), b.data(), a.size());
    return out;
}

/** One compute-unit decision, before the merge unit. */
struct RawOutput
{
    SetId indices;
    QueryId query;
    PeAction action;
    /** Forward: {source}; reduce: {A operand, B operand}. */
    Provenance sources[2];
};

} // namespace

std::vector<PeOutput>
ProcessingElement::process(IndexSetTable &sets, const std::vector<Item> &a,
                           const std::vector<Item> &b, PeActivity &activity,
                           bool values, embedding::ReduceOp op,
                           VectorPool *pool,
                           embedding::PayloadFormat payload)
{
    const bool quantized = payload != embedding::PayloadFormat::Fp32;
    // The compute-unit fabric compares every entry of one buffer with every
    // entry of the other (Section IV-B).
    activity.compares += static_cast<std::uint64_t>(a.size()) * b.size();

    // Gather, per query, the buffer positions that carry it: a counting
    // sort over the batch's dense query ids, laid out per query as
    // [A positions | B positions], each in buffer order.
    const std::size_t num_queries = sets.numQueries();
    std::vector<std::uint32_t> count(2 * num_queries, 0);
    const std::vector<Item> *sides[2] = {&a, &b};
    for (unsigned side = 0; side < 2; ++side) {
        for (const Item &item : *sides[side]) {
            for (QueryId q : item.queries) {
                FAFNIR_ASSERT(q < num_queries, "query ", q,
                              " outside the batch");
                ++count[2 * q + side];
            }
        }
    }
    std::vector<std::uint32_t> cursor(2 * num_queries);
    std::uint32_t total = 0;
    for (std::size_t slot = 0; slot < cursor.size(); ++slot) {
        cursor[slot] = total;
        total += count[slot];
    }
    std::vector<std::uint16_t> positions(total);
    for (unsigned side = 0; side < 2; ++side) {
        const std::vector<Item> &items = *sides[side];
        for (std::size_t i = 0; i < items.size(); ++i)
            for (QueryId q : items[i].queries)
                positions[cursor[2 * q + side]++] =
                    static_cast<std::uint16_t>(i);
    }

    std::vector<RawOutput> raw;
    raw.reserve(total);
    const std::uint16_t *next = positions.data();
    for (QueryId q = 0; q < num_queries; ++q) {
        const std::uint16_t *in_a = next;
        const std::uint16_t *in_b = in_a + count[2 * q];
        const std::size_t n_a = count[2 * q];
        const std::size_t n_b = count[2 * q + 1];
        next = in_b + n_b;
        const std::size_t paired = std::min(n_a, n_b);

        for (std::size_t i = 0; i < paired; ++i) {
            const SetId left = a[in_a[i]].indices;
            const SetId right = b[in_b[i]].indices;
            const SetId merged = sets.unite(left, right);
            // Both operands are wanted by q exactly when they are
            // disjoint and their union lies inside q's set.
            FAFNIR_ASSERT(sets.size(merged) ==
                              sets.size(left) + sets.size(right),
                          "query ", q, ": operands ",
                          sets.indexSet(left).toString(), " and ",
                          sets.indexSet(right).toString(), " overlap");
            FAFNIR_ASSERT(sets.includes(sets.querySet(q), merged),
                          "query ", q, ": operands ",
                          sets.indexSet(merged).toString(),
                          " not wanted by query set ",
                          sets.indexSet(sets.querySet(q)).toString());
            // Meeting-logic codec work under a compressed payload:
            // dequantize both operands, accumulate in fp32, and
            // requantize the partial for the uplink. Counted per
            // meeting whether or not this run materializes values —
            // the values themselves stay the exact fp32 combines; the
            // leaf round-trip already fixed every operand
            // (quantize.hh), so these counters drive only the
            // byte/energy model.
            if (quantized) {
                activity.dequants += 2;
                activity.requants += 1;
            }
            raw.push_back({merged, q, PeAction::Reduce,
                           {{0, in_a[i]}, {1, in_b[i]}}});
            ++activity.reduces;
        }
        for (std::size_t i = paired; i < n_a; ++i) {
            raw.push_back({a[in_a[i]].indices, q, PeAction::Forward,
                           {{0, in_a[i]}, {}}});
            ++activity.forwards;
        }
        for (std::size_t i = paired; i < n_b; ++i) {
            raw.push_back({b[in_b[i]].indices, q, PeAction::Forward,
                           {{1, in_b[i]}, {}}});
            ++activity.forwards;
        }
    }

    // Merge unit: group by indices set, in set order. Equal indices imply
    // the same value (a value is a pure function of the vectors it sums),
    // so the first raw output of a set supplies the value and later ones
    // only contribute queries and sources; a repeated query is a
    // duplicate, since its residual is derived from (query, indices).
    std::vector<std::uint32_t> order(raw.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t i, std::uint32_t j) {
                  const SetId si = raw[i].indices;
                  const SetId sj = raw[j].indices;
                  return si == sj ? i < j : sets.less(si, sj);
              });

    std::vector<PeOutput> outputs;
    for (std::size_t k = 0; k < order.size();) {
        const RawOutput &first = raw[order[k]];
        const bool reduce = first.action == PeAction::Reduce;
        PeOutput out;
        out.item.indices = first.indices;
        out.item.queries.push_back(first.query);
        out.action = first.action;
        out.sources.push_back(first.sources[0]);
        if (reduce)
            out.sources.push_back(first.sources[1]);

        std::size_t j = k + 1;
        for (; j < order.size() && raw[order[j]].indices == first.indices;
             ++j) {
            const RawOutput &dup = raw[order[j]];
            if (out.item.hasQuery(dup.query)) {
                ++activity.duplicatesDropped;
            } else {
                out.item.queries.push_back(dup.query);
                ++activity.headersMerged;
            }
            const std::size_t n_src =
                dup.action == PeAction::Reduce ? 2 : 1;
            for (std::size_t s = 0; s < n_src; ++s) {
                if (std::find(out.sources.begin(), out.sources.end(),
                              dup.sources[s]) == out.sources.end())
                    out.sources.push_back(dup.sources[s]);
            }
            if (dup.action == PeAction::Reduce)
                out.action = PeAction::Reduce;
        }

        if (reduce) {
            const Item &left = a[first.sources[0].index];
            const Item &right = b[first.sources[1].index];
            if (values && !left.value.empty()) {
                out.item.value =
                    addValues(left.value, right.value, op, pool);
            }
        } else {
            const Provenance src = first.sources[0];
            out.item.value =
                copyValue((*sides[src.side])[src.index].value, pool);
        }
        outputs.push_back(std::move(out));
        k = j;
    }
    return outputs;
}

} // namespace fafnir::core
