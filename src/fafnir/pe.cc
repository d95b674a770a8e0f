/**
 * @file
 * Functional PE implementation: compare, reduce/forward, merge.
 */

#include "pe.hh"

#include <algorithm>

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

} // namespace

void
OutputTable::addInput(const Item &item, VectorPool *pool)
{
    const auto queries = static_cast<std::uint32_t>(queryIds_.size());
    queryIds_.insert(queryIds_.end(), item.queries.begin(),
                     item.queries.end());
    const auto sources = static_cast<std::uint32_t>(sources_.size());
    rows_.push_back({item.indices, PeAction::Forward, queries,
                     static_cast<std::uint32_t>(queryIds_.size()), sources,
                     sources});
    if (withValues_)
        values_.push_back(copyValue(item.value, pool));
}

RowRange
OutputTable::addInputs(std::span<const Item> items, VectorPool *pool)
{
    RowRange range{static_cast<std::uint32_t>(rows_.size()), 0};
    for (const Item &item : items)
        addInput(item, pool);
    range.end = static_cast<std::uint32_t>(rows_.size());
    return range;
}

void
OutputTable::releaseValues(RowRange range, VectorPool &pool)
{
    if (!withValues_)
        return;
    for (std::uint32_t row = range.begin; row < range.end; ++row)
        pool.release(std::move(values_[row]));
}

void
OutputTable::truncate(std::uint32_t row, VectorPool &pool)
{
    if (row >= rows_.size())
        return;
    releaseValues({row, static_cast<std::uint32_t>(rows_.size())}, pool);
    queryIds_.resize(rows_[row].queryBegin);
    sources_.resize(rows_[row].sourceBegin);
    rows_.resize(row);
    if (withValues_)
        values_.resize(row);
}

RowRange
ProcessingElement::process(IndexSetTable &sets, OutputTable &table,
                           RowRange a, RowRange b, PeActivity &activity,
                           embedding::ReduceOp op, VectorPool *pool,
                           embedding::PayloadFormat payload)
{
    const bool quantized = payload != embedding::PayloadFormat::Fp32;
    // The compute-unit fabric compares every entry of one buffer with every
    // entry of the other (Section IV-B).
    activity.compares += static_cast<std::uint64_t>(a.size()) * b.size();

    // Gather, per query, the buffer positions that carry it: a counting
    // sort over the batch's dense query ids, laid out per query as
    // [A positions | B positions], each in buffer order.
    const std::vector<OutputTable::Row> &rows = table.rows_;
    const std::vector<QueryId> &query_ids = table.queryIds_;
    const std::size_t num_queries = sets.numQueries();
    count_.assign(2 * num_queries, 0);
    const RowRange sides[2] = {a, b};
    for (unsigned side = 0; side < 2; ++side) {
        for (std::uint32_t r = sides[side].begin; r < sides[side].end; ++r) {
            for (std::uint32_t i = rows[r].queryBegin; i < rows[r].queryEnd;
                 ++i) {
                const QueryId q = query_ids[i];
                FAFNIR_ASSERT(q < num_queries, "query ", q,
                              " outside the batch");
                ++count_[2 * q + side];
            }
        }
    }
    cursor_.resize(2 * num_queries);
    std::uint32_t total = 0;
    for (std::size_t slot = 0; slot < cursor_.size(); ++slot) {
        cursor_[slot] = total;
        total += count_[slot];
    }
    positions_.resize(total);
    for (unsigned side = 0; side < 2; ++side) {
        const RowRange in = sides[side];
        for (std::uint32_t r = in.begin; r < in.end; ++r)
            for (std::uint32_t i = rows[r].queryBegin; i < rows[r].queryEnd;
                 ++i)
                positions_[cursor_[2 * query_ids[i] + side]++] =
                    static_cast<std::uint16_t>(r - in.begin);
    }

    raw_.clear();
    const std::uint16_t *next = positions_.data();
    for (QueryId q = 0; q < num_queries; ++q) {
        const std::uint16_t *in_a = next;
        const std::uint16_t *in_b = in_a + count_[2 * q];
        const std::size_t n_a = count_[2 * q];
        const std::size_t n_b = count_[2 * q + 1];
        next = in_b + n_b;
        const std::size_t paired = std::min(n_a, n_b);

        for (std::size_t i = 0; i < paired; ++i) {
            const SetId left = rows[a.begin + in_a[i]].indices;
            const SetId right = rows[b.begin + in_b[i]].indices;
            const SetId merged = sets.unite(left, right);
            // Both operands are wanted by q exactly when they are
            // disjoint and their union lies inside q's set.
            FAFNIR_ASSERT(sets.size(merged) ==
                              sets.size(left) + sets.size(right),
                          "query ", q, ": operands ",
                          sets.indexSet(left).toString(), " and ",
                          sets.indexSet(right).toString(), " overlap");
            FAFNIR_ASSERT(sets.wants(q, merged),
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
            raw_.push_back({merged, q, PeAction::Reduce,
                            {{0, in_a[i]}, {1, in_b[i]}}});
            ++activity.reduces;
        }
        for (std::size_t i = paired; i < n_a; ++i) {
            raw_.push_back({rows[a.begin + in_a[i]].indices, q,
                            PeAction::Forward, {{0, in_a[i]}, {}}});
            ++activity.forwards;
        }
        for (std::size_t i = paired; i < n_b; ++i) {
            raw_.push_back({rows[b.begin + in_b[i]].indices, q,
                            PeAction::Forward, {{1, in_b[i]}, {}}});
            ++activity.forwards;
        }
    }

    // Merge unit: group by indices set, in set order. Equal indices imply
    // the same value (a value is a pure function of the vectors it sums),
    // so the first raw output of a set supplies the value and later ones
    // only contribute queries and sources; a repeated query is a
    // duplicate, since its residual is derived from (query, indices).
    // The sort runs on (key, raw position) alone; a run of equal keys
    // holding more than one set is then put in full set order.
    order_.clear();
    for (std::uint32_t i = 0; i < raw_.size(); ++i)
        order_.push_back({sets.sortKey(raw_[i].indices), i});
    std::sort(order_.begin(), order_.end(),
              [](const SortEntry &x, const SortEntry &y) {
                  return x.key != y.key ? x.key < y.key : x.raw < y.raw;
              });
    for (auto run = order_.begin(); run != order_.end();) {
        const SetId head = raw_[run->raw].indices;
        bool mixed = false;
        auto run_end = run + 1;
        for (; run_end != order_.end() && run_end->key == run->key;
             ++run_end)
            mixed |= raw_[run_end->raw].indices != head;
        if (mixed) {
            std::sort(run, run_end,
                      [&](const SortEntry &x, const SortEntry &y) {
                          const SetId sx = raw_[x.raw].indices;
                          const SetId sy = raw_[y.raw].indices;
                          return sx == sy ? x.raw < y.raw
                                          : sets.less(sx, sy);
                      });
        }
        run = run_end;
    }

    std::vector<OutputTable::Row> &out_rows = table.rows_;
    std::vector<QueryId> &out_queries = table.queryIds_;
    std::vector<Provenance> &out_sources = table.sources_;
    RowRange produced{static_cast<std::uint32_t>(out_rows.size()), 0};
    for (std::size_t k = 0; k < order_.size();) {
        const RawOutput &first = raw_[order_[k].raw];
        const bool reduce = first.action == PeAction::Reduce;
        OutputTable::Row row{first.indices,
                             first.action,
                             static_cast<std::uint32_t>(out_queries.size()),
                             0,
                             static_cast<std::uint32_t>(out_sources.size()),
                             0};
        out_queries.push_back(first.query);
        out_sources.push_back(first.sources[0]);
        if (reduce)
            out_sources.push_back(first.sources[1]);

        std::size_t j = k + 1;
        for (; j < order_.size() &&
               raw_[order_[j].raw].indices == first.indices;
             ++j) {
            const RawOutput &dup = raw_[order_[j].raw];
            const auto queries_begin = out_queries.begin() + row.queryBegin;
            if (std::find(queries_begin, out_queries.end(), dup.query) !=
                out_queries.end()) {
                ++activity.duplicatesDropped;
            } else {
                out_queries.push_back(dup.query);
                ++activity.headersMerged;
            }
            const std::size_t n_src =
                dup.action == PeAction::Reduce ? 2 : 1;
            for (std::size_t s = 0; s < n_src; ++s) {
                const auto sources_begin =
                    out_sources.begin() + row.sourceBegin;
                if (std::find(sources_begin, out_sources.end(),
                              dup.sources[s]) == out_sources.end())
                    out_sources.push_back(dup.sources[s]);
            }
            if (dup.action == PeAction::Reduce)
                row.action = PeAction::Reduce;
        }
        row.queryEnd = static_cast<std::uint32_t>(out_queries.size());
        row.sourceEnd = static_cast<std::uint32_t>(out_sources.size());
        out_rows.push_back(row);

        if (table.withValues_) {
            std::vector<embedding::Vector> &values = table.values_;
            embedding::Vector value;
            if (reduce) {
                const embedding::Vector &left =
                    values[a.begin + first.sources[0].index];
                const embedding::Vector &right =
                    values[b.begin + first.sources[1].index];
                if (!left.empty())
                    value = addValues(left, right, op, pool);
            } else {
                const Provenance src = first.sources[0];
                value = copyValue(values[sides[src.side].begin + src.index],
                                  pool);
            }
            values.push_back(std::move(value));
        }
        k = j;
    }
    produced.end = static_cast<std::uint32_t>(out_rows.size());
    return produced;
}

} // namespace fafnir::core
