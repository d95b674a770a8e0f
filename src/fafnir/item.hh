/**
 * @file
 * Flits flowing through the reduction tree.
 *
 * An Item is one flit as prepare builds it for a rank read: a value plus
 * its header. Inside the tree the same header is a row of the run's
 * OutputTable (pe.hh), one per PE buffer entry. The header's `indices`
 * field records which embedding vectors the value already sums, as a
 * SetId into the batch's IndexSetTable; the `queries` field lists the
 * ids of the queries that still want this value (the paper's example
 * header [indices:50,11 | queries:94,26] lists query q's residual
 * {94, 26}).
 *
 * Residuals are derived, not stored: the invariant that every residual
 * r of query q is disjoint from `indices` and that indices ∪ r is the
 * full query set fixes r = querySet(q) \ indices. The PE checks the
 * invariant's operational form on every reduce (both operands are
 * subsets of the query's set and disjoint from each other), and the
 * root checks each query's partials cover exactly its set.
 */

#ifndef FAFNIR_FAFNIR_ITEM_HH
#define FAFNIR_FAFNIR_ITEM_HH

#include <span>
#include <string>

#include "common/smallvec.hh"
#include "common/types.hh"
#include "embedding/table.hh"
#include "fafnir/indexset.hh"

namespace fafnir::core
{

/**
 * Header bits on the wire at @p bits_per_index per index of an entry
 * summing @p indices for @p queries: the indices field plus every
 * query's residual. Under the item invariant,
 * |residual(q)| = |querySet(q)| - |indices|.
 */
inline std::size_t
headerBits(const IndexSetTable &sets, SetId indices,
           std::span<const QueryId> queries, unsigned bits_per_index)
{
    const std::size_t own = sets.size(indices);
    std::size_t total = own;
    for (QueryId q : queries)
        total += sets.size(sets.querySet(q)) - own;
    return total * bits_per_index;
}

/** One leaf flit as prepare builds it: value + header. */
struct Item
{
    /** Vectors already reduced into `value` (the header's indices field). */
    SetId indices = IndexSetTable::kEmptySet;
    /**
     * Queries that still want this value (the header's queries field).
     * Two inline slots: most flits serve one query.
     */
    SmallVec<QueryId, 2> queries;
    /**
     * The vector. Empty in timing-only runs; the functional model always
     * populates it.
     */
    embedding::Vector value;

    /** "[indices:{..} | queries:qN:{residual} ...]" in vector indices. */
    std::string toString(const IndexSetTable &sets) const;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_ITEM_HH
