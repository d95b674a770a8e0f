/**
 * @file
 * Test-only reference of the reduction tree with literal headers.
 *
 * Every item carries its `indices` field as an IndexSet and, per query
 * that still wants it, the residual IndexSet of that query's indices not
 * folded in yet — the paper's [indices | queries] header spelled out.
 * The PE groups entries through ordered maps and the merge unit keys
 * outputs by IndexSet. This is the straightforward model the interned
 * production PE (src/fafnir/pe.cc) and tree evaluator
 * (src/fafnir/functional.cc) are pinned against, output by output.
 * Header-only runs (values == false) carry no values, as in production.
 */

#ifndef FAFNIR_TESTS_REFERENCE_TREE_HH
#define FAFNIR_TESTS_REFERENCE_TREE_HH

#include <algorithm>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/smallvec.hh"
#include "embedding/reduce_kernels.hh"
#include "fafnir/host.hh"
#include "fafnir/indexset.hh"
#include "fafnir/pe.hh"
#include "fafnir/tree.hh"

namespace fafnir::core::reference
{

/** One query's view of an item: what it still needs. */
struct QueryResidual
{
    QueryId query = 0;
    IndexSet remaining;

    bool operator==(const QueryResidual &other) const = default;
};

/** A buffer entry with a literal header. */
struct Item
{
    IndexSet indices;
    SmallVec<QueryResidual, 2> queries;
    embedding::Vector value;

    const QueryResidual *
    findQuery(QueryId query) const
    {
        for (const auto &r : queries)
            if (r.query == query)
                return &r;
        return nullptr;
    }

    /** Header bits: the indices field plus every stored residual. */
    std::size_t
    headerBits(unsigned bits_per_index) const
    {
        std::size_t total = indices.size() * bits_per_index;
        for (const auto &r : queries)
            total += r.remaining.size() * bits_per_index;
        return total;
    }
};

struct PeOutput
{
    Item item;
    PeAction action = PeAction::Forward;
    std::vector<Provenance> sources;
};

/** Literal-header PE: per-query std::map grouping, IndexSet-keyed merge. */
inline std::vector<PeOutput>
process(const std::vector<Item> &a, const std::vector<Item> &b,
        PeActivity &activity, bool values = true,
        embedding::ReduceOp op = embedding::ReduceOp::Sum,
        embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32)
{
    const bool quantized = payload != embedding::PayloadFormat::Fp32;
    activity.compares += static_cast<std::uint64_t>(a.size()) * b.size();

    std::map<QueryId, std::pair<std::vector<std::size_t>,
                                std::vector<std::size_t>>>
        by_query;
    for (std::size_t i = 0; i < a.size(); ++i)
        for (const auto &r : a[i].queries)
            by_query[r.query].first.push_back(i);
    for (std::size_t i = 0; i < b.size(); ++i)
        for (const auto &r : b[i].queries)
            by_query[r.query].second.push_back(i);

    auto forward = [values](const Item &source,
                            const QueryResidual &residual,
                            std::uint8_t side, std::size_t index) {
        Item item;
        item.indices = source.indices;
        item.queries = {residual};
        if (values)
            item.value = source.value;
        return PeOutput{std::move(item),
                        PeAction::Forward,
                        {{side, static_cast<std::uint16_t>(index)}}};
    };

    std::vector<PeOutput> raw;
    for (const auto &[query, sides] : by_query) {
        const auto &[in_a, in_b] = sides;
        const std::size_t paired = std::min(in_a.size(), in_b.size());
        for (std::size_t i = 0; i < paired; ++i) {
            const Item &left = a[in_a[i]];
            const Item &right = b[in_b[i]];
            const QueryResidual *ra = left.findQuery(query);
            const QueryResidual *rb = right.findQuery(query);
            FAFNIR_ASSERT(ra && rb, "residual lookup failed");
            FAFNIR_ASSERT(ra->remaining.containsAll(right.indices),
                          "query ", query, ": right operand not wanted");
            FAFNIR_ASSERT(rb->remaining.containsAll(left.indices),
                          "query ", query, ": left operand not wanted");
            Item item;
            item.indices = left.indices.disjointUnion(right.indices);
            item.queries = {{query, ra->remaining.minus(right.indices)}};
            if (values && !left.value.empty()) {
                item.value.resize(left.value.size());
                embedding::combineSpan(op, item.value.data(),
                                       left.value.data(),
                                       right.value.data(),
                                       left.value.size());
            }
            if (quantized) {
                activity.dequants += 2;
                activity.requants += 1;
            }
            raw.push_back(
                {std::move(item),
                 PeAction::Reduce,
                 {{0, static_cast<std::uint16_t>(in_a[i])},
                  {1, static_cast<std::uint16_t>(in_b[i])}}});
            ++activity.reduces;
        }
        for (std::size_t i = paired; i < in_a.size(); ++i) {
            raw.push_back(forward(a[in_a[i]], *a[in_a[i]].findQuery(query),
                                  0, in_a[i]));
            ++activity.forwards;
        }
        for (std::size_t i = paired; i < in_b.size(); ++i) {
            raw.push_back(forward(b[in_b[i]], *b[in_b[i]].findQuery(query),
                                  1, in_b[i]));
            ++activity.forwards;
        }
    }

    std::map<IndexSet, PeOutput> merged;
    for (auto &out : raw) {
        auto [it, inserted] =
            merged.try_emplace(out.item.indices, std::move(out));
        if (inserted)
            continue;
        PeOutput &existing = it->second;
        for (auto &residual : out.item.queries) {
            bool duplicate = false;
            for (const auto &have : existing.item.queries)
                duplicate |= have == residual;
            if (duplicate) {
                ++activity.duplicatesDropped;
            } else {
                existing.item.queries.push_back(std::move(residual));
                ++activity.headersMerged;
            }
        }
        for (const Provenance &src : out.sources) {
            if (std::find(existing.sources.begin(), existing.sources.end(),
                          src) == existing.sources.end())
                existing.sources.push_back(src);
        }
        if (out.action == PeAction::Reduce)
            existing.action = PeAction::Reduce;
    }

    std::vector<PeOutput> outputs;
    for (auto &[key, out] : merged)
        outputs.push_back(std::move(out));
    return outputs;
}

/** Captured inputs and outputs of one reference PE. */
struct PeTrace
{
    std::vector<Item> inputsA;
    std::vector<Item> inputsB;
    std::vector<PeOutput> outputs;
    PeActivity activity;
};

struct TreeRun
{
    std::vector<PeOutput> rootOutputs;
    std::vector<embedding::Vector> results;
    PeActivity total;
    std::size_t rootCombines = 0;
    std::vector<std::size_t> rootItemsPerQuery;
    std::size_t maxPeOutputs = 0;
    /** Per-PE traces, indexed by heap id. */
    std::vector<PeTrace> trace;
};

/**
 * The leaf item of @p read with a literal header: its own index, and per
 * user query that query's full set minus the index.
 */
inline Item
leafItem(const RankRead &read, const std::vector<IndexSet> &query_sets)
{
    Item item;
    item.indices = IndexSet::single(read.index);
    for (QueryId q : read.item.queries)
        item.queries.push_back(
            {q, query_sets[q].minus(IndexSet::single(read.index))});
    item.value = read.item.value;
    return item;
}

/**
 * Evaluate @p prepared's reads on @p topology with literal headers.
 * @p query_sets are the batch's full query sets, taken from the batch
 * rather than from prepared.sets so the oracle does not share the
 * interned representation it checks.
 */
inline TreeRun
runTree(const TreeTopology &topology, const PreparedBatch &prepared,
        const std::vector<IndexSet> &query_sets, bool values = true,
        embedding::ReduceOp op = embedding::ReduceOp::Sum)
{
    const unsigned num_pes = topology.numPes();
    TreeRun run;
    run.trace.resize(num_pes + 1);

    std::vector<std::vector<Item>> side_a(num_pes + 1);
    std::vector<std::vector<Item>> side_b(num_pes + 1);
    for (unsigned rank = 0; rank < topology.numRanks(); ++rank) {
        const unsigned pe = topology.leafPeOf(rank);
        auto &side = topology.sideOf(rank) == 0 ? side_a[pe] : side_b[pe];
        for (const auto &read : prepared.rankReads[rank])
            side.push_back(leafItem(read, query_sets));
    }

    std::vector<std::vector<Item>> outputs(num_pes + 1);
    for (unsigned pe = num_pes; pe >= 1; --pe) {
        const std::vector<Item> &a = topology.isLeafPe(pe)
            ? side_a[pe]
            : outputs[topology.leftChild(pe)];
        const std::vector<Item> &b = topology.isLeafPe(pe)
            ? side_b[pe]
            : outputs[topology.rightChild(pe)];
        PeActivity activity;
        std::vector<PeOutput> pe_out =
            process(a, b, activity, values, op, prepared.payload);
        run.total += activity;
        run.maxPeOutputs = std::max(run.maxPeOutputs, pe_out.size());
        run.trace[pe] = {a, b, pe_out, activity};
        if (pe == TreeTopology::rootPe()) {
            run.rootOutputs = std::move(pe_out);
        } else {
            for (auto &out : pe_out)
                outputs[pe].push_back(std::move(out.item));
        }
        if (pe == 1)
            break;
    }

    const std::size_t num_queries = query_sets.size();
    run.results.resize(num_queries);
    run.rootItemsPerQuery.assign(num_queries, 0);
    for (QueryId q = 0; q < num_queries; ++q) {
        IndexSet covered;
        embedding::Vector acc;
        for (const auto &out : run.rootOutputs) {
            if (!out.item.findQuery(q))
                continue;
            ++run.rootItemsPerQuery[q];
            covered = covered.disjointUnion(out.item.indices);
            if (values && !out.item.value.empty()) {
                if (acc.empty()) {
                    acc = out.item.value;
                } else {
                    embedding::combineSpan(op, acc.data(),
                                           out.item.value.data(),
                                           acc.size());
                }
            }
        }
        FAFNIR_ASSERT(run.rootItemsPerQuery[q] >= 1, "query ", q,
                      " produced no root items");
        run.rootCombines += run.rootItemsPerQuery[q] - 1;
        FAFNIR_ASSERT(covered == query_sets[q], "query ", q,
                      " incomplete at root");
        embedding::finalizeSpan(op, acc.data(), acc.size(), covered.size());
        run.results[q] = std::move(acc);
    }
    return run;
}

} // namespace fafnir::core::reference

#endif // FAFNIR_TESTS_REFERENCE_TREE_HH
