/**
 * @file
 * Implementation of the functional tree evaluator.
 */

#include "functional.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"
#include "embedding/reduce_kernels.hh"

namespace fafnir::core
{

TreeRun
FunctionalTree::run(const PreparedBatch &prepared, bool values,
                    bool keep_trace, embedding::ReduceOp op) const
{
    const unsigned num_pes = topology_.numPes();

    TreeRun run;
    run.sets = prepared.sets;
    run.table = OutputTable(values);
    OutputTable &table = run.table;
    if (keep_trace)
        run.trace.resize(num_pes + 1);
    FAFNIR_ASSERT(prepared.rankReads.size() >= topology_.numRanks(),
                  "prepared batch covers ", prepared.rankReads.size(),
                  " ranks, tree expects ", topology_.numRanks());

    // Children have larger heap ids than parents, so a descending sweep
    // evaluates each PE after both of its children. A leaf PE's inputs
    // enter the table first: side s gathers its ranks r with
    // sideOf(r) == s, in rank order. The pool recycles each PE's dead
    // value buffers into the outputs that follow.
    VectorPool pool;
    std::vector<RowRange> produced(num_pes + 1);
    const unsigned per_leaf = topology_.ranksPerLeafPe();
    for (unsigned pe = num_pes; pe >= 1; --pe) {
        RowRange in[2];
        if (topology_.isLeafPe(pe)) {
            const unsigned first = (pe - topology_.numLeafPes()) * per_leaf;
            const unsigned last =
                std::min(first + per_leaf, topology_.numRanks());
            for (unsigned side = 0; side < 2; ++side) {
                in[side].begin = static_cast<std::uint32_t>(table.size());
                for (unsigned rank = first + side; rank < last; rank += 2)
                    for (const auto &read : prepared.rankReads[rank])
                        table.addInput(read.item, &pool);
                in[side].end = static_cast<std::uint32_t>(table.size());
            }
        } else {
            in[0] = produced[topology_.leftChild(pe)];
            in[1] = produced[topology_.rightChild(pe)];
        }

        PeActivity activity;
        const RowRange out = pe_.process(run.sets, table, in[0], in[1],
                                         activity, op, &pool,
                                         prepared.payload);
        produced[pe] = out;
        run.total += activity;
        run.maxPeOutputs = std::max(run.maxPeOutputs, out.size());
        if (keep_trace)
            run.trace[pe] = {{in[0].size(), in[1].size()}, out, activity};
        // The inputs are consumed: recycle their value buffers.
        table.releaseValues(in[0], pool);
        table.releaseValues(in[1], pool);
        if (pe == 1)
            break; // unsigned loop guard
    }
    run.root = produced[TreeTopology::rootPe()];

    // Query->root-output index: count per query, prefix-sum to list
    // ends, then fill back to front so every list stays ascending.
    IndexSetTable &sets = run.sets;
    const std::size_t num_queries = sets.numQueries();
    run.rootQueryStart.assign(num_queries + 1, 0);
    for (std::uint32_t row = run.root.begin; row < run.root.end; ++row)
        for (QueryId q : table[row].queries)
            ++run.rootQueryStart[q];
    std::partial_sum(run.rootQueryStart.begin(), run.rootQueryStart.end(),
                     run.rootQueryStart.begin());
    run.rootQueryOutputs.resize(run.rootQueryStart.back());
    for (auto k = static_cast<std::uint32_t>(run.root.size()); k-- > 0;) {
        for (QueryId q : run.rootOutput(k).queries)
            run.rootQueryOutputs[--run.rootQueryStart[q]] = k;
    }

    // Root output stage: per query, sum its (disjoint) partial items in
    // ascending output order.
    run.results.resize(num_queries);
    for (QueryId q = 0; q < num_queries; ++q) {
        SetId covered = IndexSetTable::kEmptySet;
        embedding::Vector acc;
        const auto root_items = run.rootOutputsOf(q);
        for (const std::uint32_t k : root_items) {
            const SetId indices = run.rootOutput(k).indices;
            const SetId grown = sets.unite(covered, indices);
            FAFNIR_ASSERT(sets.size(grown) ==
                              sets.size(covered) + sets.size(indices),
                          "query ", q, ": overlapping root items — ",
                          sets.indexSet(covered).toString(), " vs ",
                          sets.indexSet(indices).toString());
            covered = grown;
            const embedding::Vector &value = table.value(run.root.begin + k);
            if (!value.empty()) {
                if (acc.empty()) {
                    acc = value;
                } else {
                    embedding::combineSpan(op, acc.data(), value.data(),
                                           acc.size());
                }
            }
        }
        FAFNIR_ASSERT(!root_items.empty(),
                      "query ", q, " produced no root items");
        run.rootCombines += root_items.size() - 1;
        const auto got = sets.slots(covered);
        const auto want = sets.slots(sets.querySet(q));
        FAFNIR_ASSERT(std::equal(got.begin(), got.end(), want.begin(),
                                 want.end()),
                      "query ", q, " incomplete at root: got ",
                      sets.indexSet(covered).toString(), ", want ",
                      sets.indexSet(sets.querySet(q)).toString());
        // Mean is a Sum through the tree, scaled at the root output.
        embedding::finalizeSpan(op, acc.data(), acc.size(),
                                sets.size(covered));
        run.results[q] = std::move(acc);
    }

    run.poolStats = pool.stats();
    return run;
}

} // namespace fafnir::core
