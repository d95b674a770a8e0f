/**
 * @file
 * Functional evaluation of the reduction tree.
 *
 * Flows a prepared batch level by level from the leaves to the root and
 * combines the root outputs per query. The evaluator is the executable
 * specification of Fafnir's batch-processing mechanism (Figure 6): its
 * results are checked against the reference gather-reduce, and the timing
 * engine replays its per-PE traces with latencies attached.
 *
 * Root combine. PEs only reduce across their two inputs, so when several
 * vectors of one query enter the tree through the same subtree path they
 * can reach the root as multiple disjoint partial sums. The root's output
 * stage sums those partials (rootCombines counts them); with the paper's
 * one-vector-per-rank placement this is rare, and zero in the paper's
 * running example.
 */

#ifndef FAFNIR_FAFNIR_FUNCTIONAL_HH
#define FAFNIR_FAFNIR_FUNCTIONAL_HH

#include <cstdint>
#include <span>
#include <vector>

#include "embedding/table.hh"
#include "fafnir/host.hh"
#include "fafnir/pe.hh"
#include "fafnir/pool.hh"
#include "fafnir/tree.hh"

namespace fafnir::core
{

/** Captured shape of one PE for one batch. */
struct PeTrace
{
    /** Entries delivered on input A ([0]) and input B ([1]). */
    std::size_t inputs[2] = {0, 0};
    /** Post-merge outputs in issue order: rows of TreeRun::table. */
    RowRange outputs;
    PeActivity activity;
};

/** Result of evaluating one batch. */
struct TreeRun
{
    /**
     * The batch's index sets plus every union the run formed; the
     * headers in table index into it.
     */
    IndexSetTable sets;
    /**
     * Every leaf input and PE output of the run, one row each. Value
     * runs keep the values of the root outputs only; the rest are
     * recycled once consumed.
     */
    OutputTable table;
    /** Root output rows (post-merge), in issue order. */
    RowRange root;
    /** Reduced vector per query id; empty vectors in timing-only runs. */
    std::vector<embedding::Vector> results;
    /** Summed PE activity over the whole tree. */
    PeActivity total;
    /** Extra per-query summations applied at the root output stage. */
    std::size_t rootCombines = 0;
    /**
     * Query->root-output index (CSR): the root outputs serving query q
     * are rootQueryOutputs[rootQueryStart[q] .. rootQueryStart[q + 1]),
     * in ascending output order.
     */
    std::vector<std::uint32_t> rootQueryStart;
    std::vector<std::uint32_t> rootQueryOutputs;
    /** Largest post-merge output list of any PE (buffer occupancy). */
    std::size_t maxPeOutputs = 0;
    /** Value-buffer recycling counters for the evaluation's pool. */
    VectorPool::Stats poolStats;
    /** Per-PE traces, indexed by heap id; kept only when requested. */
    std::vector<PeTrace> trace;

    /** Output @p k of PE @p pe (traced runs). */
    OutputRef
    output(unsigned pe, std::size_t k) const
    {
        return table[trace[pe].outputs.begin +
                     static_cast<std::uint32_t>(k)];
    }

    /** Root output @p k. */
    OutputRef
    rootOutput(std::size_t k) const
    {
        return table[root.begin + static_cast<std::uint32_t>(k)];
    }

    /** Root outputs feeding query @p q (>= 1), ascending. */
    std::span<const std::uint32_t>
    rootOutputsOf(QueryId q) const
    {
        return {rootQueryOutputs.data() + rootQueryStart[q],
                rootQueryStart[q + 1] - rootQueryStart[q]};
    }
};

/** Evaluates batches on a fixed topology. */
class FunctionalTree
{
  public:
    explicit FunctionalTree(const TreeTopology &topology)
        : topology_(topology)
    {}

    /**
     * Evaluate @p prepared.
     * @param values combine vector values (functional checking) or headers
     *        only (timing runs).
     * @param keep_trace retain per-PE input counts and outputs for the
     *        timing engines.
     * @param op element-wise reduction operator (Mean is finalized at the
     *        root output stage).
     */
    TreeRun run(const PreparedBatch &prepared, bool values = true,
                bool keep_trace = false,
                embedding::ReduceOp op = embedding::ReduceOp::Sum) const;

    const TreeTopology &topology() const { return topology_; }

  private:
    TreeTopology topology_;
    /**
     * The PE model and its scratch buffers, reused for every PE of every
     * run. They belong to this instance, so one tree must not run on two
     * threads at once; every engine owns its own.
     */
    mutable ProcessingElement pe_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_FUNCTIONAL_HH
