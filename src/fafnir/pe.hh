/**
 * @file
 * Processing element: the node of the Fafnir reduction tree.
 *
 * A PE (Figure 5) has two input FIFO buffers, A and B, a bank of compute
 * units, and a merge unit. For each buffered item it decides, per query in
 * the item's header, whether to REDUCE it with a matching item of the
 * opposite input (concatenating `indices` fields and shrinking the
 * `queries` field) or to FORWARD it unchanged. The merge unit then (a)
 * eliminates redundant identical outputs and (b) merges outputs that carry
 * the same value — equal `indices` sets — by concatenating their `queries`
 * fields, which is what bounds the output count by the batch size.
 *
 * Pairing policy. The paper compares every element of one input against
 * all elements of the other. When a query has several candidate partners
 * (two of its vectors arrived on the same side), an all-pairs reduce would
 * double-count values, so the compute units pair the i-th matching entry
 * of A with the i-th matching entry of B per query; unpaired entries are
 * forwarded. This keeps every query's in-flight items disjoint partial
 * sums — the invariant the root combiner relies on.
 *
 * Representation. Headers are interned (IndexSetTable), and a tree run
 * keeps every buffer entry in one flat OutputTable: a row holds the
 * action, the SetId of its indices, a range of query ids and a range of
 * provenance entries (plus one value vector per row in value runs). A
 * PE reads its two inputs as row ranges of that table and appends its
 * outputs to it, so a parent reads its children's rows in place. The
 * PE's scratch (a counting sort over the batch's dense query ids that
 * groups the buffer entries per query, the raw outputs and the merge
 * unit's sort keys) is reused from one PE to the next. The merge unit
 * sorts the raw outputs on a 64-bit key of each set's first two slots,
 * falling back to full set order on ties, with id equality as the
 * duplicate test. Output order — ascending by index set, the first raw
 * output of a set winning and later ones folding in raw order — fixes
 * each output's issue slot in the timing engines.
 */

#ifndef FAFNIR_FAFNIR_PE_HH
#define FAFNIR_FAFNIR_PE_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/smallvec.hh"
#include "common/types.hh"
#include "embedding/quantize.hh"
#include "fafnir/item.hh"

namespace fafnir::core
{

class VectorPool;

/**
 * Latencies of the compute-unit components in PE cycles (the paper's
 * Table IV, 200 MHz FPGA implementation). Reduce and forward are parallel
 * paths; the per-item critical path is compare + the action.
 */
struct PeLatency
{
    Cycles compare = 1;
    Cycles reduceValue = 2;
    Cycles reduceHeader = 1;
    Cycles forward = 1;
    /** Merge-unit pass over the raw outputs. */
    Cycles merge = 1;
    /** Output initiation interval (pipelined, one item per cycle). */
    Cycles issue = 1;

    Cycles
    reducePath() const
    {
        return compare + std::max(reduceValue, reduceHeader);
    }

    Cycles forwardPath() const { return compare + forward; }
};

/** What happened to produce one output item (drives timing and stats). */
enum class PeAction : std::uint8_t
{
    Reduce,
    Forward,
};

/** Per-PE activity counters for one batch. */
struct PeActivity
{
    std::uint64_t compares = 0;
    std::uint64_t reduces = 0;
    std::uint64_t forwards = 0;
    /** Outputs dropped as exact duplicates by the merge unit. */
    std::uint64_t duplicatesDropped = 0;
    /** Header concatenations performed by the merge unit. */
    std::uint64_t headersMerged = 0;
    /**
     * Compressed-payload codec work at the meeting logic (non-fp32
     * formats only): a reduce dequantizes both operands and requantizes
     * the combined output for the uplink; a forward passes codes
     * through untouched. The functional values stay the exact fp32
     * partials of the leaf round-trip (see embedding/quantize.hh) —
     * these counters drive the byte/energy model, not the arithmetic.
     */
    std::uint64_t dequants = 0;
    std::uint64_t requants = 0;

    PeActivity &
    operator+=(const PeActivity &other)
    {
        compares += other.compares;
        reduces += other.reduces;
        forwards += other.forwards;
        duplicatesDropped += other.duplicatesDropped;
        headersMerged += other.headersMerged;
        dequants += other.dequants;
        requants += other.requants;
        return *this;
    }
};

/** Which input buffer entry contributed to an output. */
struct Provenance
{
    /** 0 = input A, 1 = input B. */
    std::uint8_t side = 0;
    /** Position within that input list. */
    std::uint16_t index = 0;

    bool operator==(const Provenance &other) const = default;
};

/** Half-open range [begin, end) of rows of an OutputTable. */
struct RowRange
{
    std::uint32_t begin = 0;
    std::uint32_t end = 0;

    std::size_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
};

/** Read view of one OutputTable row; valid until the table grows. */
struct OutputRef
{
    PeAction action;
    /** Vectors already reduced into the row's value. */
    SetId indices;
    /** Queries that still want the value (the header's queries field). */
    std::span<const QueryId> queries;
    /** Input entries of the producing PE this row depends on (empty for
     *  a leaf input). */
    std::span<const Provenance> sources;

    bool
    hasQuery(QueryId q) const
    {
        return std::find(queries.begin(), queries.end(), q) !=
               queries.end();
    }
};

/**
 * Every buffer entry of one tree run, back to back: the leaf inputs as
 * they enter and each PE's outputs as it produces them. Query ids and
 * provenance live in two flat arrays that each row indexes by range.
 * A table made with values carries one value vector per row; a
 * header-only table carries none.
 */
class OutputTable
{
  public:
    explicit OutputTable(bool values = false) : withValues_(values) {}

    std::size_t size() const { return rows_.size(); }

    OutputRef
    operator[](std::uint32_t row) const
    {
        const Row &r = rows_[row];
        return {r.action, r.indices,
                {queryIds_.data() + r.queryBegin, r.queryEnd - r.queryBegin},
                {sources_.data() + r.sourceBegin,
                 r.sourceEnd - r.sourceBegin}};
    }

    /** Value of @p row; empty in a header-only table. */
    const embedding::Vector &
    value(std::uint32_t row) const
    {
        static const embedding::Vector kNone;
        return withValues_ ? values_[row] : kNone;
    }

    /**
     * Append @p item as an input row (no sources). Its value is copied
     * when the table carries values, into @p pool's recycled capacity
     * when one is supplied.
     */
    void addInput(const Item &item, VectorPool *pool = nullptr);

    /** Append @p items as one input range. */
    RowRange addInputs(std::span<const Item> items,
                       VectorPool *pool = nullptr);

    /** Recycle the value buffers of consumed rows @p range. */
    void releaseValues(RowRange range, VectorPool &pool);

    /** Drop the rows from @p row on, recycling their values into
     *  @p pool. */
    void truncate(std::uint32_t row, VectorPool &pool);

  private:
    friend class ProcessingElement;

    struct Row
    {
        SetId indices;
        PeAction action;
        std::uint32_t queryBegin;
        std::uint32_t queryEnd;
        std::uint32_t sourceBegin;
        std::uint32_t sourceEnd;
    };

    bool withValues_;
    std::vector<Row> rows_;
    std::vector<QueryId> queryIds_;
    std::vector<Provenance> sources_;
    /** One per row when withValues_ is set. */
    std::vector<embedding::Vector> values_;
};

/**
 * Functional model of a PE processing the complete input sets of one
 * batch. Holds only scratch buffers, reused from call to call: one
 * instance must not process on two threads at once.
 */
class ProcessingElement
{
  public:
    /**
     * Process inputs A = rows @p a and B = rows @p b of @p table, and
     * append the merged outputs to @p table. Values are combined when
     * the table carries them (timing-only runs on large batches skip
     * the arithmetic).
     * @param sets the batch's index sets; reduces intern their unions
     *        into it.
     * @param op element-wise operator of the reduce path.
     * @param pool optional buffer recycler for output values; results
     *        are bit-identical with or without one.
     * @param payload transport encoding of the link payloads; non-fp32
     *        formats count dequant/requant codec work per meeting in
     *        @p activity (values are unchanged — the leaf round-trip
     *        already fixed them).
     * @return the rows of the outputs, in issue order.
     */
    RowRange process(IndexSetTable &sets, OutputTable &table, RowRange a,
                     RowRange b, PeActivity &activity,
                     embedding::ReduceOp op = embedding::ReduceOp::Sum,
                     VectorPool *pool = nullptr,
                     embedding::PayloadFormat payload =
                         embedding::PayloadFormat::Fp32);

    /**
     * Upper bound on outputs: min(nm + n + m, batch) — Section IV-B.
     */
    static std::size_t
    outputBound(std::size_t n, std::size_t m, std::size_t batch)
    {
        return std::min(n * m + n + m, batch);
    }

  private:
    /** One compute-unit decision, before the merge unit. */
    struct RawOutput
    {
        SetId indices;
        QueryId query;
        PeAction action;
        /** Forward: {source}; reduce: {A operand, B operand}. */
        Provenance sources[2];
    };

    /** Merge-unit sort entry: set order key, then raw position. */
    struct SortEntry
    {
        std::uint64_t key;
        std::uint32_t raw;
    };

    std::vector<std::uint32_t> count_;
    std::vector<std::uint32_t> cursor_;
    std::vector<std::uint16_t> positions_;
    std::vector<RawOutput> raw_;
    std::vector<SortEntry> order_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_PE_HH
