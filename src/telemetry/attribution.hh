/**
 * @file
 * Per-query causal latency attribution.
 *
 * Aggregate counters answer "how busy was each component"; this module
 * answers "why was *this query* slow". The event-driven engine walks
 * each served query's critical path — the rank read whose data arrived
 * last, the chain of PE emissions it bound, the root combine, and the
 * root-link/host delivery — and records an exact partition of the
 * query's end-to-end latency:
 *
 *   dramService  isolated DRAM access time of the critical read
 *                (closed-row activate + CAS + burst)
 *   ctrlQueue    memory contention ahead of that read: bank/bus/queue
 *                residency beyond the isolated service time
 *   peCompute    pipeline cycles of every PE hop on the path (reduce or
 *                forward path, merge, inter-chip link hops) plus the
 *                serial root combines of the query
 *   forwardWait  everything a hop waited beyond its compute: clock
 *                alignment, output-port (issue) backpressure, forwards
 *                blocked on the opposite input side, FIFO overflow and
 *                injected backpressure penalties
 *   serviceQueue root-link serialization, the transfer itself, and the
 *                host receive overhead
 *
 * When the serving pipeline is in front of the engine, two pre-issue
 * stages join the split (back-annotated per batch, see
 * annotateBatchStages):
 *
 *   batchPrepare  host-side compile of the batch (dedup + flit headers),
 *                 including the wait for a free pipeline slot
 *   dispatchQueue wait in the bounded dispatch queue for an engine
 *                 replica to come free
 *
 * The components sum to `complete - issued` exactly, by construction
 * (each is a disjoint interval of the critical path); the tests pin
 * this. Alongside the per-query breakdown the module keeps
 * the paper's Figure-3-style locality story measurable per workload: a
 * "meeting-level histogram" counting at which tree height each pair of
 * partial sums merged.
 *
 * Like the TraceSink, an Attribution is installed process-globally and
 * consulted through one pointer load (`instruments().attribution`), so
 * the engine's hot path pays nothing when attribution is off. Harnesses
 * get it via `--attrib=PATH` on TelemetrySession, which also registers
 * the `attrib.*` StatGroup and writes the JSON artifact.
 */

#ifndef FAFNIR_TELEMETRY_ATTRIBUTION_HH
#define FAFNIR_TELEMETRY_ATTRIBUTION_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/instruments.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fafnir::telemetry
{

/** Critical-path latency breakdown of one served query. All ticks. */
struct QueryAttribution
{
    /** Batch ordinal (beginBatch() order) and in-batch query id. */
    std::uint64_t batch = 0;
    std::uint32_t query = 0;
    /** Engine issue and host-delivery ticks (absolute). */
    Tick issued = 0;
    Tick complete = 0;
    /** The disjoint components (see file header). The first two are
     *  pre-issue pipeline stages back-annotated by the serving layer
     *  (annotateBatchStages); standalone engine runs leave them 0. */
    Tick batchPrepare = 0;
    Tick dispatchQueue = 0;
    Tick dramService = 0;
    Tick ctrlQueue = 0;
    Tick peCompute = 0;
    Tick forwardWait = 0;
    Tick serviceQueue = 0;
    /** Cross-shard gather: from this shard's engine delivery to the
     *  sharded tier's fixed-order combine (writeback drain, waiting on
     *  straggler shards, and the combine itself). Back-annotated by
     *  the tier (annotateShardCombine); unsharded runs leave it 0. */
    Tick shardCombine = 0;
    /** Rank whose read starts the critical path. */
    unsigned criticalRank = 0;
    /** PE emissions on the critical path (leaf through root). */
    unsigned hops = 0;
    /** Event-queue flow id of the critical chain's leaf read. */
    std::uint64_t flow = 0;

    Tick total() const { return complete - issued; }

    Tick
    componentSum() const
    {
        return batchPrepare + dispatchQueue + dramService + ctrlQueue +
               peCompute + forwardWait + serviceQueue + shardCombine;
    }
};

/** Open-loop queueing ahead of one batch's engine issue. */
struct BatchQueueWait
{
    std::uint64_t batch = 0;
    Tick wait = 0;
};

/** Collects per-query breakdowns and the meeting-level histogram. */
class Attribution
{
  public:
    Attribution() = default;

    Attribution(const Attribution &) = delete;
    Attribution &operator=(const Attribution &) = delete;

    /** Announce the next batch; returns its ordinal. */
    std::uint64_t beginBatch() { return batchCounter_++; }

    /** Ordinal of the batch currently being attributed. */
    std::uint64_t
    currentBatch() const
    {
        return batchCounter_ == 0 ? 0 : batchCounter_ - 1;
    }

    void recordQuery(const QueryAttribution &q);

    /** @p merges pairwise merges happened at tree height @p height. */
    void recordMeeting(unsigned height, std::uint64_t merges = 1);

    /** Controller queue residency of one request (any engine). */
    void recordCtrlResidency(Tick wait) { ctrlResidencyTicks_ += wait; }

    /** Open-loop service wait of the current batch (serveOpenLoop). */
    void recordBatchQueueWait(Tick wait);

    /**
     * Back-annotate the serving pipeline stages of batch @p batch:
     * extend each of its queries' spans back to the request's arrival
     * (issued -= prepare + dispatch) and attribute the host-prepare and
     * dispatch-queue intervals, keeping the telescoping sum exact. The
     * engine records queries against the ordinal it drew via
     * beginBatch(); the pipeline calls this once per served batch.
     */
    void annotateBatchStages(std::uint64_t batch, Tick prepare,
                             Tick dispatch);

    /**
     * Back-annotate the sharded tier's cross-shard gather onto batch
     * @p batch's queries: extend each span forward to the tier's
     * combine point (complete += combine) and attribute the interval
     * to the shardCombine component, keeping the telescoping sum
     * exact. The tier calls this once per participating sub-batch.
     */
    void annotateShardCombine(std::uint64_t batch, Tick combine);

    const std::vector<QueryAttribution> &queries() const
    {
        return queries_;
    }

    /** Merge counts indexed by tree height (may be empty). */
    const std::vector<std::uint64_t> &meetingHistogram() const
    {
        return meetings_;
    }

    const std::vector<BatchQueueWait> &batchQueueWaits() const
    {
        return batchWaits_;
    }

    /** Fraction of total latency the components cover (1.0 = exact). */
    double componentCoverage() const;

    /** Merge-count-weighted mean meeting height. */
    double meanMeetingHeight() const;

    /** Register the attrib.* counters/distributions into @p group. */
    void registerStats(StatGroup &group);

    /** Serialize queries, histogram, service waits, and a summary. */
    void write(std::ostream &os) const;

    /** write() to @p path. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    std::vector<QueryAttribution> queries_;
    std::vector<std::uint64_t> meetings_;
    std::vector<BatchQueueWait> batchWaits_;
    std::uint64_t batchCounter_ = 0;

    Counter recorded_;
    Counter batchPrepareTicks_;
    Counter dispatchQueueTicks_;
    Counter dramServiceTicks_;
    Counter ctrlQueueTicks_;
    Counter peComputeTicks_;
    Counter forwardWaitTicks_;
    Counter serviceQueueTicks_;
    Counter shardCombineTicks_;
    Counter ctrlResidencyTicks_;
    Counter merges_;
    Counter batchQueueTicks_;
    Distribution queryLatencyNs_;
    Distribution criticalHops_;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_ATTRIBUTION_HH
