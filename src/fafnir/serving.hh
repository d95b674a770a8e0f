/**
 * @file
 * Pipelined multi-engine serving front-end.
 *
 * The single-engine service model (src/embedding/service.hh) keeps one
 * batch in flight: host prepare, tree execution, and result writeback
 * serialize, so offered-load capacity is bounded by the *sum* of the
 * stage times instead of the slowest stage. RecNMP and TensorDIMM both
 * scale recommendation inference by exploiting device-level parallelism
 * across concurrent requests; this module does the same for the Fafnir
 * tree:
 *
 *   batcher -> [prepare] -> dispatch queue -> [engine 0..N-1] -> writeback
 *
 * Stages are connected by bounded slots so the host prepare of batch
 * k+1 overlaps the tree execution of batch k (double-buffered
 * PreparedBatches; each pipeline slot recycles its value buffers
 * through its own VectorPool), and a work-conserving dispatcher shards
 * independent batches across N identical engine replicas (least-loaded
 * or round-robin, pluggable). A slot frees at its batch's engine
 * completion rather than at writeback drain.
 *
 * The simulator runs every stage on the calling thread; stage timing is
 * tick arithmetic. The host's prepare workers are a modeled parameter:
 * the prepare cost divides the per-reference term by prepareWorkers
 * (plus a per-shard merge overhead). Served values and all simulated
 * metrics are therefore bit-identical at any replica count, pipeline
 * depth and worker count (the conformance suite pins this, including
 * under an installed fault plan).
 *
 * Hedged requests (ROADMAP): with hedgePct > 0, a batch whose primary
 * engine run exceeds the running p-th percentile of observed service
 * times gets a backup issued to a second replica at the moment the
 * percentile elapsed; the first completion wins (counters:
 * hedgesIssued, hedgesWon). Values cannot diverge — replicas are
 * identical — so hedging is purely a tail-latency mechanism.
 */

#ifndef FAFNIR_FAFNIR_SERVING_HH
#define FAFNIR_FAFNIR_SERVING_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/memsystem.hh"
#include "sim/eventq.hh"
#include "embedding/layout.hh"
#include "embedding/query.hh"
#include "embedding/table.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/host.hh"
#include "fafnir/pool.hh"

namespace fafnir::core
{

/** How the dispatcher picks an engine for the next prepared batch. */
enum class DispatchPolicy
{
    /** Engine k % N — oblivious, perfectly fair under uniform load. */
    RoundRobin,
    /** Engine that frees up earliest — work-conserving under skew. */
    LeastLoaded,
};

/** Serving-pipeline shape and modeled host-stage costs. */
struct ServingConfig
{
    /** Engine replicas (N identical tree+memory instances). */
    unsigned engines = 1;
    /** Prepared batches admitted beyond the one executing (1 = the
     *  serial rhythm, 2 = double-buffered prepare/execute overlap). */
    unsigned pipelineDepth = 2;
    DispatchPolicy dispatch = DispatchPolicy::LeastLoaded;
    /**
     * Hedge percentile in (0, 100]; 0 disables. A batch still running
     * when its service time passes the running p-th percentile gets a
     * backup on a second engine; first completion wins.
     */
    double hedgePct = 0.0;
    /** Minimum completed batches before hedging engages (the running
     *  percentile is noise until the history has mass). */
    std::size_t hedgeWarmup = 8;
    /** Read each unique index once (Section IV-C). */
    bool dedup = true;
    /** Modeled host prepare workers (>= 1): the prepare cost below
     *  divides its per-reference term by this count. The simulator
     *  itself prepares on one thread at any value. */
    unsigned prepareWorkers = 1;
    /** Transport payload encoding for prepared batches (leaf values
     *  round-tripped; engines charge this format's byte widths). */
    embedding::PayloadFormat payload = embedding::PayloadFormat::Fp32;
    /**
     * Modeled host prepare cost:
     *
     *   prepareFixed + preparePerReference * refs / prepareWorkers
     *                + prepareShardOverhead * (prepareWorkers - 1)
     *
     * The flat open-addressing dedup is one probe + one link append
     * per reference, and a host sharding the scan by index divides
     * that work across workers; the shard overhead term charges the
     * serial merge + sort of each extra shard's claimed entries. The
     * constants are calibrated so a 1-worker prepare of a 384-reference
     * batch costs ~292 ns and scaling to 4 workers is ~3x
     * (micro_serving gates this modeled curve).
     */
    Tick prepareFixed = 40 * kTicksPerNs;
    Tick preparePerReference = 655;
    Tick prepareShardOverhead = 4 * kTicksPerNs;
    /** Modeled writeback cost per served query vector (post-recycle
     *  overlap, writeback only drains result rows host-side). */
    Tick writebackPerQuery = 10 * kTicksPerNs;
};

/** One batch's trip through the pipeline. */
struct ServedBatchTrace
{
    std::size_t batch = 0;
    /** Engine whose completion was delivered (the hedge winner). */
    unsigned engine = 0;
    bool hedged = false;
    bool hedgeWon = false;
    Tick arrival = 0;
    Tick prepareStart = 0;
    Tick prepareDone = 0;
    /** Engine issue tick (after any dispatch-queue wait). */
    Tick started = 0;
    /** Winning engine completion. */
    Tick complete = 0;
    /** Writeback drain (results landed host-side). */
    Tick done = 0;
    /** Attribution ordinal the engine drew for this batch (valid when
     *  a collector was installed during the run; the sharded tier uses
     *  it to back-annotate the cross-shard combine stage). */
    std::uint64_t attribBatch = 0;
    /** Timing (and values, when computed) of the winning run. */
    EventLookupTiming timing;
};

/** Aggregate outcome of a pipelined serving run. */
struct PipelineReport
{
    std::vector<ServedBatchTrace> batches;
    std::uint64_t hedgesIssued = 0;
    std::uint64_t hedgesWon = 0;
    /** First arrival to last writeback. */
    Tick makespan = 0;
    std::vector<std::uint64_t> batchesPerEngine;
    /** Execute ticks per engine, including losing hedge backups. */
    std::vector<Tick> busyTicksPerEngine;
    /** Stage busy totals for the health scoreboard. */
    Tick prepareBusy = 0;
    Tick dispatchWait = 0;
    Tick writebackBusy = 0;

    double
    requestsPerSecond() const
    {
        return makespan == 0
            ? 0.0
            : static_cast<double>(batches.size()) *
                  static_cast<double>(kTicksPerSec) /
                  static_cast<double>(makespan);
    }
};

/**
 * One engine replica: its own event queue, memory system, layout, and
 * event-driven engine over identical geometry, so any replica produces
 * bit-identical values for the same prepared batch.
 */
struct EngineReplica
{
    std::unique_ptr<EventQueue> eventq;
    std::unique_ptr<dram::MemorySystem> memory;
    std::unique_ptr<embedding::VectorLayout> layout;
    std::unique_ptr<EventDrivenEngine> engine;
};

/** Memory-system shape shared by every replica. */
struct ReplicaMemoryConfig
{
    dram::Geometry geometry = dram::Geometry::withTotalRanks(32);
    dram::Timing timing = dram::Timing::ddr4_2400();
    dram::Interleave interleave = dram::Interleave::BlockRank;
    unsigned blockBytes = 512;
};

/** Build @p count identical replicas. */
std::vector<EngineReplica>
makeEventReplicas(unsigned count, const ReplicaMemoryConfig &mem,
                  const embedding::TableConfig &tables,
                  const EventEngineConfig &config,
                  const embedding::EmbeddingStore *store);

/** The pipelined, sharded serving front-end. */
class ServingPipeline
{
  public:
    /**
     * @param replicas identically-configured engines (>= config.engines
     *        entries; extras are ignored).
     * @param store when non-null, prepared items carry real values so
     *        the engines can compute served vectors.
     */
    ServingPipeline(const ServingConfig &config,
                    std::vector<EngineReplica> &replicas,
                    const embedding::EmbeddingStore *store);

    /**
     * Serve @p batches with inter-arrival gap @p arrivalGap (open loop:
     * batch k arrives at start + k * gap; 0 = all at once).
     */
    PipelineReport serve(const std::vector<embedding::Batch> &batches,
                         Tick arrivalGap, Tick start = 0);

    /**
     * Serve @p batches at explicit arrival ticks (non-decreasing; one
     * per batch) — the open-loop generator for time-varying load
     * (steady/burst/ramp phases). When a windowed telemetry engine or
     * SLO monitor is installed, every batch feeds per-stage windowed
     * metrics and per-query latency/availability SLIs.
     */
    PipelineReport serve(const std::vector<embedding::Batch> &batches,
                         const std::vector<Tick> &arrivals);

    /** Register pipeline + per-engine counters into @p group. */
    void registerStats(StatGroup &group);

    /**
     * Per-stage / per-replica health scoreboard over one run: windowed
     * queue wait, utilization, hedge rate, prepared-slot occupancy, and
     * fault/SLO context when the corresponding globals are installed.
     * Windowed columns read the installed instruments().series and
     * print "-" when none is installed.
     */
    void printHealthScoreboard(std::ostream &os,
                               const PipelineReport &report) const;

    const ServingConfig &config() const { return config_; }

    /** Per-slot value-buffer pool counters (asserting buffer reuse in
     *  tests). */
    std::vector<VectorPool::Stats>
    slotPoolStats() const
    {
        std::vector<VectorPool::Stats> stats;
        stats.reserve(slotPools_.size());
        for (const VectorPool &pool : slotPools_)
            stats.push_back(pool.stats());
        return stats;
    }

  private:
    unsigned pickEngine(std::size_t batchOrdinal,
                        const std::vector<Tick> &engineFree) const;
    /** Running p-th percentile of completed service times. */
    Tick serviceP(double pct) const;

    ServingConfig config_;
    std::vector<EngineReplica> &replicas_;
    const embedding::EmbeddingStore *store_;
    /** Per-slot value-buffer pools (index = batch % pipelineDepth). */
    std::vector<VectorPool> slotPools_;
    /** Completed service times (started -> complete), for hedging. */
    std::vector<Tick> serviceHistory_;

    Counter servedBatches_;
    Counter servedQueries_;
    Counter hedgesIssued_;
    Counter hedgesWon_;
    Counter prepareTicks_;
    Counter dispatchWaitTicks_;
    std::vector<std::unique_ptr<Counter>> perEngineBatches_;
    std::vector<std::unique_ptr<Counter>> perEngineBusyTicks_;
};

} // namespace fafnir::core

#endif // FAFNIR_FAFNIR_SERVING_HH
