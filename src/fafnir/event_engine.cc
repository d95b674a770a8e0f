/**
 * @file
 * Implementation of the event-driven Fafnir engine.
 */

#include "event_engine.hh"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/attribution.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::core
{

namespace
{

/** One leaf input's originating DRAM read. */
struct LeafRead
{
    unsigned rank = 0;
    Tick firstData = 0;
    Tick complete = 0;
    std::uint64_t flow = 0;
};

/** Service-track thread for per-query delivery spans (0..2 are the
 *  open-loop queue/serve/guard rows). */
constexpr int kServiceDeliveryTid = 3;

/** Empty wait list. */
constexpr std::uint32_t kNoOutput = ~std::uint32_t(0);

} // namespace

/**
 * Live pipeline state of one lookup, in flat arrays over the whole tree:
 * PE p's side-s inputs are the flat ids pes[p].inBase[s] + i and its
 * outputs pes[p].outBase + k. A handful of allocations per batch,
 * whatever the tree size.
 */
struct EventDrivenEngine::Pipeline
{
    struct Pe
    {
        std::uint32_t inBase[2] = {0, 0};
        std::uint32_t expected[2] = {0, 0};
        std::uint32_t arrived[2] = {0, 0};
        /** Arrived inputs not yet consumed by every output (FIFO). */
        std::uint32_t occupancy[2] = {0, 0};
        std::uint32_t outBase = 0;
        std::uint32_t emitted = 0;
        /** Forwards (local output index) whose provenance has arrived
         *  but which wait for side s to complete, linked via nextWait. */
        std::uint32_t waitHead[2] = {kNoOutput, kNoOutput};
        /** Output-port availability (one emission per issue interval). */
        Tick pipeFree = 0;
        /** Emission latency of a reduce [0] / forward [1]. */
        Tick pathTicks[2] = {0, 0};
    };

    /** Build the ready counters of @p run's trace. */
    Pipeline(EventDrivenEngine &engine, const TreeRun &run,
             EventLookupTiming &timing, Tick start, unsigned vector_bytes);
    // Scheduled deliveries hold its address.
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Input @p input of PE @p pe arrives now. */
    void deliver(std::uint32_t pe, std::uint32_t input);
    /** Emit local output @p k of PE @p pe. */
    void emit(std::uint32_t pe, std::uint32_t k);
    /** Queue output @p k of @p pe, or park it on a side it waits for. */
    void admit(Pe &pe, std::uint32_t k, bool first_wait);
    void occupancyChanged(std::uint32_t pe, int delta, Tick at);

    EventDrivenEngine &engine;
    const TreeRun &run;
    EventLookupTiming &timing;
    const Tick start;
    const unsigned vectorBytes;
    telemetry::TraceSink *const ts = instruments().trace;
    fault::FaultPlan *const faults = instruments().faults;

    std::vector<Pe> pes;
    /** Per flat input: arrival tick (MaxTick = not yet), outputs still
     *  to consume it, and its consumers (CSR into consumers). */
    std::vector<Tick> arrival;
    std::vector<std::uint32_t> uses;
    std::vector<std::uint32_t> consumerStart;
    std::vector<std::uint32_t> consumers;
    /** Originating read of each leaf input. Leaf PEs have the largest
     *  ids, so their inputs are the flat ids from leafBase on. */
    std::uint32_t leafBase = 0;
    std::vector<LeafRead> leafRead;
    /** Per flat output: provenance entries still missing, emission tick
     *  (MaxTick = not yet), the sides a forward needs complete (bit s),
     *  and the wait-list link. */
    std::vector<std::uint32_t> missing;
    std::vector<Tick> emitTick;
    std::vector<std::uint8_t> needSides;
    std::vector<std::uint32_t> nextWait;
    /** Outputs one delivery unblocked (local indices). */
    std::vector<std::uint32_t> unblocked;
    /** Items buffered per tree level (trace counter tracks). */
    std::vector<std::int64_t> levelOccupancy;
};

EventDrivenEngine::Pipeline::Pipeline(EventDrivenEngine &engine,
                                      const TreeRun &run,
                                      EventLookupTiming &timing, Tick start,
                                      unsigned vector_bytes)
    : engine(engine), run(run), timing(timing), start(start),
      vectorBytes(vector_bytes)
{
    const TreeTopology &topology = engine.topology_;
    const EngineConfig &base = engine.config_.base;
    const unsigned num_pes = topology.numPes();
    pes.resize(num_pes + 1);
    std::uint32_t num_inputs = 0;
    std::uint32_t num_outputs = 0;
    for (unsigned p = 1; p <= num_pes; ++p) {
        Pe &pe = pes[p];
        const PeTrace &trace = run.trace[p];
        for (int side = 0; side < 2; ++side) {
            pe.inBase[side] = num_inputs;
            pe.expected[side] =
                static_cast<std::uint32_t>(trace.inputs[side]);
            num_inputs += pe.expected[side];
        }
        pe.outBase = num_outputs;
        num_outputs += static_cast<std::uint32_t>(trace.outputs.size());
        pe.pipeFree = start;
        // Outputs leaving a DIMM/rank node cross an inter-chip link.
        Cycles link = 0;
        if (topology.numLevels() > base.channelNodeLevels &&
            topology.heightOf(p) ==
                topology.numLevels() - 1 - base.channelNodeLevels) {
            link = base.interNodeLinkCycles;
        }
        pe.pathTicks[0] =
            (base.latency.reducePath() + base.latency.merge + link) *
            engine.pePeriod_;
        pe.pathTicks[1] =
            (base.latency.forwardPath() + base.latency.merge + link) *
            engine.pePeriod_;
    }

    arrival.assign(num_inputs, MaxTick);
    consumerStart.assign(num_inputs + 1, 0);
    leafBase = pes[topology.numLeafPes()].inBase[0];
    leafRead.resize(num_inputs - leafBase);
    missing.resize(num_outputs);
    emitTick.assign(num_outputs, MaxTick);
    needSides.assign(num_outputs, 0);
    nextWait.resize(num_outputs);
    levelOccupancy.assign(topology.numLevels(), 0);

    // Consumer lists: count per input, prefix-sum to list ends, then
    // fill back to front so every list stays in ascending output order.
    for (unsigned p = 1; p <= num_pes; ++p) {
        const Pe &pe = pes[p];
        for (std::uint32_t k = 0; k < run.trace[p].outputs.size(); ++k) {
            const OutputRef out = run.output(p, k);
            FAFNIR_ASSERT(!out.sources.empty(), "output without sources");
            missing[pe.outBase + k] =
                static_cast<std::uint32_t>(out.sources.size());
            for (const Provenance &src : out.sources) {
                ++consumerStart[pe.inBase[src.side] + src.index];
                // A forward is only certain once the opposite side of
                // each of its sources is complete.
                if (out.action == PeAction::Forward)
                    needSides[pe.outBase + k] |= 1u << (1 - src.side);
            }
        }
    }
    uses.assign(consumerStart.begin(), consumerStart.end() - 1);
    std::partial_sum(consumerStart.begin(), consumerStart.end(),
                     consumerStart.begin());
    consumers.resize(consumerStart.back());
    for (unsigned p = num_pes; p >= 1; --p) {
        const Pe &pe = pes[p];
        for (auto k = static_cast<std::uint32_t>(run.trace[p].outputs.size());
             k-- > 0;)
            for (const Provenance &src : run.output(p, k).sources)
                consumers[--consumerStart[pe.inBase[src.side] +
                                          src.index]] = k;
    }
}

void
EventDrivenEngine::Pipeline::occupancyChanged(std::uint32_t pe, int delta,
                                              Tick at)
{
    if (!ts)
        return;
    const unsigned height = engine.topology_.heightOf(pe);
    levelOccupancy[height] += delta;
    ts->counterEvent(telemetry::kPidTree,
                     "tree.occupancy.h" + std::to_string(height), at,
                     static_cast<double>(levelOccupancy[height]));
}

void
EventDrivenEngine::Pipeline::admit(Pe &pe, std::uint32_t k,
                                   bool first_wait)
{
    const std::uint8_t need = needSides[pe.outBase + k];
    for (unsigned side = 0; side < 2; ++side) {
        if ((need >> side & 1u) != 0 &&
            pe.arrived[side] < pe.expected[side]) {
            nextWait[pe.outBase + k] = pe.waitHead[side];
            pe.waitHead[side] = k;
            if (first_wait)
                ++timing.forwardWaits;
            return;
        }
    }
    unblocked.push_back(k);
}

void
EventDrivenEngine::Pipeline::deliver(std::uint32_t p, std::uint32_t input)
{
    Pe &pe = pes[p];
    const unsigned side = input >= pe.inBase[1] ? 1 : 0;
    const std::uint32_t index = input - pe.inBase[side];
    const EventEngineConfig &config = engine.config_;
    EventQueue &eq = engine.memory_.eventq();
    Tick at = eq.now();
    ++pe.occupancy[side];
    ++engine.peStats_[p].deliveries;
    occupancyChanged(p, 1, at);
    if (pe.occupancy[side] > config.base.hwBatch) {
        ++timing.fifoOverflows;
        at += config.overflowPenalty * engine.pePeriod_;
    }
    // Injected backpressure (pe_backpressure hook): the arrival stalls
    // as if the FIFO had no free slot, mirroring the organic overflow
    // penalty above. Timing-only — values are untouched.
    if (faults != nullptr) {
        if (const Cycles extra = faults->peBackpressureCycles();
            extra != 0) {
            ++timing.injectedBackpressure;
            at += extra * engine.pePeriod_;
            if (ts) {
                ts->instantEvent(telemetry::kPidTree, static_cast<int>(p),
                                 "fault", "pe_backpressure", at,
                                 {{"cycles", static_cast<double>(extra)}});
            }
        }
    }
    FAFNIR_ASSERT(arrival[input] == MaxTick, "duplicate delivery");
    arrival[input] = at;
    ++pe.arrived[side];
    if (config.recordTimeline) {
        timing.timeline.push_back(
            {at, p, "deliver", side * pe.expected[0] + index});
    }

    // Outputs this arrival completes, then forwards released by the
    // side completing; emitted in ascending output index. Emitting never
    // changes another output's readiness, so one pass suffices.
    unblocked.clear();
    for (std::uint32_t c = consumerStart[input];
         c < consumerStart[input + 1]; ++c) {
        const std::uint32_t k = consumers[c];
        if (--missing[pe.outBase + k] == 0)
            admit(pe, k, /*first_wait=*/true);
    }
    if (pe.arrived[side] == pe.expected[side]) {
        std::uint32_t k = pe.waitHead[side];
        pe.waitHead[side] = kNoOutput;
        while (k != kNoOutput) {
            const std::uint32_t next = nextWait[pe.outBase + k];
            admit(pe, k, /*first_wait=*/false);
            k = next;
        }
    }
    std::sort(unblocked.begin(), unblocked.end());
    for (const std::uint32_t k : unblocked)
        emit(p, k);
}

void
EventDrivenEngine::Pipeline::emit(std::uint32_t p, std::uint32_t k)
{
    Pe &pe = pes[p];
    const OutputRef out = run.output(p, k);
    const EventEngineConfig &config = engine.config_;
    EventQueue &eq = engine.memory_.eventq();
    const Tick period = engine.pePeriod_;
    const bool is_reduce = out.action == PeAction::Reduce;

    // All provenance has arrived; the latest arrival gates the output.
    Tick t = start;
    for (const Provenance &src : out.sources)
        t = std::max(t, arrival[pe.inBase[src.side] + src.index]);
    const Tick rem = t % period;
    if (rem != 0)
        t += period - rem;
    t += pe.pathTicks[is_reduce ? 0 : 1];
    t = std::max(t, pe.pipeFree);
    // The emit decision is made now (e.g., a forward that was waiting
    // for the opposite side to complete).
    t = std::max(t, eq.now());
    const Tick issue_ticks = config.base.latency.issue * period;
    pe.pipeFree = t + issue_ticks;

    // Consume inputs; free FIFO slots at last use.
    for (const Provenance &src : out.sources) {
        std::uint32_t &left = uses[pe.inBase[src.side] + src.index];
        FAFNIR_ASSERT(left > 0, "provenance double-free");
        if (--left == 0) {
            --pe.occupancy[src.side];
            occupancyChanged(p, -1, t);
        }
    }

    emitTick[pe.outBase + k] = t;
    ++pe.emitted;
    timing.linkPayloadBytes += vectorBytes;
    PeTelemetry &activity = engine.peStats_[p];
    ++activity.outputs;
    if (is_reduce)
        ++activity.reduces;
    else
        ++activity.forwards;
    activity.busyTicks += issue_ticks;
    if (ts) {
        // Tagged with the item's originating query ids and the causal
        // flow of the arrival that unblocked it.
        const auto &qids = out.queries;
        ts->completeEvent(
            telemetry::kPidTree, static_cast<int>(p), "pe",
            is_reduce ? "reduce" : "forward", t, issue_ticks,
            {{"queries", static_cast<double>(qids.size())},
             {"q0", qids.empty() ? -1.0 : static_cast<double>(qids[0])},
             {"flow", static_cast<double>(eq.currentFlow())}});
    }
    if (config.recordTimeline)
        timing.timeline.push_back({t, p, "emit", k});

    if (p != TreeTopology::rootPe()) {
        // Children's outputs land in the parent's input list in trace
        // order.
        const std::uint32_t parent = engine.topology_.parent(p);
        const unsigned side = p % 2 == 0 ? 0 : 1;
        const std::uint32_t input = pes[parent].inBase[side] + k;
        const auto delivery = [this, parent, input] {
            deliver(parent, input);
        };
        static_assert(EventQueue::fitsInline<decltype(delivery)>,
                      "a PE delivery must fit an event node inline");
        eq.scheduleFn(t, delivery);
    }
}

EventDrivenEngine::EventDrivenEngine(dram::MemorySystem &memory,
                                     const embedding::VectorLayout &layout,
                                     const EventEngineConfig &config,
                                     const embedding::EmbeddingStore *store)
    : memory_(memory), layout_(layout), config_(config),
      topology_(memory.geometry().totalRanks(),
                config.base.ranksPerLeafPe),
      host_(layout, store), tree_(topology_),
      pePeriod_(periodFromMhz(config.base.peClockMhz)),
      peStats_(topology_.numPes() + 1)
{
    if (config_.base.interactive)
        config_.base.latency.compare = 0;
}

void
EventDrivenEngine::registerStats(StatGroup &group) const
{
    for (unsigned pe = 1; pe <= topology_.numPes(); ++pe) {
        const std::string prefix = "pe" + std::to_string(pe);
        const PeTelemetry &activity = peStats_[pe];
        group.addCounter(prefix + ".deliveries", activity.deliveries,
                         "inputs delivered to PE " + std::to_string(pe));
        group.addCounter(prefix + ".outputs", activity.outputs,
                         "outputs emitted");
        group.addCounter(prefix + ".reduces", activity.reduces,
                         "reduce emissions");
        group.addCounter(prefix + ".forwards", activity.forwards,
                         "forward emissions");
        group.addFormula(
            prefix + ".occupancy",
            [this, pe] {
                const std::uint64_t active = activeTicks_.value();
                return active == 0
                    ? 0.0
                    : static_cast<double>(
                          peStats_[pe].busyTicks.value()) /
                          static_cast<double>(active);
            },
            "output-port busy fraction over simulated time");
    }
}

std::vector<EventLookupTiming>
EventDrivenEngine::lookupMany(const std::vector<embedding::Batch> &batches,
                              Tick start)
{
    std::vector<EventLookupTiming> timings;
    timings.reserve(batches.size());
    Tick t = start;
    for (const auto &batch : batches) {
        timings.push_back(lookup(batch, t));
        t = timings.back().memLast;
    }
    return timings;
}

EventLookupTiming
EventDrivenEngine::lookup(const embedding::Batch &batch, Tick start)
{
    PreparedBatch prepared =
        host_.prepare(batch, config_.base.dedup, config_.base.payload);
    return lookupPrepared(prepared, start);
}

EventLookupTiming
EventDrivenEngine::lookupPrepared(PreparedBatch &prepared, Tick start)
{
    // Transport width under the batch's payload format (fp32 keeps the
    // historical 4*dim): shared by the DRAM reads, every PE-link
    // emission, and the root-link serialization below.
    const auto vector_bytes = static_cast<unsigned>(
        prepared.vectorPayloadBytes(layout_.tables().dim()));
    const unsigned num_pes = topology_.numPes();
    EventQueue &eq = memory_.eventq();
    // The event clock only moves forward; an earlier logical start would
    // schedule completions in the past.
    start = std::max(start, eq.now());

    scheduleReads(prepared, config_.base.readOrder, memory_.mapper());
    TreeRun run = tree_.run(prepared, config_.computeValues,
                            /*keep_trace=*/true, config_.reduceOp);

    EventLookupTiming timing;
    timing.issued = start;
    timing.memAccesses = prepared.accessCount;
    timing.uniqueCount = prepared.uniqueCount;
    timing.totalReferences = prepared.totalReferences;
    timing.activity = run.total;
    timing.rootCombines = run.rootCombines;
    timing.maxPeOutputs = run.maxPeOutputs;
    timing.payload = prepared.payload;
    timing.dramPayloadBytes =
        static_cast<std::uint64_t>(prepared.accessCount) * vector_bytes;
    if (run.maxPeOutputs > config_.base.hwBatch)
        ++timing.bufferOverflows;

    // --- Ready counters over the functional trace. ----------------------
    Pipeline pipe(*this, run, timing, start, vector_bytes);

    // --- Timeline tracing (no-ops when no sink is installed). -----------
    telemetry::TraceSink *ts = pipe.ts;
    telemetry::Attribution *attr = instruments().attribution;
    const std::uint64_t batch_ordinal = attr ? attr->beginBatch() : 0;
    if (ts) {
        for (unsigned pe = 1; pe <= num_pes; ++pe) {
            ts->setThreadName(
                telemetry::kPidTree, static_cast<int>(pe),
                "PE " + std::to_string(pe) + " (h" +
                    std::to_string(topology_.heightOf(pe)) + ")");
        }
    }

    // --- Issue the DRAM reads; completions drive the pipeline. ----------
    // Each read starts a fresh causal flow: its completion one-shot and
    // everything that one-shot schedules (the whole delivery chain up
    // the tree) inherit the flow id through the event queue. A rank's
    // reads follow those of earlier ranks on the same leaf input side
    // (the functional assembly order).
    std::vector<std::uint32_t> next_leaf_input(2 * (num_pes + 1));
    for (unsigned pe = 1; pe <= num_pes; ++pe)
        for (unsigned side = 0; side < 2; ++side)
            next_leaf_input[2 * pe + side] = pipe.pes[pe].inBase[side];
    timing.memFirst = MaxTick;
    timing.memLast = start;
    for (unsigned rank = 0; rank < topology_.numRanks(); ++rank) {
        const std::uint32_t pe = topology_.leafPeOf(rank);
        std::uint32_t &input =
            next_leaf_input[2 * pe + topology_.sideOf(rank)];
        for (const auto &read : prepared.rankReads[rank]) {
            const std::uint64_t flow = eq.beginFlow();
            const auto result = memory_.readAsync(
                read.address, vector_bytes, start, dram::Destination::Ndp,
                [p = &pipe, pe, input](Tick, const dram::AccessResult &) {
                    p->deliver(pe, input);
                });
            pipe.leafRead[input - pipe.leafBase] =
                LeafRead{rank, result.firstData, result.complete, flow};
            ++input;
            timing.memFirst = std::min(timing.memFirst, result.firstData);
            timing.memLast = std::max(timing.memLast, result.complete);
        }
    }
    eq.setCurrentFlow(0);
    if (timing.memFirst == MaxTick)
        timing.memFirst = start;

    eq.run();

    for (unsigned pe = 1; pe <= num_pes; ++pe) {
        FAFNIR_ASSERT(pipe.pes[pe].emitted == run.trace[pe].outputs.size(),
                      "PE ", pe, " stalled: ", pipe.pes[pe].emitted, "/",
                      run.trace[pe].outputs.size(), " outputs emitted");
    }

    // --- Per-query completion and root-link serialization. --------------
    const Tick *root_times =
        pipe.emitTick.data() + pipe.pes[TreeTopology::rootPe()].outBase;
    const std::size_t num_queries = prepared.sets.numQueries();
    std::vector<std::pair<Tick, QueryId>> finish_order;
    finish_order.reserve(num_queries);
    std::vector<Tick> query_ready(num_queries, start);
    for (QueryId q = 0; q < num_queries; ++q) {
        const auto outputs = run.rootOutputsOf(q);
        Tick tq = start;
        for (const std::uint32_t k : outputs) {
            FAFNIR_ASSERT(root_times[k] != MaxTick,
                          "root output never emitted");
            tq = std::max(tq, root_times[k]);
        }
        tq += (outputs.size() - 1) * config_.base.latency.reduceValue *
              pePeriod_;
        query_ready[q] = tq;
        finish_order.emplace_back(tq, q);
    }
    std::sort(finish_order.begin(), finish_order.end());

    const auto transfer_ticks = static_cast<Tick>(
        static_cast<double>(vector_bytes) / config_.base.rootLinkGBs *
        1000.0);
    Tick link_free = 0;
    timing.queryComplete.assign(num_queries, 0);
    std::vector<Tick> link_start(num_queries, 0);
    for (const auto &[ready, q] : finish_order) {
        link_start[q] = std::max(ready, link_free);
        const Tick done = link_start[q] + transfer_ticks;
        timing.queryComplete[q] =
            done + config_.base.hostReceiveOverhead;
        link_free = done;
    }
    timing.complete = link_free + config_.base.hostReceiveOverhead;

    // --- Causal attribution: walk each query's critical path. -----------
    //
    // The path runs backwards from the query's last root output through
    // the maximum-arrival ("binding") source at every PE down to a leaf
    // input, i.e. to one DRAM read. Each hop's interval [previous stage
    // end, emission] splits exactly into pipeline compute and waiting,
    // so the recorded components sum to the end-to-end latency by
    // construction (pinned by tests/test_attribution.cc).
    if (attr || ts || instruments().recorder != nullptr) {
        if (ts) {
            ts->setThreadName(telemetry::kPidService,
                              kServiceDeliveryTid, "delivery");
        }
        struct Hop
        {
            unsigned pe;
            std::size_t out;
        };
        std::vector<Hop> path;
        for (QueryId q = 0; q < num_queries; ++q) {
            // Root output of q that bounds its tree time (the first of
            // the latest).
            const auto outputs = run.rootOutputsOf(q);
            if (outputs.empty())
                continue; // nothing reached the root for this query
            std::size_t k_last = outputs.front();
            for (const std::uint32_t k : outputs)
                if (root_times[k] > root_times[k_last])
                    k_last = k;
            const Tick t_last = root_times[k_last];

            // Back-walk to the leaf, following binding arrivals.
            path.clear();
            unsigned pe = TreeTopology::rootPe();
            std::size_t k = k_last;
            std::uint32_t leaf_input = 0;
            while (true) {
                path.push_back({pe, k});
                const Pipeline::Pe &state = pipe.pes[pe];
                const OutputRef out = run.output(pe, k);
                const Provenance *bind = nullptr;
                Tick best = 0;
                for (const Provenance &src : out.sources) {
                    const Tick t =
                        pipe.arrival[state.inBase[src.side] + src.index];
                    if (bind == nullptr || t > best) {
                        bind = &src;
                        best = t;
                    }
                }
                if (topology_.heightOf(pe) == 0) {
                    leaf_input = state.inBase[bind->side] + bind->index;
                    break;
                }
                pe = 2 * pe + bind->side;
                k = bind->index;
            }
            const LeafRead &lr = pipe.leafRead[leaf_input - pipe.leafBase];

            // Memory interval: isolated service vs. contention.
            const Tick mem_interval = lr.complete - start;
            const Tick dram_service = std::min(
                mem_interval, memory_.closedRowReadLatency());
            const Tick ctrl_queue = mem_interval - dram_service;

            // PE hops, leaf to root.
            Tick pe_compute = 0;
            Tick forward_wait = 0;
            Tick prev = lr.complete;
            for (auto it = path.rbegin(); it != path.rend(); ++it) {
                const Pipeline::Pe &state = pipe.pes[it->pe];
                const OutputRef out = run.output(it->pe, it->out);
                const Tick compute = state.pathTicks[
                    out.action == PeAction::Reduce ? 0 : 1];
                const Tick emit = pipe.emitTick[state.outBase + it->out];
                pe_compute += compute;
                forward_wait += emit - prev - compute;
                prev = emit;
            }
            // Serial root combines of this query count as compute.
            pe_compute += query_ready[q] - t_last;

            telemetry::QueryAttribution qa;
            qa.batch = batch_ordinal;
            qa.query = q;
            qa.issued = start;
            qa.complete = timing.queryComplete[q];
            qa.dramService = dram_service;
            qa.ctrlQueue = ctrl_queue;
            qa.peCompute = pe_compute;
            qa.forwardWait = forward_wait;
            qa.serviceQueue = timing.queryComplete[q] - query_ready[q];
            qa.criticalRank = lr.rank;
            qa.hops = static_cast<unsigned>(path.size());
            qa.flow = lr.flow;
            if (attr)
                attr->recordQuery(qa);

            if (ts) {
                // Perfetto arrows along the critical path: DRAM read
                // span → each PE emission span → the delivery span.
                const std::uint64_t fid = ts->newFlowId();
                const std::string label = "q" + std::to_string(q);
                ts->flowBegin(fid, telemetry::kPidDram,
                              static_cast<int>(lr.rank), "attrib.flow",
                              label, lr.firstData);
                for (auto it = path.rbegin(); it != path.rend(); ++it) {
                    ts->flowStep(
                        fid, telemetry::kPidTree, static_cast<int>(it->pe),
                        "attrib.flow", label,
                        pipe.emitTick[pipe.pes[it->pe].outBase + it->out]);
                }
                ts->completeEvent(
                    telemetry::kPidService, kServiceDeliveryTid,
                    "service.delivery", label, link_start[q],
                    timing.queryComplete[q] - link_start[q],
                    {{"flow", static_cast<double>(lr.flow)}});
                ts->flowEnd(fid, telemetry::kPidService,
                            kServiceDeliveryTid, "attrib.flow", label,
                            link_start[q]);
            }
        }

        // Reduce emissions of PE p.
        auto reduce_outputs = [&run](unsigned p) {
            std::uint64_t reduces = 0;
            for (std::size_t k = 0; k < run.trace[p].outputs.size(); ++k)
                reduces += run.output(p, k).action == PeAction::Reduce;
            return reduces;
        };
        // Meeting-level histogram: one pairwise merge per reduce
        // emission at that PE's height; the root's serial combines
        // merge at the root level.
        if (attr) {
            for (unsigned p = 1; p <= num_pes; ++p)
                attr->recordMeeting(topology_.heightOf(p),
                                    reduce_outputs(p));
            attr->recordMeeting(topology_.numLevels() - 1,
                                run.rootCombines);
        }
        // Per-PE meeting summary (bounded per batch, off the delivery
        // hot path): code = PE id; a = tree height, b = reduce count.
        if (auto *rec = instruments().recorder) {
            for (unsigned p = 1; p <= num_pes; ++p) {
                const std::uint64_t reduces = reduce_outputs(p);
                if (reduces > 0)
                    rec->record(telemetry::Stage::PeMeeting,
                                timing.complete, p,
                                topology_.heightOf(p), reduces);
            }
        }
    }
    activeTicks_ += timing.complete - start;
    if (config_.computeValues)
        timing.results = std::move(run.results);

    if (config_.recordTimeline) {
        // Stable: same-tick events keep their record order.
        std::stable_sort(timing.timeline.begin(), timing.timeline.end(),
                         [](const TimelineEvent &a,
                            const TimelineEvent &b) {
                             return a.tick < b.tick;
                         });
    }
    return timing;
}

void
writeTimeline(std::ostream &os,
              const std::vector<TimelineEvent> &timeline)
{
    os << "tick\tpe\tkind\tindex\n";
    for (const auto &event : timeline) {
        os << event.tick << '\t' << event.pe << '\t' << event.kind
           << '\t' << event.index << '\n';
    }
}

} // namespace fafnir::core
