/**
 * @file
 * Implementation of the per-query attribution collector.
 */

#include "attribution.hh"

#include <fstream>

#include "common/json.hh"

namespace fafnir::telemetry
{

namespace
{

double
ticksToNs(Tick ticks)
{
    return static_cast<double>(ticks) / kTicksPerNs;
}

} // namespace

void
Attribution::recordQuery(const QueryAttribution &q)
{
    queries_.push_back(q);
    ++recorded_;
    batchPrepareTicks_ += q.batchPrepare;
    dispatchQueueTicks_ += q.dispatchQueue;
    dramServiceTicks_ += q.dramService;
    ctrlQueueTicks_ += q.ctrlQueue;
    peComputeTicks_ += q.peCompute;
    forwardWaitTicks_ += q.forwardWait;
    serviceQueueTicks_ += q.serviceQueue;
    shardCombineTicks_ += q.shardCombine;
    queryLatencyNs_.sample(ticksToNs(q.total()));
    criticalHops_.sample(static_cast<double>(q.hops));
}

void
Attribution::recordMeeting(unsigned height, std::uint64_t merges)
{
    if (merges == 0)
        return;
    if (height >= meetings_.size())
        meetings_.resize(height + 1, 0);
    meetings_[height] += merges;
    merges_ += merges;
}

void
Attribution::recordBatchQueueWait(Tick wait)
{
    batchWaits_.push_back({currentBatch(), wait});
    batchQueueTicks_ += wait;
}

void
Attribution::annotateBatchStages(std::uint64_t batch, Tick prepare,
                                 Tick dispatch)
{
    if (prepare == 0 && dispatch == 0)
        return;
    // A batch's queries are recorded contiguously; scan from the back
    // (the pipeline annotates a batch right after its engine run).
    for (auto it = queries_.rbegin(); it != queries_.rend(); ++it) {
        if (it->batch != batch) {
            if (it->batch < batch)
                break;
            continue;
        }
        it->issued -= prepare + dispatch;
        it->batchPrepare += prepare;
        it->dispatchQueue += dispatch;
        batchPrepareTicks_ += prepare;
        dispatchQueueTicks_ += dispatch;
    }
}

void
Attribution::annotateShardCombine(std::uint64_t batch, Tick combine)
{
    if (combine == 0)
        return;
    // Same contiguity argument as annotateBatchStages: the tier
    // annotates a sub-batch right after its shard's run completed.
    for (auto it = queries_.rbegin(); it != queries_.rend(); ++it) {
        if (it->batch != batch) {
            if (it->batch < batch)
                break;
            continue;
        }
        it->complete += combine;
        it->shardCombine += combine;
        shardCombineTicks_ += combine;
    }
}

double
Attribution::componentCoverage() const
{
    std::uint64_t total = 0;
    std::uint64_t covered = 0;
    for (const auto &q : queries_) {
        total += q.total();
        covered += q.componentSum();
    }
    return total == 0 ? 1.0
                      : static_cast<double>(covered) /
                            static_cast<double>(total);
}

double
Attribution::meanMeetingHeight() const
{
    std::uint64_t merges = 0;
    std::uint64_t weighted = 0;
    for (std::size_t h = 0; h < meetings_.size(); ++h) {
        merges += meetings_[h];
        weighted += meetings_[h] * h;
    }
    return merges == 0 ? 0.0
                       : static_cast<double>(weighted) /
                             static_cast<double>(merges);
}

void
Attribution::registerStats(StatGroup &group)
{
    group.addCounter("queries", recorded_,
                     "queries with a critical-path breakdown");
    group.addCounter("batchPrepareTicks", batchPrepareTicks_,
                     "serving-pipeline host prepare (dedup + headers) "
                     "ahead of engine issue");
    group.addCounter("dispatchQueueTicks", dispatchQueueTicks_,
                     "serving-pipeline wait for a free engine replica");
    group.addCounter("dramServiceTicks", dramServiceTicks_,
                     "critical-path isolated DRAM service time");
    group.addCounter("ctrlQueueTicks", ctrlQueueTicks_,
                     "critical-path memory contention / queue wait");
    group.addCounter("peComputeTicks", peComputeTicks_,
                     "critical-path PE pipeline cycles (incl. root "
                     "combines)");
    group.addCounter("forwardWaitTicks", forwardWaitTicks_,
                     "critical-path stalls beyond compute (alignment, "
                     "issue port, opposite-side waits, overflows)");
    group.addCounter("serviceQueueTicks", serviceQueueTicks_,
                     "critical-path root link + host delivery");
    group.addCounter("shardCombineTicks", shardCombineTicks_,
                     "sharded-tier cross-shard gather (writeback, "
                     "straggler wait, fixed-order combine)");
    group.addCounter("ctrlResidencyTicks", ctrlResidencyTicks_,
                     "total controller queue residency (all requests)");
    group.addCounter("batchQueueTicks", batchQueueTicks_,
                     "open-loop service queueing ahead of the engine");
    group.addCounter("merges", merges_,
                     "pairwise partial-sum merges observed");
    group.addDistribution("queryLatencyNs", queryLatencyNs_,
                          "end-to-end latency of attributed queries");
    group.addDistribution("criticalHops", criticalHops_,
                          "PE hops on the critical path");
    group.addFormula(
        "componentCoverage", [this] { return componentCoverage(); },
        "breakdown sum over end-to-end latency (1.0 = exact)");
    group.addFormula(
        "meanMeetingHeight", [this] { return meanMeetingHeight(); },
        "merge-weighted mean tree height where partial sums met");
}

void
Attribution::write(std::ostream &os) const
{
    JsonWriter json(os, /*pretty=*/false);
    json.beginObject();

    json.key("queries");
    json.beginArray();
    for (const auto &q : queries_) {
        json.beginObject();
        json.member("batch", q.batch);
        json.member("query", static_cast<std::uint64_t>(q.query));
        json.member("issuedNs", ticksToNs(q.issued));
        json.member("totalNs", ticksToNs(q.total()));
        json.member("batchPrepareNs", ticksToNs(q.batchPrepare));
        json.member("dispatchQueueNs", ticksToNs(q.dispatchQueue));
        json.member("dramServiceNs", ticksToNs(q.dramService));
        json.member("ctrlQueueNs", ticksToNs(q.ctrlQueue));
        json.member("peComputeNs", ticksToNs(q.peCompute));
        json.member("forwardWaitNs", ticksToNs(q.forwardWait));
        json.member("serviceQueueNs", ticksToNs(q.serviceQueue));
        json.member("shardCombineNs", ticksToNs(q.shardCombine));
        json.member("criticalRank", q.criticalRank);
        json.member("hops", q.hops);
        json.member("flow", q.flow);
        json.endObject();
    }
    json.endArray();

    json.key("meetingHistogram");
    json.beginArray();
    for (std::size_t h = 0; h < meetings_.size(); ++h) {
        json.beginObject();
        json.member("height", static_cast<std::uint64_t>(h));
        json.member("merges", meetings_[h]);
        json.endObject();
    }
    json.endArray();

    json.key("batchQueueWaits");
    json.beginArray();
    for (const auto &w : batchWaits_) {
        json.beginObject();
        json.member("batch", w.batch);
        json.member("waitNs", ticksToNs(w.wait));
        json.endObject();
    }
    json.endArray();

    json.key("summary");
    json.beginObject();
    json.member("queries",
                static_cast<std::uint64_t>(queries_.size()));
    json.member("componentCoverage", componentCoverage());
    json.member("meanMeetingHeight", meanMeetingHeight());
    json.member("meanLatencyNs", queryLatencyNs_.mean());
    json.member("p99LatencyNs",
                queryLatencyNs_.count() ? queryLatencyNs_.p99() : 0.0);
    json.member("batchPrepareTicks", batchPrepareTicks_.value());
    json.member("dispatchQueueTicks", dispatchQueueTicks_.value());
    json.member("dramServiceTicks", dramServiceTicks_.value());
    json.member("ctrlQueueTicks", ctrlQueueTicks_.value());
    json.member("peComputeTicks", peComputeTicks_.value());
    json.member("forwardWaitTicks", forwardWaitTicks_.value());
    json.member("serviceQueueTicks", serviceQueueTicks_.value());
    json.member("shardCombineTicks", shardCombineTicks_.value());
    json.member("ctrlResidencyTicks", ctrlResidencyTicks_.value());
    json.member("batchQueueTicks", batchQueueTicks_.value());
    json.endObject();

    json.endObject();
    os << '\n';
}

bool
Attribution::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    write(os);
    return static_cast<bool>(os);
}

} // namespace fafnir::telemetry
