/**
 * @file
 * Implementation of the queued memory controller.
 */

#include "controller.hh"

#include <algorithm>

#include "common/debug.hh"
#include "common/faultinject.hh"
#include "telemetry/attribution.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::dram
{

Controller::Controller(MemorySystem &memory, SchedulingPolicy policy,
                       Tick age_cap_ticks)
    : memory_(memory), policy_(policy), ageCap_(age_cap_ticks)
{
    queues_.resize(memory_.geometry().totalRanks());
}

void
Controller::enqueue(Addr addr, unsigned bytes, Tick when,
                    Destination dest, Callback on_complete)
{
    const Coordinates coords = memory_.mapper().decode(addr);
    const unsigned rank = coords.globalRank(memory_.geometry());
    RankQueue &queue = queues_[rank];

    queue.requests.push_back({addr, bytes, dest, when, sequence_++,
                              memory_.eventq().currentFlow(),
                              std::move(on_complete)});
    ++pending_;
    if (auto *ts = instruments().trace) {
        ts->counterEvent(telemetry::kPidDram, "ctrl.pending",
                         std::max(when, memory_.eventq().now()),
                         static_cast<double>(pending_));
    }

    if (!queue.draining) {
        queue.draining = true;
        EventQueue &eq = memory_.eventq();
        eq.scheduleFn(std::max(when, eq.now()),
                      [this, rank] { drain(rank); });
    }
}

std::size_t
Controller::pickNext(const RankQueue &queue, unsigned rank,
                     Tick now) const
{
    // Consider only requests that have arrived.
    std::size_t oldest = queue.requests.size();
    for (std::size_t i = 0; i < queue.requests.size(); ++i) {
        const Request &r = queue.requests[i];
        if (r.arrival > now)
            continue;
        if (oldest == queue.requests.size() ||
            r.sequence < queue.requests[oldest].sequence) {
            oldest = i;
        }
    }
    if (oldest == queue.requests.size())
        return oldest; // nothing arrived yet

    if (policy_ == SchedulingPolicy::Fcfs)
        return oldest;

    // FR-FCFS with an age cap: the oldest request wins outright once it
    // has waited too long.
    if (ageCap_ > 0 &&
        now - queue.requests[oldest].arrival > ageCap_) {
        return oldest;
    }

    std::size_t best_hit = queue.requests.size();
    for (std::size_t i = 0; i < queue.requests.size(); ++i) {
        const Request &r = queue.requests[i];
        if (r.arrival > now)
            continue;
        const Coordinates c = memory_.mapper().decode(r.addr);
        if (memory_.openRow(rank, c.bank) !=
            static_cast<std::int64_t>(c.row)) {
            continue;
        }
        if (best_hit == queue.requests.size() ||
            r.sequence < queue.requests[best_hit].sequence) {
            best_hit = i;
        }
    }
    return best_hit != queue.requests.size() ? best_hit : oldest;
}

void
Controller::drain(unsigned rank)
{
    RankQueue &queue = queues_[rank];
    EventQueue &eq = memory_.eventq();
    const Tick now = eq.now();

    if (queue.requests.empty()) {
        queue.draining = false;
        return;
    }

    // Transient command stall (dram_stall hook): the controller backs
    // off and re-drains later, so a stalled pick is a delayed issue — a
    // retry in controller terms — not a lost request.
    if (fault::FaultPlan *p = instruments().faults; p != nullptr) {
        if (const Tick stall = p->dramStallTicks(); stall != 0) {
            ++stalled_;
            if (auto *ts = instruments().trace) {
                ts->instantEvent(telemetry::kPidDram,
                                 static_cast<int>(rank), "fault",
                                 "dram_stall", now,
                                 {{"stallNs", static_cast<double>(stall) /
                                                  kTicksPerNs}});
            }
            eq.scheduleFn(now + stall, [this, rank] { drain(rank); });
            return;
        }
    }

    const std::size_t pick = pickNext(queue, rank, now);
    if (pick == queue.requests.size()) {
        // Nothing has arrived yet; wake at the earliest arrival.
        Tick earliest = MaxTick;
        for (const Request &r : queue.requests)
            earliest = std::min(earliest, r.arrival);
        eq.scheduleFn(earliest, [this, rank] { drain(rank); });
        return;
    }

    // Out-of-order issue if any arrived request is older than the pick.
    const Request picked = std::move(queue.requests[pick]);
    for (const Request &r : queue.requests) {
        if (r.arrival <= now && r.sequence < picked.sequence) {
            ++reordered_;
            break;
        }
    }
    queue.requests.erase(queue.requests.begin() +
                         static_cast<std::ptrdiff_t>(pick));

    const Tick issue_at = std::max(now, queue.nextIssue);
    // Restore the enqueuer's flow so the read's trace span and the
    // completion callback chain stay attributed to the right query.
    eq.setCurrentFlow(picked.flow);
    const AccessResult result =
        memory_.read(picked.addr, picked.bytes, issue_at, picked.dest);
    FAFNIR_DPRINTF(Controller, "rank ", rank, " issued 0x", std::hex,
                   picked.addr, std::dec, " at ", issue_at,
                   " complete ", result.complete, " (",
                   result.rowHits ? "hit" : "miss", ")");
    // The next command can go out once this one's data window starts.
    queue.nextIssue = result.firstData;
    ++issued_;
    --pending_;
    if (auto *ts = instruments().trace) {
        // Queueing + service lifetime of the request on its rank track.
        ts->completeEvent(telemetry::kPidDram, static_cast<int>(rank),
                          "dram.ctrl", "request", picked.arrival,
                          result.complete - picked.arrival,
                          {{"queuedTicks",
                            static_cast<double>(issue_at -
                                                picked.arrival)},
                           {"flow",
                            static_cast<double>(picked.flow)}});
        ts->counterEvent(telemetry::kPidDram, "ctrl.pending", now,
                         static_cast<double>(pending_));
    }
    if (auto *attr = instruments().attribution)
        attr->recordCtrlResidency(issue_at - picked.arrival);

    if (picked.onComplete) {
        eq.scheduleFn(result.complete,
                      [cb = std::move(picked.onComplete), result] {
                          cb(result.complete, result);
                      },
                      Event::DramPriority);
    }
    eq.setCurrentFlow(0);

    if (queue.requests.empty()) {
        queue.draining = false;
    } else {
        eq.scheduleFn(std::max(now, queue.nextIssue),
                      [this, rank] { drain(rank); });
    }
}

void
Controller::registerStats(StatGroup &group) const
{
    group.addCounter("issued", issued_, "requests issued to DRAM");
    group.addCounter("reordered", reordered_,
                     "issues that bypassed an older request");
    group.addCounter("stalled", stalled_,
                     "drain passes delayed by an injected command stall");
}

} // namespace fafnir::dram
