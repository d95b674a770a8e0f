/**
 * @file
 * Implementation of the open-loop serving model.
 */

#include "service.hh"

#include <algorithm>
#include <cstdio>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/attribution.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::embedding
{

Tick
ServiceReport::percentileTotal(double p) const
{
    FAFNIR_ASSERT(!requests.empty(), "empty report");
    FAFNIR_ASSERT(p >= 0.0 && p <= 1.0, "percentile out of range");
    std::vector<Tick> totals;
    totals.reserve(requests.size());
    for (const auto &r : requests)
        totals.push_back(r.totalTime());
    std::sort(totals.begin(), totals.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(totals.size() - 1));
    return totals[idx];
}

double
ServiceReport::meanQueueTicks() const
{
    if (requests.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : requests)
        sum += static_cast<double>(r.queueTime());
    return sum / static_cast<double>(requests.size());
}

ServiceReport
serveOpenLoop(const std::vector<Batch> &batches, Tick inter_arrival,
              const std::function<Tick(const Batch &, Tick)> &serve)
{
    FAFNIR_ASSERT(inter_arrival > 0, "zero inter-arrival time");

    ServiceReport report;
    report.requests.reserve(batches.size());
    if (auto *ts = instruments().trace) {
        ts->setThreadName(telemetry::kPidService, 0, "queue");
        ts->setThreadName(telemetry::kPidService, 1, "serve");
    }
    Tick engine_free = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        ServedRequest request;
        request.arrival = static_cast<Tick>(i) * inter_arrival;
        request.started = std::max(request.arrival, engine_free);
        request.completed = serve(batches[i], request.started);
        FAFNIR_ASSERT(request.completed >= request.started,
                      "service went backwards");
        engine_free = request.completed;
        if (auto *ts = instruments().trace) {
            // Queueing and service phases of each batch as stacked spans,
            // joined by a flow arrow when the batch actually queued.
            const std::string label = "batch " + std::to_string(i);
            if (request.queueTime() > 0) {
                ts->completeEvent(telemetry::kPidService, 0,
                                  "service.queue", label + " (queued)",
                                  request.arrival, request.queueTime());
            }
            ts->completeEvent(telemetry::kPidService, 1, "service.serve",
                              label, request.started,
                              request.serviceTime());
            if (request.queueTime() > 0) {
                const std::uint64_t fid = ts->newFlowId();
                ts->flowBegin(fid, telemetry::kPidService, 0,
                              "service.flow", label, request.arrival);
                ts->flowEnd(fid, telemetry::kPidService, 1,
                            "service.flow", label, request.started);
            }
        }
        if (auto *attr = instruments().attribution)
            attr->recordBatchQueueWait(request.queueTime());
        report.requests.push_back(request);
    }

    // Saturated when the queue delay keeps growing through the run:
    // compare mean queueing of the last quarter against the first.
    const std::size_t n = report.requests.size();
    if (n >= 8) {
        auto mean_queue = [&](std::size_t lo, std::size_t hi) {
            double sum = 0.0;
            for (std::size_t i = lo; i < hi; ++i)
                sum += static_cast<double>(
                    report.requests[i].queueTime());
            return sum / static_cast<double>(hi - lo);
        };
        const double head = mean_queue(0, n / 4);
        const double tail = mean_queue(n - n / 4, n);
        report.saturated = tail > 2.0 * head + 1000.0;
    }
    return report;
}

const char *
toString(DegradeReason reason)
{
    switch (reason) {
      case DegradeReason::None:
        return "none";
      case DegradeReason::InvalidQuery:
        return "invalid-query";
      case DegradeReason::DeadlineExceeded:
        return "deadline-exceeded";
      case DegradeReason::FaultPersisted:
        return "fault-persisted";
    }
    return "unknown";
}

namespace
{

/** A degradation/recovery instant on the service trace track. */
void
traceGuard(const char *what, Tick at, double value)
{
    if (auto *ts = instruments().trace) {
        ts->instantEvent(telemetry::kPidService, 2, "service.guard",
                         what, at, {{"n", value}});
    }
}

} // namespace

ServiceGuard::ServiceGuard(const GuardConfig &config, ServeFn serve)
    : config_(config), serve_(std::move(serve))
{
    FAFNIR_ASSERT(config_.maxAttempts >= 1,
                  "guard needs at least one serving attempt");
    if (auto *ts = instruments().trace)
        ts->setThreadName(telemetry::kPidService, 2, "guard");
}

GuardedRequest
ServiceGuard::serve(const Batch &batch, Tick arrival)
{
    ++requests_;
    GuardedRequest request;
    request.arrival = arrival;
    request.outcomes.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        request.outcomes[i].position = i;

    // Admission: defective queries never reach the engine — they come
    // back tagged with the defect that rejected them.
    for (const QueryIssue &issue :
         batch.validate(config_.indexLimit, config_.maxQueryWidth)) {
        QueryOutcome &outcome = request.outcomes[issue.position];
        outcome.reason = DegradeReason::InvalidQuery;
        outcome.defect = issue.defect;
        ++rejected_;
        traceGuard("rejected", arrival,
                   static_cast<double>(issue.position));
    }

    std::vector<std::size_t> pending;
    pending.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (request.outcomes[i].reason == DegradeReason::None)
            pending.push_back(i);
    }

    request.started = std::max(arrival, engineFree_);
    Tick at = request.started;
    Tick last_complete = request.started;
    Tick backoff = config_.retryBackoff;
    unsigned attempt = 0;
    bool fault_persisted = false;

    // SLO-driven load shed: while a burn-rate alert is active, serve
    // with a single attempt so the queue drains instead of compounding
    // the overload with retries. The decision is taken once, at
    // admission, so one request sees one consistent policy.
    unsigned allowed_attempts = config_.maxAttempts;
    if (config_.sloLoadShed) {
        telemetry::SloMonitor *monitor = instruments().slo;
        if (monitor != nullptr && monitor->anyActive()) {
            allowed_attempts = 1;
            ++shedRequests_;
            traceGuard("shed", arrival, 1.0);
        }
    }

    while (!pending.empty() && attempt < allowed_attempts) {
        ++attempt;

        // The engine contract (Batch::check) wants dense ids, so each
        // attempt serves a renumbered sub-batch of the pending queries.
        Batch sub;
        sub.queries.reserve(pending.size());
        for (std::size_t k = 0; k < pending.size(); ++k) {
            Query q = batch.queries[pending[k]];
            q.id = static_cast<QueryId>(k);
            sub.queries.push_back(std::move(q));
        }
        for (std::size_t pos : pending)
            ++request.outcomes[pos].attempts;

        fault::FaultPlan *plan = instruments().faults;
        const std::uint64_t fired_before =
            plan != nullptr ? plan->totalFired() : 0;
        const ServeSample sample = serve_(sub, at);
        FAFNIR_ASSERT(sample.complete >= at, "service went backwards");
        last_complete = sample.complete;
        const bool faulted = config_.retryOnFault && plan != nullptr &&
                             plan->totalFired() > fired_before;

        if (faulted && attempt < allowed_attempts) {
            // Transient faults detected: the whole attempt is suspect.
            // Discard it and retry everything still pending, after an
            // exponentially growing backoff.
            ++retries_;
            traceGuard("retry", sample.complete,
                       static_cast<double>(attempt));
            at = sample.complete + backoff;
            backoff *= 2;
            continue;
        }
        if (faulted && attempt < config_.maxAttempts)
            ++shedRetries_; // a retry the active shed suppressed
        fault_persisted = faulted;

        // Accept completions, collecting per-query deadline misses.
        std::vector<std::size_t> missed;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            const std::size_t pos = pending[k];
            const Tick done = k < sample.queryComplete.size()
                                  ? sample.queryComplete[k]
                                  : sample.complete;
            if (config_.queryDeadline != 0 &&
                done > arrival + config_.queryDeadline) {
                ++timeouts_;
                traceGuard("timeout", done, static_cast<double>(pos));
                if (auto *rec = instruments().recorder) {
                    char detail[96];
                    std::snprintf(
                        detail, sizeof detail,
                        "query %llu missed deadline by %llu ticks",
                        static_cast<unsigned long long>(pos),
                        static_cast<unsigned long long>(
                            done - arrival - config_.queryDeadline));
                    rec->trigger(telemetry::Trigger::DeadlineMiss, done,
                                 detail);
                }
                missed.push_back(pos);
            } else {
                request.outcomes[pos].completed = done;
            }
        }

        if (missed.empty())
            pending.clear();
        else
            pending.swap(missed);
        if (!pending.empty() && attempt < allowed_attempts) {
            // Deadline misses are retried alone: met queries keep their
            // results, the stragglers get a fresh (smaller) attempt.
            ++retries_;
            traceGuard("retry", last_complete,
                       static_cast<double>(attempt));
            at = last_complete + backoff;
            backoff *= 2;
        } else if (!pending.empty() && attempt < config_.maxAttempts) {
            ++shedRetries_;
        }
    }

    // Whatever is still pending exhausted its attempts.
    if (!pending.empty()) {
        if (auto *rec = instruments().recorder) {
            char detail[96];
            std::snprintf(detail, sizeof detail,
                          "%llu queries exhausted %u attempts",
                          static_cast<unsigned long long>(pending.size()),
                          attempt);
            rec->trigger(telemetry::Trigger::RetryExhausted,
                         last_complete, detail);
        }
    }
    for (std::size_t pos : pending) {
        request.outcomes[pos].reason = DegradeReason::DeadlineExceeded;
        request.outcomes[pos].completed = 0;
        ++expired_;
        traceGuard("expired", last_complete, static_cast<double>(pos));
    }

    for (QueryOutcome &outcome : request.outcomes) {
        if (outcome.served()) {
            if (fault_persisted) {
                // Served on an attempt that still saw injected faults:
                // the result is returned, but tagged, never silent.
                outcome.reason = DegradeReason::FaultPersisted;
                ++suspect_;
            }
            ++request.servedQueries;
            ++served_;
        } else {
            ++request.droppedQueries;
        }
        // Request-level tag: the worst per-query degradation.
        if (outcome.reason != DegradeReason::None &&
            static_cast<std::uint8_t>(outcome.reason) >
                static_cast<std::uint8_t>(request.degraded)) {
            request.degraded = outcome.reason;
        }
    }
    if (request.partial())
        ++partial_;

    request.attempts = attempt;
    request.completed = last_complete;
    engineFree_ = std::max(engineFree_, request.completed);

    // Feed the windowed telemetry engine and SLO monitor (when
    // installed): per-query latency and availability SLIs, sorted by
    // completion tick so burn-rate windows close in order.
    telemetry::TimeSeries *series = instruments().series;
    telemetry::SloMonitor *monitor = instruments().slo;
    if (series != nullptr || monitor != nullptr) {
        struct SliRow
        {
            Tick tick;
            double latencyUs;
            bool served;
            bool clean;
        };
        std::vector<SliRow> rows;
        rows.reserve(request.outcomes.size());
        for (const QueryOutcome &o : request.outcomes) {
            const Tick tick = o.served() ? o.completed : last_complete;
            const double latencyUs =
                o.served() ? static_cast<double>(o.completed - arrival) /
                                 static_cast<double>(kTicksPerUs)
                           : 0.0;
            rows.push_back({tick, latencyUs, o.served(),
                            o.reason == DegradeReason::None});
        }
        std::stable_sort(rows.begin(), rows.end(),
                         [](const SliRow &a, const SliRow &b) {
                             return a.tick < b.tick;
                         });
        telemetry::WindowedHistogram *winLatency =
            series != nullptr
                ? &series->histogram("guard.latency_us",
                                     "arrival-to-completion per served "
                                     "query")
                : nullptr;
        telemetry::WindowedCounter *winServed =
            series != nullptr ? &series->counter("guard.served") : nullptr;
        telemetry::WindowedCounter *winDropped =
            series != nullptr ? &series->counter("guard.dropped")
                              : nullptr;
        for (const SliRow &row : rows) {
            if (series != nullptr) {
                if (row.served) {
                    winLatency->record(row.tick, row.latencyUs);
                    winServed->record(row.tick);
                } else {
                    winDropped->record(row.tick);
                }
            }
            if (monitor != nullptr) {
                if (row.served)
                    monitor->recordLatency(row.tick, row.latencyUs);
                monitor->recordOutcome(row.tick,
                                       row.served && row.clean);
            }
        }
    }
    return request;
}

void
ServiceGuard::registerStats(StatGroup &group) const
{
    group.addCounter("requests", requests_, "guarded requests served");
    group.addCounter("retries", retries_,
                     "serving attempts repeated after faults/timeouts");
    group.addCounter("timeouts", timeouts_,
                     "per-query deadline misses observed");
    group.addCounter("rejectedQueries", rejected_,
                     "queries dropped at admission (invalid)");
    group.addCounter("expiredQueries", expired_,
                     "queries dropped after exhausting retries");
    group.addCounter("suspectQueries", suspect_,
                     "queries served while faults persisted (tagged)");
    group.addCounter("servedQueries", served_,
                     "queries served to completion");
    group.addCounter("partialRequests", partial_,
                     "requests answered with partial results");
    group.addCounter("shedRequests", shedRequests_,
                     "requests served single-attempt under an active "
                     "SLO alert");
    group.addCounter("shedRetries", shedRetries_,
                     "retries suppressed by SLO load shed");
}

std::size_t
GuardedReport::servedQueries() const
{
    std::size_t total = 0;
    for (const auto &r : requests)
        total += r.servedQueries;
    return total;
}

std::size_t
GuardedReport::droppedQueries() const
{
    std::size_t total = 0;
    for (const auto &r : requests)
        total += r.droppedQueries;
    return total;
}

std::size_t
GuardedReport::partialRequests() const
{
    std::size_t total = 0;
    for (const auto &r : requests)
        total += r.partial() ? 1 : 0;
    return total;
}

GuardedReport
serveGuardedOpenLoop(const std::vector<Batch> &batches,
                     Tick inter_arrival, ServiceGuard &guard)
{
    // inter_arrival == 0 is the closed-loop case: every request arrives
    // at tick 0 and the guard's engine serialization paces them.
    GuardedReport report;
    report.requests.reserve(batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
        report.requests.push_back(
            guard.serve(batches[i], static_cast<Tick>(i) * inter_arrival));
    }
    return report;
}

} // namespace fafnir::embedding
