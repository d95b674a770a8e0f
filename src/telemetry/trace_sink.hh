/**
 * @file
 * Chrome trace-event timeline sink.
 *
 * A TraceSink collects timeline events in memory during a run and
 * serializes them in the Chrome trace-event JSON format, viewable in
 * Perfetto (https://ui.perfetto.dev) or chrome://tracing. Simulated time
 * (ticks, picoseconds) maps onto the trace's microsecond timestamps, so
 * one trace microsecond is one simulated microsecond.
 *
 * Tracks are organized as processes/threads:
 *   pid kPidSim      "sim"        — event-queue dispatch activity
 *   pid kPidTree     "fafnir"     — one thread per PE of the reduction
 *                                   tree, plus per-level occupancy
 *                                   counter tracks
 *   pid kPidDram     "dram"       — one thread per rank: reads, command
 *                                   stream (bridged from CommandLog),
 *                                   controller queue depth
 *   pid kPidService  "service"    — per-batch queue/serve latency spans
 *
 * Instrumentation sites fetch the installed sink from
 * instruments().trace (common/instruments.hh); when no sink is
 * installed the site reduces to one load + branch, so tracing is
 * near-zero cost when disabled.
 */

#ifndef FAFNIR_TELEMETRY_TRACE_SINK_HH
#define FAFNIR_TELEMETRY_TRACE_SINK_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/instruments.hh"
#include "common/types.hh"

namespace fafnir::telemetry
{

/** Well-known trace process ids (one per model layer). */
inline constexpr int kPidSim = 1;
inline constexpr int kPidTree = 2;
inline constexpr int kPidDram = 3;
inline constexpr int kPidService = 4;
inline constexpr int kPidHarness = 5;

/** Small numeric key/value payload attached to an event. */
using TraceArgs = std::initializer_list<std::pair<const char *, double>>;

/** In-memory collector of Chrome trace events. */
class TraceSink
{
  public:
    /** The well-known pids above are pre-labelled. */
    TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** A span [start, start+duration) on track (pid, tid), phase "X". */
    void completeEvent(int pid, int tid, const char *category,
                       std::string name, Tick start, Tick duration,
                       TraceArgs args = {});

    /** A point event at @p at on track (pid, tid), phase "i". */
    void instantEvent(int pid, int tid, const char *category,
                      std::string name, Tick at, TraceArgs args = {});

    /** A counter-track sample, phase "C" (one series per name). */
    void counterEvent(int pid, std::string name, Tick at, double value);

    /**
     * @{ Flow events (Perfetto arrows). A flow is a chain of
     * begin → step* → end events sharing one id; each binds to the slice
     * enclosing @p at on track (pid, tid), so the viewer draws arrows
     * connecting the spans of one causal chain (e.g. one query's route
     * from a DRAM read through the tree to service delivery). The end
     * event binds to its enclosing slice ("bp":"e"), matching how the
     * begin/step events bind.
     */
    void flowBegin(std::uint64_t id, int pid, int tid,
                   const char *category, std::string name, Tick at);
    void flowStep(std::uint64_t id, int pid, int tid,
                  const char *category, std::string name, Tick at);
    void flowEnd(std::uint64_t id, int pid, int tid,
                 const char *category, std::string name, Tick at);
    /** @} */

    /** Allocate a fresh flow id; strictly increasing from 1. */
    std::uint64_t newFlowId() { return ++lastFlowId_; }

    /** The most recently allocated flow id (0 = none yet). */
    std::uint64_t lastFlowId() const { return lastFlowId_; }

    /** Label a process/thread in the viewer (idempotent). */
    void setProcessName(int pid, std::string name);
    void setThreadName(int pid, int tid, std::string name);

    std::size_t eventCount() const { return events_.size(); }

    /** Serialize as {"displayTimeUnit": "ns", "traceEvents": [...]}. */
    void write(std::ostream &os) const;

    /** write() to @p path. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct TraceEvent
    {
        char phase;
        int pid;
        int tid;
        Tick ts;
        Tick dur;
        const char *category;
        std::string name;
        std::vector<std::pair<std::string, double>> args;
        /** Flow binding id (phases 's'/'t'/'f' only). */
        std::uint64_t id = 0;
    };

    void flowEvent(char phase, std::uint64_t id, int pid, int tid,
                   const char *category, std::string name, Tick at);

    std::vector<TraceEvent> events_;
    std::map<int, std::string> processNames_;
    std::map<std::pair<int, int>, std::string> threadNames_;
    std::uint64_t lastFlowId_ = 0;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_TRACE_SINK_HH
