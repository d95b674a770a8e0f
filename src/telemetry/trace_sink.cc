/**
 * @file
 * Implementation of the Chrome trace-event sink.
 */

#include "trace_sink.hh"

#include <fstream>

#include "common/json.hh"

namespace fafnir::telemetry
{

namespace
{

/** Ticks (ps) to trace microseconds: 1 tick = 1e-6 us, exact at %.6f. */
void
writeTimestamp(JsonWriter &json, const char *key, Tick ticks)
{
    json.member(key,
                static_cast<double>(ticks) / static_cast<double>(kTicksPerUs));
}

} // namespace

TraceSink::TraceSink()
{
    setProcessName(kPidSim, "sim");
    setProcessName(kPidTree, "fafnir tree");
    setProcessName(kPidDram, "dram");
    setProcessName(kPidService, "service");
    setProcessName(kPidHarness, "harness");
}

void
TraceSink::completeEvent(int pid, int tid, const char *category,
                         std::string name, Tick start, Tick duration,
                         TraceArgs args)
{
    TraceEvent event{'X', pid, tid, start, duration, category,
                     std::move(name), {}};
    for (const auto &[k, v] : args)
        event.args.emplace_back(k, v);
    events_.push_back(std::move(event));
}

void
TraceSink::instantEvent(int pid, int tid, const char *category,
                        std::string name, Tick at, TraceArgs args)
{
    TraceEvent event{'i', pid, tid, at, 0, category, std::move(name), {}};
    for (const auto &[k, v] : args)
        event.args.emplace_back(k, v);
    events_.push_back(std::move(event));
}

void
TraceSink::counterEvent(int pid, std::string name, Tick at, double value)
{
    TraceEvent event{'C', pid, 0, at, 0, "counter", std::move(name), {}};
    event.args.emplace_back("value", value);
    events_.push_back(std::move(event));
}

void
TraceSink::flowEvent(char phase, std::uint64_t id, int pid, int tid,
                     const char *category, std::string name, Tick at)
{
    TraceEvent event{phase, pid, tid, at, 0, category, std::move(name),
                     {}};
    event.id = id;
    events_.push_back(std::move(event));
}

void
TraceSink::flowBegin(std::uint64_t id, int pid, int tid,
                     const char *category, std::string name, Tick at)
{
    flowEvent('s', id, pid, tid, category, std::move(name), at);
}

void
TraceSink::flowStep(std::uint64_t id, int pid, int tid,
                    const char *category, std::string name, Tick at)
{
    flowEvent('t', id, pid, tid, category, std::move(name), at);
}

void
TraceSink::flowEnd(std::uint64_t id, int pid, int tid,
                   const char *category, std::string name, Tick at)
{
    flowEvent('f', id, pid, tid, category, std::move(name), at);
}

void
TraceSink::setProcessName(int pid, std::string name)
{
    processNames_[pid] = std::move(name);
}

void
TraceSink::setThreadName(int pid, int tid, std::string name)
{
    threadNames_[{pid, tid}] = std::move(name);
}

void
TraceSink::write(std::ostream &os) const
{
    JsonWriter json(os, /*pretty=*/false);
    json.beginObject();
    json.member("displayTimeUnit", "ns");
    json.key("traceEvents");
    json.beginArray();

    for (const auto &[pid, name] : processNames_) {
        json.beginObject();
        json.member("ph", "M");
        json.member("name", "process_name");
        json.member("pid", pid);
        json.member("tid", 0);
        json.key("args");
        json.beginObject();
        json.member("name", name);
        json.endObject();
        json.endObject();
    }
    for (const auto &[key, name] : threadNames_) {
        json.beginObject();
        json.member("ph", "M");
        json.member("name", "thread_name");
        json.member("pid", key.first);
        json.member("tid", key.second);
        json.key("args");
        json.beginObject();
        json.member("name", name);
        json.endObject();
        json.endObject();
    }

    for (const auto &event : events_) {
        json.beginObject();
        json.member("ph", std::string(1, event.phase));
        json.member("name", event.name);
        json.member("cat", event.category);
        json.member("pid", event.pid);
        json.member("tid", event.tid);
        writeTimestamp(json, "ts", event.ts);
        if (event.phase == 'X')
            writeTimestamp(json, "dur", event.dur);
        if (event.phase == 'i')
            json.member("s", "t"); // thread-scoped instant
        if (event.phase == 's' || event.phase == 't' ||
            event.phase == 'f') {
            json.member("id", event.id);
            if (event.phase == 'f')
                json.member("bp", "e"); // bind to the enclosing slice
        }
        if (!event.args.empty()) {
            json.key("args");
            json.beginObject();
            for (const auto &[k, v] : event.args)
                json.member(k, v);
            json.endObject();
        }
        json.endObject();
    }

    json.endArray();
    json.endObject();
    os << '\n';
}

bool
TraceSink::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    write(os);
    return static_cast<bool>(os);
}

} // namespace fafnir::telemetry
