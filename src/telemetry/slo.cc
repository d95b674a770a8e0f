#include "telemetry/slo.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/stats.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/report.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir::telemetry
{

// --- Spec parsing -----------------------------------------------------

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

[[noreturn]] void
badTerm(const std::string &term, const std::string &why)
{
    throw std::runtime_error("bad SLO term '" + term + "': " + why);
}

double
parseNumber(const std::string &term, const std::string &text)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used != text.size())
            badTerm(term, "trailing characters after number");
        return v;
    } catch (const std::invalid_argument &) {
        badTerm(term, "expected a number after the comparison");
    } catch (const std::out_of_range &) {
        badTerm(term, "number out of range");
    }
}

} // namespace

std::vector<SloObjective>
SloMonitor::parseSpec(const std::string &spec)
{
    std::vector<SloObjective> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t semi = spec.find(';', pos);
        const std::string term = trim(
            spec.substr(pos, semi == std::string::npos ? std::string::npos
                                                       : semi - pos));
        pos = semi == std::string::npos ? spec.size() + 1 : semi + 1;
        if (term.empty())
            continue;

        const std::size_t op = term.find_first_of("<>");
        if (op == std::string::npos)
            badTerm(term, "missing comparison (< <= > >=)");
        const bool less = term[op] == '<';
        const bool inclusive = op + 1 < term.size() &&
                               term[op + 1] == '=';
        const std::string sli = trim(term.substr(0, op));
        const std::string bound =
            trim(term.substr(op + (inclusive ? 2 : 1)));

        SloObjective obj;
        obj.name = term;
        obj.inclusive = inclusive;
        obj.threshold = parseNumber(term, bound);
        if (sli == "availability") {
            if (less)
                badTerm(term, "availability wants >= or > (a floor)");
            obj.kind = SloObjective::Kind::Availability;
            if (!(obj.threshold > 0.0 && obj.threshold < 1.0)) {
                badTerm(term,
                        "availability target must be in (0, 1) — an "
                        "exact 1.0 leaves no error budget to burn");
            }
            obj.target = obj.threshold;
        } else if (sli.size() > 1 && sli.front() == 'p' &&
                   sli.find("_latency_us") != std::string::npos) {
            if (!less)
                badTerm(term, "latency wants < or <= (a ceiling)");
            const std::string digits =
                sli.substr(1, sli.find('_') - 1);
            if (digits.empty() ||
                digits.find_first_not_of("0123456789") !=
                    std::string::npos ||
                sli != "p" + digits + "_latency_us") {
                badTerm(term, "unknown SLI (want pNN_latency_us or "
                              "availability)");
            }
            obj.kind = SloObjective::Kind::LatencyQuantile;
            obj.quantile = std::stod(digits);
            if (!(obj.quantile >= 1.0 && obj.quantile <= 99.0)) {
                badTerm(term, "percentile must be in [1, 99] — p100 "
                              "leaves no error budget to burn");
            }
            if (!(obj.threshold > 0.0))
                badTerm(term, "latency bound must be positive");
            obj.target = obj.quantile / 100.0;
        } else {
            badTerm(term,
                    "unknown SLI (want pNN_latency_us or availability)");
        }
        out.push_back(std::move(obj));
    }
    if (out.empty())
        throw std::runtime_error("empty SLO spec");
    return out;
}

// --- Monitor ----------------------------------------------------------

SloMonitor::SloMonitor(std::vector<SloObjective> objectives,
                       BurnConfig burn)
    : objectives_(std::move(objectives)), burn_(burn)
{
    if (burn_.fastWindowTicks == 0)
        burn_.fastWindowTicks = 50 * kTicksPerUs;
    if (burn_.slowWindows == 0)
        burn_.slowWindows = 1;
    states_.reserve(objectives_.size());
    // Retain comfortably more than the slow window so slow-burn sums
    // never read evicted fast windows.
    const std::size_t retain =
        std::max<std::size_t>(4096, burn_.slowWindows * 4);
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        ObjectiveState st;
        st.good = WindowedCounter(burn_.fastWindowTicks, retain);
        st.bad = WindowedCounter(burn_.fastWindowTicks, retain);
        states_.push_back(std::move(st));
    }
}

void
SloMonitor::recordLatency(Tick completion, double latencyUs)
{
    lastTick_ = std::max(lastTick_, completion);
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        const SloObjective &obj = objectives_[i];
        if (obj.kind != SloObjective::Kind::LatencyQuantile)
            continue;
        feed(i, completion, obj.goodLatency(latencyUs));
    }
}

void
SloMonitor::recordOutcome(Tick completion, bool success)
{
    lastTick_ = std::max(lastTick_, completion);
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        if (objectives_[i].kind != SloObjective::Kind::Availability)
            continue;
        feed(i, completion, success);
    }
}

void
SloMonitor::feed(std::size_t objective, Tick tick, bool good)
{
    ObjectiveState &st = states_[objective];
    const std::uint64_t window = st.good.indexOf(tick);
    if (!st.evalInit) {
        st.evalInit = true;
        st.nextEval = window;
    }
    // Windows strictly before this sample's window are closed now
    // (completion ticks are non-decreasing) — evaluate them first so
    // the decision only sees fully-populated windows.
    evaluateThrough(objective, window);
    if (good) {
        st.good.record(tick);
        ++st.totalGood;
    } else {
        st.bad.record(tick);
        ++st.totalBad;
    }
}

void
SloMonitor::flush(Tick end)
{
    lastTick_ = std::max(lastTick_, end);
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        if (!states_[i].evalInit)
            continue;
        // End-of-run close: the window containing @p end is evaluated
        // too (inclusive), so a drained queue still produces its clear
        // transition even when no sample lands past the last boundary.
        evaluateThrough(i, states_[i].good.indexOf(end) + 1);
    }
}

void
SloMonitor::evaluateThrough(std::size_t objective, std::uint64_t window)
{
    ObjectiveState &st = states_[objective];
    while (st.nextEval < window)
        evaluateWindow(objective, st.nextEval++);
}

void
SloMonitor::evaluateWindow(std::size_t objective, std::uint64_t window)
{
    ObjectiveState &st = states_[objective];
    const SloObjective &obj = objectives_[objective];

    const std::uint64_t fastGood = st.good.windowValue(window);
    const std::uint64_t fastBad = st.bad.windowValue(window);
    const std::uint64_t fastTotal = fastGood + fastBad;

    std::uint64_t slowGood = 0;
    std::uint64_t slowBad = 0;
    const std::uint64_t span = burn_.slowWindows - 1;
    const std::uint64_t slowFirst = window > span ? window - span : 0;
    for (std::uint64_t w = slowFirst; w <= window; ++w) {
        slowGood += st.good.windowValue(w);
        slowBad += st.bad.windowValue(w);
    }
    const std::uint64_t slowTotal = slowGood + slowBad;

    const double allowed = obj.allowed();
    const double fastBurn =
        fastTotal ? double(fastBad) / double(fastTotal) / allowed : 0.0;
    const double slowBurn =
        slowTotal ? double(slowBad) / double(slowTotal) / allowed : 0.0;

    const Tick closeTick = (window + 1) * burn_.fastWindowTicks;
    st.burnHistory.emplace_back(closeTick, fastBurn);

    if (!st.active && fastBurn >= burn_.fireBurn &&
        slowBurn >= burn_.fireBurn) {
        st.active = true;
        ++st.fires;
        transitions_.push_back(
            {closeTick, objective, true, fastBurn, slowBurn});
        if (auto *rec = instruments().recorder) {
            char detail[96];
            std::snprintf(detail, sizeof detail,
                          "fire:%s fast_burn=%.6g slow_burn=%.6g",
                          obj.name.c_str(), fastBurn, slowBurn);
            rec->trigger(Trigger::SloAlert, closeTick, detail);
        }
    } else if (st.active && fastBurn <= burn_.clearBurn) {
        st.active = false;
        ++st.clears;
        transitions_.push_back(
            {closeTick, objective, false, fastBurn, slowBurn});
    }
}

bool
SloMonitor::active(std::size_t objective) const
{
    return states_[objective].active;
}

bool
SloMonitor::anyActive() const
{
    for (const ObjectiveState &st : states_)
        if (st.active)
            return true;
    return false;
}

std::uint64_t
SloMonitor::fires(std::size_t objective) const
{
    return states_[objective].fires;
}

std::uint64_t
SloMonitor::clears(std::size_t objective) const
{
    return states_[objective].clears;
}

std::uint64_t
SloMonitor::totalFires() const
{
    std::uint64_t n = 0;
    for (const ObjectiveState &st : states_)
        n += st.fires;
    return n;
}

std::uint64_t
SloMonitor::totalClears() const
{
    std::uint64_t n = 0;
    for (const ObjectiveState &st : states_)
        n += st.clears;
    return n;
}

double
SloMonitor::budgetConsumed(std::size_t objective) const
{
    const ObjectiveState &st = states_[objective];
    const std::uint64_t total = st.totalGood + st.totalBad;
    if (total == 0)
        return 0.0;
    const double allowed = objectives_[objective].allowed();
    return double(st.totalBad) / (allowed * double(total));
}

void
SloMonitor::writeTimeline(std::ostream &os) const
{
    for (const AlertTransition &t : transitions_) {
        char burns[96];
        std::snprintf(burns, sizeof burns,
                      "\"fast_burn\":%.6g,\"slow_burn\":%.6g",
                      t.fastBurn, t.slowBurn);
        os << "{\"type\":\"alert\",\"tick\":" << t.tick
           << ",\"objective\":\"" << objectives_[t.objective].name
           << "\",\"state\":\"" << (t.fired ? "fire" : "clear")
           << "\"," << burns << "}\n";
    }
}

void
SloMonitor::exportCounterTracks(TraceSink &sink) const
{
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        const std::string track = "slo:" + objectives_[i].name +
                                  ".burn";
        for (const auto &[tick, fastBurn] : states_[i].burnHistory)
            sink.counterEvent(kPidHarness, track, tick, fastBurn);
    }
    for (const AlertTransition &t : transitions_) {
        sink.instantEvent(kPidHarness, 1, "slo",
                          (t.fired ? "fire:" : "clear:") +
                              objectives_[t.objective].name,
                          t.tick,
                          {{"fast_burn", t.fastBurn},
                           {"slow_burn", t.slowBurn}});
    }
}

void
SloMonitor::registerStats(StatGroup &group) const
{
    for (std::size_t i = 0; i < objectives_.size(); ++i) {
        const std::string prefix = "obj" + std::to_string(i);
        const SloMonitor *self = this;
        group.addFormula(
            prefix + ".fires", [self, i] { return double(self->fires(i)); },
            "alert raises for " + objectives_[i].name);
        group.addFormula(
            prefix + ".clears",
            [self, i] { return double(self->clears(i)); },
            "alert clears for " + objectives_[i].name);
        group.addFormula(
            prefix + ".budgetConsumed",
            [self, i] { return self->budgetConsumed(i); },
            "error budget spent for " + objectives_[i].name +
                " (1.0 = fully spent)");
    }
    const SloMonitor *self = this;
    group.addFormula(
        "alertFires", [self] { return double(self->totalFires()); },
        "burn-rate alert raises across objectives");
    group.addFormula(
        "alertClears", [self] { return double(self->totalClears()); },
        "burn-rate alert clears across objectives");
}

// --- Global install ---------------------------------------------------

// --- Merged timeline artifact -----------------------------------------

void
writeTimeline(std::ostream &os, const TimeSeries *ts,
              const SloMonitor *monitor)
{
    os << "{\"type\":\"meta\",\"schema_version\":" << kArtifactSchemaVersion;
    if (ts != nullptr)
        os << ",\"window_ticks\":" << ts->windowTicks();
    if (monitor != nullptr) {
        const BurnConfig &b = monitor->burn();
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      ",\"fast_window_ticks\":%llu,\"slow_windows\":%u"
                      ",\"fire_burn\":%.6g,\"clear_burn\":%.6g",
                      static_cast<unsigned long long>(
                          b.fastWindowTicks),
                      b.slowWindows, b.fireBurn, b.clearBurn);
        os << buf;
    }
    os << "}\n";

    // Collect both sources' lines and stable-sort by tick so the
    // artifact reads chronologically even when window widths differ.
    std::ostringstream lines;
    if (ts != nullptr)
        ts->writeTimeline(lines);
    if (monitor != nullptr)
        monitor->writeTimeline(lines);
    struct Row
    {
        Tick tick;
        std::string text;
    };
    std::vector<Row> rows;
    std::istringstream in(lines.str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Tick tick = 0;
        const std::size_t at = line.find("\"tick\":");
        if (at != std::string::npos)
            tick = std::strtoull(line.c_str() + at + 7, nullptr, 10);
        rows.push_back({tick, std::move(line)});
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         return a.tick < b.tick;
                     });
    for (const Row &r : rows)
        os << r.text << "\n";
}

} // namespace fafnir::telemetry
