/**
 * @file
 * FaultPlan implementation: spec parsing, per-hook streams, stats.
 */

#include "faultinject.hh"

#include <cstdlib>
#include <sstream>

#include "common/logging.hh"

namespace fafnir::fault
{

namespace
{

/** Spec name plus the default magnitude of each hook, indexed by Hook. */
struct HookInfo
{
    const char *name;
    double defaultMagnitude;
};

constexpr HookInfo kHookInfo[kNumHooks] = {
    {"dram_latency", 32.0},   // 32x nominal read latency when fired
    {"dram_stall", 200.0},    // 200 ns command stall
    {"event_delay", 50.0},    // up to 50 ns delivery jitter
    {"event_drop", 0.0},      // no magnitude
    {"event_dup", 0.0},       // no magnitude
    {"pe_backpressure", 8.0}, // 8 extra PE cycles per fired delivery
    {"pool_exhaust", 0.0},    // no magnitude
    {"query_malformed", 0.0}, // no magnitude
    {"query_oversized", 8.0}, // 8x the nominal query width
    {"query_dup_index", 0.0}, // no magnitude
};

/** splitmix64 step, used to derive independent per-hook seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
toString(Hook hook)
{
    const auto i = static_cast<std::size_t>(hook);
    FAFNIR_ASSERT(i < kNumHooks, "invalid hook index ", i);
    return kHookInfo[i].name;
}

std::optional<Hook>
hookFromName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        if (name == kHookInfo[i].name)
            return static_cast<Hook>(i);
    }
    return std::nullopt;
}

FaultPlan::FaultPlan(std::uint64_t seed) : seed_(seed)
{
    // Expand the user seed into one independent stream per hook. The
    // double-mix decorrelates adjacent hook indices; enabling or
    // checking one hook never advances another hook's stream.
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        hooks_[i].magnitude = kHookInfo[i].defaultMagnitude;
        hooks_[i].rng = Rng(mix(mix(seed) ^ (i + 1)));
    }
}

std::optional<FaultPlan>
FaultPlan::tryParse(const std::string &spec, std::uint64_t seed,
                    std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return std::nullopt;
    };

    FaultPlan plan(seed);
    std::stringstream entries(spec);
    std::string entry;
    while (std::getline(entries, entry, ',')) {
        if (entry.empty())
            return fail("empty fault entry in spec '" + spec + "'");

        std::stringstream fields(entry);
        std::string name, rate_text, magnitude_text;
        std::getline(fields, name, ':');
        if (!std::getline(fields, rate_text, ':'))
            return fail("fault entry '" + entry +
                        "' is missing a rate (want hook:rate[:magnitude])");
        std::getline(fields, magnitude_text, ':');

        const std::optional<Hook> hook = hookFromName(name);
        if (!hook.has_value()) {
            std::string known;
            for (std::size_t i = 0; i < kNumHooks; ++i) {
                if (!known.empty())
                    known += ", ";
                known += kHookInfo[i].name;
            }
            return fail("unknown fault hook '" + name + "' (one of: " +
                        known + ")");
        }

        char *end = nullptr;
        const double rate = std::strtod(rate_text.c_str(), &end);
        if (end == rate_text.c_str() || *end != '\0' || rate < 0.0 ||
            rate > 1.0) {
            return fail("fault rate '" + rate_text + "' for hook '" + name +
                        "' is not a probability in [0, 1]");
        }

        std::optional<double> magnitude;
        if (!magnitude_text.empty()) {
            end = nullptr;
            const double m = std::strtod(magnitude_text.c_str(), &end);
            if (end == magnitude_text.c_str() || *end != '\0' || m < 0.0) {
                return fail("fault magnitude '" + magnitude_text +
                            "' for hook '" + name +
                            "' is not a non-negative number");
            }
            magnitude = m;
        }

        if (plan.enabled(*hook))
            return fail("fault hook '" + name + "' appears twice in spec");
        plan.enable(*hook, rate, magnitude);
    }

    if (!plan.anyEnabled())
        return fail("fault spec '" + spec + "' arms no hooks");
    return plan;
}

FaultPlan
FaultPlan::parse(const std::string &spec, std::uint64_t seed)
{
    std::string error;
    std::optional<FaultPlan> plan = tryParse(spec, seed, &error);
    if (!plan.has_value())
        FAFNIR_FATAL("bad --faults spec: ", error);
    return *std::move(plan);
}

void
FaultPlan::enable(Hook hook, double rate, std::optional<double> magnitude)
{
    FAFNIR_ASSERT(rate >= 0.0 && rate <= 1.0, "fault rate ", rate,
                  " out of [0, 1] for hook ", toString(hook));
    HookState &st = state(hook);
    if (st.rate <= 0.0 && rate > 0.0)
        ++armed_;
    else if (st.rate > 0.0 && rate <= 0.0)
        --armed_;
    st.rate = rate;
    if (magnitude.has_value())
        st.magnitude = *magnitude;
}

std::uint64_t
FaultPlan::totalFired() const
{
    std::uint64_t total = 0;
    for (const HookState &st : hooks_)
        total += st.fired.value();
    return total;
}

std::uint64_t
FaultPlan::totalChecked() const
{
    std::uint64_t total = 0;
    for (const HookState &st : hooks_)
        total += st.checked.value();
    return total;
}

void
FaultPlan::noteSkippedFiring(Hook hook)
{
    HookState &st = state(hook);
    if (st.rate <= 0.0)
        return;
    ++st.skipped;
    // Rate-limited visibility: a lossy plan can skip thousands of
    // firings per run; one warning plus the exit-time suppressed count
    // (and the faults.<hook>.skipped stat) tells the whole story.
    if (logging::warnEvery(std::string("faults.skipped.") +
                           toString(hook))) {
        FAFNIR_WARN("fault hook ", toString(hook),
                    " skipped a firing (lossy hook recovered); "
                    "further skips counted, not warned");
    }
}

std::uint64_t
FaultPlan::totalSkipped() const
{
    std::uint64_t total = 0;
    for (const HookState &st : hooks_)
        total += st.skipped.value();
    return total;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    bool first = true;
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        if (hooks_[i].rate <= 0.0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << kHookInfo[i].name << ":" << hooks_[i].rate;
        if (hooks_[i].magnitude != kHookInfo[i].defaultMagnitude)
            os << ":" << hooks_[i].magnitude;
    }
    return os.str();
}

void
FaultPlan::registerStats(StatGroup &g) const
{
    for (std::size_t i = 0; i < kNumHooks; ++i) {
        const std::string name = kHookInfo[i].name;
        g.addCounter(name + ".checked", hooks_[i].checked,
                     "times the " + name + " hook was evaluated");
        g.addCounter(name + ".fired", hooks_[i].fired,
                     "faults injected at the " + name + " hook");
        // Only lossy event hooks skip firings (a drop unschedules one
        // firing; a dup's echo is suppressed when the event was
        // rescheduled first); keep the group free of dead rows.
        const auto hook = static_cast<Hook>(i);
        if (hook == Hook::EventDrop || hook == Hook::EventDup) {
            g.addCounter(name + ".skipped", hooks_[i].skipped,
                         "registered-event firings skipped "
                         "(dropped or suppressed duplicates)");
        }
    }
    g.addFormula("totalSkipped", [this] {
        return static_cast<double>(totalSkipped());
    }, "registered-event firings skipped across all hooks");
    g.addFormula("totalChecked", [this] {
        return static_cast<double>(totalChecked());
    }, "hook evaluations across all hooks");
    g.addFormula("totalFired", [this] {
        return static_cast<double>(totalFired());
    }, "faults injected across all hooks");
}

} // namespace fafnir::fault
