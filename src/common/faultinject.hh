/**
 * @file
 * Deterministic fault-injection plans.
 *
 * A FaultPlan is a process-wide, seed-deterministic schedule of injected
 * faults. Hook points across the simulator (DRAM latency/stalls, event
 * queue perturbations, PE backpressure, value-pool exhaustion, query
 * corruption) opt in by name: each site asks the installed plan whether
 * its hook fires *this* time, and the plan answers from a per-hook
 * xoshiro256** stream derived from a single user seed. No wall-clock
 * time and no global rand() are involved, so a (spec, seed) pair always
 * produces a bit-identical fault schedule — reruns of a faulty
 * experiment reproduce the same injected faults in the same order.
 *
 * Sites fetch the installed plan from instruments().faults (see
 * common/instruments.hh); when no plan is installed that is one load +
 * branch, so the hooks are effectively free in production runs. Each
 * hook keeps checked/fired counters that harnesses register as the
 * "faults" StatGroup, making every injected fault visible in --report /
 * --stats-json artifacts.
 *
 * Fault spec grammar (the --faults flag):
 *
 *     spec     := entry ("," entry)*
 *     entry    := hook ":" rate [":" magnitude]
 *     hook     := dram_latency | dram_stall | event_delay | event_drop
 *               | event_dup | pe_backpressure | pool_exhaust
 *               | query_malformed | query_oversized | query_dup_index
 *     rate     := probability in [0, 1] that the hook fires per check
 *     magnitude:= hook-specific severity (see kHookInfo defaults)
 *
 * e.g. --faults dram_latency:0.1,event_delay:0.05 --fault-seed 7
 *
 * See docs/ROBUSTNESS.md for hook-point placement and semantics.
 */

#ifndef FAFNIR_COMMON_FAULTINJECT_HH
#define FAFNIR_COMMON_FAULTINJECT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "common/instruments.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fafnir
{

class StatGroup;

namespace fault
{

/** Every named hook point a plan can drive. */
enum class Hook : unsigned
{
    /** DRAM read completes late: magnitude = latency multiplier. */
    DramLatency,
    /** Transient command stall before issue: magnitude = stall ns. */
    DramStall,
    /** Scheduled event delivered late: magnitude = max jitter ns. */
    EventDelay,
    /** One-shot callback silently dropped (never delivered). */
    EventDrop,
    /** One-shot callback delivered twice at the same tick. */
    EventDup,
    /** PE input delivery stalled: magnitude = extra PE cycles. */
    PeBackpressure,
    /** Value-buffer pool behaves as exhausted (no reuse). */
    PoolExhaust,
    /** Generated query corrupted (empty/unsorted/out-of-range). */
    QueryMalformed,
    /** Generated query inflated past any sane width: magnitude = factor. */
    QueryOversized,
    /** Generated query carries a duplicated index. */
    QueryDupIndex,

    NumHooks,
};

inline constexpr std::size_t kNumHooks =
    static_cast<std::size_t>(Hook::NumHooks);

/** The spec-grammar name of @p hook ("dram_latency", ...). */
const char *toString(Hook hook);

/** Parse a spec-grammar hook name; nullopt when unknown. */
std::optional<Hook> hookFromName(std::string_view name);

/**
 * A deterministic, seeded fault schedule.
 *
 * Each enabled hook owns an independent xoshiro256** stream expanded
 * from (seed, hook index), so enabling one hook never perturbs the
 * schedule of another and checks at different sites stay reproducible.
 * The plan is intended for single-threaded simulation runs; parallel
 * sweep harnesses force serial execution while a plan is installed.
 */
class FaultPlan
{
  public:
    explicit FaultPlan(std::uint64_t seed = 1);

    /**
     * Parse @p spec (grammar above) into a plan seeded with @p seed.
     * @return nullopt and sets @p error on a malformed spec.
     */
    static std::optional<FaultPlan> tryParse(const std::string &spec,
                                             std::uint64_t seed,
                                             std::string *error = nullptr);

    /** tryParse() that dies with a clear message on a malformed spec. */
    static FaultPlan parse(const std::string &spec, std::uint64_t seed);

    /** Arm @p hook at @p rate; magnitude defaults per hook. */
    void enable(Hook hook, double rate,
                std::optional<double> magnitude = std::nullopt);

    bool enabled(Hook hook) const
    {
        return state(hook).rate > 0.0;
    }

    /** True when at least one hook is armed. */
    bool anyEnabled() const { return armed_ != 0; }

    /**
     * Does @p hook fire this time? Counts the check; draws from the
     * hook's stream only when the hook is armed, so disabled hooks cost
     * nothing and never advance any stream. Always false while
     * suspended (the counters still advance only for armed hooks).
     */
    bool
    shouldFire(Hook hook)
    {
        HookState &st = state(hook);
        if (st.rate <= 0.0)
            return false;
        ++st.checked;
        if (suspended_ || !st.rng.nextBool(st.rate))
            return false;
        ++st.fired;
        if (fireListener_)
            fireListener_(hook);
        return true;
    }

    /**
     * Observe every fired hook (after its counter advances). The
     * telemetry layer wires the flight recorder's fault-hook trigger
     * here; common/ stays free of telemetry dependencies. The listener
     * must not call back into the plan. Pass nullptr to clear — owners
     * of short-lived listeners must clear before the listener's
     * captures die.
     */
    void
    setFireListener(std::function<void(Hook)> listener)
    {
        fireListener_ = std::move(listener);
    }

    /** Configured severity of @p hook (default when not overridden). */
    double magnitude(Hook hook) const { return state(hook).magnitude; }

    /**
     * Extra completion latency for a DRAM read whose nominal service
     * time is @p base ticks: base * (multiplier - 1) when DramLatency
     * fires, 0 otherwise.
     */
    Tick
    dramLatencyExtra(Tick base)
    {
        if (!shouldFire(Hook::DramLatency))
            return 0;
        const double mult = state(Hook::DramLatency).magnitude;
        return static_cast<Tick>(static_cast<double>(base) *
                                 (mult > 1.0 ? mult - 1.0 : 0.0));
    }

    /** Transient command-stall ticks, 0 when DramStall does not fire. */
    Tick
    dramStallTicks()
    {
        if (!shouldFire(Hook::DramStall))
            return 0;
        return static_cast<Tick>(state(Hook::DramStall).magnitude *
                                 static_cast<double>(kTicksPerNs));
    }

    /**
     * Delivery jitter for a scheduled event: uniform in
     * [1, magnitude ns] ticks when EventDelay fires, 0 otherwise.
     * Additive-only, so the queue's when >= now() invariant holds.
     */
    Tick
    eventDelayTicks()
    {
        if (!shouldFire(Hook::EventDelay))
            return 0;
        HookState &st = state(Hook::EventDelay);
        const Tick span = static_cast<Tick>(
            st.magnitude * static_cast<double>(kTicksPerNs));
        return span == 0 ? 0 : 1 + st.rng.nextBelow(span);
    }

    /** Extra PE cycles of backpressure, 0 when the hook does not fire. */
    Cycles
    peBackpressureCycles()
    {
        if (!shouldFire(Hook::PeBackpressure))
            return 0;
        return static_cast<Cycles>(state(Hook::PeBackpressure).magnitude);
    }

    /** The dedicated stream of @p hook (query-corruption shapes draw
     *  extra randomness here so firing stays schedule-stable). */
    Rng &rngOf(Hook hook) { return state(hook).rng; }

    std::uint64_t
    firedCount(Hook hook) const
    {
        return state(hook).fired.value();
    }

    std::uint64_t
    checkedCount(Hook hook) const
    {
        return state(hook).checked.value();
    }

    /** Total injections across every hook. */
    std::uint64_t totalFired() const;

    /** Total hook evaluations across every hook. */
    std::uint64_t totalChecked() const;

    /**
     * Record one event firing skipped (or suppressed) by lossy @p hook
     * on a registered Event: a drop that unscheduled one firing, or a
     * duplicate firing suppressed because its event was rescheduled
     * before the echo landed. Counts under faults.<hook>.skipped so a
     * lossy-plan run reports its effective coverage. No-op while the
     * hook is unarmed.
     */
    void noteSkippedFiring(Hook hook);

    std::uint64_t
    skippedCount(Hook hook) const
    {
        return state(hook).skipped.value();
    }

    /** Total skipped applications across every hook. */
    std::uint64_t totalSkipped() const;

    /**
     * While suspended, armed hooks never fire (and draw nothing), but
     * their checked counters still advance. Used to calibrate fault-free
     * baselines without perturbing the schedule: streams do not advance
     * while suspended, so the post-resume schedule is unchanged.
     */
    void setSuspended(bool suspended) { suspended_ = suspended; }
    bool suspended() const { return suspended_; }

    std::uint64_t seed() const { return seed_; }

    /** Canonical spec string of the armed hooks ("" when none). */
    std::string describe() const;

    /** Register per-hook checked/fired counters plus totals on @p g. */
    void registerStats(StatGroup &g) const;

  private:
    struct HookState
    {
        double rate = 0.0;
        double magnitude = 0.0;
        Counter checked;
        Counter fired;
        /** Registered-event firings skipped by a drop or suppressed
         *  duplicate (lossy hooks recover instead of warning). */
        Counter skipped;
        Rng rng;
    };

    HookState &state(Hook hook)
    {
        return hooks_[static_cast<std::size_t>(hook)];
    }
    const HookState &state(Hook hook) const
    {
        return hooks_[static_cast<std::size_t>(hook)];
    }

    std::uint64_t seed_;
    unsigned armed_ = 0;
    bool suspended_ = false;
    std::function<void(Hook)> fireListener_;
    std::array<HookState, kNumHooks> hooks_;
};

/** RAII fault holiday: suspends the installed plan (if any) in scope. */
class SuspendFaults
{
  public:
    SuspendFaults() : plan_(instruments().faults),
                      previous_(plan_ != nullptr && plan_->suspended())
    {
        if (plan_ != nullptr)
            plan_->setSuspended(true);
    }
    ~SuspendFaults()
    {
        if (plan_ != nullptr)
            plan_->setSuspended(previous_);
    }

    SuspendFaults(const SuspendFaults &) = delete;
    SuspendFaults &operator=(const SuspendFaults &) = delete;

  private:
    FaultPlan *plan_;
    bool previous_;
};

} // namespace fault
} // namespace fafnir

#endif // FAFNIR_COMMON_FAULTINJECT_HH
