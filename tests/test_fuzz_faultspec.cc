/**
 * @file
 * Fuzz the fault-plan spec parser and the fault hooks under full runs.
 *
 * Two contracts. First, `FaultPlan::tryParse` must accept every
 * grammatically valid `hook:rate[:magnitude]` spec and reject — with an
 * error message, never a crash — everything else, including adversarial
 * byte soup. Second, any plan the parser accepts must be safe to
 * install and run a short simulation under: corrupted queries are the
 * guard's problem, injected timing faults are the engine's, and neither
 * may crash or violate the service invariants.
 *
 * Iteration count scales with FAFNIR_FUZZ_ITERS (default 200; CI
 * nightlies crank it up).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "baselines/cpu.hh"
#include "common/faultinject.hh"
#include "embedding/batcher.hh"
#include "embedding/generator.hh"
#include "embedding/service.hh"
#include "fafnir/event_engine.hh"

using namespace fafnir;

namespace
{

std::size_t
fuzzIterations()
{
    if (const char *env = std::getenv("FAFNIR_FUZZ_ITERS"))
        return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    return 200;
}

/** All spec-grammar hook names, via the enum's own printer. */
std::vector<std::string>
allHookNames()
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < fault::kNumHooks; ++i)
        names.emplace_back(
            fault::toString(static_cast<fault::Hook>(i)));
    return names;
}

/** Structured random specs: valid ones and close-miss mutations. */
class SpecFuzzer
{
  public:
    explicit SpecFuzzer(std::uint64_t seed) : rng_(seed) {}

    /** A guaranteed-valid spec with 1..4 distinct random hooks (the
     *  grammar rejects a hook that appears twice). */
    std::string
    valid()
    {
        std::vector<std::string> hooks = allHookNames();
        std::shuffle(hooks.begin(), hooks.end(), rng_);
        std::uniform_real_distribution<double> rate(0.0, 1.0);
        std::uniform_real_distribution<double> magnitude(0.0, 100.0);
        std::uniform_int_distribution<std::size_t> entries(1, 4);
        std::string spec;
        const std::size_t n = entries(rng_);
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0)
                spec += ',';
            spec += hooks[i] + ':' + std::to_string(rate(rng_));
            if (coin())
                spec += ':' + std::to_string(magnitude(rng_));
        }
        return spec;
    }

    /** A valid spec with one random corruption applied. */
    std::string
    mutated()
    {
        std::string spec = valid();
        std::uniform_int_distribution<int> what(0, 4);
        std::uniform_int_distribution<std::size_t> where(
            0, spec.empty() ? 0 : spec.size() - 1);
        switch (what(rng_)) {
          case 0: // flip one byte to random printable garbage
            if (!spec.empty())
                spec[where(rng_)] = static_cast<char>(
                    33 + static_cast<int>(rng_() % 94));
            break;
          case 1: // truncate mid-entry
            spec = spec.substr(0, where(rng_));
            break;
          case 2: // unknown hook name
            spec = "warp_core_breach:" + spec;
            break;
          case 3: // out-of-range rate
            spec += ",dram_latency:1.5";
            break;
          default: // doubled separators
            spec += ",,";
            break;
        }
        return spec;
    }

    /** Unstructured printable byte soup. */
    std::string
    garbage()
    {
        std::uniform_int_distribution<std::size_t> len(0, 64);
        std::string spec(len(rng_), '\0');
        for (char &c : spec)
            c = static_cast<char>(32 + static_cast<int>(rng_() % 95));
        return spec;
    }

    bool coin() { return (rng_() & 1) != 0; }
    std::uint64_t seed() { return rng_(); }

  private:
    std::mt19937_64 rng_;
};

} // namespace

TEST(FaultSpecFuzz, ValidSpecsAlwaysParse)
{
    SpecFuzzer fuzzer(101);
    for (std::size_t iter = 0; iter < fuzzIterations(); ++iter) {
        const std::string spec = fuzzer.valid();
        std::string error;
        const auto plan =
            fault::FaultPlan::tryParse(spec, fuzzer.seed(), &error);
        ASSERT_TRUE(plan.has_value())
            << "rejected valid spec '" << spec << "': " << error;
        EXPECT_TRUE(plan->anyEnabled()) << spec;
        EXPECT_FALSE(plan->describe().empty());
    }
}

TEST(FaultSpecFuzz, MalformedSpecsRejectWithErrorNotCrash)
{
    SpecFuzzer fuzzer(202);
    std::size_t rejected = 0;
    for (std::size_t iter = 0; iter < fuzzIterations(); ++iter) {
        const std::string spec =
            fuzzer.coin() ? fuzzer.mutated() : fuzzer.garbage();
        std::string error;
        auto plan = fault::FaultPlan::tryParse(spec, 1, &error);
        if (!plan.has_value()) {
            ++rejected;
            EXPECT_FALSE(error.empty())
                << "silent rejection of '" << spec << "'";
        }
        // Mutations can cancel out; accepted specs just have to be
        // reusable, which install/uninstall exercises.
        if (plan.has_value()) {
            ScopedInstruments install({.faults = &*plan});
            EXPECT_EQ(instruments().faults, &*plan);
        }
    }
    // The mutation engine must actually produce invalid specs, or this
    // test is fuzzing nothing.
    EXPECT_GT(rejected, fuzzIterations() / 4);
}

TEST(FaultSpecFuzz, ParsedPlansSurviveGuardedService)
{
    // Any accepted plan must be runnable: a small CPU-engine service
    // behind the ServiceGuard, with query hooks corrupting the
    // workload, has to terminate with coherent accounting.
    SpecFuzzer fuzzer(303);
    const std::size_t runs =
        std::max<std::size_t>(4, fuzzIterations() / 25);
    for (std::size_t iter = 0; iter < runs; ++iter) {
        fault::FaultPlan plan =
            fault::FaultPlan::parse(fuzzer.valid(), fuzzer.seed());
        ScopedInstruments install({.faults = &plan});

        EventQueue eq;
        dram::MemorySystem memory(
            eq, dram::Geometry::withTotalRanks(8),
            dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
            512);
        const embedding::TableConfig tables{8, 4096, 512, 4};
        const embedding::VectorLayout layout(tables, memory.mapper());
        baselines::CpuEngine engine(memory, layout);

        embedding::WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = 4;
        wc.querySize = 8;
        embedding::BatchGenerator gen(wc, fuzzer.seed());
        std::vector<embedding::Batch> batches;
        for (int b = 0; b < 3; ++b)
            batches.push_back(gen.next());
        for (auto &batch : batches)
            embedding::injectQueryFaults(batch, tables.totalVectors());

        embedding::GuardConfig gc;
        gc.indexLimit = tables.totalVectors();
        gc.maxQueryWidth = wc.querySize * 4;
        embedding::ServiceGuard guard(
            gc, [&engine](const embedding::Batch &b, Tick at) {
                const auto t = engine.lookup(b, at);
                embedding::ServeSample s;
                s.complete = t.complete;
                s.queryComplete = t.queryComplete;
                return s;
            });

        const embedding::GuardedReport report =
            embedding::serveGuardedOpenLoop(batches, 0, guard);
        ASSERT_EQ(report.requests.size(), batches.size());
        std::size_t accounted = 0;
        for (const auto &r : report.requests) {
            EXPECT_GE(r.completed, r.arrival);
            accounted += r.outcomes.size();
        }
        // Every query ends up either served or explicitly dropped.
        EXPECT_EQ(accounted,
                  batches.size() * static_cast<std::size_t>(
                                       wc.batchSize));
    }
}

TEST(FaultSpecFuzz, TimingHooksKeepEventEngineLive)
{
    // Timing-perturbing hooks (latency, stalls, jitter, backpressure,
    // pool exhaustion) must never deadlock the event-driven tree or
    // bend time backwards. Drop/dup hooks are excluded: they violate
    // delivery guarantees by design and are covered by the guarded
    // service above.
    const std::vector<std::string> safe = {
        "dram_latency", "dram_stall", "event_delay", "pe_backpressure",
        "pool_exhaust"};
    SpecFuzzer fuzzer(404);
    std::mt19937_64 rng(505);
    const std::size_t runs =
        std::max<std::size_t>(4, fuzzIterations() / 25);
    for (std::size_t iter = 0; iter < runs; ++iter) {
        std::string spec;
        for (const std::string &hook : safe) {
            if (fuzzer.coin())
                continue;
            if (!spec.empty())
                spec += ',';
            spec += hook + ':' +
                    std::to_string(
                        static_cast<double>(rng() % 100) / 100.0);
        }
        if (spec.empty())
            spec = "dram_latency:0.5";
        fault::FaultPlan plan =
            fault::FaultPlan::parse(spec, fuzzer.seed());
        ScopedInstruments install({.faults = &plan});

        EventQueue eq;
        dram::MemorySystem memory(
            eq, dram::Geometry::withTotalRanks(8),
            dram::Timing::ddr4_2400(), dram::Interleave::BlockRank,
            512);
        const embedding::TableConfig tables{8, 4096, 512, 4};
        const embedding::VectorLayout layout(tables, memory.mapper());
        core::EventDrivenEngine engine(memory, layout,
                                       core::EventEngineConfig{});

        embedding::WorkloadConfig wc;
        wc.tables = tables;
        wc.batchSize = 4;
        wc.querySize = 8;
        const embedding::Batch batch =
            embedding::BatchGenerator(wc, fuzzer.seed()).next();
        const core::EventLookupTiming t = engine.lookup(batch, 0);
        EXPECT_GE(t.complete, t.memFirst) << "spec " << spec;
        for (Tick q : t.queryComplete)
            EXPECT_LE(q, t.complete + 1) << "spec " << spec;
    }
}
