/**
 * @file
 * Shared scaffolding for the per-figure/per-table benchmark harnesses.
 *
 * Every harness builds a fresh LookupRig (tables + DDR4 memory + layout)
 * per engine so resource state never leaks between designs, generates the
 * workload it needs, and prints the paper's rows with TextTable.
 */

#ifndef FAFNIR_BENCH_BENCH_UTIL_HH
#define FAFNIR_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/instruments.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "sim/eventq.hh"

namespace fafnir::bench
{

/**
 * The flag behind every installed instrument, each of which forces
 * runs serial, comma-joined ("--trace, --faults"); empty when none is
 * installed. Listing *all* active reasons matters: a user who drops
 * the first flag named in the warning used to get a second clamp
 * warning naming the next one, one flag per run.
 */
inline std::string
clampReasons()
{
    std::string why;
    auto add = [&why](const char *reason) {
        if (!why.empty())
            why += ", ";
        why += reason;
    };
    const Instruments in = instruments();
    if (in.trace != nullptr)
        add("--trace");
    if (in.faults != nullptr)
        add("--faults");
    if (in.series != nullptr || in.slo != nullptr)
        add("--timeline/--slo");
    if (in.recorder != nullptr)
        add("--debug-bundle-dir");
    if (in.attribution != nullptr)
        add("--attrib");
    return why;
}

/**
 * Effective real-thread parallelism for @p flag once process-global
 * telemetry is in play: no instrument is thread-safe (the TraceSink,
 * the Attribution collector, the fault plan's RNG streams, the windowed
 * TimeSeries rings, the SLO monitor, the flight recorder), so any
 * installed one forces the run serial — with a warning naming the clamped flag, so a
 * slow traced run is never a silent surprise. The only real threads are
 * the sweep harnesses' ("--jobs"); modeled parameters such as
 * --prepare-workers are never clamped, so telemetry cannot change a
 * simulated result.
 */
inline unsigned
clampParallelism(unsigned requested, const char *flag)
{
    const std::string why = clampReasons();
    if (why.empty() || requested <= 1)
        return requested;
    // Rate-limited per flag: a sweep that rebuilds its rig per point
    // would otherwise repeat the identical clamp warning per run.
    if (logging::warnEvery(std::string("bench.clamp.") + flag)) {
        FAFNIR_WARN(why, " forces ", flag,
                    "=1 (process-global telemetry is not thread-safe); "
                    "requested ",
                    requested);
    }
    return 1;
}

/** The sweep-harness clamp: clampParallelism for --jobs. */
inline unsigned
sweepJobs(unsigned requested)
{
    return clampParallelism(requested, "--jobs");
}

/** A complete memory + layout rig for one engine instance. */
struct LookupRig
{
    EventQueue eq;
    embedding::TableConfig tables;
    dram::Geometry geometry;
    dram::MemorySystem memory;
    dram::AddressMapper mapper;
    embedding::VectorLayout layout;

    explicit LookupRig(unsigned total_ranks = 32,
                       dram::Timing timing = dram::Timing::ddr4_2400(),
                       std::uint64_t rows_per_table = 1ull << 20)
        : tables{32, rows_per_table, 512, 4},
          geometry(dram::Geometry::withTotalRanks(total_ranks)),
          memory(eq, geometry, timing, dram::Interleave::BlockRank,
                 tables.vectorBytes),
          mapper(geometry, dram::Interleave::BlockRank,
                 tables.vectorBytes),
          layout(tables, mapper)
    {}
};

/** The trace-like workload used across lookup benches. */
inline std::vector<embedding::Batch>
makeBatches(const embedding::TableConfig &tables, unsigned num_batches,
            unsigned batch_size, unsigned query_size, double skew,
            double hot_fraction, std::uint64_t seed)
{
    embedding::WorkloadConfig wc;
    wc.tables = tables;
    wc.batchSize = batch_size;
    wc.querySize = query_size;
    wc.popularity = skew > 0 ? embedding::Popularity::Zipfian
                             : embedding::Popularity::Uniform;
    wc.zipfSkew = skew;
    wc.hotFraction = hot_fraction;
    embedding::BatchGenerator gen(wc, seed);
    std::vector<embedding::Batch> batches;
    batches.reserve(num_batches);
    for (unsigned i = 0; i < num_batches; ++i)
        batches.push_back(gen.next());
    return batches;
}

/** Nanoseconds with two decimals. */
inline double
ns(Tick ticks)
{
    return static_cast<double>(ticks) / kTicksPerNs;
}

/** Microseconds with two decimals. */
inline double
us(Tick ticks)
{
    return static_cast<double>(ticks) / kTicksPerUs;
}

} // namespace fafnir::bench

#endif // FAFNIR_BENCH_BENCH_UTIL_HH
