/**
 * @file
 * Serving-path microbenchmark: host prepare throughput and replica
 * scaling.
 *
 * Two measurements back the pipelined-serving PR:
 *
 *  - Wall-clock batch-prepare throughput (references/sec) for the flat
 *    open-addressing hash dedup against the ordered-map reference it
 *    replaced. Best of ten runs, so a noisy neighbour on a shared box
 *    cannot masquerade as a regression. `prepare_hash_speedup` is the
 *    gated ratio (floor: 1.3x).
 *
 *  - Modeled per-batch prepare rates at 1/2/4/8 host workers
 *    (`prepare_modeled_wN_refs_per_sec`), which are pure functions of
 *    the ServingConfig cost model and therefore gated;
 *    `prepare_modeled_scaling_4w` is the modeled 4-worker speedup
 *    (floor: 2.5x).
 *
 *  - Simulated offered-load capacity (batches/sec of simulated time)
 *    of the pipelined front-end at 1, 2, 4, and 8 engine replicas.
 *    `replica_scaling_speedup` = capacity(4) / capacity(1) is the
 *    gated ratio (floor: 2x); the 8-replica point runs twice — with 8
 *    modeled prepare workers and with 1 — so
 *    `prepare_pool_capacity_gain_8` pins how much of the 8-replica
 *    capacity a wider host prepare stage unlocks.
 *
 *  - A modulated-load run (--arrivals=steady|burst|ramp) through two
 *    replicas with windowed telemetry and an SLO monitor installed:
 *    the burst phase deliberately exceeds capacity so the latency
 *    objective fires and then clears once the queue drains.
 *    `burst_windowed_p99_latency_us` (worst 50us-window p99) and
 *    `burst_goodput_qps` (queries meeting the latency SLO per second)
 *    are the gated metrics; `slo_alert_fires`/`slo_alert_clears` pin
 *    the deterministic alert sequence.
 *
 * Emits BENCH_serving.json by default; tools/bench_diff gates it in CI
 * against results/BENCH_serving_baseline.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/table.hh"
#include "fafnir/host.hh"
#include "fafnir/serving.hh"
#include "fafnir/sharding.hh"
#include "sim/eventq.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/session.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"

using namespace fafnir;
using namespace fafnir::core;

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

/** Best rate out of @p reps runs (least-disturbed measurement). */
template <typename F>
double
bestOf(unsigned reps, F &&run)
{
    double best = run();
    for (unsigned r = 1; r < reps; ++r)
        best = std::max(best, run());
    return best;
}

embedding::TableConfig
tableConfig()
{
    return {32, 1u << 18, 512, 4};
}

std::vector<embedding::Batch>
makeBatches(unsigned count, unsigned batch_size, unsigned query_size,
            std::uint64_t seed)
{
    embedding::WorkloadConfig wc;
    wc.tables = tableConfig();
    wc.batchSize = batch_size;
    wc.querySize = query_size;
    wc.popularity = embedding::Popularity::Zipfian;
    wc.zipfSkew = 0.9;
    wc.hotFraction = 0.01;
    embedding::BatchGenerator gen(wc, seed);
    std::vector<embedding::Batch> batches;
    for (unsigned i = 0; i < count; ++i)
        batches.push_back(gen.next());
    return batches;
}

/**
 * References prepared per wall-clock second with @p usingHash selecting
 * the flat-hash fast path or the ordered-map reference. Headers only
 * (pool == nullptr, values synthesized lazily elsewhere): prepare cost
 * is dominated by the dedup structure, which is what we compare.
 */
double
benchPrepare(const embedding::VectorLayout &layout,
             const std::vector<embedding::Batch> &batches,
             std::uint64_t iterations, bool usingHash)
{
    std::size_t references = 0;
    for (const auto &b : batches)
        references += b.totalIndices();

    std::size_t reads = 0;
    const auto begin = Clock::now();
    for (std::uint64_t it = 0; it < iterations; ++it) {
        for (const auto &b : batches) {
            PreparedBatch p = usingHash
                ? prepareBatch(layout, nullptr, b, true)
                : prepareBatchReference(layout, nullptr, b, true);
            for (const auto &rank : p.rankReads)
                reads += rank.size();
        }
    }
    const auto end = Clock::now();
    FAFNIR_ASSERT(reads > 0, "prepare produced no reads");
    return static_cast<double>(references) *
           static_cast<double>(iterations) / seconds(begin, end);
}

/**
 * Modeled prepare rate (references per modeled second) at @p workers:
 * the exact integer-tick cost the serving pipeline charges per batch
 * (prepareFixed + perReference*refs/W + shardOverhead*(W-1)), summed
 * over the working set. A pure function of the ServingConfig defaults
 * and the batch shapes — deterministic, so bench_diff gates it tight.
 */
double
modeledPrepareRate(const std::vector<embedding::Batch> &batches,
                   unsigned workers)
{
    const ServingConfig sc;
    const auto pw = static_cast<Tick>(workers);
    double references = 0.0;
    Tick cost = 0;
    for (const auto &b : batches) {
        const auto refs = static_cast<Tick>(b.totalIndices());
        references += static_cast<double>(refs);
        cost += sc.prepareFixed + sc.preparePerReference * refs / pw +
                sc.prepareShardOverhead * (pw - 1);
    }
    return references /
           (static_cast<double>(cost) /
            static_cast<double>(kTicksPerSec));
}

/** Simulated capacity (batches per simulated second) at @p engines
 *  with @p prepare_workers modeled host prepare workers. */
double
benchCapacity(const std::vector<embedding::Batch> &batches,
              unsigned engines, unsigned prepare_workers)
{
    ReplicaMemoryConfig mem;
    EventEngineConfig ecfg;
    std::vector<EngineReplica> replicas =
        makeEventReplicas(engines, mem, tableConfig(), ecfg, nullptr);

    ServingConfig sc;
    sc.engines = engines;
    // Depth must scale with the replica count or the in-flight cap
    // (depth batches) starves engines beyond the second.
    sc.pipelineDepth = 2 * engines;
    sc.prepareWorkers = prepare_workers;
    ServingPipeline pipeline(sc, replicas, nullptr);
    const PipelineReport report = pipeline.serve(batches, 0);
    return report.requestsPerSecond();
}

/**
 * Simulated capacity (batches per simulated second) of the sharded
 * tier at @p shards shards x @p replicas_per_shard replicas (hash
 * placement). Timing-only engines (no store), same depth rule as
 * benchCapacity per shard — the sharded points sit directly next to
 * the single-store replica sweep in the report.
 */
double
benchShardCapacity(const std::vector<embedding::Batch> &batches,
                   unsigned shards, unsigned replicas_per_shard)
{
    ReplicaMemoryConfig mem;
    EventEngineConfig ecfg;
    std::vector<std::vector<EngineReplica>> groups =
        makeShardReplicas(shards, replicas_per_shard, mem, tableConfig(),
                          ecfg, nullptr);

    ShardTierConfig tc;
    tc.shards = shards;
    tc.placement = PlacementPolicy::Hash;
    tc.serving.engines = replicas_per_shard;
    tc.serving.pipelineDepth = 2 * replicas_per_shard;
    ShardedServingTier tier(tc, groups, nullptr);
    const ShardedReport report = tier.serve(batches, 0);
    return report.requestsPerSecond();
}

/**
 * Modelled payload bytes through the two-replica pipeline under
 * @p payload — deterministic (the byte model charges
 * payloadBytes(format, dim) per materialized vector), so the savings
 * ratio is gated tightly by bench_diff.
 */
struct PayloadBytes
{
    double dram = 0.0;
    double link = 0.0;
};

PayloadBytes
benchPayloadBytes(const std::vector<embedding::Batch> &batches,
                  embedding::PayloadFormat payload)
{
    ReplicaMemoryConfig mem;
    EventEngineConfig ecfg;
    std::vector<EngineReplica> replicas =
        makeEventReplicas(2, mem, tableConfig(), ecfg, nullptr);
    ServingConfig sc;
    sc.engines = 2;
    sc.pipelineDepth = 4;
    sc.payload = payload;
    ServingPipeline pipeline(sc, replicas, nullptr);
    const PipelineReport report = pipeline.serve(batches, 0);
    PayloadBytes bytes;
    for (const auto &trace : report.batches) {
        bytes.dram += static_cast<double>(trace.timing.dramPayloadBytes);
        bytes.link += static_cast<double>(trace.timing.linkPayloadBytes);
    }
    return bytes;
}

/**
 * Deterministic arrival schedule for the modulated-load run. All three
 * patterns are pure functions of (count, gaps), so the same flags give
 * the same tick sequence on every host:
 *  - steady: every batch @p steady_gap apart.
 *  - burst: the middle third arrives at @p burst_gap (far above
 *    capacity), the rest at the steady gap.
 *  - ramp: the gap shrinks linearly from steady to burst.
 */
std::vector<Tick>
makeArrivals(const std::string &pattern, std::size_t count,
             Tick steady_gap, Tick burst_gap)
{
    std::vector<Tick> arrivals(count, 0);
    Tick at = 0;
    for (std::size_t i = 0; i < count; ++i) {
        arrivals[i] = at;
        Tick gap = steady_gap;
        if (pattern == "burst") {
            if (i >= count / 3 && i < 2 * count / 3)
                gap = burst_gap;
        } else if (pattern == "ramp") {
            gap = steady_gap - (steady_gap - burst_gap) *
                                   static_cast<Tick>(i) /
                                   static_cast<Tick>(count);
        } else if (pattern != "steady") {
            FAFNIR_FATAL("unknown --arrivals '", pattern,
                         "' (expected steady, burst, or ramp)");
        }
        at += gap;
    }
    return arrivals;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned batches = 24;
    unsigned batch_size = 32;
    unsigned query_size = 24;
    std::uint64_t prepare_iters = 200;
    unsigned capacity_batches = 48;
    unsigned reps = 10;
    std::string arrivals_pattern = "burst";
    unsigned load_batches = 96;

    FlagParser flags("serving microbenchmark: prepare throughput and "
                     "replica scaling");
    flags.addUnsigned("batches", batches,
                      "batches in the prepare working set");
    flags.addUnsigned("batch", batch_size, "queries per batch");
    flags.addUnsigned("query-size", query_size, "indices per query");
    flags.addUint64("prepare-iters", prepare_iters,
                    "passes over the working set per prepare sample");
    flags.addUnsigned("capacity-batches", capacity_batches,
                      "batches per simulated capacity run");
    flags.addUnsigned("reps", reps,
                      "samples per measurement (best is kept)");
    flags.addString("arrivals", arrivals_pattern,
                    "modulated-load arrival pattern: steady | burst | "
                    "ramp");
    flags.addUnsigned("load-batches", load_batches,
                      "batches in the modulated-load run");
    telemetry::TelemetrySession session("micro_serving");
    session.registerFlags(flags);
    flags.parse(argc, argv);
    session.defaultReportPath("BENCH_serving.json");
    session.start();

    session.report().setConfig("batches", std::uint64_t(batches));
    session.report().setConfig("batch", std::uint64_t(batch_size));
    session.report().setConfig("querySize", std::uint64_t(query_size));
    session.report().setConfig("prepareIters", prepare_iters);
    session.report().setConfig("capacityBatches",
                               std::uint64_t(capacity_batches));

    EventQueue eq;
    dram::MemorySystem memory(eq, dram::Geometry::withTotalRanks(32),
                              dram::Timing::ddr4_2400(),
                              dram::Interleave::BlockRank, 512);
    const embedding::VectorLayout layout(tableConfig(), memory.mapper());
    const auto prepare_set = makeBatches(batches, batch_size,
                                         query_size, 7);

    const double hash_rate = bestOf(reps, [&] {
        return benchPrepare(layout, prepare_set, prepare_iters, true);
    });
    const double map_rate = bestOf(reps, [&] {
        return benchPrepare(layout, prepare_set, prepare_iters, false);
    });

    // Modeled prepare scaling curve (gated, deterministic).
    const unsigned kPoolWidths[] = {1, 2, 4, 8};
    double modeled_rate[4];
    for (std::size_t i = 0; i < 4; ++i)
        modeled_rate[i] = modeledPrepareRate(prepare_set, kPoolWidths[i]);

    const auto capacity_set = makeBatches(capacity_batches, 16, 24, 11);
    // Keep the steady capacity sweeps out of any installed windowed
    // series / SLO monitor: only the modulated run below should land in
    // the timeline.
    Instruments quiet = instruments();
    quiet.series = nullptr;
    quiet.slo = nullptr;
    double cap1, cap2, cap4, cap8, cap8_serial;
    {
        ScopedInstruments install(quiet);
        cap1 = benchCapacity(capacity_set, 1, 1);
        cap2 = benchCapacity(capacity_set, 2, 1);
        cap4 = benchCapacity(capacity_set, 4, 1);
        cap8 = benchCapacity(capacity_set, 8, 8);
        cap8_serial = benchCapacity(capacity_set, 8, 1);
    }

    // The same two-engine capacity point with a flight recorder
    // installed: the recorder observes ticks but never schedules, so
    // the simulated capacity must be bit-equal — the recorded rate is
    // exported so the claim is pinned in the report, and the run
    // aborts if recording ever perturbs the schedule.
    double cap2_rec;
    {
        telemetry::FlightRecorder recorder;
        Instruments recording = quiet;
        recording.recorder = &recorder;
        ScopedInstruments install(recording);
        cap2_rec = benchCapacity(capacity_set, 2, 1);
#ifndef FAFNIR_FLIGHTREC_COMPILED_OUT
        FAFNIR_ASSERT(recorder.totalRecorded() > 0,
                      "recorder saw no serving records");
#endif
    }
    FAFNIR_ASSERT(cap2_rec == cap2,
                  "flight recorder perturbed simulated serving time");

    // Sharded-tier capacity at shards x replicas points (simulated
    // time, deterministic, gated). 2x1 splits the same engine count as
    // the 2-engine single-store point across two stores; 4x2 is the
    // 8-engine budget as four 2-replica shards.
    double shard_cap_2x1, shard_cap_2x2, shard_cap_4x2;
    {
        ScopedInstruments install(quiet);
        shard_cap_2x1 = benchShardCapacity(capacity_set, 2, 1);
        shard_cap_2x2 = benchShardCapacity(capacity_set, 2, 2);
        shard_cap_4x2 = benchShardCapacity(capacity_set, 4, 2);
    }

    // Quantized-transport byte model through the same two-replica
    // pipeline: fp32 vs int8 payload bytes over PE links and DRAM
    // reads. Pure byte accounting (no wall clock), gated by bench_diff.
    PayloadBytes payload_fp32, payload_int8;
    {
        ScopedInstruments install(quiet);
        payload_fp32 = benchPayloadBytes(capacity_set,
                                         embedding::PayloadFormat::Fp32);
        payload_int8 = benchPayloadBytes(capacity_set,
                                         embedding::PayloadFormat::Int8);
    }
    const double payload_link_savings =
        payload_int8.link > 0.0 ? payload_fp32.link / payload_int8.link
                                : 0.0;
    const double payload_dram_savings =
        payload_int8.dram > 0.0 ? payload_fp32.dram / payload_int8.dram
                                : 0.0;

    // Modulated-load run: two replicas, windowed telemetry + SLO
    // monitor installed (the session's when --timeline/--slo was given,
    // otherwise a local pair with the default 50us windows). The burst
    // gap is ~8x over two-replica capacity (cap2 ~ 1.2M batches/s), so
    // the latency objective deterministically fires mid-burst and
    // clears after the queue drains back into the steady phase.
    const Tick steady_gap = 3 * kTicksPerUs;
    const Tick burst_gap = 100 * kTicksPerNs;
    const double latency_slo_us = 20.0;
    std::optional<telemetry::TimeSeries> local_series;
    std::optional<telemetry::SloMonitor> local_monitor;
    Instruments loaded = instruments();
    if (loaded.series == nullptr) {
        local_series.emplace(telemetry::TimeSeriesConfig{});
        loaded.series = &*local_series;
    }
    if (loaded.slo == nullptr) {
        local_monitor.emplace(
            telemetry::SloMonitor::parseSpec(
                "p99_latency_us<20;availability>=0.99"),
            telemetry::BurnConfig{});
        loaded.slo = &*local_monitor;
    }
    telemetry::TimeSeries *series = loaded.series;
    telemetry::SloMonitor *monitor = loaded.slo;
    std::optional<ScopedInstruments> load_install(std::in_place, loaded);

    const auto load_set = makeBatches(load_batches, 16, 24, 13);
    const auto arrivals =
        makeArrivals(arrivals_pattern, load_set.size(), steady_gap,
                     burst_gap);
    ReplicaMemoryConfig load_mem;
    EventEngineConfig load_ecfg;
    std::vector<EngineReplica> load_replicas =
        makeEventReplicas(2, load_mem, tableConfig(), load_ecfg,
                          nullptr);
    ServingConfig load_sc;
    load_sc.engines = 2;
    load_sc.pipelineDepth = 4;
    ServingPipeline load_pipeline(load_sc, load_replicas, nullptr);
    const PipelineReport load_report =
        load_pipeline.serve(load_set, arrivals);

    double good_queries = 0.0, total_queries = 0.0;
    for (const auto &trace : load_report.batches) {
        const double q =
            static_cast<double>(load_set[trace.batch].queries.size());
        total_queries += q;
        const double latency_us =
            static_cast<double>(trace.done - trace.arrival) /
            static_cast<double>(kTicksPerUs);
        if (latency_us < latency_slo_us)
            good_queries += q;
    }
    const double makespan_sec =
        static_cast<double>(load_report.makespan) /
        static_cast<double>(kTicksPerSec);
    const double span_sec =
        static_cast<double>(arrivals.back() + steady_gap) /
        static_cast<double>(kTicksPerSec);
    const telemetry::WindowedHistogram *load_latency =
        series->findHistogram("serving.latency_us");
    const double burst_p99 = load_latency != nullptr
        ? load_latency->peakWindowPercentile(99.0)
        : 0.0;

    load_pipeline.printHealthScoreboard(std::cout, load_report);

    session.report().setConfig("arrivals", arrivals_pattern);
    session.report().setConfig("loadBatches",
                               std::uint64_t(load_batches));

    struct Metric
    {
        const char *name;
        double value;
    };
    const std::vector<Metric> metrics = {
        {"prepare_hash_refs_per_sec", hash_rate},
        {"prepare_map_refs_per_sec", map_rate},
        {"prepare_hash_speedup", hash_rate / map_rate},
        {"prepare_modeled_w1_refs_per_sec", modeled_rate[0]},
        {"prepare_modeled_w2_refs_per_sec", modeled_rate[1]},
        {"prepare_modeled_w4_refs_per_sec", modeled_rate[2]},
        {"prepare_modeled_w8_refs_per_sec", modeled_rate[3]},
        {"prepare_modeled_scaling_4w", modeled_rate[2] / modeled_rate[0]},
        {"capacity_1_engine_batches_per_sec", cap1},
        {"capacity_2_engines_batches_per_sec", cap2},
        {"capacity_2_engines_flightrec_on_batches_per_sec", cap2_rec},
        {"capacity_4_engines_batches_per_sec", cap4},
        {"capacity_8_engines_batches_per_sec", cap8},
        {"capacity_8_engines_serial_prepare_batches_per_sec",
         cap8_serial},
        {"prepare_pool_capacity_gain_8", cap8 / cap8_serial},
        {"replica_scaling_speedup", cap4 / cap1},
        {"replica_scaling_speedup_8", cap8 / cap1},
        {"sharded_capacity_2x1_batches_per_sec", shard_cap_2x1},
        {"sharded_capacity_2x2_batches_per_sec", shard_cap_2x2},
        {"sharded_capacity_4x2_batches_per_sec", shard_cap_4x2},
        {"sharded_scaling_4x2", shard_cap_4x2 / shard_cap_2x1},
        {"payload_fp32_link_bytes", payload_fp32.link},
        {"payload_int8_link_bytes", payload_int8.link},
        {"payload_int8_link_savings", payload_link_savings},
        {"payload_int8_dram_savings", payload_dram_savings},
        {"burst_windowed_p99_latency_us", burst_p99},
        {"burst_goodput_qps", good_queries / makespan_sec},
        {"burst_offered_load_qps", total_queries / span_sec},
        {"slo_alert_fires",
         static_cast<double>(monitor->totalFires())},
        {"slo_alert_clears",
         static_cast<double>(monitor->totalClears())},
    };

    TextTable table("Serving microbenchmark");
    table.setHeader({"metric", "value"});
    for (const Metric &m : metrics) {
        session.report().setMetric(m.name, m.value);
        table.row(m.name, TextTable::num(m.value, 2));
    }
    table.print(std::cout);

    // Installers nest: restore the session's context before it ends.
    load_install.reset();
    return session.finish();
}
