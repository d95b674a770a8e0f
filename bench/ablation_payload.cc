/**
 * @file
 * Ablation — transport payload precision (the fig15-style sweep for the
 * quantized path): per-format bytes moved over PE links and DRAM reads,
 * modelled link energy, and the accuracy cost versus the exact fp32
 * path, on a Zipfian and a uniform trace.
 *
 * The byte model is deterministic (payloadBytes(format, dim) per
 * materialized vector), so the savings column is exact: 512 B/vector
 * fp32 vs 132 int8 (3.88x) vs 36 two-bit (14.2x). Every quantized point
 * also re-checks served values bit-for-bit against the store-side
 * quantized reference (power-of-two scales make the tree's sums
 * order-invariant), and reports max/mean abs error and relative L2
 * against the exact fp32 reduction.
 *
 * A final serial section exercises the error-feedback two-bit stream
 * (embedding::TwoBitState): over repeated rounds on the same vectors
 * the fed-back residual steers the round-average toward the true value,
 * and the improvement over the stateless quantizer is reported. With
 * --payload-accuracy=PATH the whole table lands in a schema-versioned
 * JSON report. The grid points share no state and the order-dependent
 * EF stream runs serially after the sweep, so the report is identical
 * at any --jobs.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/parallel.hh"
#include "embedding/quantize.hh"
#include "embedding/reduce_kernels.hh"
#include "embedding/reduce_op.hh"
#include "fafnir/event_engine.hh"
#include "hwmodel/energy.hh"
#include "telemetry/session.hh"

using namespace fafnir;
using namespace fafnir::bench;

namespace
{

/** Store-side reference under quantized transport: round-trip each
 *  leaf vector through the payload codec, then reduce exactly. */
embedding::Vector
quantizedReduce(const embedding::EmbeddingStore &store,
                const std::vector<IndexId> &indices,
                embedding::PayloadFormat fmt)
{
    embedding::Vector acc;
    for (IndexId idx : indices) {
        embedding::Vector v = store.vector(idx);
        embedding::payloadRoundTrip(fmt, v.data(), v.size());
        if (acc.empty())
            acc = std::move(v);
        else
            embedding::combineSpan(embedding::ReduceOp::Sum, acc.data(),
                                   v.data(), acc.size());
    }
    embedding::finalizeSpan(embedding::ReduceOp::Sum, acc.data(),
                            acc.size(), indices.size());
    return acc;
}

struct Point
{
    std::uint64_t dramBytes = 0;
    std::uint64_t linkBytes = 0;
    std::uint64_t codecOps = 0;
    std::size_t mismatches = 0;
    double maxAbs = 0.0;
    double meanAbs = 0.0;
    double relL2 = 0.0;
};

Point
runPoint(const embedding::TableConfig &tables,
         const std::vector<embedding::Batch> &batches,
         embedding::PayloadFormat fmt)
{
    LookupRig rig(32, dram::Timing::ddr4_2400(), tables.rowsPerTable);
    const embedding::EmbeddingStore store(tables);
    core::EventEngineConfig ecfg;
    ecfg.base.payload = fmt;
    ecfg.computeValues = true;
    core::EventDrivenEngine engine(rig.memory, rig.layout, ecfg, &store);
    const auto timings = engine.lookupMany(batches, 0);

    Point point;
    for (const auto &t : timings) {
        point.dramBytes += t.dramPayloadBytes;
        point.linkBytes += t.linkPayloadBytes;
        point.codecOps += t.activity.dequants + t.activity.requants;
    }
    double sum_abs = 0.0, l2_num = 0.0, l2_den = 0.0;
    std::size_t elements = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
        for (std::size_t q = 0; q < batches[b].queries.size(); ++q) {
            const auto &indices = batches[b].queries[q].indices;
            const embedding::Vector qref =
                quantizedReduce(store, indices, fmt);
            const embedding::Vector &got = timings[b].results[q];
            if (got.size() != qref.size() ||
                (!got.empty() &&
                 std::memcmp(got.data(), qref.data(),
                             got.size() * sizeof(float)) != 0))
                ++point.mismatches;
            const embedding::Vector exact = store.reduce(indices);
            for (std::size_t i = 0; i < exact.size(); ++i) {
                const double err =
                    std::fabs(static_cast<double>(qref[i]) - exact[i]);
                point.maxAbs = std::max(point.maxAbs, err);
                sum_abs += err;
                l2_num += err * err;
                l2_den += static_cast<double>(exact[i]) * exact[i];
                ++elements;
            }
        }
    }
    if (elements > 0)
        point.meanAbs = sum_abs / static_cast<double>(elements);
    if (l2_den > 0.0)
        point.relL2 = std::sqrt(l2_num / l2_den);
    return point;
}

struct EfResult
{
    double statelessMeanAbs = 0.0;
    double efMeanAbs = 0.0;
};

/**
 * The error-feedback payoff: quantize the same @p vectors for
 * @p rounds rounds and compare the round-averaged reconstruction
 * against the true values. The stateless quantizer repeats the same
 * error every round; the EF residual steers successive rounds so the
 * average converges. Strictly serial — the residual is carried state.
 */
EfResult
runEfStream(const embedding::EmbeddingStore &store, std::size_t vectors,
            unsigned rounds)
{
    EfResult result;
    const std::size_t dim = store.config().dim();
    std::size_t elements = 0;
    double stateless_err = 0.0, ef_err = 0.0;
    embedding::TwoBitState state;
    std::vector<std::uint8_t> packed(embedding::twoBitPackedBytes(dim));
    embedding::Vector dequant(dim), ef_sum(dim), stateless_sum(dim);
    for (std::size_t v = 0; v < vectors; ++v) {
        const embedding::Vector truth =
            store.vector(static_cast<IndexId>(v * 7919));
        state.reset(dim);
        std::fill(ef_sum.begin(), ef_sum.end(), 0.0f);
        std::fill(stateless_sum.begin(), stateless_sum.end(), 0.0f);
        for (unsigned r = 0; r < rounds; ++r) {
            const float t = embedding::quantizeTwoBit(truth.data(), dim,
                                                      packed.data());
            embedding::dequantizeTwoBit(packed.data(), dim, t,
                                        dequant.data());
            for (std::size_t i = 0; i < dim; ++i)
                stateless_sum[i] += dequant[i];
            embedding::quantizeTwoBitEf(truth.data(), dim, state,
                                        dequant.data());
            for (std::size_t i = 0; i < dim; ++i)
                ef_sum[i] += dequant[i];
        }
        for (std::size_t i = 0; i < dim; ++i) {
            stateless_err += std::fabs(
                stateless_sum[i] / static_cast<float>(rounds) - truth[i]);
            ef_err += std::fabs(ef_sum[i] / static_cast<float>(rounds) -
                                truth[i]);
            ++elements;
        }
    }
    result.statelessMeanAbs =
        stateless_err / static_cast<double>(elements);
    result.efMeanAbs = ef_err / static_cast<double>(elements);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = defaultJobs();
    unsigned batches = 8;
    unsigned batch_size = 16;
    unsigned query_size = 24;
    unsigned ef_rounds = 16;
    std::string acc_path;
    FlagParser flags("ablation: transport payload precision "
                     "(fp32 / int8 / twobit)");
    flags.addUnsigned("jobs", jobs,
                      "worker threads for the sweep (1 = serial)");
    flags.addUnsigned("batches", batches, "batches per sweep point");
    flags.addUnsigned("batch", batch_size, "queries per batch");
    flags.addUnsigned("query-size", query_size, "indices per query");
    flags.addUnsigned("ef-rounds", ef_rounds,
                      "rounds in the error-feedback two-bit stream");
    flags.addString("payload-accuracy", acc_path,
                    "write the quantization accuracy report (max/mean "
                    "abs error and relative L2 vs. the exact fp32 path) "
                    "to this path");
    telemetry::TelemetrySession session("ablation_payload");
    session.registerFlags(flags);
    flags.parse(argc, argv);
    session.start();
    jobs = sweepJobs(jobs);

    const embedding::TableConfig tables{32, 1u << 18, 512, 4};

    struct Trace
    {
        const char *name;
        double skew;
        double hot;
    };
    const std::vector<Trace> traces{
        Trace{"zipfian", 1.05, 0.00001}, Trace{"uniform", 0.0, 1.0}};
    const std::vector<embedding::PayloadFormat> formats{
        embedding::PayloadFormat::Fp32, embedding::PayloadFormat::Int8,
        embedding::PayloadFormat::TwoBit};

    std::vector<std::vector<embedding::Batch>> batch_sets;
    batch_sets.reserve(traces.size());
    for (std::size_t t = 0; t < traces.size(); ++t)
        batch_sets.push_back(makeBatches(tables, batches, batch_size,
                                         query_size, traces[t].skew,
                                         traces[t].hot, 177 + t));

    const std::size_t points = traces.size() * formats.size();
    std::vector<Point> grid(points);
    parallelFor(points, jobs, [&](std::size_t p) {
        grid[p] = runPoint(tables, batch_sets[p / formats.size()],
                           formats[p % formats.size()]);
    });

    const hwmodel::LinkEnergyModel link_energy;
    TextTable table("Ablation — transport payload precision "
                    "(event engine, 32 ranks)");
    table.setHeader({"trace", "format", "B/vec", "dram MB", "link MB",
                     "savings", "link uJ", "max abs", "rel-L2",
                     "mismatches"});
    std::size_t total_mismatches = 0;
    double int8_savings = 0.0;
    for (std::size_t t = 0; t < traces.size(); ++t) {
        const Point &fp32 = grid[t * formats.size()];
        for (std::size_t f = 0; f < formats.size(); ++f) {
            const Point &point = grid[t * formats.size() + f];
            const double moved = static_cast<double>(point.dramBytes +
                                                     point.linkBytes);
            const double savings =
                moved > 0.0 ? static_cast<double>(fp32.dramBytes +
                                                  fp32.linkBytes) /
                                  moved
                            : 0.0;
            const double uj =
                link_energy.energyNj(point.linkBytes, point.codecOps,
                                     tables.dim()) /
                1000.0;
            table.row(traces[t].name,
                      embedding::payloadFormatName(formats[f]),
                      embedding::payloadBytes(formats[f], tables.dim()),
                      static_cast<double>(point.dramBytes) / 1e6,
                      static_cast<double>(point.linkBytes) / 1e6,
                      TextTable::num(savings, 2) + "x",
                      TextTable::num(uj, 2),
                      TextTable::num(point.maxAbs, 3),
                      TextTable::num(point.relL2, 5), point.mismatches);
            total_mismatches += point.mismatches;
            if (formats[f] == embedding::PayloadFormat::Int8 &&
                traces[t].skew > 0.0)
                int8_savings = savings;
        }
    }
    table.print(std::cout);

    FAFNIR_ASSERT(total_mismatches == 0,
                  "quantized tree values diverged from the store-side "
                  "reference");
    FAFNIR_ASSERT(int8_savings >= 3.5,
                  "int8 transport saves less than the 3.5x floor: ",
                  int8_savings);

    const embedding::EmbeddingStore store(tables);
    const EfResult ef = runEfStream(store, 64, ef_rounds);
    const double ef_gain =
        ef.efMeanAbs > 0.0 ? ef.statelessMeanAbs / ef.efMeanAbs : 0.0;
    std::cout << "\nerror-feedback two-bit stream (" << ef_rounds
              << " rounds, 64 vectors): round-averaged mean abs error "
              << TextTable::num(ef.statelessMeanAbs, 4)
              << " stateless vs " << TextTable::num(ef.efMeanAbs, 4)
              << " with residual feedback ("
              << TextTable::num(ef_gain, 1) << "x closer)\n";
    FAFNIR_ASSERT(ef.efMeanAbs < ef.statelessMeanAbs,
                  "error feedback failed to beat the stateless "
                  "quantizer");

    // Zipfian-trace metrics: pure functions of (seed, byte model), so
    // bench_diff can gate them tightly.
    const Point &zipf_fp32 = grid[0];
    const Point &zipf_int8 = grid[1];
    const Point &zipf_twobit = grid[2];
    auto &report = session.report();
    report.setConfig("dim", static_cast<std::uint64_t>(tables.dim()));
    report.setMetric("payload_fp32_link_bytes",
                     static_cast<double>(zipf_fp32.linkBytes));
    report.setMetric("payload_int8_link_bytes",
                     static_cast<double>(zipf_int8.linkBytes));
    report.setMetric("payload_twobit_link_bytes",
                     static_cast<double>(zipf_twobit.linkBytes));
    report.setMetric("payload_int8_savings", int8_savings);
    report.setMetric(
        "payload_twobit_savings",
        static_cast<double>(zipf_fp32.dramBytes + zipf_fp32.linkBytes) /
            static_cast<double>(zipf_twobit.dramBytes +
                                zipf_twobit.linkBytes));
    report.setMetric("payload_int8_rel_l2", zipf_int8.relL2);
    report.setMetric("payload_twobit_rel_l2", zipf_twobit.relL2);
    report.setMetric("payload_value_mismatches",
                     static_cast<double>(total_mismatches));
    report.setMetric("ef_twobit_improvement", ef_gain);

    if (!acc_path.empty()) {
        std::ofstream os(acc_path);
        if (!os) {
            FAFNIR_FATAL("cannot write --payload-accuracy report to ",
                         acc_path);
        }
        os << "{\n  \"schemaVersion\": 1,\n"
           << "  \"tool\": \"ablation_payload\",\n"
           << "  \"backend\": \"" << embedding::quantizeKernelBackend()
           << "\",\n  \"formats\": [\n";
        for (std::size_t t = 0; t < traces.size(); ++t) {
            for (std::size_t f = 0; f < formats.size(); ++f) {
                const Point &point = grid[t * formats.size() + f];
                os << "    {\"trace\": \"" << traces[t].name
                   << "\", \"format\": \""
                   << embedding::payloadFormatName(formats[f])
                   << "\", \"dramBytes\": " << point.dramBytes
                   << ", \"linkBytes\": " << point.linkBytes
                   << ", \"valueMismatches\": " << point.mismatches
                   << ", \"maxAbsError\": " << point.maxAbs
                   << ", \"meanAbsError\": " << point.meanAbs
                   << ", \"relativeL2\": " << point.relL2 << "}"
                   << (t * formats.size() + f + 1 < points ? "," : "")
                   << "\n";
            }
        }
        os << "  ],\n  \"efTwoBit\": {\"rounds\": " << ef_rounds
           << ", \"statelessMeanAbsError\": " << ef.statelessMeanAbs
           << ", \"efMeanAbsError\": " << ef.efMeanAbs
           << ", \"improvement\": " << ef_gain << "}\n}\n";
        session.report().noteArtifact("payloadAccuracy", acc_path);
    }

    return session.finish();
}
