/**
 * @file
 * perfbench — end-to-end and per-layer benchmark of the simulator.
 *
 * One process, one thread, one caller. Each workload is a batch job that
 * runs its whole generated input stream through the simulator's public
 * API to completion; the job repeats until the time budget is spent.
 *
 *   perfbench --workload lookup_zipf_q24 --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 reports the end-to-end metrics: simulator throughput and
 * set-up time measured on the host clock, plus the modeled (simulated,
 * deterministic) makespan, DRAM bytes and per-request latency.
 * --trace 1 reports per-layer host time from spans recorded around this
 * file's own calls into each layer. A layer that another layer calls
 * internally (engine -> tree -> dram) is timed by calling it alone on the
 * same input; the outer layer's self time is its span minus those calls,
 * an estimate. Every output is checked against a reference, and every
 * repetition's modeled outputs must hash to the same digest.
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit code 0 when every check passed, 1 when one failed, 2 on bad usage.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/two_step.hh"
#include "dram/memsystem.hh"
#include "embedding/generator.hh"
#include "embedding/layout.hh"
#include "embedding/table.hh"
#include "fafnir/engine.hh"
#include "fafnir/event_engine.hh"
#include "fafnir/functional.hh"
#include "fafnir/host.hh"
#include "fafnir/serving.hh"
#include "sparse/fafnir_spmv.hh"
#include "sparse/matgen.hh"
#include "sparse/matrix.hh"
#include "telemetry/flightrec.hh"

using namespace fafnir;

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < p <= 100). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

/** FNV-1a hash over the modeled outputs of one job. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ULL;
        }
    }

    template <typename T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof v);
    }

    template <typename T>
    void
    addAll(const std::vector<T> &v)
    {
        add(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ULL;
};

/** One recorded span: a layer call made from this file. */
struct SpanRecord
{
    const char *name;
    /** The span whose work this call reproduces ("job" = top level). */
    const char *parent;
    double startMs = 0.0;
    double endMs = 0.0;
};

/** In-memory span recorder of one traced job. */
class Tracer
{
  public:
    void
    add(const char *name, const char *parent, Clock::time_point a,
        Clock::time_point b)
    {
        spans_.push_back(
            {name, parent, msBetween(origin_, a), msBetween(origin_, b)});
    }

    /** Summed duration of every span called @p name. */
    double
    ms(const char *name) const
    {
        double total = 0.0;
        for (const auto &s : spans_)
            if (std::strcmp(s.name, name) == 0)
                total += s.endMs - s.startMs;
        return total;
    }

    /** Per span name: parent, call count and summed milliseconds. */
    std::string
    summaryJson() const
    {
        struct Total
        {
            const char *parent = "";
            std::size_t calls = 0;
            double ms = 0.0;
        };
        std::map<std::string, Total> totals;
        for (const auto &s : spans_) {
            Total &t = totals[s.name];
            t.parent = s.parent;
            ++t.calls;
            t.ms += s.endMs - s.startMs;
        }
        std::string out = "{";
        char buf[160];
        for (const auto &[name, t] : totals) {
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"parent\": \"%s\", \"calls\": %zu, "
                          "\"ms\": %.6f}",
                          out.size() > 1 ? ", " : "", name.c_str(), t.parent,
                          t.calls, t.ms);
            out += buf;
        }
        return out + "}";
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<SpanRecord> spans_;
};

/** RAII span; a null tracer makes it a no-op (the untraced path). */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, const char *parent = "job")
        : tracer_(tracer), name_(name), parent_(parent)
    {
        if (tracer_)
            start_ = Clock::now();
    }
    ~Span()
    {
        if (tracer_)
            tracer_->add(name_, parent_, start_, Clock::now());
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    const char *name_;
    const char *parent_;
    Clock::time_point start_;
};

/** Result of checking one job's outputs. */
struct CheckResult
{
    std::size_t checked = 0;
    std::size_t failed = 0;
    std::uint64_t digest = 0;
};

/** Modeled (simulated-time) end-to-end numbers of one job. */
struct Modeled
{
    double makespanUs = 0.0;
    double dramBytes = 0.0;
    /** Per-request simulated latency samples. */
    std::vector<double> latencyUs;
};

/** Per-layer numbers of one traced job. */
struct Layers
{
    /** Per-layer metrics (names as in BENCHMARK.json). */
    std::map<std::string, double> metrics;
    /** Self time of every spanned layer; sums to the job's wall. */
    std::map<std::string, double> selfMs;
};

/**
 * A workload: inputs from a seed, a reference, fresh model state, the
 * simulated job, the output check, and the traced inner-layer calls.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Draw the input stream from @p seed. */
    virtual void generate(Tracer *tr, std::uint64_t seed) = 0;
    /** Compute the expected outputs and build fresh model state. */
    virtual void setup(Tracer *tr) = 0;
    /** Run the whole stream through the simulator. */
    virtual void simulate(Tracer *tr) = 0;
    /** Check outputs against the reference; @p perturb corrupts one
     *  output element first (the benchmark's negative self-test). */
    virtual CheckResult check(Tracer *tr, bool perturb) = 0;
    /** Time the inner layers alone on the last job's input. */
    virtual void traceInner(Tracer &tr) = 0;
    /** Per-layer metrics of a traced job. */
    virtual Layers layers(const Tracer &tr) const = 0;
    virtual Modeled modeled() const = 0;
    /** Queries (rows for SpMV) simulated per job. */
    virtual double queries() const = 0;
    /** Gathered references (nonzeros for SpMV) simulated per job. */
    virtual double references() const = 0;
};

// --- Shared shape ----------------------------------------------------------

/** fafnir_sim's default table set: 32 tables x 1M rows, 512 B vectors. */
embedding::TableConfig
tableSet()
{
    return {32, 1u << 20, 512, 4};
}

constexpr unsigned kRanks = 32;

std::unique_ptr<dram::MemorySystem>
makeMemory(EventQueue &eq)
{
    return std::make_unique<dram::MemorySystem>(
        eq, dram::Geometry::withTotalRanks(kRanks),
        dram::Timing::ddr4_2400(), dram::Interleave::BlockRank, 512);
}

double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerUs);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// --- Embedding lookup workloads --------------------------------------------

/** Counts gathered by the inner-layer calls of a traced lookup job. */
struct InnerCounts
{
    std::size_t refs = 0;
    std::size_t reads = 0;
    std::size_t peOutputs = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t events = 0;
    double rowHitRatio = 0.0;

    void
    addPrepared(const core::PreparedBatch &p)
    {
        refs += p.totalReferences;
        reads += p.accessCount;
    }

    void
    addTreeRun(const core::TreeRun &run)
    {
        for (const auto &pe : run.trace)
            peOutputs += pe.outputs.size();
    }

    void
    readMemory(const dram::MemorySystem &m)
    {
        const auto hits = static_cast<double>(m.rowHitCount());
        dramReads = m.readCount();
        rowHitRatio = ratio(hits, hits + static_cast<double>(m.rowMissCount()));
    }
};

/** A workload over a stream of embedding-lookup batches. */
class EmbeddingWorkload : public Workload
{
  public:
    double
    queries() const override
    {
        double n = 0;
        for (const auto &b : stream_)
            n += static_cast<double>(b.size());
        return n;
    }

    double
    references() const override
    {
        double n = 0;
        for (const auto &b : stream_)
            n += static_cast<double>(b.totalIndices());
        return n;
    }

  protected:
    explicit EmbeddingWorkload(unsigned batches) : batches_(batches) {}

    void
    drawStream(Tracer *tr, const embedding::WorkloadConfig &wc,
               std::uint64_t seed)
    {
        Span span(tr, "embedding.generate");
        embedding::BatchGenerator gen(wc, seed);
        stream_.clear();
        for (unsigned i = 0; i < batches_; ++i)
            stream_.push_back(gen.next());
    }

    /** Generation, prepare, tree and DRAM-read metrics of a traced job. */
    std::map<std::string, double>
    commonMetrics(const Tracer &tr) const
    {
        const double gen = tr.ms("embedding.generate");
        const double prep = tr.ms("fafnir.host");
        const double tree = tr.ms("fafnir.tree");
        const double dram = tr.ms("dram.read");
        const auto refs = static_cast<double>(counts_.refs);
        const auto reads = static_cast<double>(counts_.reads);
        const auto outputs = static_cast<double>(counts_.peOutputs);
        const auto dram_reads = static_cast<double>(counts_.dramReads);
        return {
            {"embedding.generate_ms", gen},
            {"embedding.generate_ns_per_ref", ratio(gen * 1e6, references())},
            {"fafnir.host.prepare_ms", prep},
            {"fafnir.host.prepare_ns_per_ref", ratio(prep * 1e6, refs)},
            {"fafnir.host.refs", refs},
            {"fafnir.host.reads", reads},
            {"fafnir.host.reads_per_ref", ratio(reads, refs)},
            {"fafnir.tree.run_ms", tree},
            {"fafnir.tree.pe_outputs", outputs},
            {"fafnir.tree.ns_per_pe_output", ratio(tree * 1e6, outputs)},
            {"sim.events", static_cast<double>(counts_.events)},
            {"dram.read_ms", dram},
            {"dram.reads", dram_reads},
            {"dram.ns_per_read", ratio(dram * 1e6, dram_reads)},
            {"dram.row_hit_ratio", counts_.rowHitRatio},
        };
    }

    unsigned batches_;
    std::vector<embedding::Batch> stream_;
    InnerCounts counts_;
};

// --- lookup_zipf_q24 -------------------------------------------------------

/**
 * Header-only analytic lookups over a Zipfian stream (FafnirEngine::
 * lookupMany, the path `fafnir_sim --engine=analytic` runs).
 */
class LookupZipf : public EmbeddingWorkload
{
  public:
    static constexpr unsigned kBatches = 200;

    explicit LookupZipf(unsigned batches) : EmbeddingWorkload(batches) {}

    void
    generate(Tracer *tr, std::uint64_t seed) override
    {
        embedding::WorkloadConfig wc;
        wc.tables = tableSet();
        wc.batchSize = 32;
        wc.querySize = 24;
        wc.popularity = embedding::Popularity::Zipfian;
        wc.zipfSkew = 0.9;
        wc.hotFraction = 0.001;
        drawStream(tr, wc, seed);
    }

    void
    setup(Tracer *tr) override
    {
        Span span(tr, "bench.setup");
        // Expected per-batch reference and unique-index counts.
        expectUnique_.clear();
        expectRefs_.clear();
        for (const auto &b : stream_) {
            std::vector<IndexId> all;
            for (const auto &q : b.queries)
                all.insert(all.end(), q.indices.begin(), q.indices.end());
            expectRefs_.push_back(all.size());
            std::sort(all.begin(), all.end());
            expectUnique_.push_back(static_cast<std::size_t>(
                std::unique(all.begin(), all.end()) - all.begin()));
        }
        engine_.reset();
        layout_.reset();
        memory_.reset();
        eq_ = std::make_unique<EventQueue>();
        memory_ = makeMemory(*eq_);
        layout_ = std::make_unique<embedding::VectorLayout>(
            tableSet(), memory_->mapper());
        engine_ = std::make_unique<core::FafnirEngine>(
            *memory_, *layout_, core::EngineConfig{});
    }

    void
    simulate(Tracer *tr) override
    {
        Span span(tr, "fafnir.engine");
        timings_ = engine_->lookupMany(stream_, 0);
    }

    CheckResult
    check(Tracer *tr, bool perturb) override
    {
        Span span(tr, "bench.check");
        if (perturb && !timings_.empty())
            ++timings_[0].uniqueCount;
        CheckResult r;
        Digest d;
        Tick prev = 0;
        for (std::size_t b = 0; b < stream_.size(); ++b) {
            const core::LookupTiming &t = timings_.at(b);
            bool ok = t.uniqueCount == expectUnique_[b] &&
                      t.memAccesses == expectUnique_[b] &&
                      t.totalReferences == expectRefs_[b] &&
                      t.queryComplete.size() == stream_[b].size() &&
                      t.complete >= prev && t.memLast <= t.complete;
            for (Tick q : t.queryComplete)
                ok = ok && q > t.issued && q <= t.complete;
            prev = t.complete;
            ++r.checked;
            r.failed += ok ? 0 : 1;
            d.add(t.complete);
            d.add(t.memFirst);
            d.add(t.memLast);
            d.add(t.memAccesses);
            d.add(t.dramPayloadBytes);
            d.add(t.linkPayloadBytes);
            d.add(t.activity.reduces);
            d.add(t.activity.forwards);
            d.addAll(t.queryComplete);
        }
        r.digest = d.value();
        return r;
    }

    void
    traceInner(Tracer &tr) override
    {
        // FafnirEngine::lookupMany's inner calls, batch by batch in its
        // order: prepare, every DRAM read at tick 0 (rank-ascending, as
        // runPrepared issues them), then the header-only tree run.
        const core::Host host(*layout_);
        const core::FunctionalTree tree(engine_->topology());
        EventQueue eq;
        const auto memory = makeMemory(eq);
        const unsigned bytes = tableSet().vectorBytes;
        counts_ = {};
        for (const auto &b : stream_) {
            core::PreparedBatch p;
            {
                Span span(&tr, "fafnir.host", "fafnir.engine");
                p = host.prepare(b, /*dedup=*/true);
            }
            counts_.addPrepared(p);
            {
                Span span(&tr, "dram.read", "fafnir.engine");
                for (const auto &rank : p.rankReads)
                    for (const auto &read : rank)
                        memory->read(read.address, bytes, 0,
                                     dram::Destination::Ndp);
            }
            {
                Span span(&tr, "fafnir.tree", "fafnir.engine");
                counts_.addTreeRun(tree.run(p, /*values=*/false,
                                            /*keep_trace=*/true));
            }
        }
        counts_.readMemory(*memory);
        // The analytic engine reads DRAM synchronously: no events.
        counts_.events = eq_->executedCount();
    }

    Layers
    layers(const Tracer &tr) const override
    {
        Layers l;
        const double gen = tr.ms("embedding.generate");
        const double prep = tr.ms("fafnir.host");
        const double tree = tr.ms("fafnir.tree");
        const double dram = tr.ms("dram.read");
        const double engine_self =
            tr.ms("fafnir.engine") - prep - tree - dram;
        l.metrics = commonMetrics(tr);
        l.metrics["fafnir.engine.self_ms"] = engine_self;
        l.selfMs = {{"embedding.generate", gen},
                    {"bench.setup", tr.ms("bench.setup")},
                    {"fafnir.engine", engine_self},
                    {"fafnir.host", prep},
                    {"fafnir.tree", tree},
                    {"dram.read", dram},
                    {"bench.check", tr.ms("bench.check")}};
        return l;
    }

    Modeled
    modeled() const override
    {
        Modeled m;
        // The stream is back to back with ordered deliveries: a query's
        // latency runs from the previous batch's completion (the stream
        // start for the first batch) to its vector landing at the host.
        Tick prev = 0;
        for (const auto &t : timings_) {
            m.dramBytes += static_cast<double>(t.dramPayloadBytes);
            for (Tick q : t.queryComplete)
                m.latencyUs.push_back(ticksToUs(q - prev));
            prev = t.complete;
        }
        m.makespanUs = ticksToUs(prev);
        return m;
    }

  private:
    std::vector<std::size_t> expectUnique_;
    std::vector<std::size_t> expectRefs_;
    std::unique_ptr<EventQueue> eq_;
    std::unique_ptr<dram::MemorySystem> memory_;
    std::unique_ptr<embedding::VectorLayout> layout_;
    std::unique_ptr<core::FafnirEngine> engine_;
    std::vector<core::LookupTiming> timings_;
};

// --- serve_uniform_q8 ------------------------------------------------------

/**
 * Open-loop serving over four event-engine replicas with real values
 * (ServingPipeline::serve), every served vector checked against
 * EmbeddingStore::reduce.
 */
class ServeUniform : public EmbeddingWorkload
{
  public:
    static constexpr unsigned kBatches = 200;
    static constexpr unsigned kReplicas = 4;
    /** Simulated arrival gap: about 70% of the four replicas' modeled
     *  capacity, so the modeled queue does not grow. */
    static constexpr Tick kArrivalGap = 510 * kTicksPerNs;

    explicit ServeUniform(unsigned batches)
        : EmbeddingWorkload(batches), store_(tableSet())
    {}

    void
    generate(Tracer *tr, std::uint64_t seed) override
    {
        embedding::WorkloadConfig wc;
        wc.tables = tableSet();
        wc.batchSize = 32;
        wc.querySize = 8;
        wc.popularity = embedding::Popularity::Uniform;
        drawStream(tr, wc, seed);
    }

    void
    setup(Tracer *tr) override
    {
        Span span(tr, "bench.setup");
        expect_.clear();
        for (const auto &b : stream_)
            expect_.push_back(store_.reduceBatch(b));
        pipeline_.reset();
        replicas_ = core::makeEventReplicas(kReplicas, {}, tableSet(),
                                            engineConfig(), &store_);
        pipeline_ = std::make_unique<core::ServingPipeline>(
            servingConfig(), replicas_, &store_);
    }

    void
    simulate(Tracer *tr) override
    {
        Span span(tr, "fafnir.serving");
        report_ = pipeline_->serve(stream_, kArrivalGap);
    }

    CheckResult
    check(Tracer *tr, bool perturb) override
    {
        Span span(tr, "bench.check");
        if (perturb && !report_.batches.empty() &&
            !report_.batches[0].timing.results.empty() &&
            !report_.batches[0].timing.results[0].empty())
            report_.batches[0].timing.results[0][0] += 1.0f;
        CheckResult r;
        Digest d;
        // Every batch is served exactly once.
        r.checked += 1;
        r.failed += report_.batches.size() == stream_.size() ? 0 : 1;
        for (const auto &trace : report_.batches) {
            const auto &results = trace.timing.results;
            const auto &expect = expect_.at(trace.batch);
            for (std::size_t q = 0; q < expect.size(); ++q) {
                const bool ok =
                    q < results.size() &&
                    results[q].size() == expect[q].size() &&
                    std::memcmp(results[q].data(), expect[q].data(),
                                expect[q].size() * sizeof(float)) == 0;
                ++r.checked;
                r.failed += ok ? 0 : 1;
                if (q < results.size())
                    d.addAll(results[q]);
            }
            d.add(trace.batch);
            d.add(trace.engine);
            d.add(trace.arrival);
            d.add(trace.started);
            d.add(trace.complete);
            d.add(trace.done);
            d.add(trace.timing.memAccesses);
            d.add(trace.timing.dramPayloadBytes);
            d.addAll(trace.timing.queryComplete);
        }
        d.add(report_.makespan);
        r.digest = d.value();
        return r;
    }

    void
    traceInner(Tracer &tr) override
    {
        // ServingPipeline::serve's inner calls, batch by batch: prepare,
        // then the event engine on fresh replicas, each batch on the
        // replica and at the start tick the job's dispatch chose. Inside
        // the engine: the tree run with values, and readAsync per read
        // with completions delivered through an event queue.
        const embedding::VectorLayout &layout = *replicas_[0].layout;
        core::VectorPool pool;
        std::vector<core::EngineReplica> fresh = core::makeEventReplicas(
            kReplicas, {}, tableSet(), engineConfig(), &store_);
        const core::FunctionalTree tree(fresh[0].engine->topology());
        EventQueue eq;
        const auto memory = makeMemory(eq);
        const unsigned bytes = tableSet().vectorBytes;
        counts_ = {};
        for (const auto &served : report_.batches) {
            core::PreparedBatch p;
            {
                Span span(&tr, "fafnir.host", "fafnir.serving");
                p = core::prepareBatch(layout, &store_,
                                       stream_.at(served.batch),
                                       /*dedup=*/true, &pool);
            }
            counts_.addPrepared(p);
            core::EventLookupTiming timing;
            {
                Span span(&tr, "fafnir.event_engine", "fafnir.serving");
                timing = fresh.at(served.engine).engine->lookupPrepared(
                    p, served.started);
            }
            {
                Span span(&tr, "dram.read", "fafnir.event_engine");
                const Tick at = std::max(served.started, eq.now());
                for (const auto &rank : p.rankReads)
                    for (const auto &read : rank)
                        memory->readAsync(
                            read.address, bytes, at,
                            dram::Destination::Ndp,
                            [](Tick, const dram::AccessResult &) {});
                eq.run();
            }
            {
                Span span(&tr, "fafnir.tree", "fafnir.event_engine");
                counts_.addTreeRun(tree.run(p, /*values=*/true,
                                            /*keep_trace=*/true));
            }
            // The pipeline recycles each slot's value buffers likewise.
            core::releasePrepared(p, pool);
        }
        for (const auto &r : fresh)
            counts_.events += r.eventq->executedCount();
        counts_.readMemory(*memory);
    }

    Layers
    layers(const Tracer &tr) const override
    {
        Layers l;
        const double gen = tr.ms("embedding.generate");
        const double prep = tr.ms("fafnir.host");
        const double engine = tr.ms("fafnir.event_engine");
        const double tree = tr.ms("fafnir.tree");
        const double dram = tr.ms("dram.read");
        const double serving_self = tr.ms("fafnir.serving") - prep - engine;
        const double engine_self = engine - tree - dram;
        l.metrics = commonMetrics(tr);
        l.metrics["fafnir.event_engine.self_ms"] = engine_self;
        l.metrics["sim.host_ns_per_event"] =
            ratio(engine * 1e6, static_cast<double>(counts_.events));
        l.metrics["fafnir.serving.self_ms"] = serving_self;
        l.metrics["fafnir.serving.batches"] =
            static_cast<double>(report_.batches.size());
        l.selfMs = {{"embedding.generate", gen},
                    {"bench.setup", tr.ms("bench.setup")},
                    {"fafnir.serving", serving_self},
                    {"fafnir.host", prep},
                    {"fafnir.event_engine", engine_self},
                    {"fafnir.tree", tree},
                    {"dram.read", dram},
                    {"bench.check", tr.ms("bench.check")}};
        return l;
    }

    Modeled
    modeled() const override
    {
        Modeled m;
        m.makespanUs = ticksToUs(report_.makespan);
        for (const auto &trace : report_.batches) {
            m.dramBytes += static_cast<double>(trace.timing.dramPayloadBytes);
            // Arrival to writeback, per query (the serving layer's own
            // latency definition).
            const double us = ticksToUs(trace.done - trace.arrival);
            m.latencyUs.insert(m.latencyUs.end(),
                               stream_.at(trace.batch).size(), us);
        }
        return m;
    }

  private:
    static core::EventEngineConfig
    engineConfig()
    {
        core::EventEngineConfig c;
        c.computeValues = true;
        return c;
    }

    static core::ServingConfig
    servingConfig()
    {
        core::ServingConfig c;
        c.engines = kReplicas;
        c.pipelineDepth = 8;
        c.prepareWorkers = 1;
        return c;
    }

    embedding::EmbeddingStore store_;
    std::vector<std::vector<embedding::Vector>> expect_;
    std::vector<core::EngineReplica> replicas_;
    std::unique_ptr<core::ServingPipeline> pipeline_;
    core::PipelineReport report_;
};

// --- spmv_powerlaw ---------------------------------------------------------

/**
 * SpMV on a power-law graph (the `fafnir_sim --matrix=web` shape) with the
 * Fafnir tree and the Two-Step baseline, both checked against CSR SpMV.
 */
class SpmvPowerLaw : public Workload
{
  public:
    static constexpr unsigned kNodes = 1u << 14;

    explicit SpmvPowerLaw(unsigned nodes) : nodes_(nodes) {}

    void
    generate(Tracer *tr, std::uint64_t seed) override
    {
        Span span(tr, "sparse.matgen");
        lil_.reset();
        csr_.reset();
        Rng rng(seed);
        csr_ = std::make_unique<sparse::CsrMatrix>(
            sparse::makePowerLawGraph(nodes_, 8.0, 0.9, rng));
        lil_ = std::make_unique<sparse::LilMatrix>(
            sparse::LilMatrix::fromCsr(*csr_));
        x_ = sparse::makeOperand(csr_->cols());
    }

    void
    setup(Tracer *tr) override
    {
        Span span(tr, "bench.setup");
        expect_ = csr_->multiply(x_);
        fafnirMemory_.reset();
        twoStepMemory_.reset();
        fafnirEq_ = std::make_unique<EventQueue>();
        twoStepEq_ = std::make_unique<EventQueue>();
        fafnirMemory_ = makeMemory(*fafnirEq_);
        twoStepMemory_ = makeMemory(*twoStepEq_);
    }

    void
    simulate(Tracer *tr) override
    {
        {
            Span span(tr, "sparse.fafnir_multiply");
            sparse::FafnirSpmv engine(*fafnirMemory_);
            yFafnir_ = engine.multiply(*lil_, x_, 0, fafnirTiming_);
        }
        {
            Span span(tr, "baselines.two_step_multiply");
            baselines::TwoStepEngine engine(*twoStepMemory_);
            yTwoStep_ = engine.multiply(*lil_, x_, 0, twoStepTiming_);
        }
    }

    CheckResult
    check(Tracer *tr, bool perturb) override
    {
        Span span(tr, "bench.check");
        if (perturb && !yFafnir_.empty())
            yFafnir_[0] += 1.0f;
        CheckResult r;
        r.checked = 2;
        r.failed = (sparse::denseEqual(yFafnir_, expect_) ? 0 : 1) +
                   (sparse::denseEqual(yTwoStep_, expect_) ? 0 : 1);
        Digest d;
        for (const sparse::SpmvTiming *t : {&fafnirTiming_, &twoStepTiming_}) {
            d.add(t->complete);
            d.addAll(t->iterationComplete);
            d.add(t->multiplies);
            d.add(t->reduces);
            d.add(t->streamedBytes);
            d.add(t->intermediateEntries);
        }
        d.addAll(yFafnir_);
        d.addAll(yTwoStep_);
        r.digest = d.value();
        return r;
    }

    void
    traceInner(Tracer &tr) override
    {
        // FafnirSpmv's iteration-0 DRAM streams: per column round, each
        // rank streams its rows' nonzeros (8 B per entry).
        const unsigned width = sparse::FafnirSpmvConfig{}.vectorSize;
        const std::size_t rounds = (lil_->cols() + width - 1) / width;
        std::vector<std::vector<std::uint64_t>> bytes(
            rounds, std::vector<std::uint64_t>(kRanks, 0));
        for (std::uint32_t r = 0; r < lil_->rows(); ++r)
            for (const auto &e : lil_->rowList(r))
                bytes[e.first / width][r % kRanks] += 8;
        EventQueue eq;
        const auto memory = makeMemory(eq);
        {
            Span span(&tr, "dram.stream", "sparse.fafnir_multiply");
            Tick t = 0;
            for (const auto &round : bytes) {
                Tick done = t;
                for (unsigned rank = 0; rank < kRanks; ++rank)
                    if (round[rank] != 0)
                        done = std::max(
                            done, memory->streamFromRank(
                                      rank, round[rank], t,
                                      dram::Destination::Ndp));
                t = done;
            }
        }
    }

    Layers
    layers(const Tracer &tr) const override
    {
        Layers l;
        const double gen = tr.ms("sparse.matgen");
        const double fafnir = tr.ms("sparse.fafnir_multiply");
        const double stream = tr.ms("dram.stream");
        const double two_step = tr.ms("baselines.two_step_multiply");
        l.metrics = {
            {"sparse.matgen_ms", gen},
            {"sparse.fafnir_multiply_ms", fafnir},
            {"sparse.ns_per_nnz",
             ratio(fafnir * 1e6, static_cast<double>(csr_->nnz()))},
            {"baselines.two_step_multiply_ms", two_step},
            {"dram.stream_ms", stream},
        };
        l.selfMs = {{"sparse.matgen", gen},
                    {"bench.setup", tr.ms("bench.setup")},
                    {"sparse.fafnir_multiply", fafnir - stream},
                    {"dram.stream", stream},
                    {"baselines.two_step_multiply", two_step},
                    {"bench.check", tr.ms("bench.check")}};
        return l;
    }

    Modeled
    modeled() const override
    {
        Modeled m;
        m.makespanUs = ticksToUs(fafnirTiming_.totalTime());
        m.dramBytes = static_cast<double>(fafnirTiming_.streamedBytes);
        // One request per job: the Fafnir multiply.
        m.latencyUs.push_back(m.makespanUs);
        return m;
    }

    /** Output rows of both engines' multiplies. */
    double queries() const override { return 2.0 * csr_->rows(); }
    /** Nonzeros of both engines' multiplies. */
    double
    references() const override
    {
        return 2.0 * static_cast<double>(csr_->nnz());
    }

  private:
    unsigned nodes_;
    std::unique_ptr<sparse::CsrMatrix> csr_;
    std::unique_ptr<sparse::LilMatrix> lil_;
    sparse::DenseVector x_;
    sparse::DenseVector expect_;
    std::unique_ptr<EventQueue> fafnirEq_, twoStepEq_;
    std::unique_ptr<dram::MemorySystem> fafnirMemory_, twoStepMemory_;
    sparse::DenseVector yFafnir_, yTwoStep_;
    sparse::SpmvTiming fafnirTiming_, twoStepTiming_;
};

// --- Metrics ----------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    /** "host" (wall clock of the simulator) or "modeled" (simulated). */
    const char *kind;
    const char *better;
};

const MetricDef kEndToEnd[] = {
    {"sim_queries_per_s", "1/s", "host", "higher"},
    {"sim_nnz_per_s", "1/s", "host", "higher"},
    {"setup_s", "s", "host", "lower"},
    {"peak_rss_mb", "MB", "host", "lower"},
    {"modeled_us", "us", "modeled", "lower"},
    {"modeled_dram_bytes", "bytes", "modeled", "lower"},
    {"modeled_p50_us", "us", "modeled", "lower"},
    {"modeled_p99_us", "us", "modeled", "lower"},
};

const MetricDef kPerLayer[] = {
    {"embedding.generate_ms", "ms", "host", "lower"},
    {"embedding.generate_ns_per_ref", "ns", "host", "lower"},
    {"fafnir.host.prepare_ms", "ms", "host", "lower"},
    {"fafnir.host.prepare_ns_per_ref", "ns", "host", "lower"},
    {"fafnir.host.refs", "count", "modeled", "lower"},
    {"fafnir.host.reads", "count", "modeled", "lower"},
    {"fafnir.host.reads_per_ref", "ratio", "modeled", "lower"},
    {"fafnir.tree.run_ms", "ms", "host", "lower"},
    {"fafnir.tree.pe_outputs", "count", "modeled", "lower"},
    {"fafnir.tree.ns_per_pe_output", "ns", "host", "lower"},
    {"fafnir.engine.self_ms", "ms", "host", "lower"},
    {"fafnir.event_engine.self_ms", "ms", "host", "lower"},
    {"sim.events", "count", "modeled", "lower"},
    {"sim.host_ns_per_event", "ns", "host", "lower"},
    {"dram.read_ms", "ms", "host", "lower"},
    {"dram.reads", "count", "modeled", "lower"},
    {"dram.ns_per_read", "ns", "host", "lower"},
    {"dram.row_hit_ratio", "ratio", "modeled", "higher"},
    {"dram.stream_ms", "ms", "host", "lower"},
    {"fafnir.serving.self_ms", "ms", "host", "lower"},
    {"fafnir.serving.batches", "count", "modeled", "lower"},
    {"sparse.matgen_ms", "ms", "host", "lower"},
    {"sparse.fafnir_multiply_ms", "ms", "host", "lower"},
    {"sparse.ns_per_nnz", "ns", "host", "lower"},
    {"baselines.two_step_multiply_ms", "ms", "host", "lower"},
    {"bench.setup_ms", "ms", "host", "lower"},
    {"bench.check_ms", "ms", "host", "lower"},
    {"telemetry.flightrec_on_ratio", "ratio", "host", "lower"},
    {"trace.overhead_ratio", "ratio", "host", "lower"},
    {"trace.wall_ms", "ms", "host", "lower"},
    {"trace.residual_ms", "ms", "host", "lower"},
    {"trace.residual_ratio", "ratio", "host", "lower"},
};

/** Largest |residual| / traced wall the telescoping check accepts. */
constexpr double kTelescopeMargin = 0.05;

/** Host fingerprint: where a host-time number was measured. */
std::string
fingerprintJson(const std::string &revision)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    auto quote = [](const std::string &s) {
        std::string out = "\"";
        for (char c : s)
            if (c != '"' && c != '\\')
                out += c;
        return out + "\"";
    };
    return "{\"cpu\": " + quote(cpu) + ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + quote(PERFBENCH_COMPILER) +
           ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
           ", \"flags\": " + quote(PERFBENCH_FLAGS) +
           ", \"revision\": " + quote(revision) + "}";
}

/**
 * Peak resident set of this program, from VmHWM. getrusage's ru_maxrss
 * would also count the parent's pages at fork, which survive exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool perturb = false;
    /** Stream length override (batches, or matrix nodes for SpMV). */
    unsigned size = 0;
    std::string revision = "unknown";
};

std::unique_ptr<Workload>
makeWorkload(const Options &opt)
{
    if (opt.workload == "lookup_zipf_q24")
        return std::make_unique<LookupZipf>(
            opt.size ? opt.size : LookupZipf::kBatches);
    if (opt.workload == "serve_uniform_q8")
        return std::make_unique<ServeUniform>(
            opt.size ? opt.size : ServeUniform::kBatches);
    if (opt.workload == "spmv_powerlaw")
        return std::make_unique<SpmvPowerLaw>(
            opt.size ? opt.size : SpmvPowerLaw::kNodes);
    return nullptr;
}

/** Repetitions every run makes at least, whatever the time budget. */
constexpr unsigned kMinReps = 3;

/** Check bookkeeping shared by every job of a run. */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool digestSet = false;
    std::uint64_t digest = 0;
    std::size_t digestMismatches = 0;

    void
    add(const CheckResult &r)
    {
        attempted += r.checked;
        failed += r.failed;
        if (!digestSet) {
            digest = r.digest;
            digestSet = true;
        } else if (r.digest != digest) {
            // A repetition modeled something else: a determinism failure.
            ++attempted;
            ++failed;
            ++digestMismatches;
        }
    }
};

/**
 * Untraced end-to-end run (--trace 0). Every repetition sets up afresh
 * (inputs, reference, model state) and then runs the stream; set-up and
 * simulation are timed separately, and each reported time is the median
 * over the repetitions of the whole budget.
 */
std::map<std::string, double>
runEndToEnd(Workload &w, const Options &opt, Checks &checks,
            std::map<std::string, double> &extra)
{
    std::vector<double> setup, sim;
    Modeled modeled;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (unsigned rep = 0; rep < kMinReps || Clock::now() < deadline;
         ++rep) {
        const auto t0 = Clock::now();
        w.generate(nullptr, opt.seed);
        w.setup(nullptr);
        const auto t1 = Clock::now();
        w.simulate(nullptr);
        const auto t2 = Clock::now();
        setup.push_back(msBetween(t0, t1) / 1000.0);
        sim.push_back(msBetween(t1, t2) / 1000.0);
        checks.add(w.check(nullptr, opt.perturb && rep == 0));
        if (rep == 0)
            modeled = w.modeled();
    }

    const double sim_s = median(sim);
    extra["reps"] = static_cast<double>(sim.size());
    extra["latency_samples"] = static_cast<double>(modeled.latencyUs.size());
    return {
        {"sim_queries_per_s", w.queries() / sim_s},
        {"sim_nnz_per_s", w.references() / sim_s},
        {"setup_s", median(setup)},
        {"peak_rss_mb", peakRssMb()},
        {"modeled_us", modeled.makespanUs},
        {"modeled_dram_bytes", modeled.dramBytes},
        {"modeled_p50_us", percentile(modeled.latencyUs, 50.0)},
        {"modeled_p99_us", percentile(modeled.latencyUs, 99.0)},
    };
}

/**
 * Traced per-layer run (--trace 1). Three job kinds take turns, in an
 * order that rotates every round, until the budget is spent: untraced,
 * traced (spans, then the inner layers called alone), and untraced with a
 * flight recorder installed. Every job is the whole workload: generate,
 * set up, simulate, check.
 */
std::map<std::string, double>
runTraced(Workload &w, const Options &opt, Checks &checks,
          std::map<std::string, double> &extra, std::string &spans,
          bool &telescoped)
{
    std::vector<double> plain_wall, traced_wall, plain_sim, rec_sim;
    std::map<std::string, std::vector<double>> layer_samples;
    std::vector<double> residuals, residual_ratios;
    bool perturb = opt.perturb;

    auto job = [&](Tracer *tr, double &sim_ms) {
        const auto t0 = Clock::now();
        w.generate(tr, opt.seed);
        w.setup(tr);
        const auto s0 = Clock::now();
        w.simulate(tr);
        sim_ms = msBetween(s0, Clock::now());
        checks.add(w.check(tr, perturb));
        perturb = false;
        return msBetween(t0, Clock::now());
    };
    auto plain = [&] {
        double sim_ms = 0.0;
        plain_wall.push_back(job(nullptr, sim_ms));
        plain_sim.push_back(sim_ms);
    };
    auto traced = [&] {
        Tracer tracer;
        double sim_ms = 0.0;
        const double wall = job(&tracer, sim_ms);
        traced_wall.push_back(wall);
        w.traceInner(tracer);
        const Layers l = w.layers(tracer);
        for (const auto &[name, value] : l.metrics)
            layer_samples[name].push_back(value);
        layer_samples["bench.setup_ms"].push_back(tracer.ms("bench.setup"));
        layer_samples["bench.check_ms"].push_back(tracer.ms("bench.check"));
        // Telescoping: the self times must add up to the traced wall. A
        // negative self time (inner layers called alone took longer than
        // their caller's span) counts as zero, so it shows as a residual.
        double self_sum = 0.0;
        for (const auto &[name, ms] : l.selfMs)
            self_sum += std::max(ms, 0.0);
        residuals.push_back(wall - self_sum);
        residual_ratios.push_back((wall - self_sum) / wall);
        spans = tracer.summaryJson();
    };
    auto recorded = [&] {
        telemetry::FlightRecorder recorder;
        telemetry::ScopedFlightRecorderInstall install(&recorder);
        double sim_ms = 0.0;
        job(nullptr, sim_ms);
        rec_sim.push_back(sim_ms);
    };

    const auto deadline =
        Clock::now() + std::chrono::duration<double>(opt.seconds);
    for (unsigned round = 0; round < kMinReps || Clock::now() < deadline;
         ++round) {
        for (unsigned k = 0; k < 3; ++k) {
            switch ((round + k) % 3) {
              case 0: plain(); break;
              case 1: traced(); break;
              default: recorded(); break;
            }
        }
    }

    std::map<std::string, double> metrics;
    for (const auto &def : kPerLayer)
        metrics[def.name] = 0.0;
    for (const auto &[name, samples] : layer_samples)
        metrics[name] = median(samples);
    // Ratios pair the jobs of one round, which ran seconds apart, so slow
    // phases of the host cancel; the median is over rounds.
    std::vector<double> rec_ratio, trace_ratio;
    for (std::size_t i = 0; i < plain_sim.size(); ++i) {
        rec_ratio.push_back(rec_sim[i] / plain_sim[i]);
        trace_ratio.push_back(traced_wall[i] / plain_wall[i]);
    }
    metrics["telemetry.flightrec_on_ratio"] = median(rec_ratio);
    metrics["trace.overhead_ratio"] = median(trace_ratio);
    metrics["trace.wall_ms"] = median(traced_wall);
    metrics["trace.residual_ms"] = median(residuals);
    metrics["trace.residual_ratio"] = median(residual_ratios);
    extra["reps"] = static_cast<double>(traced_wall.size());
    // The layer breakdown is usable only when the self times cover the
    // job. This gates the breakdown, not the simulator's outputs, so it
    // is reported rather than counted as a failed check.
    telescoped =
        std::fabs(metrics["trace.residual_ratio"]) <= kTelescopeMargin;
    if (!telescoped)
        std::fprintf(stderr,
                     "telescoping check failed: residual %.2f%% of the "
                     "traced wall (margin %.0f%%)\n",
                     100.0 * metrics["trace.residual_ratio"],
                     100.0 * kTelescopeMargin);
    return metrics;
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (key == "--perturb") {
            opt.perturb = true;
            continue;
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            std::fprintf(stderr, "error: %s needs a value\n", key.c_str());
            return false;
        }
        try {
            if (key == "--workload")
                opt.workload = value;
            else if (key == "--seed")
                opt.seed = std::stoull(value);
            else if (key == "--seconds")
                opt.seconds = std::stod(value);
            else if (key == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (key == "--size")
                opt.size = static_cast<unsigned>(std::stoul(value));
            else if (key == "--revision")
                opt.revision = value;
            else {
                std::fprintf(stderr, "error: unknown flag %s\n",
                             key.c_str());
                return false;
            }
        } catch (const std::exception &) {
            std::fprintf(stderr, "error: bad value '%s' for %s\n",
                         value.c_str(), key.c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt))
        return 2;
    std::unique_ptr<Workload> w = makeWorkload(opt);
    if (!w) {
        std::fprintf(stderr,
                     "usage: perfbench --workload lookup_zipf_q24|"
                     "serve_uniform_q8|spmv_powerlaw --seed N --seconds S "
                     "--trace 0|1 [--size N] [--perturb]\n");
        return 2;
    }

    Checks checks;
    std::map<std::string, double> extra;
    std::string spans;
    bool telescoped = true;
    const std::map<std::string, double> metrics =
        opt.trace ? runTraced(*w, opt, checks, extra, spans, telescoped)
                  : runEndToEnd(*w, opt, checks, extra);

    // Human-readable table: every metric with its unit, kind, direction.
    std::printf("%-32s %22s %-6s %-8s %s\n", "metric", "value", "unit",
                "kind", "better");
    auto row = [&](const MetricDef &def) {
        std::printf("%-32s %22.6f %-6s %-8s %s\n", def.name,
                    metrics.at(def.name), def.unit, def.kind, def.better);
    };
    if (opt.trace)
        for (const auto &def : kPerLayer)
            row(def);
    else
        for (const auto &def : kEndToEnd)
            row(def);

    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(checks.digest));
    std::printf("{\"report\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"digest\": \"%s\", "
                "\"digest_mismatches\": %zu",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                digest, checks.digestMismatches);
    for (const auto &[name, value] : extra)
        std::printf(", \"%s\": %.17g", name.c_str(), value);
    if (opt.trace)
        std::printf(", \"telescoping\": \"%s\", \"telescope_margin\": %g, "
                    "\"spans\": %s",
                    telescoped ? "pass" : "fail", kTelescopeMargin,
                    spans.c_str());
    std::printf(", \"fingerprint\": %s}}\n",
                fingerprintJson(opt.revision).c_str());

    const bool correct = checks.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", checks.attempted, checks.failed);
    bool first = true;
    auto emit = [&](const MetricDef &def) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", def.name, metrics.at(def.name),
                    def.unit);
        first = false;
    };
    if (opt.trace)
        for (const auto &def : kPerLayer)
            emit(def);
    else
        for (const auto &def : kEndToEnd)
            emit(def);
    std::printf("}}\n");
    return correct ? 0 : 1;
}
