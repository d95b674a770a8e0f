/**
 * @file
 * One-object telemetry wiring for a CLI harness.
 *
 * A TelemetrySession bundles the telemetry outputs every harness
 * offers — `--stats-json`, `--stats-csv`, `--trace`, `--report` — into
 * one object: it registers the flags, creates the instruments the
 * flags ask for, installs them for the run as one Instruments context
 * (common/instruments.hh), and writes whichever artifacts were asked
 * for in finish(). The instruments are the trace sink (`--trace`),
 * latency attribution (`--attrib`), the fault plan (`--faults <spec>
 * --fault-seed <n>`, see docs/ROBUSTNESS.md; its counters land under
 * the "faults" stat group and its injected/checked totals in the
 * report), the windowed metrics engine (`--timeline <path>`, window
 * width `--window-us`), the burn-rate SLO monitor (`--slo <spec>`, see
 * docs/OBSERVABILITY.md) and the flight recorder (`--debug-bundle-dir
 * <dir>`, tuned by --flightrec-ring, --flightrec-max-bundles and
 * --flightrec-gap-us). All compose with --trace: windowed series and
 * SLO burn rates land as counter tracks in the Perfetto trace as well.
 * Instruments the flags leave off keep whatever the caller installed.
 *
 * The session registers telemetry flags only. Model knobs, such as
 * fafnir_sim's serving flags, belong to the harness that reads them.
 *
 * Harnesses without their own flags construct it from argv directly:
 *
 *   int main(int argc, char **argv) {
 *       telemetry::TelemetrySession session("fig12", argc, argv);
 *       ...
 *       return session.finish();
 *   }
 *
 * Harnesses with their own FlagParser splice it in:
 *
 *   telemetry::TelemetrySession session("fafnir_sim");
 *   session.registerFlags(flags);
 *   flags.parse(argc, argv);
 *   session.start();
 *
 * finish() serializes the process-wide StatRegistry, so it must run
 * while any objects whose stats were registered are still alive — call
 * it explicitly at the end of main rather than relying on the
 * destructor when stats reference main-scoped objects declared after
 * the session.
 */

#ifndef FAFNIR_TELEMETRY_SESSION_HH
#define FAFNIR_TELEMETRY_SESSION_HH

#include <cstdint>
#include <optional>
#include <string>

#include "common/faultinject.hh"
#include "telemetry/attribution.hh"
#include "telemetry/flightrec.hh"
#include "telemetry/report.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

namespace fafnir
{
class FlagParser;
} // namespace fafnir

namespace fafnir::telemetry
{

/** Flag parsing + instrument installation + artifact writing for one
 *  run. */
class TelemetrySession
{
  public:
    /** For harnesses that splice into their own FlagParser. */
    explicit TelemetrySession(std::string tool);

    /** Parse @p argv with a fresh parser (telemetry flags only) and
     *  start() immediately. */
    TelemetrySession(std::string tool, int argc, char **argv);

    /** Writes any un-finished artifacts (see the header caveat). */
    ~TelemetrySession();

    TelemetrySession(const TelemetrySession &) = delete;
    TelemetrySession &operator=(const TelemetrySession &) = delete;

    /** Register the artifact flags (--stats-json, --stats-csv,
     *  --trace, --report, --attrib, --timeline) and the instrument
     *  flags (--faults, --fault-seed, --slo, --window-us,
     *  --debug-bundle-dir, --flightrec-*). */
    void registerFlags(FlagParser &flags);

    /** Report path used when --report was not given (call after parse). */
    void
    defaultReportPath(const std::string &path)
    {
        if (reportPath_.empty())
            reportPath_ = path;
    }

    /** Create the requested instruments and install them. Call once,
     *  after flags are parsed. */
    void start();

    /** The per-run report artifact (config and metrics accumulate). */
    RunReport &report() { return report_; }

    /**
     * Write every requested artifact, embed the StatRegistry into the
     * report, then clear the registry and uninstall the instruments.
     * Idempotent. @return 0 on success, 1 if any artifact failed.
     */
    int finish();

  private:
    std::string tool_;
    std::string statsJsonPath_;
    std::string statsCsvPath_;
    std::string tracePath_;
    std::string reportPath_;
    std::string attribPath_;
    std::string faultSpec_;
    std::uint64_t faultSeed_ = 1;
    std::string sloSpec_;
    std::string timelinePath_;
    double windowUs_ = 50.0;
    std::string bundleDir_;
    std::uint64_t flightrecRing_ = 1024;
    std::uint64_t flightrecMaxBundles_ = 8;
    double flightrecGapUs_ = 100.0;
    std::optional<TraceSink> sink_;
    std::optional<Attribution> attribution_;
    std::optional<fault::FaultPlan> plan_;
    std::optional<TimeSeries> series_;
    std::optional<SloMonitor> monitor_;
    std::optional<FlightRecorder> flightrec_;
    std::optional<ScopedInstruments> install_;
    RunReport report_;
    bool finished_ = false;
};

} // namespace fafnir::telemetry

#endif // FAFNIR_TELEMETRY_SESSION_HH
