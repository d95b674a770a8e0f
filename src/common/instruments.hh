/**
 * @file
 * The instrumentation context: one process-global struct naming every
 * optional observer a run may install — the trace sink, latency
 * attribution, windowed time series, SLO monitor, flight recorder and
 * fault plan.
 *
 * Instrumented sites ask "is anything watching?" by reading one field:
 *
 *   if (auto *ts = instruments().trace)
 *       ts->completeEvent(...);
 *
 * instruments() inlines, so a site with nothing installed pays one load
 * and one branch. Under FAFNIR_FLIGHTREC_COMPILED_OUT the recorder field
 * reads as a constant nullptr and its record points fold away.
 *
 * ScopedInstruments installs a whole context for a scope and restores
 * the previous one on exit, so installers must nest. To change one
 * instrument and keep the rest, copy instruments(), edit the field and
 * install the copy; tests that want exactly one instrument install
 * `{.faults = &plan}`.
 *
 * The instruments are forward-declared only, so common/ code (the fault
 * hooks) reads the context without linking the telemetry library.
 */

#ifndef FAFNIR_COMMON_INSTRUMENTS_HH
#define FAFNIR_COMMON_INSTRUMENTS_HH

namespace fafnir
{
namespace telemetry
{
class Attribution;
class FlightRecorder;
class SloMonitor;
class TimeSeries;
class TraceSink;
} // namespace telemetry

namespace fault
{
class FaultPlan;
} // namespace fault

/** Every installed observer; nullptr means off. None is owned. */
struct Instruments
{
    telemetry::TraceSink *trace = nullptr;
    telemetry::Attribution *attribution = nullptr;
    telemetry::TimeSeries *series = nullptr;
    telemetry::SloMonitor *slo = nullptr;
    telemetry::FlightRecorder *recorder = nullptr;
    fault::FaultPlan *faults = nullptr;
};

namespace detail
{
/** Storage behind instruments(); exposed only so it can inline. */
inline Instruments g_instruments;
} // namespace detail

/** The installed context (a copy, so a field read is one load). */
inline Instruments
instruments()
{
    Instruments in = detail::g_instruments;
#ifdef FAFNIR_FLIGHTREC_COMPILED_OUT
    in.recorder = nullptr;
#endif
    return in;
}

/** RAII installer: installs @p next for a scope, restores on exit. */
class ScopedInstruments
{
  public:
    explicit ScopedInstruments(const Instruments &next)
        : previous_(detail::g_instruments)
    {
        detail::g_instruments = next;
    }
    ~ScopedInstruments() { detail::g_instruments = previous_; }

    ScopedInstruments(const ScopedInstruments &) = delete;
    ScopedInstruments &operator=(const ScopedInstruments &) = delete;

  private:
    Instruments previous_;
};

} // namespace fafnir

#endif // FAFNIR_COMMON_INSTRUMENTS_HH
