// One attachment point for every obs sink.
//
// Instruments names the sinks of one instrumented run; every pointer is
// optional. It is the single object both consumers of the obs layer take:
//
//   * obs::ObsTraits — the one obs Traits. A tree instantiated with it
//     stamps operation keys (kTrackKeys) and owners (kCausalTrace), counts
//     stats, and hands every protocol event (core/debug_hooks.hpp) to the
//     Instruments attached with ObsTraits::attach, which fans it out to the
//     sinks that are set.
//   * run_workload(set, cfg, &instruments) (workload/runner.hpp) — per-op
//     timing into `latency`, op markers into `trace`, op windows into
//     `profiler`, the live op counter into `poller`, and the self/helper
//     latency split from `causal`.
//
// A tool fills one Instruments, attaches it, instantiates its tree with
// ObsTraits, and passes the same object to run_workload.
#pragma once

#include "core/debug_hooks.hpp"
#include "obs/causal.hpp"
#include "obs/heatmap.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace efrb {
struct LatencySamples;  // workload/runner.hpp
}  // namespace efrb

namespace efrb::obs {

class MetricsPoller;  // obs/timeseries.hpp

struct Instruments {
  TraceRegistry* trace = nullptr;
  KeyHeatmap* heatmap = nullptr;
  CausalRegistry* causal = nullptr;
  PhaseProfiler* profiler = nullptr;
  LatencySamples* latency = nullptr;  // run_workload only
  MetricsPoller* poller = nullptr;    // run_workload only

  /// Fans one event out to every attached sink. A crash dump needs no sink
  /// of its own: obs::FlightRecorder dumps `trace`'s rings.
  void on_event(const Event& e) const noexcept {
    if (trace != nullptr) trace->on_event(e);
    if (heatmap != nullptr) heatmap->on_event(e);
    if (causal != nullptr) causal->on_event(e);
    if (profiler != nullptr) profiler->on_event(e);
  }
};

/// The obs Traits: stats, key tracking and causal stamps on, every event to
/// the attached Instruments. The attachment is global to the type: attach
/// before the run's threads start and detach after they join.
struct ObsTraits : NoopTraits {
  static constexpr bool kCountStats = true;
  static constexpr bool kTrackKeys = true;
  static constexpr bool kCausalTrace = true;

  // NOLINTNEXTLINE(cppcoreguidelines-avoid-non-const-global-variables)
  static inline const Instruments* attached = nullptr;

  static void attach(const Instruments* in) noexcept { attached = in; }
  static void detach() noexcept { attached = nullptr; }

  static void on_event(const Event& e) noexcept {
    if (attached != nullptr) attached->on_event(e);
  }
};

}  // namespace efrb::obs
