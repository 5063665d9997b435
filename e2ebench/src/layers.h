/// \file layers.h
/// Per-layer numbers of a traced round: spans collected from every thread
/// through a process-global `obs::trace_collector`, deltas of the `obs`
/// registry counters, and direct timings of each layer's public functions
/// on the workload's own inputs.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "api/spec.h"
#include "harness.h"
#include "obs/trace.h"

namespace e2e {

/// The `obs` registry counters the per-layer metrics read, by name
/// (`sim.engine_cache.hits`, `sim.reuse.fallbacks`, `store.appends`, ...),
/// each summed over its label sets.
struct counter_snapshot {
  std::map<std::string, double> totals;

  /// This process's `obs::registry::global()`.
  static counter_snapshot of_process();
  /// A Prometheus exposition (another process's registry, over HTTP).
  static counter_snapshot of_prometheus(const std::string& text);

  double at(const std::string& name) const { return totals.at(name); }
  counter_snapshot minus(const counter_snapshot& before) const;
};

/// Installs a process-global trace collector for its lifetime, so spans from
/// every thread of the round land in one buffer.
class global_trace_scope {
 public:
  global_trace_scope();
  ~global_trace_scope();
  global_trace_scope(const global_trace_scope&) = delete;
  global_trace_scope& operator=(const global_trace_scope&) = delete;

  std::vector<boson::obs::trace_event> events() const { return collector_.events(); }

 private:
  boson::obs::trace_collector collector_;
};

/// Spans of a Chrome trace_event file written by `trace_collector`.
std::vector<boson::obs::trace_event> read_chrome_trace(const std::string& path);

/// sim.*, common.* and runtime.{lease,checkpoint,commit}_ms from the round's
/// spans and counter deltas. `wall_s` is the round's wall time.
void put_span_metrics(const std::vector<boson::obs::trace_event>& events, double wall_s,
                      const counter_snapshot& delta, metric_map& out);

/// Time the layers' public functions on one job of the workload: `spec` is
/// the job, `theta` its latent variables (empty: the device's
/// light-concentrated start) and `artifact_dir` its session artifacts
/// (summary.json, trajectory.csv, mask.pgm). Scratch files go to `scratch`.
/// Fills sparse.*, fdfd.*, fab.*, param.*, core.*, robust.*, optim.* and
/// api.artifacts_ms.
void put_layer_timings(const boson::api::experiment_spec& spec, const dvec& theta,
                       const std::string& artifact_dir, const std::string& scratch,
                       metric_map& out);

/// Median time of `appends` journal lines written one by one into a fresh
/// segmented store with the given thresholds [us].
double store_append_us(const std::vector<std::string>& lines, std::size_t segment_records,
                       std::size_t compact_segments, const std::string& scratch);

}  // namespace e2e
