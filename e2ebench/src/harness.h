/// \file harness.h
/// Shared machinery of the end-to-end benchmark: run options, the ledger of
/// attempted/failed operations, the metric catalogue every run must fill,
/// clocks and medians, the progress observer that timestamps session
/// events, bit-exact output fingerprints, and small process helpers.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/observer.h"
#include "common/array2d.h"
#include "common/types.h"
#include "io/json.h"

namespace e2e {

using boson::array2d;
using boson::dvec;

/// Command-line settings of one benchmark process.
struct bench_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time: rounds start until this elapses
  bool trace = false;     ///< per-layer run instead of an end-to-end run
  std::string reference;  ///< fingerprint file written by `e2e_bench reference`
  std::string work_dir;   ///< scratch root for artifacts, campaigns, data roots
  std::string serve_bin;  ///< the campaign daemon (served_campaign)
  std::string inject;     ///< test hook: "gradient" or "drop_row" corrupts an output
};

/// Operations attempted and failed. Every round of a workload records the
/// same operations in the same order, so the failed share does not depend
/// on how many rounds fit into the measured time.
class ledger {
 public:
  /// Record one operation; returns `ok`. `known_fault` marks the operation
  /// that fails because of a named program fault: it counts as failed but
  /// leaves `correct` true.
  bool record(const std::string& op, bool ok, const std::string& detail = "",
              bool known_fault = false);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
  std::map<std::string, std::size_t> logged_;  ///< failure lines printed per op
};

/// One reported metric.
struct metric_value {
  double value = 0.0;
  std::string unit;
};
using metric_map = std::map<std::string, metric_value>;

struct metric_decl {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run prints and the per-layer
/// metrics every traced run prints (BENCHMARK.json mirrors both lists).
const std::vector<metric_decl>& end_to_end_metrics();
const std::vector<metric_decl>& per_layer_metrics();
const std::vector<std::string>& workload_names();

/// Set `name` to `value`, taking the unit from the catalogue.
void put(metric_map& out, const std::string& name, double value);

/// Set every per-layer metric whose name starts with one of `prefixes` to 0:
/// the layers a workload does not use read zero.
void put_absent_layers(metric_map& out, const std::vector<std::string>& prefixes);

/// Median and mean of a non-empty sample (both throw on an empty one).
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Steady-clock seconds (intervals) and wall-clock seconds (comparable with
/// the campaign journal's record stamps).
double steady_seconds();
double wall_seconds();

/// Peak resident set of this process over a timed region [MB], sampled
/// every millisecond on a background thread. Construction first returns the
/// heap's free memory to the system, so the peak of one round does not carry
/// over into the next.
class rss_sampler {
 public:
  rss_sampler();
  ~rss_sampler();
  rss_sampler(const rss_sampler&) = delete;
  rss_sampler& operator=(const rss_sampler&) = delete;

  /// Stop sampling (idempotent) and return the largest sample [MB].
  double stop();

 private:
  std::atomic<bool> done_{false};
  std::atomic<long> peak_pages_{0};
  std::thread thread_;  ///< last: starts after the members it uses
};

/// Timestamps the session events of one or more concurrently running
/// experiments (thread-safe: the campaign scheduler shares one observer
/// between its workers).
class event_clock : public boson::api::observer {
 public:
  void on_event(const boson::api::progress_event& event) override;

  struct timeline {
    double started = -1.0;
    double finished = -1.0;
    std::map<std::string, double> stages;  ///< stage name -> first start
    std::vector<double> iterations;        ///< iteration_finished times
  };

  /// Snapshot of every experiment seen, keyed by experiment name.
  std::map<std::string, timeline> timelines() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, timeline> by_experiment_;
};

/// Intervals between consecutive iteration_finished events of a timeline.
std::vector<double> iteration_intervals(const event_clock::timeline& t);

/// Ordered numeric outputs of a run, compared bit for bit (determinism) or
/// within a tolerance (served against local results).
struct fingerprint {
  std::vector<std::string> labels;
  dvec values;

  void add(const std::string& label, double value);
  boson::io::json_value to_json() const;  ///< values as exact hex strings
  static fingerprint from_json(const boson::io::json_value& v);
};

/// Empty string when `a` and `b` agree bit for bit, otherwise what differs.
std::string bit_difference(const fingerprint& a, const fingerprint& b);
/// Empty string when every value agrees within `tol` (absolute).
std::string tolerance_difference(const fingerprint& a, const fingerprint& b, double tol);

/// Read an 8-bit binary PGM written by `io::write_pgm` back into [0, 1].
array2d<double> read_pgm(const std::string& path);

/// Fresh, empty directory (removing what was there).
void fresh_dir(const std::string& path);

/// Line-oriented progress for the benchmark log (stderr).
void note(const std::string& text);

}  // namespace e2e
