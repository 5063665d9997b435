// paper_bend: one BOSON-1 spec at the paper's 0.05 um pitch through
// api::session, with a post-fab Monte Carlo and a wavelength sweep.

#include <exception>
#include <filesystem>
#include <memory>

#include "api/session.h"
#include "checks.h"
#include "common/rng.h"
#include "layers.h"
#include "sim/cache.h"
#include "workloads.h"

namespace e2e {

using namespace boson;
namespace fs = std::filesystem;

void smoke_fab(api::experiment_spec& s) {
  s.litho.na = 0.65;
  s.litho.sigma = 0.35;
  s.litho.kernel_half = 5;
  s.litho.max_kernels = 5;
  s.eole.anchors_x = 4;
  s.eole.anchors_y = 4;
  s.eole.num_terms = 5;
}

namespace {

constexpr std::size_t mc_samples = 6;

api::experiment_spec paper_bend_spec(std::uint64_t seed) {
  rng r(seed);
  api::experiment_spec s;
  s.name = "paper_bend";
  s.device = "bend";
  s.method = "boson";
  s.resolution = 0.05;
  s.iterations = 4;
  s.relax_epochs = 2;
  s.learning_rate = 0.05;
  s.seed = static_cast<std::uint64_t>(r.uniform_int(1, 1L << 30));
  smoke_fab(s);
  const double spread = r.uniform(0.01, 0.03);
  s.evaluation = {api::eval_step::monte_carlo(mc_samples),
                  api::eval_step::sweep({1.55 - spread, 1.55, 1.55 + spread})};
  return s;
}

/// Thrown by `stop_at_optimize` once the session reaches the optimizer.
struct setup_reached : std::exception {
  const char* what() const noexcept override { return "setup reached the optimize stage"; }
};

/// Ends a session where set-up ends: at the start of the optimize stage.
class stop_at_optimize : public api::observer {
 public:
  void on_event(const api::progress_event& e) override {
    if (e.kind == api::progress_event::phase::stage_started && e.message == "optimize") {
      reached = steady_seconds();
      throw setup_reached();
    }
  }
  double reached = -1.0;
};

struct round_numbers {
  std::vector<double> setups;
  double wall = 0.0;
  double job = 0.0;
  double evaluation = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> intervals;
};

/// One round: a set-up probe, the timed spec run, the property checks and
/// the determinism probe. Returns the run's result for the layer timings.
api::experiment_result run_round(const bench_options& opts, const api::experiment_spec& spec,
                                 const fingerprint& reference, const std::string& dir,
                                 bool traced, ledger& book, round_numbers& m,
                                 metric_map& layers) {
  fresh_dir(dir);

  // Set-up alone: the session stops when the optimizer would start.
  {
    sim::engine_cache::global().clear();
    stop_at_optimize stopper;
    api::session_options so;
    so.write_artifacts = false;
    so.watcher = &stopper;
    const double t0 = steady_seconds();
    bool reached = false;
    try {
      (void)api::session(so).run(spec);
    } catch (const setup_reached&) {
      reached = true;
      m.setups.push_back(stopper.reached - t0);
    }
    book.record("setup", reached, "the session never reached the optimize stage");
  }

  // The timed run, from a cold engine cache as in a fresh CLI process.
  sim::engine_cache::global().clear();
  event_clock clock;
  api::session_options so;
  so.output_dir = dir;
  so.watcher = &clock;
  api::experiment_result result;
  {
    std::unique_ptr<global_trace_scope> trace;
    counter_snapshot before;
    if (traced) {
      before = counter_snapshot::of_process();
      trace = std::make_unique<global_trace_scope>();
    }
    rss_sampler rss;
    const double t0 = steady_seconds();
    result = api::session(so).run(spec);
    m.wall = steady_seconds() - t0;
    m.peak_rss_mb = rss.stop();
    if (traced)
      put_span_metrics(trace->events(), m.wall, counter_snapshot::of_process().minus(before),
                       layers);
    const event_clock::timeline t = clock.timelines().at(spec.name);
    m.setups.push_back(t.stages.at("optimize") - t0);
    m.evaluation = t.finished - t.stages.at("prefab_eval");
    m.intervals = iteration_intervals(t);
    m.job = result.seconds;
    book.record("run", t.iterations.size() == spec.iterations,
                "observed " + std::to_string(t.iterations.size()) + " iterations");
  }

  const double residual = fdfd_residual(spec, result.method.mask, opts.seed);
  book.record("fdfd_residual", residual <= residual_tolerance,
              "relative residual " + std::to_string(residual));

  core::design_problem problem = api::session::problem_for(spec);
  problem.parameterization().set_sharpness(10.0);
  const std::string grad = gradient_mismatch(problem, result.method.run.theta, opts.seed,
                                             opts.inject == "gradient" ? 1.1 : 1.0);
  book.record("adjoint_gradient", grad.empty(), grad);

  std::map<std::string, double> metrics;
  for (const auto& [name, v] : result.method.prefab) metrics["prefab." + name] = v;
  for (const auto& [name, v] : result.method.postfab.metric_means) metrics["postfab." + name] = v;
  for (const core::iteration_record& rec : result.method.run.trajectory)
    for (const auto& [name, v] : rec.metrics)
      metrics["iteration" + std::to_string(rec.iteration) + "." + name] = v;
  for (const core::spectrum_point& p : result.spectrum)
    metrics["sweep." + std::to_string(p.lambda_um)] = p.fom;
  const std::string range = out_of_unit_range(metrics);
  book.record("metrics_in_unit_range", range.empty(), range);

  const core::mc_stats& mc = result.method.postfab;
  const std::string mc_problem =
      monte_carlo_problem(mc.fom_mean, mc.fom_min, mc.fom_max, mc.samples, mc_samples);
  book.record("monte_carlo_stats", mc_problem.empty(), mc_problem);

  // The fixed campaign probe: a bend-only session probe matched its
  // one-thread reference now and then, so it could not count as failing.
  const std::string diff =
      bit_difference(campaign_probe_in_child((fs::path(dir) / "probe").string()), reference);
  book.record("bit_identical_to_one_thread", diff.empty(), diff, /*known_fault=*/true);
  return result;
}

}  // namespace

void run_paper_bend(const bench_options& opts, ledger& book, metric_map& out) {
  const api::experiment_spec spec = paper_bend_spec(opts.seed);
  const fingerprint reference =
      fingerprint::from_json(io::json_value::parse_file(opts.reference));

  metric_map unused;
  if (!opts.trace) {
    std::vector<round_numbers> rounds;
    const double start = steady_seconds();
    do {
      rounds.emplace_back();
      (void)run_round(opts, spec, reference,
                      (fs::path(opts.work_dir) / ("round" + std::to_string(rounds.size())))
                          .string(),
                      false, book, rounds.back(), unused);
      note("round " + std::to_string(rounds.size()) + ": wall " +
           std::to_string(rounds.back().wall) + " s");
    } while (steady_seconds() - start < opts.seconds);

    std::vector<double> setups, walls, jobs, evals, intervals, rss;
    for (const round_numbers& m : rounds) {
      rss.push_back(m.peak_rss_mb);
      setups.insert(setups.end(), m.setups.begin(), m.setups.end());
      walls.push_back(m.wall);
      jobs.push_back(m.job);
      evals.push_back(m.evaluation);
      intervals.push_back(mean(m.intervals));
    }
    put(out, "setup_s", median(setups));
    put(out, "wall_s", median(walls));
    // Relaxation epochs make iteration times bimodal: each round contributes
    // its mean interval.
    put(out, "iteration_s", median(intervals));
    put(out, "evaluation_s", median(evals));
    put(out, "jobs_per_s", 1.0 / median(walls));
    put(out, "job_s", median(jobs));
    put(out, "peak_rss_mb", median(rss));
    return;
  }

  // Traced: one untraced round, then one traced round whose spans, counters
  // and outputs give the per-layer numbers.
  round_numbers plain, traced;
  (void)run_round(opts, spec, reference, (fs::path(opts.work_dir) / "plain").string(), false,
                  book, plain, unused);
  const std::string dir = (fs::path(opts.work_dir) / "traced").string();
  const api::experiment_result result =
      run_round(opts, spec, reference, dir, true, book, traced, out);
  put(out, "obs.trace_overhead_s", traced.wall - plain.wall);
  put_layer_timings(spec, result.method.run.theta, result.artifact_dir,
                    (fs::path(opts.work_dir) / "layers").string(), out);
  // A single session run touches neither the campaign runtime, the store
  // nor the control plane.
  put_absent_layers(out, {"runtime.", "store.", "net.", "service."});
}

}  // namespace e2e
