#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "api/registry.h"
#include "api/session.h"
#include "common/rng.h"
#include "core/methods.h"
#include "fab/etch.h"
#include "fab/temperature.h"
#include "fdfd/solver.h"
#include "io/pgm.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "robust/sampler.h"
#include "sparse/banded.h"
#include "store/segment_log.h"

namespace e2e {

using namespace boson;
namespace fs = std::filesystem;

namespace {

const char* const counted[] = {
    "sim.engine_cache.hits", "sim.engine_cache.misses", "sim.reuse.refinement_iterations",
    "sim.reuse.fallbacks",   "store.appends",           "store.rotations",
    "store.compactions",
};

}  // namespace

counter_snapshot counter_snapshot::of_process() {
  counter_snapshot s;
  for (const char* name : counted)
    s.totals[name] = static_cast<double>(obs::registry::global().counter_total(name));
  return s;
}

counter_snapshot counter_snapshot::of_prometheus(const std::string& text) {
  std::map<std::string, double> sums;  // exposition name -> sum over label sets
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    const std::size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) continue;
    sums[line.substr(0, name_end)] += std::stod(line.substr(value_at + 1));
  }
  counter_snapshot s;
  for (const char* name : counted) s.totals[name] = sums[obs::prometheus_name(name)];
  return s;
}

counter_snapshot counter_snapshot::minus(const counter_snapshot& before) const {
  counter_snapshot d;
  for (const auto& [name, v] : totals) d.totals[name] = v - before.at(name);
  return d;
}

global_trace_scope::global_trace_scope() { obs::set_global_trace(&collector_); }
global_trace_scope::~global_trace_scope() { obs::set_global_trace(nullptr); }

std::vector<obs::trace_event> read_chrome_trace(const std::string& path) {
  const io::json_value doc = io::json_value::parse_file(path);
  std::vector<obs::trace_event> out;
  for (const io::json_value& e : doc.at("traceEvents").elements()) {
    obs::trace_event t;
    t.name = e.at("name").as_string();
    t.start_us = static_cast<std::int64_t>(e.at("ts").as_number());
    t.duration_us = static_cast<std::int64_t>(e.at("dur").as_number());
    t.tid = static_cast<std::uint32_t>(e.at("tid").as_number());
    t.id = static_cast<std::uint64_t>(e.at("args").at("span_id").as_number());
    t.parent = static_cast<std::uint64_t>(e.at("args").at("parent_id").as_number());
    out.push_back(std::move(t));
  }
  return out;
}

void put_span_metrics(const std::vector<obs::trace_event>& events, double wall_s,
                      const counter_snapshot& delta, metric_map& out) {
  std::map<std::uint64_t, std::int64_t> child_us;  // span id -> time of its children
  for (const obs::trace_event& e : events)
    if (e.parent != 0) child_us[e.parent] += e.duration_us;

  std::map<std::string, double> self_ms;
  std::map<std::string, double> count;
  std::map<std::string, std::vector<double>> durations_ms;
  std::set<std::uint32_t> threads;
  double root_us = 0.0;
  for (const obs::trace_event& e : events) {
    const auto it = child_us.find(e.id);
    const std::int64_t children = it == child_us.end() ? 0 : it->second;
    self_ms[e.name] += static_cast<double>(std::max<std::int64_t>(0, e.duration_us - children)) / 1e3;
    count[e.name] += 1.0;
    durations_ms[e.name].push_back(static_cast<double>(e.duration_us) / 1e3);
    threads.insert(e.tid);
    if (e.parent == 0) root_us += static_cast<double>(e.duration_us);
  }
  const auto median_or_zero = [&](const char* name) {
    const auto it = durations_ms.find(name);
    return it == durations_ms.end() ? 0.0 : median(it->second);
  };

  put(out, "sim.prepare_ms", self_ms["sim.prepare"]);
  put(out, "sim.factorize_ms", self_ms["sim.factorize"]);
  put(out, "sim.solve_ms", self_ms["sim.solve"]);
  put(out, "sim.prepares", count["sim.prepare"]);
  put(out, "sim.factorizations", count["sim.factorize"]);
  put(out, "sim.solves", count["sim.solve"]);
  const double hits = delta.at("sim.engine_cache.hits");
  const double lookups = hits + delta.at("sim.engine_cache.misses");
  put(out, "sim.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0);
  put(out, "sim.reuse_refinement_iterations", delta.at("sim.reuse.refinement_iterations"));
  put(out, "sim.reuse_fallbacks", delta.at("sim.reuse.fallbacks"));
  put(out, "common.threads_seen", static_cast<double>(threads.size()));
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  put(out, "common.busy_share", root_us / 1e6 / (wall_s * cores));
  put(out, "runtime.lease_ms", median_or_zero("job.lease"));
  put(out, "runtime.checkpoint_ms", median_or_zero("job.checkpoint"));
  put(out, "runtime.commit_ms", median_or_zero("job.commit"));
}

namespace {

/// Median wall time of `reps` calls [s].
double time_median(std::size_t reps, const std::function<void()>& body) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = steady_seconds();
    body();
    samples.push_back(steady_seconds() - t0);
  }
  return median(samples);
}

/// Iteration records back from a session's trajectory.csv.
std::vector<core::iteration_record> read_trajectory(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream s(line);
    std::string cell;
    while (std::getline(s, cell, ',')) cells.push_back(cell);
    return cells;
  };
  std::string line;
  std::getline(in, line);
  const std::vector<std::string> header = split(line);
  std::vector<core::iteration_record> out;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = split(line);
    if (cells.size() != header.size()) continue;
    core::iteration_record rec;
    rec.iteration = static_cast<std::size_t>(std::stoul(cells[0]));
    rec.loss = std::stod(cells[1]);
    for (std::size_t i = 2; i < cells.size(); ++i) rec.metrics[header[i]] = std::stod(cells[i]);
    out.push_back(std::move(rec));
  }
  return out;
}

}  // namespace

void put_layer_timings(const api::experiment_spec& spec, const dvec& theta_in,
                       const std::string& artifact_dir, const std::string& scratch,
                       metric_map& out) {
  const core::experiment_config cfg = api::session::config_for(spec);
  const dev::device_spec device =
      api::registry::global().make_device(spec.device, spec.resolution);

  put(out, "fab.context_ms", 1e3 * time_median(3, [&] {
        (void)core::make_fab_context(device, cfg.litho, cfg.eole, cfg.space);
      }));

  const core::design_problem problem = api::session::problem_for(spec);
  const dvec theta = theta_in.empty() ? core::concentrated_init(problem) : theta_in;
  const param::parameterization& par = problem.parameterization();

  array2d<double> rho(par.nx(), par.ny());
  put(out, "param.forward_ms", 1e3 * time_median(5, [&] {
        par.forward(theta, rho);
        array2d<double> d_rho(par.nx(), par.ny(), 1.0);
        dvec d_theta(theta.size(), 0.0);
        par.backward(theta, d_rho, d_theta);
      }));

  const array2d<double> mask_ext = problem.embed_in_halo(rho);
  fab::litho_forward aerial;
  put(out, "fab.litho_ms", 1e3 * time_median(5, [&] {
        aerial = problem.fab().litho.front()->forward(mask_ext);
      }));

  rng r(spec.seed);
  const dvec xi = r.normal_vector(problem.fab().eole->num_terms());
  const fab::etch_model etch(problem.fab().etch_beta);
  put(out, "fab.etch_ms", 1e3 * time_median(5, [&] {
        const array2d<double> eta = problem.fab().eole->field(xi);
        (void)etch.forward(aerial.aerial, eta);
      }));

  core::eval_options o;
  o.compute_gradient = true;
  o.use_operator_cache = false;
  const robust::variation_corner nominal;
  core::eval_result ev;
  put(out, "core.evaluate_ms",
      1e3 * time_median(3, [&] { ev = problem.evaluate(theta, nominal, o); }));

  const core::run_options run = core::resolved_run_options(api::resolved_recipe(spec), cfg);
  const robust::corner_sampler sampler(run.sampling, cfg.space);
  put(out, "core.corners_per_iteration", static_cast<double>(sampler.corners_per_iteration()));
  robust::worst_case_info worst;
  worst.d_xi.assign(cfg.space.eole_terms, 1.0);
  worst.d_temperature = 1.0;
  put(out, "robust.sample_us", 1e6 * time_median(201, [&] {
        (void)sampler.sample(r, worst);
      }));

  opt::adam adam(spec.learning_rate);
  dvec stepped = theta;
  put(out, "optim.step_us", 1e6 * time_median(51, [&] { adam.step(stepped, ev.grad); }));

  // The finished design's nominal operator: assembly, then the banded LU the
  // direct backend factors for it.
  const array2d<double> mask = read_pgm((fs::path(artifact_dir) / "mask.pgm").string());
  array2d<double> eps = device.background_occupancy;
  const cell_window& w = device.design;
  for (std::size_t ix = 0; ix < w.nx; ++ix)
    for (std::size_t iy = 0; iy < w.ny; ++iy) eps(w.ix0 + ix, w.iy0 + iy) = mask(ix, iy);
  const double eps_si = fab::eps_si(fab::nominal_temperature);
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps.data()[i] = fab::eps_void + (eps_si - fab::eps_void) * eps.data()[i];

  sp::csr_c a;
  put(out, "fdfd.assemble_ms", 1e3 * time_median(3, [&] {
        const fdfd::fdfd_solver solver(device.grid, device.pml, device.k0, eps);
        a = solver.assemble_csr();
      }));

  // Unknowns are ordered ix * ny + iy, so both bandwidths equal ny.
  const std::size_t n = a.rows(), bw = device.grid.ny;
  sp::banded_lu assembled(n, bw, bw);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
      assembled.add(i, a.col_index()[k], a.values()[k]);
  sp::banded_lu lu = assembled;
  const double factor_s = time_median(3, [&] {
    lu = assembled;
    lu.factor();
  });
  // Operation count computed from the band shape: each of the n pivots
  // updates a kl x (kl + ku) trailing block with complex multiply-adds
  // (8 real flops each).
  const double flops = 8.0 * static_cast<double>(n) * static_cast<double>(bw) *
                       static_cast<double>(2 * bw);
  put(out, "sparse.factor_ms", 1e3 * factor_s);
  put(out, "sparse.factor_gflops", flops / factor_s / 1e9);

  // One corner's batch: a forward and an adjoint right-hand side per
  // excitation.
  std::vector<cvec> rhs;
  for (std::size_t k = 0; k < 2 * device.excitations.size(); ++k) {
    cvec b(n);
    for (cplx& v : b) v = cplx(r.normal(), r.normal());
    rhs.push_back(std::move(b));
  }
  put(out, "sparse.solve_ms", 1e3 * time_median(5, [&] { (void)lu.solve(rhs); }));

  // The session's artifact set, written again through the same writers.
  const io::json_value summary =
      io::json_value::parse_file((fs::path(artifact_dir) / "summary.json").string());
  const std::vector<core::iteration_record> trajectory =
      read_trajectory((fs::path(artifact_dir) / "trajectory.csv").string());
  fs::create_directories(scratch);
  put(out, "api.artifacts_ms", 1e3 * time_median(5, [&] {
        summary.write_file((fs::path(scratch) / "summary.json").string());
        api::write_trajectory_csv((fs::path(scratch) / "trajectory.csv").string(),
                                  trajectory);
        io::write_pgm((fs::path(scratch) / "mask.pgm").string(), mask);
      }));
}

double store_append_us(const std::vector<std::string>& lines, std::size_t segment_records,
                       std::size_t compact_segments, const std::string& scratch) {
  fresh_dir(scratch);
  store::log_options opts;
  opts.segment_records = segment_records;
  opts.compact_segments = compact_segments;
  store::segment_log log((fs::path(scratch) / "journal").string(), opts, "e2ebench");
  std::vector<double> samples;
  for (const std::string& line : lines) {
    const double t0 = steady_seconds();
    log.append(line);
    samples.push_back(steady_seconds() - t0);
  }
  return samples.empty() ? 0.0 : 1e6 * median(samples);
}

}  // namespace e2e
