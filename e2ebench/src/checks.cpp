#include "checks.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "api/registry.h"
#include "api/session.h"
#include "common/rng.h"
#include "fab/temperature.h"
#include "sim/cache.h"
#include "sim/engine.h"

namespace e2e {

using namespace boson;

double fdfd_residual(const api::experiment_spec& spec, const array2d<double>& mask,
                     std::uint64_t seed) {
  const core::experiment_config cfg = api::session::config_for(spec);
  const dev::device_spec device =
      api::registry::global().make_device(spec.device, spec.resolution);
  const cell_window& w = device.design;
  if (mask.nx() != w.nx || mask.ny() != w.ny)
    throw std::runtime_error("mask shape does not match the design window");

  array2d<double> eps = device.background_occupancy;
  for (std::size_t ix = 0; ix < w.nx; ++ix)
    for (std::size_t iy = 0; iy < w.ny; ++iy) eps(w.ix0 + ix, w.iy0 + iy) = mask(ix, iy);
  const double eps_si = fab::eps_si(fab::nominal_temperature);
  for (std::size_t i = 0; i < eps.size(); ++i)
    eps.data()[i] = fab::eps_void + (eps_si - fab::eps_void) * eps.data()[i];

  const auto engine = sim::engine_cache::global().acquire(device.grid, device.pml,
                                                          device.k0, eps, cfg.engine);
  rng r(seed);
  array2d<cplx> current(device.grid.nx, device.grid.ny);
  for (std::size_t i = 0; i < current.size(); ++i)
    current.data()[i] = cplx(r.normal(), r.normal());
  const array2d<cplx> field = engine->solve_excitation(current);

  cvec b;
  engine->solver().build_rhs(current, b);
  const cvec x(field.data(), field.data() + field.size());
  const cvec ax = engine->solver().assemble_csr().matvec(x);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    num += std::norm(ax[i] - b[i]);
    den += std::norm(b[i]);
  }
  return std::sqrt(num / den);
}

std::string gradient_mismatch(const core::design_problem& problem, const dvec& theta,
                              std::uint64_t seed, double scale_adjoint) {
  core::eval_options o;
  o.fab_aware = true;
  o.soft_etch = true;
  o.compute_gradient = true;
  const robust::variation_corner nominal;
  const core::eval_result ev = problem.evaluate(theta, nominal, o);
  if (ev.grad.size() != theta.size()) return "gradient has the wrong length";

  rng r(seed);
  dvec dir = r.normal_vector(theta.size());
  double norm = 0.0;
  for (const double v : dir) norm += v * v;
  norm = std::sqrt(norm);
  double adjoint = 0.0;
  for (std::size_t i = 0; i < dir.size(); ++i) {
    dir[i] /= norm;
    adjoint += ev.grad[i] * dir[i];
  }
  adjoint *= scale_adjoint;

  core::eval_options of = o;
  of.compute_gradient = false;
  const double h = 1e-3;
  dvec plus = theta, minus = theta;
  for (std::size_t i = 0; i < dir.size(); ++i) {
    plus[i] += h * dir[i];
    minus[i] -= h * dir[i];
  }
  const double fd =
      (problem.evaluate(plus, nominal, of).loss - problem.evaluate(minus, nominal, of).loss) /
      (2.0 * h);
  if (std::abs(adjoint - fd) <= 1e-3 * (std::abs(adjoint) + std::abs(fd)) + 1e-9) return "";
  std::ostringstream s;
  s.precision(10);
  s << "adjoint " << adjoint << " against finite difference " << fd;
  return s.str();
}

std::string out_of_unit_range(const std::map<std::string, double>& metrics) {
  for (const auto& [name, value] : metrics)
    if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
      std::ostringstream s;
      s << name << " = " << value;
      return s.str();
    }
  return "";
}

std::string monte_carlo_problem(double mean, double min, double max, std::size_t samples,
                                std::size_t planned) {
  std::ostringstream s;
  if (samples != planned) {
    s << samples << " samples against " << planned << " planned";
    return s.str();
  }
  const std::string range =
      out_of_unit_range({{"mean", mean}, {"min", min}, {"max", max}});
  if (!range.empty()) return range;
  // The mean of equal samples may land an ulp outside them.
  const double slack = 1e-12;
  if (!(min - slack <= mean && mean <= max + slack)) {
    s << "min " << min << ", mean " << mean << ", max " << max << " are out of order";
    return s.str();
  }
  return "";
}

}  // namespace e2e
