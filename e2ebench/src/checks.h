/// \file checks.h
/// Property checks on a workload's outputs. They run outside the timed
/// region and test what the method must satisfy whatever the inputs: the
/// FDFD equations hold for the fields the workload's engine returns, the
/// adjoint gradient matches a finite difference, metrics are physical, and
/// Monte-Carlo statistics are ordered.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "api/spec.h"
#include "common/array2d.h"
#include "core/design_problem.h"
#include "core/evaluate.h"
#include "harness.h"

namespace e2e {

/// Relative residual ||A x - b|| / ||b|| a direct solve must stay within; the
/// iterative paths target 1e-10, so this leaves headroom for LU round-off.
inline constexpr double residual_tolerance = 1e-8;

/// Solve one seeded excitation through the engine the process-global engine
/// cache serves for `mask` (the finished design at the nominal corner) and
/// return its relative residual, with A rebuilt by `fdfd_solver::assemble_csr`.
double fdfd_residual(const boson::api::experiment_spec& spec, const array2d<double>& mask,
                     std::uint64_t seed);

/// Adjoint directional derivative of the soft-etch loss at the nominal
/// corner against a central finite difference along one seeded direction.
/// Empty when they agree; otherwise the mismatch. `scale_adjoint` != 1 is
/// the test hook that corrupts the adjoint value.
std::string gradient_mismatch(const boson::core::design_problem& problem,
                              const dvec& theta, std::uint64_t seed,
                              double scale_adjoint = 1.0);

/// Empty when every value is finite and within [0, 1].
std::string out_of_unit_range(const std::map<std::string, double>& metrics);

/// Empty when min <= mean <= max (to an ulp-sized slack), every value lies in
/// [0, 1] and the sample count matches the plan.
std::string monte_carlo_problem(double mean, double min, double max,
                                std::size_t samples, std::size_t planned);

}  // namespace e2e
