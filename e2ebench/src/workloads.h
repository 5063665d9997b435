/// \file workloads.h
/// The benchmark's three workloads. Each `run_*` executes whole rounds of
/// the same operations until the measured time is spent (a traced run does
/// exactly one untraced and one traced round), records every operation in
/// the ledger and fills the metric map. Each `reference_*` computes the
/// single-threaded fingerprint the determinism operation compares against.

#pragma once

#include "api/spec.h"
#include "harness.h"

namespace e2e {

void run_paper_bend(const bench_options& opts, ledger& book, metric_map& out);
void run_campaign_mix(const bench_options& opts, ledger& book, metric_map& out);
void run_served_campaign(const bench_options& opts, ledger& book, metric_map& out);

/// The fixed determinism probe, independent of the workload seed: a 4-job
/// slice of the bend campaign run from a cold engine cache under `dir` by
/// `workers` scheduler workers, with the thread budget the caller set.
fingerprint campaign_probe(const std::string& dir, std::size_t workers);

/// The same probe with 4 workers in a child process (`e2e_bench probe`), so
/// its threads and heap do not linger in the measuring process.
fingerprint campaign_probe_in_child(const std::string& dir);

/// The coarse lithography/EOLE settings of the committed smoke specs.
void smoke_fab(boson::api::experiment_spec& s);

}  // namespace e2e
