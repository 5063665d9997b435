#include "harness.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "runtime/checkpoint.h"
#include "runtime/lease.h"

namespace e2e {

namespace fs = std::filesystem;

bool ledger::record(const std::string& op, bool ok, const std::string& detail,
                    bool known_fault) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  if (!known_fault) correct_ = false;
  // The known fault repeats every round; one log line per operation is enough.
  if (logged_[op]++ == 0)
    note("operation '" + op + "' failed" + (known_fault ? " (known fault)" : "") +
         (detail.empty() ? "" : ": " + detail));
  return false;
}

const std::vector<metric_decl>& end_to_end_metrics() {
  static const std::vector<metric_decl> list{
      {"setup_s", "s"},      {"wall_s", "s"},  {"iteration_s", "s"},
      {"evaluation_s", "s"}, {"jobs_per_s", "1/s"}, {"job_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return list;
}

const std::vector<metric_decl>& per_layer_metrics() {
  static const std::vector<metric_decl> list{
      {"sparse.factor_ms", "ms"},
      {"sparse.factor_gflops", "GFLOP/s"},
      {"sparse.solve_ms", "ms"},
      {"fdfd.assemble_ms", "ms"},
      {"sim.prepare_ms", "ms"},
      {"sim.factorize_ms", "ms"},
      {"sim.solve_ms", "ms"},
      {"sim.prepares", "count"},
      {"sim.factorizations", "count"},
      {"sim.solves", "count"},
      {"sim.cache_hit_ratio", "ratio"},
      {"sim.reuse_refinement_iterations", "count"},
      {"sim.reuse_fallbacks", "count"},
      {"fab.context_ms", "ms"},
      {"fab.litho_ms", "ms"},
      {"fab.etch_ms", "ms"},
      {"param.forward_ms", "ms"},
      {"core.evaluate_ms", "ms"},
      {"core.corners_per_iteration", "count"},
      {"robust.sample_us", "us"},
      {"optim.step_us", "us"},
      {"common.threads_seen", "count"},
      {"common.busy_share", "ratio"},
      {"api.artifacts_ms", "ms"},
      {"runtime.lease_ms", "ms"},
      {"runtime.checkpoint_ms", "ms"},
      {"runtime.commit_ms", "ms"},
      {"runtime.checkpoint_bytes", "bytes"},
      {"runtime.journal_records", "count"},
      {"store.appends", "count"},
      {"store.append_us", "us"},
      {"store.rotations", "count"},
      {"store.compactions", "count"},
      {"net.request_ms", "ms"},
      {"net.requests", "count"},
      {"service.completion_lag_s", "s"},
      {"service.events_bytes", "bytes"},
      {"obs.trace_overhead_s", "s"},
  };
  return list;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_bend", "campaign_mix",
                                              "served_campaign"};
  return names;
}

void put(metric_map& out, const std::string& name, double value) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const metric_decl& d : *list)
      if (name == d.name) {
        out[name] = {value, d.unit};
        return;
      }
  throw std::logic_error("metric '" + name + "' is not in the catalogue");
}

void put_absent_layers(metric_map& out, const std::vector<std::string>& prefixes) {
  for (const metric_decl& d : per_layer_metrics())
    for (const std::string& p : prefixes)
      if (std::string(d.name).rfind(p, 0) == 0) out[d.name] = {0.0, d.unit};
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("mean of an empty sample");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double wall_seconds() { return boson::runtime::wall_clock_seconds(); }

namespace {

long resident_pages() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident;
}

}  // namespace

rss_sampler::rss_sampler() {
  malloc_trim(0);
  thread_ = std::thread([this] {
    while (!done_.load()) {
      const long pages = resident_pages();
      if (pages > peak_pages_.load()) peak_pages_.store(pages);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

rss_sampler::~rss_sampler() { stop(); }

double rss_sampler::stop() {
  done_.store(true);
  if (thread_.joinable()) thread_.join();
  const long pages = std::max(peak_pages_.load(), resident_pages());
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

void event_clock::on_event(const boson::api::progress_event& event) {
  using phase = boson::api::progress_event::phase;
  const double now = steady_seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  timeline& t = by_experiment_[event.experiment];
  switch (event.kind) {
    case phase::experiment_started: t.started = now; break;
    case phase::stage_started: t.stages.emplace(event.message, now); break;
    case phase::iteration_finished: t.iterations.push_back(now); break;
    case phase::experiment_finished: t.finished = now; break;
    case phase::artifact_written: break;
  }
}

std::map<std::string, event_clock::timeline> event_clock::timelines() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_experiment_;
}

std::vector<double> iteration_intervals(const event_clock::timeline& t) {
  std::vector<double> out;
  for (std::size_t i = 1; i < t.iterations.size(); ++i)
    out.push_back(t.iterations[i] - t.iterations[i - 1]);
  return out;
}

void fingerprint::add(const std::string& label, double value) {
  labels.push_back(label);
  values.push_back(value);
}

boson::io::json_value fingerprint::to_json() const {
  boson::io::json_value v = boson::io::json_value::array();
  for (std::size_t i = 0; i < values.size(); ++i) {
    boson::io::json_value e = boson::io::json_value::array();
    e.push_back(labels[i]);
    e.push_back(boson::runtime::encode_double(values[i]));
    v.push_back(std::move(e));
  }
  return v;
}

fingerprint fingerprint::from_json(const boson::io::json_value& v) {
  fingerprint f;
  for (const boson::io::json_value& e : v.elements())
    f.add(e.elements().at(0).as_string(),
          boson::runtime::decode_double(e.elements().at(1).as_string()));
  return f;
}

namespace {

std::string shape_difference(const fingerprint& a, const fingerprint& b) {
  if (a.values.size() != b.values.size())
    return std::to_string(a.values.size()) + " values against " +
           std::to_string(b.values.size());
  for (std::size_t i = 0; i < a.labels.size(); ++i)
    if (a.labels[i] != b.labels[i])
      return "value " + std::to_string(i) + " is '" + a.labels[i] + "' against '" +
             b.labels[i] + "'";
  return "";
}

std::string describe(const fingerprint& a, const fingerprint& b, std::size_t i,
                     std::size_t differing) {
  std::ostringstream s;
  s.precision(17);
  s << differing << " of " << a.values.size() << " values differ, first '" << a.labels[i]
    << "': " << a.values[i] << " against " << b.values[i];
  return s.str();
}

}  // namespace

std::string bit_difference(const fingerprint& a, const fingerprint& b) {
  const std::string shape = shape_difference(a, b);
  if (!shape.empty()) return shape;
  std::size_t first = a.values.size(), differing = 0;
  for (std::size_t i = 0; i < a.values.size(); ++i)
    if (std::memcmp(&a.values[i], &b.values[i], sizeof(double)) != 0) {
      first = std::min(first, i);
      ++differing;
    }
  return differing == 0 ? "" : describe(a, b, first, differing);
}

std::string tolerance_difference(const fingerprint& a, const fingerprint& b, double tol) {
  const std::string shape = shape_difference(a, b);
  if (!shape.empty()) return shape;
  std::size_t first = a.values.size(), differing = 0;
  for (std::size_t i = 0; i < a.values.size(); ++i)
    if (!(std::abs(a.values[i] - b.values[i]) <= tol)) {
      first = std::min(first, i);
      ++differing;
    }
  return differing == 0 ? "" : describe(a, b, first, differing);
}

array2d<double> read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string magic;
  std::size_t nx = 0, ny = 0, maxval = 0;
  in >> magic >> nx >> ny >> maxval;
  in.get();  // the single whitespace byte before the raster
  if (magic != "P5" || nx == 0 || ny == 0 || maxval != 255)
    throw std::runtime_error("not an 8-bit P5 image: " + path);
  array2d<double> out(nx, ny);
  // Rows run top to bottom with the highest iy first (see io::write_pgm).
  for (std::size_t row = 0; row < ny; ++row)
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const int byte = in.get();
      if (byte == EOF) throw std::runtime_error("truncated image: " + path);
      out(ix, ny - 1 - row) = static_cast<double>(byte) / 255.0;
    }
  return out;
}

void fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
}

void note(const std::string& text) { std::cerr << "[e2ebench] " << text << std::endl; }

}  // namespace e2e
