// campaign_mix: the bend_campaign matrix, enlarged along its seed axis, run
// by the lease scheduler with four workers in this process on the legacy
// journal. served_campaign: the same campaign submitted to the campaign
// daemon over HTTP with a segmented journal, followed to completion through
// the NDJSON event stream while the client polls status and report.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <thread>

#include "api/session.h"
#include "checks.h"
#include "common/rng.h"
#include "core/methods.h"
#include "layers.h"
#include "net/http_client.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"
#include "runtime/result_store.h"
#include "runtime/scheduler.h"
#include "sim/cache.h"
#include "workloads.h"

extern char** environ;

namespace e2e {

using namespace boson;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t seeds_per_campaign = 4;  ///< 2 devices x 3 methods x 4 seeds
constexpr std::size_t campaign_workers = 4;
constexpr std::size_t campaign_mc = 3;
constexpr std::size_t setup_probes = 5;        ///< set-up samples per round
constexpr std::size_t segment_records = 32;   ///< served journal rotation
constexpr std::size_t compact_segments = 2;   ///< served journal compaction

/// The committed bend_campaign: bend and crossing x density, ls and
/// boson_no_relax at 0.1 um, six iterations, checkpoints every two.
runtime::campaign_spec bend_campaign(const std::string& name) {
  runtime::campaign_spec c;
  c.name = name;
  c.devices = {"bend", "crossing"};
  c.methods = {"density", "ls", "boson_no_relax"};
  c.base.resolution = 0.1;
  c.base.iterations = 6;
  c.base.relax_epochs = 0;
  c.base.learning_rate = 0.05;
  smoke_fab(c.base);
  c.base.evaluation = {api::eval_step::monte_carlo(campaign_mc)};
  c.scheduler.workers = campaign_workers;
  c.scheduler.max_retries = 1;
  c.scheduler.checkpoint_every = 2;
  return c;
}

runtime::campaign_spec mix_campaign(std::uint64_t seed) {
  runtime::campaign_spec c = bend_campaign("campaign_mix");
  rng r(seed);
  std::set<std::uint64_t> seeds;
  while (seeds.size() < seeds_per_campaign)
    seeds.insert(static_cast<std::uint64_t>(r.uniform_int(1, 1L << 20)));
  c.seeds.assign(seeds.begin(), seeds.end());
  return c;
}

/// The fixed determinism probe: four jobs of the campaign, three iterations.
runtime::campaign_spec probe_campaign() {
  runtime::campaign_spec c = bend_campaign("campaign_probe");
  c.methods = {"ls", "boson_no_relax"};
  c.seeds = {7};
  c.base.iterations = 3;
  return c;
}

fingerprint rows_fingerprint(std::vector<runtime::job_result_row> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.job_index < b.job_index; });
  fingerprint f;
  for (const runtime::job_result_row& row : rows) {
    f.add(row.name + ".prefab", row.prefab_fom);
    f.add(row.name + ".postfab_mean", row.postfab_mean);
    f.add(row.name + ".postfab_std", row.postfab_std);
    f.add(row.name + ".postfab_min", row.postfab_min);
    f.add(row.name + ".postfab_max", row.postfab_max);
  }
  return f;
}

// ------------------------------------------------------------ journal facts --

/// What a campaign's journal records say about its timing.
struct journal_facts {
  double first_lease = std::numeric_limits<double>::infinity();
  double last_commit = -std::numeric_limits<double>::infinity();
  std::size_t commits = 0;
  std::vector<double> job_seconds;          ///< completed attempts' run time
  std::vector<double> iteration_seconds;    ///< between a job's checkpoints
  std::vector<double> tail_seconds;         ///< last checkpoint to commit
};

journal_facts fold_journal(const std::vector<runtime::journal_entry>& entries) {
  journal_facts f;
  std::map<std::size_t, std::pair<std::size_t, double>> last_checkpoint;  // iteration, stamp
  for (const runtime::journal_entry& e : entries) {
    using runtime::job_state;
    if (e.state == job_state::leased) f.first_lease = std::min(f.first_lease, e.stamp);
    if (e.state == job_state::checkpointed) {
      // detail: "iteration <k>/<total>"
      const std::size_t k = std::stoul(e.detail.substr(e.detail.find(' ') + 1));
      const auto it = last_checkpoint.find(e.job_index);
      if (it != last_checkpoint.end() && k > it->second.first)
        f.iteration_seconds.push_back((e.stamp - it->second.second) /
                                      static_cast<double>(k - it->second.first));
      last_checkpoint[e.job_index] = {k, e.stamp};
    }
    if (e.state == job_state::completed) {
      ++f.commits;
      f.last_commit = std::max(f.last_commit, e.stamp);
      f.job_seconds.push_back(e.seconds);
      const auto it = last_checkpoint.find(e.job_index);
      if (it != last_checkpoint.end()) f.tail_seconds.push_back(e.stamp - it->second.second);
    }
  }
  return f;
}

double jobs_per_second(const journal_facts& f) {
  return static_cast<double>(f.commits) / (f.last_commit - f.first_lease);
}

// ------------------------------------------------------------------ checks --

/// The property checks shared by both campaign workloads, in a fixed order.
/// `entries` is the journal as replayed from disk, `rows` the results.
void check_campaign(const bench_options& opts, const runtime::campaign_spec& campaign,
                    const std::vector<runtime::journal_entry>& entries,
                    std::vector<runtime::job_result_row> rows, const std::string& campaign_dir,
                    ledger& book) {
  const std::vector<runtime::campaign_job> jobs = campaign.expand();

  const runtime::campaign_job& first = jobs.front();
  const array2d<double> mask =
      read_pgm((fs::path(runtime::job_directory(campaign_dir, first.name)) / "mask.pgm").string());
  const double residual = fdfd_residual(first.spec, mask, opts.seed);
  book.record("fdfd_residual", residual <= residual_tolerance,
              "relative residual " + std::to_string(residual));

  // A level-set, fabrication-aware job of the matrix.
  const auto fab_job = std::find_if(jobs.begin(), jobs.end(), [](const auto& j) {
    return j.spec.device == "bend" && j.spec.method == "boson_no_relax";
  });
  core::design_problem problem = api::session::problem_for(fab_job->spec);
  problem.parameterization().set_sharpness(10.0);
  const std::string grad = gradient_mismatch(problem, core::concentrated_init(problem), opts.seed,
                                             opts.inject == "gradient" ? 1.1 : 1.0);
  book.record("adjoint_gradient", grad.empty(), grad);

  if (opts.inject == "drop_row" && !rows.empty()) rows.pop_back();

  std::string range, mc;
  for (const runtime::job_result_row& row : rows) {
    if (range.empty())
      range = out_of_unit_range({{row.name + ".prefab", row.prefab_fom},
                                 {row.name + ".postfab_mean", row.postfab_mean},
                                 {row.name + ".postfab_min", row.postfab_min},
                                 {row.name + ".postfab_max", row.postfab_max}});
    if (mc.empty()) {
      mc = monte_carlo_problem(row.postfab_mean, row.postfab_min, row.postfab_max,
                               row.postfab_samples, campaign_mc);
      if (!mc.empty()) mc = row.name + ": " + mc;
    }
  }
  book.record("metrics_in_unit_range", range.empty(), range);
  book.record("monte_carlo_stats", mc.empty(), mc);

  std::map<std::size_t, std::size_t> commits, stored;
  for (const runtime::journal_entry& e : entries)
    if (e.state == runtime::job_state::completed) ++commits[e.job_index];
  for (const runtime::job_result_row& row : rows) ++stored[row.job_index];
  std::string once;
  for (const runtime::campaign_job& job : jobs) {
    if (commits[job.index] != 1)
      once = job.name + " committed " + std::to_string(commits[job.index]) + " times";
    else if (stored[job.index] != 1)
      once = job.name + " has " + std::to_string(stored[job.index]) + " result rows";
    if (!once.empty()) break;
  }
  if (once.empty() && rows.size() != jobs.size())
    once = std::to_string(rows.size()) + " rows for " + std::to_string(jobs.size()) + " jobs";
  book.record("committed_once_with_row", once.empty(), once);
}

void record_determinism(const fingerprint& probe, const fingerprint& reference, ledger& book) {
  const std::string diff = bit_difference(probe, reference);
  book.record("bit_identical_to_one_thread", diff.empty(), diff, /*known_fault=*/true);
}

// ------------------------------------------------------------ campaign_mix --

/// Cancels its scheduler once the first job has finished its set-up (the
/// start of its optimize stage) and notes when that happened.
class cancel_at_first_optimize : public api::observer {
 public:
  void on_event(const api::progress_event& e) override {
    if (e.kind != api::progress_event::phase::stage_started || e.message != "optimize") return;
    std::call_once(once_, [&] { first = steady_seconds(); });
    target->cancel();
  }
  runtime::scheduler* target = nullptr;  ///< set before the scheduler runs
  double first = -1.0;                   ///< read after the scheduler returns

 private:
  std::once_flag once_;
};

/// Event timestamps plus the largest checkpoint file seen after an iteration.
class checkpoint_sizing_clock : public event_clock {
 public:
  explicit checkpoint_sizing_clock(std::string campaign_dir) : dir_(std::move(campaign_dir)) {}

  void on_event(const api::progress_event& event) override {
    event_clock::on_event(event);
    if (event.kind != api::progress_event::phase::iteration_finished) return;
    std::error_code ec;
    const auto size = fs::file_size(
        runtime::checkpoint_path(runtime::job_directory(dir_, event.experiment)), ec);
    if (!ec) {
      const std::lock_guard<std::mutex> lock(mutex_);
      largest_ = std::max<double>(largest_, static_cast<double>(size));
    }
  }

  double largest() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return largest_;
  }

 private:
  const std::string dir_;
  mutable std::mutex mutex_;
  double largest_ = 0.0;
};

struct campaign_round {
  std::string campaign_dir;  ///< where the timed campaign's jobs wrote artifacts
  std::vector<double> setups;
  double wall = 0.0;
  double jobs_per_s = 0.0;
  std::vector<double> job_seconds;
  std::vector<double> iterations;
  std::vector<double> evaluations;
  double peak_rss_mb = 0.0;
};

void mix_round(const bench_options& opts, const runtime::campaign_spec& campaign,
               const fingerprint& reference, const std::string& dir, bool traced,
               ledger& book, campaign_round& m, metric_map& layers) {
  fresh_dir(dir);

  // Set-up alone: expansion, journal and result store creation, the first
  // lease and that job's own set-up (device, litho SOCS, EOLE basis,
  // reference solve), up to its optimize stage.
  bool started = true;
  for (std::size_t probe = 0; probe < setup_probes; ++probe) {
    sim::engine_cache::global().clear();
    cancel_at_first_optimize canceller;
    runtime::scheduler_options so;
    so.campaign_dir = (fs::path(dir) / ("setup" + std::to_string(probe))).string();
    so.watcher = &canceller;
    runtime::scheduler sched(campaign, so);
    canceller.target = &sched;
    const double t0 = steady_seconds();
    (void)sched.run();
    started = started && canceller.first > 0.0;
    if (canceller.first > 0.0) m.setups.push_back(canceller.first - t0);
  }
  book.record("setup", started, "no job of a set-up probe reached its optimize stage");

  const std::string cdir = (fs::path(dir) / "campaign").string();
  m.campaign_dir = cdir;
  sim::engine_cache::global().clear();
  checkpoint_sizing_clock clock(cdir);
  runtime::scheduler_options so;
  so.campaign_dir = cdir;
  so.watcher = &clock;
  runtime::scheduler sched(campaign, so);
  std::vector<runtime::journal_entry> entries;
  {
    rss_sampler rss;
    std::unique_ptr<global_trace_scope> trace;
    counter_snapshot before;
    if (traced) {
      before = counter_snapshot::of_process();
      trace = std::make_unique<global_trace_scope>();
    }
    const double t0 = steady_seconds();
    const runtime::scheduler_report report = sched.run();
    m.wall = steady_seconds() - t0;
    m.peak_rss_mb = rss.stop();
    if (traced)
      put_span_metrics(trace->events(), m.wall, counter_snapshot::of_process().minus(before),
                       layers);
    entries = runtime::journal::replay(runtime::journal_path(cdir));
    const journal_facts f = fold_journal(entries);
    m.jobs_per_s = jobs_per_second(f);
    m.job_seconds = f.job_seconds;
    double first_optimize = std::numeric_limits<double>::infinity();
    for (const auto& [name, t] : clock.timelines()) {
      const auto optimize = t.stages.find("optimize");
      if (optimize != t.stages.end()) first_optimize = std::min(first_optimize, optimize->second);
      const std::vector<double> iv = iteration_intervals(t);
      m.iterations.insert(m.iterations.end(), iv.begin(), iv.end());
      const auto eval = t.stages.find("prefab_eval");
      if (eval != t.stages.end() && t.finished > 0.0)
        m.evaluations.push_back(t.finished - eval->second);
    }
    m.setups.push_back(first_optimize - t0);
    const std::size_t total = campaign.job_count();
    book.record("run", report.completed == total && report.failed == 0,
                std::to_string(report.completed) + " of " + std::to_string(total) +
                    " jobs completed, " + std::to_string(report.failed) + " failed");
  }
  if (traced) {
    put(layers, "runtime.checkpoint_bytes", clock.largest());
    put(layers, "runtime.journal_records", static_cast<double>(entries.size()));
  }

  check_campaign(opts, campaign, entries, runtime::result_store::load(cdir), cdir, book);
  record_determinism(campaign_probe_in_child((fs::path(dir) / "probe").string()), reference,
                     book);
}

// --------------------------------------------------------- served_campaign --

/// One campaign daemon child process on an ephemeral loopback port.
class server_process {
 public:
  server_process(const std::string& bin, const std::string& data_dir, bool traced) {
    fs::create_directories(data_dir);
    const std::string port_file = (fs::path(data_dir) / "port").string();
    const std::string log_file = (fs::path(data_dir) / "server.log").string();
    std::vector<std::string> args{bin,
                                  "--data", data_dir,
                                  "--port", "0",
                                  "--port-file", port_file,
                                  "--runners", "1",
                                  "--workers", std::to_string(campaign_workers),
                                  "--threads", "4",
                                  "--segment-records", std::to_string(segment_records),
                                  "--compact-every", std::to_string(compact_segments)};
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) env.emplace_back(*e);
    if (traced) env.emplace_back("BOSON_TRACE=1");  // per-job trace.json artifacts

    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const double t0 = steady_seconds();
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot start " + bin);

    // Ready when the port file names a port and /healthz answers 200.
    const double deadline = t0 + 30.0;
    while (steady_seconds() < deadline) {
      std::ifstream in(port_file);
      std::string port;
      if (in >> port && !port.empty()) {
        try {
          base_url_ = "http://127.0.0.1:" + port;
          net::http_client client(base_url_);
          if (client.get("/healthz").status == 200) {
            setup_s_ = steady_seconds() - t0;
            return;
          }
        } catch (const std::exception&) {
          // not accepting yet
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill_and_reap();
    throw std::runtime_error("the campaign daemon did not answer /healthz within 30 s");
  }

  ~server_process() { kill_and_reap(); }
  server_process(const server_process&) = delete;
  server_process& operator=(const server_process&) = delete;

  const std::string& base_url() const { return base_url_; }
  double setup_s() const { return setup_s_; }

  /// SIGTERM, wait for the clean shutdown, return the daemon's peak RSS [MB].
  double stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("the campaign daemon did not shut down cleanly");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  void kill_and_reap() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::string base_url_;
  double setup_s_ = 0.0;
};

/// A control-plane client that times every request.
class timed_client {
 public:
  explicit timed_client(const std::string& base_url) : client_(base_url) {}

  net::http_response get(const std::string& path) {
    const double t0 = steady_seconds();
    net::http_response r = client_.get(path);
    latencies_.push_back(steady_seconds() - t0);
    return r;
  }
  net::http_response post(const std::string& path, const std::string& body) {
    const double t0 = steady_seconds();
    net::http_response r = client_.post(path, body);
    latencies_.push_back(steady_seconds() - t0);
    return r;
  }

  const std::vector<double>& latencies() const { return latencies_; }

 private:
  net::http_client client_;
  std::vector<double> latencies_;
};

/// A submitted campaign followed to its terminal state.
struct followed_campaign {
  std::string id;
  std::string dir;
  std::string state;
  double wall = 0.0;         ///< submit until the client sees the terminal state
  double done_wall = 0.0;    ///< wall clock at that moment
  std::vector<std::string> lines;  ///< distinct journal records streamed
  double events_bytes = 0.0;
  double checkpoint_bytes = 0.0;   ///< largest checkpoint file seen
  std::vector<runtime::job_result_row> rows;
};

io::json_value parse_body(const net::http_response& r, const std::string& what) {
  if (r.status / 100 != 2)
    throw std::runtime_error(what + " answered " + std::to_string(r.status) + ": " + r.body);
  return io::json_value::parse(r.body);
}

/// Submit `campaign`, then stream its events while polling status and
/// report, until the campaign is terminal.
followed_campaign submit_and_follow(timed_client& client,
                                    const runtime::campaign_spec& campaign,
                                    bool size_checkpoints) {
  followed_campaign out;
  const double t0 = steady_seconds();
  const io::json_value record =
      parse_body(client.post("/v1/campaigns", campaign.to_json().dump(-1)), "submit");
  out.id = record.at("id").as_string();
  out.dir = record.at("dir").as_string();
  const std::string base = "/v1/campaigns/" + out.id;

  std::set<std::string> seen;
  std::string cursor = "0";
  const auto drain = [&](const char* wait) {
    const net::http_response page =
        client.get(base + "/events?cursor=" + cursor + "&wait=" + wait);
    if (page.status != 200) throw std::runtime_error("events answered " + page.body);
    out.events_bytes += static_cast<double>(page.body.size());
    if (const std::string* next = page.header("X-Boson-Cursor")) cursor = *next;
    std::size_t fresh = 0;
    std::size_t at = 0;
    while (at < page.body.size()) {
      std::size_t end = page.body.find('\n', at);
      if (end == std::string::npos) end = page.body.size();
      std::string line = page.body.substr(at, end - at);
      at = end + 1;
      if (line.empty() || !seen.insert(line).second) continue;
      ++fresh;
      if (size_checkpoints) {
        const runtime::journal_entry e =
            runtime::journal_entry::from_json(io::json_value::parse(line));
        if (e.state == runtime::job_state::checkpointed) {
          std::error_code ec;
          const auto size = fs::file_size(
              runtime::checkpoint_path(runtime::job_directory(out.dir, e.job_name)), ec);
          if (!ec) out.checkpoint_bytes = std::max<double>(out.checkpoint_bytes, size);
        }
      }
      out.lines.push_back(std::move(line));
    }
    return fresh;
  };

  for (;;) {
    drain("0.2");
    out.state = parse_body(client.get(base), "status").at("state").as_string();
    (void)parse_body(client.get(base + "/report?format=json"), "report");
    if (out.state == "done" || out.state == "failed" || out.state == "cancelled") break;
  }
  out.wall = steady_seconds() - t0;
  out.done_wall = wall_seconds();
  while (drain("0") > 0) {
  }
  const io::json_value report = parse_body(client.get(base + "/report?format=json"), "report");
  for (const io::json_value& row : report.at("rows").elements())
    out.rows.push_back(runtime::job_result_row::from_json(row));
  return out;
}

void served_round(const bench_options& opts, const runtime::campaign_spec& campaign,
                  const fingerprint& reference, const std::string& dir, bool traced,
                  ledger& book, campaign_round& m, metric_map& layers) {
  fresh_dir(dir);

  // Set-up alone: daemon start until /healthz answers.
  for (std::size_t probe = 0; probe < setup_probes; ++probe) {
    server_process setup(opts.serve_bin,
                         (fs::path(dir) / ("setup" + std::to_string(probe))).string(), false);
    m.setups.push_back(setup.setup_s());
    setup.stop();
  }
  book.record("setup", true);

  server_process server(opts.serve_bin, (fs::path(dir) / "data").string(), traced);
  m.setups.push_back(server.setup_s());
  timed_client client(server.base_url());
  const followed_campaign run = submit_and_follow(client, campaign, traced);
  const std::vector<double> latencies = client.latencies();
  m.campaign_dir = run.dir;

  std::vector<runtime::journal_entry> streamed;
  for (const std::string& line : run.lines)
    streamed.push_back(runtime::journal_entry::from_json(io::json_value::parse(line)));
  const journal_facts f = fold_journal(streamed);
  m.wall = run.wall;
  m.jobs_per_s = jobs_per_second(f);
  m.job_seconds = f.job_seconds;
  m.iterations = f.iteration_seconds;
  m.evaluations = f.tail_seconds;
  book.record("run", run.state == "done" && run.rows.size() == campaign.job_count(),
              "campaign ended '" + run.state + "' with " + std::to_string(run.rows.size()) +
                  " rows");

  if (traced) {
    std::vector<obs::trace_event> spans;
    for (const auto& job : fs::directory_iterator(fs::path(run.dir) / "jobs")) {
      const fs::path file = job.path() / "trace.json";
      if (!fs::exists(file)) continue;
      const std::vector<obs::trace_event> one = read_chrome_trace(file.string());
      spans.insert(spans.end(), one.begin(), one.end());
    }
    const net::http_response prom = client.get("/v1/metrics?format=prometheus");
    const counter_snapshot counters = counter_snapshot::of_prometheus(prom.body);
    put_span_metrics(spans, run.wall, counters, layers);
    put(layers, "runtime.checkpoint_bytes", run.checkpoint_bytes);
    put(layers, "runtime.journal_records", static_cast<double>(run.lines.size()));
    put(layers, "store.appends", counters.at("store.appends"));
    put(layers, "store.rotations", counters.at("store.rotations"));
    put(layers, "store.compactions", counters.at("store.compactions"));
    put(layers, "store.append_us",
        store_append_us(run.lines, segment_records, compact_segments,
                        (fs::path(dir) / "store_timing").string()));
    put(layers, "net.request_ms", 1e3 * median(latencies));
    put(layers, "net.requests", static_cast<double>(latencies.size()));
    put(layers, "service.completion_lag_s", run.done_wall - f.last_commit);
    put(layers, "service.events_bytes", run.events_bytes);
  }

  check_campaign(opts, campaign, runtime::journal::replay(runtime::journal_path(run.dir)),
                 run.rows, run.dir, book);

  const followed_campaign probe = submit_and_follow(client, probe_campaign(), false);
  const fingerprint served = rows_fingerprint(probe.rows);
  const std::string off = tolerance_difference(served, reference, 1e-6);
  book.record("served_matches_local", off.empty(), off);
  record_determinism(served, reference, book);

  m.peak_rss_mb = server.stop();
}

// -------------------------------------------------------------- run loops --

using round_fn = void (*)(const bench_options&, const runtime::campaign_spec&,
                          const fingerprint&, const std::string&, bool, ledger&,
                          campaign_round&, metric_map&);

void run_campaign_workload(const bench_options& opts, ledger& book, metric_map& out,
                           round_fn round, bool served) {
  const runtime::campaign_spec campaign = mix_campaign(opts.seed);
  const fingerprint reference =
      fingerprint::from_json(io::json_value::parse_file(opts.reference));

  if (opts.trace) {
    campaign_round plain, traced;
    metric_map unused;
    round(opts, campaign, reference, (fs::path(opts.work_dir) / "plain").string(), false, book,
          plain, unused);
    round(opts, campaign, reference, (fs::path(opts.work_dir) / "traced").string(), true, book,
          traced, out);
    put(out, "obs.trace_overhead_s", traced.wall - plain.wall);

    // Layer timings on the campaign's level-set, fabrication-aware bend job.
    const std::vector<runtime::campaign_job> jobs = campaign.expand();
    const auto job = std::find_if(jobs.begin(), jobs.end(), [](const auto& j) {
      return j.spec.device == "bend" && j.spec.method == "boson_no_relax";
    });
    put_layer_timings(job->spec, {}, runtime::job_directory(traced.campaign_dir, job->name),
                      (fs::path(opts.work_dir) / "layers").string(), out);
    // The legacy journal and an in-process scheduler touch neither the store
    // nor the control plane.
    if (!served) put_absent_layers(out, {"store.", "net.", "service."});
    return;
  }

  std::vector<campaign_round> rounds;
  const double start = steady_seconds();
  do {
    rounds.emplace_back();
    round(opts, campaign, reference,
          (fs::path(opts.work_dir) / ("round" + std::to_string(rounds.size()))).string(), false,
          book, rounds.back(), out);
    note("round " + std::to_string(rounds.size()) + ": wall " + std::to_string(rounds.back().wall) +
         " s, " + std::to_string(rounds.back().jobs_per_s) + " jobs/s");
  } while (steady_seconds() - start < opts.seconds);

  // Per-job times are multi-modal across devices and methods (a per-job
  // median jumps between modes), and the served ones come from journal
  // stamps of 10 ms resolution: each round contributes its per-job mean,
  // and the rounds' median is reported.
  std::vector<double> setups, walls, rates, jobs, iterations, evaluations, rss;
  for (const campaign_round& m : rounds) {
    setups.insert(setups.end(), m.setups.begin(), m.setups.end());
    walls.push_back(m.wall);
    rates.push_back(m.jobs_per_s);
    jobs.push_back(mean(m.job_seconds));
    iterations.push_back(mean(m.iterations));
    evaluations.push_back(mean(m.evaluations));
    rss.push_back(m.peak_rss_mb);
  }
  put(out, "setup_s", median(setups));
  put(out, "wall_s", median(walls));
  put(out, "iteration_s", median(iterations));
  put(out, "evaluation_s", median(evaluations));
  put(out, "jobs_per_s", median(rates));
  put(out, "job_s", median(jobs));
  put(out, "peak_rss_mb", median(rss));
}

}  // namespace

fingerprint campaign_probe(const std::string& dir, std::size_t workers) {
  fresh_dir(dir);
  sim::engine_cache::global().clear();
  runtime::scheduler_options so;
  so.campaign_dir = dir;
  so.workers = workers;
  so.write_artifacts = false;
  const runtime::scheduler_report report = runtime::scheduler(probe_campaign(), so).run();
  if (report.completed != probe_campaign().job_count())
    throw std::runtime_error("the probe campaign did not complete");
  return rows_fingerprint(runtime::result_store::load(dir));
}

fingerprint campaign_probe_in_child(const std::string& dir) {
  fresh_dir(dir);
  const std::string out = (fs::path(dir) / "fingerprint.json").string();
  std::vector<std::string> args{"/proc/self/exe", "probe",     "--workers",
                                std::to_string(campaign_workers), "--work-dir", dir,
                                "--out",          out};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ) != 0)
    throw std::runtime_error("cannot start the probe process");
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("the probe process failed");
  return fingerprint::from_json(io::json_value::parse_file(out));
}

void run_campaign_mix(const bench_options& opts, ledger& book, metric_map& out) {
  run_campaign_workload(opts, book, out, &mix_round, false);
}

void run_served_campaign(const bench_options& opts, ledger& book, metric_map& out) {
  run_campaign_workload(opts, book, out, &served_round, true);
}

}  // namespace e2e
