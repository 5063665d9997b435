// e2e_bench: the end-to-end benchmark driver (see ../README.md).
//
//   e2e_bench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --reference <file> --work-dir <dir> --serve-bin <path>
//                 [--inject gradient|drop_row]
//   e2e_bench probe --workers <n> --out <file> --work-dir <dir>
//   e2e_bench list
//
// `run` prints one JSON object as its last stdout line: correct, attempted,
// failed, and the end-to-end (trace 0) or per-layer (trace 1) metrics.
// `probe` runs the fixed determinism probe campaign and writes its results
// as exact hex doubles: with one worker under BOSON_THREADS=1 it is the
// bit-identity reference. `list` prints the workload and metric catalogue.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace e2e;

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("expected --flag value pairs, got '" + key + "'");
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

void require_workload(const std::string& name) {
  for (const std::string& w : workload_names())
    if (w == name) return;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int list() {
  std::string out = "{\"workloads\": [";
  for (std::size_t i = 0; i < workload_names().size(); ++i)
    out += (i ? ", \"" : "\"") + workload_names()[i] + "\"";
  for (const auto& [key, list] :
       {std::make_pair("end_to_end", &end_to_end_metrics()),
        std::make_pair("per_layer", &per_layer_metrics())}) {
    out += std::string("], \"") + key + "\": [";
    for (std::size_t i = 0; i < list->size(); ++i)
      out += std::string(i ? ", " : "") + "{\"name\": \"" + (*list)[i].name +
             "\", \"unit\": \"" + (*list)[i].unit + "\"}";
  }
  std::cout << out << "]}" << std::endl;
  return 0;
}

int probe(const std::map<std::string, std::string>& flags) {
  const fingerprint f = campaign_probe(
      (std::filesystem::path(required(flags, "work-dir")) / "campaign").string(),
      std::stoul(required(flags, "workers")));
  f.to_json().write_file(required(flags, "out"), -1);
  return 0;
}

int run(const std::map<std::string, std::string>& flags) {
  bench_options opts;
  opts.workload = required(flags, "workload");
  require_workload(opts.workload);
  opts.seed = std::stoull(required(flags, "seed"));
  opts.seconds = std::stod(required(flags, "seconds"));
  opts.trace = required(flags, "trace") == "1";
  opts.reference = required(flags, "reference");
  opts.work_dir = required(flags, "work-dir");
  opts.serve_bin = required(flags, "serve-bin");
  if (const auto it = flags.find("inject"); it != flags.end()) opts.inject = it->second;
  if (!opts.inject.empty() && opts.inject != "gradient" && opts.inject != "drop_row")
    throw std::invalid_argument("unknown --inject '" + opts.inject + "'");

  ledger book;
  metric_map metrics;
  if (opts.workload == "paper_bend") run_paper_bend(opts, book, metrics);
  else if (opts.workload == "campaign_mix") run_campaign_mix(opts, book, metrics);
  else run_served_campaign(opts, book, metrics);

  // Exactly the catalogue of this kind of run, every value finite.
  const auto& expected = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string out = "{\"correct\": " + std::string(book.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(book.attempted()) +
                    ", \"failed\": " + std::to_string(book.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto it = metrics.find(expected[i].name);
    if (it == metrics.end())
      throw std::logic_error(std::string("metric '") + expected[i].name + "' was not measured");
    if (!std::isfinite(it->second.value))
      throw std::logic_error(std::string("metric '") + expected[i].name + "' is not finite");
    out += std::string(i ? ", " : "") + "\"" + expected[i].name + "\": {\"value\": " +
           number(it->second.value) + ", \"unit\": \"" + it->second.unit + "\"}";
  }
  std::cout << out << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "list") return list();
    if (mode == "probe") return probe(parse_flags(argc, argv, 2));
    if (mode == "run") return run(parse_flags(argc, argv, 2));
    std::cerr << "usage: e2e_bench run|probe|list [--flag value ...]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << std::endl;
    return 1;
  }
}
