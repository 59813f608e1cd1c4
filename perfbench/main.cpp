// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <paper_sweep|metro|dense_poi> --seed <n>
//             --seconds <s> --trace <0|1> [--reference <path>]
//   perfbench --self-test
//   perfbench --list-metrics
//   perfbench --make-reference <path>
//
// A run prints one JSON object as its last line: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
// perfbench/run.py builds this program and wraps it.
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

using perfbench::MetricDef;

mcs::Json metric_table(const std::vector<MetricDef>& defs) {
  mcs::Json out = mcs::Json::array();
  for (const MetricDef& d : defs) {
    mcs::Json row = mcs::Json::array();
    row.push_back(mcs::Json(std::string(d.name)));
    row.push_back(mcs::Json(std::string(d.unit)));
    out.push_back(std::move(row));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void print_result(const perfbench::RunResult& r,
                  const std::vector<MetricDef>& defs) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "FAIL: %s\n", e.c_str());
  }
  const bool correct = r.failed == 0 && r.errors.empty() && r.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", r.attempted, r.failed);
  const char* sep = "";
  for (const MetricDef& d : defs) {
    const auto it = r.metrics.find(d.name);
    if (it == r.metrics.end()) {
      throw std::logic_error(std::string("metric not measured: ") + d.name);
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, d.name,
                it->second, d.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--reference <path>]\n"
               "       perfbench --self-test | --list-metrics | "
               "--make-reference <path>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string reference = "perfbench/reference.json";
  std::string make_reference;
  unsigned long long seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool self_test = false;
  bool list_metrics = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--self-test") {
        self_test = true;
      } else if (arg == "--list-metrics") {
        list_metrics = true;
      } else if (!has_value) {
        return usage();
      } else if (arg == "--workload") {
        workload = argv[++i];
      } else if (arg == "--seed") {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds") {
        seconds = std::stod(argv[++i]);
      } else if (arg == "--trace") {
        trace = std::stoi(argv[++i]);
      } else if (arg == "--reference") {
        reference = argv[++i];
      } else if (arg == "--make-reference") {
        make_reference = argv[++i];
      } else {
        return usage();
      }
    }

    if (self_test) {
      const std::vector<std::string> fails = perfbench::self_test();
      for (const std::string& f : fails) {
        std::fprintf(stderr, "FAIL: %s\n", f.c_str());
      }
      std::printf("self-test: %s\n", fails.empty() ? "ok" : "FAILED");
      return fails.empty() ? 0 : 1;
    }
    if (list_metrics) {
      mcs::Json out = mcs::Json::object();
      out["end_to_end"] = metric_table(perfbench::end_to_end_metrics());
      out["per_layer"] = metric_table(perfbench::per_layer_metrics());
      std::printf("%s\n", out.dump().c_str());
      return 0;
    }
    if (!make_reference.empty()) {
      const std::string text = perfbench::make_reference().dump(1) + "\n";
      std::ofstream out(make_reference);
      out << text;
      return out.good() ? 0 : 1;
    }
    if (workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
      return usage();
    }
    const mcs::Json ref = mcs::Json::parse(read_file(reference));
    const perfbench::RunResult r =
        perfbench::run_workload(workload, seed, seconds, trace == 1, ref);
    print_result(r, trace == 1 ? perfbench::per_layer_metrics()
                               : perfbench::end_to_end_metrics());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
