// The three benchmark workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by an untraced run, in this order; BENCHMARK.json lists the same.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by a traced run.
const std::vector<MetricDef>& per_layer_metrics();

struct RunResult {
  long long attempted = 0;  // campaigns run and checked
  long long failed = 0;     // campaigns that threw or failed a check
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // one line per failure, for stderr
};

/// Inputs are one of this many variants, chosen by seed modulo the count;
/// reference.json holds the result digests of every variant.
constexpr int kVariants = 16;

/// Runs `workload` on the inputs of `seed` for about `seconds`, checking
/// every campaign against `reference`. trace = false measures the
/// end-to-end metrics; trace = true runs the traced passes instead.
RunResult run_workload(const std::string& workload, std::uint64_t seed,
                       double seconds, bool trace, const mcs::Json& reference);

/// Recomputes reference.json through the library's own entry points
/// (exp::run_repetition and exp::run_experiment).
mcs::Json make_reference();

/// Unit checks of the benchmark's own machinery; returns the failures.
std::vector<std::string> self_test();

}  // namespace perfbench
