// Key=value configuration store with typed accessors.
//
// Used by benchmarks and examples to expose every experiment knob as
// `--key=value` command-line flags.
// Unknown keys are kept (callers may probe), but consume-tracking lets a
// binary warn about flags nothing read.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mcs {

class Config {
 public:
  Config() = default;

  /// Parse `--key=value` / `--flag` style argv. Non-flag arguments are
  /// ignored. A bare `--flag` stores "true".
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  bool has(const std::string& key) const;

  /// Typed getters with defaults. Each access marks the key as consumed.
  std::string get_string(const std::string& key, const std::string& def) const;
  double get_double(const std::string& key, double def) const;
  long long get_int(const std::string& key, long long def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Keys that were set but never read; useful for flag-typo warnings.
  std::vector<std::string> unconsumed_keys() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

}  // namespace mcs
