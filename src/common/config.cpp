#include "common/config.h"

#include "common/strings.h"

namespace mcs {

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (starts_with(arg, "--")) {
      const std::string body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq == std::string::npos) {
        cfg.set(body, "true");
      } else {
        cfg.set(body.substr(0, eq), body.substr(eq + 1));
      }
    }
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Config::get_string(const std::string& key,
                               const std::string& def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  consumed_.insert(key);
  return it->second;
}

double Config::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  consumed_.insert(key);
  return parse_double(it->second);
}

long long Config::get_int(const std::string& key, long long def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  consumed_.insert(key);
  return parse_int(it->second);
}

bool Config::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  consumed_.insert(key);
  return parse_bool(it->second);
}

std::vector<std::string> Config::unconsumed_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    if (consumed_.count(k) == 0) out.push_back(k);
  }
  return out;
}

}  // namespace mcs
