#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace f2t::core {

/// Minimal command-line parser for the f2tsim tool:
/// `f2tsim <command> [--key value]... [--flag]...`.
///
/// Values are typed on access; unknown keys are detected by validate()
/// against the set of keys the command actually read, so typos fail loudly
/// instead of silently running a default experiment.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  bool has_command() const { return !command_.empty(); }

  /// Typed getters; each records the key as known. A numeric value must
  /// be consumed whole ("4x" and "4.9" are not integers).
  std::string get(const std::string& key, const std::string& fallback);
  int get_int(const std::string& key, int fallback);
  double get_double(const std::string& key, double fallback);
  bool get_flag(const std::string& key);

  /// Returns the unknown keys (present on the command line but never
  /// requested by the command). Empty = all good.
  std::vector<std::string> unknown_keys() const;

 private:
  std::string command_;
  std::map<std::string, std::string> values_;  ///< --key value
  std::map<std::string, bool> flags_;          ///< --flag (no value)
  std::map<std::string, bool> touched_;
};

}  // namespace f2t::core
