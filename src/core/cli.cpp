#include "core/cli.hpp"

#include <stdexcept>

namespace f2t::core {

Cli::Cli(int argc, const char* const* argv) {
  int i = 1;
  if (i < argc && argv[i][0] != '-') command_ = argv[i++];
  while (i < argc) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() <= 2) {
      throw std::invalid_argument("expected --key [value], got '" + arg +
                                  "'");
    }
    const std::string key = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[key] = argv[i + 1];
      i += 2;
    } else {
      flags_[key] = true;
      ++i;
    }
  }
}

std::string Cli::get(const std::string& key, const std::string& fallback) {
  touched_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

int Cli::get_int(const std::string& key, int fallback) {
  touched_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  try {
    const int value = std::stoi(it->second, &used);
    if (used == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + key + " expects an integer, got '" +
                              it->second + "'");
}

double Cli::get_double(const std::string& key, double fallback) {
  touched_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  try {
    const double value = std::stod(it->second, &used);
    if (used == it->second.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + key + " expects a number, got '" +
                              it->second + "'");
}

bool Cli::get_flag(const std::string& key) {
  touched_[key] = true;
  return flags_.contains(key);
}

std::vector<std::string> Cli::unknown_keys() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (!touched_.contains(key)) unknown.push_back(key);
  }
  for (const auto& [key, set] : flags_) {
    if (!touched_.contains(key)) unknown.push_back(key);
  }
  return unknown;
}

}  // namespace f2t::core
