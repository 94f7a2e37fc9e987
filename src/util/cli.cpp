#include "util/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/error.hpp"

namespace lbsim::util {
namespace {

bool looks_like_flag(const std::string& s) { return s.rfind("--", 0) == 0 && s.size() > 2; }

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  LBSIM_REQUIRE(argc >= 1 && argv != nullptr, "argc/argv must describe a program invocation");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      LBSIM_REQUIRE(!key.empty(), "malformed flag '" << arg << "'");
      values_[key] = body.substr(eq + 1);
    } else if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool CliArgs::has(const std::string& key) const { return values_.count(key) != 0; }

std::vector<std::string> CliArgs::flag_names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

std::optional<std::string> CliArgs::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliArgs::get_string(const std::string& key, const std::string& fallback) const {
  return raw(key).value_or(fallback);
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    LBSIM_REQUIRE(pos == v->size(), "trailing characters in --" << key << "=" << *v);
    return out;
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("flag --" + key + " expects a number, got '" + *v + "'");
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("flag --" + key + " is out of the double range, got '" + *v +
                                "'");
  }
}

long long CliArgs::get_int64(const std::string& key, long long fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const long long out = std::stoll(*v, &pos);
    LBSIM_REQUIRE(pos == v->size(), "trailing characters in --" << key << "=" << *v);
    return out;
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("flag --" + key + " expects an integer, got '" + *v + "'");
  } catch (const std::out_of_range&) {
    throw std::invalid_argument("flag --" + key + " is out of the 64-bit integer range, got '" +
                                *v + "'");
  }
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const auto v = raw(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("flag --" + key + " expects a boolean, got '" + *v + "'");
}

}  // namespace lbsim::util
