#include "cli/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "util/math.hpp"

namespace lbsim::cli {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Levenshtein distance, for did-you-mean suggestions on unknown keys.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

void check_range(double value, const OptionSpec& spec, const std::string& text) {
  if (value < spec.min_value || value > spec.max_value) {
    std::ostringstream msg;
    msg << "value '" << text << "' for key '" << spec.key << "' is out of range ["
        << spec.min_value << ", " << spec.max_value << "]";
    throw ConfigError(ConfigError::Kind::kOutOfRange, spec.key, msg.str());
  }
}

/// Parses and range-checks one value against its spec (list elements included).
void validate_value(const std::string& text, const OptionSpec& spec) {
  switch (spec.type) {
    case OptionType::kString:
      if (!spec.choices.empty() &&
          std::find(spec.choices.begin(), spec.choices.end(), text) == spec.choices.end()) {
        std::ostringstream msg;
        msg << "value '" << text << "' for key '" << spec.key << "' is not one of {";
        for (std::size_t i = 0; i < spec.choices.size(); ++i) {
          msg << (i != 0 ? ", " : "") << spec.choices[i];
        }
        msg << "}";
        throw ConfigError(ConfigError::Kind::kOutOfRange, spec.key, msg.str());
      }
      break;
    case OptionType::kBool:
      (void)parse_bool(text, spec.key);
      break;
    case OptionType::kInt:
      check_range(static_cast<double>(parse_int(text, spec.key)), spec, text);
      break;
    case OptionType::kSize: {
      const long long v = parse_int(text, spec.key);
      if (v < 0) {
        throw ConfigError(ConfigError::Kind::kOutOfRange, spec.key,
                          "value '" + text + "' for key '" + spec.key + "' must be >= 0");
      }
      check_range(static_cast<double>(v), spec, text);
      break;
    }
    case OptionType::kDouble:
      check_range(parse_double(text, spec.key), spec, text);
      break;
    case OptionType::kSizeList:
    case OptionType::kDoubleList:
      for (const std::string& item : split_list(text)) {
        OptionSpec element = spec;
        element.type =
            spec.type == OptionType::kSizeList ? OptionType::kSize : OptionType::kDouble;
        validate_value(trim(item), element);
      }
      break;
  }
}

}  // namespace

ConfigError::ConfigError(Kind kind, std::string key, const std::string& message)
    : std::runtime_error(message), kind_(kind), key_(std::move(key)) {}

RawConfig parse_ini(const std::string& text) {
  RawConfig raw;
  std::istringstream in(text);
  std::string line;
  std::string section;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#' || stripped[0] == ';') continue;
    if (stripped.front() == '[') {
      if (stripped.back() != ']' || stripped.size() < 3) {
        throw ConfigError(ConfigError::Kind::kSyntax, "",
                          "line " + std::to_string(lineno) + ": malformed section header '" +
                              stripped + "'");
      }
      section = trim(stripped.substr(1, stripped.size() - 2));
      if (section.empty()) {
        throw ConfigError(ConfigError::Kind::kSyntax, "",
                          "line " + std::to_string(lineno) + ": empty section name");
      }
      continue;
    }
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError(ConfigError::Kind::kSyntax, "",
                        "line " + std::to_string(lineno) + ": expected 'key = value', got '" +
                            stripped + "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    raw.set(section.empty() ? key : section + "." + key, value);
  }
  return raw;
}

RawConfig parse_ini_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read config file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_ini(text.str());
}

void apply_override(RawConfig& raw, const std::string& assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string::npos || eq == 0) {
    throw ConfigError(ConfigError::Kind::kSyntax, assignment,
                      "override '" + assignment + "' is not of the form key=value");
  }
  raw.set(trim(assignment.substr(0, eq)), trim(assignment.substr(eq + 1)));
}

std::string to_string(OptionType type) {
  switch (type) {
    case OptionType::kString: return "string";
    case OptionType::kBool: return "bool";
    case OptionType::kInt: return "int";
    case OptionType::kSize: return "size";
    case OptionType::kDouble: return "double";
    case OptionType::kSizeList: return "size-list";
    case OptionType::kDoubleList: return "double-list";
  }
  return "?";
}

Schema& Schema::add(OptionSpec spec) {
  if (find(spec.key) != nullptr) {
    throw std::logic_error("schema already declares key '" + spec.key + "'");
  }
  options_.push_back(std::move(spec));
  return *this;
}

Schema& Schema::merge(const Schema& other) {
  for (const OptionSpec& spec : other.options_) add(spec);
  return *this;
}

const OptionSpec* Schema::find(const std::string& key) const {
  const auto it = std::find_if(options_.begin(), options_.end(),
                               [&](const OptionSpec& spec) { return spec.key == key; });
  return it == options_.end() ? nullptr : &*it;
}

std::string closest_match(const std::string& key, const std::vector<std::string>& candidates) {
  std::string best;
  std::size_t best_distance = 3;  // suggest only close matches
  for (const std::string& candidate : candidates) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

std::string Schema::suggest(const std::string& key) const {
  std::vector<std::string> keys;
  keys.reserve(options_.size());
  for (const OptionSpec& option : options_) keys.push_back(option.key);
  return closest_match(key, keys);
}

Config Schema::resolve(const RawConfig& raw) const {
  for (const auto& [key, value] : raw.values) {
    const OptionSpec* spec = find(key);
    if (spec == nullptr) {
      std::string msg = "unknown key '" + key + "'";
      if (const std::string best = suggest(key); !best.empty()) {
        msg += " (did you mean '" + best + "'?)";
      }
      throw ConfigError(ConfigError::Kind::kUnknownKey, key, msg);
    }
    validate_value(value, *spec);
  }

  Config config;
  for (const OptionSpec& spec : options_) {
    const auto it = raw.values.find(spec.key);
    const bool supplied = it != raw.values.end();
    config.values_[spec.key] = supplied ? it->second : spec.default_value;
    config.types_[spec.key] = spec.type;
    config.supplied_[spec.key] = supplied;
  }
  return config;
}

const std::string& Config::checked(const std::string& key, OptionType type) const {
  const auto type_it = types_.find(key);
  if (type_it == types_.end()) {
    throw std::logic_error("config key '" + key + "' was never declared in the schema");
  }
  if (type_it->second != type) {
    throw std::logic_error("config key '" + key + "' is of type " + to_string(type_it->second) +
                           ", requested as " + to_string(type));
  }
  return values_.at(key);
}

std::string Config::get_string(const std::string& key) const {
  return checked(key, OptionType::kString);
}

bool Config::get_bool(const std::string& key) const {
  return parse_bool(checked(key, OptionType::kBool), key);
}

long long Config::get_int(const std::string& key) const {
  return parse_int(checked(key, OptionType::kInt), key);
}

std::size_t Config::get_size(const std::string& key) const {
  return static_cast<std::size_t>(parse_int(checked(key, OptionType::kSize), key));
}

double Config::get_double(const std::string& key) const {
  return parse_double(checked(key, OptionType::kDouble), key);
}

std::vector<std::size_t> Config::get_size_list(const std::string& key) const {
  std::vector<std::size_t> out;
  for (const std::string& item : split_list(checked(key, OptionType::kSizeList))) {
    out.push_back(static_cast<std::size_t>(parse_int(trim(item), key)));
  }
  return out;
}

std::vector<double> Config::get_double_list(const std::string& key) const {
  std::vector<double> out;
  for (const std::string& item : split_list(checked(key, OptionType::kDoubleList))) {
    out.push_back(parse_double(trim(item), key));
  }
  return out;
}

bool Config::supplied(const std::string& key) const {
  const auto it = supplied_.find(key);
  return it != supplied_.end() && it->second;
}

bool parse_bool(const std::string& text, const std::string& key) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "true" || lower == "yes" || lower == "on" || lower == "1") return true;
  if (lower == "false" || lower == "no" || lower == "off" || lower == "0") return false;
  throw ConfigError(ConfigError::Kind::kBadValue, key,
                    "value '" + text + "' for key '" + key + "' is not a bool");
}

long long parse_int(const std::string& text, const std::string& key) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE) {
    throw ConfigError(ConfigError::Kind::kBadValue, key,
                      "value '" + text + "' for key '" + key + "' is not an integer");
  }
  return value;
}

std::size_t parse_reps(const std::string& text, const std::string& key) {
  const long long reps = parse_int(text, key);
  if (reps < 1) throw ConfigError(ConfigError::Kind::kOutOfRange, key, key + " must be >= 1");
  return static_cast<std::size_t>(reps);
}

unsigned parse_threads(const std::string& text, const std::string& key) {
  const long long threads = parse_int(text, key);
  if (threads < 0 || threads > std::numeric_limits<unsigned>::max()) {
    throw ConfigError(ConfigError::Kind::kOutOfRange, key,
                      key + " must be >= 0 (0 = one per hardware thread)");
  }
  return static_cast<unsigned>(threads);
}

double parse_double(const std::string& text, const std::string& key) {
  const std::optional<double> value = util::try_parse_double(text);
  if (!value) {
    throw ConfigError(ConfigError::Kind::kBadValue, key,
                      "value '" + text + "' for key '" + key + "' is not a number");
  }
  return *value;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  if (trim(text).empty()) return out;
  std::string::size_type start = 0;
  while (true) {
    const std::string::size_type comma = text.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace lbsim::cli
