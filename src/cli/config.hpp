#pragma once
/// \file
/// Key=value / INI configuration with typed schema validation.
///
/// Raw text (a file, a `[section]`-structured INI, or `key=value` command-line
/// overrides) parses into a flat string map; a Schema then resolves it into a
/// typed Config: defaults are applied, unknown keys are rejected with a
/// nearest-match suggestion, and every value is parsed and range-checked
/// according to its OptionSpec. All failures throw ConfigError carrying the
/// offending key and a machine-readable error kind, so callers (and tests) can
/// distinguish a typo from a type error from an out-of-range value.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace lbsim::cli {

/// Error raised by parsing or schema resolution.
class ConfigError : public std::runtime_error {
 public:
  enum class Kind {
    kSyntax,      ///< malformed line / override (no '=', empty key, bad section)
    kUnknownKey,  ///< key not declared in the schema
    kBadValue,    ///< value does not parse as the declared type
    kOutOfRange,  ///< parses, but violates [min,max] or the choice list
  };

  ConfigError(Kind kind, std::string key, const std::string& message);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// The offending key ("" for file-level syntax errors).
  [[nodiscard]] const std::string& key() const noexcept { return key_; }

 private:
  Kind kind_;
  std::string key_;
};

/// Flat, untyped key=value map as read from text. Section headers `[sec]`
/// prefix subsequent keys as `sec.key`.
struct RawConfig {
  std::map<std::string, std::string> values;

  [[nodiscard]] bool has(const std::string& key) const { return values.count(key) != 0; }
  /// Sets `key=value`, overwriting (later sources win).
  void set(const std::string& key, const std::string& value) { values[key] = value; }
};

/// Parses INI-style text: `key = value` lines, `[section]` headers, blank
/// lines, and full-line `#`/`;` comments. Throws ConfigError(kSyntax).
[[nodiscard]] RawConfig parse_ini(const std::string& text);

/// parse_ini over the contents of `path`; throws std::runtime_error if the
/// file cannot be read.
[[nodiscard]] RawConfig parse_ini_file(const std::string& path);

/// Applies one `key=value` override (e.g. a positional CLI argument); the
/// current section concept does not apply. Throws ConfigError(kSyntax).
void apply_override(RawConfig& raw, const std::string& assignment);

enum class OptionType {
  kString,
  kBool,    ///< true/false, yes/no, on/off, 1/0
  kInt,     ///< long long
  kSize,    ///< non-negative integer
  kDouble,
  kSizeList,    ///< comma-separated non-negative integers
  kDoubleList,  ///< comma-separated doubles
};

/// Human-readable name ("double", "size-list", ...) for messages and `lbsim list`.
[[nodiscard]] std::string to_string(OptionType type);

/// One typed, documented, range-checked configuration key.
struct OptionSpec {
  std::string key;
  OptionType type = OptionType::kString;
  std::string default_value;  ///< textual default; must itself validate
  std::string description;
  /// Inclusive numeric bounds, applied to kInt/kSize/kDouble and to every
  /// element of list types.
  double min_value = std::numeric_limits<double>::lowest();
  double max_value = std::numeric_limits<double>::max();
  /// For kString: the allowed values (empty = unrestricted).
  std::vector<std::string> choices;
};

class Config;

/// An ordered set of OptionSpecs; resolves a RawConfig into a typed Config.
class Schema {
 public:
  /// Declares one option; throws std::logic_error on duplicate keys.
  Schema& add(OptionSpec spec);

  /// Appends every option of `other` (for layering shared + per-scenario keys).
  Schema& merge(const Schema& other);

  [[nodiscard]] const std::vector<OptionSpec>& options() const noexcept { return options_; }
  [[nodiscard]] const OptionSpec* find(const std::string& key) const;

  /// closest_match over the declared keys — the did-you-mean suggestion used
  /// for unknown keys here and by the sweep's fail-fast axis check.
  [[nodiscard]] std::string suggest(const std::string& key) const;

  /// Validates `raw` against the schema: applies defaults, rejects unknown
  /// keys (kUnknownKey, with a did-you-mean suggestion), parses and
  /// range-checks every value. Throws ConfigError.
  [[nodiscard]] Config resolve(const RawConfig& raw) const;

 private:
  std::vector<OptionSpec> options_;
};

/// Schema-validated configuration; getters cannot fail on values (they were
/// validated by Schema::resolve) but throw std::logic_error when asked for a
/// key the schema never declared or with the wrong typed getter.
class Config {
 public:
  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key) const;
  [[nodiscard]] long long get_int(const std::string& key) const;
  [[nodiscard]] std::size_t get_size(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] std::vector<std::size_t> get_size_list(const std::string& key) const;
  [[nodiscard]] std::vector<double> get_double_list(const std::string& key) const;

  /// True when the key was supplied explicitly (not filled from the default).
  [[nodiscard]] bool supplied(const std::string& key) const;

  /// The resolved textual value of every key, for echoing into run metadata.
  [[nodiscard]] const std::map<std::string, std::string>& values() const noexcept {
    return values_;
  }

 private:
  friend class Schema;
  [[nodiscard]] const std::string& checked(const std::string& key, OptionType type) const;

  std::map<std::string, std::string> values_;
  std::map<std::string, OptionType> types_;
  std::map<std::string, bool> supplied_;
};

/// The candidate nearest to `key` within edit distance 2 ("" if none; the
/// earliest on ties): the did-you-mean suggestion for unknown keys and flags.
[[nodiscard]] std::string closest_match(const std::string& key,
                                        const std::vector<std::string>& candidates);

/// Low-level typed parsers, shared with the sweep-axis grammar. Each throws
/// ConfigError(kBadValue) naming `key` when `text` does not fully parse.
[[nodiscard]] bool parse_bool(const std::string& text, const std::string& key);
[[nodiscard]] long long parse_int(const std::string& text, const std::string& key);
[[nodiscard]] double parse_double(const std::string& text, const std::string& key);
[[nodiscard]] std::vector<std::string> split_list(const std::string& text);

/// The engine counts that run, sweep (flag, config key or axis), validate and
/// reproduce read: a replication count is >= 1, and a thread count is >= 0, where 0
/// means one per hardware thread. Each throws ConfigError naming `key` when
/// `text` is not such a count.
[[nodiscard]] std::size_t parse_reps(const std::string& text, const std::string& key);
[[nodiscard]] unsigned parse_threads(const std::string& text, const std::string& key);

/// The seed that run, sweep, validate and reproduce read (`--seed`,
/// `mc.seed`): an integer from 1 to 2^64 - 1, so that any seed the metadata
/// prints can be passed back. Throws ConfigError naming `key` for anything else: 0, a
/// negative, an overflowing or a malformed value. Omitting the seed selects
/// the command's default.
[[nodiscard]] std::uint64_t parse_seed(const std::string& text, const std::string& key);

}  // namespace lbsim::cli
