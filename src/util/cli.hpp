#pragma once
/// \file
/// Tiny command-line flag parser behind the `lbsim` runner, which rejects any
/// flag a subcommand does not list (see flag_names()).
///
/// Accepted forms: `--key=value`, `--key value`, and bare `--flag` (boolean true).
/// Unknown positional arguments are collected in order.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lbsim::util {

/// Parsed command line. Copyable value type (CppCoreGuidelines C.10/C.11).
class CliArgs {
 public:
  CliArgs() = default;

  /// Parses argv; throws std::invalid_argument on malformed input (e.g. "--=x").
  CliArgs(int argc, const char* const* argv);

  /// True if `--key` was given in any form.
  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters: return `fallback` when the flag is absent; throw
  /// std::invalid_argument when present but unparsable or out of the value domain.
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& fallback) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Names of every `--flag` given, without the dashes, in sorted order.
  [[nodiscard]] std::vector<std::string> flag_names() const;

  /// Name of the executable (argv[0]) or empty when default-constructed.
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  [[nodiscard]] std::optional<std::string> raw(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace lbsim::util
