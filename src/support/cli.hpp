// Minimal command-line parser for the example/bench drivers.
//
// Mirrors the knob style of Pin tools (`-slice 5000 -ignore_stack ...`):
// options are declared up front with defaults and help text, then parsed
// from argv. Unknown options raise tq::UsageError with a usage string.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tq {

/// Declarative argv parser. Declare options, call parse(), then query.
class CliParser {
 public:
  explicit CliParser(std::string program_description)
      : description_(std::move(program_description)) {}

  /// Declare options. `name` is used as `-name value` (or `-name` for bools,
  /// which toggle to true). Declaring twice is an invariant violation.
  void add_flag(const std::string& name, bool default_value, const std::string& help);
  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);

  /// Parse argv (argv[0] is skipped). Throws tq::UsageError on an unknown
  /// option and tq::Error on an ill-typed or missing value. Non-option
  /// arguments are collected into positional().
  void parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  const std::string& str(const std::string& name) const;
  double real(const std::string& name) const;
  const std::vector<std::string>& positional() const noexcept { return positional_; }

  /// Render a usage/help string listing every declared option.
  std::string help() const;

 private:
  enum class Kind { kFlag, kInt, kString, kDouble };
  struct Option {
    Kind kind = Kind::kFlag;
    std::string help;
    bool flag_value = false;
    std::int64_t int_value = 0;
    std::string string_value;
    double double_value = 0.0;
  };

  const Option& find(const std::string& name, Kind kind) const;

  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;
};

}  // namespace tq
