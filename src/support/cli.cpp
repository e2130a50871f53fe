#include "support/cli.hpp"

#include <charconv>
#include <sstream>

#include "support/check.hpp"

namespace tq {

void CliParser::add_flag(const std::string& name, bool default_value,
                         const std::string& help) {
  TQUAD_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.kind = Kind::kFlag;
  opt.help = help;
  opt.flag_value = default_value;
  options_.emplace(name, std::move(opt));
}

void CliParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help) {
  TQUAD_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.kind = Kind::kInt;
  opt.help = help;
  opt.int_value = default_value;
  options_.emplace(name, std::move(opt));
}

void CliParser::add_string(const std::string& name, const std::string& default_value,
                           const std::string& help) {
  TQUAD_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.kind = Kind::kString;
  opt.help = help;
  opt.string_value = default_value;
  options_.emplace(name, std::move(opt));
}

void CliParser::add_double(const std::string& name, double default_value,
                           const std::string& help) {
  TQUAD_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.kind = Kind::kDouble;
  opt.help = help;
  opt.double_value = default_value;
  options_.emplace(name, std::move(opt));
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      positional_.push_back(std::move(arg));
      continue;
    }
    // Accept both -name and --name.
    std::string name = arg.substr(arg.starts_with("--") ? 2 : 1);
    std::string inline_value;
    bool has_inline = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw UsageError("unknown option '" + arg + "'\n" + help());
    }
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag && !has_inline) {
      opt.flag_value = true;
      continue;
    }
    std::string value;
    if (has_inline) {
      value = inline_value;
    } else {
      if (i + 1 >= argc) TQUAD_THROW("option '" + name + "' expects a value");
      value = argv[++i];
    }
    switch (opt.kind) {
      case Kind::kFlag:
        opt.flag_value = (value == "1" || value == "true" || value == "yes");
        break;
      case Kind::kInt: {
        std::int64_t parsed = 0;
        auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
        if (ec != std::errc() || ptr != value.data() + value.size()) {
          TQUAD_THROW("option '" + name + "' expects an integer, got '" + value + "'");
        }
        opt.int_value = parsed;
        break;
      }
      case Kind::kDouble: {
        try {
          std::size_t pos = 0;
          opt.double_value = std::stod(value, &pos);
          if (pos != value.size()) throw std::invalid_argument(value);
        } catch (const std::exception&) {
          TQUAD_THROW("option '" + name + "' expects a number, got '" + value + "'");
        }
        break;
      }
      case Kind::kString:
        opt.string_value = value;
        break;
    }
  }
}

const CliParser::Option& CliParser::find(const std::string& name, Kind kind) const {
  auto it = options_.find(name);
  TQUAD_CHECK(it != options_.end(), "undeclared option queried: " + name);
  TQUAD_CHECK(it->second.kind == kind, "option queried with wrong type: " + name);
  return it->second;
}

bool CliParser::flag(const std::string& name) const {
  return find(name, Kind::kFlag).flag_value;
}

std::int64_t CliParser::integer(const std::string& name) const {
  return find(name, Kind::kInt).int_value;
}

const std::string& CliParser::str(const std::string& name) const {
  return find(name, Kind::kString).string_value;
}

double CliParser::real(const std::string& name) const {
  return find(name, Kind::kDouble).double_value;
}

std::string CliParser::help() const {
  std::ostringstream out;
  out << description_ << "\noptions:\n";
  for (const auto& [name, opt] : options_) {
    out << "  -" << name;
    switch (opt.kind) {
      case Kind::kFlag:
        out << " (flag, default " << (opt.flag_value ? "on" : "off") << ")";
        break;
      case Kind::kInt:
        out << " <int, default " << opt.int_value << ">";
        break;
      case Kind::kDouble:
        out << " <number, default " << opt.double_value << ">";
        break;
      case Kind::kString:
        out << " <string, default '" << opt.string_value << "'>";
        break;
    }
    out << "\n      " << opt.help << "\n";
  }
  return out.str();
}

}  // namespace tq
