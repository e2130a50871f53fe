// asm_run: assemble a guest .s file and execute it, optionally under tQUAD —
// the complete edit/assemble/profile loop for hand-written guest programs.
//
//   asm_run program.s                       # just run it
//   asm_run program.s -profile -slice 1000  # run under tQUAD
//   asm_run program.s -in data.bin -image out.tqim
//
// Input files attach as guest descriptors in order; one output descriptor is
// appended; kPrintI64/kPrintF64 syscall output is echoed.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "gasm/asm_parser.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/machine.hpp"

namespace {

using namespace tq;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) TQUAD_THROW("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) TQUAD_THROW("cannot open '" + path + "'");
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) TQUAD_THROW("cannot write '" + path + "'");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("asm_run: assemble and execute a guest .s file");
  cli.add_string("in", "", "input file to attach as a guest descriptor");
  cli.add_string("image", "", "also write the assembled TQIM image here");
  cli.add_string("out", "", "write the guest output descriptor here");
  cli.add_flag("profile", false, "run under tQUAD and print the reports");
  cli.add_int("slice", 1000, "tQUAD slice interval");
  cli.add_int("budget", 1'000'000'000, "stop after this many instructions");
  try {
    cli.parse(argc, argv);
    if (cli.positional().size() != 1) {
      std::fprintf(stderr, "usage: asm_run <program.s> [options]\n%s",
                   cli.help().c_str());
      return 2;
    }
    const vm::Program program = gasm::assemble(read_text(cli.positional()[0]));
    if (!cli.str("image").empty()) {
      write_bytes(cli.str("image"), program.serialize());
    }
    vm::HostEnv host;
    if (!cli.str("in").empty()) host.attach_input(read_bytes(cli.str("in")));
    const int out_fd = host.create_output();

    // A guest trap is still a finished (partial) run: the reports, guest
    // log, and -out contents up to the fault are emitted, and the exit code
    // (3) tells scripts the run did not complete.
    vm::RunOutcome result;
    if (cli.flag("profile")) {
      session::SessionConfig config;
      config.instruction_budget = static_cast<std::uint64_t>(cli.integer("budget"));
      session::ProfileSession profile(program, config);
      tquad::TQuadTool tool(
          program, tquad::Options{.slice_interval =
                                      static_cast<std::uint64_t>(cli.integer("slice"))});
      profile.add_consumer(tool);
      result = profile.run_live(host);
      if (!result.complete()) {
        std::fprintf(stderr, "asm_run: %s\n", result.summary().c_str());
      }
      std::printf("retired %s instructions\n\n", format_count(result.retired).c_str());
      std::fputs(tquad::flat_profile_table(tool).to_ascii().c_str(), stdout);
      const auto phases = tquad::detect_phases(tool);
      if (!phases.empty()) {
        std::printf("\n%s", tquad::describe_phases(tool, phases).c_str());
      }
    } else {
      vm::Machine machine(program, host);
      machine.set_instruction_budget(static_cast<std::uint64_t>(cli.integer("budget")));
      result = machine.run();
      if (!result.complete()) {
        std::fprintf(stderr, "asm_run: %s\n", result.summary().c_str());
      }
      std::printf("retired %s instructions\n", format_count(result.retired).c_str());
    }
    for (const std::string& line : host.log()) {
      std::printf("guest: %s\n", line.c_str());
    }
    if (!cli.str("out").empty()) {
      write_bytes(cli.str("out"), host.output(out_fd));
    }
    return result.status == vm::RunStatus::kTrapped ? 3 : 0;
  } catch (const Error& err) {
    std::fprintf(stderr, "asm_run: %s\n", err.what());
    return 1;
  }
}
