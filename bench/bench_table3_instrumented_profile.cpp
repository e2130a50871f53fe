// Table III reproduction: flat profile of the QUAD-instrumented application.
//
// The paper runs gprof on the Pin+QUAD+hArtes-wfs process: kernels that hit
// global memory pay the full analysis routine on every access, so their
// contribution balloons (AudioIo_setFrames 4% -> 11.2%, trend up-up) while
// stack-local kernels collapse (bitrev 8.2% -> 0.4%, down-down). We model
// the same measurement with QuadTool's cost model over the per-kernel access
// mix, then rank and classify trends against the baseline profile.
#include <cstdio>
#include <map>

#include "gprofsim/gprof_tool.hpp"
#include "quad/instrumented_profile.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "wfs/runner.hpp"

#include "paper_reference.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli(
      "bench_table3_instrumented_profile: regenerate the paper's Table III");
  cli.add_flag("tiny", false, "use the tiny test configuration");
  cli.add_int("stub_cost", 3, "cost units per intercepted memory access");
  cli.add_int("trace_cost", 12, "cost units per traced (global) access");
  cli.add_int("byte_cost", 2, "cost units per traced byte");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }

  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();

  // One run feeds the baseline profile (Table I basis, uninstrumented cost)
  // and QUAD (the access mix).
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  gprof::GprofTool base_tool(run.artifacts.program, {});
  quad::QuadTool quad_tool(run.artifacts.program);
  session.add_consumer(base_tool);
  session.add_consumer(quad_tool);
  session.run_live(run.host);

  quad::CostModel model;
  model.per_memory_stub = static_cast<std::uint64_t>(cli.integer("stub_cost"));
  model.per_global_trace = static_cast<std::uint64_t>(cli.integer("trace_cost"));
  model.per_global_byte = static_cast<std::uint64_t>(cli.integer("byte_cost"));

  // The paper's Table III covers its Table I top-ten kernels; use the same
  // kernel list with our measured baseline shares.
  std::vector<quad::BaseShare> base;
  const std::vector<gprof::FlatRow> base_rows = base_tool.flat_profile();
  for (const auto& paper_row : bench::paper_table3()) {
    for (const auto& row : base_rows) {
      if (row.name == paper_row.kernel) {
        base.push_back(quad::BaseShare{row.kernel, row.time_fraction});
        break;
      }
    }
  }
  const auto rows = quad::instrumented_profile(quad_tool, base, model);

  std::map<std::string, const bench::PaperInstrumentedRow*> paper;
  for (const auto& row : bench::paper_table3()) paper[row.kernel] = &row;

  TextTable table({"kernel", "base %", "instr %", "rank", "trend", "paper %",
                   "paper rank", "paper trend"});
  for (const auto& row : rows) {
    const auto it = paper.find(row.name);
    table.add_row({row.name, format_percent(row.base_fraction),
                   format_percent(row.instrumented_fraction),
                   std::to_string(row.rank), quad::trend_arrow(row.trend),
                   it == paper.end() ? "-" : format_fixed(it->second->percent_time, 2),
                   it == paper.end() ? "-" : std::to_string(it->second->rank),
                   it == paper.end() ? "-" : it->second->trend});
  }

  std::printf("== Table III: flat profile of the QUAD-instrumented run ==\n");
  std::printf("cost model: %llu/instr + %llu/mem-stub + %llu/global-trace + "
              "%llu/global-byte\n\n",
              static_cast<unsigned long long>(model.per_instruction),
              static_cast<unsigned long long>(model.per_memory_stub),
              static_cast<unsigned long long>(model.per_global_trace),
              static_cast<unsigned long long>(model.per_global_byte));
  std::fputs(table.to_ascii().c_str(), stdout);

  // Shape checks the paper highlights.
  auto find_row = [&](const char* name) -> const quad::InstrumentedRow* {
    for (const auto& row : rows) {
      if (row.name == name) return &row;
    }
    return nullptr;
  };
  std::printf("\nshape checks:\n");
  if (const auto* set_frames = find_row("AudioIo_setFrames")) {
    std::printf("  AudioIo_setFrames trend: %s (paper: ↑↑, 4%% -> 11.2%%)\n",
                quad::trend_arrow(set_frames->trend));
  }
  if (const auto* bitrev = find_row("bitrev")) {
    std::printf("  bitrev trend: %s (paper: ↓↓, 8.2%% -> 0.4%%)\n",
                quad::trend_arrow(bitrev->trend));
  }
  if (const auto* store = find_row("wav_store")) {
    std::printf("  wav_store stays rank %u (paper: rank 1, ↔)\n", store->rank);
  }
  return 0;
}
