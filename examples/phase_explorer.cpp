// Interactive exploration of the slice-interval / phase-detection tradeoff
// (Section IV-C: "Time slice interval is a key parameter which adjusts the
// detailing degree of the extracted memory bandwidth usage information").
//
// Runs tQUAD at several slice intervals over the same workload and shows how
// the activity picture sharpens: at coarse slices, briefly-active kernels
// smear into their neighbours and phases blur together; at fine slices the
// five-phase structure emerges.
//
//   ./build/examples/phase_explorer              # wfs tiny workload
//   ./build/examples/phase_explorer -standard    # full workload
#include <cstdio>

#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("phase_explorer: slice-interval sweep for phase detection");
  cli.add_flag("standard", false, "use the standard (larger) workload");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const wfs::WfsConfig cfg =
      cli.flag("standard") ? wfs::WfsConfig::standard() : wfs::WfsConfig::tiny();

  const std::uint64_t intervals[] = {500, 5'000, 50'000, 500'000};
  for (const std::uint64_t interval : intervals) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    session::ProfileSession session(run.artifacts.program);
    tquad::TQuadTool tool(run.artifacts.program,
                          tquad::Options{.slice_interval = interval});
    session.add_consumer(tool);
    session.run_live(run.host);
    const auto phases = tquad::detect_phases(tool);
    std::printf("== slice interval %s: %llu slices, %zu phases ==\n",
                format_count(interval).c_str(),
                static_cast<unsigned long long>(tool.bandwidth().max_slice() + 1),
                phases.size());
    std::fputs(tquad::describe_phases(tool, phases).c_str(), stdout);

    // Activity resolution for a representative brief kernel.
    const auto gain_id = *run.artifacts.program.find("calculateGainPQ");
    const auto stats =
        tquad::bandwidth_stats(tool.bandwidth().kernel(gain_id), interval);
    std::printf("calculateGainPQ: active %llu slices, span %llu-%llu, peak %.3f "
                "B/instr\n\n",
                static_cast<unsigned long long>(stats.activity_span),
                static_cast<unsigned long long>(stats.first_slice),
                static_cast<unsigned long long>(stats.last_slice),
                stats.max_rw_incl);
  }
  std::printf("reading: the phase count stabilises once slices resolve the\n"
              "application's chunk period; beyond that, finer slices only add\n"
              "sample volume (see bench_ablation_slices for the cost side).\n");
  return 0;
}
