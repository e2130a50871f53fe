// Ablation: the time-slice interval (the tool's key knob, Section IV-C).
//
// "Time slice interval is a key parameter which adjusts the detailing degree
// of the extracted memory bandwidth usage information. With large time
// slices, we lose some information and a coarser view ... is obtained."
//
// The bench sweeps the interval across the paper's range (relative to run
// length) and reports, per setting: profiling runtime, number of recorded
// kernel-slice samples (the data volume), the activity resolution for a
// representative kernel, and how the measured peak bandwidth degrades as
// slices coarsen (peaks average out — the information loss the paper
// describes).
#include <chrono>
#include <cstdio>

#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("bench_ablation_slices: slice-interval information/cost sweep");
  cli.add_flag("tiny", false, "use the tiny test configuration");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();

  const std::uint64_t intervals[] = {1000,    5000,     25'000,    100'000,
                                     500'000, 2'500'000, 10'000'000};

  std::printf("== ablation: time slice interval ==\n\n");
  TextTable table({"slice interval", "runtime (s)", "samples", "setFrames act.slices",
                   "setFrames max B/i", "fft1d max B/i"});
  for (const std::uint64_t interval : intervals) {
    wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
    session::ProfileSession session(run.artifacts.program);
    tquad::TQuadTool tool(run.artifacts.program,
                          tquad::Options{.slice_interval = interval});
    session.add_consumer(tool);
    const auto t0 = std::chrono::steady_clock::now();
    session.run_live(run.host);
    const auto t1 = std::chrono::steady_clock::now();
    const double seconds = std::chrono::duration<double>(t1 - t0).count();

    std::uint64_t samples = 0;
    for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
      samples += tool.bandwidth().kernel(k).series.size();
    }
    const auto set_id = *run.artifacts.program.find("AudioIo_setFrames");
    const auto fft_id = *run.artifacts.program.find("fft1d");
    const auto set_stats =
        tquad::bandwidth_stats(tool.bandwidth().kernel(set_id), interval);
    const auto fft_stats =
        tquad::bandwidth_stats(tool.bandwidth().kernel(fft_id), interval);
    table.add_row({format_count(interval), format_fixed(seconds, 3),
                   format_count(samples), format_count(set_stats.activity_span),
                   format_fixed(set_stats.max_rw_incl, 3),
                   format_fixed(fft_stats.max_rw_incl, 3)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf(
      "\nreading: finer slices record more samples and resolve the true peak\n"
      "bandwidth of bursty kernels (AudioIo_setFrames); at coarse slices the\n"
      "peak averages away against neighbouring computation — the information\n"
      "loss the paper describes. Runtime is nearly interval-independent: the\n"
      "per-access work dominates, slice rollover is cheap.\n");
  return 0;
}
