// Figure 6 reproduction: memory bandwidth usage of the top-ten kernels,
// read accesses, stack area included, coarse time slices.
//
// The paper plots a 3D ribbon chart (x = time slice, z = kernel, y = bytes
// read per slice) at a slice interval of 1e8 instructions (64 slices for the
// whole run). We render the same data as per-kernel heat strips over a
// proportionally coarse slice: the run divided into ~64 slices.
//
// Expected shape: wav_store silent through the first half of the run and the
// only active kernel in the second half; the processing kernels dense in the
// first half.
#include <cstdio>
#include <fstream>

#include "session/session.hpp"
#include "support/ascii_chart.hpp"
#include "support/cli.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/machine.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("bench_fig6_read_bandwidth: regenerate the paper's Figure 6");
  cli.add_int("slices", 64, "number of coarse time slices across the run (paper: 64)");
  cli.add_flag("tiny", false, "use the tiny test configuration");
  cli.add_string("csv", "", "write the per-slice series (long format) to this path");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }

  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();

  // Pre-measure the run length to derive the coarse interval, then profile.
  wfs::WfsRun probe = wfs::prepare_wfs_run(cfg);
  vm::Machine probe_machine(probe.artifacts.program, probe.host);
  const std::uint64_t total = probe_machine.run().retired;
  const std::uint64_t interval = std::max<std::uint64_t>(
      1, total / static_cast<std::uint64_t>(cli.integer("slices")));

  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  tquad::TQuadTool tool(run.artifacts.program,
                        tquad::Options{.slice_interval = interval});
  session.add_consumer(tool);
  session.run_live(run.host);

  // Top ten kernels of Table I (the figure plots these).
  const char* kTopTen[] = {
      "wav_store", "fft1d",     "DelayLine_processChunk", "bitrev",
      "zeroRealVec", "AudioIo_setFrames", "perm", "cadd", "cmult",
      "Filter_process",
  };

  std::printf("== Figure 6: read bandwidth per slice, stack included ==\n");
  std::printf("slice interval %s instructions (%llu slices across the run)\n\n",
              format_count(interval).c_str(),
              static_cast<unsigned long long>(tool.bandwidth().max_slice() + 1));

  std::vector<ChartSeries> series;
  for (const char* name : kTopTen) {
    const auto id = *run.artifacts.program.find(name);
    series.push_back(
        ChartSeries{name, tquad::dense_series(tool, id, tquad::Metric::kReadIncl)});
  }
  ChartOptions options;
  options.width = 96;
  std::fputs(render_heat_strips(series, options).c_str(), stdout);

  if (!cli.str("csv").empty()) {
    std::ofstream csv(cli.str("csv"));
    csv << "kernel,slice,bytes\n";
    for (const auto& s : series) {
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        if (s.values[i] > 0) {
          csv << s.name << ',' << i << ',' << s.values[i] << '\n';
        }
      }
    }
    std::printf("\nseries written to %s\n", cli.str("csv").c_str());
  }

  // Shape checks: wav_store is silent until the processing loop completes and
  // is then the only active kernel.
  const auto store_id = *run.artifacts.program.find("wav_store");
  const auto& store_bw = tool.bandwidth().kernel(store_id);
  const std::uint64_t store_start = store_bw.first_active_slice();
  const auto store = tquad::dense_series(tool, store_id, tquad::Metric::kReadIncl);
  double before = 0, after = 0;
  for (std::size_t i = 0; i < store.size(); ++i) {
    (i < store_start ? before : after) += store[i];
  }
  double others_after = 0;
  for (std::size_t s = 1; s < series.size(); ++s) {
    for (std::size_t i = store_start; i < series[s].values.size(); ++i) {
      others_after += series[s].values[i];
    }
  }
  std::printf("\nshape checks:\n");
  std::printf("  wav_store first active in slice %llu of %zu (%.0f%% into the run; "
              "paper: ~middle)\n",
              static_cast<unsigned long long>(store_start), store.size(),
              100.0 * static_cast<double>(store_start) /
                  static_cast<double>(store.size()));
  std::printf("  wav_store read bytes before/after that point: %s / %s\n",
              format_bytes(static_cast<std::uint64_t>(before)).c_str(),
              format_bytes(static_cast<std::uint64_t>(after)).c_str());
  std::printf("  all other top kernels after that point: %s (paper: ~0 — wav_store "
              "is the only kernel active)\n",
              format_bytes(static_cast<std::uint64_t>(others_after)).c_str());
  return 0;
}
