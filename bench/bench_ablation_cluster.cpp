// Ablation: the task-clustering objective (the paper's future-work step).
//
// Sweeps the target cluster count and the resource cap over the wfs QUAD
// communication graph and reports the achieved cut (intra- vs inter-cluster
// bytes). The curve quantifies the partitioning tradeoff the DWB flow faces:
// fewer clusters keep more communication on-chip but concentrate more of
// the run in one task; resource caps push the cut the other way.
#include <cstdio>

#include "cluster/cluster.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "wfs/runner.hpp"

int main(int argc, char** argv) {
  using namespace tq;
  CliParser cli("bench_ablation_cluster: clustering objective sweep");
  cli.add_flag("tiny", false, "use the tiny test configuration");
  try {
    cli.parse(argc, argv);
  } catch (const Error& err) {
    std::fprintf(stderr, "%s\n", err.what());
    return 1;
  }
  const wfs::WfsConfig cfg =
      cli.flag("tiny") ? wfs::WfsConfig::tiny() : wfs::WfsConfig::standard();
  wfs::WfsRun run = wfs::prepare_wfs_run(cfg);
  session::ProfileSession session(run.artifacts.program);
  quad::QuadTool tool(run.artifacts.program);
  session.add_consumer(tool);
  session.run_live(run.host);

  std::uint64_t run_instr = 0;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    run_instr += tool.instructions(k);
  }

  std::printf("== ablation: target cluster count (no resource cap) ==\n\n");
  TextTable by_count({"target clusters", "clusters formed", "intra bytes",
                      "inter bytes", "intra %"});
  for (std::size_t target : {12, 8, 6, 5, 4, 3, 2, 1}) {
    cluster::ClusterOptions options;
    options.target_clusters = target;
    const auto result = cluster::cluster_kernels(tool, options);
    by_count.add_row({std::to_string(target), std::to_string(result.clusters.size()),
                      format_count(result.intra_bytes),
                      format_count(result.inter_bytes),
                      format_percent(result.intra_fraction())});
  }
  std::fputs(by_count.to_ascii().c_str(), stdout);

  std::printf("\n== ablation: resource cap (target 5 clusters) ==\n\n");
  TextTable by_cap({"cap (% of run)", "clusters formed", "largest cluster (%)",
                    "intra %"});
  for (int cap_percent : {100, 60, 40, 25, 15}) {
    cluster::ClusterOptions options;
    options.target_clusters = 5;
    options.max_cluster_weight =
        cap_percent == 100 ? 0 : run_instr * static_cast<std::uint64_t>(cap_percent) / 100;
    const auto result = cluster::cluster_kernels(tool, options);
    std::uint64_t largest = 0;
    for (const auto& members : result.clusters) {
      std::uint64_t weight = 0;
      for (std::uint32_t k : members) weight += tool.instructions(k);
      largest = std::max(largest, weight);
    }
    by_cap.add_row(
        {std::to_string(cap_percent), std::to_string(result.clusters.size()),
         format_percent(static_cast<double>(largest) / static_cast<double>(run_instr)),
         format_percent(result.intra_fraction())});
  }
  std::fputs(by_cap.to_ascii().c_str(), stdout);
  std::printf(
      "\nreading: merging is monotone — inter-cluster bytes only fall as the\n"
      "target count drops; the resource cap trades cut quality for balanced\n"
      "tasks, exactly the tension the DWB mapper has to resolve.\n");
  return 0;
}
