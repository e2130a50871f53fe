// Phase identification on synthetic kernel activity patterns.
//
// Each staged workload interleaves its kernels finely (many short calls per
// stage, like the per-chunk loop of the wfs application), with time slices
// spanning several interleave rounds so that co-active kernels share slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "gasm/builder.hpp"
#include "tquad/phase.hpp"
#include "tquad/tquad_tool.hpp"

#include "profile_run.hpp"

namespace tq::tquad {
namespace {

using gasm::ProgramBuilder;
using gasm::R;

constexpr std::uint64_t kSlice = 2000;
constexpr std::int64_t kIters = 40;   // iterations per kernel call
constexpr int kRounds = 40;           // interleave rounds per stage

/// Per phase, the kernels that should be co-active.
struct StageSpec {
  std::vector<std::string> kernels;
};

vm::Program make_staged_program(const std::vector<StageSpec>& stages) {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 4096);
  for (const auto& stage : stages) {
    for (const auto& name : stage.kernels) {
      auto& f = prog.begin_function(name);
      f.movi(R{1}, static_cast<std::int64_t>(buf));
      f.count_loop_imm(R{2}, 0, kIters, [&] {
        f.andi(R{3}, R{2}, 511);
        f.shli(R{3}, R{3}, 3);
        f.add(R{3}, R{3}, R{1});
        f.store(R{3}, 0, R{2}, 8);
      });
      f.ret();
    }
  }
  auto& main_fn = prog.begin_function("main");
  for (const auto& stage : stages) {
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& name : stage.kernels) main_fn.call(name);
    }
  }
  main_fn.halt();
  return prog.build("main");
}

struct PhaseRun {
  vm::Program program;
  vm::HostEnv host;
  std::unique_ptr<TQuadTool> tool;

  explicit PhaseRun(vm::Program prog, std::uint64_t slice = kSlice)
      : program(std::move(prog)) {
    tool = std::make_unique<TQuadTool>(program, Options{.slice_interval = slice});
    testutil::profile_live(program, host, {tool.get()});
  }
};

std::vector<std::string> phase_kernels(const TQuadTool& tool, const Phase& phase) {
  std::vector<std::string> names;
  for (auto k : phase.kernels) names.push_back(tool.kernel_name(k));
  return names;
}

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(PhaseDetect, TwoDisjointPhases) {
  PhaseRun run(make_staged_program({
      StageSpec{{"early_a", "early_b"}},
      StageSpec{{"late_a", "late_b"}},
  }));
  const auto phases = detect_phases(*run.tool);
  ASSERT_GE(phases.size(), 2u);
  const auto first = phase_kernels(*run.tool, phases.front());
  const auto last = phase_kernels(*run.tool, phases.back());
  EXPECT_TRUE(contains(first, "early_a"));
  EXPECT_TRUE(contains(first, "early_b"));
  EXPECT_FALSE(contains(first, "late_a"));
  EXPECT_TRUE(contains(last, "late_a"));
  EXPECT_TRUE(contains(last, "late_b"));
  EXPECT_FALSE(contains(last, "early_a"));
}

TEST(PhaseDetect, ThreePhaseStructureOrdered) {
  PhaseRun run(make_staged_program({
      StageSpec{{"p1"}},
      StageSpec{{"p2_a", "p2_b"}},
      StageSpec{{"p3"}},
  }));
  const auto phases = detect_phases(*run.tool);
  ASSERT_GE(phases.size(), 3u);
  for (std::size_t i = 1; i < phases.size(); ++i) {
    EXPECT_LE(phases[i - 1].segment_begin, phases[i].segment_begin);
  }
  std::size_t p1_phase = 99, p3_phase = 99;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    for (const auto& name : phase_kernels(*run.tool, phases[i])) {
      if (name == "p1") p1_phase = i;
      if (name == "p3") p3_phase = i;
    }
  }
  EXPECT_LT(p1_phase, p3_phase);
}

TEST(PhaseDetect, SingleUniformPhase) {
  PhaseRun run(make_staged_program({
      StageSpec{{"only_a", "only_b"}},
  }));
  const auto phases = detect_phases(*run.tool);
  ASSERT_GE(phases.size(), 1u);
  const auto names = phase_kernels(*run.tool, phases.front());
  EXPECT_TRUE(contains(names, "only_a"));
  EXPECT_TRUE(contains(names, "only_b"));
}

TEST(PhaseDetect, EveryActiveKernelAssignedExactlyOnce) {
  PhaseRun run(make_staged_program({
      StageSpec{{"k1", "k2"}},
      StageSpec{{"k3", "k4"}},
  }));
  const auto phases = detect_phases(*run.tool);
  std::map<std::uint32_t, int> seen;
  for (const auto& phase : phases) {
    for (auto k : phase.kernels) ++seen[k];
  }
  for (const auto& [kernel, count] : seen) {
    EXPECT_EQ(count, 1) << run.tool->kernel_name(kernel);
  }
  for (std::uint32_t k = 0; k < run.tool->kernel_count(); ++k) {
    if (run.tool->reported(k) &&
        run.tool->bandwidth().kernel(k).active_slices() > 0) {
      EXPECT_TRUE(seen.contains(k)) << run.tool->kernel_name(k);
    }
  }
}

TEST(PhaseDetect, SpanFractionsAreSane) {
  PhaseRun run(make_staged_program({
      StageSpec{{"a"}},
      StageSpec{{"b"}},
  }));
  const auto phases = detect_phases(*run.tool);
  for (const auto& phase : phases) {
    EXPECT_GT(phase.span_fraction, 0.0);
    EXPECT_LE(phase.span_fraction, 1.0);
    EXPECT_LE(phase.span_begin, phase.span_end);
  }
}

TEST(PhaseDetect, DescribePhasesMentionsKernels) {
  PhaseRun run(make_staged_program({
      StageSpec{{"alpha"}},
      StageSpec{{"omega"}},
  }));
  const auto phases = detect_phases(*run.tool);
  const std::string text = describe_phases(*run.tool, phases);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("omega"), std::string::npos);
  EXPECT_NE(text.find("phase 1"), std::string::npos);
}

TEST(CoreSpan, TrimsOutlierBlips) {
  // A kernel active in slices 100..199, plus one blip at slice 3.
  BandwidthRecorder rec(1, 10);
  rec.on_access(0, 35, 8, true, false);  // slice 3 blip
  for (std::uint64_t s = 100; s < 200; ++s) {
    rec.on_access(0, s * 10 + 5, 8, true, false);
  }
  rec.finish();
  const CoreSpan trimmed = core_span(rec.kernel(0), 0.02);
  EXPECT_GE(trimmed.begin, 100u) << "the slice-3 blip must be trimmed";
  EXPECT_LE(trimmed.end, 199u);
  const CoreSpan untrimmed = core_span(rec.kernel(0), 0.0);
  EXPECT_EQ(untrimmed.begin, 3u);
}

TEST(CoreSpan, EmptyKernel) {
  BandwidthRecorder rec(1, 10);
  rec.finish();
  const CoreSpan span = core_span(rec.kernel(0), 0.02);
  EXPECT_EQ(span.active_slices, 0u);
}

TEST(PhaseDetect, NoActivityYieldsNoPhases) {
  ProgramBuilder prog;
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, 1);
  main_fn.halt();
  PhaseRun run(prog.build("main"), 10);
  const auto phases = detect_phases(*run.tool);
  EXPECT_TRUE(phases.empty());
}

}  // namespace
}  // namespace tq::tquad
