// The tQUAD tool end to end on small synthetic guest programs with exactly
// known memory traffic.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"

#include "profile_run.hpp"

namespace tq::tquad {
namespace {

using gasm::F;
using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

/// writer: stores 10 x 8B to a global buffer. reader: loads the same back.
/// stacker: does 5 x 8B stack stores. Each kernel's traffic is exact.
vm::Program make_traffic_program() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 128);

  auto& writer = prog.begin_function("writer");
  writer.movi(R{1}, static_cast<std::int64_t>(buf));
  writer.count_loop_imm(R{2}, 0, 10, [&] {
    writer.shli(R{3}, R{2}, 3);
    writer.add(R{3}, R{3}, R{1});
    writer.store(R{3}, 0, R{2}, 8);
  });
  writer.ret();

  auto& reader = prog.begin_function("reader");
  reader.movi(R{1}, static_cast<std::int64_t>(buf));
  reader.count_loop_imm(R{2}, 0, 10, [&] {
    reader.shli(R{3}, R{2}, 3);
    reader.add(R{3}, R{3}, R{1});
    reader.load(R{4}, R{3}, 0, 8);
  });
  reader.ret();

  auto& stacker = prog.begin_function("stacker");
  stacker.enter(64);
  stacker.count_loop_imm(R{2}, 0, 5, [&] {
    stacker.shli(R{3}, R{2}, 3);
    stacker.add(R{3}, R{3}, SP);
    stacker.store(R{3}, 0, R{2}, 8);
  });
  stacker.leave(64);
  stacker.ret();

  auto& main_fn = prog.begin_function("main");
  main_fn.call("writer");
  main_fn.call("reader");
  main_fn.call("stacker");
  main_fn.halt();
  return prog.build("main");
}

struct ToolRun {
  vm::Program program;
  vm::HostEnv host;
  std::unique_ptr<TQuadTool> tool;

  explicit ToolRun(vm::Program prog, Options options = {})
      : program(std::move(prog)) {
    tool = std::make_unique<TQuadTool>(program, options);
    testutil::profile_live(program, host, {tool.get()}, options.library_policy);
  }
};

TEST(TQuadTool, ExactByteAttributionPerKernel) {
  ToolRun run(make_traffic_program(), Options{.slice_interval = 1'000'000});
  const auto writer = *run.program.find("writer");
  const auto reader = *run.program.find("reader");
  const auto& bw_writer = run.tool->bandwidth().kernel(writer);
  const auto& bw_reader = run.tool->bandwidth().kernel(reader);
  // writer: 10 x 8B global stores; its ret pops 8B (a stack read).
  EXPECT_EQ(bw_writer.totals.write_excl, 80u);
  EXPECT_EQ(bw_writer.totals.write_incl, 80u);
  EXPECT_EQ(bw_writer.totals.read_incl, 8u);   // the ret
  EXPECT_EQ(bw_writer.totals.read_excl, 0u);   // ...which is stack
  // reader: 10 x 8B global loads + ret.
  EXPECT_EQ(bw_reader.totals.read_excl, 80u);
  EXPECT_EQ(bw_reader.totals.read_incl, 88u);
}

TEST(TQuadTool, StackClassificationSeparatesCounters) {
  ToolRun run(make_traffic_program(), Options{.slice_interval = 1'000'000});
  const auto stacker = *run.program.find("stacker");
  const auto& bw = run.tool->bandwidth().kernel(stacker);
  // 5 x 8B stores into the frame: stack-included only.
  EXPECT_EQ(bw.totals.write_incl, 40u);
  EXPECT_EQ(bw.totals.write_excl, 0u);
}

TEST(TQuadTool, CallPushAttributedToCaller) {
  ToolRun run(make_traffic_program(), Options{.slice_interval = 1'000'000});
  const auto main_id = *run.program.find("main");
  const auto& bw = run.tool->bandwidth().kernel(main_id);
  // main performs 3 calls: 3 x 8B return-address pushes (stack writes).
  EXPECT_EQ(bw.totals.write_incl, 24u);
  EXPECT_EQ(bw.totals.write_excl, 0u);
}

TEST(TQuadTool, ActivityAndFlatProfile) {
  ToolRun run(make_traffic_program(), Options{.slice_interval = 10});
  const auto writer = *run.program.find("writer");
  EXPECT_EQ(run.tool->activity(writer).calls, 1u);
  EXPECT_GT(run.tool->activity(writer).instructions, 30u);
  const auto rows = flat_profile(*run.tool);
  ASSERT_GE(rows.size(), 4u);
  double total = 0.0;
  for (const auto& row : rows) total += row.time_fraction;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // writer and reader do the same loop; their shares should be comparable.
  double writer_frac = 0, reader_frac = 0;
  for (const auto& row : rows) {
    if (row.name == "writer") writer_frac = row.time_fraction;
    if (row.name == "reader") reader_frac = row.time_fraction;
  }
  EXPECT_NEAR(writer_frac, reader_frac, 0.02);
}

TEST(TQuadTool, SliceIntervalControlsResolution) {
  ToolRun coarse(make_traffic_program(), Options{.slice_interval = 1'000'000});
  ToolRun fine(make_traffic_program(), Options{.slice_interval = 5});
  const auto writer = *coarse.program.find("writer");
  EXPECT_EQ(coarse.tool->bandwidth().kernel(writer).active_slices(), 1u);
  EXPECT_GT(fine.tool->bandwidth().kernel(writer).active_slices(), 5u);
  // Totals are invariant under the slice interval.
  EXPECT_EQ(coarse.tool->bandwidth().kernel(writer).totals.write_incl,
            fine.tool->bandwidth().kernel(writer).totals.write_incl);
}

vm::Program make_prefetch_program() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, static_cast<std::int64_t>(buf));
  main_fn.prefetch(R{1}, 0, 8);
  main_fn.load(R{2}, R{1}, 0, 8);
  main_fn.halt();
  return prog.build("main");
}

TEST(TQuadTool, PrefetchesAreSkippedByDefault) {
  ToolRun run(make_prefetch_program(), Options{.slice_interval = 100});
  const auto main_id = *run.program.find("main");
  EXPECT_EQ(run.tool->bandwidth().kernel(main_id).totals.read_incl, 8u)
      << "only the real load counts";
}

TEST(TQuadTool, PredicatedOffAccessesNotCounted) {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, static_cast<std::int64_t>(buf));
  main_fn.movi(R{2}, 0);  // predicate off
  main_fn.movi(R{3}, 1);  // predicate on
  main_fn.load(R{4}, R{1}, 0, 8);
  main_fn.predicate_last(R{2});
  main_fn.load(R{5}, R{1}, 0, 8);
  main_fn.predicate_last(R{3});
  main_fn.halt();
  ToolRun run(prog.build("main"), Options{.slice_interval = 100});
  const auto main_id = *run.program.find("main");
  EXPECT_EQ(run.tool->bandwidth().kernel(main_id).totals.read_incl, 8u);
}

TEST(TQuadTool, LibraryExclusionDropsLibraryTraffic) {
  auto build = [] {
    ProgramBuilder prog;
    const auto buf = prog.alloc_global("buf", 64);
    auto& lib = prog.begin_function("libwork", vm::ImageKind::kLibrary);
    lib.movi(R{1}, static_cast<std::int64_t>(buf));
    lib.count_loop_imm(R{2}, 0, 8, [&] {
      lib.shli(R{3}, R{2}, 3);
      lib.add(R{3}, R{3}, R{1});
      lib.store(R{3}, 0, R{2}, 8);
    });
    lib.ret();
    auto& main_fn = prog.begin_function("main");
    main_fn.call("libwork");
    main_fn.halt();
    return prog.build("main");
  };

  ToolRun excl(build(), Options{.library_policy = LibraryPolicy::kExclude});
  const auto lib_id = *excl.program.find("libwork");
  const auto main_id = *excl.program.find("main");
  EXPECT_FALSE(excl.tool->reported(lib_id));
  EXPECT_EQ(excl.tool->bandwidth().kernel(lib_id).totals.write_incl, 0u);
  EXPECT_EQ(excl.tool->bandwidth().kernel(main_id).totals.write_incl, 8u)
      << "main keeps only its own call push";
  EXPECT_GT(excl.tool->unattributed_instructions(), 0u);

  ToolRun caller(build(), Options{.library_policy = LibraryPolicy::kAttributeToCaller});
  EXPECT_EQ(caller.tool->bandwidth().kernel(*caller.program.find("main")).totals.write_incl,
            8u + 64u)
      << "library stores accrue to the caller";

  ToolRun track(build(), Options{.library_policy = LibraryPolicy::kTrack});
  EXPECT_EQ(track.tool->bandwidth().kernel(*track.program.find("libwork")).totals.write_incl,
            64u);
  EXPECT_TRUE(track.tool->reported(*track.program.find("libwork")));
}

TEST(TQuadTool, DenseSeriesMatchesSamples) {
  ToolRun run(make_traffic_program(), Options{.slice_interval = 20});
  const auto writer = *run.program.find("writer");
  const auto series = dense_series(*run.tool, writer, Metric::kWriteIncl);
  std::uint64_t sum = 0;
  for (double v : series) sum += static_cast<std::uint64_t>(v);
  EXPECT_EQ(sum, run.tool->bandwidth().kernel(writer).totals.write_incl);
}

TEST(TQuadTool, MismatchFreeCallStackOnRealProgram) {
  // The session's shared stack is the one the tool's attribution came from.
  const vm::Program program = make_traffic_program();
  vm::HostEnv host;
  session::ProfileSession session(program);
  TQuadTool tool(program, Options{});
  session.add_consumer(tool);
  session.run_live(host);
  const CallStack& stack = session.attribution().callstack();
  EXPECT_EQ(stack.mismatched_pops(), 0u);
  EXPECT_EQ(stack.depth(), 1u) << "main never returns (halts)";
}

}  // namespace
}  // namespace tq::tquad
