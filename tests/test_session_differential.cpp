// Differential sweep for the single-pass ProfileSession: for every workload
// in the zoo registry (all memory shapes, wfs included), running tQUAD +
// QUAD + gprofsim + the trace recorder together in ONE session must be
// bit-identical to running each of them alone in its own session (the
// paper's four separate runs). Consumers must not interfere: the shared
// KernelAttribution pass delivers each one the same stream whatever else is
// attached. (test_workload_zoo verifies every guest's computed answer.)
#include <gtest/gtest.h>

#include <string>

#include "gprofsim/gprof_tool.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"
#include "workloads/registry.hpp"

#include "profile_run.hpp"
#include "session_tool_compare.hpp"

namespace tq::session {
namespace {

constexpr std::uint64_t kSlice = 1000;
constexpr std::uint64_t kSamplePeriod = 700;

/// Five hosts: four single-tool sessions (one per tool, the paper's
/// workflow) and one session feeding all four at once.
void check_program(const vm::Program& program, vm::HostEnv* (&hosts)[5],
                   tquad::LibraryPolicy policy) {
  const tquad::Options tquad_options{.slice_interval = kSlice,
                                     .library_policy = policy};
  const quad::QuadOptions quad_options{policy};
  gprof::Options gprof_options;
  gprof_options.sample_period = kSamplePeriod;
  gprof_options.library_policy = policy;
  const auto format = trace::TraceFormat::kV2;

  // Alone: one dedicated session per tool.
  tquad::TQuadTool tquad_alone(program, tquad_options);
  testutil::profile_live(program, *hosts[0], {&tquad_alone}, policy);
  quad::QuadTool quad_alone(program, quad_options);
  testutil::profile_live(program, *hosts[1], {&quad_alone}, policy);
  gprof::GprofTool gprof_alone(program, gprof_options);
  testutil::profile_live(program, *hosts[2], {&gprof_alone}, policy);
  trace::TraceRecorder recorder_alone(program, policy, format);
  testutil::profile_live(program, *hosts[3], {&recorder_alone}, policy);

  // Together: all four tools share one execution and one attribution pass.
  tquad::TQuadTool tquad_shared(program, tquad_options);
  quad::QuadTool quad_shared(program, quad_options);
  gprof::GprofTool gprof_shared(program, gprof_options);
  trace::TraceRecorder recorder_shared(program, policy, format);
  testutil::profile_live(
      program, *hosts[4],
      {&tquad_shared, &quad_shared, &gprof_shared, &recorder_shared}, policy);

  testutil::expect_tquad_equal(tquad_alone, tquad_shared);
  testutil::expect_quad_equal(quad_alone, quad_shared);
  testutil::expect_gprof_equal(gprof_alone, gprof_shared);
  EXPECT_EQ(recorder_alone.take_encoded(), recorder_shared.take_encoded());
}

/// One test per registered workload: every memory shape in the zoo gets the
/// shared-equals-alone contract.
class SessionDifferentialZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionDifferentialZoo, SharedEqualsAlone) {
  const workloads::Entry& entry = workloads::find_workload(GetParam());
  workloads::Instance runs[5] = {entry.build(), entry.build(), entry.build(),
                                 entry.build(), entry.build()};
  // Registry builds are deterministic: every run profiles the same bytes.
  const auto image = runs[0].program.serialize();
  for (int i = 1; i < 5; ++i) {
    ASSERT_EQ(image, runs[i].program.serialize()) << entry.name;
  }
  vm::HostEnv* hosts[5] = {&runs[0].host, &runs[1].host, &runs[2].host,
                           &runs[3].host, &runs[4].host};
  check_program(runs[0].program, hosts, tquad::LibraryPolicy::kExclude);
}

INSTANTIATE_TEST_SUITE_P(Zoo, SessionDifferentialZoo,
                         ::testing::ValuesIn(workloads::workload_names()),
                         [](const auto& info) { return info.param; });

class SessionDifferentialWfs
    : public ::testing::TestWithParam<tquad::LibraryPolicy> {};

// wfs is the policy-sensitive workload: it is the only one with library-image
// routines (libc_*), so it exercises exclude/caller/track attribution paths.
TEST_P(SessionDifferentialWfs, AllPolicies) {
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun runs[5] = {wfs::prepare_wfs_run(cfg), wfs::prepare_wfs_run(cfg),
                         wfs::prepare_wfs_run(cfg), wfs::prepare_wfs_run(cfg),
                         wfs::prepare_wfs_run(cfg)};
  for (int i = 1; i < 5; ++i) {
    ASSERT_EQ(runs[0].artifacts.program.serialize(),
              runs[i].artifacts.program.serialize());
  }
  vm::HostEnv* hosts[5] = {&runs[0].host, &runs[1].host, &runs[2].host,
                           &runs[3].host, &runs[4].host};
  check_program(runs[0].artifacts.program, hosts, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Policies, SessionDifferentialWfs,
                         ::testing::Values(tquad::LibraryPolicy::kExclude,
                                           tquad::LibraryPolicy::kAttributeToCaller,
                                           tquad::LibraryPolicy::kTrack));

}  // namespace
}  // namespace tq::session
