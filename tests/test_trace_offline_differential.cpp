// Differential sweep: for every workload in the zoo registry (wfs included),
// the online BandwidthRecorder counters, the offline aggregation of a v1
// trace (sequential and sharded), and the offline aggregation of a v2 trace
// (sequential decode and block-parallel straight from the encoded bytes)
// must be bit-exact, slice for slice.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "support/thread_pool.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/tquad_tool.hpp"
#include "workloads/registry.hpp"

#include "profile_run.hpp"

namespace tq::trace {
namespace {

// Small enough that the sweep stays fast, multi-block at this capacity.
constexpr std::uint32_t kBlockCapacity = 512;

void expect_matches_online(const tquad::TQuadTool& online,
                           const OfflineBandwidth& offline, const char* label) {
  ASSERT_EQ(offline.kernel_count(), online.kernel_count()) << label;
  for (std::uint32_t k = 0; k < online.kernel_count(); ++k) {
    const auto& a = online.bandwidth().kernel(k);
    const auto& b = offline.kernel(k);
    ASSERT_EQ(a.series.size(), b.series.size())
        << label << ": kernel " << online.kernel_name(k);
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      EXPECT_EQ(a.series[i].slice, b.series[i].slice) << label;
      EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl)
          << label;
      EXPECT_EQ(a.series[i].counters.read_excl, b.series[i].counters.read_excl)
          << label;
      EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl)
          << label;
      EXPECT_EQ(a.series[i].counters.write_excl, b.series[i].counters.write_excl)
          << label;
    }
    EXPECT_EQ(a.totals.read_incl, b.totals.read_incl) << label;
    EXPECT_EQ(a.totals.read_excl, b.totals.read_excl) << label;
    EXPECT_EQ(a.totals.write_incl, b.totals.write_incl) << label;
    EXPECT_EQ(a.totals.write_excl, b.totals.write_excl) << label;
    EXPECT_EQ(a.active_slices(), b.active_slices()) << label;
  }
}

/// Online run and trace-recording run on fresh hosts; then every offline
/// path must reproduce the online counters exactly.
void check_program(const vm::Program& program, vm::HostEnv& online_host,
                   vm::HostEnv& trace_host, std::uint64_t slice) {
  tquad::TQuadTool online(program, tquad::Options{.slice_interval = slice});
  testutil::profile_live(program, online_host, {&online});

  TraceRecorder recorder(program);
  testutil::profile_live(program, trace_host, {&recorder});
  const Trace trace = recorder.take();

  ThreadPool pool(3);

  OfflineBandwidth v1_seq(trace.kernel_count, slice);
  v1_seq.aggregate(trace);
  expect_matches_online(online, v1_seq, "v1 sequential");

  OfflineBandwidth v1_par(trace.kernel_count, slice);
  v1_par.aggregate_parallel(trace, pool);
  expect_matches_online(online, v1_par, "v1 sharded");

  const auto v2_bytes = serialize_v2(trace, kBlockCapacity);
  const Trace v2_trace = Trace::deserialize(v2_bytes);  // auto-detected
  OfflineBandwidth v2_seq(v2_trace.kernel_count, slice);
  v2_seq.aggregate(v2_trace);
  expect_matches_online(online, v2_seq, "v2 sequential");

  const TraceV2View view = TraceV2View::open(v2_bytes);
  OfflineBandwidth v2_par(view.kernel_count(), slice);
  v2_par.aggregate_parallel(view, pool);
  expect_matches_online(online, v2_par, "v2 block-parallel");

  // All offline variants agree on the timeline length too.
  EXPECT_EQ(v1_par.max_slice(), v1_seq.max_slice());
  EXPECT_EQ(v2_seq.max_slice(), v1_seq.max_slice());
  EXPECT_EQ(v2_par.max_slice(), v1_seq.max_slice());
}

/// (workload name, slice interval): the zoo cross slice granularities — an
/// awkward prime slice and one coarse enough that most workloads fit a
/// single slice.
class OfflineDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(OfflineDifferential, OfflineEqualsOnline) {
  const workloads::Entry& entry =
      workloads::find_workload(std::get<0>(GetParam()));
  workloads::Instance online_run = entry.build();
  workloads::Instance trace_run = entry.build();
  ASSERT_EQ(online_run.program.serialize(), trace_run.program.serialize());
  check_program(online_run.program, online_run.host, trace_run.host,
                std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, OfflineDifferential,
    ::testing::Combine(::testing::ValuesIn(workloads::workload_names()),
                       ::testing::Values(37, 5000)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_slice" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tq::trace
