// Differential sweep: for every workload in the zoo registry (wfs included),
// the online BandwidthRecorder counters and the offline aggregation of the
// recorded trace — on one thread, on a pool, and as two block ranges merged
// into one result — must be bit-exact, slice for slice.
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
  // Re-encoded at a small capacity so every workload spans several blocks.
  const auto bytes =
      serialize_v2(Trace::deserialize(recorder.take_encoded()), kBlockCapacity);
  const TraceV2View view = TraceV2View::open(bytes);
  const std::size_t blocks = view.block_count();

  ThreadPool one_thread(1);
  OfflineBandwidth one(view.kernel_count(), slice);
  one.aggregate(view, 0, blocks, one_thread);
  expect_matches_online(online, one, "1 thread");

  ThreadPool pool(3);
  OfflineBandwidth parallel(view.kernel_count(), slice);
  parallel.aggregate(view, 0, blocks, pool);
  expect_matches_online(online, parallel, "3 threads");

  OfflineBandwidth ranges(view.kernel_count(), slice);
  ranges.aggregate(view, 0, blocks / 2, pool);
  ranges.aggregate(view, blocks / 2, blocks, pool);
  expect_matches_online(online, ranges, "two block ranges");

  // All offline variants agree on the timeline length too.
  EXPECT_EQ(parallel.max_slice(), one.max_slice());
  EXPECT_EQ(ranges.max_slice(), one.max_slice());
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
