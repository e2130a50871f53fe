// Trace recording: equivalence with online analysis, decoding, and
// block-parallel offline aggregation.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "gasm/builder.hpp"
#include "support/thread_pool.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

#include "profile_run.hpp"

namespace tq::trace {
namespace {

using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

vm::Program make_mixed_program() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 2048);
  auto& writer = prog.begin_function("writer");
  writer.movi(R{1}, static_cast<std::int64_t>(buf));
  writer.count_loop_imm(R{2}, 0, 200, [&] {
    writer.andi(R{3}, R{2}, 255);
    writer.shli(R{3}, R{3}, 3);
    writer.add(R{3}, R{3}, R{1});
    writer.store(R{3}, 0, R{2}, 8);
  });
  writer.ret();
  auto& stacker = prog.begin_function("stacker");
  stacker.enter(32);
  stacker.count_loop_imm(R{2}, 0, 50, [&] {
    stacker.store(SP, 8, R{2}, 8);
    stacker.load(R{3}, SP, 8, 8);
  });
  stacker.leave(32);
  stacker.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 5, [&] {
    main_fn.call("writer");
    main_fn.call("stacker");
  });
  main_fn.halt();
  return prog.build("main");
}

std::vector<std::uint8_t> record_image(const vm::Program& program) {
  vm::HostEnv host;
  TraceRecorder recorder(program);
  testutil::profile_live(program, host, {&recorder});
  return recorder.take_encoded();
}

Trace record_trace(const vm::Program& program) {
  return Trace::deserialize(record_image(program));
}

/// Aggregates all of `trace`, encoded at `block_capacity`, on `threads`
/// workers through the one offline entry.
OfflineBandwidth aggregate(const Trace& trace, std::uint64_t slice,
                           unsigned threads = 1,
                           std::uint32_t block_capacity = kDefaultBlockCapacity) {
  const auto bytes = serialize_v2(trace, block_capacity);
  const TraceV2View view = TraceV2View::open(bytes);
  OfflineBandwidth offline(trace.kernel_count, slice);
  ThreadPool pool(threads);
  offline.aggregate(view, 0, view.block_count(), pool);
  return offline;
}

void expect_same_bandwidth(const tquad::KernelBandwidth& a,
                           const tquad::KernelBandwidth& b) {
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].slice, b.series[i].slice);
    EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl);
    EXPECT_EQ(a.series[i].counters.read_excl, b.series[i].counters.read_excl);
    EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl);
    EXPECT_EQ(a.series[i].counters.write_excl, b.series[i].counters.write_excl);
  }
  EXPECT_EQ(a.totals.read_incl, b.totals.read_incl);
  EXPECT_EQ(a.totals.write_incl, b.totals.write_incl);
}

TEST(TraceRecorder, CapturesMemoryAndControlEvents) {
  const vm::Program program = make_mixed_program();
  const Trace trace = record_trace(program);
  EXPECT_GT(trace.total_retired, 0u);
  EXPECT_EQ(trace.kernel_count, program.functions().size());
  std::size_t reads = 0, writes = 0, enters = 0, rets = 0;
  for (const Record& record : trace.records) {
    switch (record.kind) {
      case EventKind::kRead: ++reads; break;
      case EventKind::kWrite: ++writes; break;
      case EventKind::kEnter: ++enters; break;
      case EventKind::kRet: ++rets; break;
    }
  }
  EXPECT_EQ(enters, 1u + 5u + 5u);  // main + 5x writer + 5x stacker
  EXPECT_EQ(rets, 10u);
  EXPECT_GT(reads, 250u);   // stacker loads + ret pops
  EXPECT_GT(writes, 1000u);  // writer stores + stacker stores + call pushes
  // retired values are non-decreasing.
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    EXPECT_GE(trace.records[i].retired, trace.records[i - 1].retired);
  }
}

TEST(TraceRecorder, StackClassificationMatchesOnlineTool) {
  const vm::Program program = make_mixed_program();
  const Trace trace = record_trace(program);
  const auto stacker = *program.find("stacker");
  std::uint64_t stack_bytes = 0, global_bytes = 0;
  for (const Record& record : trace.records) {
    if (record.kernel != stacker || record.kind != EventKind::kWrite) continue;
    (record.flags & kFlagStackArea ? stack_bytes : global_bytes) += record.size;
  }
  EXPECT_EQ(stack_bytes, 5u * 50u * 8u);
  EXPECT_EQ(global_bytes, 0u);
}

TEST(TraceSerialization, RejectsCorruption) {
  const auto bytes = record_image(make_mixed_program());
  EXPECT_NO_THROW((void)Trace::deserialize(bytes));
  EXPECT_THROW(Trace::deserialize({bytes.data(), 10}), Error);
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(Trace::deserialize(bad_magic), Error);
  auto truncated = bytes;
  truncated.resize(truncated.size() - 7);
  EXPECT_THROW(Trace::deserialize(truncated), Error);
}

/// The 32-byte header of the retired flat TQTR v1 format, followed by
/// `records` zeroed 28-byte records: what an old recorder left on disk.
std::vector<std::uint8_t> v1_headed_image(std::uint64_t records) {
  std::vector<std::uint8_t> out;
  auto put = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(0x52545154, 4);  // "TQTR"
  put(1, 4);           // version 1
  put(3, 4);           // kernel count
  put(kRecordDiskBytes, 4);
  put(1000, 8);        // total retired
  put(records, 8);
  out.resize(out.size() + records * kRecordDiskBytes);
  return out;
}

TEST(TraceSerialization, RejectsV1WithOneLine) {
  for (const std::uint64_t records : {0u, 1u, 5u}) {
    const auto image = v1_headed_image(records);
    for (int reader = 0; reader < 3; ++reader) {
      try {
        switch (reader) {
          case 0: (void)Trace::deserialize(image); break;
          case 1: (void)TraceV2View::open(image); break;
          case 2: (void)TraceV2View::salvage(image); break;
        }
        ADD_FAILURE() << "reader " << reader << " accepted a v1 image";
      } catch (const Error& err) {
        const std::string message = err.what();
        EXPECT_NE(message.find("TQTR v1"), std::string::npos) << message;
        EXPECT_NE(message.find("no longer supported"), std::string::npos) << message;
        EXPECT_EQ(message.find('\n'), std::string::npos) << message;
      }
    }
  }
}

TEST(TraceSerialization, DecodedRecordsReencodeLosslessly) {
  // recorder image -> decode -> serialize_v2 reproduces the image.
  const auto image = record_image(make_mixed_program());
  const Trace decoded = Trace::deserialize(image);
  EXPECT_GT(decoded.records.size(), 1000u);
  EXPECT_EQ(serialize_v2(decoded), image);
}

/// The central equivalence property: offline aggregation of a recorded trace
/// must equal the online BandwidthRecorder, slice for slice.
class OfflineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OfflineEquivalence, OfflineEqualsOnline) {
  const std::uint64_t slice = GetParam();
  const vm::Program program = make_mixed_program();

  // Online run.
  vm::HostEnv host1;
  tquad::TQuadTool online(program, tquad::Options{.slice_interval = slice});
  testutil::profile_live(program, host1, {&online});

  // Offline from a recorded trace.
  const Trace trace = record_trace(program);
  const OfflineBandwidth offline = aggregate(trace, slice);

  ASSERT_EQ(offline.kernel_count(), online.kernel_count());
  for (std::uint32_t k = 0; k < online.kernel_count(); ++k) {
    SCOPED_TRACE("kernel " + std::to_string(k));
    expect_same_bandwidth(online.bandwidth().kernel(k), offline.kernel(k));
  }

  // One access at the last representable retired count: its slice is as
  // real as any other (~0ull at interval 1), online and offline.
  Record last{};
  last.retired = ~0ull;
  last.kind = EventKind::kRead;
  last.size = 8;
  last.kernel = 0;
  Trace last_trace;
  last_trace.kernel_count = 1;
  last_trace.records.push_back(last);
  const OfflineBandwidth last_offline = aggregate(last_trace, slice);
  tquad::BandwidthRecorder last_online(1, slice);
  last_online.on_access(0, last.retired, last.size, /*is_read=*/true,
                        /*is_stack=*/false);
  last_online.finish();
  ASSERT_EQ(last_online.kernel(0).series.size(), 1u);
  EXPECT_EQ(last_online.kernel(0).totals.read_incl, 8u);
  SCOPED_TRACE("one access at retired 2^64-1");
  expect_same_bandwidth(last_online.kernel(0), last_offline.kernel(0));
}

INSTANTIATE_TEST_SUITE_P(Slices, OfflineEquivalence,
                         ::testing::Values(1, 13, 100, 1000, 1'000'000));

/// Block-parallel offline aggregation must equal one thread regardless of
/// pool size (shard seams merge by addition); small blocks put seams inside
/// slices.
class ParallelEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquivalence, ParallelEqualsOneThread) {
  const Trace trace = record_trace(make_mixed_program());
  const OfflineBandwidth one = aggregate(trace, 37, 1, 64);
  const OfflineBandwidth parallel = aggregate(trace, 37, GetParam(), 64);
  ASSERT_EQ(parallel.max_slice(), one.max_slice());
  for (std::uint32_t k = 0; k < trace.kernel_count; ++k) {
    SCOPED_TRACE("kernel " + std::to_string(k));
    expect_same_bandwidth(one.kernel(k), parallel.kernel(k));
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ParallelEquivalence, ::testing::Values(1, 2, 3, 7));

TEST(OfflineBandwidth, BlockRangeMustLieInsideTheTrace) {
  // Range merging itself is checked on every zoo workload by
  // test_trace_offline_differential; here, the bounds of the entry.
  const auto bytes = serialize_v2(record_trace(make_mixed_program()), 50);
  const TraceV2View view = TraceV2View::open(bytes);
  const std::size_t blocks = view.block_count();
  ASSERT_GT(blocks, 2u);
  ThreadPool pool(2);
  OfflineBandwidth offline(view.kernel_count(), 37);
  offline.aggregate(view, 1, 1, pool);  // empty: no-op
  EXPECT_EQ(offline.max_slice(), 0u);
  EXPECT_THROW(offline.aggregate(view, 0, blocks + 1, pool), Error);
  EXPECT_THROW(offline.aggregate(view, 2, 1, pool), Error);
}

/// Two kernel-0 reads whose retired count runs backwards (10000, then 0):
/// every v2 check passes, but the slice series would come out unsorted.
Trace backwards_trace() {
  Trace trace;
  trace.kernel_count = 1;
  trace.total_retired = 10001;
  for (const std::uint64_t retired : {10000u, 0u}) {
    Record record{};
    record.retired = retired;
    record.kind = EventKind::kRead;
    record.size = 8;
    record.kernel = 0;
    trace.records.push_back(record);
  }
  return trace;
}

TEST(OfflineBandwidth, BackwardsRecordsAreAnErrorNotAnAbort) {
  const Trace trace = backwards_trace();
  // One block on one thread, and one record per block across two threads
  // (the step back then sits on a shard seam).
  for (const auto& [threads, capacity] :
       {std::pair{1u, kDefaultBlockCapacity}, std::pair{2u, 1u}}) {
    const auto bytes = serialize_v2(trace, capacity);
    EXPECT_NO_THROW((void)Trace::deserialize(bytes));
    const TraceV2View view = TraceV2View::open(bytes);
    OfflineBandwidth offline(1, 5000);
    ThreadPool pool(threads);
    try {
      offline.aggregate(view, 0, view.block_count(), pool);
      ADD_FAILURE() << "aggregated a backwards trace";
    } catch (const Error& err) {
      const std::string message = err.what();
      EXPECT_NE(message.find("out of order"), std::string::npos) << message;
      EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    }
  }
}

TEST(OfflineBandwidth, WfsTraceMatchesOnline) {
  // Integration: the full (tiny) wfs run, online vs offline.
  const wfs::WfsConfig cfg = wfs::WfsConfig::tiny();
  wfs::WfsRun online_run = wfs::prepare_wfs_run(cfg);
  tquad::TQuadTool online(online_run.artifacts.program,
                          tquad::Options{.slice_interval = 500});
  testutil::profile_live(online_run.artifacts.program, online_run.host, {&online});

  wfs::WfsRun trace_run = wfs::prepare_wfs_run(cfg);
  TraceRecorder recorder(trace_run.artifacts.program);
  testutil::profile_live(trace_run.artifacts.program, trace_run.host, {&recorder});
  const auto bytes = recorder.take_encoded();
  const TraceV2View view = TraceV2View::open(bytes);

  OfflineBandwidth offline(view.kernel_count(), 500);
  ThreadPool pool(3);
  offline.aggregate(view, 0, view.block_count(), pool);
  for (std::uint32_t k = 0; k < online.kernel_count(); ++k) {
    EXPECT_EQ(online.bandwidth().kernel(k).totals.read_incl,
              offline.kernel(k).totals.read_incl)
        << online.kernel_name(k);
    EXPECT_EQ(online.bandwidth().kernel(k).totals.write_excl,
              offline.kernel(k).totals.write_excl)
        << online.kernel_name(k);
    EXPECT_EQ(online.bandwidth().kernel(k).active_slices(),
              offline.kernel(k).active_slices())
        << online.kernel_name(k);
  }
}

}  // namespace
}  // namespace tq::trace
