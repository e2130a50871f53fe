// Trace record/replay: equivalence with online analysis, serialisation, and
// parallel offline aggregation.
#include <gtest/gtest.h>

#include "gasm/builder.hpp"
#include "support/rng.hpp"
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

Trace record_trace(const vm::Program& program) {
  vm::HostEnv host;
  TraceRecorder recorder(program);
  testutil::profile_live(program, host, {&recorder});
  return recorder.take();
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

TEST(TraceSerialization, RoundTrip) {
  const Trace trace = record_trace(make_mixed_program());
  const auto bytes = trace.serialize();
  // v1 records are serialised field-by-field (kRecordDiskBytes each), so the
  // file is independent of host struct padding.
  EXPECT_EQ(bytes.size(), 32 + trace.records.size() * kRecordDiskBytes);
  const Trace back = Trace::deserialize(bytes);
  EXPECT_EQ(back.total_retired, trace.total_retired);
  EXPECT_EQ(back.kernel_count, trace.kernel_count);
  ASSERT_EQ(back.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const Record& a = trace.records[i];
    const Record& b = back.records[i];
    EXPECT_TRUE(a.retired == b.retired && a.ea == b.ea && a.pc == b.pc &&
                a.kernel == b.kernel && a.func == b.func && a.kind == b.kind &&
                a.size == b.size && a.flags == b.flags)
        << "record " << i;
  }
}

TEST(TraceSerialization, RejectsCorruption) {
  const Trace trace = record_trace(make_mixed_program());
  auto bytes = trace.serialize();
  EXPECT_THROW(Trace::deserialize({bytes.data(), 10}), Error);
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(Trace::deserialize(bad_magic), Error);
  auto truncated = bytes;
  truncated.resize(truncated.size() - 7);
  EXPECT_THROW(Trace::deserialize(truncated), Error);
}

TEST(TraceSerialization, RejectsFieldsNoWriterProduces) {
  // A v1 record's flags byte may only carry the defined kFlag* bits and its
  // reserved byte must be zero; anything else could not be re-encoded
  // losslessly (v2 has no bits for it).
  const Trace trace = record_trace(make_mixed_program());
  const auto bytes = trace.serialize();
  ASSERT_GE(trace.records.size(), 3u);
  const std::size_t record = 32 + 2 * kRecordDiskBytes;  // third record
  auto bad_flags = bytes;
  bad_flags[record + 26] |= 0x04;
  EXPECT_THROW(Trace::deserialize(bad_flags), Error);
  auto bad_reserved = bytes;
  bad_reserved[record + 27] = 0x01;
  EXPECT_THROW(Trace::deserialize(bad_reserved), Error);
}

/// A v1 image laid out field by field as docs/FORMATS.md describes it, with
/// no checks, so the decoder's verdict on any record can be asked for.
std::vector<std::uint8_t> unchecked_v1(const Trace& trace) {
  std::vector<std::uint8_t> out;
  auto put = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  put(0x52545154, 4);  // "TQTR"
  put(1, 4);
  put(trace.kernel_count, 4);
  put(kRecordDiskBytes, 4);
  put(trace.total_retired, 8);
  put(trace.records.size(), 8);
  for (const Record& r : trace.records) {
    put(r.retired, 8);
    put(r.ea, 8);
    put(r.pc, 4);
    put(r.kernel, 2);
    put(r.func, 2);
    put(static_cast<std::uint8_t>(r.kind), 1);
    put(r.size, 1);
    put(r.flags, 1);
    put(r.reserved, 1);
  }
  return out;
}

TEST(TraceSerialization, WriterRefusesExactlyWhatTheDecoderRejects) {
  // Every field the decoder checks, drawn both inside and outside its rule:
  // kind, flag bits, the reserved byte and the kernel id (kNoKernel16 is
  // valid, every other id must be below kernel_count).
  constexpr std::uint32_t kKernels = 5;
  SplitMix64 rng(0x7e57);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    Record record{};
    record.retired = rng.next();
    record.ea = rng.next();
    record.pc = static_cast<std::uint32_t>(rng.next());
    record.func = static_cast<std::uint16_t>(rng.next());
    record.size = static_cast<std::uint8_t>(rng.next());
    record.kind = static_cast<EventKind>(rng.next_below(8) == 0 ? rng.next_below(256)
                                                                : rng.next_below(4));
    record.flags = static_cast<std::uint8_t>(rng.next_below(8) == 0 ? rng.next_below(256)
                                                                    : rng.next_below(4));
    record.reserved = static_cast<std::uint8_t>(rng.next_below(8) == 0 ? rng.next_below(256)
                                                                       : 0);
    switch (rng.next_below(4)) {
      case 0: record.kernel = kNoKernel16; break;
      case 1: record.kernel = static_cast<std::uint16_t>(rng.next()); break;
      case 2: record.kernel = static_cast<std::uint16_t>(kKernels + rng.next_below(3)); break;
      default: record.kernel = static_cast<std::uint16_t>(rng.next_below(kKernels)); break;
    }
    Trace trace;
    trace.kernel_count = kKernels;
    trace.total_retired = rng.next();
    trace.records.push_back(record);

    bool decodes = true;
    try {
      (void)Trace::deserialize(unchecked_v1(trace));
    } catch (const Error&) {
      decodes = false;
    }
    std::vector<std::uint8_t> bytes;
    bool written = true;
    try {
      bytes = trace.serialize();
    } catch (const Error&) {
      written = false;
    }
    ASSERT_EQ(written, decodes) << "record " << i;
    if (!written) {
      ++refused;
      continue;
    }
    ++accepted;
    const Trace back = Trace::deserialize(bytes);
    ASSERT_EQ(back.records.size(), 1u);
    const Record& b = back.records[0];
    ASSERT_TRUE(record.retired == b.retired && record.ea == b.ea &&
                record.pc == b.pc && record.kernel == b.kernel &&
                record.func == b.func && record.kind == b.kind &&
                record.size == b.size && record.flags == b.flags &&
                record.reserved == b.reserved)
        << "record " << i;
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_GT(refused, 1000);
}

TEST(TraceSerialization, DecodedRecordsReencodeLosslessly) {
  // v1 -> decode -> v1 reproduces the image, and -> v2 -> decode gives the
  // same records, reserved byte included.
  const Trace trace = record_trace(make_mixed_program());
  const auto v1 = trace.serialize();
  const Trace decoded = Trace::deserialize(v1);
  EXPECT_EQ(decoded.serialize(), v1);
  const Trace via_v2 = Trace::deserialize(serialize_v2(decoded));
  ASSERT_EQ(via_v2.records.size(), decoded.records.size());
  for (std::size_t i = 0; i < decoded.records.size(); ++i) {
    const Record& a = decoded.records[i];
    const Record& b = via_v2.records[i];
    EXPECT_TRUE(a.retired == b.retired && a.ea == b.ea && a.pc == b.pc &&
                a.kernel == b.kernel && a.func == b.func && a.kind == b.kind &&
                a.size == b.size && a.flags == b.flags && a.reserved == b.reserved)
        << "record " << i;
  }
}

TEST(TraceReplay, VisitsEveryRecordInOrder) {
  const Trace trace = record_trace(make_mixed_program());
  struct CountingSink : TraceSink {
    std::size_t count = 0;
    std::uint64_t last_retired = 0;
    bool ended = false;
    void on_record(const Record& record) override {
      EXPECT_GE(record.retired, last_retired);
      last_retired = record.retired;
      ++count;
    }
    void on_end(const Trace&) override { ended = true; }
  } sink;
  replay(trace, sink);
  EXPECT_EQ(sink.count, trace.records.size());
  EXPECT_TRUE(sink.ended);
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
  OfflineBandwidth offline(trace.kernel_count, slice);
  offline.aggregate(trace);

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
  OfflineBandwidth last_offline(1, slice);
  last_offline.aggregate(last_trace);
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

/// Parallel offline aggregation must equal sequential, regardless of pool
/// size (shard seams merge by addition).
class ParallelEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquivalence, ParallelEqualsSequential) {
  const Trace trace = record_trace(make_mixed_program());
  OfflineBandwidth sequential(trace.kernel_count, 37);
  sequential.aggregate(trace);
  OfflineBandwidth parallel(trace.kernel_count, 37);
  ThreadPool pool(GetParam());
  parallel.aggregate_parallel(trace, pool);
  ASSERT_EQ(parallel.max_slice(), sequential.max_slice());
  for (std::uint32_t k = 0; k < trace.kernel_count; ++k) {
    const auto& a = sequential.kernel(k);
    const auto& b = parallel.kernel(k);
    ASSERT_EQ(a.series.size(), b.series.size()) << "kernel " << k;
    for (std::size_t i = 0; i < a.series.size(); ++i) {
      EXPECT_EQ(a.series[i].slice, b.series[i].slice);
      EXPECT_EQ(a.series[i].counters.read_incl, b.series[i].counters.read_incl);
      EXPECT_EQ(a.series[i].counters.write_incl, b.series[i].counters.write_incl);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Pools, ParallelEquivalence, ::testing::Values(1, 2, 3, 7));

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
  const Trace trace = recorder.take();

  OfflineBandwidth offline(trace.kernel_count, 500);
  ThreadPool pool(3);
  offline.aggregate_parallel(trace, pool);
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
