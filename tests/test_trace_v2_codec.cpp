// TQTR v2 codec: property-based round-trips over adversarial record
// streams, byte-exact agreement of the writer with a spec-transcribed
// reference encoder, streaming-writer/batch-encoder equivalence, block/index
// structure invariants, and index-driven range replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "gasm/builder.hpp"
#include "support/crc32c.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"

#include "profile_run.hpp"

namespace tq::trace {
namespace {

using gasm::ProgramBuilder;
using gasm::R;

constexpr std::uint32_t kKernels = 17;

/// Adversarial but *valid* stream: zero and max-u64 retired/ea jumps,
/// unattributed 0xffff kernels, 0xffff funcs, prefetch flags, odd access
/// sizes that force the literal-size escape, enter/ret records with nonzero
/// sizes.
Trace random_trace(SplitMix64& rng, std::size_t count) {
  Trace trace;
  trace.kernel_count = kKernels;
  trace.records.reserve(count);
  std::uint64_t retired = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Record record{};
    switch (rng.next_below(5)) {
      case 0: break;                             // zero delta
      case 1: retired += 1 + rng.next_below(64); break;
      case 2: retired += rng.next_below(1u << 20); break;
      case 3: retired += rng.next(); break;      // wild jump (wraps)
      case 4: retired = ~0ull - rng.next_below(16); break;  // near max-u64
    }
    record.retired = retired;
    switch (rng.next_below(4)) {
      case 0: record.ea = 0; break;
      case 1: record.ea = ~0ull; break;
      default: record.ea = rng.next(); break;
    }
    record.pc = static_cast<std::uint32_t>(rng.next());
    record.kernel = rng.next_below(4) == 0
                        ? kNoKernel16
                        : static_cast<std::uint16_t>(rng.next_below(kKernels));
    record.func = rng.next_below(8) == 0 ? std::uint16_t{0xffff}
                                         : static_cast<std::uint16_t>(rng.next());
    record.kind = static_cast<EventKind>(rng.next_below(4));
    if (record.kind == EventKind::kRead || record.kind == EventKind::kWrite) {
      const std::uint8_t sizes[] = {0, 1, 2, 3, 4, 7, 8, 16, 32, 64, 100, 255};
      record.size = sizes[rng.next_below(sizeof sizes)];
      record.flags = static_cast<std::uint8_t>(rng.next_below(4));
    } else if (rng.next_below(8) == 0) {
      record.size = static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    trace.records.push_back(record);
  }
  trace.total_retired = retired;
  return trace;
}

// ---- Reference encoder ------------------------------------------------------
//
// docs/FORMATS.md's v2 layout transcribed as plainly as possible: every byte
// through push_back, fixed-width fields assembled byte by byte, the size
// code found by searching the access-size table. It shares no code with
// TraceV2Writer, whose output must match it byte for byte.
namespace spec {

void put_le(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag_delta(std::uint64_t value, std::uint64_t previous) {
  const auto delta = static_cast<std::int64_t>(value - previous);
  return (static_cast<std::uint64_t>(delta) << 1) ^
         static_cast<std::uint64_t>(delta >> 63);
}

std::uint8_t size_code(const Record& record) {
  constexpr std::uint8_t kSizes[7] = {1, 2, 4, 8, 16, 32, 64};
  if (record.kind == EventKind::kRead || record.kind == EventKind::kWrite) {
    for (std::uint8_t code = 0; code < 7; ++code) {
      if (kSizes[code] == record.size) return code;
    }
    return 7;
  }
  return record.size == 0 ? 0 : 7;
}

std::vector<std::uint8_t> encode(const Trace& trace, std::uint32_t capacity,
                                 std::uint32_t minor = kV2MinorCrc) {
  const std::vector<Record>& records = trace.records;
  std::vector<std::uint8_t> out;
  put_le(out, 0x52545154, 4);  // "TQTR"
  put_le(out, 2 | (minor << 16), 4);
  put_le(out, trace.kernel_count, 4);
  put_le(out, capacity, 4);
  put_le(out, trace.total_retired, 8);
  put_le(out, records.size(), 8);
  put_le(out, 0, 8);  // index offset, patched below

  std::vector<std::pair<std::uint64_t, std::uint64_t>> index;  // offset, first retired
  for (std::size_t begin = 0; begin < records.size(); begin += capacity) {
    const std::size_t end = std::min<std::size_t>(begin + capacity, records.size());
    std::vector<std::uint8_t> payload;
    std::uint64_t prev_retired = records[begin].retired;
    std::uint64_t prev_ea[4] = {0, 0, 0, 0};
    std::uint64_t prev_pc = 0;
    std::uint16_t prev_kernel = 0;
    std::uint16_t prev_func = 0;
    std::uint64_t bloom = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Record& record = records[i];
      const auto kind = static_cast<std::uint8_t>(record.kind);
      const std::uint8_t code = size_code(record);
      const bool repeat =
          i > begin && record.kernel == prev_kernel && record.func == prev_func;
      payload.push_back(static_cast<std::uint8_t>(
          kind | (record.flags << 2) | (code << 4) | (repeat ? 0x80 : 0)));
      if (code == 7) payload.push_back(record.size);
      put_varint(payload, zigzag_delta(record.retired, prev_retired));
      put_varint(payload, zigzag_delta(record.ea, prev_ea[kind]));
      put_varint(payload, zigzag_delta(record.pc, prev_pc));
      if (!repeat) {
        put_varint(payload, record.kernel);
        put_varint(payload, record.func);
      }
      prev_retired = record.retired;
      prev_ea[kind] = record.ea;
      prev_pc = record.pc;
      prev_kernel = record.kernel;
      prev_func = record.func;
      bloom |= 1ull << (record.kernel & 63);
    }
    index.emplace_back(out.size(), records[begin].retired);
    std::vector<std::uint8_t> header;
    put_le(header, end - begin, 4);
    put_le(header, payload.size(), 4);
    put_le(header, records[begin].retired, 8);
    put_le(header, records[end - 1].retired, 8);
    put_le(header, bloom, 8);
    out.insert(out.end(), header.begin(), header.end());
    if (minor >= kV2MinorCrc) {
      put_le(out, crc32c(payload.data(), payload.size(),
                         crc32c(header.data(), header.size())),
             4);
      put_le(out, 0, 4);  // reserved
    }
    out.insert(out.end(), payload.begin(), payload.end());
  }

  const std::uint64_t index_offset = out.size();
  for (int i = 0; i < 8; ++i) {
    out[32 + i] = static_cast<std::uint8_t>(index_offset >> (8 * i));
  }
  put_le(out, index.size(), 4);
  for (const auto& [offset, first_retired] : index) {
    put_le(out, offset, 8);
    put_le(out, first_retired, 8);
  }
  return out;
}

}  // namespace spec

/// Field-wise equality (memcmp would also compare indeterminate struct
/// padding, which the formats deliberately do not carry).
bool record_eq(const Record& a, const Record& b) {
  return a.retired == b.retired && a.ea == b.ea && a.pc == b.pc &&
         a.kernel == b.kernel && a.func == b.func && a.kind == b.kind &&
         a.size == b.size && a.flags == b.flags && a.reserved == b.reserved;
}

void expect_records_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.total_retired, b.total_retired);
  EXPECT_EQ(a.kernel_count, b.kernel_count);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    ASSERT_TRUE(record_eq(a.records[i], b.records[i])) << "record " << i;
  }
}

class V2RoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(V2RoundTrip, AdversarialStreamsSurviveEncodeDecode) {
  SplitMix64 rng(GetParam());
  const std::uint32_t capacities[] = {1, 3, 64, 4096};
  for (int round = 0; round < 20; ++round) {
    const Trace trace = random_trace(rng, rng.next_below(600));
    for (const std::uint32_t capacity : capacities) {
      const auto bytes = serialize_v2(trace, capacity);
      // Auto-detected by the shared entry point...
      expect_records_equal(trace, Trace::deserialize(bytes));
      // ...and block by block through the view.
      const TraceV2View view = TraceV2View::open(bytes);
      EXPECT_EQ(view.record_count(), trace.records.size());
      expect_records_equal(trace, view.decode_all());
    }
  }
}

TEST_P(V2RoundTrip, BlockHeadersDescribeTheirRecords) {
  SplitMix64 rng(GetParam() ^ 0xb10cull);
  const Trace trace = random_trace(rng, 1000);
  const auto bytes = serialize_v2(trace, 64);
  const TraceV2View view = TraceV2View::open(bytes);
  ASSERT_EQ(view.block_count(), (trace.records.size() + 63) / 64);
  std::size_t base = 0;
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    const BlockInfo& info = view.block(b);
    ASSERT_LE(base + info.record_count, trace.records.size());
    EXPECT_EQ(info.first_retired, trace.records[base].retired);
    EXPECT_EQ(info.last_retired,
              trace.records[base + info.record_count - 1].retired);
    for (std::uint32_t i = 0; i < info.record_count; ++i) {
      const std::uint16_t kernel = trace.records[base + i].kernel;
      EXPECT_NE(info.kernel_bloom & (1ull << (kernel & 63)), 0u);
    }
    base += info.record_count;
  }
  EXPECT_EQ(base, trace.records.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, V2RoundTrip, ::testing::Values(11, 22, 33, 44));

// ---- Byte-exact oracle -------------------------------------------------------

constexpr std::uint32_t kOracleCapacities[] = {1, 3, 64, 4096, 65536};
constexpr std::size_t kSame = static_cast<std::size_t>(-1);

/// Offset of the first byte where `a` and `b` differ (or where the shorter
/// one ends); kSame when they are identical. Keeps failures readable where
/// comparing the vectors directly would print megabytes.
std::size_t first_mismatch(const std::vector<std::uint8_t>& a,
                           const std::vector<std::uint8_t>& b) {
  const auto [ia, ib] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (ia == a.end() && ib == b.end()) return kSame;
  return static_cast<std::size_t>(ia - a.begin());
}

std::vector<std::uint8_t> encode_with_writer(const Trace& trace,
                                             std::uint32_t capacity,
                                             std::uint32_t minor) {
  TraceV2Writer writer(trace.kernel_count, capacity, minor);
  for (const Record& record : trace.records) writer.add(record);
  return writer.finish(trace.total_retired);
}

class V2Oracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(V2Oracle, WriterMatchesReferenceEncoderByteForByte) {
  SplitMix64 rng(GetParam() ^ 0x0e4ac1eull);
  for (int round = 0; round < 8; ++round) {
    const Trace trace = random_trace(rng, rng.next_below(3000));
    for (const std::uint32_t capacity : kOracleCapacities) {
      EXPECT_EQ(first_mismatch(serialize_v2(trace, capacity),
                               spec::encode(trace, capacity)),
                kSame)
          << "v2.1, capacity " << capacity << ", round " << round;
      EXPECT_EQ(first_mismatch(encode_with_writer(trace, capacity, 0),
                               spec::encode(trace, capacity, 0)),
                kSame)
          << "v2.0, capacity " << capacity << ", round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, V2Oracle, ::testing::Values(11, 22, 33, 44));

/// The costliest record the format allows at block position `slot`: a
/// literal size byte, 10-byte retired and ea deltas (each alternates by
/// 2^63, whose zigzag is all ones), a 5-byte pc delta (alternating by 2^31),
/// and 3-byte kernel and func varints that never repeat. Slot 0 opens a
/// block, so its retired delta is the 1-byte zero.
Record worst_case_record(std::size_t slot) {
  const bool odd = slot % 2 != 0;
  Record record{};
  record.retired = odd ? 1ull << 63 : 0;
  record.ea = odd ? 0 : 1ull << 63;
  record.pc = odd ? 0 : 0x80000000u;
  record.kernel = odd ? 0xfffe : kNoKernel16;
  record.func = odd ? 0xffff : 0xfffe;
  record.kind = EventKind::kRead;
  record.size = 3;
  record.flags = kFlagStackArea | kFlagPrefetch;
  return record;
}

constexpr std::size_t kWorstCaseRecordBytes = 1 + 1 + 10 + 10 + 5 + 3 + 3;
static_assert(kWorstCaseRecordBytes <= v2_coding::kMaxRecordBytes);

TEST(V2Oracle, WholeBlocksOfWorstCaseRecords) {
  // Fills every block to capacity with maximum-size records, so the writer's
  // per-record bound and its block-buffer growth run at their limit (under
  // ASan in tier 1, an undersized bound is a heap overflow).
  for (const std::uint32_t capacity : kOracleCapacities) {
    Trace trace;
    trace.kernel_count = 0xffff;
    const std::size_t count = 2 * std::size_t{capacity} + 1;
    for (std::size_t i = 0; i < count; ++i) {
      trace.records.push_back(worst_case_record(i % capacity));
    }
    trace.total_retired = 1ull << 63;
    const auto bytes = serialize_v2(trace, capacity);
    EXPECT_EQ(first_mismatch(bytes, spec::encode(trace, capacity)), kSame)
        << "capacity " << capacity;
    const TraceV2View view = TraceV2View::open(bytes);
    ASSERT_EQ(view.block_count(), 3u);
    for (std::size_t b = 0; b < view.block_count(); ++b) {
      EXPECT_EQ(view.block(b).payload_bytes,
                kWorstCaseRecordBytes * view.block(b).record_count - 9)
          << "capacity " << capacity << ", block " << b;
    }
    expect_records_equal(trace, view.decode_all());
  }
}

vm::Program two_function_program() {
  ProgramBuilder prog;
  auto& leaf = prog.begin_function("leaf");
  leaf.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("leaf");
  main_fn.halt();
  return prog.build("main");
}

TEST(V2Oracle, StreamingRecorderMatchesReferenceEncoder) {
  // Drive the recorder's session hooks with adversarial events. Its streamed
  // v2 image must equal the reference encoding of the records a v1 recorder
  // buffers from the same events.
  const vm::Program program = two_function_program();
  TraceRecorder buffered(program, tquad::LibraryPolicy::kExclude, TraceFormat::kV1);
  TraceRecorder streamed(program, tquad::LibraryPolicy::kExclude, TraceFormat::kV2);
  SplitMix64 rng(99);
  const std::uint32_t kernels[] = {tquad::kNoKernel, 0, 1};
  const std::uint32_t sizes[] = {1, 2, 3, 4, 8, 16, 32, 64, 100, 255};
  std::uint64_t retired = 0;
  constexpr int kEvents = 10000;  // three v2 blocks at the default capacity
  for (int i = 0; i < kEvents; ++i) {
    switch (rng.next_below(4)) {
      case 0: break;
      case 1: retired += rng.next_below(64); break;
      case 2: retired += rng.next(); break;  // wraps
      case 3: retired = ~0ull - rng.next_below(4); break;
    }
    const std::uint32_t kernel = kernels[rng.next_below(3)];
    const std::uint32_t func =
        rng.next_below(4) == 0 ? 0xffffu : static_cast<std::uint32_t>(rng.next_below(2));
    const std::uint32_t pc = static_cast<std::uint32_t>(rng.next());
    switch (rng.next_below(8)) {
      case 0: {
        session::EnterEvent event;
        event.func = func;
        event.kernel = kernel;
        event.retired = retired;
        buffered.on_kernel_enter(event);
        streamed.on_kernel_enter(event);
        break;
      }
      case 1: {
        session::RetEvent event;
        event.func = func;
        event.pc = pc;
        event.kernel = kernel;
        event.retired = retired;
        buffered.on_kernel_ret(event);
        streamed.on_kernel_ret(event);
        break;
      }
      default: {
        session::AccessEvent event;
        event.func = func;
        event.pc = pc;
        event.kernel = kernel;
        event.retired = retired;
        event.ea = rng.next_below(3) == 0 ? ~0ull : rng.next();
        event.size = sizes[rng.next_below(std::size(sizes))];
        event.is_read = rng.next_below(2) == 0;
        event.is_stack = rng.next_below(2) == 0;
        event.is_prefetch = event.is_read && rng.next_below(4) == 0;
        buffered.on_access(event);
        streamed.on_access(event);
        break;
      }
    }
  }
  buffered.on_session_end(retired);
  streamed.on_session_end(retired);
  const Trace trace = buffered.take();
  ASSERT_EQ(trace.records.size(), static_cast<std::size_t>(kEvents));
  const auto bytes = streamed.take_encoded();
  EXPECT_EQ(first_mismatch(bytes, spec::encode(trace, kDefaultBlockCapacity)), kSame);
  EXPECT_EQ(first_mismatch(bytes, serialize_v2(trace)), kSame);
  expect_records_equal(trace, Trace::deserialize(bytes));
}

TEST(V2Writer, UnrepresentableRecordsAreRejectedAndWriteNothing) {
  Trace trace;
  trace.kernel_count = 1;
  TraceV2Writer writer(trace.kernel_count, 3);
  const auto valid = [&](std::uint64_t i) {
    Record record{};
    record.retired = i;
    record.ea = 0x1000 + 8 * i;
    record.kind = EventKind::kWrite;
    record.size = 8;
    return record;
  };
  for (std::uint64_t i = 0; i < 10; ++i) {
    Record bad = valid(i);
    switch (i % 3) {
      case 0: bad.kind = static_cast<EventKind>(4); break;
      case 1: bad.flags = 0x04; break;
      case 2: bad.reserved = 1; break;
    }
    EXPECT_THROW(writer.add(bad), Error) << "variant " << i % 3;
    writer.add(valid(i));
    trace.records.push_back(valid(i));
  }
  trace.total_retired = 10;
  EXPECT_EQ(first_mismatch(writer.finish(trace.total_retired), spec::encode(trace, 3)),
            kSame);
}

TEST(V2Writer, RefusesExactlyTheKernelIdsTheDecoderRejects) {
  // The reference encoder writes any kernel id; TraceV2View accepts only
  // ids below kernel_count and kNoKernel16. The writer must draw the same
  // line, and what it accepts must decode back equal.
  constexpr std::uint32_t kKernelCount = 9;
  SplitMix64 rng(0xb10c);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 3000; ++i) {
    Trace trace = random_trace(rng, 1 + rng.next_below(4));
    trace.kernel_count = kKernelCount;
    for (Record& record : trace.records) {
      switch (rng.next_below(4)) {
        case 0: record.kernel = kNoKernel16; break;
        case 1: record.kernel = static_cast<std::uint16_t>(rng.next()); break;
        case 2:
          record.kernel = static_cast<std::uint16_t>(kKernelCount + rng.next_below(3));
          break;
        default:
          record.kernel = static_cast<std::uint16_t>(rng.next_below(kKernelCount));
          break;
      }
    }
    bool decodes = true;
    try {
      (void)Trace::deserialize(spec::encode(trace, kDefaultBlockCapacity));
    } catch (const Error&) {
      decodes = false;
    }
    std::vector<std::uint8_t> bytes;
    bool written = true;
    try {
      bytes = serialize_v2(trace);
    } catch (const Error&) {
      written = false;
    }
    ASSERT_EQ(written, decodes) << "trace " << i;
    if (!written) {
      ++refused;
      continue;
    }
    ++accepted;
    expect_records_equal(trace, Trace::deserialize(bytes));
  }
  EXPECT_GT(accepted, 300);
  EXPECT_GT(refused, 300);

  // A refused record writes nothing: the stream around it stays intact.
  TraceV2Writer writer(kKernelCount, 2);
  Trace expected;
  expected.kernel_count = kKernelCount;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Record bad{};
    bad.retired = i;
    bad.kind = EventKind::kRead;
    bad.size = 8;
    bad.kernel = static_cast<std::uint16_t>(kKernelCount + i);
    EXPECT_THROW(writer.add(bad), Error);
    Record good = bad;
    good.kernel = static_cast<std::uint16_t>(i);
    writer.add(good);
    expected.records.push_back(good);
  }
  expected.total_retired = 5;
  EXPECT_EQ(first_mismatch(writer.finish(5), spec::encode(expected, 2)), kSame);
}

TEST(V2WriterDeathTest, AddAfterFinishFails) {
  TraceV2Writer writer(1);
  (void)writer.finish(0);
  Record record{};
  record.kind = EventKind::kRead;
  record.size = 8;
  EXPECT_DEATH(writer.add(record), "reused after finish");
}

TEST(TraceRecorderDeathTest, SpentRecorderRefusesASecondTake) {
  const vm::Program program = two_function_program();
  {
    TraceRecorder recorder(program, tquad::LibraryPolicy::kExclude, TraceFormat::kV2);
    EXPECT_FALSE(recorder.take_encoded().empty());
    EXPECT_DEATH((void)recorder.take_encoded(), "recorder is spent");
  }
  {
    TraceRecorder recorder(program, tquad::LibraryPolicy::kExclude, TraceFormat::kV1);
    EXPECT_FALSE(recorder.take_encoded().empty());
    EXPECT_DEATH((void)recorder.take_encoded(), "recorder is spent");
    EXPECT_DEATH((void)recorder.take(), "recorder is spent");
  }
  {
    TraceRecorder recorder(program);
    (void)recorder.take();
    EXPECT_DEATH((void)recorder.take(), "recorder is spent");
    EXPECT_DEATH((void)recorder.take_encoded(), "recorder is spent");
  }
}

TEST(V2RoundTrip, EmptyTrace) {
  Trace trace;
  trace.kernel_count = 3;
  trace.total_retired = 99;
  const auto bytes = serialize_v2(trace);
  const TraceV2View view = TraceV2View::open(bytes);
  EXPECT_EQ(view.block_count(), 0u);
  EXPECT_EQ(view.record_count(), 0u);
  EXPECT_EQ(view.total_retired(), 99u);
  expect_records_equal(trace, Trace::deserialize(bytes));
}

TEST(V2RoundTrip, UndefinedFlagBitsAreRejectedAtEncode) {
  Trace trace;
  trace.kernel_count = 1;
  Record record{};
  record.kind = EventKind::kRead;
  record.size = 8;
  record.flags = 0xf0;  // outside the defined kFlag* set
  trace.records.push_back(record);
  EXPECT_THROW(serialize_v2(trace), Error);
}

TEST(V2RoundTrip, NonzeroReservedIsRejectedAtEncode) {
  // v2 has no bit for `reserved`; dropping it silently would make the
  // decoded record differ from the one written.
  Trace trace;
  trace.kernel_count = 1;
  Record record{};
  record.kind = EventKind::kRead;
  record.size = 8;
  record.reserved = 0x5a;
  trace.records.push_back(record);
  EXPECT_THROW(serialize_v2(trace), Error);
}

TEST(V2Writer, StreamingRecorderMatchesBatchEncoder) {
  // The streaming block writer inside TraceRecorder must produce the exact
  // bytes serialize_v2() produces for the buffered record array.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 1024);
  auto& kernel = prog.begin_function("kernel");
  kernel.movi(R{1}, static_cast<std::int64_t>(buf));
  kernel.count_loop_imm(R{2}, 0, 100, [&] {
    kernel.andi(R{3}, R{2}, 127);
    kernel.shli(R{3}, R{3}, 3);
    kernel.add(R{3}, R{3}, R{1});
    kernel.store(R{3}, 0, R{2}, 8);
    kernel.load(R{4}, R{3}, 0, 8);
  });
  kernel.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.count_loop_imm(R{28}, 0, 3, [&] { main_fn.call("kernel"); });
  main_fn.halt();
  const vm::Program program = prog.build("main");

  auto run = [&](TraceFormat format) {
    vm::HostEnv host;
    TraceRecorder recorder(program, tquad::LibraryPolicy::kExclude, format);
    testutil::profile_live(program, host, {&recorder});
    return recorder.take_encoded();
  };
  const auto streamed = run(TraceFormat::kV2);
  const Trace buffered = [&] {
    vm::HostEnv host;
    TraceRecorder recorder(program);
    testutil::profile_live(program, host, {&recorder});
    return recorder.take();
  }();
  EXPECT_GT(buffered.records.size(), 500u);
  EXPECT_EQ(streamed, serialize_v2(buffered));
  expect_records_equal(buffered, Trace::deserialize(streamed));
  // v1 take_encoded() keeps producing the flat format.
  const auto flat = run(TraceFormat::kV1);
  expect_records_equal(buffered, Trace::deserialize(flat));
}

TEST(V2Replay, RangeReplaySkipsThePrefix) {
  // Monotonic trace with known retired counts: replay_range must deliver
  // exactly the records in [lo, hi) and agree with a brute-force filter.
  Trace trace;
  trace.kernel_count = 4;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    Record record{};
    record.retired = i * 3;  // strictly increasing
    record.ea = 0x1000 + 8 * i;
    record.pc = static_cast<std::uint32_t>(i % 97);
    record.kernel = static_cast<std::uint16_t>(i % 4);
    record.func = record.kernel;
    record.kind = (i % 2) ? EventKind::kWrite : EventKind::kRead;
    record.size = 8;
    trace.records.push_back(record);
    trace.total_retired = record.retired;
  }
  const auto bytes = serialize_v2(trace, 128);
  const TraceV2View view = TraceV2View::open(bytes);

  struct CollectingSink : TraceSink {
    std::vector<Record> seen;
    void on_record(const Record& record) override { seen.push_back(record); }
  };

  SplitMix64 rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t lo = rng.next_below(trace.total_retired + 100);
    const std::uint64_t hi = lo + rng.next_below(trace.total_retired / 2);
    CollectingSink sink;
    const std::uint64_t delivered = replay_range(view, lo, hi, sink);
    std::vector<Record> expected;
    for (const Record& record : trace.records) {
      if (record.retired >= lo && record.retired < hi) expected.push_back(record);
    }
    ASSERT_EQ(delivered, expected.size()) << "[" << lo << ", " << hi << ")";
    ASSERT_EQ(sink.seen.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(record_eq(sink.seen[i], expected[i])) << "record " << i;
    }
  }

  // Seeking past the end touches nothing.
  CollectingSink sink;
  EXPECT_EQ(replay_range(view, trace.total_retired + 1, ~0ull, sink), 0u);
  EXPECT_EQ(view.first_block_at(trace.total_retired + 1), view.block_count());
  EXPECT_EQ(view.first_block_at(0), 0u);
}

TEST(V2Size, CompressesTheMixedProgramTrace) {
  // Not the headline stream-workload ratio (bench_trace_codec asserts that);
  // just a sanity floor for a generic trace.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 4096);
  auto& main_fn = prog.begin_function("main");
  main_fn.movi(R{1}, static_cast<std::int64_t>(buf));
  main_fn.count_loop_imm(R{2}, 0, 400, [&] {
    main_fn.andi(R{3}, R{2}, 255);
    main_fn.shli(R{3}, R{3}, 3);
    main_fn.add(R{3}, R{3}, R{1});
    main_fn.store(R{3}, 0, R{2}, 8);
  });
  main_fn.halt();
  const vm::Program program = prog.build("main");
  vm::HostEnv host;
  TraceRecorder recorder(program);
  testutil::profile_live(program, host, {&recorder});
  const Trace trace = recorder.take();
  const auto v1 = trace.serialize();
  const auto v2 = serialize_v2(trace);
  EXPECT_GT(v1.size(), 3 * v2.size())
      << "v1 " << v1.size() << " bytes vs v2 " << v2.size();
}

}  // namespace
}  // namespace tq::trace
