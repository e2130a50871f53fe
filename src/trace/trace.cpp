#include "trace/trace.hpp"

#include <cstdio>
#include <exception>
#include <string>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "trace/trace_v2.hpp"
#include "trace/wire.hpp"
#include "vm/stack_addr.hpp"

namespace tq::trace {

namespace {

constexpr std::uint32_t kMagic = 0x52545154;  // "TQTR"
constexpr std::size_t kV1HeaderBytes = 32;

}  // namespace

// ---- Trace serialisation ------------------------------------------------------

void check_encodable(const Record& record, std::uint32_t kernel_count,
                     const char* format) {
  const char* why = nullptr;
  if (static_cast<std::uint8_t>(record.kind) >
      static_cast<std::uint8_t>(EventKind::kWrite)) {
    why = "record kind out of range";
  } else if (record.flags & ~v2_coding::kDefinedFlags) {
    why = "undefined flag bits are not representable";
  } else if (record.reserved != 0) {
    why = "nonzero reserved byte is not representable";
  } else if (record.kernel != kNoKernel16 && record.kernel >= kernel_count) {
    why = "record kernel id out of range";
  }
  if (why != nullptr) TQUAD_THROW(std::string(format) + ": " + why);
}

std::vector<std::uint8_t> Trace::serialize() const {
  for (const Record& record : records) {
    check_encodable(record, kernel_count, "TQTR v1");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kV1HeaderBytes + records.size() * kRecordDiskBytes);
  wire::put_u32(out, kMagic);
  wire::put_u32(out, static_cast<std::uint32_t>(TraceFormat::kV1));
  wire::put_u32(out, kernel_count);
  wire::put_u32(out, static_cast<std::uint32_t>(kRecordDiskBytes));
  wire::put_u64(out, total_retired);
  wire::put_u64(out, records.size());
  // Field-by-field, so the disk layout never inherits host struct padding.
  for (const Record& record : records) {
    wire::put_u64(out, record.retired);
    wire::put_u64(out, record.ea);
    wire::put_u32(out, record.pc);
    wire::put_u16(out, record.kernel);
    wire::put_u16(out, record.func);
    wire::put_u8(out, static_cast<std::uint8_t>(record.kind));
    wire::put_u8(out, record.size);
    wire::put_u8(out, record.flags);
    wire::put_u8(out, record.reserved);  // 0, checked above
  }
  return out;
}

Trace Trace::deserialize(std::span<const std::uint8_t> bytes) {
  wire::ByteReader header(bytes);
  if (bytes.size() < 8) TQUAD_THROW("TQTR trace too short for a header");
  if (header.u32() != kMagic) TQUAD_THROW("not a TQTR trace (bad magic)");
  const std::uint32_t version = header.u32();
  if ((version & 0xffffu) == static_cast<std::uint32_t>(TraceFormat::kV2)) {
    // v2.x (the minor lives in the high half; TraceV2View::open validates it).
    return TraceV2View::open(bytes).decode_all();
  }
  if (version != static_cast<std::uint32_t>(TraceFormat::kV1)) {
    TQUAD_THROW("unsupported TQTR version");
  }
  if (bytes.size() < kV1HeaderBytes) TQUAD_THROW("TQTR trace too short for a header");
  Trace trace;
  trace.kernel_count = header.u32();
  if (header.u32() != kRecordDiskBytes) {
    TQUAD_THROW("TQTR record size mismatch (incompatible producer)");
  }
  trace.total_retired = header.u64();
  const std::uint64_t count = header.u64();
  if (count > (bytes.size() - kV1HeaderBytes) / kRecordDiskBytes ||
      bytes.size() - kV1HeaderBytes != count * kRecordDiskBytes) {
    TQUAD_THROW("TQTR trace truncated");
  }
  wire::ByteReader reader(bytes.subspan(kV1HeaderBytes));
  trace.records.resize(count);
  for (Record& record : trace.records) {
    record.retired = reader.u64();
    record.ea = reader.u64();
    record.pc = reader.u32();
    record.kernel = reader.u16();
    record.func = reader.u16();
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(EventKind::kWrite)) {
      TQUAD_THROW("TQTR record with bad kind");
    }
    record.kind = static_cast<EventKind>(kind);
    record.size = reader.u8();
    record.flags = reader.u8();
    if (record.flags & ~v2_coding::kDefinedFlags) {
      TQUAD_THROW("TQTR record with undefined flag bits");
    }
    record.reserved = reader.u8();
    if (record.reserved != 0) TQUAD_THROW("TQTR record reserved byte is not zero");
    if (record.kernel != kNoKernel16 && record.kernel >= trace.kernel_count) {
      TQUAD_THROW("TQTR record kernel id out of range");
    }
  }
  return trace;
}

// ---- TraceRecorder --------------------------------------------------------------

// Defined before its callers so the always_inline declaration can take effect.
inline void TraceRecorder::push(const Record& record) {
  last_retired_ = record.retired;
  ++records_written_;
  if (writer_) {
    writer_->add(record);
  } else {
    trace_.records.push_back(record);
  }
}

TraceRecorder::TraceRecorder(const vm::Program& program, tquad::LibraryPolicy policy,
                             TraceFormat format)
    : stack_(program, policy) {
  trace_.kernel_count = static_cast<std::uint32_t>(program.functions().size());
  if (format == TraceFormat::kV2) {
    writer_ = std::make_unique<TraceV2Writer>(trace_.kernel_count);
  } else {
    trace_.records.reserve(1 << 16);
  }
}

TraceRecorder::~TraceRecorder() {
  // Never throw out of a destructor (the recorder may be unwinding with the
  // rest of a failed session): contain a failing final flush and report it.
  try {
    finalize();
  } catch (const std::exception& err) {
    std::fprintf(stderr, "TraceRecorder: finalize failed: %s\n", err.what());
  } catch (...) {
    std::fprintf(stderr, "TraceRecorder: finalize failed\n");
  }
}

void TraceRecorder::on_finish(const vm::RunOutcome& outcome) {
  (void)outcome;  // total_retired already arrived via on_session_end
  finalize();
}

void TraceRecorder::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (writer_) {
    encoded_ = writer_->finish(trace_.total_retired);
    encoded_bytes_ = encoded_.size();
    blocks_written_ = writer_->block_count();
  }
}

void TraceRecorder::on_rtn_enter(std::uint32_t func) {
  stack_.on_enter(func);
  Record record{};
  record.retired = last_retired_;
  record.ea = func;
  record.kernel = static_cast<std::uint16_t>(
      stack_.top() == tquad::kNoKernel ? kNoKernel16 : stack_.top());
  record.func = static_cast<std::uint16_t>(func);
  record.kind = EventKind::kEnter;
  push(record);
}

void TraceRecorder::on_instr(const vm::InstrEvent& event) {
  if (!event.executed) return;
  const std::uint32_t top = stack_.top();
  const std::uint16_t kernel =
      top == tquad::kNoKernel ? kNoKernel16 : static_cast<std::uint16_t>(top);

  auto emit = [&](EventKind kind, std::uint64_t ea, std::uint32_t size,
                  std::uint8_t flags) {
    Record record{};
    record.retired = event.retired;
    record.ea = ea;
    record.pc = event.pc;
    record.kernel = kernel;
    record.func = static_cast<std::uint16_t>(event.func);
    record.kind = kind;
    record.size = static_cast<std::uint8_t>(size);
    record.flags = flags;
    push(record);
  };

  if (event.read.size != 0) {
    std::uint8_t flags = 0;
    if (vm::is_stack_addr(event.read.ea, event.sp)) flags |= kFlagStackArea;
    if (event.prefetch) flags |= kFlagPrefetch;
    emit(EventKind::kRead, event.read.ea, event.read.size, flags);
  }
  if (event.write.size != 0) {
    std::uint8_t flags = 0;
    if (vm::is_stack_addr(event.write.ea, event.sp)) flags |= kFlagStackArea;
    emit(EventKind::kWrite, event.write.ea, event.write.size, flags);
  }
  if (isa::is_ret(event.ins->op)) {
    emit(EventKind::kRet, 0, 0, 0);
    stack_.on_ret(event.func);
  }
}

void TraceRecorder::on_program_end(std::uint64_t retired) {
  trace_.total_retired = retired;
}

// ---- session-mode consumer ------------------------------------------------------
//
// The shared attribution pass already supplies the kernel on top of the
// stack and the stack-area classification, so these overrides just build
// the same Records the standalone listener would: byte-identical output.

namespace {

std::uint16_t kernel16(std::uint32_t kernel) noexcept {
  return kernel == tquad::kNoKernel ? kNoKernel16
                                    : static_cast<std::uint16_t>(kernel);
}

}  // namespace

void TraceRecorder::on_kernel_enter(const session::EnterEvent& event) {
  Record record{};
  record.retired = last_retired_;
  record.ea = event.func;
  record.kernel = kernel16(event.kernel);
  record.func = static_cast<std::uint16_t>(event.func);
  record.kind = EventKind::kEnter;
  push(record);
}

void TraceRecorder::on_access_batch(std::span<const session::AccessEvent> batch) {
  if (batch.empty()) return;
  Record record{};
  // One kernel per batch (the AnalysisConsumer contract).
  record.kernel = kernel16(batch.front().kernel);
  for (const session::AccessEvent& event : batch) {
    record.retired = event.retired;
    record.ea = event.ea;
    record.pc = event.pc;
    record.func = static_cast<std::uint16_t>(event.func);
    record.kind = event.is_read ? EventKind::kRead : EventKind::kWrite;
    record.size = static_cast<std::uint8_t>(event.size);
    record.flags = static_cast<std::uint8_t>(
        (event.is_stack ? kFlagStackArea : 0) |
        (event.is_prefetch ? kFlagPrefetch : 0));
    push(record);
  }
}

void TraceRecorder::on_kernel_ret(const session::RetEvent& event) {
  Record record{};
  record.retired = event.retired;
  record.pc = event.pc;
  record.kernel = kernel16(event.kernel);
  record.func = static_cast<std::uint16_t>(event.func);
  record.kind = EventKind::kRet;
  push(record);
}

void TraceRecorder::on_session_end(std::uint64_t total_retired) {
  trace_.total_retired = total_retired;
}

Trace TraceRecorder::take() {
  TQUAD_CHECK(!writer_, "take() needs a v1 recorder; v2 mode streamed the records");
  TQUAD_CHECK(!spent_, "recorder is spent");
  spent_ = true;
  return std::move(trace_);
}

std::vector<std::uint8_t> TraceRecorder::take_encoded() {
  if (!writer_) {
    std::vector<std::uint8_t> bytes = take().serialize();
    encoded_bytes_ = bytes.size();
    return bytes;
  }
  TQUAD_CHECK(!spent_, "recorder is spent");
  spent_ = true;
  finalize();
  return std::move(encoded_);
}

void TraceRecorder::publish_metrics(metrics::Registry& registry) const {
  registry.add("trace.write.records", records_written_);
  registry.add("trace.write.bytes", encoded_bytes_);
  const std::uint64_t raw = records_written_ * kRecordDiskBytes;
  registry.add("trace.write.raw_bytes", raw);
  if (encoded_bytes_ > 0) {
    registry.set_gauge("trace.write.compression_ratio_x1000",
                       raw * 1000 / encoded_bytes_);
  }
  registry.add("trace.write.crc_blocks", blocks_written_);
}

// ---- replay ----------------------------------------------------------------------

void replay(const Trace& trace, TraceSink& sink) {
  for (const Record& record : trace.records) {
    sink.on_record(record);
  }
  sink.on_end(trace);
}

// ---- OfflineBandwidth --------------------------------------------------------------

OfflineBandwidth::OfflineBandwidth(std::uint32_t kernel_count,
                                   std::uint64_t slice_interval)
    : kernels_(kernel_count), slice_interval_(slice_interval) {
  TQUAD_CHECK(slice_interval_ > 0, "slice interval must be positive");
}

namespace {

/// Accumulates record spans into per-kernel sample vectors with the same
/// open-slice logic as the online recorder. feed() may be called repeatedly
/// (v2 aggregation feeds one decoded block at a time); finish() flushes the
/// open slices.
class SliceAccumulator {
 public:
  SliceAccumulator(std::size_t kernel_count, std::uint64_t slice_interval)
      : out_(kernel_count), open_(kernel_count), slice_interval_(slice_interval) {}

  void feed(std::span<const Record> records) {
    for (const Record& record : records) {
      if (record.kernel == kNoKernel16) continue;
      if (record.kind != EventKind::kRead && record.kind != EventKind::kWrite) {
        continue;
      }
      if (record.flags & kFlagPrefetch) continue;  // paper: skip prefetches
      TQUAD_DCHECK(record.kernel < out_.size(), "kernel id out of range in trace");
      const std::uint64_t slice = record.retired / slice_interval_;
      Open& slot = open_[record.kernel];
      if (slot.slice != slice) {
        if (slot.slice != ~0ull && !slot.counters.empty()) {
          out_[record.kernel].push_back(tquad::SliceSample{slot.slice, slot.counters});
        }
        slot.slice = slice;
        slot.counters.clear();
      }
      const bool stack_area = record.flags & kFlagStackArea;
      if (record.kind == EventKind::kRead) {
        slot.counters.read_incl += record.size;
        if (!stack_area) slot.counters.read_excl += record.size;
      } else {
        slot.counters.write_incl += record.size;
        if (!stack_area) slot.counters.write_excl += record.size;
      }
    }
  }

  std::vector<std::vector<tquad::SliceSample>> finish() {
    for (std::size_t k = 0; k < out_.size(); ++k) {
      if (open_[k].slice != ~0ull && !open_[k].counters.empty()) {
        out_[k].push_back(tquad::SliceSample{open_[k].slice, open_[k].counters});
      }
    }
    return std::move(out_);
  }

 private:
  struct Open {
    std::uint64_t slice = ~0ull;
    tquad::SliceCounters counters;
  };

  std::vector<std::vector<tquad::SliceSample>> out_;
  std::vector<Open> open_;
  std::uint64_t slice_interval_;
};

}  // namespace

void OfflineBandwidth::merge_partial(std::uint32_t kernel,
                                     std::vector<tquad::SliceSample>&& samples) {
  auto& dest = kernels_[kernel];
  for (auto& sample : samples) {
    max_slice_ = std::max(max_slice_, sample.slice);
    dest.totals.merge(sample.counters);
    if (!dest.series.empty() && dest.series.back().slice == sample.slice) {
      dest.series.back().counters.merge(sample.counters);  // shard seam
    } else {
      TQUAD_DCHECK(dest.series.empty() || dest.series.back().slice < sample.slice,
                   "trace records out of order");
      dest.series.push_back(sample);
    }
  }
}

void OfflineBandwidth::aggregate(const Trace& trace) {
  SliceAccumulator acc(kernels_.size(), slice_interval_);
  acc.feed(trace.records);
  auto samples = acc.finish();
  for (std::uint32_t k = 0; k < kernels_.size(); ++k) {
    merge_partial(k, std::move(samples[k]));
  }
}

void OfflineBandwidth::aggregate_parallel(const Trace& trace, ThreadPool& pool) {
  const std::uint64_t total = trace.records.size();
  if (total == 0) return;
  const unsigned blocks =
      static_cast<unsigned>(std::min<std::uint64_t>(pool.size(), total));
  std::vector<std::vector<std::vector<tquad::SliceSample>>> partials(blocks);
  parallel_for_blocks(
      pool, 0, total,
      [&](std::uint64_t begin, std::uint64_t end, unsigned block) {
        SliceAccumulator acc(kernels_.size(), slice_interval_);
        acc.feed(std::span<const Record>(trace.records.data() + begin, end - begin));
        partials[block] = acc.finish();
      });
  for (unsigned block = 0; block < blocks; ++block) {
    for (std::uint32_t k = 0; k < kernels_.size(); ++k) {
      merge_partial(k, std::move(partials[block][k]));
    }
  }
}

void OfflineBandwidth::aggregate_parallel(const TraceV2View& view, ThreadPool& pool) {
  const std::uint64_t total = view.block_count();
  if (total == 0) return;
  const unsigned shards =
      static_cast<unsigned>(std::min<std::uint64_t>(pool.size(), total));
  std::vector<std::vector<std::vector<tquad::SliceSample>>> partials(shards);
  // Pool tasks must not throw; trap decode errors and rethrow on the caller.
  std::vector<std::exception_ptr> errors(shards);
  parallel_for_blocks(
      pool, 0, total,
      [&](std::uint64_t begin, std::uint64_t end, unsigned shard) {
        try {
          SliceAccumulator acc(kernels_.size(), slice_interval_);
          for (std::uint64_t b = begin; b < end; ++b) {
            const std::vector<Record> records = view.decode_block(b);
            acc.feed(records);
          }
          partials[shard] = acc.finish();
        } catch (...) {
          errors[shard] = std::current_exception();
        }
      });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (unsigned shard = 0; shard < shards; ++shard) {
    for (std::uint32_t k = 0; k < kernels_.size(); ++k) {
      merge_partial(k, std::move(partials[shard][k]));
    }
  }
}

const tquad::KernelBandwidth& OfflineBandwidth::kernel(std::uint32_t id) const {
  TQUAD_CHECK(id < kernels_.size(), "kernel id out of range");
  return kernels_[id];
}

}  // namespace tq::trace
