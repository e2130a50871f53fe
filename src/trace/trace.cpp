#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "trace/trace_v2.hpp"

namespace tq::trace {

Trace Trace::deserialize(std::span<const std::uint8_t> bytes) {
  return TraceV2View::open(bytes).decode_all();
}

// ---- TraceRecorder --------------------------------------------------------------

// Defined before its callers so the always_inline declaration can take effect.
inline void TraceRecorder::push(const Record& record) {
  last_retired_ = record.retired;
  writer_->add(record);
}

TraceRecorder::TraceRecorder(const vm::Program& program,
                             tquad::LibraryPolicy /*policy: see header*/,
                             TraceFormat /*format: see header*/)
    : writer_(std::make_unique<TraceV2Writer>(
          static_cast<std::uint32_t>(program.functions().size()))) {}

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
  encoded_ = writer_->finish(total_retired_);
  encoded_bytes_ = encoded_.size();
}

// The shared attribution pass already supplies the kernel on top of the
// stack and the stack-area classification, so these hooks just build the
// Records.

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
  total_retired_ = total_retired;
}

std::vector<std::uint8_t> TraceRecorder::take_encoded() {
  TQUAD_CHECK(!spent_, "recorder is spent");
  spent_ = true;
  finalize();
  return std::move(encoded_);
}

void TraceRecorder::publish_metrics(metrics::Registry& registry) const {
  registry.add("trace.write.records", writer_->record_count());
  registry.add("trace.write.bytes", encoded_bytes_);
  const std::uint64_t raw = writer_->record_count() * kRecordDiskBytes;
  registry.add("trace.write.raw_bytes", raw);
  if (encoded_bytes_ > 0) {
    registry.set_gauge("trace.write.compression_ratio_x1000",
                       raw * 1000 / encoded_bytes_);
  }
  registry.add("trace.write.crc_blocks", writer_->block_count());
}

// ---- OfflineBandwidth --------------------------------------------------------------

OfflineBandwidth::OfflineBandwidth(std::uint32_t kernel_count,
                                   std::uint64_t slice_interval)
    : kernels_(kernel_count), slice_interval_(slice_interval) {
  TQUAD_CHECK(slice_interval_ > 0, "slice interval must be positive");
}

namespace {

/// Accumulates record spans into per-kernel sample vectors with the same
/// open-slice logic as the online recorder. feed() is called once per
/// decoded block; finish() flushes the open slices.
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
        if (!slot.counters.empty()) {
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
      if (!open_[k].counters.empty()) {
        out_[k].push_back(tquad::SliceSample{open_[k].slice, open_[k].counters});
      }
    }
    return std::move(out_);
  }

 private:
  /// A kernel's open slice. Empty counters mean none is open, so every
  /// slice number, ~0ull included, is a real one.
  struct Open {
    std::uint64_t slice = 0;
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
    if (!dest.series.empty() && dest.series.back().slice == sample.slice) {
      dest.series.back().counters.merge(sample.counters);  // shard seam
    } else if (dest.series.empty() || dest.series.back().slice < sample.slice) {
      dest.series.push_back(sample);
    } else {
      // A decodable trace can still run backwards; the series must stay sorted.
      TQUAD_THROW("TQTR trace records out of order: kernel " +
                  std::to_string(kernel) + " goes back from slice " +
                  std::to_string(dest.series.back().slice) + " to " +
                  std::to_string(sample.slice));
    }
    max_slice_ = std::max(max_slice_, sample.slice);
    dest.totals.merge(sample.counters);
  }
}

void OfflineBandwidth::aggregate(const TraceV2View& view, std::size_t block_lo,
                                 std::size_t block_hi, ThreadPool& pool) {
  if (block_lo > block_hi || block_hi > view.block_count()) {
    TQUAD_THROW("TQTR block range [" + std::to_string(block_lo) + ", " +
                std::to_string(block_hi) + ") is outside the trace's " +
                std::to_string(view.block_count()) + " blocks");
  }
  if (block_lo == block_hi) return;
  const unsigned shards = static_cast<unsigned>(
      std::min<std::uint64_t>(pool.size(), block_hi - block_lo));
  std::vector<std::vector<std::vector<tquad::SliceSample>>> partials(shards);
  // Pool tasks must not throw; trap decode errors and rethrow on the caller.
  std::vector<std::exception_ptr> errors(shards);
  parallel_for_blocks(
      pool, block_lo, block_hi,
      [&](std::uint64_t begin, std::uint64_t end, unsigned shard) {
        try {
          SliceAccumulator acc(kernels_.size(), slice_interval_);
          for (std::uint64_t b = begin; b < end; ++b) {
            acc.feed(view.decode_block(b));
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
