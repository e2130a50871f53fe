// Time-sliced memory-bandwidth accounting — the heart of tQUAD.
//
// The time base is the retired-instruction count; a *time slice* is a span
// of `slice_interval` instructions (the paper sweeps 5'000 .. 1e8). For each
// kernel and each slice in which it touches memory, the recorder keeps bytes
// read and written, each split into stack-area and non-stack portions, so a
// single run answers every include/exclude-stack question the paper's
// separate runs answer.
//
// Storage is sparse: kernels accumulate into a current-slice buffer that is
// flushed into a (slice, counters) series when the slice advances — memory
// stays proportional to *active* kernel-slices, not to kernels × slices.
//
// The per-access path divides nothing: the recorder caches the current
// slice's window [start, start + interval) and recomputes it only when an
// access falls outside, and lifetime totals grow by whole flushed slices.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace tq::tquad {

/// Byte counters for one kernel in one slice. "incl" counts every access;
/// "excl" counts only non-stack accesses (paper: stack area excluded).
struct SliceCounters {
  std::uint64_t read_incl = 0;
  std::uint64_t read_excl = 0;
  std::uint64_t write_incl = 0;
  std::uint64_t write_excl = 0;

  bool empty() const noexcept {
    return read_incl == 0 && write_incl == 0;
  }
  void clear() noexcept { *this = SliceCounters{}; }
  void merge(const SliceCounters& other) noexcept {
    read_incl += other.read_incl;
    read_excl += other.read_excl;
    write_incl += other.write_incl;
    write_excl += other.write_excl;
  }
};

/// One flushed sample: kernel was active in `slice` with these counters.
struct SliceSample {
  std::uint64_t slice = 0;
  SliceCounters counters;
};

/// Per-kernel bandwidth series plus lifetime totals.
struct KernelBandwidth {
  std::vector<SliceSample> series;  ///< ascending by slice; only active slices
  SliceCounters totals;  ///< the sum of `series` (complete after finish())

  std::uint64_t first_active_slice() const noexcept {
    return series.empty() ? 0 : series.front().slice;
  }
  std::uint64_t last_active_slice() const noexcept {
    return series.empty() ? 0 : series.back().slice;
  }
  /// Number of slices in which the kernel touched memory (activity span
  /// column of Table IV).
  std::uint64_t active_slices() const noexcept { return series.size(); }

  /// Fold `other` (same kernel, same slice interval) into this series:
  /// samples for the same slice merge their counters, distinct slices
  /// interleave in ascending order. The operation is associative and
  /// commutative, so block-range shards of one trace merge into exactly
  /// the whole-trace series regardless of shard boundaries or order — the
  /// farm's fleet aggregation depends on that.
  void merge(const KernelBandwidth& other);
};

/// Records per-kernel, per-slice byte counts.
class BandwidthRecorder {
 public:
  BandwidthRecorder(std::size_t kernel_count, std::uint64_t slice_interval);

  std::uint64_t slice_interval() const noexcept { return slice_interval_; }

  /// Account a memory access of `bytes` by `kernel` at instruction-time
  /// `retired`. `is_stack` follows the SP-relative classification.
  void on_access(std::uint32_t kernel, std::uint64_t retired, std::uint32_t bytes,
                 bool is_read, bool is_stack) {
    TQUAD_DCHECK(kernel < kernels_.size(), "kernel id out of range");
    TQUAD_DCHECK(!finished_, "access after finish()");
    // Unsigned wrap sends a `retired` below the window start past the span.
    if (retired - window_start_ > window_span_) [[unlikely]] move_window(retired);
    Open& open = open_[kernel];
    if (open.slice != slice_) [[unlikely]] open_slice(kernel);
    if (is_read) {
      open.counters.read_incl += bytes;
      if (!is_stack) open.counters.read_excl += bytes;
    } else {
      open.counters.write_incl += bytes;
      if (!is_stack) open.counters.write_excl += bytes;
    }
  }

  /// Flush all open slice buffers; call once at program end. The series
  /// and totals are complete only after this.
  void finish();

  const KernelBandwidth& kernel(std::uint32_t id) const {
    TQUAD_CHECK(id < kernels_.size(), "kernel id out of range");
    return kernels_[id];
  }
  std::size_t kernel_count() const noexcept { return kernels_.size(); }

  /// Highest slice index seen (so reports know the timeline length).
  std::uint64_t max_slice() const noexcept { return max_slice_; }

 private:
  struct Open {
    std::uint64_t slice = kNone;
    SliceCounters counters;
    static constexpr std::uint64_t kNone = ~0ull;
  };

  /// Make `retired`'s slice the current one (the only division).
  void move_window(std::uint64_t retired);
  /// Flush `kernel`'s open slice into its series and totals, then open the
  /// current slice for it.
  void open_slice(std::uint32_t kernel);
  /// Append a non-empty open slice to the series and add it to the totals.
  void flush_open(std::uint32_t kernel);

  std::vector<KernelBandwidth> kernels_;
  std::vector<Open> open_;
  std::uint64_t slice_interval_;
  std::uint64_t max_slice_ = 0;
  // The current slice and its window [window_start_, window_start_ +
  // window_span_], the span clipped so the window's end never wraps.
  std::uint64_t slice_ = 0;
  std::uint64_t window_start_ = 0;
  std::uint64_t window_span_ = 0;
  bool finished_ = false;
};

}  // namespace tq::tquad
