#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "tquad/bandwidth.hpp"
#include "tquad/report.hpp"

namespace tq::tquad {
namespace {

TEST(BandwidthRecorder, AccountsBytesToCorrectSlices) {
  BandwidthRecorder rec(2, 100);  // 2 kernels, 100-instruction slices
  rec.on_access(0, 10, 8, /*is_read=*/true, /*is_stack=*/false);
  rec.on_access(0, 50, 4, true, true);
  rec.on_access(0, 150, 16, false, false);  // next slice
  rec.on_access(1, 150, 2, true, false);
  rec.finish();

  const KernelBandwidth& k0 = rec.kernel(0);
  ASSERT_EQ(k0.series.size(), 2u);
  EXPECT_EQ(k0.series[0].slice, 0u);
  EXPECT_EQ(k0.series[0].counters.read_incl, 12u);
  EXPECT_EQ(k0.series[0].counters.read_excl, 8u);  // the stack access excluded
  EXPECT_EQ(k0.series[0].counters.write_incl, 0u);
  EXPECT_EQ(k0.series[1].slice, 1u);
  EXPECT_EQ(k0.series[1].counters.write_incl, 16u);
  EXPECT_EQ(k0.series[1].counters.write_excl, 16u);
  EXPECT_EQ(k0.totals.read_incl, 12u);
  EXPECT_EQ(k0.totals.write_incl, 16u);

  const KernelBandwidth& k1 = rec.kernel(1);
  ASSERT_EQ(k1.series.size(), 1u);
  EXPECT_EQ(k1.series[0].slice, 1u);
  EXPECT_EQ(rec.max_slice(), 1u);
}

TEST(BandwidthRecorder, SkippedSlicesProduceNoSamples) {
  BandwidthRecorder rec(1, 10);
  rec.on_access(0, 5, 1, true, false);
  rec.on_access(0, 95, 1, true, false);   // slice 9; slices 1..8 silent
  rec.on_access(0, 9999, 1, true, false); // slice 999
  rec.finish();
  const KernelBandwidth& k = rec.kernel(0);
  ASSERT_EQ(k.series.size(), 3u);
  EXPECT_EQ(k.series[0].slice, 0u);
  EXPECT_EQ(k.series[1].slice, 9u);
  EXPECT_EQ(k.series[2].slice, 999u);
  EXPECT_EQ(k.active_slices(), 3u);
  EXPECT_EQ(k.first_active_slice(), 0u);
  EXPECT_EQ(k.last_active_slice(), 999u);
}

TEST(BandwidthRecorder, FinishIsIdempotentAndFlushes) {
  BandwidthRecorder rec(1, 100);
  rec.on_access(0, 42, 8, false, false);
  EXPECT_EQ(rec.kernel(0).series.size(), 0u);  // still buffered
  rec.finish();
  EXPECT_EQ(rec.kernel(0).series.size(), 1u);
  rec.finish();
  EXPECT_EQ(rec.kernel(0).series.size(), 1u);
}

TEST(BandwidthRecorder, SeriesAscendingBySlicePerKernel) {
  BandwidthRecorder rec(3, 7);
  // Interleave kernels at increasing times.
  for (std::uint64_t t = 0; t < 700; t += 13) {
    rec.on_access(t % 3, t, 4, t % 2 == 0, false);
  }
  rec.finish();
  for (std::uint32_t k = 0; k < 3; ++k) {
    const auto& series = rec.kernel(k).series;
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_LT(series[i - 1].slice, series[i].slice);
    }
  }
}

TEST(BandwidthStats, AveragesOverActiveSlicesOnly) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 0, 500, true, false);       // slice 0: 500 B read
  rec.on_access(0, 5000, 1500, true, false);   // slice 5: 1500 B read
  rec.on_access(0, 5100, 1000, false, true);   // slice 5: 1000 B stack write
  rec.finish();
  const BandwidthStats stats = bandwidth_stats(rec.kernel(0), 1000);
  EXPECT_EQ(stats.activity_span, 2u);
  EXPECT_EQ(stats.first_slice, 0u);
  EXPECT_EQ(stats.last_slice, 5u);
  // avg read incl = (500 + 1500) / (2 active slices * 1000 instr) = 1.0 B/i.
  EXPECT_DOUBLE_EQ(stats.avg_read_incl, 1.0);
  EXPECT_DOUBLE_EQ(stats.avg_read_excl, 1.0);
  EXPECT_DOUBLE_EQ(stats.avg_write_incl, 0.5);
  EXPECT_DOUBLE_EQ(stats.avg_write_excl, 0.0);
  // Peak slice is slice 5: (1500 + 1000) / 1000 = 2.5 B/i including stack.
  EXPECT_DOUBLE_EQ(stats.max_rw_incl, 2.5);
  EXPECT_DOUBLE_EQ(stats.max_rw_excl, 1.5);
}

TEST(BandwidthStats, EmptyKernel) {
  BandwidthRecorder rec(1, 10);
  rec.finish();
  const BandwidthStats stats = bandwidth_stats(rec.kernel(0), 10);
  EXPECT_EQ(stats.activity_span, 0u);
  EXPECT_EQ(stats.avg_read_incl, 0.0);
  EXPECT_EQ(stats.max_rw_incl, 0.0);
}

TEST(BandwidthRecorder, ZeroSliceIntervalAborts) {
  EXPECT_DEATH(BandwidthRecorder(1, 0), "slice interval");
}

/// Property: totals equal the sum over the series, per counter.
class BandwidthTotalsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthTotalsProperty, TotalsMatchSeriesSum) {
  const std::uint64_t interval = GetParam();
  BandwidthRecorder rec(4, interval);
  std::uint64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += 1 + (i % 37);
    rec.on_access(i % 4, t, 1 + (i % 9), i % 3 != 0, i % 5 == 0);
  }
  rec.finish();
  for (std::uint32_t k = 0; k < 4; ++k) {
    SliceCounters sum;
    for (const auto& sample : rec.kernel(k).series) sum.merge(sample.counters);
    const auto& totals = rec.kernel(k).totals;
    EXPECT_EQ(sum.read_incl, totals.read_incl);
    EXPECT_EQ(sum.read_excl, totals.read_excl);
    EXPECT_EQ(sum.write_incl, totals.write_incl);
    EXPECT_EQ(sum.write_excl, totals.write_excl);
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, BandwidthTotalsProperty,
                         ::testing::Values(1, 7, 100, 5000, 100000));

// Boundary placement: an access with retired == K * interval is the first
// instruction *of* slice K (retired counts instructions completed before the
// event), never the last of slice K-1.
TEST(BandwidthRecorder, BoundaryExactRetiredLandsInNewSlice) {
  for (std::uint64_t interval : {1ull, 7ull, 5000ull}) {
    SCOPED_TRACE("interval=" + std::to_string(interval));
    BandwidthRecorder rec(1, interval);
    for (std::uint64_t k : {0ull, 1ull, 3ull}) {
      rec.on_access(0, k * interval, 8, true, false);
    }
    rec.finish();
    // Three distinct slices — 0, 1 and 3 — one per boundary-exact access.
    const auto& series = rec.kernel(0).series;
    ASSERT_EQ(series.size(), 3u);
    for (std::size_t i = 0; i < series.size(); ++i) {
      EXPECT_EQ(series[i].slice, i < 2 ? i : 3u);
    }
  }
}

/// Property over adversarial random streams: for every kernel, the slice
/// series must partition the byte totals exactly — all four counters, with
/// accesses forced onto exact slice boundaries and long slice gaps mixed in.
class BandwidthRandomStreamProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BandwidthRandomStreamProperty, SeriesPartitionsRunningTotals) {
  const std::uint64_t interval = GetParam();
  constexpr std::uint32_t kKernels = 5;
  SplitMix64 rng(0x7157ull * interval + 1);
  BandwidthRecorder rec(kKernels, interval);
  SliceCounters expect[kKernels];
  std::map<std::pair<std::uint32_t, std::uint64_t>, SliceCounters> by_slice;

  std::uint64_t t = 0;
  for (int i = 0; i < 20000; ++i) {
    // Mostly small steps, occasionally a multi-slice jump, and one access in
    // eight pinned to an exact slice boundary (retired = K * interval).
    if (rng.next_below(8) == 0) {
      t = ((t / interval) + 1 + rng.next_below(3)) * interval;
    } else {
      t += rng.next_below(interval + 3);
    }
    const std::uint32_t kernel = static_cast<std::uint32_t>(rng.next_below(kKernels));
    const std::uint32_t bytes = 1 + static_cast<std::uint32_t>(rng.next_below(64));
    const bool is_read = rng.next_below(2) == 0;
    const bool is_stack = rng.next_below(4) == 0;
    rec.on_access(kernel, t, bytes, is_read, is_stack);
    SliceCounters c;
    (is_read ? c.read_incl : c.write_incl) = bytes;
    if (!is_stack) (is_read ? c.read_excl : c.write_excl) = bytes;
    expect[kernel].merge(c);
    by_slice[{kernel, t / interval}].merge(c);
  }
  rec.finish();

  for (std::uint32_t k = 0; k < kKernels; ++k) {
    SCOPED_TRACE("kernel=" + std::to_string(k));
    const KernelBandwidth& kernel = rec.kernel(k);
    SliceCounters sum;
    for (const auto& sample : kernel.series) {
      sum.merge(sample.counters);
      // Each flushed sample equals the independently tracked per-slice total.
      const auto it = by_slice.find({k, sample.slice});
      ASSERT_NE(it, by_slice.end()) << "phantom slice " << sample.slice;
      EXPECT_EQ(sample.counters.read_incl, it->second.read_incl);
      EXPECT_EQ(sample.counters.read_excl, it->second.read_excl);
      EXPECT_EQ(sample.counters.write_incl, it->second.write_incl);
      EXPECT_EQ(sample.counters.write_excl, it->second.write_excl);
    }
    EXPECT_EQ(sum.read_incl, expect[k].read_incl);
    EXPECT_EQ(sum.read_excl, expect[k].read_excl);
    EXPECT_EQ(sum.write_incl, expect[k].write_incl);
    EXPECT_EQ(sum.write_excl, expect[k].write_excl);
    EXPECT_EQ(kernel.totals.read_incl, expect[k].read_incl);
    EXPECT_EQ(kernel.totals.read_excl, expect[k].read_excl);
    EXPECT_EQ(kernel.totals.write_incl, expect[k].write_incl);
    EXPECT_EQ(kernel.totals.write_excl, expect[k].write_excl);
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, BandwidthRandomStreamProperty,
                         ::testing::Values(1, 7, 5000));

// The final-partial-slice fix: a run ending mid-slice must weight the tail
// by its true width, both in the averages' denominator and the tail slice's
// peak sample.
TEST(BandwidthStats, PartialFinalSliceWeightedByTrueWidth) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 100, 500, true, false);    // slice 0 (full)
  rec.on_access(0, 2050, 300, true, false);   // slice 2 (the tail)
  rec.finish();
  // The run retired 2100 instructions: slice 2 spans only 100 of them.
  const BandwidthStats stats = bandwidth_stats(rec.kernel(0), 1000, 2100);
  EXPECT_EQ(stats.activity_span, 2u);
  // denom = 1000 (slice 0) + 100 (tail) instead of 2000.
  EXPECT_DOUBLE_EQ(stats.avg_read_incl, 800.0 / 1100.0);
  // Tail peak: 300 bytes over 100 instructions = 3.0 B/i, beating slice 0's
  // 0.5 — under full-width weighting it would have been a wrong 0.5 peak.
  EXPECT_DOUBLE_EQ(stats.max_rw_incl, 3.0);
}

TEST(BandwidthStats, ExactMultipleRunHasNoTailCorrection) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 100, 500, true, false);
  rec.on_access(0, 1900, 300, true, false);
  rec.finish();
  // total_retired = 2000 ends exactly on the slice-2 boundary: the final
  // slice is slice 1 with full width, so the weighted stats equal the
  // unweighted ones.
  const BandwidthStats weighted = bandwidth_stats(rec.kernel(0), 1000, 2000);
  const BandwidthStats uniform = bandwidth_stats(rec.kernel(0), 1000);
  EXPECT_DOUBLE_EQ(weighted.avg_read_incl, uniform.avg_read_incl);
  EXPECT_DOUBLE_EQ(weighted.max_rw_incl, uniform.max_rw_incl);
  EXPECT_DOUBLE_EQ(weighted.avg_read_incl, 800.0 / 2000.0);
}

// A kernel whose last activity is *not* in the run's final slice keeps
// uniform weighting even when the run itself ends mid-slice.
TEST(BandwidthStats, KernelEndingBeforeTailUnaffected) {
  BandwidthRecorder rec(1, 1000);
  rec.on_access(0, 100, 500, true, false);  // slice 0 only
  rec.finish();
  const BandwidthStats weighted = bandwidth_stats(rec.kernel(0), 1000, 2100);
  const BandwidthStats uniform = bandwidth_stats(rec.kernel(0), 1000);
  EXPECT_DOUBLE_EQ(weighted.avg_read_incl, uniform.avg_read_incl);
  EXPECT_DOUBLE_EQ(weighted.max_rw_incl, uniform.max_rw_incl);
}

// ---- the slice window against a division-based reference -------------------

/// The recorder as it was written before the slice-window cache: one
/// division per access, totals grown on every access. The windowed recorder
/// must match it field for field on any access stream. (The old recorder
/// also kept an access at slice 2^64 - 1 out of the series, since that
/// slice equals its "no open slice" tag; both sides count it now.)
class DividingRecorder {
 public:
  DividingRecorder(std::size_t kernels, std::uint64_t interval)
      : kernels_(kernels), open_(kernels, {kNone, SliceCounters{}}),
        interval_(interval) {}

  void on_access(std::uint32_t kernel, std::uint64_t retired, std::uint32_t bytes,
                 bool is_read, bool is_stack) {
    const std::uint64_t slice = retired / interval_;
    max_slice_ = std::max(max_slice_, slice);
    auto& [open_slice, open] = open_[kernel];
    if (open_slice != slice) {
      if (!open.empty()) {
        kernels_[kernel].series.push_back(SliceSample{open_slice, open});
      }
      open_slice = slice;
      open.clear();
    }
    SliceCounters add;
    (is_read ? add.read_incl : add.write_incl) = bytes;
    if (!is_stack) (is_read ? add.read_excl : add.write_excl) = bytes;
    open.merge(add);
    kernels_[kernel].totals.merge(add);
  }

  void finish() {
    for (std::size_t k = 0; k < kernels_.size(); ++k) {
      if (!open_[k].second.empty()) {
        kernels_[k].series.push_back(SliceSample{open_[k].first, open_[k].second});
      }
    }
  }

  const KernelBandwidth& kernel(std::uint32_t k) const { return kernels_[k]; }
  std::uint64_t max_slice() const { return max_slice_; }

 private:
  static constexpr std::uint64_t kNone = ~0ull;
  std::vector<KernelBandwidth> kernels_;
  std::vector<std::pair<std::uint64_t, SliceCounters>> open_;  ///< slice, counters
  std::uint64_t interval_;
  std::uint64_t max_slice_ = 0;
};

bool counters_eq(const SliceCounters& a, const SliceCounters& b) {
  return a.read_incl == b.read_incl && a.read_excl == b.read_excl &&
         a.write_incl == b.write_incl && a.write_excl == b.write_excl;
}

/// Drives both recorders with one stream and compares everything.
void expect_matches_reference(std::uint32_t kernels, std::uint64_t interval,
                              std::uint64_t seed, int accesses,
                              std::uint64_t start) {
  SCOPED_TRACE("interval=" + std::to_string(interval) +
               " seed=" + std::to_string(seed));
  SplitMix64 rng(seed);
  BandwidthRecorder rec(kernels, interval);
  DividingRecorder ref(kernels, interval);
  // A few slices' worth of instructions, saturated for huge intervals.
  const std::uint64_t reach = interval <= ~0ull / 4 ? 4 * interval : ~0ull;
  std::uint64_t t = start;
  for (int i = 0; i < accesses; ++i) {
    switch (rng.next_below(16)) {
      case 0: t -= rng.next_below(reach); break;  // backwards
      case 1: t = ~0ull - rng.next_below(reach); break;  // near 2^64
      case 2: t += rng.next(); break;  // a wild jump, wrapping
      case 3: t = (t / interval + 1) * interval; break;  // exact boundary
      case 4: t = (t / interval + 1) * interval - 1; break;  // last of a slice
      default: t += rng.next_below(4); break;  // many kernels, one slice
    }
    const auto kernel = static_cast<std::uint32_t>(rng.next_below(kernels));
    const auto bytes = static_cast<std::uint32_t>(rng.next_below(65));
    const bool is_read = rng.next_below(2) == 0;
    const bool is_stack = rng.next_below(3) == 0;
    rec.on_access(kernel, t, bytes, is_read, is_stack);
    ref.on_access(kernel, t, bytes, is_read, is_stack);
  }
  rec.finish();
  ref.finish();
  EXPECT_EQ(rec.max_slice(), ref.max_slice());
  for (std::uint32_t k = 0; k < kernels; ++k) {
    SCOPED_TRACE("kernel=" + std::to_string(k));
    const KernelBandwidth& got = rec.kernel(k);
    const KernelBandwidth& want = ref.kernel(k);
    ASSERT_EQ(got.series.size(), want.series.size());
    for (std::size_t i = 0; i < got.series.size(); ++i) {
      ASSERT_EQ(got.series[i].slice, want.series[i].slice) << "sample " << i;
      ASSERT_TRUE(counters_eq(got.series[i].counters, want.series[i].counters))
          << "sample " << i;
    }
    EXPECT_TRUE(counters_eq(got.totals, want.totals));
    SliceCounters sum;
    for (const SliceSample& sample : got.series) sum.merge(sample.counters);
    EXPECT_TRUE(counters_eq(got.totals, sum));
  }
}

class SliceWindowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceWindowProperty, MatchesDivisionBasedReference) {
  const std::uint64_t interval = GetParam();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    expect_matches_reference(1 + static_cast<std::uint32_t>(seed % 6), interval,
                             seed * 0x9e37 + interval, 4000, 0);
    // The same near the top of the address space of `retired`.
    expect_matches_reference(4, interval, seed * 0x51ed + interval, 2000,
                             ~0ull - 5 * interval);
  }
}

INSTANTIATE_TEST_SUITE_P(Intervals, SliceWindowProperty,
                         ::testing::Values(1, 2, 3, 7, 100, 5000,
                                           (1ull << 63) + 1, ~0ull - 1, ~0ull));

TEST(SliceWindow, LastSliceBelowTwoToTheSixtyFour) {
  // 2^64 - 1 is not a multiple of 100, so the last slice's window is cut
  // short at the top of the range; its accesses must still land in it.
  BandwidthRecorder rec(1, 100);
  const std::uint64_t top = ~0ull;
  const std::uint64_t last_start = top / 100 * 100;
  rec.on_access(0, last_start, 1, true, false);
  rec.on_access(0, top, 2, true, false);
  rec.on_access(0, 0, 4, true, false);  // far backwards: slice 0
  rec.on_access(0, top - 1, 8, false, false);
  rec.finish();
  const auto& series = rec.kernel(0).series;
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].slice, top / 100);
  EXPECT_EQ(series[0].counters.read_incl, 3u);
  EXPECT_EQ(series[1].slice, 0u);
  EXPECT_EQ(series[2].slice, top / 100);
  EXPECT_EQ(series[2].counters.write_incl, 8u);
  EXPECT_EQ(rec.max_slice(), top / 100);
  EXPECT_EQ(rec.kernel(0).totals.read_incl, 7u);
  EXPECT_EQ(rec.kernel(0).totals.write_incl, 8u);
}

TEST(SliceWindow, TopSliceOfIntervalOneIsRecorded) {
  // With interval 1 the last slice, 2^64 - 1, is a real slice too.
  BandwidthRecorder rec(1, 1);
  rec.on_access(0, ~0ull, 8, true, false);
  rec.finish();
  ASSERT_EQ(rec.kernel(0).series.size(), 1u);
  EXPECT_EQ(rec.kernel(0).series[0].slice, ~0ull);
  EXPECT_EQ(rec.kernel(0).totals.read_incl, 8u);
}

TEST(SliceWindow, KernelsAlternatingInOneSlice) {
  BandwidthRecorder rec(3, 1000);
  for (std::uint64_t t = 0; t < 999; ++t) {
    rec.on_access(static_cast<std::uint32_t>(t % 3), t, 1, t % 2 == 0, false);
  }
  rec.finish();
  for (std::uint32_t k = 0; k < 3; ++k) {
    ASSERT_EQ(rec.kernel(k).series.size(), 1u);
    EXPECT_EQ(rec.kernel(k).series[0].slice, 0u);
    const SliceCounters& c = rec.kernel(k).series[0].counters;
    EXPECT_EQ(c.read_incl + c.write_incl, 333u);
    EXPECT_TRUE(counters_eq(rec.kernel(k).totals, c));
  }
  EXPECT_EQ(rec.max_slice(), 0u);
}

}  // namespace
}  // namespace tq::tquad
