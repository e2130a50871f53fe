#include "tquad/bandwidth.hpp"

#include <algorithm>
#include <utility>

namespace tq::tquad {

void KernelBandwidth::merge(const KernelBandwidth& other) {
  if (other.series.empty() && other.totals.empty()) return;
  // Two-pointer merge of the ascending sparse series; equal slice indices
  // (a slice cut by a shard boundary) fold by addition.
  std::vector<SliceSample> merged;
  merged.reserve(series.size() + other.series.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < series.size() || b < other.series.size()) {
    if (b == other.series.size() ||
        (a < series.size() && series[a].slice < other.series[b].slice)) {
      merged.push_back(series[a++]);
    } else if (a == series.size() || other.series[b].slice < series[a].slice) {
      merged.push_back(other.series[b++]);
    } else {
      SliceSample sample = series[a++];
      sample.counters.merge(other.series[b++].counters);
      merged.push_back(sample);
    }
  }
  series = std::move(merged);
  totals.merge(other.totals);
}

BandwidthRecorder::BandwidthRecorder(std::size_t kernel_count,
                                     std::uint64_t slice_interval)
    : kernels_(kernel_count), open_(kernel_count), slice_interval_(slice_interval) {
  TQUAD_CHECK(slice_interval_ > 0, "slice interval must be positive");
  // Start on slice 0, whose window needs no division.
  window_span_ = slice_interval_ - 1;
}

void BandwidthRecorder::move_window(std::uint64_t retired) {
  slice_ = retired / slice_interval_;
  window_start_ = slice_ * slice_interval_;
  window_span_ = std::min<std::uint64_t>(slice_interval_ - 1, ~window_start_);
  max_slice_ = std::max(max_slice_, slice_);
}

void BandwidthRecorder::flush_open(std::uint32_t kernel) {
  // No slice test: kNone is also slice 2^64 - 1 (interval 1), and a slice
  // that was never opened has empty counters.
  Open& open = open_[kernel];
  if (open.counters.empty()) return;
  kernels_[kernel].series.push_back(SliceSample{open.slice, open.counters});
  kernels_[kernel].totals.merge(open.counters);
}

void BandwidthRecorder::open_slice(std::uint32_t kernel) {
  flush_open(kernel);
  Open& open = open_[kernel];
  open.slice = slice_;
  open.counters.clear();
}

void BandwidthRecorder::finish() {
  if (finished_) return;
  finished_ = true;
  for (std::size_t k = 0; k < kernels_.size(); ++k) {
    flush_open(static_cast<std::uint32_t>(k));
    open_[k].slice = Open::kNone;
    open_[k].counters.clear();
  }
}

}  // namespace tq::tquad
