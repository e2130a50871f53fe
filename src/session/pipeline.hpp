// Parallel live-analysis pipeline.
//
// In serial mode ProfileSession drives every AnalysisConsumer inline on the
// VM thread; here the VM thread only *publishes*: each consumer is wrapped
// in a lane that batches its attributed events and pushes the batches into a
// fixed-capacity SPSC ring, drained by a worker thread that replays them
// into the real tool. Per-consumer event order is exactly the serial order,
// and each tool's state is touched by exactly one thread, so reports come
// out byte-identical to the serial single pass. Access batches travel as
// single events and are regrouped on the worker into batches that keep the
// on_access_batch contract (one func, one kernel, at most the capacity).
//
// The heaviest consumer, QUAD, additionally shards its per-address state:
// access events are routed to N shard rings by 4 KiB page number (events
// that cross a page are split, with the per-access counter carried by the
// first piece only), each shard drains on its own worker, and the shard
// states merge exactly at the drain barrier. See ShardedAccessConsumer in
// events.hpp for the routing contract.
//
// on_finish is the barrier: every lane flushes its tail batch, closes its
// ring, waits until the worker has applied everything, and only then lets
// the wrapped tool see the RunOutcome. EventSources call input_finish on
// every path — clean halt, guest trap, budget truncation — so a trap
// mid-run still drains completely and yields the exact-prefix PARTIAL
// reports the fault-tolerance contract promises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "session/events.hpp"
#include "support/spsc_ring.hpp"
#include "support/thread_pool.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::session {

class KernelAttribution;

/// How a ProfileSession dispatches consumer accounting.
enum class PipelineMode : std::uint8_t {
  kSerial = 0,    ///< reference implementation: consumers run on the VM thread
  kParallel = 1,  ///< consumers drain SPSC event rings on worker threads
};

/// Batch-size controller policy for the lanes. kOccupancy is the production
/// policy; the forced schedules exist so tests can drive the batch size
/// through its whole range deterministically and prove reports stay
/// byte-identical regardless of how batches were cut.
enum class AdaptiveBatch : std::uint8_t {
  kOff = 0,        ///< fixed batch_events, the pre-adaptive behavior
  kOccupancy = 1,  ///< grow/shrink from observed ring occupancy (default)
  kForceGrow = 2,  ///< test schedule: grow to batch_events_max and stay
  kForceShrink = 3,  ///< test schedule: shrink to batch_events_min and stay
  kForceCycle = 4,   ///< test schedule: alternate grow-to-max / shrink-to-min
};

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kSerial;
  unsigned workers = 0;           ///< drain threads; 0 = hardware_concurrency
  std::size_t batch_events = 4096;  ///< starting batch size, in events
  std::size_t ring_batches = 8;     ///< starting ring capacity, in batches
  unsigned access_shards = 0;     ///< shards for sharded consumers; 0 = auto
  AdaptiveBatch adaptive = AdaptiveBatch::kOccupancy;
  std::size_t batch_events_min = 0;  ///< adaptive floor; 0 = batch_events/16
  std::size_t batch_events_max = 0;  ///< adaptive ceiling; 0 = 8*batch_events
  /// Ring capacity auto-tune ceiling, in batches; 0 = 4*ring_batches. Set
  /// equal to ring_batches to pin the capacity (backpressure tests do).
  std::size_t ring_batches_max = 0;
};

/// Post-run introspection (bench, tests, and the metrics registry): how
/// much flowed through the rings, how often and how long the publisher hit
/// backpressure, and what the drain barrier's shard fold cost.
struct PipelineStats {
  std::uint64_t batches_published = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t producer_stall_ns = 0;    ///< publisher wall time blocked on space
  std::uint64_t dropped_after_close = 0;  ///< pushes refused by abort close
  std::uint64_t ring_occupancy_high_water = 0;  ///< max batches queued, any ring
  std::uint64_t shard_fold_ns = 0;  ///< merge_shards() time at the drain barrier
  std::uint64_t batch_grows = 0;    ///< adaptive batch-size growth steps
  std::uint64_t batch_shrinks = 0;  ///< adaptive batch-size shrink steps
  std::uint64_t freelist_hits = 0;    ///< published batches that reused a buffer
  std::uint64_t freelist_misses = 0;  ///< published batches freshly allocated
  std::uint64_t ring_capacity_grows = 0;  ///< ring auto-tune growth steps
  unsigned rings = 0;
  unsigned workers = 0;
  unsigned access_shards = 0;
};

namespace detail {
class LaneBase;
class Drainable;
}  // namespace detail

/// Owns the lanes, the rings, and the drain workers for one profiled run.
/// Lifecycle: construct, attach() every consumer, start(), run the event
/// source (the attribution's input_finish doubles as the drain barrier),
/// then destroy (joins the workers). The pipeline must outlive the run.
class ParallelPipeline {
 public:
  /// `metrics` is optional: when set, each drain worker folds its batch
  /// counters/size histogram into the registry through a per-worker
  /// ThreadSink as it exits at the drain barrier.
  explicit ParallelPipeline(const PipelineOptions& options,
                            metrics::Registry* metrics = nullptr);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Wrap `target` in its lane(s) and register them with `attribution` in
  /// place of the target. Call once per consumer, before start().
  void attach(AnalysisConsumer& target, KernelAttribution& attribution);

  /// Launch the drain workers. Call after the last attach, before the run.
  void start();

  unsigned workers() const noexcept { return workers_; }
  unsigned access_shards() const noexcept { return access_shards_; }

  /// Valid once the run's input_finish returned (all rings drained).
  PipelineStats stats() const;

 private:
  PipelineOptions options_;
  metrics::Registry* metrics_ = nullptr;
  unsigned workers_ = 1;
  unsigned access_shards_ = 1;
  bool started_ = false;
  std::vector<std::unique_ptr<detail::LaneBase>> lanes_;
  std::vector<detail::Drainable*> drainables_;
  std::vector<std::unique_ptr<Doorbell>> bells_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tq::session
