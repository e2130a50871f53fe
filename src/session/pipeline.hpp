// Parallel live-analysis pipeline.
//
// In serial mode ProfileSession drives every AnalysisConsumer inline on the
// VM thread; here the VM thread only *publishes*. One hub consumer stands
// in for all of them at the attribution. Each consumer gets a lane: a
// fixed-capacity SPSC ring of event batches, drained by a worker thread
// that replays them into the real tool. Per-consumer event order is exactly
// the serial order, and each tool's state is touched by exactly one thread,
// so reports come out byte-identical to the serial single pass.
//
// Accesses are not copied per lane. Each access span the attribution
// delivers is written once into a shared access block (consecutive spans
// are packed into one block, a span that does not fit is split across two).
// Every lane that reads accesses gets one small entry pointing at the span,
// in stream order with its enter/tick-run/ret/end entries, and the worker
// hands the span straight to the tool's on_access_batch. Block lifetime: a
// block is reference-counted by the span entries that point into it. The
// VM thread counts its entries locally and adds them once, when it seals
// the block (full, or at the drain barrier); each worker subtracts the
// entries it applied. Whoever brings the count to zero recycles the block
// into the pool's free list, so a steady run circulates a fixed set of
// blocks. The pool owns every block it ever allocated until the pipeline
// is destroyed, so a run that aborts with entries still unapplied leaks
// nothing.
//
// Backpressure: a lane batch is published once it covers `batch_events`
// events, a span counting as its number of accesses, and a full ring blocks
// the VM thread. So every lane holds at most `ring_batches` published
// batches plus one staging batch of about `batch_events` accesses, and the
// blocks in flight are bounded by what the slowest lane holds.
//
// The heaviest consumer, QUAD, additionally shards its per-address state:
// its access spans go to N shard lanes instead of one (N = one per worker
// by default), each shard drains on a worker and applies only the pieces of
// each access on its own 4 KiB pages (ShardClip in events.hpp: a
// page-crossing access is clipped per page and the piece on its first page
// carries the per-access count), and the shard states merge exactly at the
// drain barrier.
//
// on_finish is the barrier: the hub seals the open block, flushes and
// closes every ring, waits for the QUAD shards and folds them, then waits
// for each consumer's lane and only then lets the tool see the RunOutcome.
// EventSources call input_finish on every path — clean halt, guest trap,
// budget truncation — so a trap mid-run still drains completely and yields
// the exact-prefix PARTIAL reports the fault-tolerance contract promises.
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

struct PipelineOptions {
  PipelineMode mode = PipelineMode::kSerial;
  unsigned workers = 0;           ///< drain threads; 0 = hardware_concurrency
  /// Lane batch size, in events (an access span counts as its accesses),
  /// and the capacity of a shared access block, in accesses.
  std::size_t batch_events = 4096;
  std::size_t ring_batches = 8;     ///< ring capacity, in batches
  unsigned access_shards = 0;     ///< shards for sharded consumers; 0 = auto
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
  std::uint64_t freelist_hits = 0;    ///< access blocks reused from the pool
  /// Access blocks freshly allocated: the most blocks ever in flight.
  std::uint64_t freelist_misses = 0;
  unsigned rings = 0;
  unsigned workers = 0;
  unsigned access_shards = 0;
};

namespace detail {
class Hub;
class Lane;
class BlockPool;
}  // namespace detail

/// Owns the hub, the lanes, the rings, the block pool and the drain workers
/// for one profiled run. Lifecycle: construct, attach() every consumer,
/// start(), run the event source (the attribution's input_finish doubles as
/// the drain barrier), then destroy (joins the workers). The pipeline must
/// outlive the run.
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

  /// Add a consumer. Call once per consumer, before start(); consumers
  /// finish in attach order.
  void attach(AnalysisConsumer& target);

  /// Build the lanes, register the hub with `attribution` in place of the
  /// attached consumers and launch the drain workers. Call once, before
  /// the run.
  void start(KernelAttribution& attribution);

  /// Valid once the run's input_finish returned (all rings drained).
  PipelineStats stats() const;

 private:
  PipelineOptions options_;
  metrics::Registry* metrics_ = nullptr;
  std::vector<AnalysisConsumer*> targets_;
  unsigned workers_ = 1;
  unsigned access_shards_ = 1;
  bool started_ = false;
  // Destroyed bottom-up: the workers are joined (pool_) before the lanes
  // and blocks they read go away.
  std::unique_ptr<detail::BlockPool> blocks_;
  std::vector<std::unique_ptr<detail::Lane>> lanes_;
  std::unique_ptr<detail::Hub> hub_;
  std::vector<std::unique_ptr<Doorbell>> bells_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace tq::session
