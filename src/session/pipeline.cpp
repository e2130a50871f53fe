#include "session/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "session/attribution.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace tq::session {
namespace detail {

/// Per-worker metric slots, resolved once from the worker's ThreadSink so
/// pump() only touches plain thread-local memory. Null pointers mean
/// metrics are disabled for the run.
struct WorkerMetrics {
  metrics::ThreadSink::Counter* batches = nullptr;
  metrics::Histogram* batch_events = nullptr;
};

// ---------------------------------------------------------------------------
// Shared access blocks. The VM thread fills the open block span by span;
// `refs` follows the protocol described in pipeline.hpp: it goes negative
// while workers release entries of a block that is still open, the seal
// adds the VM thread's entry count, and the one party that brings it to
// zero recycles the block.

struct AccessBlock {
  explicit AccessBlock(std::size_t capacity) : events(capacity) {}

  std::vector<AccessEvent> events;
  std::size_t used = 0;           ///< VM thread only, while the block is open
  std::int64_t entries = 0;       ///< VM thread only: span entries handed out
  /// Own cache line: workers release while the VM thread still appends.
  alignas(64) std::atomic<std::int64_t> refs{0};
};

class BlockPool {
 public:
  explicit BlockPool(std::size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

  std::size_t capacity() const noexcept { return capacity_; }

  /// VM thread: an empty block, recycled when one is free.
  AccessBlock* acquire() {
    AccessBlock* block = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        block = free_.back();
        free_.pop_back();
      }
    }
    if (block != nullptr) {
      ++hits_;
    } else {
      ++misses_;
      owned_.push_back(std::make_unique<AccessBlock>(capacity_));
      block = owned_.back().get();
    }
    block->used = 0;
    block->entries = 0;
    return block;
  }

  /// VM thread: no more entries will point into `block`.
  void seal(AccessBlock* block) {
    const std::int64_t entries = block->entries;
    if (block->refs.fetch_add(entries, std::memory_order_acq_rel) + entries == 0) {
      recycle(block);
    }
  }

  /// Worker: `n` entries pointing into `block` were applied.
  void release(AccessBlock* block, std::int64_t n) {
    if (block->refs.fetch_sub(n, std::memory_order_acq_rel) == n) recycle(block);
  }

  void add_stats(PipelineStats& stats) const {
    stats.freelist_hits += hits_;
    stats.freelist_misses += misses_;
  }

 private:
  void recycle(AccessBlock* block) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(block);
  }

  const std::size_t capacity_;
  std::mutex mutex_;
  std::vector<AccessBlock*> free_;  ///< guarded by mutex_
  std::vector<std::unique_ptr<AccessBlock>> owned_;  ///< VM thread; freed last
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

// ---------------------------------------------------------------------------
// Lane entries on the wire: a tagged union of the attributed event structs
// (all trivially copyable PODs) and span references into access blocks.
// kEnd carries the total retired count of on_session_end, so the marker
// rides the ring in stream position and the wrapped tool's end accounting
// runs on its drain worker like every other event.

struct SpanRef {
  const AccessEvent* first;  ///< into block->events, so workers read no header
  AccessBlock* block;
  std::uint32_t count;
};

struct LaneEvent {
  enum class Kind : std::uint8_t { kEnter, kTickRun, kAccessSpan, kRet, kEnd };

  Kind kind = Kind::kEnd;
  union Payload {
    EnterEvent enter;
    TickRunEvent run;
    SpanRef span;
    RetEvent ret;
    std::uint64_t total_retired;
    Payload() : total_retired(0) {}
  } u;

  std::span<const AccessEvent> accesses() const {
    return {u.span.first, u.span.count};
  }
};

using Batch = std::vector<LaneEvent>;

// ---------------------------------------------------------------------------
// Lane: one ring of LaneEvent batches and its worker-side replay. The
// publisher side is driven by the Hub; the worker side applies each popped
// batch through apply() and then releases the batch's span entries, one
// release per run of entries into the same block. Once the ring is closed
// and empty the lane marks itself drained, with the mutex/cv handshake that
// gives the publisher its happens-before edge on the wrapped tool's state.

class Lane {
 public:
  virtual ~Lane() = default;

  Lane(const PipelineOptions& options, BlockPool& blocks)
      : batch_events_(options.batch_events > 0 ? options.batch_events : 1),
        ring_(options.ring_batches > 0 ? options.ring_batches : 1),
        blocks_(blocks) {}

  // -- publisher side (VM thread) --
  LaneEvent& append(LaneEvent::Kind kind) {
    LaneEvent& slot = stage(1);
    slot.kind = kind;
    return slot;
  }
  /// A span stands for its accesses towards the batch size, which bounds
  /// the accesses (and so the blocks) one batch pins.
  void append_span(const SpanRef& span) {
    LaneEvent& slot = stage(span.count);
    slot.kind = LaneEvent::Kind::kAccessSpan;
    slot.u.span = span;
  }
  /// Publish the staging batch (no-op when empty); blocks while the ring
  /// is full.
  void flush() {
    if (staging_.empty()) return;
    Batch batch;
    batch.swap(staging_);
    weight_ = 0;
    ring_.push(std::move(batch));
  }
  void flush_and_close() {
    flush();
    ring_.close();
  }
  /// Abort path (run threw before input_finish): close the ring so the
  /// worker can exit; nobody reads the tools afterwards.
  void abort_close() { ring_.close(); }

  void add_stats(PipelineStats& stats) const {
    const auto rs = ring_.stats();
    stats.batches_published += rs.pushes;
    stats.backpressure_waits += rs.push_waits;
    stats.producer_stall_ns += rs.stall_ns;
    stats.dropped_after_close += rs.dropped_after_close;
    if (rs.occupancy_high_water > stats.ring_occupancy_high_water) {
      stats.ring_occupancy_high_water = rs.occupancy_high_water;
    }
    ++stats.rings;
  }

  /// Wire the ring to its worker's doorbell (before any push).
  void set_bell(Doorbell* bell) { ring_.set_doorbell(bell); }

  bool drained() const noexcept { return drained_.load(std::memory_order_acquire); }

  /// Publisher (the drain barrier): block until the worker applied
  /// everything up to the ring's close.
  void wait_drained() {
    std::unique_lock<std::mutex> lock(drained_mutex_);
    drained_cv_.wait(lock, [&] { return drained_.load(std::memory_order_acquire); });
  }

  // -- worker side --

  /// Apply available batches; true if any work was done.
  bool pump(const WorkerMetrics& wm) {
    bool progress = false;
    Batch batch;
    // Cap the pops per call so sibling lanes on the same worker get a turn.
    for (std::size_t i = 0; i < ring_.capacity() && ring_.try_pop(batch); ++i) {
      if (wm.batches != nullptr) {
        wm.batches->add(1);
        wm.batch_events->observe(batch.size());
      }
      apply(batch);
      release_spans(batch);
      progress = true;
    }
    if (!drained() && ring_.done()) mark_drained();
    return progress;
  }

 protected:
  virtual void apply(const Batch& batch) = 0;

 private:
  void mark_drained() {
    {
      std::lock_guard<std::mutex> lock(drained_mutex_);
      drained_.store(true, std::memory_order_release);
    }
    drained_cv_.notify_all();
  }

  LaneEvent& stage(std::size_t weight) {
    if (weight_ >= batch_events_) flush();
    weight_ += weight;
    return staging_.emplace_back();
  }

  void release_spans(const Batch& batch) {
    AccessBlock* block = nullptr;
    std::int64_t pending = 0;
    for (const LaneEvent& event : batch) {
      if (event.kind != LaneEvent::Kind::kAccessSpan) continue;
      if (event.u.span.block != block) {
        if (pending != 0) blocks_.release(block, pending);
        block = event.u.span.block;
        pending = 0;
      }
      ++pending;
    }
    if (pending != 0) blocks_.release(block, pending);
  }

  const std::size_t batch_events_;
  Batch staging_;            ///< VM thread
  std::size_t weight_ = 0;   ///< events staging_ stands for
  SpscRing<Batch> ring_;
  BlockPool& blocks_;
  std::atomic<bool> drained_{false};
  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;
};

/// The general consumer lane: replays every entry into the tool; access
/// spans go straight to on_access_batch (a span keeps its contract: one
/// func, one kernel, at most kAccessBatchCapacity accesses).
class ConsumerLane final : public Lane {
 public:
  ConsumerLane(AnalysisConsumer& target, unsigned interests,
               const PipelineOptions& options, BlockPool& blocks)
      : Lane(options, blocks), target_(target), interests_(interests) {}

  AnalysisConsumer& target() const noexcept { return target_; }
  unsigned interests() const noexcept { return interests_; }

 private:
  void apply(const Batch& batch) override {
    for (const LaneEvent& event : batch) {
      switch (event.kind) {
        case LaneEvent::Kind::kEnter:
          target_.on_kernel_enter(event.u.enter);
          break;
        case LaneEvent::Kind::kTickRun:
          target_.on_tick_run(event.u.run);
          break;
        case LaneEvent::Kind::kAccessSpan:
          target_.on_access_batch(event.accesses());
          break;
        case LaneEvent::Kind::kRet:
          target_.on_kernel_ret(event.u.ret);
          break;
        case LaneEvent::Kind::kEnd:
          target_.on_session_end(event.u.total_retired);
          break;
      }
    }
  }

  AnalysisConsumer& target_;
  const unsigned interests_;
};

/// One address shard of a sharded consumer: it reads every access span and
/// applies its own pages' part (ShardClip).
class ShardLane final : public Lane {
 public:
  ShardLane(ShardedAccessConsumer& sharded, unsigned shard, unsigned shards,
            const PipelineOptions& options, BlockPool& blocks)
      : Lane(options, blocks), sharded_(sharded), shard_(shard), shards_(shards) {}

 private:
  void apply(const Batch& batch) override {
    for (const LaneEvent& event : batch) {
      sharded_.apply_access_batch_shard(shard_, shards_, event.accesses());
    }
  }

  ShardedAccessConsumer& sharded_;
  const unsigned shard_;
  const unsigned shards_;
};

// ---------------------------------------------------------------------------
// Hub: the one consumer the attribution sees. It forwards each event to the
// lanes subscribed to its kind, writes each access span once into the open
// block, and runs the drain barrier at on_finish.

class Hub final : public AnalysisConsumer {
 public:
  explicit Hub(BlockPool& blocks) : blocks_(blocks) {}

  /// A consumer lane, in attach order.
  void add_consumer(ConsumerLane& lane) {
    consumers_.push_back(&lane);
    const unsigned interests = lane.interests();
    interests_ |= interests;
    if (interests & kEnterInterest) enter_lanes_.push_back(&lane);
    if (interests & kTickInterest) tick_lanes_.push_back(&lane);
    if (interests & kAccessInterest) access_lanes_.push_back(&lane);
    if (interests & kRetInterest) ret_lanes_.push_back(&lane);
  }

  /// The shard lanes of one sharded consumer; they read every access span.
  void add_shards(ShardedAccessConsumer& sharded, std::vector<ShardLane*> shards) {
    interests_ |= kAccessInterest;
    for (ShardLane* shard : shards) access_lanes_.push_back(shard);
    sharded_.push_back({&sharded, std::move(shards)});
  }

  std::uint64_t shard_fold_ns() const noexcept { return fold_ns_; }

  // -- publisher side (VM thread) --
  unsigned event_interests() const override { return interests_; }

  void on_kernel_enter(const EnterEvent& event) override {
    for (Lane* lane : enter_lanes_) {
      lane->append(LaneEvent::Kind::kEnter).u.enter = event;
    }
  }
  // The attribution delivers ticks only as runs (there is no on_tick).
  void on_tick_run(const TickRunEvent& run) override {
    for (Lane* lane : tick_lanes_) {
      lane->append(LaneEvent::Kind::kTickRun).u.run = run;
    }
  }
  void on_access_batch(std::span<const AccessEvent> batch) override {
    std::size_t done = 0;
    while (done < batch.size()) {
      if (open_ == nullptr || open_->used == blocks_.capacity()) next_block();
      const std::size_t take =
          std::min(batch.size() - done, blocks_.capacity() - open_->used);
      std::copy_n(batch.data() + done, take, open_->events.data() + open_->used);
      const SpanRef span{open_->events.data() + open_->used, open_,
                         static_cast<std::uint32_t>(take)};
      open_->used += take;
      open_->entries += static_cast<std::int64_t>(access_lanes_.size());
      for (Lane* lane : access_lanes_) lane->append_span(span);
      done += take;
    }
  }
  void on_kernel_ret(const RetEvent& event) override {
    for (Lane* lane : ret_lanes_) {
      lane->append(LaneEvent::Kind::kRet).u.ret = event;
    }
  }
  void on_session_end(std::uint64_t total_retired) override {
    for (Lane* lane : consumers_) {
      lane->append(LaneEvent::Kind::kEnd).u.total_retired = total_retired;
    }
  }

  void on_finish(const vm::RunOutcome& outcome) override {
    seal_open();
    for (ConsumerLane* lane : consumers_) lane->flush_and_close();
    for (auto& group : sharded_) {
      for (ShardLane* shard : group.shards) shard->flush_and_close();
    }
    // Fold every sharded consumer's replicas before any consumer's
    // on_finish: a tool finalizes with its complete accounting.
    for (auto& group : sharded_) {
      for (ShardLane* shard : group.shards) shard->wait_drained();
      const auto fold_start = std::chrono::steady_clock::now();
      group.consumer->merge_shards();
      fold_ns_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - fold_start)
              .count());
    }
    // The drain barrier passed: the workers applied the whole stream, so
    // each tool finalizes with complete (possibly prefix-exact partial)
    // state.
    for (ConsumerLane* lane : consumers_) {
      lane->wait_drained();
      lane->target().on_finish(outcome);
    }
  }

 private:
  struct ShardGroup {
    ShardedAccessConsumer* consumer;
    std::vector<ShardLane*> shards;
  };

  void next_block() {
    seal_open();
    open_ = blocks_.acquire();
  }

  void seal_open() {
    if (open_ == nullptr) return;
    blocks_.seal(open_);
    open_ = nullptr;
  }

  BlockPool& blocks_;
  AccessBlock* open_ = nullptr;  ///< the block spans are written into
  unsigned interests_ = 0;
  std::vector<ConsumerLane*> consumers_;  ///< attach order (end, finish)
  std::vector<Lane*> enter_lanes_;
  std::vector<Lane*> tick_lanes_;
  std::vector<Lane*> access_lanes_;
  std::vector<Lane*> ret_lanes_;
  std::vector<ShardGroup> sharded_;
  std::uint64_t fold_ns_ = 0;  ///< written at the drain barrier, read after
};

}  // namespace detail

// ---------------------------------------------------------------------------
// ParallelPipeline

namespace {

unsigned effective_workers(const PipelineOptions& options) {
  if (options.workers != 0) return options.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ParallelPipeline::ParallelPipeline(const PipelineOptions& options,
                                   metrics::Registry* metrics)
    : options_(options), metrics_(metrics), workers_(effective_workers(options)) {
  TQUAD_CHECK(options.mode == PipelineMode::kParallel,
              "ParallelPipeline constructed in serial mode");
  blocks_ = std::make_unique<detail::BlockPool>(options_.batch_events);
  hub_ = std::make_unique<detail::Hub>(*blocks_);
}

ParallelPipeline::~ParallelPipeline() {
  // Abort path: if the run threw before input_finish, the rings never
  // closed and the workers would wait forever. Close everything (idempotent
  // after a clean drain), then join via the pool's destructor, before the
  // lanes and blocks the workers read are destroyed.
  for (auto& lane : lanes_) lane->abort_close();
  pool_.reset();
}

void ParallelPipeline::attach(AnalysisConsumer& target) {
  TQUAD_CHECK(!started_, "attach after start");
  targets_.push_back(&target);
}

void ParallelPipeline::start(KernelAttribution& attribution) {
  TQUAD_CHECK(!started_, "pipeline already started");
  started_ = true;
  if (targets_.empty()) return;
  access_shards_ = std::clamp(
      options_.access_shards != 0 ? options_.access_shards : workers_, 1u, 16u);
  for (AnalysisConsumer* target : targets_) {
    unsigned interests = target->event_interests();
    ShardedAccessConsumer* sharded = target->sharded_access();
    if (sharded != nullptr && access_shards_ > 1 &&
        (interests & AnalysisConsumer::kAccessInterest)) {
      // The shards take the accesses; the consumer's own lane keeps the
      // rest (enter and tick-run counters) and finishes the tool.
      sharded->prepare_shards(access_shards_);
      std::vector<detail::ShardLane*> shards;
      for (unsigned s = 0; s < access_shards_; ++s) {
        auto shard = std::make_unique<detail::ShardLane>(
            *sharded, s, access_shards_, options_, *blocks_);
        shards.push_back(shard.get());
        lanes_.push_back(std::move(shard));
      }
      hub_->add_shards(*sharded, std::move(shards));
      interests &= ~AnalysisConsumer::kAccessInterest;
    }
    auto lane = std::make_unique<detail::ConsumerLane>(*target, interests,
                                                       options_, *blocks_);
    hub_->add_consumer(*lane);
    lanes_.push_back(std::move(lane));
  }
  attribution.add_consumer(*hub_);
  if (workers_ > lanes_.size()) workers_ = static_cast<unsigned>(lanes_.size());
  // Round-robin the lanes over the workers and hand every ring its
  // worker's doorbell before the first push can happen.
  std::vector<std::vector<detail::Lane*>> assignment(workers_);
  bells_.clear();
  for (unsigned w = 0; w < workers_; ++w) {
    bells_.push_back(std::make_unique<Doorbell>());
  }
  for (std::size_t d = 0; d < lanes_.size(); ++d) {
    assignment[d % workers_].push_back(lanes_[d].get());
    lanes_[d]->set_bell(bells_[d % workers_].get());
  }
  pool_ = std::make_unique<ThreadPool>(workers_);
  for (unsigned w = 0; w < workers_; ++w) {
    std::vector<detail::Lane*> mine = assignment[w];
    Doorbell* bell = bells_[w].get();
    metrics::Registry* registry = metrics_;
    pool_->submit([mine = std::move(mine), bell, registry] {
      // The sink lives for the worker's whole drain loop and folds into the
      // registry when the worker exits — which it only does once all of its
      // rings are closed and drained, i.e. at the drain barrier.
      std::optional<metrics::ThreadSink> sink;
      detail::WorkerMetrics wm;
      if (registry != nullptr) {
        sink.emplace(*registry);
        wm.batches = &sink->counter("pipeline.worker.batches");
        wm.batch_events = &sink->histogram("pipeline.worker.batch_events");
      }
      for (;;) {
        const std::uint64_t seen = bell->epoch();
        bool progress = false;
        bool all_drained = true;
        for (detail::Lane* lane : mine) {
          if (lane->drained()) continue;
          progress = lane->pump(wm) || progress;
          all_drained = lane->drained() && all_drained;
        }
        if (all_drained) return;
        if (!progress) bell->wait_past(seen);
      }
    });
  }
}

PipelineStats ParallelPipeline::stats() const {
  PipelineStats stats;
  for (const auto& lane : lanes_) lane->add_stats(stats);
  blocks_->add_stats(stats);
  stats.shard_fold_ns = hub_->shard_fold_ns();
  stats.workers = workers_;
  stats.access_shards = access_shards_;
  return stats;
}

}  // namespace tq::session
