#include "session/pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>

#include "session/attribution.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/paged_memory.hpp"

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
// Events on the wire: a tagged union of the attributed event structs (all
// trivially copyable PODs). kEnd carries the total retired count of
// on_session_end, so the marker rides the ring in stream position and the
// wrapped tool's end accounting runs on its drain worker like every other
// event.

struct PipelineEvent {
  enum class Kind : std::uint8_t { kEnter, kTick, kTickRun, kAccess, kRet, kEnd };

  Kind kind = Kind::kEnd;
  union Payload {
    EnterEvent enter;
    TickEvent tick;
    TickRunEvent run;
    AccessEvent access;
    RetEvent ret;
    std::uint64_t total_retired;
    Payload() : total_retired(0) {}
  } u;
};

using Batch = std::vector<PipelineEvent>;

// ---------------------------------------------------------------------------
// BatchChannel: the producer->worker transport every lane is built on. It
// owns the staging batch, the data ring, a reverse freelist ring, and the
// adaptive batch-size controller:
//
//  * The freelist runs opposite to the data ring (worker produces via
//    recycle(), the VM thread consumes in flush()), so steady state
//    circulates a fixed set of buffers instead of heap-allocating every
//    published batch. Buffer lifetimes never cross the drain barrier in a
//    way the barrier doesn't already order, and a full/closed freelist just
//    frees the buffer — both sides stay non-blocking.
//
//  * `PipelineOptions::batch_events` is only the starting batch size. Each
//    accepted push reports what it saw (SpscRing::PushFeedback) and the
//    controller resizes within [batch_events_min, batch_events_max]: a
//    stalled push or an empty-ring push means the per-push cost dominates,
//    so batches grow; a queue building up shrinks them back. The forced
//    schedules drive the size through its whole range so tests can prove
//    batch boundaries never leak into reports.
//
// Only the VM thread touches cap_/counters; cross-thread traffic goes
// through the two rings, which lock internally. Drops on a closed data ring
// (abort path) deliberately skip adapt(): a dying run must not steer the
// controller.

template <typename Rec>
class BatchChannel {
 public:
  using Buffer = std::vector<Rec>;

  explicit BatchChannel(const PipelineOptions& options)
      : policy_(options.adaptive),
        cap_(options.batch_events > 0 ? options.batch_events : 1),
        ring_(options.ring_batches > 0 ? options.ring_batches : 1),
        free_(ring_limit(options) + 2) {
    min_cap_ = options.batch_events_min > 0
                   ? options.batch_events_min
                   : std::max<std::size_t>(1, cap_ / 16);
    if (min_cap_ > cap_) min_cap_ = cap_;
    max_cap_ = options.batch_events_max > 0 ? options.batch_events_max : 8 * cap_;
    if (max_cap_ < cap_) max_cap_ = cap_;
    ring_.set_capacity_limit(ring_limit(options));
    batch_.reserve(cap_);
  }

  // -- producer side (VM thread) --

  /// Reserve the next staging slot, publishing a full batch first.
  Rec& append() {
    if (batch_.size() >= cap_) flush();
    batch_.emplace_back();
    return batch_.back();
  }

  /// Publish the staging batch (no-op when empty). Reuses a recycled buffer
  /// when the worker has returned one; adapts the batch size from what the
  /// push observed.
  void flush() {
    if (batch_.empty()) return;
    Buffer staging;
    if (free_.try_pop(staging)) {
      ++freelist_hits_;
    } else {
      ++freelist_misses_;
    }
    staging.swap(batch_);
    batch_.reserve(cap_);
    typename SpscRing<Buffer>::PushFeedback feedback;
    if (ring_.push(std::move(staging), &feedback)) adapt(feedback);
  }

  void close() { ring_.close(); }
  void set_bell(Doorbell* bell) { ring_.set_doorbell(bell); }

  // -- worker side --

  bool try_pop(Buffer& out) { return ring_.try_pop(out); }
  bool done() const { return ring_.done(); }
  std::size_t ring_capacity() const { return ring_.capacity(); }

  /// Hand a drained buffer back to the producer. Clears on the worker (the
  /// records are trivially destructible, so this is just a size reset) and
  /// never blocks: a full freelist frees the buffer right here.
  void recycle(Buffer&& buffer) {
    buffer.clear();
    free_.try_push(std::move(buffer));
  }

  // -- post-run introspection --

  void add_stats(PipelineStats& stats) const {
    const auto rs = ring_.stats();
    stats.batches_published += rs.pushes;
    stats.backpressure_waits += rs.push_waits;
    stats.producer_stall_ns += rs.stall_ns;
    stats.dropped_after_close += rs.dropped_after_close;
    if (rs.occupancy_high_water > stats.ring_occupancy_high_water) {
      stats.ring_occupancy_high_water = rs.occupancy_high_water;
    }
    stats.ring_capacity_grows += rs.capacity_grows;
    stats.batch_grows += grows_;
    stats.batch_shrinks += shrinks_;
    stats.freelist_hits += freelist_hits_;
    stats.freelist_misses += freelist_misses_;
    ++stats.rings;  // data ring only; the freelist is plumbing, not payload
  }

 private:
  static std::size_t ring_limit(const PipelineOptions& options) {
    const std::size_t base = options.ring_batches > 0 ? options.ring_batches : 1;
    return options.ring_batches_max > 0 ? options.ring_batches_max : 4 * base;
  }

  void adapt(const typename SpscRing<Buffer>::PushFeedback& feedback) {
    switch (policy_) {
      case AdaptiveBatch::kOff:
        break;
      case AdaptiveBatch::kOccupancy:
        // Stalled: the push rate outruns the ring; bigger batches cut the
        // push (lock + wake) frequency. Empty ring: the worker drains
        // between pushes, so bigger batches cost nothing and amortize
        // better. A standing queue: the worker is the bottleneck — back off
        // so occupancy (and peak memory) stays bounded while it catches up.
        if (feedback.stalled || feedback.was_empty) {
          grow();
        } else if (feedback.depth_after >= 2) {
          shrink();
        }
        break;
      case AdaptiveBatch::kForceGrow:
        grow();
        break;
      case AdaptiveBatch::kForceShrink:
        shrink();
        break;
      case AdaptiveBatch::kForceCycle:
        if (rising_) {
          grow();
          if (cap_ == max_cap_) rising_ = false;
        } else {
          shrink();
          if (cap_ == min_cap_) rising_ = true;
        }
        break;
    }
  }

  void grow() {
    if (cap_ >= max_cap_) return;
    cap_ = std::min(cap_ * 2, max_cap_);
    ++grows_;
  }

  void shrink() {
    if (cap_ <= min_cap_) return;
    cap_ = std::max(cap_ / 2, min_cap_);
    ++shrinks_;
  }

  const AdaptiveBatch policy_;
  std::size_t cap_;
  std::size_t min_cap_ = 1;
  std::size_t max_cap_ = 1;
  bool rising_ = true;
  Buffer batch_;
  SpscRing<Buffer> ring_;
  SpscRing<Buffer> free_;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
  std::uint64_t freelist_hits_ = 0;
  std::uint64_t freelist_misses_ = 0;
};

/// What a worker thread drains: pump() applies whatever is queued, and once
/// the ring is closed and empty the drainable marks itself drained (with the
/// mutex/cv handshake that gives the publisher its happens-before edge on
/// the wrapped tool's state).
class Drainable {
 public:
  virtual ~Drainable() = default;

  /// Worker: apply available batches; true if any work was done.
  virtual bool pump(const WorkerMetrics& wm) = 0;

  /// Wire this drainable's ring to its worker's doorbell (before any push).
  virtual void set_bell(Doorbell* bell) = 0;

  bool drained() const noexcept { return drained_.load(std::memory_order_acquire); }

  /// Publisher (the drain barrier): block until the worker applied
  /// everything up to the ring's close.
  void wait_drained() {
    std::unique_lock<std::mutex> lock(drained_mutex_);
    drained_cv_.wait(lock, [&] { return drained_.load(std::memory_order_acquire); });
  }

 protected:
  /// Worker: the ring is closed and fully applied.
  void mark_drained() {
    {
      std::lock_guard<std::mutex> lock(drained_mutex_);
      drained_.store(true, std::memory_order_release);
    }
    drained_cv_.notify_all();
  }

 private:
  std::atomic<bool> drained_{false};
  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;
};

/// Publisher-facing wrapper registered with the attribution in place of the
/// real consumer. Also hands the pipeline its drainables and stats.
class LaneBase : public AnalysisConsumer {
 public:
  virtual void collect_drainables(std::vector<Drainable*>& out) = 0;

  /// Abort path (run threw before input_finish): close the rings so the
  /// workers can exit; nobody reads the tools afterwards.
  virtual void abort_close() = 0;

  virtual void add_stats(PipelineStats& stats) const = 0;
};

// ---------------------------------------------------------------------------
// EventLane: the general consumer lane. Forwards every subscribed event kind
// through one channel; on_finish flushes, closes, waits for the drain, then
// lets the target see the outcome on the publisher thread. Access batches
// ride the channel as single kAccess events; the worker regroups each run
// of them into batches that keep the on_access_batch contract.

class EventLane final : public LaneBase, public Drainable {
 public:
  EventLane(AnalysisConsumer& target, unsigned interests,
            const PipelineOptions& options)
      : target_(target), interests_(interests), channel_(options) {}

  // -- publisher side (VM thread) --
  unsigned event_interests() const override { return interests_; }

  void on_kernel_enter(const EnterEvent& event) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kEnter);
    slot.u.enter = event;
  }
  void on_tick(const TickEvent& event) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kTick);
    slot.u.tick = event;
  }
  void on_tick_run(const TickRunEvent& run) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kTickRun);
    slot.u.run = run;
  }
  void on_access(const AccessEvent& event) override {
    on_access_batch({&event, 1});
  }
  void on_access_batch(std::span<const AccessEvent> batch) override {
    for (const AccessEvent& event : batch) {
      PipelineEvent& slot = append(PipelineEvent::Kind::kAccess);
      slot.u.access = event;
    }
  }
  void on_kernel_ret(const RetEvent& event) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kRet);
    slot.u.ret = event;
  }
  void on_session_end(std::uint64_t total_retired) override {
    PipelineEvent& slot = append(PipelineEvent::Kind::kEnd);
    slot.u.total_retired = total_retired;
  }

  void on_finish(const vm::RunOutcome& outcome) override {
    channel_.flush();
    channel_.close();
    wait_drained();
    // The drain barrier passed: the worker applied the whole stream, so the
    // target finalizes with complete (possibly prefix-exact partial) state.
    target_.on_finish(outcome);
  }

  // -- pipeline wiring --
  void collect_drainables(std::vector<Drainable*>& out) override {
    out.push_back(this);
  }
  void set_bell(Doorbell* bell) override { channel_.set_bell(bell); }
  void abort_close() override { channel_.close(); }
  void add_stats(PipelineStats& stats) const override {
    channel_.add_stats(stats);
  }

  // -- worker side --
  bool pump(const WorkerMetrics& wm) override {
    bool progress = false;
    Batch batch;
    // Cap the pops per call so sibling lanes on the same worker get a turn.
    const std::size_t burst = channel_.ring_capacity();
    for (std::size_t i = 0; i < burst && channel_.try_pop(batch); ++i) {
      if (wm.batches != nullptr) {
        wm.batches->add(1);
        wm.batch_events->observe(batch.size());
      }
      apply(batch);
      channel_.recycle(std::move(batch));
      progress = true;
    }
    if (!drained() && channel_.done()) mark_drained();
    return progress;
  }

 private:
  PipelineEvent& append(PipelineEvent::Kind kind) {
    PipelineEvent& slot = channel_.append();
    slot.kind = kind;
    return slot;
  }

  void apply(const Batch& batch) {
    // A run of kAccess events is handed over as access batches: split where
    // the func or kernel changes and at the capacity, so each one keeps the
    // on_access_batch contract whatever the channel's batch boundaries.
    std::size_t pending = 0;
    auto flush_accesses = [&] {
      if (pending == 0) return;
      target_.on_access_batch({accesses_.data(), pending});
      pending = 0;
    };
    for (const PipelineEvent& event : batch) {
      if (event.kind == PipelineEvent::Kind::kAccess) {
        const AccessEvent& access = event.u.access;
        if (pending != 0 && (pending == accesses_.size() ||
                             accesses_[0].func != access.func ||
                             accesses_[0].kernel != access.kernel)) {
          flush_accesses();
        }
        accesses_[pending++] = access;
        continue;
      }
      flush_accesses();
      switch (event.kind) {
        case PipelineEvent::Kind::kEnter:
          target_.on_kernel_enter(event.u.enter);
          break;
        case PipelineEvent::Kind::kTick:
          target_.on_tick(event.u.tick);
          break;
        case PipelineEvent::Kind::kTickRun:
          target_.on_tick_run(event.u.run);
          break;
        case PipelineEvent::Kind::kAccess:
          break;  // batched above
        case PipelineEvent::Kind::kRet:
          target_.on_kernel_ret(event.u.ret);
          break;
        case PipelineEvent::Kind::kEnd:
          target_.on_session_end(event.u.total_retired);
          break;
      }
    }
    flush_accesses();
  }

  AnalysisConsumer& target_;
  const unsigned interests_;
  BatchChannel<PipelineEvent> channel_;
  std::array<AccessEvent, kAccessBatchCapacity> accesses_;  ///< worker only
};

// ---------------------------------------------------------------------------
// Sharded access routing: one channel per address shard, each drained by its
// own worker. The router lane carries only kAccessInterest; the consumer's
// remaining interests ride a separate EventLane (the control lane), so
// QUAD's tick counters and its shadow updates progress concurrently.

struct ShardRecord {
  AccessEvent event;
  bool count_access = true;
};

using ShardBatch = std::vector<ShardRecord>;

class AccessShard final : public Drainable {
 public:
  AccessShard(ShardedAccessConsumer& sharded, unsigned shard,
              BatchChannel<ShardRecord>& channel)
      : sharded_(sharded), shard_(shard), channel_(channel) {}

  void set_bell(Doorbell* bell) override { channel_.set_bell(bell); }

  bool pump(const WorkerMetrics& wm) override {
    bool progress = false;
    ShardBatch batch;
    const std::size_t burst = channel_.ring_capacity();
    for (std::size_t i = 0; i < burst && channel_.try_pop(batch); ++i) {
      if (wm.batches != nullptr) {
        wm.batches->add(1);
        wm.batch_events->observe(batch.size());
      }
      for (const ShardRecord& record : batch) {
        sharded_.apply_access_shard(shard_, record.event, record.count_access);
      }
      channel_.recycle(std::move(batch));
      progress = true;
    }
    if (!drained() && channel_.done()) mark_drained();
    return progress;
  }

 private:
  ShardedAccessConsumer& sharded_;
  const unsigned shard_;
  BatchChannel<ShardRecord>& channel_;
};

class ShardedAccessLane final : public LaneBase {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;

  ShardedAccessLane(ShardedAccessConsumer& sharded, unsigned shards,
                    const PipelineOptions& options)
      : sharded_(sharded) {
    TQUAD_CHECK(shards >= 1, "sharded lane needs at least one shard");
    sharded_.prepare_shards(shards);
    channels_.reserve(shards);
    shards_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      channels_.push_back(std::make_unique<BatchChannel<ShardRecord>>(options));
      shards_.push_back(
          std::make_unique<AccessShard>(sharded_, s, *channels_[s]));
    }
  }

  // -- publisher side --
  unsigned event_interests() const override { return kAccessInterest; }

  void on_access(const AccessEvent& event) override { route(event); }
  void on_access_batch(std::span<const AccessEvent> batch) override {
    for (const AccessEvent& event : batch) route(event);
  }

  void on_finish(const vm::RunOutcome&) override {
    // The router is registered before the control lane, so this runs first:
    // drain every shard and fold the replicas back together before the
    // control lane forwards on_finish to the tool itself.
    for (auto& channel : channels_) channel->flush();
    for (auto& channel : channels_) channel->close();
    for (auto& shard : shards_) shard->wait_drained();
    const auto fold_start = std::chrono::steady_clock::now();
    sharded_.merge_shards();
    fold_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - fold_start)
            .count());
  }

  // -- pipeline wiring --
  void collect_drainables(std::vector<Drainable*>& out) override {
    for (auto& shard : shards_) out.push_back(shard.get());
  }
  void abort_close() override {
    for (auto& channel : channels_) channel->close();
  }
  void add_stats(PipelineStats& stats) const override {
    for (const auto& channel : channels_) channel->add_stats(stats);
    stats.shard_fold_ns += fold_ns_;
  }

 private:
  void route(const AccessEvent& event) {
    const std::uint64_t last =
        event.ea + (event.size > 0 ? event.size - 1 : 0);
    if ((event.ea >> kPageBits) == (last >> kPageBits)) {
      append(shard_of(event.ea), event, true);
      return;
    }
    // Page-crossing access: split into per-page pieces so every shard only
    // ever touches its own pages. The per-access counter travels with the
    // first piece only.
    AccessEvent piece = event;
    std::uint64_t cursor = event.ea;
    std::uint64_t remaining = event.size;
    bool first = true;
    while (remaining > 0) {
      const std::uint64_t page_end = ((cursor >> kPageBits) + 1) << kPageBits;
      const std::uint64_t in_page = std::min(remaining, page_end - cursor);
      piece.ea = cursor;
      piece.size = static_cast<std::uint32_t>(in_page);
      append(shard_of(cursor), piece, first);
      first = false;
      cursor += in_page;
      remaining -= in_page;
    }
  }

  unsigned shard_of(std::uint64_t ea) const noexcept {
    return static_cast<unsigned>((ea >> kPageBits) % shards_.size());
  }

  void append(unsigned shard, const AccessEvent& event, bool count_access) {
    ShardRecord& slot = channels_[shard]->append();
    slot.event = event;
    slot.count_access = count_access;
  }

  ShardedAccessConsumer& sharded_;
  std::vector<std::unique_ptr<BatchChannel<ShardRecord>>> channels_;
  std::vector<std::unique_ptr<AccessShard>> shards_;
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

/// TQ_PIPELINE_FORCE_ADAPTIVE overrides the batch controller policy for a
/// whole process — the tier-1 stress hook that replays every pipeline test
/// under the forced schedules. Unknown values are noted and ignored rather
/// than fatal: a typo in a CI matrix must not mask the actual test result.
void apply_forced_adaptive(PipelineOptions& options) {
  const char* forced = std::getenv("TQ_PIPELINE_FORCE_ADAPTIVE");
  if (forced == nullptr || *forced == '\0') return;
  const std::string_view value(forced);
  if (value == "off") {
    options.adaptive = AdaptiveBatch::kOff;
  } else if (value == "occupancy") {
    options.adaptive = AdaptiveBatch::kOccupancy;
  } else if (value == "grow") {
    options.adaptive = AdaptiveBatch::kForceGrow;
  } else if (value == "shrink") {
    options.adaptive = AdaptiveBatch::kForceShrink;
  } else if (value == "cycle") {
    options.adaptive = AdaptiveBatch::kForceCycle;
  } else {
    std::fprintf(stderr,
                 "note: ignoring unknown TQ_PIPELINE_FORCE_ADAPTIVE value "
                 "'%s' (want off|occupancy|grow|shrink|cycle)\n",
                 forced);
  }
}

}  // namespace

ParallelPipeline::ParallelPipeline(const PipelineOptions& options,
                                   metrics::Registry* metrics)
    : options_(options), metrics_(metrics), workers_(effective_workers(options)) {
  TQUAD_CHECK(options.mode == PipelineMode::kParallel,
              "ParallelPipeline constructed in serial mode");
  apply_forced_adaptive(options_);
  // Auto shard count: match the workers (the access stream is the heaviest
  // lane), but keep at least one shard and avoid silly fan-out.
  access_shards_ = options.access_shards != 0 ? options.access_shards : workers_;
  if (access_shards_ == 0) access_shards_ = 1;
  if (access_shards_ > 16) access_shards_ = 16;
}

ParallelPipeline::~ParallelPipeline() {
  // Abort path: if the run threw before input_finish, the rings never
  // closed and the workers would wait forever. Close everything (idempotent
  // after a clean drain), then join via the pool's destructor.
  for (auto& lane : lanes_) lane->abort_close();
  pool_.reset();
}

void ParallelPipeline::attach(AnalysisConsumer& target,
                              KernelAttribution& attribution) {
  TQUAD_CHECK(!started_, "attach after start");
  const unsigned interests = target.event_interests();
  ShardedAccessConsumer* sharded = target.sharded_access();
  if (sharded != nullptr && access_shards_ > 1 &&
      (interests & AnalysisConsumer::kAccessInterest)) {
    // Router first, control lane second: at input_finish the router then
    // merges the shard replicas *before* the control lane delivers
    // on_finish to the tool (consumers finish in registration order).
    auto router = std::make_unique<detail::ShardedAccessLane>(
        *sharded, access_shards_, options_);
    attribution.add_consumer(*router);
    lanes_.push_back(std::move(router));
    auto control = std::make_unique<detail::EventLane>(
        target, interests & ~AnalysisConsumer::kAccessInterest, options_);
    attribution.add_consumer(*control);
    lanes_.push_back(std::move(control));
  } else {
    auto lane = std::make_unique<detail::EventLane>(target, interests, options_);
    attribution.add_consumer(*lane);
    lanes_.push_back(std::move(lane));
  }
}

void ParallelPipeline::start() {
  TQUAD_CHECK(!started_, "pipeline already started");
  started_ = true;
  for (auto& lane : lanes_) lane->collect_drainables(drainables_);
  if (drainables_.empty()) return;
  if (workers_ > drainables_.size()) {
    workers_ = static_cast<unsigned>(drainables_.size());
  }
  // Round-robin the drainables over the workers and hand every ring its
  // worker's doorbell before the first push can happen.
  std::vector<std::vector<detail::Drainable*>> assignment(workers_);
  bells_.clear();
  for (unsigned w = 0; w < workers_; ++w) {
    bells_.push_back(std::make_unique<Doorbell>());
  }
  for (std::size_t d = 0; d < drainables_.size(); ++d) {
    assignment[d % workers_].push_back(drainables_[d]);
    drainables_[d]->set_bell(bells_[d % workers_].get());
  }
  pool_ = std::make_unique<ThreadPool>(workers_);
  for (unsigned w = 0; w < workers_; ++w) {
    std::vector<detail::Drainable*> mine = assignment[w];
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
        for (detail::Drainable* drainable : mine) {
          if (drainable->drained()) continue;
          progress = drainable->pump(wm) || progress;
          all_drained = drainable->drained() && all_drained;
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
  stats.workers = workers_;
  stats.access_shards = access_shards_;
  return stats;
}

}  // namespace tq::session
