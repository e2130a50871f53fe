// Attributed profiling events and the consumer interface.
//
// One KernelAttribution pass turns the raw execution stream (routine
// entries, retired instructions, memory accesses, returns) into events that
// already carry the call-stack attribution every tool needs: the kernel on
// top of the shared stack, the caller at entry, the tracked bit under the
// session's library policy, and the stack-area classification of each
// access. Tools implement AnalysisConsumer and do pure accounting — no tool
// maintains its own CallStack or re-derives stack classification.
//
// Accesses arrive in batches (AnalysisConsumer::on_access_batch), one call
// per attribution span rather than one per access. A batch holds
// 1..kAccessBatchCapacity accesses of one function under one kernel, in
// execution order, and is delivered before any later event of another
// kind, so the flattened stream is exactly the per-access stream.
//
// This header is intentionally self-contained (no tq_session link
// dependency): the tool libraries implement the interface without linking
// the session layer, and the session layer links the tools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tquad/callstack.hpp"
#include "vm/run_outcome.hpp"

namespace tq::session {

/// Routine entry. Fires after the call instruction's own tick/access events
/// (mirroring vm::ExecListener::on_rtn_enter), and once at program start for
/// the entry function.
struct EnterEvent {
  std::uint32_t func = 0;    ///< entered routine
  std::uint32_t caller = 0;  ///< attribution top *before* the push (kNoKernel if none)
  std::uint32_t kernel = 0;  ///< attribution top *after* the push
  std::uint64_t retired = 0; ///< retired count of the call instruction (0 at entry)
  bool tracked = false;      ///< `func` is reported under the library policy
};

/// One retired instruction, including predicated-off ones. `read_size` /
/// `write_size` are the architectural operand widths (populated even when
/// the predicate was off, matching pin::InsArgs).
struct TickEvent {
  std::uint32_t func = 0;    ///< function whose instruction retired
  std::uint32_t kernel = 0;  ///< attribution top (kNoKernel while suspended)
  std::uint64_t retired = 0; ///< instructions retired before this one
  std::uint32_t read_size = 0;
  std::uint32_t write_size = 0;
  bool tracked = false;      ///< `func` is reported under the library policy
};

/// One executed memory access (reads, writes, and prefetch touches).
struct AccessEvent {
  std::uint32_t func = 0;    ///< function executing the instruction
  std::uint32_t pc = 0;      ///< instruction index within `func`
  std::uint32_t kernel = 0;  ///< attribution top (kNoKernel while suspended)
  std::uint64_t retired = 0;
  std::uint64_t ea = 0;      ///< effective byte address
  std::uint32_t size = 0;    ///< access width in bytes
  bool is_read = false;
  bool is_stack = false;     ///< hits the local stack area (vm::is_stack_addr)
  bool is_prefetch = false;  ///< prefetch touch (reads only)
};

/// Most accesses one AnalysisConsumer::on_access_batch call carries.
inline constexpr std::size_t kAccessBatchCapacity = 256;

/// A run of `count` consecutive ticks sharing one attribution state: one
/// function, one kernel, retired counters `first_retired` .. `first_retired
/// + count - 1`. The attribution layer accumulates ticks into runs and
/// flushes at the next attribution boundary (routine entry, return, an
/// exact input_tick, or session end), so a run is delivered *after* any
/// access events its instructions produced. `mem_count` says how many of
/// the ticks carried memory operands (architecturally — predicated-off
/// instructions included), without recording which ones.
struct TickRunEvent {
  std::uint32_t func = 0;
  std::uint32_t kernel = 0;         ///< attribution top for the whole run
  std::uint64_t first_retired = 0;
  std::uint64_t count = 0;
  std::uint64_t mem_count = 0;      ///< ticks with a read or write operand
  bool tracked = false;
};

/// An executed return inside `func`. Fires *before* the shared stack pops,
/// so `kernel` is the attribution top the returning instruction ran under.
struct RetEvent {
  std::uint32_t func = 0;
  std::uint32_t pc = 0;
  std::uint32_t kernel = 0;  ///< pre-pop attribution top
  std::uint64_t retired = 0;
  bool tracked = false;
};

/// A profiling tool: pure accounting over attributed events.
/// Within one instruction, accesses come read before write, then the
/// return; routine entries land after their call instruction's events.
/// Ticks arrive either exactly (on_tick, in stream position) or batched
/// (on_tick_run, at the next attribution boundary — possibly after the
/// access events of the instructions it covers). Accounting that needs a
/// per-tick stream position must come from on_access/on_kernel_* events.
/// Accesses arrive through on_access_batch; see its contract.
class AnalysisConsumer {
 public:
  /// Event kinds a consumer subscribes to (see event_interests()).
  enum EventInterest : unsigned {
    kEnterInterest = 1u << 0,
    kTickInterest = 1u << 1,   ///< on_tick and on_tick_run
    kAccessInterest = 1u << 2,
    kRetInterest = 1u << 3,
    kAllEvents = (1u << 4) - 1,
  };

  virtual ~AnalysisConsumer() = default;

  /// Which event kinds to deliver; the attribution layer skips this
  /// consumer entirely for kinds it does not name. The ticks and accesses
  /// of a 43M-instruction run make even an empty-body virtual call
  /// expensive, so tools should subscribe to exactly what they account.
  /// on_session_end is always delivered.
  virtual unsigned event_interests() const { return kAllEvents; }

  virtual void on_kernel_enter(const EnterEvent& event) { (void)event; }
  virtual void on_tick(const TickEvent& event) { (void)event; }
  virtual void on_access(const AccessEvent& event) { (void)event; }
  virtual void on_kernel_ret(const RetEvent& event) { (void)event; }

  /// A batch of accesses, the only way the attribution layer delivers them.
  /// Contract: the batch is non-empty, holds at most kAccessBatchCapacity
  /// events, all of one `func` and one `kernel`, in execution order; no
  /// event of another kind falls between them, and the batch arrives before
  /// any event that happened after its last access. Hot tools override this
  /// with the kernel check hoisted out of the loop. The default hands each
  /// event to on_access, in order.
  virtual void on_access_batch(std::span<const AccessEvent> batch) {
    for (const AccessEvent& event : batch) on_access(event);
  }

  /// A batched tick run (see TickRunEvent): tool totals must come out as
  /// if on_tick() had been called `run.count` times with consecutive
  /// retired counters, `run.mem_count` of them carrying memory operands.
  /// Hot tools override this with O(1) accounting. The default expands the
  /// run tick by tick; the expansion cannot know which ticks carried the
  /// memory operands, so every expanded TickEvent has zero operand widths.
  virtual void on_tick_run(const TickRunEvent& run) {
    TickEvent event;
    event.func = run.func;
    event.kernel = run.kernel;
    event.retired = run.first_retired;
    event.tracked = run.tracked;
    for (std::uint64_t i = 0; i < run.count; ++i) {
      on_tick(event);
      ++event.retired;
    }
  }

  /// End of the run; `total_retired` is the final instruction count.
  virtual void on_session_end(std::uint64_t total_retired) { (void)total_retired; }

  /// The structured outcome, delivered right after on_session_end on every
  /// path — clean halt, guest trap, or budget truncation. Tools that stamp
  /// reports (PARTIAL/TRUNCATED) or must finalize durable output (the trace
  /// recorder) hook this; pure accumulators can ignore it.
  virtual void on_finish(const vm::RunOutcome& outcome) { (void)outcome; }

  /// Optional capability hook: a consumer whose per-address accounting can
  /// be partitioned by address range (QUAD's shadow memory) returns its
  /// ShardedAccessConsumer facet so the parallel pipeline can fan access
  /// events out to several worker threads. Default: not shardable.
  virtual class ShardedAccessConsumer* sharded_access() { return nullptr; }
};

/// Address-sharded access accounting. The parallel pipeline routes each
/// AccessEvent to a shard by address; one shard is drained by exactly one
/// worker thread, in stream order, so shard state needs no locking.
///
/// Routing contract kept by the pipeline:
///  - every delivered event lies within a single 4 KiB page, so a shard's
///    pages are disjoint from every other shard's (accesses crossing a page
///    boundary are split into per-page pieces);
///  - the pieces of one original access carry `count_access == true` exactly
///    once, so per-access (as opposed to per-byte) counters stay exact;
///  - `prepare_shards` happens before any apply, `merge_shards` after all
///    shard rings drained (the on_finish barrier) and before the consumer's
///    own on_finish.
class ShardedAccessConsumer {
 public:
  virtual ~ShardedAccessConsumer() = default;

  /// Allocate `shards` independent shard states (shard ids 0..shards-1).
  virtual void prepare_shards(unsigned shards) = 0;

  /// Apply one (possibly split) access to shard `shard`.
  virtual void apply_access_shard(unsigned shard, const AccessEvent& event,
                                  bool count_access) = 0;

  /// Fold all shard states back into the main accounting. Runs on the
  /// publisher thread after every shard drained; results must be identical
  /// to having applied the whole access stream serially.
  virtual void merge_shards() = 0;
};

}  // namespace tq::session
