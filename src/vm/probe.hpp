// The instrumentation seam between the VM's execution engines and the
// minipin DBI layer (and, below it, the session's attribution service).
//
// The interpreter streams vm::InstrEvent through the virtual ExecListener;
// the compiled engine instead consumes *pre-resolved* callback tables — flat
// arrays of function pointers attached per static instruction — so that an
// instruction with no subscribers costs a single null check instead of a
// virtual dispatch. The types here are the lowering contract:
//
//   * ProbeArgs / EntryArgs   — the argument bundles analysis routines see
//     (minipin's InsArgs / RtnArgs are aliases of these, so the same tool
//     callbacks run unchanged under either engine);
//   * InsProbe / EntryProbe   — one subscribed analysis call;
//   * ProbeProvider           — hands the engine a routine's finalized
//     tables on its first dynamic entry (the instrument-once lifecycle);
//   * EventSink               — the session fast path: instead of per-
//     instruction probes, the engine batches tick spans, buffers accesses
//     into fixed AccessRecord batches and emits enters / returns directly,
//     in exactly the order the interpreter-backed trampolines would have
//     produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "vm/program.hpp"

namespace tq::vm {

/// Argument bundle delivered to instruction-level analysis routines.
/// Field-for-field the bundle minipin's tools were written against.
struct ProbeArgs {
  std::uint64_t ip = 0;          ///< (function id << 32) | instruction index
  std::uint32_t func = 0;        ///< function id
  std::uint32_t pc = 0;          ///< instruction index within the function
  std::uint64_t read_ea = 0;     ///< read operand address (read_size != 0)
  std::uint32_t read_size = 0;   ///< read width in bytes (0 = no read)
  std::uint64_t write_ea = 0;    ///< write operand address (write_size != 0)
  std::uint32_t write_size = 0;  ///< write width in bytes (0 = no write)
  bool is_prefetch = false;      ///< tQUAD's analysis routines bail on this
  bool executed = true;          ///< false when the predicate was off
  std::uint64_t sp = 0;          ///< REG_STACK_PTR before the instruction
  std::uint64_t retired = 0;     ///< instructions retired before this one
};

/// Argument bundle delivered to routine-entry analysis calls.
struct EntryArgs {
  std::uint32_t func = 0;
  const std::string* name = nullptr;  ///< routine name
  ImageKind image = ImageKind::kMain;
  std::uint64_t retired = 0;
};

/// Analysis routines are plain functions with a tool pointer (no
/// std::function on the hot path).
using ProbeFn = void (*)(void* tool, const ProbeArgs& args);
using EntryFn = void (*)(void* tool, const EntryArgs& args);

/// One subscribed instruction-level analysis call.
struct InsProbe {
  ProbeFn fn;
  void* tool;
  bool predicated_only;  ///< skip when the instruction did not execute
};

/// One subscribed routine-entry analysis call.
struct EntryProbe {
  EntryFn fn;
  void* tool;
};

/// Supplies per-routine subscription tables to the compiled engine. The
/// engine calls instrument() exactly once per routine, on its first dynamic
/// entry — the same lazy instrument-once / analyse-many lifecycle the
/// interpreter path drives through ExecListener::on_rtn_enter. The returned
/// vectors must stay valid (and unmodified) for the rest of the run.
class ProbeProvider {
 public:
  virtual ~ProbeProvider() = default;

  struct RoutineProbes {
    /// Per-pc analysis calls; null or empty inner vectors mean "no probes".
    const std::vector<std::vector<InsProbe>>* per_ins = nullptr;
    /// Calls fired on every dynamic entry of the routine.
    const std::vector<EntryProbe>* entry_probes = nullptr;
  };

  /// First dynamic entry of `func`: run instrumentation, return the tables.
  virtual RoutineProbes instrument(std::uint32_t func) = 0;

  /// End of run on every path (halt, trap, truncation); `retired` is final.
  virtual void on_end(std::uint64_t retired) = 0;
};

/// One executed architectural access as the compiled engine buffers it. The
/// executing function is the same for every record of a batch and travels
/// with the batch (EventSink::on_accesses).
struct AccessRecord {
  std::uint64_t retired = 0;  ///< instructions retired before this one
  std::uint64_t ea = 0;       ///< effective byte address
  std::uint32_t pc = 0;       ///< instruction index within the function
  std::uint32_t size = 0;     ///< access width in bytes
  bool is_read = false;
  bool is_stack = false;      ///< hits the local stack area (is_stack_addr)
  bool is_prefetch = false;
};

/// Records the compiled engine buffers before it hands them to the sink.
inline constexpr std::size_t kAccessBatchCapacity = 256;

/// The session fast path: raw profiling events batched at attribution
/// granularity. The compiled engine accumulates the per-instruction ticks
/// between two attribution boundaries (routine entry / return / end of run)
/// into one span, and the accesses of that span into a fixed buffer of
/// kAccessBatchCapacity records. The buffer goes out through on_accesses
/// when it is full and at every span flush — always before the span's
/// on_tick_span — so the order the sink observes is the exact event order
/// of the interpreter-backed trampolines.
class EventSink {
 public:
  virtual ~EventSink() = default;

  /// A routine was entered; `retired` counts instructions before the call.
  virtual void on_enter(std::uint32_t func, std::uint64_t retired) = 0;

  /// `count` contiguous ticks in `func` starting at `first_retired`, of
  /// which `mem_count` carried a memory operand (by static operand widths,
  /// so predicated-off instructions count — same as the live trampolines).
  virtual void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                            std::uint64_t count, std::uint64_t mem_count) = 0;

  /// 1..kAccessBatchCapacity executed architectural accesses of `func`, in
  /// execution order (within one instruction, reads before writes).
  virtual void on_accesses(std::uint32_t func,
                           std::span<const AccessRecord> batch) = 0;

  /// An executed return (fires after its return-address-pop access).
  virtual void on_ret(std::uint32_t func, std::uint32_t pc,
                      std::uint64_t retired) = 0;
};

}  // namespace tq::vm
