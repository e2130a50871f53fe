// Event sources: where a profiling session's raw event stream comes from.
//
// Two implementations of one interface, so every tool runs online or
// offline without code changes:
//   * LiveEngineSource — instruments a minipin Engine and executes the
//     guest, forwarding entries / ticks / accesses / returns as they retire;
//   * TraceReplaySource — reconstructs the same event stream from a recorded
//     TQTR trace (v1 or v2, auto-detected), including the per-instruction
//     ticks the trace does not store explicitly (see event_source.cpp).
#pragma once

#include <csignal>
#include <cstdint>
#include <optional>
#include <span>

#include "minipin/minipin.hpp"
#include "session/attribution.hpp"
#include "trace/trace_v2.hpp"
#include "vm/host_env.hpp"
#include "vm/program.hpp"

namespace tq::session {

/// A source of raw profiling events. run() drives the whole stream through
/// `attribution` (enter/tick/access/ret in retirement order, then
/// input_finish on every path — including guest traps and truncation) and
/// returns the structured outcome. Only host/tool errors throw.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual const vm::Program& program() const noexcept = 0;
  virtual vm::RunOutcome run(KernelAttribution& attribution) = 0;
};

/// Executes the guest once, forwarding its event stream into the
/// attribution service. Single-shot, like the engines it owns. With
/// EngineKind::kCompiled (the default) the guest runs on the fused-op
/// threaded-dispatch engine, which emits batched profiling events straight
/// into the attribution (vm::EventSink); with EngineKind::kInterp it runs
/// under minipin instrumentation with per-instruction trampolines. Both
/// paths produce byte-identical consumer-visible event streams.
class LiveEngineSource final : public EventSource {
 public:
  LiveEngineSource(const vm::Program& program, vm::HostEnv& host,
                   std::uint64_t instruction_budget = 0,
                   vm::EngineKind engine = vm::EngineKind::kCompiled);

  /// Arm deterministic fault injection on the underlying engine.
  void set_fault_plan(const vm::FaultPlan& plan) noexcept {
    guest().set_fault_plan(plan);
  }

  /// Arm cooperative interruption on the underlying engine (see
  /// vm::GuestEngine::set_interrupt_flag).
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) noexcept {
    guest().set_interrupt_flag(flag);
  }

  /// Live progress for heartbeats: instructions retired so far. Exact at
  /// attribution boundaries; the compiled engine keeps its counter in a
  /// register between them.
  std::uint64_t retired_now() const noexcept { return guest().retired(); }

  vm::EngineKind engine_kind() const noexcept {
    return pin_ ? vm::EngineKind::kInterp : vm::EngineKind::kCompiled;
  }

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override;

 private:
  // Fused per-instruction trampolines for the interpreter path, chosen at
  // instrument time by the instruction's static shape (memory read/write,
  // return): one indirect call per instruction instead of one per concern.
  static void on_tick(void* attribution, const pin::InsArgs& args);
  static void tick_read(void* attribution, const pin::InsArgs& args);
  static void tick_write(void* attribution, const pin::InsArgs& args);
  static void tick_read_write(void* attribution, const pin::InsArgs& args);
  static void tick_ret(void* attribution, const pin::InsArgs& args);
  static void enter_fc(void* attribution, const pin::RtnArgs& args);

  static void input_read(KernelAttribution& sink, const pin::InsArgs& args);
  static void input_write(KernelAttribution& sink, const pin::InsArgs& args);

  vm::GuestEngine& guest() noexcept {
    return pin_ ? pin_->guest() : static_cast<vm::GuestEngine&>(*compiled_);
  }
  const vm::GuestEngine& guest() const noexcept {
    return const_cast<LiveEngineSource*>(this)->guest();
  }

  const vm::Program& program_;
  std::optional<pin::Engine> pin_;
  std::optional<vm::CompiledMachine> compiled_;
  bool ran_ = false;
};

/// Replays a recorded TQTR byte image (v1 flat or v2 blocked, auto-detected
/// from the header) as a live-equivalent event stream. The trace must have
/// been recorded from `program` (kernel counts are cross-checked); v2
/// traces stream block-by-block, so memory stays bounded.
///
/// Attribution is re-derived from the recorded enter/ret events — the
/// pre-attributed kernel fields in the records are ignored — so a trace can
/// replay under any library policy. Ticks are delivered as batched runs, as
/// live. One caveat: predicated-off instructions leave no records, so the
/// replayed runs do not count them as memory-operand ticks (see
/// docs/FORMATS.md, "Replaying full profiles").
class TraceReplaySource final : public EventSource {
 public:
  TraceReplaySource(std::span<const std::uint8_t> bytes, const vm::Program& program,
                    bool salvage = false);

  /// Arm cooperative interruption: the replay checks the flag between v2
  /// blocks (and between v1 record chunks) and stops with kInterrupted; the
  /// events fed so far are a valid prefix.
  void set_interrupt_flag(const volatile std::sig_atomic_t* flag) noexcept {
    interrupt_ = flag;
  }

  const vm::Program& program() const noexcept override { return program_; }
  vm::RunOutcome run(KernelAttribution& attribution) override;

  /// After a salvage-mode run: what the decoder recovered vs. dropped
  /// (zero-valued when the trace was clean). v2-only.
  const trace::SalvageReport& salvage_report() const noexcept {
    return salvage_report_;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  const vm::Program& program_;
  trace::SalvageReport salvage_report_;
  const volatile std::sig_atomic_t* interrupt_ = nullptr;
  bool salvage_ = false;
  bool ran_ = false;
};

}  // namespace tq::session
