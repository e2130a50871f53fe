// The tQUAD profiler as a minipin tool — the paper's primary contribution.
//
// Wiring (mirrors Figures 3-5 of the paper):
//   * an RTN instrumentation callback registers EnterFC on every routine
//     entry to maintain the internal call stack;
//   * an INS instrumentation callback attaches
//       - IncreaseRead / IncreaseWrite predicated analysis calls to every
//         memory-referencing instruction (they return immediately on
//         prefetches),
//       - a return handler to every ret (call-stack integrity),
//       - a per-instruction tick that attributes retired instructions to the
//         kernel on top of the stack and drives slice rollover.
//
// The tool runs in either of two modes:
//   * standalone — construct with an Engine; the tool registers its own
//     analysis calls and maintains its own call stack (the paper's shape);
//   * session    — construct with a Program and register on a
//     session::ProfileSession; attribution arrives pre-computed from the
//     shared KernelAttribution pass (live or trace replay), and the tool is
//     pure accounting. Use the same library policy as the session.
//
// Unlike the original tool, stack-area inclusion/exclusion is not a run-time
// either/or: both classifications are recorded simultaneously (see
// BandwidthRecorder), so one run yields the paper's two runs' worth of data.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "minipin/minipin.hpp"
#include "session/events.hpp"
#include "tquad/bandwidth.hpp"
#include "tquad/callstack.hpp"

namespace tq::tquad {

/// Command-line-equivalent options (Section IV-C lists the original three:
/// stack inclusion, slice interval, library exclusion).
struct Options {
  std::uint64_t slice_interval = 100'000;  ///< instructions per time slice
  LibraryPolicy library_policy = LibraryPolicy::kExclude;
  bool count_prefetch = false;  ///< paper: analysis routines skip prefetches
};

/// Lifetime per-kernel tallies beyond bandwidth.
struct KernelActivity {
  std::uint64_t calls = 0;         ///< dynamic routine entries
  std::uint64_t instructions = 0;  ///< retired while this kernel was on top
};

/// The tool. Construct before the run (Engine::run() or
/// ProfileSession::run()); results are valid after it returns.
class TQuadTool final : public session::AnalysisConsumer {
 public:
  /// Standalone mode: registers analysis calls on `engine`.
  TQuadTool(pin::Engine& engine, Options options);

  /// Session mode: accounting only; feed via ProfileSession::add_consumer.
  TQuadTool(const vm::Program& program, Options options);

  TQuadTool(const TQuadTool&) = delete;
  TQuadTool& operator=(const TQuadTool&) = delete;

  const Options& options() const noexcept { return options_; }
  const BandwidthRecorder& bandwidth() const noexcept { return recorder_; }
  const CallStack& callstack() const noexcept { return stack_; }
  const KernelActivity& activity(std::uint32_t kernel) const {
    TQUAD_CHECK(kernel < activity_.size(), "kernel id out of range");
    return activity_[kernel];
  }
  std::size_t kernel_count() const noexcept { return activity_.size(); }
  const std::string& kernel_name(std::uint32_t kernel) const {
    return program_.functions()[kernel].name;
  }
  /// Whether the kernel is reported under the library policy.
  bool reported(std::uint32_t kernel) const noexcept { return stack_.tracked(kernel); }

  std::uint64_t total_retired() const noexcept { return total_retired_; }
  /// Instructions retired with no attributable kernel (excluded libraries).
  std::uint64_t unattributed_instructions() const noexcept { return unattributed_; }

  // session::AnalysisConsumer (session mode). No return accounting.
  unsigned event_interests() const override {
    return kEnterInterest | kTickInterest | kAccessInterest;
  }
  void on_kernel_enter(const session::EnterEvent& event) override;
  void on_tick(const session::TickEvent& event) override;
  void on_tick_run(const session::TickRunEvent& run) override;
  void on_access(const session::AccessEvent& event) override {
    on_access_batch({&event, 1});
  }
  void on_access_batch(std::span<const session::AccessEvent> batch) override;
  void on_session_end(std::uint64_t total_retired) override;
  void on_finish(const vm::RunOutcome& outcome) override { outcome_ = outcome; }

  /// How the observed run ended (session mode; kHalted for a clean run).
  /// A trapped/truncated outcome means the profile is a valid prefix.
  const vm::RunOutcome& outcome() const noexcept { return outcome_; }

 private:
  // Analysis routines (static trampolines, pintool style; standalone mode).
  static void enter_fc(void* tool, const pin::RtnArgs& args);
  static void increase_read(void* tool, const pin::InsArgs& args);
  static void increase_write(void* tool, const pin::InsArgs& args);
  static void prefetch_read(void* tool, const pin::InsArgs& args);
  static void on_ret(void* tool, const pin::InsArgs& args);
  static void on_instr_tick(void* tool, const pin::InsArgs& args);

  void instrument_rtn(pin::Rtn& rtn);
  void instrument_ins(pin::Ins& ins);

  // Mode-independent accounting.
  void account_enter(std::uint32_t func, bool tracked);
  void account_tick(std::uint32_t kernel);
  void account_access(std::uint32_t kernel, std::uint64_t retired,
                      std::uint32_t size, bool is_read, bool is_stack);
  void account_fini(std::uint64_t retired);

  const vm::Program& program_;
  Options options_;
  CallStack stack_;  ///< standalone attribution; static tables in session mode
  BandwidthRecorder recorder_;
  std::vector<KernelActivity> activity_;
  vm::RunOutcome outcome_;
  std::uint64_t total_retired_ = 0;
  std::uint64_t unattributed_ = 0;
};

}  // namespace tq::tquad
