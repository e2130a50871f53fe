#include "session/event_source.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "vm/stack_addr.hpp"

namespace tq::session {

// ---- LiveEngineSource -----------------------------------------------------------

namespace {

/// The compiled engine's event sink: forwards the batched stream straight
/// into the attribution service. Tick spans land on the attribution's
/// pending-run accumulator (input_batch_tick_span), so consumers see
/// TickRunEvents flushed at exactly the boundaries — routine entry, return,
/// end of input — where the interpreter-backed trampolines flush them.
/// Access batches join the attribution's pending access batch whole.
class AttributionSink final : public vm::EventSink {
 public:
  explicit AttributionSink(KernelAttribution& attribution)
      : attribution_(attribution) {}

  void on_enter(std::uint32_t func, std::uint64_t retired) override {
    attribution_.input_enter(func, retired);
  }
  void on_tick_span(std::uint32_t func, std::uint64_t first_retired,
                    std::uint64_t count, std::uint64_t mem_count) override {
    attribution_.input_batch_tick_span(func, first_retired, count, mem_count);
  }
  void on_accesses(std::uint32_t func,
                   std::span<const vm::AccessRecord> batch) override {
    attribution_.input_accesses(func, batch);
  }
  void on_ret(std::uint32_t func, std::uint32_t pc,
              std::uint64_t retired) override {
    attribution_.input_ret(func, pc, retired);
  }

 private:
  KernelAttribution& attribution_;
};

}  // namespace

LiveEngineSource::LiveEngineSource(const vm::Program& program, vm::HostEnv& host,
                                   std::uint64_t instruction_budget,
                                   vm::EngineKind engine)
    : program_(program) {
  if (engine == vm::EngineKind::kCompiled) {
    compiled_.emplace(program, host);
  } else {
    pin_.emplace(program, host);
  }
  guest().set_instruction_budget(instruction_budget);
}

void LiveEngineSource::input_read(KernelAttribution& sink, const pin::InsArgs& args) {
  sink.input_access(args.func, args.pc, args.retired, args.read_ea, args.read_size,
                    /*is_read=*/true, vm::is_stack_addr(args.read_ea, args.sp),
                    args.is_prefetch);
}

void LiveEngineSource::input_write(KernelAttribution& sink, const pin::InsArgs& args) {
  sink.input_access(args.func, args.pc, args.retired, args.write_ea,
                    args.write_size, /*is_read=*/false,
                    vm::is_stack_addr(args.write_ea, args.sp),
                    /*is_prefetch=*/false);
}

// Event order within one instruction: the tick, then accesses read before
// write, then the return; the access/return parts are predicated (skipped
// when the instruction did not execute). Every tick — memory or not,
// executed or not — joins the attribution's batched run; only its
// memory-operand bit is recorded (from the architectural operand widths, so
// predicated-off instructions count, as Pin's unpredicated INS_InsertCall
// would see them).

void LiveEngineSource::on_tick(void* attribution, const pin::InsArgs& args) {
  static_cast<KernelAttribution*>(attribution)
      ->input_batch_tick(args.func, args.retired, /*mem=*/false);
}

void LiveEngineSource::tick_read(void* attribution, const pin::InsArgs& args) {
  auto& sink = *static_cast<KernelAttribution*>(attribution);
  sink.input_batch_tick(args.func, args.retired,
                        (args.read_size | args.write_size) != 0);
  if (args.executed) input_read(sink, args);
}

void LiveEngineSource::tick_write(void* attribution, const pin::InsArgs& args) {
  auto& sink = *static_cast<KernelAttribution*>(attribution);
  sink.input_batch_tick(args.func, args.retired,
                        (args.read_size | args.write_size) != 0);
  if (args.executed) input_write(sink, args);
}

void LiveEngineSource::tick_read_write(void* attribution, const pin::InsArgs& args) {
  auto& sink = *static_cast<KernelAttribution*>(attribution);
  sink.input_batch_tick(args.func, args.retired,
                        (args.read_size | args.write_size) != 0);
  if (args.executed) {
    input_read(sink, args);
    input_write(sink, args);
  }
}

void LiveEngineSource::tick_ret(void* attribution, const pin::InsArgs& args) {
  auto& sink = *static_cast<KernelAttribution*>(attribution);
  sink.input_batch_tick(args.func, args.retired,
                        (args.read_size | args.write_size) != 0);
  if (args.executed) {
    input_read(sink, args);  // the implicit return-address pop
    sink.input_ret(args.func, args.pc, args.retired);
  }
}

void LiveEngineSource::enter_fc(void* attribution, const pin::RtnArgs& args) {
  static_cast<KernelAttribution*>(attribution)->input_enter(args.func, args.retired);
}

vm::RunOutcome LiveEngineSource::run(KernelAttribution& attribution) {
  TQUAD_CHECK(!ran_, "LiveEngineSource::run is single-shot; construct a fresh one");
  ran_ = true;
  if (compiled_) {
    // The fast path: the engine batches ticks into spans and accesses into
    // buffers, and emits enters/returns directly — no per-instruction
    // callbacks.
    AttributionSink sink(attribution);
    const vm::RunOutcome outcome = compiled_->run(sink);
    attribution.input_finish(outcome);
    return outcome;
  }
  KernelAttribution* sink = &attribution;
  pin_->add_rtn_instrument_function([sink](pin::Rtn& rtn) {
    rtn.insert_entry_call(&LiveEngineSource::enter_fc, sink);
  });
  pin_->add_ins_instrument_function([sink](pin::Ins& ins) {
    const bool reads = ins.is_memory_read() || ins.is_prefetch();
    const bool writes = ins.is_memory_write();
    if (ins.is_ret()) {
      ins.insert_call(&LiveEngineSource::tick_ret, sink);
    } else if (reads && writes) {
      ins.insert_call(&LiveEngineSource::tick_read_write, sink);
    } else if (reads) {
      ins.insert_call(&LiveEngineSource::tick_read, sink);
    } else if (writes) {
      ins.insert_call(&LiveEngineSource::tick_write, sink);
    } else {
      ins.insert_call(&LiveEngineSource::on_tick, sink);
    }
  });
  // input_finish runs after the engine returns (not as a fini callback) so
  // the structured outcome — including trap details — reaches every
  // consumer on the trap and truncation paths too.
  const vm::RunOutcome outcome = pin_->run();
  attribution.input_finish(outcome);
  return outcome;
}

// ---- TraceReplaySource ----------------------------------------------------------

namespace {

/// Rebuilds the live event stream from trace records.
///
/// A trace stores records only for event-producing instructions (entries,
/// accesses, returns); the per-instruction ticks in between are implicit in
/// the retired counters. The feeder buffers records sharing one retired
/// value (one instruction plus any routine entry it triggers — groups can
/// span v2 block boundaries), emits the missing "silent" ticks for the gaps
/// using a plain function stack maintained from enter/ret records, and
/// dispatches each group in live order: the instruction's tick before its
/// first record, accesses and returns in record order, entries where the
/// recorder placed them. Every tick joins the attribution's batched run, as
/// on the live paths, so accesses keep batching across instructions; the
/// memory-operand bit comes from the group's records, so a predicated-off
/// memory instruction (it leaves none) counts as a plain tick.
class ReplayFeeder {
 public:
  ReplayFeeder(KernelAttribution& attribution, std::uint32_t function_count)
      : attribution_(attribution), function_count_(function_count) {
    func_stack_.reserve(64);
  }

  void feed(std::span<const trace::Record> records) {
    for (const trace::Record& record : records) {
      if (!group_.empty() && record.retired != group_retired_) flush_group();
      if (group_.empty()) group_retired_ = record.retired;
      if (record.func >= function_count_ ||
          (record.kind == trace::EventKind::kEnter &&
           record.ea >= function_count_)) {
        TQUAD_THROW("TQTR record function id out of range for this image");
      }
      group_.push_back(record);
    }
  }

  void finish(const vm::RunOutcome& outcome) {
    flush_group();
    emit_silent_ticks_until(outcome.retired);
    attribution_.input_finish(outcome);
  }

 private:
  std::uint32_t current_func() const noexcept {
    return func_stack_.empty() ? 0 : func_stack_.back();
  }

  void emit_silent_ticks_until(std::uint64_t retired) {
    if (next_tick_ >= retired) return;
    attribution_.input_batch_ticks(current_func(), next_tick_,
                                   retired - next_tick_);
    next_tick_ = retired;
  }

  void flush_group() {
    if (group_.empty()) return;
    emit_silent_ticks_until(group_retired_);

    // The group's instruction (if any record belongs to one — a group can
    // also be a bare program-entry kEnter): its function and operand widths.
    std::uint32_t tick_func = 0;
    std::uint32_t read_size = 0;
    std::uint32_t write_size = 0;
    bool has_instr = false;
    for (const trace::Record& record : group_) {
      if (record.kind == trace::EventKind::kEnter) continue;
      if (!has_instr) {
        has_instr = true;
        tick_func = record.func;
      }
      if (record.kind == trace::EventKind::kRead) read_size = record.size;
      if (record.kind == trace::EventKind::kWrite) write_size = record.size;
    }

    bool tick_emitted = false;
    for (const trace::Record& record : group_) {
      if (record.kind == trace::EventKind::kEnter) {
        const auto func = static_cast<std::uint32_t>(record.ea);
        attribution_.input_enter(func, record.retired);
        func_stack_.push_back(func);
        continue;
      }
      if (!tick_emitted) {
        tick_emitted = true;
        attribution_.input_batch_tick(tick_func, group_retired_,
                                      (read_size | write_size) != 0);
        next_tick_ = group_retired_ + 1;
      }
      switch (record.kind) {
        case trace::EventKind::kRead:
        case trace::EventKind::kWrite:
          attribution_.input_access(record.func, record.pc, record.retired,
                                    record.ea, record.size,
                                    record.kind == trace::EventKind::kRead,
                                    (record.flags & trace::kFlagStackArea) != 0,
                                    (record.flags & trace::kFlagPrefetch) != 0);
          break;
        case trace::EventKind::kRet:
          attribution_.input_ret(record.func, record.pc, record.retired);
          if (!func_stack_.empty() && func_stack_.back() == record.func) {
            func_stack_.pop_back();
          }
          break;
        case trace::EventKind::kEnter:
          break;  // handled above
      }
    }
    group_.clear();
  }

  KernelAttribution& attribution_;
  std::uint32_t function_count_;
  std::vector<trace::Record> group_;
  std::uint64_t group_retired_ = 0;
  std::vector<std::uint32_t> func_stack_;
  std::uint64_t next_tick_ = 0;
};

}  // namespace

TraceReplaySource::TraceReplaySource(std::span<const std::uint8_t> bytes,
                                     const vm::Program& program, bool salvage)
    : bytes_(bytes), program_(program), salvage_(salvage) {}

vm::RunOutcome TraceReplaySource::run(KernelAttribution& attribution) {
  TQUAD_CHECK(!ran_, "TraceReplaySource::run is single-shot; construct a fresh one");
  ran_ = true;
  const auto function_count =
      static_cast<std::uint32_t>(program_.functions().size());
  ReplayFeeder feeder(attribution, function_count);
  vm::RunOutcome outcome;
  if (trace::is_v2_image(bytes_)) {
    const trace::TraceV2View view =
        salvage_ ? trace::TraceV2View::salvage(bytes_, &salvage_report_)
                 : trace::TraceV2View::open(bytes_);
    if (view.kernel_count() != function_count) {
      TQUAD_THROW("trace was recorded from a different image (kernel count mismatch)");
    }
    std::size_t fed = 0;
    for (std::size_t b = 0; b < view.block_count(); ++b) {
      if (interrupt_ != nullptr && *interrupt_ != 0) break;
      const std::vector<trace::Record> records = view.decode_block(b);
      feeder.feed(records);
      fed = b + 1;
    }
    if (fed < view.block_count()) {
      // Interrupted between blocks: the blocks fed so far are a valid
      // prefix; the last fed record's instruction counts as retired.
      outcome.status = vm::RunStatus::kInterrupted;
      outcome.retired = fed == 0 ? 0 : view.block(fed - 1).last_retired + 1;
    } else {
      outcome.retired = view.total_retired();
      // A salvaged stream with losses is an incomplete profile; say so.
      if (salvage_ && !salvage_report_.clean()) {
        outcome.status = vm::RunStatus::kTruncated;
      }
    }
  } else {
    if (salvage_) {
      TQUAD_THROW("salvage replay supports TQTR v2 traces only");
    }
    const trace::Trace trace = trace::Trace::deserialize(bytes_);
    if (trace.kernel_count != function_count) {
      TQUAD_THROW("trace was recorded from a different image (kernel count mismatch)");
    }
    const std::span<const trace::Record> records(trace.records);
    constexpr std::size_t kChunk = 65536;  // v1 interrupt granularity
    std::size_t fed = 0;
    while (fed < records.size()) {
      if (interrupt_ != nullptr && *interrupt_ != 0) break;
      const std::size_t n = std::min(kChunk, records.size() - fed);
      feeder.feed(records.subspan(fed, n));
      fed += n;
    }
    if (fed < records.size()) {
      outcome.status = vm::RunStatus::kInterrupted;
      outcome.retired = fed == 0 ? 0 : records[fed - 1].retired + 1;
    } else {
      outcome.retired = trace.total_retired;
    }
  }
  feeder.finish(outcome);
  return outcome;
}

}  // namespace tq::session
