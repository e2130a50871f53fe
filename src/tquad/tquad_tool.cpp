#include "tquad/tquad_tool.hpp"

#include "vm/stack_addr.hpp"

namespace tq::tquad {

TQuadTool::TQuadTool(const vm::Program& program, Options options)
    : program_(program),
      options_(options),
      stack_(program, options.library_policy),
      recorder_(program.functions().size(), options.slice_interval),
      activity_(program.functions().size()) {}

TQuadTool::TQuadTool(pin::Engine& engine, Options options)
    : TQuadTool(engine.program(), options) {
  engine.add_rtn_instrument_function([this](pin::Rtn& rtn) { instrument_rtn(rtn); });
  engine.add_ins_instrument_function([this](pin::Ins& ins) { instrument_ins(ins); });
  engine.add_fini_function([this](std::uint64_t retired) { account_fini(retired); });
}

void TQuadTool::instrument_rtn(pin::Rtn& rtn) {
  rtn.insert_entry_call(&TQuadTool::enter_fc, this);
}

void TQuadTool::instrument_ins(pin::Ins& ins) {
  // Per-instruction tick first: the instruction is attributed to the kernel
  // on top of the stack *before* any pop this instruction performs.
  ins.insert_call(&TQuadTool::on_instr_tick, this);
  if (ins.is_memory_read()) {
    ins.insert_predicated_call(&TQuadTool::increase_read, this);
  }
  if (ins.is_memory_write()) {
    ins.insert_predicated_call(&TQuadTool::increase_write, this);
  }
  if (options_.count_prefetch && ins.is_prefetch()) {
    // Prefetches carry no architectural data; when asked to, count them as
    // reads (ablation knob — the paper's tool always skips them).
    ins.insert_predicated_call(&TQuadTool::prefetch_read, this);
  }
  if (ins.is_ret()) {
    ins.insert_predicated_call(&TQuadTool::on_ret, this);
  }
}

// ---- mode-independent accounting ----------------------------------------------

void TQuadTool::account_enter(std::uint32_t func, bool tracked) {
  if (tracked) ++activity_[func].calls;
}

void TQuadTool::account_tick(std::uint32_t kernel) {
  if (kernel == kNoKernel) {
    ++unattributed_;
    return;
  }
  ++activity_[kernel].instructions;
}

void TQuadTool::account_access(std::uint32_t kernel, std::uint64_t retired,
                               std::uint32_t size, bool is_read, bool is_stack) {
  recorder_.on_access(kernel, retired, size, is_read, is_stack);
}

void TQuadTool::account_fini(std::uint64_t retired) {
  total_retired_ = retired;
  recorder_.finish();
}

// ---- standalone trampolines -----------------------------------------------------

void TQuadTool::enter_fc(void* tool, const pin::RtnArgs& args) {
  auto& self = *static_cast<TQuadTool*>(tool);
  self.stack_.on_enter(args.func);
  self.account_enter(args.func, self.stack_.tracked(args.func));
}

void TQuadTool::increase_read(void* tool, const pin::InsArgs& args) {
  if (args.is_prefetch) return;  // paper: return immediately on prefetch
  auto& self = *static_cast<TQuadTool*>(tool);
  const std::uint32_t kernel = self.stack_.top();
  if (kernel == kNoKernel) return;
  self.account_access(kernel, args.retired, args.read_size, /*is_read=*/true,
                      vm::is_stack_addr(args.read_ea, args.sp));
}

void TQuadTool::increase_write(void* tool, const pin::InsArgs& args) {
  if (args.is_prefetch) return;
  auto& self = *static_cast<TQuadTool*>(tool);
  const std::uint32_t kernel = self.stack_.top();
  if (kernel == kNoKernel) return;
  self.account_access(kernel, args.retired, args.write_size, /*is_read=*/false,
                      vm::is_stack_addr(args.write_ea, args.sp));
}

void TQuadTool::prefetch_read(void* tool, const pin::InsArgs& args) {
  auto& self = *static_cast<TQuadTool*>(tool);
  const std::uint32_t kernel = self.stack_.top();
  if (kernel == kNoKernel) return;
  self.account_access(kernel, args.retired, args.read_size, /*is_read=*/true,
                      vm::is_stack_addr(args.read_ea, args.sp));
}

void TQuadTool::on_ret(void* tool, const pin::InsArgs& args) {
  auto& self = *static_cast<TQuadTool*>(tool);
  self.stack_.on_ret(args.func);
}

void TQuadTool::on_instr_tick(void* tool, const pin::InsArgs& args) {
  auto& self = *static_cast<TQuadTool*>(tool);
  self.account_tick(self.stack_.top());
  (void)args;
}

// ---- session-mode consumer ------------------------------------------------------

void TQuadTool::on_kernel_enter(const session::EnterEvent& event) {
  account_enter(event.func, event.tracked);
}

void TQuadTool::on_tick(const session::TickEvent& event) {
  account_tick(event.kernel);
}

void TQuadTool::on_tick_run(const session::TickRunEvent& run) {
  if (run.kernel == kNoKernel) {
    unattributed_ += run.count;
  } else {
    activity_[run.kernel].instructions += run.count;
  }
}

void TQuadTool::on_access_batch(std::span<const session::AccessEvent> batch) {
  // One kernel per batch (the AnalysisConsumer contract).
  if (batch.empty() || batch.front().kernel == kNoKernel) return;
  const std::uint32_t kernel = batch.front().kernel;
  if (options_.count_prefetch) {
    for (const session::AccessEvent& event : batch) {
      account_access(kernel, event.retired, event.size, event.is_read,
                     event.is_stack);
    }
    return;
  }
  for (const session::AccessEvent& event : batch) {
    if (event.is_prefetch) continue;
    account_access(kernel, event.retired, event.size, event.is_read,
                   event.is_stack);
  }
}

void TQuadTool::on_session_end(std::uint64_t total_retired) {
  account_fini(total_retired);
}

}  // namespace tq::tquad
