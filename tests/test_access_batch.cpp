// The access-batch contract. KernelAttribution hands accesses to consumers
// through AnalysisConsumer::on_access_batch, one call per attribution span
// (at most kAccessBatchCapacity accesses), fed by the compiled engine's
// access buffer, the interpreter trampolines or trace replay. Batching must
// not be observable in the event stream:
//
//  * a consumer that overrides on_access_batch and one that relies on the
//    default loop over on_access see the same interleaved stream of every
//    event kind, and that stream equals a reference model of per-access
//    delivery (each access delivered the moment it executes, tick runs at
//    the next attribution boundary), fed by per-instruction minipin probes
//    that never pass through a batch — live, and replayed from a v2 trace;
//  * every batch is non-empty, holds at most the capacity, and carries one
//    func and one kernel;
//  * a straight-line stretch longer than the capacity splits mid-span;
//  * a trap at N, a budget stop and an interrupt stop taken while accesses
//    sit in the engine's buffer still give exactly the first-N prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gasm/builder.hpp"
#include "minipin/minipin.hpp"
#include "session/session.hpp"
#include "trace/trace.hpp"
#include "tquad/callstack.hpp"
#include "vm/compiled.hpp"
#include "vm/stack_addr.hpp"
#include "workloads/registry.hpp"

namespace tq::session {
namespace {

/// One delivered event. A batch contributes one kAccess item per access.
struct Item {
  enum Kind : std::uint8_t { kEnter, kTick, kTickRun, kAccess, kRet, kEnd };
  Kind kind = kEnd;
  std::uint32_t func = 0;
  std::uint32_t kernel = 0;
  std::uint32_t caller = 0;
  std::uint32_t pc = 0;
  std::uint32_t size = 0;
  std::uint64_t retired = 0;  ///< first_retired for runs, total for kEnd
  std::uint64_t ea = 0;
  std::uint64_t count = 0;
  std::uint64_t mem = 0;
  bool tracked = false;
  bool is_read = false;
  bool is_stack = false;
  bool is_prefetch = false;

  bool operator==(const Item&) const = default;
};

std::string describe(const Item& item) {
  static const char* const kNames[] = {"enter", "tick", "run", "access", "ret", "end"};
  return std::string(kNames[item.kind]) + " func=" + std::to_string(item.func) +
         " kernel=" + std::to_string(item.kernel) +
         " retired=" + std::to_string(item.retired) +
         " ea=" + std::to_string(item.ea) + " count=" + std::to_string(item.count);
}

/// Index of the first differing item (or the shorter length); -1 if equal.
long first_difference(const std::vector<Item>& a, const std::vector<Item>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

void expect_same_stream(const std::vector<Item>& got, const std::vector<Item>& want,
                        const std::string& what) {
  const long at = first_difference(got, want);
  if (at < 0) return;
  const auto i = static_cast<std::size_t>(at);
  ADD_FAILURE() << what << ": streams differ at item " << at << " of "
                << got.size() << " / " << want.size() << ": got "
                << (i < got.size() ? describe(got[i]) : "<end>") << ", want "
                << (i < want.size() ? describe(want[i]) : "<end>");
}

Item access_item(const AccessEvent& e) {
  Item item;
  item.kind = Item::kAccess;
  item.func = e.func;
  item.kernel = e.kernel;
  item.pc = e.pc;
  item.retired = e.retired;
  item.ea = e.ea;
  item.size = e.size;
  item.is_read = e.is_read;
  item.is_stack = e.is_stack;
  item.is_prefetch = e.is_prefetch;
  return item;
}

/// Records every event kind in delivery order.
class StreamRecorder : public AnalysisConsumer {
 public:
  void on_kernel_enter(const EnterEvent& e) override {
    Item item;
    item.kind = Item::kEnter;
    item.func = e.func;
    item.kernel = e.kernel;
    item.caller = e.caller;
    item.retired = e.retired;
    item.tracked = e.tracked;
    items.push_back(item);
  }
  void on_tick(const TickEvent& e) override {
    Item item;
    item.kind = Item::kTick;
    item.func = e.func;
    item.kernel = e.kernel;
    item.retired = e.retired;
    item.size = e.read_size;
    item.ea = e.write_size;
    item.tracked = e.tracked;
    items.push_back(item);
  }
  void on_tick_run(const TickRunEvent& e) override {
    Item item;
    item.kind = Item::kTickRun;
    item.func = e.func;
    item.kernel = e.kernel;
    item.retired = e.first_retired;
    item.count = e.count;
    item.mem = e.mem_count;
    item.tracked = e.tracked;
    items.push_back(item);
  }
  void on_access(const AccessEvent& e) override { items.push_back(access_item(e)); }
  void on_kernel_ret(const RetEvent& e) override {
    Item item;
    item.kind = Item::kRet;
    item.func = e.func;
    item.kernel = e.kernel;
    item.pc = e.pc;
    item.retired = e.retired;
    item.tracked = e.tracked;
    items.push_back(item);
  }
  void on_session_end(std::uint64_t total_retired) override {
    Item item;
    item.retired = total_retired;
    items.push_back(item);
  }

  std::vector<Item> items;
};

/// Relies on the default on_access_batch (a loop over on_access).
class DefaultRecorder final : public StreamRecorder {};

/// Overrides on_access_batch and checks each batch against the contract.
class BatchRecorder final : public StreamRecorder {
 public:
  /// Where a batch landed in `items`.
  struct Batch {
    std::size_t first = 0;
    std::size_t size = 0;
  };

  explicit BatchRecorder(unsigned interests = kAllEvents) : interests_(interests) {}
  unsigned event_interests() const override { return interests_; }

  void on_access_batch(std::span<const AccessEvent> batch) override {
    if (batch.empty() || batch.size() > kAccessBatchCapacity) {
      violations.push_back("batch of " + std::to_string(batch.size()));
    }
    for (const AccessEvent& e : batch) {
      if (e.func != batch.front().func || e.kernel != batch.front().kernel) {
        violations.push_back("mixed batch at retired " + std::to_string(e.retired));
      }
    }
    batches.push_back(Batch{items.size(), batch.size()});
    for (const AccessEvent& e : batch) items.push_back(access_item(e));
    if (on_full && batch.size() == kAccessBatchCapacity) on_full();
  }

  std::vector<Batch> batches;
  std::vector<std::string> violations;
  std::function<void()> on_full;  ///< test hook: a full batch arrived

 private:
  unsigned interests_;
};

// ---- the per-access reference model ------------------------------------------

/// Today's per-access delivery, rebuilt from minipin's per-instruction
/// probes on the interpreter: accesses go out as they execute, ticks
/// accumulate into runs flushed at routine entry, return and end of run,
/// kernels come from a private CallStack. No batch is involved anywhere.
class ReferenceStream {
 public:
  ReferenceStream(const vm::Program& program, tquad::LibraryPolicy policy)
      : stack_(program, policy) {}

  /// Run `program` to completion, or stop after `limit` instructions.
  std::vector<Item> run(const vm::Program& program, vm::HostEnv& host,
                        std::uint64_t limit) {
    pin::Engine engine(program, host, vm::EngineKind::kInterp);
    engine.set_instruction_budget(limit);
    engine.add_rtn_instrument_function(
        [this](pin::Rtn& rtn) { rtn.insert_entry_call(&ReferenceStream::enter, this); });
    engine.add_ins_instrument_function([this](pin::Ins& ins) {
      const bool reads = ins.is_memory_read() || ins.is_prefetch();
      const bool writes = ins.is_memory_write();
      if (ins.is_ret()) {
        ins.insert_call(&ReferenceStream::ret_instr, this);
      } else if (reads || writes) {
        ins.insert_call(&ReferenceStream::mem_instr, this);
      } else {
        ins.insert_call(&ReferenceStream::plain_instr, this);
      }
    });
    const vm::RunOutcome outcome = engine.run();
    flush_run();
    Item end;
    end.retired = outcome.retired;
    items_.push_back(end);
    return std::move(items_);
  }

 private:
  static void enter(void* self, const pin::RtnArgs& args) {
    auto& ref = *static_cast<ReferenceStream*>(self);
    ref.flush_run();
    Item item;
    item.kind = Item::kEnter;
    item.func = args.func;
    item.caller = ref.stack_.top();
    item.retired = args.retired;
    item.tracked = ref.stack_.tracked(args.func);
    ref.stack_.on_enter(args.func);
    item.kernel = ref.stack_.top();
    ref.items_.push_back(item);
  }

  static void plain_instr(void* self, const pin::InsArgs& args) {
    static_cast<ReferenceStream*>(self)->tick(args);
  }

  static void mem_instr(void* self, const pin::InsArgs& args) {
    auto& ref = *static_cast<ReferenceStream*>(self);
    ref.tick(args);
    if (!args.executed) return;
    if (args.read_size != 0) {
      ref.access(args, args.read_ea, args.read_size, true, args.is_prefetch);
    }
    if (args.write_size != 0) {
      ref.access(args, args.write_ea, args.write_size, false, false);
    }
  }

  static void ret_instr(void* self, const pin::InsArgs& args) {
    auto& ref = *static_cast<ReferenceStream*>(self);
    ref.tick(args);
    if (!args.executed) return;
    ref.access(args, args.read_ea, args.read_size, true, false);
    ref.flush_run();
    Item item;
    item.kind = Item::kRet;
    item.func = args.func;
    item.kernel = ref.stack_.top();
    item.pc = args.pc;
    item.retired = args.retired;
    item.tracked = ref.stack_.tracked(args.func);
    ref.items_.push_back(item);
    ref.stack_.on_ret(args.func);
  }

  void tick(const pin::InsArgs& args) {
    const bool mem = (args.read_size | args.write_size) != 0;
    if (run_.count != 0 && run_.func == args.func) {
      ++run_.count;
      run_.mem += mem ? 1 : 0;
      return;
    }
    flush_run();
    run_.func = args.func;
    run_.retired = args.retired;
    run_.count = 1;
    run_.mem = mem ? 1 : 0;
  }

  void access(const pin::InsArgs& args, std::uint64_t ea, std::uint32_t size,
              bool is_read, bool is_prefetch) {
    Item item;
    item.kind = Item::kAccess;
    item.func = args.func;
    item.kernel = stack_.top();
    item.pc = args.pc;
    item.retired = args.retired;
    item.ea = ea;
    item.size = size;
    item.is_read = is_read;
    item.is_stack = vm::is_stack_addr(ea, args.sp);
    item.is_prefetch = is_prefetch;
    items_.push_back(item);
  }

  void flush_run() {
    if (run_.count == 0) return;
    run_.kind = Item::kTickRun;
    run_.kernel = stack_.top();
    run_.tracked = stack_.tracked(run_.func);
    items_.push_back(run_);
    run_ = Item{};
  }

  tquad::CallStack stack_;
  std::vector<Item> items_;
  Item run_;  ///< the pending tick run (count 0 = none)
};

// ---- sessions -----------------------------------------------------------------

enum class Source { kCompiled, kInterp, kReplay };

const char* source_name(Source source) {
  switch (source) {
    case Source::kCompiled: return "compiled";
    case Source::kInterp: return "interp";
    case Source::kReplay: return "replay";
  }
  return "?";
}

/// The recorders on one session, plus what the run returned. `accesses`
/// subscribes to nothing else, so no other event separates the accesses
/// of a call from its caller's: in a pipeline lane they arrive as one run.
struct Recorded {
  BatchRecorder batched;
  DefaultRecorder plain;
  BatchRecorder accesses{AnalysisConsumer::kAccessInterest};
  vm::RunOutcome outcome;
  EventCounts counts;
};

SessionConfig config_for(Source source, unsigned workers) {
  SessionConfig config;
  config.engine =
      source == Source::kInterp ? vm::EngineKind::kInterp : vm::EngineKind::kCompiled;
  if (workers > 0) {
    config.pipeline.mode = PipelineMode::kParallel;
    config.pipeline.workers = workers;
  }
  return config;
}

/// Record the v2 trace of a full live run of `entry` (the replay input).
std::vector<std::uint8_t> record_trace(const workloads::Entry& entry) {
  workloads::Instance instance = entry.build();
  ProfileSession session(instance.program, SessionConfig{});
  trace::TraceRecorder recorder(instance.program, tquad::LibraryPolicy::kExclude,
                                trace::TraceFormat::kV2);
  session.add_consumer(recorder);
  session.run_live(instance.host);
  return recorder.take_encoded();
}

/// Run `program` once with the recorders attached. `trace` is the replay
/// input for Source::kReplay.
void run_session(Recorded& out, const vm::Program& program, vm::HostEnv& host,
                 Source source, SessionConfig config,
                 const std::vector<std::uint8_t>& trace = {}) {
  ProfileSession session(program, config);
  session.add_consumer(out.batched);
  session.add_consumer(out.plain);
  session.add_consumer(out.accesses);
  out.outcome = source == Source::kReplay ? session.replay(trace)
                                          : session.run_live(host);
  out.counts = session.attribution().event_counts();
}

std::vector<Item> only(const std::vector<Item>& items, Item::Kind kind) {
  std::vector<Item> out;
  for (const Item& item : items) {
    if (item.kind == kind) out.push_back(item);
  }
  return out;
}

void expect_contract(const Recorded& run, const std::string& what) {
  SCOPED_TRACE(what);
  for (const BatchRecorder* recorder : {&run.batched, &run.accesses}) {
    EXPECT_TRUE(recorder->violations.empty())
        << recorder->violations.size() << " violations, first: "
        << recorder->violations.front();
  }
  expect_same_stream(run.batched.items, run.plain.items, "override vs default");
  // on_session_end reaches every consumer, subscribed or not.
  std::vector<Item> accesses = only(run.plain.items, Item::kAccess);
  accesses.push_back(run.plain.items.back());
  expect_same_stream(run.accesses.items, accesses, "access-only vs default");
}

// ---- the zoo matrix --------------------------------------------------------------

struct MatrixCase {
  std::string workload;
  Source source;
  unsigned workers;  ///< 0 = serial
};

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  return info.param.workload + "_" + source_name(info.param.source) + "_" +
         (info.param.workers == 0 ? std::string("serial")
                                  : "parallel" + std::to_string(info.param.workers));
}

std::vector<MatrixCase> matrix() {
  std::vector<MatrixCase> cases;
  for (const std::string& name : workloads::workload_names()) {
    for (Source source : {Source::kCompiled, Source::kInterp, Source::kReplay}) {
      for (unsigned workers : {0u, 3u}) cases.push_back({name, source, workers});
    }
  }
  return cases;
}

class AccessBatchMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(AccessBatchMatrix, BatchesAreInvisibleInTheEventStream) {
  const MatrixCase& param = GetParam();
  const workloads::Entry& entry = workloads::find_workload(param.workload);

  workloads::Instance reference_instance = entry.build();
  const std::vector<Item> reference =
      ReferenceStream(reference_instance.program, tquad::LibraryPolicy::kExclude)
          .run(reference_instance.program, reference_instance.host, 0);

  workloads::Instance instance = entry.build();
  const std::vector<std::uint8_t> trace =
      param.source == Source::kReplay ? record_trace(entry) : std::vector<std::uint8_t>{};
  Recorded run;
  run_session(run, instance.program, instance.host, param.source,
              config_for(param.source, param.workers), trace);
  ASSERT_EQ(run.outcome.status, vm::RunStatus::kHalted);
  expect_contract(run, "full run");
  ASSERT_FALSE(run.batched.batches.empty());

  if (param.source == Source::kReplay) {
    // A trace keeps no record of a predicated-off instruction, so replayed
    // tick runs cannot count its memory operand; compare them without it.
    const auto without_mem = [](std::vector<Item> items) {
      for (Item& item : items) item.mem = 0;
      return items;
    };
    expect_same_stream(without_mem(run.batched.items), without_mem(reference),
                       "replay vs reference");
  } else {
    expect_same_stream(run.batched.items, reference, "live vs reference");
  }

  // Serial runs deliver exactly the attribution's batches.
  if (param.workers == 0) {
    EXPECT_EQ(run.counts.access_batches, run.batched.batches.size());
    EXPECT_GT(run.counts.access_batches, 0u);
    EXPECT_LE(run.counts.access_batches, run.counts.accesses);
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, AccessBatchMatrix, ::testing::ValuesIn(matrix()),
                         case_name);

// ---- stops with accesses in the engine's buffer -------------------------------

/// Cut points N strictly inside a span, right after an access with more
/// accesses of the same span behind it, so the compiled engine holds
/// buffered accesses when it stops before instruction N.
std::vector<std::uint64_t> mid_span_cuts(const std::vector<Item>& reference) {
  std::vector<std::uint64_t> cuts;
  const std::size_t accesses = only(reference, Item::kAccess).size();
  std::size_t seen = 0;
  std::size_t next_quarter = 1;
  for (std::size_t i = 0; i + 1 < reference.size() && next_quarter < 4; ++i) {
    if (reference[i].kind != Item::kAccess) continue;
    ++seen;
    if (seen * 4 < next_quarter * accesses) continue;
    const Item& later = reference[i + 1];
    if (later.kind == Item::kAccess && later.retired > reference[i].retired + 1) {
      cuts.push_back(reference[i].retired + 1);
      ++next_quarter;
    }
  }
  return cuts;
}

/// The reference cut at N: what a run stopped before instruction N owes.
std::vector<Item> reference_prefix(const workloads::Entry& entry, std::uint64_t n) {
  workloads::Instance instance = entry.build();
  return ReferenceStream(instance.program, tquad::LibraryPolicy::kExclude)
      .run(instance.program, instance.host, n);
}

class AccessBatchStops : public ::testing::TestWithParam<std::string> {};

TEST_P(AccessBatchStops, TrapAndBudgetMidSpanGiveTheExactPrefix) {
  const workloads::Entry& entry = workloads::find_workload(GetParam());
  const std::vector<Item> full = reference_prefix(entry, 0);
  const std::vector<std::uint64_t> cuts = mid_span_cuts(full);
  ASSERT_FALSE(cuts.empty());
  for (const std::uint64_t n : cuts) {
    const std::vector<Item> want = reference_prefix(entry, n);
    for (Source source : {Source::kCompiled, Source::kInterp}) {
      for (unsigned workers : {0u, 3u}) {
        for (bool trap : {true, false}) {
          const std::string what = std::string(source_name(source)) +
                                   (trap ? " trap@" : " budget ") +
                                   std::to_string(n) + " workers " +
                                   std::to_string(workers);
          SCOPED_TRACE(what);
          SessionConfig config = config_for(source, workers);
          if (trap) {
            config.fault_plan.trap_at_retired = n;
          } else {
            config.instruction_budget = n;
          }
          workloads::Instance instance = entry.build();
          Recorded run;
          run_session(run, instance.program, instance.host, source, config);
          EXPECT_EQ(run.outcome.status,
                    trap ? vm::RunStatus::kTrapped : vm::RunStatus::kTruncated);
          EXPECT_EQ(run.outcome.retired, n);
          expect_contract(run, what);
          expect_same_stream(run.batched.items, want, what);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, AccessBatchStops,
                         ::testing::ValuesIn(workloads::workload_names()));

// ---- purpose-built programs ------------------------------------------------------

constexpr int kLoads = 1000;

/// main calls `stream`, a single straight-line loop of kLoads loads.
vm::Program long_span_program() {
  gasm::ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 8 * 1024);
  auto& stream = prog.begin_function("stream");
  stream.movi(gasm::R{1}, static_cast<std::int64_t>(buf));
  stream.count_loop_imm(gasm::R{2}, 0, kLoads, [&] {
    stream.andi(gasm::R{3}, gasm::R{2}, 1023);
    stream.shli(gasm::R{3}, gasm::R{3}, 3);
    stream.add(gasm::R{3}, gasm::R{3}, gasm::R{1});
    stream.load(gasm::R{4}, gasm::R{3}, 0, 8);
  });
  stream.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("stream");
  main_fn.halt();
  return prog.build("main");
}

TEST(AccessBatch, LongStraightLineSpanSplitsAtTheCapacity) {
  const vm::Program program = long_span_program();
  vm::HostEnv reference_host;
  const std::vector<Item> reference =
      ReferenceStream(program, tquad::LibraryPolicy::kExclude)
          .run(program, reference_host, 0);
  for (Source source : {Source::kCompiled, Source::kInterp}) {
    for (unsigned workers : {0u, 3u}) {
      const std::string what =
          std::string(source_name(source)) + " workers " + std::to_string(workers);
      SCOPED_TRACE(what);
      vm::HostEnv host;
      Recorded run;
      run_session(run, program, host, source, config_for(source, workers));
      expect_contract(run, what);
      expect_same_stream(run.batched.items, reference, what);

      // The accesses of one `stream` invocation: its loads and the pop of
      // its return, all between its entry and its return.
      const std::vector<Item>& items = run.batched.items;
      const auto enter = std::find_if(items.begin(), items.end(), [&](const Item& i) {
        return i.kind == Item::kEnter && program.functions()[i.func].name == "stream";
      });
      ASSERT_NE(enter, items.end());
      const auto first = static_cast<std::size_t>(enter - items.begin()) + 1;
      std::size_t span = 0;
      while (first + span < items.size() && items[first + span].kind == Item::kAccess) {
        ++span;
      }
      ASSERT_EQ(span, static_cast<std::size_t>(kLoads) + 1);
      // In batches: full ones back to back, then the rest, nothing between.
      std::vector<std::size_t> sizes;
      for (const BatchRecorder::Batch& batch : run.batched.batches) {
        if (batch.first >= first && batch.first < first + span) {
          sizes.push_back(batch.size);
        }
      }
      std::vector<std::size_t> want;
      for (std::size_t left = span; left > 0;) {
        want.push_back(std::min(left, kAccessBatchCapacity));
        left -= want.back();
      }
      EXPECT_EQ(sizes, want);
    }
  }
}

/// main calls `copy`: one load, then movs 8-byte moves. 1 + 2 * 127
/// accesses leave the buffer one short of full, so the 128th movs fills it
/// with its read and buffers its write.
vm::Program movs_program() {
  gasm::ProgramBuilder prog;
  const auto src = prog.alloc_global("src", 8 * 300);
  const auto dst = prog.alloc_global("dst", 8 * 300);
  auto& copy = prog.begin_function("copy");
  copy.movi(gasm::R{1}, static_cast<std::int64_t>(src));
  copy.movi(gasm::R{2}, static_cast<std::int64_t>(dst));
  copy.load(gasm::R{4}, gasm::R{1}, 0, 8);
  copy.count_loop_imm(gasm::R{3}, 0, 300, [&] { copy.movs(gasm::R{2}, gasm::R{1}, 8); });
  copy.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("copy");
  main_fn.halt();
  return prog.build("main");
}

TEST(AccessBatch, InterruptWithAnAccessInTheBufferGivesTheExactPrefix) {
  // The consumer raises the interrupt flag from inside the full batch the
  // 128th movs's read completes. The engine still buffers that movs's
  // write, retires nothing more, and must deliver the write before the
  // tick run and the end of the run.
  const vm::Program program = movs_program();
  for (Source source : {Source::kCompiled, Source::kInterp}) {
    SCOPED_TRACE(source_name(source));
    volatile std::sig_atomic_t flag = 0;
    SessionConfig config = config_for(source, 0);
    config.interrupt = &flag;
    vm::HostEnv host;
    Recorded run;
    run.batched.on_full = [&flag] { flag = 1; };
    run_session(run, program, host, source, config);
    ASSERT_EQ(run.outcome.status, vm::RunStatus::kInterrupted);
    const std::uint64_t n = run.outcome.retired;
    expect_contract(run, "interrupted");

    // The last batch is the lone buffered write of instruction N - 1.
    ASSERT_GE(run.batched.batches.size(), 2u);
    const BatchRecorder::Batch last = run.batched.batches.back();
    EXPECT_EQ(last.size, 1u);
    const Item& write = run.batched.items[last.first];
    EXPECT_FALSE(write.is_read);
    EXPECT_EQ(write.retired, n - 1);
    EXPECT_EQ(run.batched.batches[run.batched.batches.size() - 2].size,
              kAccessBatchCapacity);

    vm::HostEnv reference_host;
    expect_same_stream(run.batched.items,
                       ReferenceStream(program, tquad::LibraryPolicy::kExclude)
                           .run(program, reference_host, n),
                       "interrupt vs reference");

    // And the same cut by a budget, on both engines.
    SessionConfig budget = config_for(source, 0);
    budget.instruction_budget = n;
    vm::HostEnv budget_host;
    Recorded cut;
    run_session(cut, program, budget_host, source, budget);
    EXPECT_EQ(cut.outcome.status, vm::RunStatus::kTruncated);
    expect_same_stream(run.batched.items, cut.batched.items, "interrupt vs budget");
  }
}

TEST(AccessBatch, EngineHandsOverAccessesBeforeTheirSpan) {
  // The compiled engine's own order, below the attribution: every access
  // batch of a span reaches the sink before that span's on_tick_span, and
  // no buffer outlives the span it was filled in.
  class Sink final : public vm::EventSink {
   public:
    void on_enter(std::uint32_t, std::uint64_t) override {}
    void on_tick_span(std::uint32_t func, std::uint64_t first, std::uint64_t count,
                      std::uint64_t) override {
      for (const auto& [afunc, retired] : pending) {
        if (afunc != func || retired < first || retired >= first + count) {
          ++misplaced;
        }
      }
      pending.clear();
      last_span_end = first + count;
      ++spans;
    }
    void on_accesses(std::uint32_t func,
                     std::span<const vm::AccessRecord> batch) override {
      sizes.push_back(batch.size());
      for (const vm::AccessRecord& record : batch) {
        if (record.retired < last_span_end) ++misplaced;
        pending.emplace_back(func, record.retired);
      }
    }
    void on_ret(std::uint32_t, std::uint32_t, std::uint64_t) override {
      if (!pending.empty()) ++misplaced;  // a ret never overtakes accesses
    }

    std::vector<std::pair<std::uint32_t, std::uint64_t>> pending;
    std::vector<std::size_t> sizes;
    std::uint64_t last_span_end = 0;
    int misplaced = 0;
    int spans = 0;
  } sink;
  const vm::Program program = long_span_program();
  vm::HostEnv host;
  vm::CompiledMachine machine(program, host);
  ASSERT_EQ(machine.run(sink).status, vm::RunStatus::kHalted);
  EXPECT_EQ(sink.misplaced, 0);
  EXPECT_TRUE(sink.pending.empty());
  EXPECT_GT(sink.spans, 0);
  // main's call push, then stream's 1001 accesses in 256-record buffers.
  const std::vector<std::size_t> want = {1, 256, 256, 256, 233};
  EXPECT_EQ(sink.sizes, want);
}

TEST(AccessBatch, AttributionSplitsBatchesWhereTheFunctionChanges) {
  // A replayed trace may switch functions without an entry or a return in
  // between; a batch still never mixes them.
  const vm::Program program = long_span_program();
  KernelAttribution attribution(program, tquad::LibraryPolicy::kExclude);
  BatchRecorder recorder;
  attribution.add_consumer(recorder);
  attribution.input_enter(1, 0);
  attribution.input_access(1, 0, 0, 0x1000, 8, true, false, false);
  attribution.input_access(0, 0, 1, 0x1008, 8, true, false, false);
  const vm::AccessRecord records[2] = {{2, 0x1010, 1, 8, false, false, false},
                                       {3, 0x1018, 2, 8, true, false, false}};
  attribution.input_accesses(0, records);
  attribution.input_accesses(1, records);
  attribution.input_end(4);
  EXPECT_TRUE(recorder.violations.empty());
  ASSERT_EQ(recorder.batches.size(), 3u);
  EXPECT_EQ(recorder.batches[0].size, 1u);
  EXPECT_EQ(recorder.batches[1].size, 3u);
  EXPECT_EQ(recorder.batches[2].size, 2u);
  EXPECT_EQ(attribution.event_counts().accesses, 6u);
  EXPECT_EQ(attribution.event_counts().access_batches, 3u);
}

TEST(AccessBatch, NoAccessSubscriberMeansNoBatches) {
  // Accesses are still counted, but nothing is buffered or delivered.
  const vm::Program program = long_span_program();
  class TickOnly final : public AnalysisConsumer {
   public:
    unsigned event_interests() const override { return kTickInterest; }
  } ticks;
  vm::HostEnv host;
  ProfileSession session(program, SessionConfig{});
  session.add_consumer(ticks);
  session.run_live(host);
  EXPECT_GT(session.attribution().event_counts().accesses,
            static_cast<std::uint64_t>(kLoads));
  EXPECT_EQ(session.attribution().event_counts().access_batches, 0u);
}

}  // namespace
}  // namespace tq::session
