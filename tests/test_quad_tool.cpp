// QUAD producer/consumer semantics on programs with exactly known dataflow.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "gasm/builder.hpp"
#include "quad/instrumented_profile.hpp"
#include "quad/quad_tool.hpp"
#include "support/rng.hpp"

#include "profile_run.hpp"

namespace tq::quad {
namespace {

using gasm::F;
using gasm::ProgramBuilder;
using gasm::R;
using gasm::SP;

struct QuadRun {
  vm::Program program;
  vm::HostEnv host;
  std::unique_ptr<QuadTool> tool;

  explicit QuadRun(vm::Program prog, QuadOptions options = {})
      : program(std::move(prog)) {
    tool = std::make_unique<QuadTool>(program, options);
    testutil::profile_live(program, host, {tool.get()}, options.library_policy);
  }
  std::uint32_t id(const std::string& name) const { return *program.find(name); }
};

/// Simpler, fully explicit program for exact assertions.
vm::Program make_simple_flow() {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& producer = prog.begin_function("producer");
  producer.movi(R{1}, static_cast<std::int64_t>(buf));
  producer.movi(R{2}, 0x11);
  producer.store(R{1}, 0, R{2}, 8);   // 8 bytes at buf
  producer.store(R{1}, 8, R{2}, 4);   // 4 bytes at buf+8
  producer.ret();
  auto& consumer = prog.begin_function("consumer");
  consumer.movi(R{1}, static_cast<std::int64_t>(buf));
  consumer.load(R{3}, R{1}, 0, 8);    // reads 8 produced bytes
  consumer.load(R{4}, R{1}, 0, 8);    // again (re-read)
  consumer.load(R{5}, R{1}, 8, 8);    // 4 produced + 4 unwritten
  consumer.load(R{6}, R{1}, 32, 8);   // fully unwritten
  consumer.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("producer");
  main_fn.call("consumer");
  main_fn.halt();
  return prog.build("main");
}

TEST(QuadTool, InAndOutBytesExact) {
  QuadRun run(make_simple_flow());
  const auto producer = run.id("producer");
  const auto consumer = run.id("consumer");
  // consumer IN (stack excluded): 4 loads x 8B = 32.
  EXPECT_EQ(run.tool->excluding_stack(consumer).in_bytes, 32u);
  // consumer IN including stack adds its ret pop (8B).
  EXPECT_EQ(run.tool->including_stack(consumer).in_bytes, 40u);
  // producer OUT: bytes read by anyone from its writes = 8 + 8 + 4 = 20.
  EXPECT_EQ(run.tool->excluding_stack(producer).out_bytes, 20u);
  EXPECT_EQ(run.tool->including_stack(producer).out_bytes, 20u);
}

TEST(QuadTool, UnMACountsDistinctAddresses) {
  QuadRun run(make_simple_flow());
  const auto producer = run.id("producer");
  const auto consumer = run.id("consumer");
  // producer wrote bytes buf..buf+11 -> 12 distinct global addresses.
  EXPECT_EQ(run.tool->excluding_stack(producer).out_unma.count(), 12u);
  // consumer read buf..buf+15 and buf+32..39 -> 24 distinct (re-read not
  // double counted).
  EXPECT_EQ(run.tool->excluding_stack(consumer).in_unma.count(), 24u);
  // Stack-included adds the 8-byte return-address slot (shared by both).
  EXPECT_EQ(run.tool->including_stack(consumer).in_unma.count(), 32u);
}

TEST(QuadTool, BindingsRecordProducerToConsumerBytes) {
  QuadRun run(make_simple_flow());
  const auto producer = run.id("producer");
  const auto consumer = run.id("consumer");
  EXPECT_EQ(run.tool->binding_bytes(producer, consumer), 20u);
  EXPECT_EQ(run.tool->binding_bytes(consumer, producer), 0u);
  const auto edges = run.tool->bindings();
  ASSERT_FALSE(edges.empty());
  bool found = false;
  for (const auto& edge : edges) {
    if (edge.producer == producer && edge.consumer == consumer) {
      found = true;
      EXPECT_EQ(edge.bytes, 20u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(QuadTool, SelfBindingWhenKernelReadsOwnWrites) {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& selfish = prog.begin_function("selfish");
  selfish.movi(R{1}, static_cast<std::int64_t>(buf));
  selfish.movi(R{2}, 5);
  selfish.store(R{1}, 0, R{2}, 8);
  selfish.load(R{3}, R{1}, 0, 8);
  selfish.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("selfish");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto selfish_id = run.id("selfish");
  EXPECT_EQ(run.tool->binding_bytes(selfish_id, selfish_id), 8u);
  EXPECT_EQ(run.tool->excluding_stack(selfish_id).out_bytes, 8u);
}

TEST(QuadTool, RetPopConsumesCallersPush) {
  // The return-address dataflow: main's call writes the slot, the callee's
  // ret reads it -> a main->callee stack binding of 8 bytes.
  ProgramBuilder prog;
  auto& callee = prog.begin_function("callee");
  callee.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("callee");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  EXPECT_EQ(run.tool->binding_bytes(run.id("main"), run.id("callee")), 8u);
}

TEST(QuadTool, MovsTransfersProducership) {
  ProgramBuilder prog;
  const auto src = prog.alloc_global("src", 64);
  const auto dst = prog.alloc_global("dst", 64);
  auto& writer = prog.begin_function("writer");
  writer.movi(R{1}, static_cast<std::int64_t>(src));
  writer.movi(R{2}, 0xab);
  writer.count_loop_imm(R{3}, 0, 8, [&] {
    writer.shli(R{4}, R{3}, 3);
    writer.add(R{4}, R{4}, R{1});
    writer.store(R{4}, 0, R{2}, 8);
  });
  writer.ret();
  auto& copier = prog.begin_function("copier");
  copier.movi(R{1}, static_cast<std::int64_t>(dst));
  copier.movi(R{2}, static_cast<std::int64_t>(src));
  copier.movs(R{1}, R{2}, 64);
  copier.ret();
  auto& reader = prog.begin_function("reader");
  reader.movi(R{1}, static_cast<std::int64_t>(dst));
  reader.load(R{2}, R{1}, 0, 8);
  reader.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("writer");
  main_fn.call("copier");
  main_fn.call("reader");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  // copier consumed 64 bytes produced by writer...
  EXPECT_EQ(run.tool->binding_bytes(run.id("writer"), run.id("copier")), 64u);
  // ...and produced the dst bytes the reader consumed.
  EXPECT_EQ(run.tool->binding_bytes(run.id("copier"), run.id("reader")), 8u);
  EXPECT_EQ(run.tool->excluding_stack(run.id("copier")).out_unma.count(), 64u);
}

TEST(QuadTool, StackTrafficOnlyInIncludedCounters) {
  ProgramBuilder prog;
  auto& stacky = prog.begin_function("stacky");
  stacky.enter(32);
  stacky.movi(R{2}, 3);
  stacky.store(SP, 0, R{2}, 8);
  stacky.load(R{3}, SP, 0, 8);
  stacky.leave(32);
  stacky.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("stacky");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto stacky_id = run.id("stacky");
  EXPECT_EQ(run.tool->excluding_stack(stacky_id).in_bytes, 0u);
  EXPECT_EQ(run.tool->excluding_stack(stacky_id).out_unma.count(), 0u);
  EXPECT_EQ(run.tool->including_stack(stacky_id).in_bytes, 16u);  // load + ret
  EXPECT_EQ(run.tool->including_stack(stacky_id).out_unma.count(), 8u);
  // The kernel read its own stack write.
  EXPECT_EQ(run.tool->binding_bytes(stacky_id, stacky_id), 8u);
}

TEST(QuadTool, QduGraphDotContainsNodesAndEdges) {
  QuadRun run(make_simple_flow());
  const std::string dot = run.tool->qdu_graph_dot();
  EXPECT_NE(dot.find("digraph QDU"), std::string::npos);
  EXPECT_NE(dot.find("producer"), std::string::npos);
  EXPECT_NE(dot.find("consumer"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(QuadTool, InstrumentedCostChargesGlobalTraffic) {
  QuadRun run(make_simple_flow());
  const CostModel model;
  const auto producer = run.id("producer");
  // Cost must exceed the plain instruction count (memory work is charged).
  EXPECT_GT(run.tool->instrumented_cost(producer, model),
            run.tool->instructions(producer));
  // A kernel with only stack traffic pays the stub but not the trace cost.
  CostModel no_base = model;
  no_base.per_instruction = 0;
  no_base.per_memory_stub = 0;
  EXPECT_EQ(run.tool->instrumented_cost(producer, no_base),
            run.tool->instrumented_cost(producer, no_base));
}

TEST(QuadTool, InstrumentedProfileRanksAndTrends) {
  QuadRun run(make_simple_flow());
  std::vector<BaseShare> base{
      {run.id("producer"), 0.5},
      {run.id("consumer"), 0.5},
  };
  const auto rows = instrumented_profile(*run.tool, base);
  ASSERT_EQ(rows.size(), 2u);
  // Ranks are 1 and 2 in some order.
  EXPECT_EQ(rows[0].rank + rows[1].rank, 3u);
  for (const auto& row : rows) {
    EXPECT_GE(row.instrumented_fraction, 0.0);
    EXPECT_LE(row.instrumented_fraction, 1.0);
  }
}

TEST(QuadTool, TrendArrowsClassifyRatios) {
  EXPECT_STREQ(trend_arrow(Trend::kStrongUp), "↑↑");
  EXPECT_STREQ(trend_arrow(Trend::kFlat), "↔");
  EXPECT_STREQ(trend_arrow(Trend::kStrongDown), "↓↓");
}

TEST(QuadTool, LibraryPolicyExcludesLibraryKernels) {
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& lib = prog.begin_function("libcopy", vm::ImageKind::kLibrary);
  lib.movi(R{1}, static_cast<std::int64_t>(buf));
  lib.movi(R{2}, 1);
  lib.store(R{1}, 0, R{2}, 8);
  lib.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("libcopy");
  main_fn.movi(R{1}, static_cast<std::int64_t>(buf));
  main_fn.load(R{3}, R{1}, 0, 8);
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto lib_id = run.id("libcopy");
  const auto main_id = run.id("main");
  // The library write is invisible: no producer recorded.
  EXPECT_EQ(run.tool->excluding_stack(lib_id).out_unma.count(), 0u);
  EXPECT_EQ(run.tool->binding_bytes(lib_id, main_id), 0u);
  // main still counts its read.
  EXPECT_EQ(run.tool->excluding_stack(main_id).in_bytes, 8u);
}


TEST(QuadTool, BindingUnmaCountsDistinctTransferAddresses) {
  // The QDU-edge annotation the paper reads buffer sizes from: re-reads
  // raise bytes but not the edge's UnMA.
  ProgramBuilder prog;
  const auto buf = prog.alloc_global("buf", 64);
  auto& producer = prog.begin_function("producer");
  producer.movi(R{1}, static_cast<std::int64_t>(buf));
  producer.movi(R{2}, 1);
  producer.store(R{1}, 0, R{2}, 8);
  producer.ret();
  auto& consumer = prog.begin_function("consumer");
  consumer.movi(R{1}, static_cast<std::int64_t>(buf));
  consumer.count_loop_imm(R{2}, 0, 10, [&] {  // ten re-reads of one slot
    consumer.load(R{3}, R{1}, 0, 8);
  });
  consumer.ret();
  auto& main_fn = prog.begin_function("main");
  main_fn.call("producer");
  main_fn.call("consumer");
  main_fn.halt();
  QuadRun run(prog.build("main"));
  const auto edges = run.tool->bindings();
  const quad::Binding* edge = nullptr;
  for (const auto& e : edges) {
    if (e.producer == run.id("producer") && e.consumer == run.id("consumer")) {
      edge = &e;
    }
  }
  ASSERT_NE(edge, nullptr);
  EXPECT_EQ(edge->bytes, 80u);  // 10 x 8 re-read bytes
  EXPECT_EQ(edge->unma, 8u);    // ... through only 8 distinct addresses
}

TEST(QuadTool, QduDotCarriesEdgeAnnotations) {
  QuadRun run(make_simple_flow());
  const std::string dot = run.tool->qdu_graph_dot();
  EXPECT_NE(dot.find(" B / "), std::string::npos);
  EXPECT_NE(dot.find("addr"), std::string::npos);
}

// ---- randomized differential against a naive reference model -----------------
// The reference keeps the shadow as a byte map and every UnMA set as a
// std::set, so it shares no code with the paged bitmaps, the page lookaside
// or the binding-edge cache it checks.

constexpr std::uint32_t kKernels = 6;

vm::Program make_kernels_program() {
  ProgramBuilder prog;
  for (std::uint32_t k = 0; k < kKernels; ++k) {
    prog.begin_function("k" + std::to_string(k)).ret();
  }
  auto& main_fn = prog.begin_function("main");
  main_fn.halt();
  return prog.build("main");
}

struct ReferenceQuad {
  struct Counters {
    std::uint64_t in_bytes = 0;
    std::uint64_t out_bytes = 0;
    std::set<std::uint64_t> in_unma;
    std::set<std::uint64_t> out_unma;
  };
  struct Edge {
    std::uint64_t bytes = 0;
    std::set<std::uint64_t> unma;
  };

  explicit ReferenceQuad(std::size_t kernels)
      : incl(kernels), excl(kernels), global_accesses(kernels),
        global_bytes(kernels), instrs(kernels), mem_refs(kernels) {}

  void access(const session::AccessEvent& e) {
    if (e.is_prefetch || e.kernel == tquad::kNoKernel) return;
    const std::uint32_t k = e.kernel;
    if (!e.is_stack) {
      ++global_accesses[k];
      global_bytes[k] += e.size;
    }
    if (e.is_read) {
      incl[k].in_bytes += e.size;
      if (!e.is_stack) excl[k].in_bytes += e.size;
    }
    for (std::uint64_t a = e.ea; a < e.ea + e.size; ++a) {
      if (e.is_read) {
        incl[k].in_unma.insert(a);
        if (!e.is_stack) excl[k].in_unma.insert(a);
        auto it = shadow.find(a);
        if (it == shadow.end()) continue;
        const std::uint32_t producer = it->second;
        ++incl[producer].out_bytes;
        if (!e.is_stack) ++excl[producer].out_bytes;
        Edge& edge = bindings[{producer, k}];
        ++edge.bytes;
        edge.unma.insert(a);
      } else {
        incl[k].out_unma.insert(a);
        if (!e.is_stack) excl[k].out_unma.insert(a);
        shadow[a] = k;
      }
    }
  }

  void tick_run(const session::TickRunEvent& run) {
    instrs[run.kernel] += run.count;
    mem_refs[run.kernel] += run.mem_count;
  }

  std::uint64_t instrumented_cost(std::uint32_t k, const CostModel& model) const {
    const std::uint64_t working_set = excl[k].in_unma.size() + excl[k].out_unma.size();
    const double scale = working_set <= model.hot_set_bytes ? model.hot_discount : 1.0;
    const double trace =
        scale * (static_cast<double>(global_accesses[k] * model.per_global_trace) +
                 static_cast<double>(global_bytes[k] * model.per_global_byte));
    return instrs[k] * model.per_instruction + mem_refs[k] * model.per_memory_stub +
           static_cast<std::uint64_t>(trace);
  }

  std::map<std::uint64_t, std::uint32_t> shadow;
  std::vector<Counters> incl;
  std::vector<Counters> excl;
  std::vector<std::uint64_t> global_accesses;
  std::vector<std::uint64_t> global_bytes;
  std::vector<std::uint64_t> instrs;
  std::vector<std::uint64_t> mem_refs;
  std::map<std::pair<std::uint32_t, std::uint32_t>, Edge> bindings;
};

/// A seeded access stream in the shape of a real run: a stack region and a
/// global region a few pages wide, accessed alternately; sizes 1-16 with a
/// few page-sized ranges; offsets pulled towards 64-byte words and page
/// ends so ranges straddle both; the odd prefetch and unattributed access.
/// Some global accesses go to pages that all share one lookaside slot, so
/// the caches also evict.
std::vector<session::AccessEvent> random_stream(std::uint64_t seed, int count) {
  constexpr std::uint64_t kPage = AddressSet::kPageSize;
  constexpr std::uint64_t kGlobalBase = 0x10'0000;
  constexpr std::uint64_t kStackBase = 0x7fff'0000'0000 - 3 * kPage;
  constexpr std::uint64_t kAliasStride = PageLookaside<int>::kSlots;
  SplitMix64 rng(seed);
  std::vector<session::AccessEvent> events;
  std::uint32_t kernel = 0;
  for (int i = 0; i < count; ++i) {
    if (rng.next_below(16) == 0) kernel = static_cast<std::uint32_t>(rng.next_below(kKernels));
    session::AccessEvent e;
    e.kernel = rng.next_below(64) == 0 ? tquad::kNoKernel : kernel;
    e.func = e.kernel == tquad::kNoKernel ? 0 : e.kernel;
    e.is_stack = (i % 2 == 0) != (rng.next_below(8) == 0);
    e.is_read = rng.next_below(2) == 0;
    e.is_prefetch = e.is_read && rng.next_below(32) == 0;
    const std::uint64_t pages = e.is_stack ? 3 : 5;
    std::uint64_t offset = rng.next_below(pages * kPage);
    if (!e.is_stack && rng.next_below(4) == 0) {
      offset = (8 + kAliasStride * rng.next_below(6)) * kPage + rng.next_below(kPage);
    }
    switch (rng.next_below(4)) {
      case 0: offset |= 63; offset -= rng.next_below(8); break;  // word end
      case 1: offset |= kPage - 1; offset -= rng.next_below(12); break;  // page end
      default: break;
    }
    e.size = rng.next_below(160) == 0
                 ? static_cast<std::uint32_t>(kPage + rng.next_below(2) * rng.next_below(64))
                 : 1 + static_cast<std::uint32_t>(rng.next_below(16));
    e.ea = (e.is_stack ? kStackBase : kGlobalBase) + offset;
    events.push_back(e);
  }
  return events;
}

std::vector<session::TickRunEvent> random_tick_runs(std::uint64_t seed) {
  SplitMix64 rng(seed ^ 0x5eed);
  std::vector<session::TickRunEvent> runs;
  for (int i = 0; i < 40; ++i) {
    session::TickRunEvent run;
    run.kernel = static_cast<std::uint32_t>(rng.next_below(kKernels));
    run.func = run.kernel;
    run.count = 1 + rng.next_below(5000);
    run.mem_count = rng.next_below(run.count + 1);
    runs.push_back(run);
  }
  return runs;
}

void expect_same_set(const AddressSet& got, const std::set<std::uint64_t>& want,
                     const char* what, std::uint32_t kernel) {
  ASSERT_EQ(got.count(), want.size()) << what << " kernel " << kernel;
  for (std::uint64_t a : want) {
    if (!got.contains(a)) {
      ADD_FAILURE() << what << " kernel " << kernel << " lacks " << a;
      return;
    }
  }
}

void expect_matches_reference(const QuadTool& tool, const ReferenceQuad& ref) {
  for (std::uint32_t k = 0; k < kKernels; ++k) {
    for (int stack = 0; stack < 2; ++stack) {
      const KernelCounters& got = stack ? tool.including_stack(k) : tool.excluding_stack(k);
      const ReferenceQuad::Counters& want = stack ? ref.incl[k] : ref.excl[k];
      EXPECT_EQ(got.in_bytes, want.in_bytes) << "kernel " << k << " stack " << stack;
      EXPECT_EQ(got.out_bytes, want.out_bytes) << "kernel " << k << " stack " << stack;
      expect_same_set(got.in_unma, want.in_unma, stack ? "in incl" : "in excl", k);
      expect_same_set(got.out_unma, want.out_unma, stack ? "out incl" : "out excl", k);
    }
    const CostModel model;
    EXPECT_EQ(tool.instrumented_cost(k, model), ref.instrumented_cost(k, model)) << k;
    CostModel cold = model;
    cold.hot_set_bytes = 0;
    EXPECT_EQ(tool.instrumented_cost(k, cold), ref.instrumented_cost(k, cold)) << k;
  }
  using EdgeRow = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, std::uint64_t>;
  std::set<EdgeRow> got_edges;
  for (const Binding& b : tool.bindings()) {
    got_edges.insert({b.producer, b.consumer, b.bytes, b.unma});
    EXPECT_EQ(tool.binding_bytes(b.producer, b.consumer), b.bytes);
  }
  std::set<EdgeRow> want_edges;
  for (const auto& [key, edge] : ref.bindings) {
    want_edges.insert({key.first, key.second, edge.bytes, edge.unma.size()});
  }
  EXPECT_EQ(got_edges, want_edges);
  EXPECT_FALSE(want_edges.empty());
}

class QuadToolDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuadToolDifferential, SerialMatchesReference) {
  const vm::Program program = make_kernels_program();
  QuadTool tool(program);
  ReferenceQuad ref(tool.kernel_count());
  for (const auto& e : random_stream(GetParam(), 4000)) {
    tool.on_access(e);
    ref.access(e);
  }
  for (const auto& run : random_tick_runs(GetParam())) {
    tool.on_tick_run(run);
    ref.tick_run(run);
  }
  expect_matches_reference(tool, ref);
}

TEST_P(QuadToolDifferential, ShardedMatchesReference) {
  const vm::Program program = make_kernels_program();
  for (unsigned shards : {2u, 3u}) {
    QuadTool tool(program);
    ReferenceQuad ref(tool.kernel_count());
    tool.prepare_shards(shards);
    for (const auto& e : random_stream(GetParam(), 4000)) {
      ref.access(e);
      // The pipeline router's contract: per-page pieces, routed by page
      // number, count_access on the first piece only.
      std::uint64_t cursor = e.ea;
      std::uint32_t remaining = e.size;
      bool first = true;
      while (remaining > 0) {
        const std::uint64_t page_end =
            ((cursor >> AddressSet::kPageBits) + 1) << AddressSet::kPageBits;
        session::AccessEvent piece = e;
        piece.ea = cursor;
        piece.size = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, page_end - cursor));
        tool.apply_access_shard(
            static_cast<unsigned>((cursor >> AddressSet::kPageBits) % shards), piece, first);
        first = false;
        cursor += piece.size;
        remaining -= piece.size;
      }
    }
    tool.merge_shards();
    for (const auto& run : random_tick_runs(GetParam())) {
      tool.on_tick_run(run);
      ref.tick_run(run);
    }
    // Accesses after the fold land in the merged state (and must not reach
    // the folded shards through any cache).
    for (const auto& e : random_stream(GetParam() + 1, 500)) {
      tool.on_access(e);
      ref.access(e);
    }
    expect_matches_reference(tool, ref);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuadToolDifferential,
                         ::testing::Values(1, 17, 99, 2024));

}  // namespace
}  // namespace tq::quad
