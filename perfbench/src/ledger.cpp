#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "stats.hpp"
#include "trace/trace_v2.hpp"
#include "vm/compiled.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

using tq::session::AccessEvent;
using tq::session::AnalysisConsumer;
using tq::session::EnterEvent;
using tq::session::RetEvent;
using tq::session::ShardedAccessConsumer;
using tq::session::TickEvent;
using tq::session::TickRunEvent;

constexpr std::uint64_t kSampleMask = 63;  ///< time one call in each 64
constexpr unsigned kParallelWorkers = 3;   ///< -pipeline parallel:3
constexpr int kMinRounds = 2;
constexpr int kFixedProbeReps = 3;
/// How far the serial layer self times may miss the session's wall time.
constexpr double kLedgerTolerance = 0.15;

template <class Call>
void counted(CallCounts& counts, EventKind kind, Call&& call) {
  const std::uint64_t index = counts.calls[kind]++;
  if (index != counts.next_sample[kind]) {
    call();
    return;
  }
  // The next timed call: a seeded random one of the next window of 64.
  counts.next_sample[kind] =
      (index | kSampleMask) + 1 + (counts.jitter.next() & kSampleMask);
  const auto start = Clock::now();
  call();
  const auto end = Clock::now();
  counts.sampled_ns[kind] += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  // One more clock read straight after: what the sample's own clock reads
  // add to it, measured in place, with the caches the session left.
  counts.clock_ns[kind] += ns_since(end);
  ++counts.sampled[kind];
}

template <class Call>
void timed(std::uint64_t& total_ns, Call&& call) {
  const auto start = Clock::now();
  call();
  total_ns += ns_since(start);
}

/// The sharded-access facet of a TimedConsumer. Each shard counts into its
/// own CallCounts, so concurrent shard workers never share a counter.
class TimedShards final : public ShardedAccessConsumer {
 public:
  TimedShards(ShardedAccessConsumer& inner, ConsumerLedger& ledger)
      : inner_(inner), ledger_(ledger) {}

  void prepare_shards(unsigned shards) override {
    ledger_.shards.assign(shards, CallCounts{});
    timed(ledger_.exact_ns, [&] { inner_.prepare_shards(shards); });
  }
  void apply_access_shard(unsigned shard, const AccessEvent& event,
                          bool count_access) override {
    CallCounts& counts = ledger_.shards[shard];
    if (count_access) ++counts.counted_accesses;
    counted(counts, kAccess,
            [&] { inner_.apply_access_shard(shard, event, count_access); });
  }
  void merge_shards() override {
    timed(ledger_.exact_ns, [&] { inner_.merge_shards(); });
  }

 private:
  ShardedAccessConsumer& inner_;
  ConsumerLedger& ledger_;
};

/// Forwards every call to the wrapped consumer, counting it (see ledger.hpp).
class TimedConsumer final : public AnalysisConsumer {
 public:
  TimedConsumer(AnalysisConsumer& inner, ConsumerLedger& ledger)
      : inner_(inner), ledger_(ledger) {}

  unsigned event_interests() const override { return inner_.event_interests(); }
  void on_kernel_enter(const EnterEvent& event) override {
    counted(ledger_.main, kEnter, [&] { inner_.on_kernel_enter(event); });
  }
  void on_tick(const TickEvent& event) override {
    counted(ledger_.main, kTick, [&] { inner_.on_tick(event); });
  }
  void on_tick_run(const TickRunEvent& run) override {
    counted(ledger_.main, kTickRun, [&] { inner_.on_tick_run(run); });
  }
  void on_access(const AccessEvent& event) override {
    counted(ledger_.main, kAccess, [&] { inner_.on_access(event); });
  }
  void on_kernel_ret(const RetEvent& event) override {
    counted(ledger_.main, kRet, [&] { inner_.on_kernel_ret(event); });
  }
  void on_session_end(std::uint64_t total_retired) override {
    timed(ledger_.exact_ns, [&] { inner_.on_session_end(total_retired); });
  }
  void on_finish(const tq::vm::RunOutcome& outcome) override {
    timed(ledger_.exact_ns, [&] { inner_.on_finish(outcome); });
  }
  ShardedAccessConsumer* sharded_access() override {
    if (shards_ == nullptr) {
      ShardedAccessConsumer* inner = inner_.sharded_access();
      if (inner == nullptr) return nullptr;
      shards_ = std::make_unique<TimedShards>(*inner, ledger_);
    }
    return shards_.get();
  }

 private:
  AnalysisConsumer& inner_;
  ConsumerLedger& ledger_;
  std::unique_ptr<TimedShards> shards_;
};

double estimated_ns(const CallCounts& counts) {
  double total = 0;
  for (unsigned k = 0; k < kKinds; ++k) {
    if (counts.sampled[k] == 0) continue;
    const double sampled = static_cast<double>(counts.sampled[k]);
    const double busy_ns = static_cast<double>(counts.sampled_ns[k]) -
                           static_cast<double>(counts.clock_ns[k]);
    const double per_call = std::max(0.0, busy_ns / sampled);
    total += per_call * static_cast<double>(counts.calls[k]);
  }
  return total;
}

/// Per-round values of every metric, reported as medians.
class SampleSet {
 public:
  void add(const std::string& name, const std::string& unit, double value) {
    auto [it, fresh] = values_.try_emplace(name);
    if (fresh) order_.emplace_back(name, unit);
    it->second.push_back(value);
  }
  std::vector<Metric> medians() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : order_) {
      const std::vector<double>& values = values_.at(name);
      out.push_back(Metric{name, median(values), unit, values.size()});
    }
    return out;
  }

 private:
  std::map<std::string, std::vector<double>> values_;
  std::vector<std::pair<std::string, std::string>> order_;
};

// ---- the sessions of one round ----------------------------------------------

/// The four decorated session kinds of the suite. Each workload's own
/// session is one of them; the others probe the layers it bypasses.
enum SpecIndex : unsigned { kTrioSerial = 0, kRecordSerial, kReplaySerial, kTrioParallel, kSpecs };

SessionSpec spec_of(unsigned index) {
  switch (index) {
    case kTrioSerial: return SessionSpec{kTrio};
    case kRecordSerial: return SessionSpec{kTquad | kRecord};
    case kReplaySerial: return SessionSpec{kTquad, /*replay=*/true};
    default: return SessionSpec{kTrio, false, kParallelWorkers};
  }
}

unsigned index_of(const SessionSpec& spec) {
  for (unsigned i = 0; i < kSpecs; ++i) {
    const SessionSpec candidate = spec_of(i);
    if (candidate.tools == spec.tools && candidate.replay == spec.replay &&
        candidate.workers == spec.workers) {
      return i;
    }
  }
  return kSpecs;
}

/// One decorated session kind, summed over the programs of a round.
struct SpecSums {
  double wall_s = 0, construct_s = 0, take_trace_s = 0;
  double render_s[3] = {};
  double consume_s[kLayers] = {};
  std::uint64_t calls[kLayers][kKinds] = {};
  std::uint64_t events_enter = 0, events_ret = 0, events_tick_run = 0,
                events_access = 0;
  tq::session::PipelineStats pipeline;
  std::uint64_t shadow_bytes = 0, trace_records = 0, trace_blocks = 0,
                trace_bytes = 0;

  void add(const SessionResult& result, const SessionTrace& trace) {
    wall_s += result.wall_s;
    construct_s += result.construct_s;
    take_trace_s += result.take_trace_s;
    for (int i = 0; i < 3; ++i) render_s[i] += result.render_s[i];
    for (std::size_t layer = 0; layer < kLayers; ++layer) {
      const ConsumerLedger& ledger = trace.ledger(static_cast<Layer>(layer));
      consume_s[layer] += ledger.consume_s();
      for (unsigned k = 0; k < kKinds; ++k) {
        calls[layer][k] += ledger.calls(static_cast<EventKind>(k));
      }
    }
    events_enter += trace.published("session.events.enter");
    events_ret += trace.published("session.events.ret");
    events_tick_run += trace.published("session.events.tick_run");
    events_access += trace.published("session.events.access");
    const tq::session::PipelineStats& p = result.pipeline;
    pipeline.batches_published += p.batches_published;
    pipeline.backpressure_waits += p.backpressure_waits;
    pipeline.producer_stall_ns += p.producer_stall_ns;
    pipeline.shard_fold_ns += p.shard_fold_ns;
    pipeline.freelist_hits += p.freelist_hits;
    pipeline.freelist_misses += p.freelist_misses;
    shadow_bytes += trace.published("quad.shadow.bytes");
    trace_records += trace.published("trace.write.records");
    trace_blocks += trace.published("trace.write.crc_blocks");
    trace_bytes += trace.published("trace.write.bytes");
  }
};

/// Everything one round measured, summed over the workload's programs.
struct RoundSums {
  SpecSums specs[kSpecs];
  double own_untraced_s = 0, own_traced_s = 0;
  double empty_live_s = 0, empty_live_construct_s = 0;
  double empty_replay_s = 0, empty_replay_construct_s = 0;
  double lower_s = 0, bare_s = 0;
  double open_s = 0, decode_s = 0;
  std::uint64_t decoded_records = 0, retired = 0;
  double golden_s = 0, wfs_own_untraced_s = 0, wfs_interp_s = 0;
};

/// A probe session's expectation: the reference's retired count and the
/// recorded trace, but not the reports of another tool set.
Expected retired_only(const Expected& full) {
  return Expected{full.retired, {}, full.trace};
}

/// The uninstrumented compiled VM: construction, then run().
void probe_bare_vm(const GuestProgram& program, const Expected& want,
                   RoundSums& sums, Tally& tally) {
  tq::vm::HostEnv host = program.make_host();
  auto start = Clock::now();
  tq::vm::CompiledMachine machine(program.program, host);
  sums.lower_s += seconds_since(start);
  start = Clock::now();
  const tq::vm::RunOutcome outcome = machine.run();
  sums.bare_s += seconds_since(start);
  std::string failure;
  if (outcome.status != tq::vm::RunStatus::kHalted ||
      outcome.retired != want.retired) {
    failure = program.name + ": bare VM run: " + outcome.summary();
  } else if (program.check_state) {
    failure = program.check_state(machine.memory(), machine.cpu());
  } else {
    failure = program.check_output(host);
  }
  if (!failure.empty()) failure = program.name + ": bare VM: " + failure;
  tally.record(failure);
}

/// TraceV2View::open and every decode_block of the program's trace.
void probe_decode(const GuestProgram& program,
                  const std::vector<std::uint8_t>& trace, RoundSums& sums,
                  Tally& tally) {
  auto start = Clock::now();
  const tq::trace::TraceV2View view = tq::trace::TraceV2View::open(trace);
  sums.open_s += seconds_since(start);
  std::uint64_t records = 0;
  start = Clock::now();
  for (std::size_t block = 0; block < view.block_count(); ++block) {
    records += view.decode_block(block).size();
  }
  sums.decode_s += seconds_since(start);
  sums.decoded_records += records;
  tally.record(records == view.record_count()
                   ? std::string()
                   : program.name + ": decoded record count differs from the index");
}

/// The fixed per-session cost of the parallel pipeline: parallel:3 minus
/// serial session time on each registry program's test-scale build, the
/// median over programs (the wfs member runs long enough to gain from the
/// pipeline), in ms.
double probe_pipeline_fixed_ms(const std::vector<GuestProgram>& tests, Tally& tally) {
  std::vector<double> fixed_ms;
  for (const GuestProgram& program : tests) {
    std::vector<double> serial, parallel;
    std::string reference;
    for (int rep = 0; rep < kFixedProbeReps; ++rep) {
      for (const unsigned index : {kTrioSerial, kTrioParallel}) {
        const SessionResult result = run_session(program, spec_of(index));
        (index == kTrioSerial ? serial : parallel).push_back(result.wall_s);
        std::string failure;
        if (result.outcome.status != tq::vm::RunStatus::kHalted) {
          failure = program.name + " (test scale): " + result.outcome.summary();
        } else if (reference.empty()) {
          reference = result.reports;
        } else if (result.reports != reference) {
          failure = program.name + " (test scale): serial and parallel reports differ";
        }
        tally.record(failure);
      }
    }
    fixed_ms.push_back((median(parallel) - median(serial)) * 1e3);
  }
  return median(std::move(fixed_ms));
}

std::vector<GuestProgram> test_scale_programs() {
  std::vector<GuestProgram> tests;
  for (const tq::workloads::Entry& entry : tq::workloads::registry()) {
    tq::workloads::Instance instance = entry.build();
    GuestProgram program;
    program.name = entry.name;
    program.program = std::move(instance.program);
    if (!instance.input.empty()) {
      // The wfs member: make_host wires input and output descriptors.
      program.wfs = tq::wfs::WfsConfig::tiny();
      program.input_wav = std::move(instance.input);
    }
    tests.push_back(std::move(program));
  }
  return tests;
}

/// One program's decorated session walls and layer times in one round.
struct ProgramRow {
  double wall_s[kSpecs] = {};
  double consume_s[kSpecs][kLayers] = {};
  double stall_ms = 0;

  void note(unsigned index, const SessionResult& result, const SessionTrace& trace) {
    wall_s[index] = result.wall_s;
    for (std::size_t layer = 0; layer < kLayers; ++layer) {
      consume_s[index][layer] = trace.ledger(static_cast<Layer>(layer)).consume_s();
    }
    if (index == kTrioParallel) {
      stall_ms = static_cast<double>(result.pipeline.producer_stall_ns) * 1e-6;
    }
  }
};

void add_program_row(SampleSet& rows, const std::string& name,
                     const Workload& workload, double untraced_s,
                     const ProgramRow& row) {
  const unsigned own = index_of(workload.spec);
  rows.add(name + "|untraced_ms", "ms", untraced_s * 1e3);
  rows.add(name + "|traced_ms", "ms", row.wall_s[own] * 1e3);
  rows.add(name + "|serial_trio_ms", "ms", row.wall_s[kTrioSerial] * 1e3);
  rows.add(name + "|parallel_ms", "ms", row.wall_s[kTrioParallel] * 1e3);
  rows.add(name + "|speedup_x", "x",
           row.wall_s[kTrioSerial] / row.wall_s[kTrioParallel]);
  rows.add(name + "|stall_ms", "ms", row.stall_ms);
  const unsigned consumers = (workload.spec.tools & kQuad) ? own : kTrioSerial;
  const unsigned recorder = (workload.spec.tools & kRecord) ? own : kRecordSerial;
  const auto layer_ms = [&](unsigned index, Layer layer) {
    return row.consume_s[index][static_cast<std::size_t>(layer)] * 1e3;
  };
  rows.add(name + "|tquad_ms", "ms", layer_ms(own, Layer::kTquad));
  rows.add(name + "|quad_ms", "ms", layer_ms(consumers, Layer::kQuad));
  rows.add(name + "|gprof_ms", "ms", layer_ms(consumers, Layer::kGprof));
  rows.add(name + "|encode_ms", "ms", layer_ms(recorder, Layer::kTrace));
}

/// "row <program> column=value ..." lines, one per program, from medians.
void print_rows(const std::vector<Metric>& medians) {
  std::string current;
  for (const Metric& metric : medians) {
    const std::size_t bar = metric.name.find('|');
    const std::string program = metric.name.substr(0, bar);
    if (program != current) {
      if (!current.empty()) std::printf("\n");
      std::printf("row %s", program.c_str());
      current = program;
    }
    std::printf(" %s=%.4g", metric.name.substr(bar + 1).c_str(), metric.value);
  }
  if (!current.empty()) std::printf("\n");
}

void add_round_metrics(SampleSet& out, const Workload& workload,
                       const RoundSums& r, double fixed_ms) {
  const unsigned own_index = index_of(workload.spec);
  const SpecSums& own = r.specs[own_index];
  const SpecSums& quad_src = (workload.spec.tools & kQuad) ? own : r.specs[kTrioSerial];
  const SpecSums& trace_src =
      (workload.spec.tools & kRecord) ? own : r.specs[kRecordSerial];
  const SpecSums& parallel = r.specs[kTrioParallel];
  constexpr auto kT = static_cast<std::size_t>(Layer::kTquad);
  constexpr auto kQ = static_cast<std::size_t>(Layer::kQuad);
  constexpr auto kG = static_cast<std::size_t>(Layer::kGprof);
  constexpr auto kR = static_cast<std::size_t>(Layer::kTrace);

  out.add("vm.lower_ms", "ms", r.lower_s * 1e3);
  out.add("vm.bare_s", "s", r.bare_s);
  out.add("vm.retired", "count", static_cast<double>(r.retired));
  out.add("session.attribution_s", "s", r.empty_live_s - r.lower_s - r.bare_s);
  out.add("session.events.enter", "count", static_cast<double>(own.events_enter));
  out.add("session.events.ret", "count", static_cast<double>(own.events_ret));
  out.add("session.events.tick_run", "count",
          static_cast<double>(own.events_tick_run));
  out.add("session.events.access", "count", static_cast<double>(own.events_access));
  out.add("session.replay_source_s", "s", r.empty_replay_s);

  const tq::session::PipelineStats& p = parallel.pipeline;
  out.add("pipeline.fixed_ms", "ms", fixed_ms);
  out.add("pipeline.speedup_x", "x", r.specs[kTrioSerial].wall_s / parallel.wall_s);
  out.add("pipeline.batches_published", "count",
          static_cast<double>(p.batches_published));
  out.add("pipeline.backpressure_waits", "count",
          static_cast<double>(p.backpressure_waits));
  out.add("pipeline.producer_stall_ms", "ms",
          static_cast<double>(p.producer_stall_ns) * 1e-6);
  out.add("pipeline.shard_fold_ms", "ms", static_cast<double>(p.shard_fold_ns) * 1e-6);
  const std::uint64_t lookups = p.freelist_hits + p.freelist_misses;
  out.add("pipeline.freelist_hit_frac", "ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(p.freelist_hits) /
                             static_cast<double>(lookups));

  out.add("tquad.consume_s", "s", own.consume_s[kT]);
  out.add("tquad.calls.tick_run", "count", static_cast<double>(own.calls[kT][kTickRun]));
  out.add("tquad.calls.access", "count", static_cast<double>(own.calls[kT][kAccess]));
  out.add("tquad.calls.enter", "count", static_cast<double>(own.calls[kT][kEnter]));
  out.add("tquad.calls.ret", "count", static_cast<double>(own.calls[kT][kRet]));
  out.add("tquad.render_ms", "ms", own.render_s[0] * 1e3);
  out.add("quad.consume_s", "s", quad_src.consume_s[kQ]);
  out.add("quad.calls.access", "count",
          static_cast<double>(quad_src.calls[kQ][kAccess]));
  out.add("quad.render_ms", "ms", quad_src.render_s[1] * 1e3);
  out.add("quad.shadow_bytes", "B", static_cast<double>(quad_src.shadow_bytes));
  out.add("gprofsim.consume_s", "s", quad_src.consume_s[kG]);
  out.add("gprofsim.render_ms", "ms", quad_src.render_s[2] * 1e3);

  out.add("trace.encode_s", "s", trace_src.consume_s[kR] + trace_src.take_trace_s);
  out.add("trace.records", "count", static_cast<double>(trace_src.trace_records));
  out.add("trace.blocks", "count", static_cast<double>(trace_src.trace_blocks));
  out.add("trace.bytes_per_record", "B/record",
          static_cast<double>(trace_src.trace_bytes) /
              static_cast<double>(std::max<std::uint64_t>(trace_src.trace_records, 1)));
  out.add("trace.open_ms", "ms", r.open_s * 1e3);
  out.add("trace.decode_s", "s", r.decode_s);
  out.add("trace.decode_mrec_per_s", "Mrec/s",
          static_cast<double>(r.decoded_records) / r.decode_s * 1e-6);

  out.add("native.golden_s", "s", r.golden_s);
  out.add("native.slowdown_x", "x", r.wfs_own_untraced_s / r.golden_s);
  out.add("native.interp_slowdown_x", "x", r.wfs_interp_s / r.golden_s);

  // The ledger of a serial session (zoo-parallel: its serial trio probe):
  // the empty-consumer session (source, attribution, session construction)
  // plus what the decorators and timers charged to each layer.
  const bool own_serial = workload.spec.workers == 0;
  const SpecSums& serial = own_serial ? own : r.specs[kTrioSerial];
  const bool replay = own_serial && workload.spec.replay;
  const double empty_s = replay ? r.empty_replay_s : r.empty_live_s;
  const double empty_construct_s =
      replay ? r.empty_replay_construct_s : r.empty_live_construct_s;
  double layers_s = empty_s + (serial.construct_s - empty_construct_s) +
                    serial.take_trace_s;
  for (std::size_t layer = 0; layer < kLayers; ++layer) layers_s += serial.consume_s[layer];
  for (const double render : serial.render_s) layers_s += render;
  out.add("ledger.unaccounted_frac", "ratio", 1.0 - layers_s / serial.wall_s);
  out.add("tracing.overhead_frac", "ratio", r.own_traced_s / r.own_untraced_s - 1.0);
}

}  // namespace

// ---- ConsumerLedger / SessionTrace ------------------------------------------

std::uint64_t ConsumerLedger::calls(EventKind kind) const {
  std::uint64_t total = main.calls[kind];
  if (kind == kAccess) {
    for (const CallCounts& shard : shards) total += shard.counted_accesses;
  }
  return total;
}

double ConsumerLedger::consume_s() const {
  double ns = estimated_ns(main) + static_cast<double>(exact_ns);
  for (const CallCounts& shard : shards) ns += estimated_ns(shard);
  return ns * 1e-9;
}

AnalysisConsumer& SessionTrace::wrap(AnalysisConsumer& tool, Layer layer) {
  wrappers_.push_back(std::make_unique<TimedConsumer>(
      tool, ledgers_[static_cast<std::size_t>(layer)]));
  return *wrappers_.back();
}

std::uint64_t SessionTrace::published(const std::string& name) const {
  const tq::metrics::Snapshot snapshot = registry_.snapshot();
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  for (const auto& [key, gauge] : snapshot.gauges) {
    if (key == name) return gauge.value;
  }
  return 0;
}

// ---- the suite --------------------------------------------------------------

std::vector<Metric> run_traced(const Workload& workload, Prepared& prepared,
                               double seconds, std::uint64_t seed, Tally& tally) {
  const unsigned own_index = index_of(workload.spec);
  const std::vector<GuestProgram> tests = test_scale_programs();
  const std::size_t programs = prepared.programs.size();
  SampleSet metrics;
  SampleSet rows;
  SampleSet crosscheck;
  tq::SplitMix64 rng(seed);
  std::vector<std::size_t> order(programs);
  std::iota(order.begin(), order.end(), 0);

  const auto start = Clock::now();
  for (int round = 0; round < kMinRounds || seconds_since(start) < seconds; ++round) {
    shuffle(order, rng);
    RoundSums sums;
    for (const std::size_t p : order) {
      ProgramRow row;
      GuestProgram& program = prepared.programs[p];
      const Expected& want = prepared.expected[p];
      const std::vector<std::uint8_t>& trace = prepared.traces[p];
      const std::span<const std::uint8_t> replay_bytes(trace);

      // The workload's own session, untraced and traced, in alternating order.
      double own_untraced_s = 0;
      for (int pass = 0; pass < 2; ++pass) {
        if ((pass == 0) == (round % 2 == 0)) {
          const SessionResult result = run_session(program, workload.spec, replay_bytes);
          own_untraced_s = result.wall_s;
          tally.record(check_session(program, workload.spec, result, want));
        } else {
          SessionTrace session_trace;
          const SessionResult result =
              run_session(program, workload.spec, replay_bytes, &session_trace);
          sums.specs[own_index].add(result, session_trace);
          sums.own_traced_s += result.wall_s;
          row.note(own_index, result, session_trace);
          tally.record(check_session(program, workload.spec, result, want));
        }
      }
      sums.own_untraced_s += own_untraced_s;

      // The empty-consumer sessions and the bare VM next, while the host is
      // in much the state the own session saw: the ledger compares them.
      const SessionResult empty_live = run_session(program, SessionSpec{});
      sums.empty_live_s += empty_live.wall_s;
      sums.empty_live_construct_s += empty_live.construct_s;
      tally.record(check_session(program, SessionSpec{}, empty_live, retired_only(want)));
      const SessionSpec replay_only{0, /*replay=*/true};
      const SessionResult empty_replay = run_session(program, replay_only, replay_bytes);
      sums.empty_replay_s += empty_replay.wall_s;
      sums.empty_replay_construct_s += empty_replay.construct_s;
      tally.record(check_session(program, replay_only, empty_replay, retired_only(want)));
      probe_bare_vm(program, want, sums, tally);

      // Decorated probes of the session kinds this workload does not time.
      for (unsigned index = 0; index < kSpecs; ++index) {
        if (index == own_index) continue;
        const SessionSpec spec = spec_of(index);
        SessionTrace session_trace;
        const SessionResult result = run_session(program, spec, replay_bytes, &session_trace);
        sums.specs[index].add(result, session_trace);
        row.note(index, result, session_trace);
        tally.record(check_session(program, spec, result, retired_only(want)));
      }

      probe_decode(program, trace, sums, tally);
      sums.retired += want.retired;
      if (program.wfs.has_value()) {
        sums.golden_s += program.compute_golden();
        sums.wfs_own_untraced_s += own_untraced_s;
        sums.wfs_interp_s += prepared.interp_s[p];
      }

      add_program_row(rows, program.name, workload, own_untraced_s, row);
    }
    add_round_metrics(metrics, workload, sums, probe_pipeline_fixed_ms(tests, tally));

    // Cross-check of the decorator's estimate where calls are shortest
    // (replay's tick runs): tQUAD's share of the traced replay by difference.
    const SpecSums& replay = sums.specs[kReplaySerial];
    crosscheck.add("decorator", "s",
                   replay.consume_s[static_cast<std::size_t>(Layer::kTquad)]);
    crosscheck.add("difference", "s",
                   replay.wall_s - sums.empty_replay_s - replay.render_s[0] -
                       (replay.construct_s - sums.empty_replay_construct_s));
  }
  metrics.add("setup.build_ms", "ms", prepared.setup.build_s * 1e3);
  metrics.add("setup.input_ms", "ms", prepared.setup.input_s * 1e3);
  print_rows(rows.medians());
  const std::vector<Metric> medians = metrics.medians();
  for (const Metric& metric : medians) {
    if (metric.name != "ledger.unaccounted_frac") continue;
    std::printf("ledger %s: serial layer self times cover the session wall "
                "time within %.0f%% (unaccounted %+.3f)\n",
                std::abs(metric.value) <= kLedgerTolerance ? "ok" : "OUTSIDE",
                kLedgerTolerance * 100, metric.value);
  }
  const std::vector<Metric> check = crosscheck.medians();
  std::printf("crosscheck tquad replay: decorator %.4f s, traced replay minus "
              "empty replay %.4f s\n",
              check[0].value, check[1].value);
  return medians;
}

}  // namespace perfbench
