// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Builds the workload's guest programs and inputs from the seed (set-up,
// repeated for kSetupSeconds and reported as a median), makes the untimed
// reference runs the correctness gate compares against, then either times
// sessions back to back for S seconds with tracing off (--trace 0: the
// end-to-end metrics), or runs the traced layer suite (--trace 1: the
// per-layer metrics). The last stdout line is one JSON object: correct,
// attempted, failed, metrics.
// For the default seed the reference runs are also checked against the
// digests committed beside the benchmark (PERFBENCH_DIGESTS, set by the
// build). --workdir is where wfs-replay writes and reloads its trace file.
// See perfbench/README.md for the workloads and every metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "programs.hpp"
#include "sessions.hpp"
#include "stats.hpp"
#include "vm/machine.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;  ///< the seed the digests are for
/// Set-up repeats for this long (and at least kMinSetupReps times); the
/// set-up figures are medians over the repetitions.
constexpr double kSetupSeconds = 0.5;
constexpr int kMinSetupReps = 9;
constexpr int kTraceLoadReps = 9;
constexpr std::size_t kMinTimedSamples = 5;
constexpr int kRefLoopIters = 2'000'000;  ///< about 13 ms on an idle core

const Workload kWorkloads[] = {
    {"wfs-live-trio", SessionSpec{kTrio}},
    {"wfs-record", SessionSpec{kTquad | kRecord}},
    {"wfs-replay", SessionSpec{kTquad, /*replay=*/true}},
    {"zoo-parallel", SessionSpec{kTrio, false, /*workers=*/3}, /*zoo=*/true},
};

/// Value at quantile q (0..1) of sorted `values`, linearly interpolated.
double quantile(const std::vector<double>& sorted, double q) {
  const double at = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (at - static_cast<double>(lo));
}

/// Reset the peak-RSS high-water mark (Linux: 5 > /proc/self/clear_refs),
/// after handing free heap pages back, so the mark starts from what the
/// process still holds.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error("cannot read " + path);
  return bytes;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// "workload program reports-hash trace-hash" lines of the digest file.
std::map<std::string, std::string> load_digests(const std::string& path) {
  std::map<std::string, std::string> digests;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read the committed digests " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t second = line.find(' ', line.find(' ') + 1);
    if (second == std::string::npos) continue;
    digests[line.substr(0, second)] = line.substr(second + 1);
  }
  return digests;
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& workload : kWorkloads) {
        if (value == workload.name) args.workload = &workload;
      }
      if (args.workload == nullptr) throw std::runtime_error("unknown workload " + value);
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else {
      throw std::runtime_error("unknown option " + key);
    }
  }
  if (args.workload == nullptr) throw std::runtime_error("--workload is required");
  return args;
}

/// Set-up, repeated: build the programs and inputs for kSetupSeconds and
/// keep the last build; the set-up figures are the medians.
Prepared set_up(const Args& args) {
  Prepared prepared;
  std::vector<double> build, input;
  const auto start = Clock::now();
  while (build.size() < kMinSetupReps || seconds_since(start) < kSetupSeconds) {
    SetupTimes times;
    if (args.workload->zoo) {
      prepared.programs = build_zoo(args.seed, times);
    } else {
      prepared.programs.clear();
      prepared.programs.push_back(build_standard_wfs(args.seed, times));
    }
    build.push_back(times.build_s);
    input.push_back(times.input_s);
  }
  prepared.setup.build_s = median(build);
  prepared.setup.input_s = median(input);
  prepared.setup_reps = build.size();
  return prepared;
}

/// The untimed reference runs behind the correctness gate, per program:
///  - the golden model (wfs: the native model, timed for the paper's
///    slowdown rows; zoo: a bare interpreter run checked against the
///    state the workload's build function predicts, which no session
///    exposes);
///  - the reference: one interpreter session on the serial path with the
///    workload's tools (wfs-replay: the live tquad session that records);
///  - a compiled tquad + v2 recorder session, whose trace is the one
///    replayed, probed and measured in trace_bytes_per_kinstr. Where the
///    reference records too, both traces and reports must match.
/// For the default seed the reports and trace must also match the digests
/// committed beside the benchmark. The recorded traces are kept only when
/// `keep_traces`.
void make_references(const Args& args, Prepared& prepared,
                     const std::map<std::string, std::string>& digests,
                     bool keep_traces, Tally& tally) {
  const Workload& workload = *args.workload;
  SessionSpec reference{workload.spec.replay ? kTquad | kRecord : workload.spec.tools};
  reference.engine = tq::vm::EngineKind::kInterp;
  const SessionSpec record{kTquad | kRecord};
  const bool same_spec = reference.tools == record.tools;
  for (GuestProgram& program : prepared.programs) {
    std::string failure;
    if (program.wfs.has_value()) {
      program.compute_golden();
    } else {
      tq::vm::HostEnv host = program.make_host();
      tq::vm::Machine machine(program.program, host);
      const tq::vm::RunOutcome outcome = machine.run();
      failure = outcome.complete()
                    ? program.check_state(machine.memory(), machine.cpu())
                    : outcome.summary();
      if (!failure.empty()) failure = program.name + ": golden model: " + failure;
    }
    SessionResult ref = run_session(program, reference);
    const TraceDigest ref_trace = TraceDigest::of(ref.trace);
    if (failure.empty()) {
      failure = check_session(program, reference, ref,
                              Expected{ref.outcome.retired, ref.reports, ref_trace});
    }
    tally.record(failure);

    SessionResult recorded = run_session(program, record);
    const Expected expected{ref.outcome.retired, std::move(ref.reports),
                            TraceDigest::of(recorded.trace)};
    tally.record(check_session(
        program, record, recorded,
        same_spec ? Expected{expected.retired, expected.reports, ref_trace}
                  : Expected{expected.retired, {}, expected.trace}));

    const std::string key = std::string(workload.name) + " " + program.name;
    char digest[40];
    std::snprintf(
        digest, sizeof digest, "%016llx %016llx",
        static_cast<unsigned long long>(fnv1a(expected.reports.data(), expected.reports.size())),
        static_cast<unsigned long long>(expected.trace.hash));
    std::printf("digest %s %s\n", key.c_str(), digest);
    if (args.seed == kDefaultSeed) {
      const auto it = digests.find(key);
      tally.record(it == digests.end() ? key + ": no committed digest"
                   : it->second != digest
                       ? key + ": reports or trace differ from the committed digest"
                       : std::string());
    }
    prepared.expected.push_back(expected);
    if (keep_traces) prepared.traces.push_back(std::move(recorded.trace));
    prepared.interp_s.push_back(ref.wall_s);
  }
}

/// wfs-replay set-up: write each recorded trace to disk and time loading it
/// back, as a user replaying a trace file would.
double load_traces(const Args& args, Prepared& prepared) {
  std::vector<double> load;
  for (std::size_t p = 0; p < prepared.programs.size(); ++p) {
    const std::string path = args.workdir + "/" + prepared.programs[p].name + ".tqtr";
    write_file(path, prepared.traces[p]);
    for (int rep = 0; rep < kTraceLoadReps; ++rep) {
      const auto start = Clock::now();
      prepared.traces[p] = read_file(path);
      load.push_back(seconds_since(start));
    }
  }
  return median(load);
}

/// The reference loop: fixed integer work, with no memory traffic, that no
/// change to the libraries can alter. Timed right before each session, it
/// tells how fast the host core runs at that moment. On a shared host the
/// core's speed swings by up to 2x for seconds at a time as other tenants
/// come and go, and the session's rate swings with it (on the 4-vCPU KVM
/// guest of the README's baselines the two correlate at about 0.8);
/// dividing by the loop's rate takes most of that out.
double ref_loop_once_s() {
  static volatile std::uint64_t seed = 1;
  std::uint64_t a = seed, b = 3, c = 5, d = 7, e = 11, f = 13;
  const auto start = Clock::now();
  for (int i = 0; i < kRefLoopIters; ++i) {
    a += b ^ static_cast<std::uint64_t>(i);
    b += c >> 1;
    c ^= d + static_cast<std::uint64_t>(i);
    d += e;
    e ^= f << 1;
    f += a >> 3;
    if ((a ^ f) & 0x10) {
      c += 1;
    } else {
      d += 1;
    }
  }
  const double elapsed = seconds_since(start);
  seed = a + b + c + d + e + f;
  return elapsed;
}

/// The reference loop on `threads` threads at once, one for each thread a
/// session runs (a parallel session spreads over several cores, each with
/// its own neighbours); the mean of their times.
double ref_loop_s(unsigned threads) {
  std::vector<double> times(threads);
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t) {
    helpers.emplace_back([&times, t] { times[t] = ref_loop_once_s(); });
  }
  times[0] = ref_loop_once_s();
  for (std::thread& helper : helpers) helper.join();
  double sum = 0;
  for (const double time : times) sum += time;
  return sum / threads;
}

/// What the timed loop measured, one sample per session (per pass over all
/// programs for the zoo).
struct TimedSamples {
  std::vector<double> rates;      ///< Minstr/s
  std::vector<double> ref_rates;  ///< guest instructions per reference-loop iteration
  std::vector<double> ref_ms;     ///< the reference loop before the session or pass
  std::vector<double> peak_mib;   ///< peak RSS while the session or pass ran
};

/// Time the workload's sessions back to back for `seconds` (closed loop,
/// one client). The reference loop runs and the peak-RSS high-water mark is
/// reset before each sample, outside the timed sessions.
TimedSamples run_timed(const Args& args, Prepared& prepared, Tally& tally) {
  const Workload& workload = *args.workload;
  tq::SplitMix64 rng(args.seed);
  std::vector<std::size_t> order(prepared.programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  TimedSamples samples;
  const auto start = Clock::now();
  while (samples.rates.size() < kMinTimedSamples || seconds_since(start) < args.seconds) {
    shuffle(order, rng);
    const double ref_s = ref_loop_s(1 + workload.spec.workers);
    if (!reset_peak_rss()) throw std::runtime_error("cannot reset the peak RSS mark");
    double pass_s = 0;
    std::uint64_t pass_retired = 0;
    for (const std::size_t p : order) {
      std::string failure;
      std::span<const std::uint8_t> replay_trace;
      if (workload.spec.replay) replay_trace = prepared.traces[p];
      try {
        const SessionResult result =
            run_session(prepared.programs[p], workload.spec, replay_trace);
        pass_s += result.wall_s;
        pass_retired += result.outcome.retired;
        failure = check_session(prepared.programs[p], workload.spec, result,
                                prepared.expected[p]);
      } catch (const std::exception& error) {
        failure = prepared.programs[p].name + ": " + error.what();
      }
      tally.record(failure);
    }
    samples.peak_mib.push_back(peak_rss_mib());
    samples.rates.push_back(static_cast<double>(pass_retired) / pass_s * 1e-6);
    samples.ref_rates.push_back(static_cast<double>(pass_retired) / pass_s * ref_s /
                                kRefLoopIters);
    samples.ref_ms.push_back(ref_s * 1e3);
  }
  return samples;
}

void print_metric(const Metric& metric) {
  std::printf("metric %s %.6g %s n=%zu\n", metric.name.c_str(), metric.value,
              metric.unit.c_str(), metric.samples);
}

void print_json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload& workload = *args.workload;
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  const std::map<std::string, std::string> digests =
      args.seed == kDefaultSeed ? load_digests(PERFBENCH_DIGESTS)
                                : std::map<std::string, std::string>{};

  Tally tally;
  Prepared prepared = set_up(args);
  make_references(args, prepared, digests, workload.spec.replay || args.trace, tally);
  double setup_s = prepared.setup.build_s + prepared.setup.input_s;
  if (workload.spec.replay) setup_s += load_traces(args, prepared);

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = run_traced(workload, prepared, args.seconds, args.seed, tally);
  } else {
    TimedSamples samples = run_timed(args, prepared, tally);
    std::vector<double>& rates = samples.rates;
    std::uint64_t trace_bytes = 0, retired = 0;
    for (std::size_t p = 0; p < prepared.programs.size(); ++p) {
      trace_bytes += prepared.expected[p].trace.size;
      retired += prepared.expected[p].retired;
    }
    // The raw rate is printed but not in the JSON result: on a shared host
    // its spread from run to run exceeds any useful bound.
    print_metric({"minstr_per_s", median(rates), "Minstr/s", rates.size()});
    print_metric({"ref_loop_ms", median(samples.ref_ms), "ms", samples.ref_ms.size()});
    metrics.push_back({"instr_per_ref_iter", median(samples.ref_rates), "instr/iter",
                       samples.ref_rates.size()});
    metrics.push_back({"setup_s", setup_s, "s", prepared.setup_reps});
    metrics.push_back({"peak_rss_mb", median(samples.peak_mib), "MiB",
                       samples.peak_mib.size()});
    metrics.push_back({"trace_bytes_per_kinstr",
                       static_cast<double>(trace_bytes) * 1e3 / static_cast<double>(retired),
                       "B/kinstr", prepared.programs.size()});
    std::sort(rates.begin(), rates.end());
    std::printf("minstr_per_s min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g\n",
                rates.front(), quantile(rates, 0.25), quantile(rates, 0.5),
                quantile(rates, 0.75), rates.back());
  }
  for (const Metric& metric : metrics) print_metric(metric);
  const std::uint64_t attempted = tally.attempted;
  std::printf("metric failed_frac %.6g ratio n=%llu\n",
              static_cast<double>(tally.failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(attempted));
  print_json(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
