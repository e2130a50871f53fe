// The benchmark's timed operation: one profiling session.
//
// A session constructs a ProfileSession and its consumers (lowering the
// image into the compiled engine happens inside the run), runs the guest
// live or replays a trace, and renders the reports `tquad_cli -report all`
// prints for the attached tools into a string. Only public library APIs are
// used, so the benchmark keeps measuring whatever path the CLI takes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "programs.hpp"
#include "session/pipeline.hpp"
#include "stats.hpp"
#include "vm/engine.hpp"
#include "vm/run_outcome.hpp"

namespace perfbench {

class SessionTrace;

/// Consumers a session attaches (bit set).
enum ToolBit : unsigned {
  kTquad = 1u << 0,
  kQuad = 1u << 1,
  kGprof = 1u << 2,
  kRecord = 1u << 3,  ///< a v2 TraceRecorder
  kTrio = kTquad | kQuad | kGprof,
};

struct SessionSpec {
  unsigned tools = 0;
  bool replay = false;   ///< replay a recorded trace instead of running live
  unsigned workers = 0;  ///< 0 = serial; N = `-pipeline parallel:N`
  tq::vm::EngineKind engine = tq::vm::EngineKind::kCompiled;
};

struct SessionResult {
  tq::vm::RunOutcome outcome;
  std::string reports;
  std::vector<std::uint8_t> trace;  ///< the encoded v2 trace (kRecord only)
  tq::vm::HostEnv host;             ///< the guest's descriptors after the run
  tq::session::PipelineStats pipeline;
  double wall_s = 0;       ///< the whole session: construct, run, render
  double construct_s = 0;  ///< ProfileSession and consumer construction
  double render_s[3] = {};  ///< tquad, quad, gprof report rendering
  double take_trace_s = 0;  ///< sealing and taking the encoded trace
};

/// Run one session. `replay_trace` is read when spec.replay is set. With a
/// `trace`, every consumer is wrapped in a counting decorator and the
/// session publishes its metrics there (the traced run only).
SessionResult run_session(const GuestProgram& program, const SessionSpec& spec,
                          std::span<const std::uint8_t> replay_trace = {},
                          SessionTrace* trace = nullptr);

/// An encoded trace known by its size and FNV-1a digest only, so sessions
/// are checked without the benchmark holding a copy of every trace.
struct TraceDigest {
  std::size_t size = 0;
  std::uint64_t hash = 0;

  static TraceDigest of(const std::vector<std::uint8_t>& bytes) {
    return {bytes.size(), fnv1a(bytes.data(), bytes.size())};
  }
  bool operator==(const TraceDigest&) const = default;
};

/// What a correct session of one program must produce: the reference run's
/// retired count and reports, and the trace of the compiled recording
/// (checked on recording sessions).
struct Expected {
  std::uint64_t retired = 0;
  std::string reports;
  TraceDigest trace;
};

/// "" when `got` halted cleanly with the reference's retired count, matches
/// `want` byte for byte (the reports, when `want` has them, and the trace
/// when the session recorded one) and a live guest's output passes the
/// golden model; otherwise the first failure.
std::string check_session(const GuestProgram& program, const SessionSpec& spec,
                          const SessionResult& got, const Expected& want);

/// A named benchmark workload: the session it times and on which programs.
struct Workload {
  const char* name;
  SessionSpec spec;
  bool zoo = false;  ///< the eight registry programs per pass, else standard wfs
};

/// A workload's programs after set-up and the untimed reference runs.
struct Prepared {
  std::vector<GuestProgram> programs;
  std::vector<Expected> expected;  ///< per program, from the reference runs
  /// Per program: the compiled recording's v2 trace, kept only where a
  /// session reads it (replay sessions and the traced run), so the timed
  /// sessions of a live workload share the process with no trace data.
  std::vector<std::vector<std::uint8_t>> traces;
  std::vector<double> interp_s;  ///< per program: interpreter reference session
  SetupTimes setup;              ///< medians over the set-up repetitions
  std::size_t setup_reps = 0;
};

/// Sessions a run attempted and how many of them failed a check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one checked session; a non-empty `failure` is printed to stderr.
  void record(const std::string& failure);
};

/// One reported figure: its median over `samples` measurements.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

}  // namespace perfbench
