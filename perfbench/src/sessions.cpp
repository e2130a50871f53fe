#include "sessions.hpp"

#include <cstdarg>
#include <cstdio>
#include <optional>

#include "cli_common.hpp"
#include "gprofsim/gprof_tool.hpp"
#include "ledger.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "stats.hpp"
#include "support/ascii_chart.hpp"
#include "support/table.hpp"
#include "trace/trace.hpp"
#include "tquad/phase.hpp"
#include "tquad/report.hpp"
#include "tquad/tquad_tool.hpp"

namespace perfbench {

namespace {

// The tquad_cli defaults: -slice 5000, -sample 10000, -cpu-ghz 2.83, -cpi 1,
// -libs exclude.
constexpr std::uint64_t kSliceInterval = 5000;
constexpr std::uint64_t kSamplePeriod = 10'000;
constexpr double kClockGhz = 2.83;
constexpr double kCpi = 1.0;

void appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list copy;
  va_copy(copy, args);
  const int size = std::vsnprintf(nullptr, 0, format, copy);
  va_end(copy);
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(size) + 1);
  std::vsnprintf(out.data() + at, static_cast<std::size_t>(size) + 1, format, args);
  out.resize(at + static_cast<std::size_t>(size));
  va_end(args);
}

/// `tquad_cli -report all` for the attached tools, from the "retired" line
/// through the gprof table (the replay prefix and file notes are left out,
/// so live and replayed sessions render identically).
std::string render_reports(const tq::tquad::TQuadTool* tquad,
                           const tq::quad::QuadTool* quad,
                           const tq::gprof::GprofTool* gprof,
                           std::uint64_t retired, double render_s[3]) {
  std::string out;
  auto start = Clock::now();
  if (tquad != nullptr) {
    appendf(out, "retired %s instructions; %llu time slices at interval %llu\n\n",
            tq::format_count(retired).c_str(),
            static_cast<unsigned long long>(tquad->bandwidth().max_slice() + 1),
            static_cast<unsigned long long>(tquad->options().slice_interval));
    appendf(out, "== flat profile ==\n%s\n",
            tq::tquad::flat_profile_table(*tquad).to_ascii().c_str());
    tq::tquad::CpuModel model;
    model.clock_ghz = kClockGhz;
    model.cpi = kCpi;
    appendf(out, "== bandwidth (at %.2f GHz, CPI %.2f) ==\n%s\n", model.clock_ghz,
            model.cpi, tq::tquad::bandwidth_table(*tquad, model).to_ascii().c_str());
    const auto phases = tq::tquad::detect_phases(*tquad);
    appendf(out, "== phases ==\n%s\n",
            tq::tquad::describe_phases(*tquad, phases).c_str());
    std::vector<tq::ChartSeries> series;
    for (const auto& row : tq::tquad::flat_profile(*tquad)) {
      if (series.size() == 12) break;
      series.push_back(tq::ChartSeries{
          row.name, tq::tquad::dense_series(*tquad, row.kernel,
                                            tq::tquad::Metric::kReadWriteIncl)});
    }
    appendf(out, "== activity (read+write bytes per slice) ==\n%s\n",
            tq::render_heat_strips(series).c_str());
  } else {
    appendf(out, "retired %s instructions\n\n", tq::format_count(retired).c_str());
  }
  render_s[0] = seconds_since(start);
  start = Clock::now();
  if (quad != nullptr) {
    appendf(out, "== quad kernel table (Table II) ==\n%s",
            tq::cli::quad_kernel_table(*quad).to_ascii().c_str());
    appendf(out, "\n%zu producer->consumer bindings\n\n", quad->bindings().size());
  }
  render_s[1] = seconds_since(start);
  start = Clock::now();
  if (gprof != nullptr) {
    appendf(out, "== gprof flat profile (sample period %llu) ==\n%s\n",
            static_cast<unsigned long long>(kSamplePeriod),
            gprof->flat_profile_table().to_ascii().c_str());
  }
  render_s[2] = seconds_since(start);
  return out;
}

}  // namespace

SessionResult run_session(const GuestProgram& program, const SessionSpec& spec,
                          std::span<const std::uint8_t> replay_trace,
                          SessionTrace* trace) {
  SessionResult result;
  if (!spec.replay) result.host = program.make_host();
  const tq::vm::Program& image = program.program;
  const auto start = Clock::now();

  tq::session::SessionConfig config;
  config.engine = spec.engine;
  if (spec.workers > 0) {
    config.pipeline.mode = tq::session::PipelineMode::kParallel;
    config.pipeline.workers = spec.workers;
  }
  if (trace != nullptr) config.metrics = &trace->registry();
  tq::session::ProfileSession session(image, config);
  auto attach = [&](tq::session::AnalysisConsumer& tool, Layer layer) {
    session.add_consumer(trace != nullptr ? trace->wrap(tool, layer) : tool);
  };

  std::optional<tq::tquad::TQuadTool> tquad;
  std::optional<tq::quad::QuadTool> quad;
  std::optional<tq::gprof::GprofTool> gprof;
  std::optional<tq::trace::TraceRecorder> recorder;
  if (spec.tools & kTquad) {
    tq::tquad::Options options;
    options.slice_interval = kSliceInterval;
    tquad.emplace(image, options);
    attach(*tquad, Layer::kTquad);
  }
  if (spec.tools & kQuad) {
    quad.emplace(image, tq::quad::QuadOptions{});
    attach(*quad, Layer::kQuad);
  }
  if (spec.tools & kGprof) {
    tq::gprof::Options options;
    options.sample_period = kSamplePeriod;
    options.clock_ghz = kClockGhz;
    options.ipc = 1.0 / kCpi;
    gprof.emplace(image, options);
    attach(*gprof, Layer::kGprof);
  }
  if (spec.tools & kRecord) {
    recorder.emplace(image, tq::tquad::LibraryPolicy::kExclude,
                     tq::trace::TraceFormat::kV2);
    attach(*recorder, Layer::kTrace);
  }
  result.construct_s = seconds_since(start);

  result.outcome = spec.replay ? session.replay(replay_trace)
                               : session.run_live(result.host);
  result.pipeline = session.pipeline_stats();
  result.reports =
      render_reports(tquad ? &*tquad : nullptr, quad ? &*quad : nullptr,
                     gprof ? &*gprof : nullptr, result.outcome.retired,
                     result.render_s);
  if (recorder.has_value()) {
    const auto take_start = Clock::now();
    result.trace = recorder->take_encoded();
    result.take_trace_s = seconds_since(take_start);
  }
  result.wall_s = seconds_since(start);

  if (trace != nullptr) {
    if (quad.has_value()) quad->publish_metrics(trace->registry());
    if (recorder.has_value()) recorder->publish_metrics(trace->registry());
  }
  return result;
}

void Tally::record(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
}

std::string check_session(const GuestProgram& program, const SessionSpec& spec,
                          const SessionResult& got, const Expected& want) {
  if (got.outcome.status != tq::vm::RunStatus::kHalted) {
    return program.name + ": run did not halt: " + got.outcome.summary();
  }
  if (got.outcome.retired != want.retired) {
    return program.name + ": retired " + std::to_string(got.outcome.retired) +
           ", reference " + std::to_string(want.retired);
  }
  if (!want.reports.empty() && got.reports != want.reports) {
    std::size_t at = 0;
    while (at < got.reports.size() && at < want.reports.size() &&
           got.reports[at] == want.reports[at]) {
      ++at;
    }
    return program.name + ": reports differ from the reference at byte " +
           std::to_string(at);
  }
  if ((spec.tools & kRecord) && TraceDigest::of(got.trace) != want.trace) {
    return program.name + ": recorded trace differs from the reference (" +
           std::to_string(got.trace.size()) + " vs " +
           std::to_string(want.trace.size) + " bytes)";
  }
  if (!spec.replay) {
    const std::string output = program.check_output(got.host);
    if (!output.empty()) return program.name + ": golden model: " + output;
  }
  return {};
}

}  // namespace perfbench
