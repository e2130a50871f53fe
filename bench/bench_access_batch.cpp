// Access delivery per consumer: one call per access against one call per
// batch. The standard wfs run executes once under a capture consumer that
// keeps the attributed access stream exactly as KernelAttribution batches
// it. The stream is then replayed into TQuadTool, QuadTool and a v2
// TraceRecorder, once through on_access (one virtual call per access) and
// once through on_access_batch (one per batch), in order-alternated trials.
// The two paths must leave each consumer in the same state; the bench
// checks that outside the timed region and exits 1 if they differ.
//
// Reports ns per access as the median [quartiles] of each path, and the
// batch/per-access ratio, per consumer, and writes BENCH_access_batch.json.
//
//   ./build/bench/bench_access_batch [-accesses N] [-trials T]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_env.hpp"
#include "quad/quad_tool.hpp"
#include "session/session.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/trace.hpp"
#include "tquad/tquad_tool.hpp"
#include "wfs/runner.hpp"

namespace {

using namespace tq;
using Clock = std::chrono::steady_clock;
using session::AccessEvent;
using session::AnalysisConsumer;

/// The first `limit` accesses of a run, with the batch boundaries the
/// attribution delivered them in.
class Capture final : public AnalysisConsumer {
 public:
  explicit Capture(std::size_t limit) : limit_(limit) { events.reserve(limit); }

  unsigned event_interests() const override { return kAccessInterest; }
  void on_access_batch(std::span<const AccessEvent> batch) override {
    if (events.size() + batch.size() > limit_) return;
    events.insert(events.end(), batch.begin(), batch.end());
    sizes.push_back(batch.size());
  }

  std::vector<AccessEvent> events;
  std::vector<std::size_t> sizes;

 private:
  std::size_t limit_;
};

// Out of line and through the base class, so each access or batch pays the
// virtual call a KernelAttribution delivery pays.
[[gnu::noinline]] void replay_each(AnalysisConsumer& consumer,
                                   const std::vector<AccessEvent>& events) {
  for (const AccessEvent& event : events) consumer.on_access(event);
}

[[gnu::noinline]] void replay_batches(AnalysisConsumer& consumer,
                                      const std::vector<AccessEvent>& events,
                                      const std::vector<std::size_t>& sizes) {
  const AccessEvent* cursor = events.data();
  for (const std::size_t size : sizes) {
    consumer.on_access_batch({cursor, size});
    cursor += size;
  }
}

/// One consumer kind: a fresh instance per trial and a fingerprint of its
/// state after the replay.
struct Subject {
  const char* name;
  std::function<std::unique_ptr<AnalysisConsumer>()> make;
  std::function<std::string(AnalysisConsumer&)> fingerprint;
};

struct Spread {
  double median = 0, q1 = 0, q3 = 0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

std::string format_spread(const Spread& s) {
  return format_fixed(s.median, 2) + " [" + format_fixed(s.q1, 2) + "-" +
         format_fixed(s.q3, 2) + "]";
}

std::string tquad_fingerprint(AnalysisConsumer& consumer) {
  auto& tool = static_cast<tquad::TQuadTool&>(consumer);
  tool.on_session_end(0);  // flushes the open slices
  std::string out;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    const tquad::KernelBandwidth& kernel = tool.bandwidth().kernel(k);
    out += std::to_string(kernel.series.size()) + ":" +
           std::to_string(kernel.totals.read_incl) + "/" +
           std::to_string(kernel.totals.read_excl) + "/" +
           std::to_string(kernel.totals.write_incl) + "/" +
           std::to_string(kernel.totals.write_excl) + ";";
  }
  return out;
}

std::string quad_fingerprint(AnalysisConsumer& consumer) {
  auto& tool = static_cast<quad::QuadTool&>(consumer);
  std::string out;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    for (const quad::KernelCounters* c :
         {&tool.including_stack(k), &tool.excluding_stack(k)}) {
      out += std::to_string(c->in_bytes) + "/" + std::to_string(c->out_bytes) +
             "/" + std::to_string(c->in_unma.count()) + "/" +
             std::to_string(c->out_unma.count()) + ";";
    }
  }
  for (const quad::Binding& edge : tool.bindings()) {
    out += std::to_string(edge.producer) + ">" + std::to_string(edge.consumer) +
           "=" + std::to_string(edge.bytes) + "/" + std::to_string(edge.unma) + ";";
  }
  return out;
}

std::string trace_fingerprint(AnalysisConsumer& consumer) {
  auto& recorder = static_cast<trace::TraceRecorder&>(consumer);
  const std::vector<std::uint8_t> bytes = recorder.take_encoded();
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_access_batch: per-access vs batched access delivery");
  cli.add_int("accesses", 2'000'000,
              "accesses of the standard wfs run to capture and replay");
  cli.add_int("trials", 11, "order-alternated trials per path (>= 9)");
  try {
    cli.parse(argc, argv);
    const auto limit = static_cast<std::size_t>(cli.integer("accesses"));
    const int trials = static_cast<int>(cli.integer("trials"));
    TQUAD_CHECK(limit > 0 && trials >= 1, "need accesses > 0 and trials >= 1");

    wfs::WfsRun run = wfs::prepare_wfs_run(wfs::WfsConfig::standard());
    const vm::Program& program = run.artifacts.program;
    Capture capture(limit);
    {
      session::ProfileSession session(program, session::SessionConfig{});
      session.add_consumer(capture);
      session.run_live(run.host);
    }
    const std::vector<AccessEvent>& events = capture.events;
    const double count = static_cast<double>(events.size());
    std::printf("captured %s accesses of the standard wfs run in %s batches "
                "(%.1f per batch)\n\n",
                format_count(events.size()).c_str(),
                format_count(capture.sizes.size()).c_str(),
                count / static_cast<double>(capture.sizes.size()));

    const Subject subjects[] = {
        {"tquad",
         [&] {
           return std::make_unique<tquad::TQuadTool>(
               program, tquad::Options{.slice_interval = 5000});
         },
         tquad_fingerprint},
        {"quad", [&] { return std::make_unique<quad::QuadTool>(program); },
         quad_fingerprint},
        {"trace v2",
         [&] {
           return std::make_unique<trace::TraceRecorder>(
               program, tquad::LibraryPolicy::kExclude, trace::TraceFormat::kV2);
         },
         trace_fingerprint},
    };

    TextTable table({"consumer", "on_access ns/access", "on_access_batch ns/access",
                     "batch/each"});
    std::string json_rows;
    bool same = true;
    for (const Subject& subject : subjects) {
      std::vector<double> each_ns;
      std::vector<double> batch_ns;
      std::string each_print;
      std::string batch_print;
      for (int t = 0; t < trials; ++t) {
        for (int leg = 0; leg < 2; ++leg) {
          const bool batched = (leg == 0) == (t % 2 == 1);
          std::unique_ptr<AnalysisConsumer> consumer = subject.make();
          const auto start = Clock::now();
          if (batched) {
            replay_batches(*consumer, events, capture.sizes);
          } else {
            replay_each(*consumer, events);
          }
          const double ns =
              std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
              count;
          (batched ? batch_ns : each_ns).push_back(ns);
          if (t == trials - 1) {
            (batched ? batch_print : each_print) = subject.fingerprint(*consumer);
          }
        }
      }
      if (each_print != batch_print) {
        std::printf("MISMATCH: %s ends in a different state per path\n", subject.name);
        same = false;
      }
      const Spread each = spread_of(each_ns);
      const Spread batch = spread_of(batch_ns);
      table.add_row({subject.name, format_spread(each), format_spread(batch),
                     format_fixed(batch.median / each.median, 2)});
      json_rows += std::string(json_rows.empty() ? "" : ",\n") + "    {\"consumer\": \"" +
                   subject.name + "\", \"each_ns\": [" + format_fixed(each.q1, 3) +
                   ", " + format_fixed(each.median, 3) + ", " +
                   format_fixed(each.q3, 3) + "], \"batch_ns\": [" +
                   format_fixed(batch.q1, 3) + ", " + format_fixed(batch.median, 3) +
                   ", " + format_fixed(batch.q3, 3) + "]}";
    }
    std::printf("%s\n", table.to_ascii().c_str());
    std::printf("ns per access: median [q1-q3] of %d trials per path, paths "
                "alternated in order\n",
                trials);

    std::FILE* json = std::fopen("BENCH_access_batch.json", "w");
    if (json != nullptr) {
      std::fprintf(json, "{\n");
      tq::bench::write_env_json_fields(json);
      std::fprintf(json,
                   "  \"accesses\": %zu,\n  \"batches\": %zu,\n  \"trials\": %d,\n"
                   "  \"quantiles\": \"q1, median, q3\",\n  \"consumers\": [\n%s\n  ],\n"
                   "  \"same_state\": %s\n}\n",
                   events.size(), capture.sizes.size(), trials, json_rows.c_str(),
                   same ? "true" : "false");
      std::fclose(json);
      std::printf("wrote BENCH_access_batch.json\n");
    }
    return same ? 0 : 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "bench_access_batch: %s\n", err.what());
    return 2;
  }
}
