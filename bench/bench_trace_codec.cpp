// TQTR codec benchmark: v1 (flat 28-byte records) versus v2 (block-compressed,
// delta + varint) on the stream workload — the trace shape the paper's tool
// would produce when profiling a bandwidth-bound kernel.
//
// Reports bytes/event and the compression ratio (the acceptance bar is
// v2 >= 4x smaller than v1 on this workload, enforced with TQUAD_CHECK),
// encode/decode cost per event as the median and interquartile range of
// order-alternated trials (including the streaming path a v2 TraceRecorder
// takes through its session hooks), and sequential-v1 versus
// block-parallel-v2 offline aggregation time with a totals-equality
// cross-check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "session/session.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/crc32c.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "trace/trace.hpp"
#include "trace/trace_v2.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace tq;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

trace::Trace record_stream_trace(const vm::Program& program) {
  vm::HostEnv host;
  session::ProfileSession session(program);
  trace::TraceRecorder recorder(program);
  session.add_consumer(recorder);
  session.run_live(host);
  return recorder.take();
}

/// Replays `trace` through a v2 TraceRecorder's session hooks, the
/// per-event path of a live recording, and returns the finished image.
std::vector<std::uint8_t> encode_through_recorder(const vm::Program& program,
                                                  const trace::Trace& trace) {
  const auto kernel32 = [](std::uint16_t kernel) {
    return kernel == trace::kNoKernel16 ? tquad::kNoKernel : std::uint32_t{kernel};
  };
  trace::TraceRecorder recorder(program, tquad::LibraryPolicy::kExclude,
                                trace::TraceFormat::kV2);
  for (const trace::Record& record : trace.records) {
    switch (record.kind) {
      case trace::EventKind::kEnter: {
        session::EnterEvent event;
        event.func = record.func;
        event.kernel = kernel32(record.kernel);
        event.retired = record.retired;
        recorder.on_kernel_enter(event);
        break;
      }
      case trace::EventKind::kRet: {
        session::RetEvent event;
        event.func = record.func;
        event.pc = record.pc;
        event.kernel = kernel32(record.kernel);
        event.retired = record.retired;
        recorder.on_kernel_ret(event);
        break;
      }
      case trace::EventKind::kRead:
      case trace::EventKind::kWrite: {
        session::AccessEvent event;
        event.func = record.func;
        event.pc = record.pc;
        event.kernel = kernel32(record.kernel);
        event.retired = record.retired;
        event.ea = record.ea;
        event.size = record.size;
        event.is_read = record.kind == trace::EventKind::kRead;
        event.is_stack = (record.flags & trace::kFlagStackArea) != 0;
        event.is_prefetch = (record.flags & trace::kFlagPrefetch) != 0;
        recorder.on_access(event);
        break;
      }
    }
  }
  recorder.on_session_end(trace.total_retired);
  return recorder.take_encoded();
}

/// Median and quartiles of repeated timings (linear interpolation).
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

/// "median [q1-q3]" of per-event nanoseconds.
std::string format_ns(const Spread& s) {
  return format_fixed(s.median, 2) + " [" + format_fixed(s.q1, 2) + "-" +
         format_fixed(s.q3, 2) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_trace_codec: TQTR v1 vs v2 size and throughput");
  cli.add_int("elements", 4096, "stream vector length (f64 elements)");
  cli.add_int("iterations", 4, "stream benchmark repetitions");
  cli.add_int("slice", 5000, "slice interval for the aggregation timing");
  cli.add_int("threads", 4, "worker threads for v2 block-parallel aggregation");
  cli.add_int("block", trace::kDefaultBlockCapacity, "v2 block capacity (records)");
  try {
    cli.parse(argc, argv);
    const auto block = static_cast<std::uint32_t>(cli.integer("block"));
    const auto slice = static_cast<std::uint64_t>(cli.integer("slice"));

    const workloads::StreamArtifacts stream =
        workloads::build_stream(static_cast<std::uint32_t>(cli.integer("elements")),
                                static_cast<std::uint32_t>(cli.integer("iterations")));
    const trace::Trace trace = record_stream_trace(stream.program);
    const double events = static_cast<double>(trace.records.size());
    std::printf("stream trace: %s events, %s retired instructions\n\n",
                format_count(trace.records.size()).c_str(),
                format_count(trace.total_retired).c_str());

    // -- Size and codec cost ------------------------------------------------
    const auto v1 = trace.serialize();
    const auto v2 = trace::serialize_v2(trace, block);
    TQUAD_CHECK(trace::Trace::deserialize(v1).records.size() == trace.records.size(),
                "v1 round trip");
    TQUAD_CHECK(trace::Trace::deserialize(v2).records.size() == trace.records.size(),
                "v2 round trip");
    // The recorder always writes the default block capacity.
    const auto recorded = encode_through_recorder(stream.program, trace);
    TQUAD_CHECK(block != trace::kDefaultBlockCapacity || recorded == v2,
                "recorder hooks and serialize_v2 disagree");

    // Each trial runs every timed operation once; odd trials run them in
    // reverse order so no operation always follows the same one.
    constexpr int kTrials = 11;
    std::size_t sink = 0;
    const std::vector<std::function<void()>> ops = {
        [&] { sink += trace.serialize().size(); },
        [&] { sink += trace::Trace::deserialize(v1).records.size(); },
        [&] { sink += trace::serialize_v2(trace, block).size(); },
        [&] { sink += trace::Trace::deserialize(v2).records.size(); },
        [&] { sink += encode_through_recorder(stream.program, trace).size(); },
    };
    std::vector<std::vector<double>> ns_per_event(ops.size());
    for (int t = 0; t < kTrials; ++t) {
      for (std::size_t k = 0; k < ops.size(); ++k) {
        const std::size_t op = t % 2 == 0 ? k : ops.size() - 1 - k;
        const auto begin = Clock::now();
        ops[op]();
        ns_per_event[op].push_back(seconds_since(begin) / events * 1e9);
      }
    }
    TQUAD_CHECK(sink > 0, "timed operations produced nothing");
    std::vector<Spread> cost;
    for (auto& samples : ns_per_event) cost.push_back(spread_of(std::move(samples)));

    const double ratio = static_cast<double>(v1.size()) / static_cast<double>(v2.size());
    std::printf("codec cost, ns/event: median [quartiles] over %d alternated trials\n",
                kTrials);
    TextTable table({"format", "bytes", "bytes/event", "encode ns/ev", "decode ns/ev"});
    table.add_row({"v1 flat", format_count(v1.size()),
                   format_fixed(static_cast<double>(v1.size()) / events, 2),
                   format_ns(cost[0]), format_ns(cost[1])});
    table.add_row({"v2 blocked", format_count(v2.size()),
                   format_fixed(static_cast<double>(v2.size()) / events, 2),
                   format_ns(cost[2]), format_ns(cost[3])});
    table.add_row({"v2 recorder hooks", format_count(recorded.size()),
                   format_fixed(static_cast<double>(recorded.size()) / events, 2),
                   format_ns(cost[4]), "-"});
    std::fputs(table.to_ascii().c_str(), stdout);
    std::printf("\ncompression ratio (v1/v2): %.2fx (block capacity %u)\n\n",
                ratio, block);
    TQUAD_CHECK(ratio >= 4.0, "v2 must be >= 4x smaller than v1 on stream");

    // -- CRC overhead gate -------------------------------------------------
    // v2.1 verifies a CRC-32C per block on the streaming decode path; the
    // acceptance bar is < 5% decode-time overhead. The extra work v2.1 does
    // per block is exactly one chained CRC over the 32 semantic header bytes
    // plus the payload, so time that pass directly against the plain v2.0
    // streaming decode (best-of-N each). Differencing two end-to-end decode
    // timings instead would be ill-conditioned: run-to-run frequency and
    // allocator noise is the same magnitude as the ~2% being measured.
    const auto encode_minor = [&](std::uint32_t minor) {
      trace::TraceV2Writer writer(trace.kernel_count, block, minor);
      for (const trace::Record& record : trace.records) writer.add(record);
      return writer.finish(trace.total_retired);
    };
    const auto v20_bytes = encode_minor(0);
    const auto v21_bytes = encode_minor(trace::kV2MinorCrc);
    const trace::TraceV2View plain_view = trace::TraceV2View::open(v20_bytes);
    const trace::TraceV2View crc_view = trace::TraceV2View::open(v21_bytes);
    double plain_decode = 1e100;
    double crc_pass = 1e100;
    volatile std::uint32_t crc_sink = 0;
    for (int rep = 0; rep < 25; ++rep) {
      auto begin = Clock::now();
      std::size_t decoded = 0;
      for (std::size_t b = 0; b < plain_view.block_count(); ++b) {
        decoded += plain_view.decode_block(b).size();
      }
      TQUAD_CHECK(decoded == trace.records.size(), "streaming decode lost records");
      plain_decode = std::min(plain_decode, seconds_since(begin));

      begin = Clock::now();
      for (std::size_t b = 0; b < crc_view.block_count(); ++b) {
        const trace::BlockInfo& info = crc_view.block(b);
        const std::uint8_t* header = v21_bytes.data() + info.file_offset;
        crc_sink = crc32c(header + trace::kV2BlockHeaderBytes, info.payload_bytes,
                          crc32c(header, 32));
      }
      crc_pass = std::min(crc_pass, seconds_since(begin));
    }
    (void)crc_sink;
    const double crc_overhead = crc_pass / plain_decode;
    std::printf("CRC-32C (%s): streaming decode %.1f Mev/s, per-block verify "
                "pass %.1f GB/s, overhead %.2f%%\n\n",
                crc32c_hardware() ? "sse4.2" : "software",
                events / plain_decode / 1e6,
                static_cast<double>(v21_bytes.size()) / crc_pass / 1e9,
                crc_overhead * 100.0);
    TQUAD_CHECK(crc_overhead < 0.05,
                "CRC verification must cost < 5% on streaming decode");
    TQUAD_CHECK(crc_view.decode_all().records.size() == trace.records.size(),
                "v2.1 decode with verification lost records");

    // -- Aggregation ------------------------------------------------------
    auto start = Clock::now();
    trace::OfflineBandwidth sequential(trace.kernel_count, slice);
    sequential.aggregate(trace);
    const double seq_time = seconds_since(start);

    ThreadPool pool(static_cast<unsigned>(cli.integer("threads")));
    const trace::TraceV2View view = trace::TraceV2View::open(v2);
    start = Clock::now();
    trace::OfflineBandwidth parallel(trace.kernel_count, slice);
    parallel.aggregate_parallel(view, pool);
    const double par_time = seconds_since(start);

    for (std::uint32_t k = 0; k < trace.kernel_count; ++k) {
      TQUAD_CHECK(sequential.kernel(k).totals.read_incl ==
                          parallel.kernel(k).totals.read_incl &&
                      sequential.kernel(k).totals.write_incl ==
                          parallel.kernel(k).totals.write_incl,
                  "parallel v2 aggregation diverged from sequential v1");
    }
    std::printf("offline aggregation at slice %llu: v1 sequential %.1f Mev/s, "
                "v2 block-parallel %.1f Mev/s (totals identical)\n",
                static_cast<unsigned long long>(slice), events / seq_time / 1e6,
                events / par_time / 1e6);
    return 0;
  } catch (const Error& err) {
    std::fprintf(stderr, "bench_trace_codec: %s\n", err.what());
    return 1;
  }
}
