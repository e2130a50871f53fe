// tqtr_doctor: integrity checking and repair for TQTR v2 trace files.
//
//   tqtr_doctor verify run.tqtr                 # exit 0 clean, 1 corrupt
//   tqtr_doctor summarize run.tqtr [-blocks N]  # header + block table
//   tqtr_doctor repair run.tqtr -out fixed.tqtr # salvage + rewrite as v2.1
//
// `verify` walks the whole file — header, trailer index, every block's
// CRC-32C (v2.1) and payload decode — and, when something is wrong, runs the
// salvage scan to enumerate exactly which blocks are damaged and why.
// `repair` re-encodes whatever salvage recovered into a fresh, clean v2.1
// file (a truncated mid-write trace gains back its trailer index this way).
// The rewrite is crash-safe — staged to a temp file and renamed over -out —
// so an interrupted repair never leaves a half-written trace, and repairing
// a file onto itself is safe.
//
// Exit codes: 0 ok, 1 corrupt file or tool error, 2 usage error.
#include <cstdio>
#include <string>

#include "support/atomic_file.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "trace/trace_v2.hpp"

#include "cli_common.hpp"

namespace {

using namespace tq;

int verify(const std::vector<std::uint8_t>& bytes) {
  try {
    const trace::TraceV2View view = trace::TraceV2View::open(bytes);
    for (std::size_t b = 0; b < view.block_count(); ++b) {
      try {
        (void)view.decode_block(b);
      } catch (const Error& err) {
        std::printf("corrupt: block %zu at offset %llu: %s\n", b,
                    static_cast<unsigned long long>(view.block(b).file_offset),
                    err.what());
        return 1;
      }
    }
    std::printf("ok: v2.%u, %zu blocks, %llu records, %llu retired\n",
                view.minor_version(), view.block_count(),
                static_cast<unsigned long long>(view.record_count()),
                static_cast<unsigned long long>(view.total_retired()));
    return 0;
  } catch (const Error& err) {
    // Structural damage: fall back to the salvage scan so the report names
    // every unrecoverable block instead of just the first failure.
    std::printf("corrupt: %s\n", err.what());
    trace::SalvageReport report;
    try {
      (void)trace::TraceV2View::salvage(bytes, &report);
      cli::print_salvage_report(report);
    } catch (const Error& salvage_err) {
      std::printf("unrecoverable: %s\n", salvage_err.what());
    }
    return 1;
  }
}

int summarize(const std::vector<std::uint8_t>& bytes, std::int64_t max_blocks) {
  trace::SalvageReport report;
  const trace::TraceV2View view = trace::TraceV2View::salvage(bytes, &report);
  std::printf("TQTR v2.%u: kernels %u, block capacity %u, %llu records, "
              "%llu retired\n",
              view.minor_version(), view.kernel_count(), view.block_capacity(),
              static_cast<unsigned long long>(view.record_count()),
              static_cast<unsigned long long>(view.total_retired()));
  if (!report.clean()) cli::print_salvage_report(report);
  TextTable table({"block", "offset", "records", "first retired",
                   "last retired", "payload bytes", "crc32c"});
  char crc_hex[16];
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    if (max_blocks >= 0 && b == static_cast<std::size_t>(max_blocks)) {
      std::printf("(showing %lld of %zu blocks; -blocks -1 for all)\n",
                  static_cast<long long>(max_blocks), view.block_count());
      break;
    }
    const trace::BlockInfo& info = view.block(b);
    std::snprintf(crc_hex, sizeof crc_hex, "%08x", info.crc);
    table.add_row({std::to_string(b), std::to_string(info.file_offset),
                   std::to_string(info.record_count),
                   std::to_string(info.first_retired),
                   std::to_string(info.last_retired),
                   std::to_string(info.payload_bytes), crc_hex});
  }
  std::printf("%s", table.to_ascii().c_str());
  return 0;
}

int repair(const std::vector<std::uint8_t>& bytes, const std::string& out_path) {
  trace::SalvageReport report;
  const trace::TraceV2View view = trace::TraceV2View::salvage(bytes, &report);
  cli::print_salvage_report(report);
  trace::TraceV2Writer writer(view.kernel_count(), view.block_capacity(),
                              trace::kV2MinorCrc);
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    for (const trace::Record& record : view.decode_block(b)) writer.add(record);
  }
  // Crash-safe: repairing a trace in place (-out same as the input) must
  // never leave a half-written file — stage to a temp and rename over.
  write_file_atomic(out_path, writer.finish(view.total_retired()));
  std::printf("repaired trace written to %s (%llu records)\n", out_path.c_str(),
              static_cast<unsigned long long>(view.record_count()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("tqtr_doctor: verify, summarize, and repair TQTR v2 trace files");
  cli.add_string("out", "", "repair: write the salvaged trace to this path");
  cli.add_int("blocks", 32, "summarize: block rows to print (-1 for all)");
  try {
    cli.parse(argc, argv);
    if (cli.positional().size() != 2) {
      std::fprintf(stderr,
                   "usage: tqtr_doctor verify|summarize|repair <file.tqtr> "
                   "[options]\n%s",
                   cli.help().c_str());
      return 2;
    }
    const std::string& command = cli.positional()[0];
    if (command != "verify" && command != "summarize" && command != "repair") {
      std::fprintf(stderr, "tqtr_doctor: unknown command '%s' "
                   "(verify|summarize|repair)\n", command.c_str());
      return 2;
    }
    if (command == "repair" && cli.str("out").empty()) {
      std::fprintf(stderr, "tqtr_doctor: repair needs -out <path>\n");
      return 2;
    }
    const auto bytes = cli::read_file(cli.positional()[1]);
    // Not a v2 file at all (v1 included): one line and exit 1, before any
    // command reads it as a damaged v2 file.
    trace::check_v2_magic(bytes);
    if (command == "verify") return verify(bytes);
    if (command == "summarize") return summarize(bytes, cli.integer("blocks"));
    return repair(bytes, cli.str("out"));
  } catch (const Error& err) {
    std::fprintf(stderr, "tqtr_doctor: %s\n", err.what());
    return 1;
  }
}
