// Trace record / replay.
//
// Online profiling couples analysis cost to execution: every run of the
// (slow) instrumented guest pays for every analysis. This module decouples
// them, the way production DBI setups do (Pin's logger/replayer tools):
//
//   * TraceRecorder is a session consumer that captures the profiler-relevant
//     event stream — routine entries/returns and memory accesses, each
//     pre-attributed to the kernel on top of the call stack and pre-classified
//     stack/global — and streams it into a TQTR v2 file (trace_v2.hpp): a
//     block-compressed layout that also enables block-parallel replay. v2 is
//     the only format; readers reject the retired flat v1 layout.
//   * OfflineBandwidth aggregates a block range of a v2 trace into the same
//     per-kernel per-slice counters tquad::BandwidthRecorder produces online,
//     sharded across a ThreadPool (records are pre-attributed, so
//     aggregation is embarrassingly parallel; partial slices at shard
//     boundaries merge by addition).
//   * session::TraceReplaySource (event_source.hpp) replays a trace through
//     a ProfileSession, so every tool runs from one guest execution.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "session/events.hpp"
#include "support/thread_pool.hpp"
#include "tquad/bandwidth.hpp"
#include "tquad/callstack.hpp"
#include "vm/program.hpp"

namespace tq::metrics {
class Registry;
}  // namespace tq::metrics

namespace tq::trace {

/// Event kinds stored in a trace.
enum class EventKind : std::uint8_t {
  kEnter = 0,  ///< routine entry; `ea` holds the entered function id
  kRet = 1,    ///< return executed inside `func`
  kRead = 2,   ///< memory read of `size` bytes at `ea`
  kWrite = 3,  ///< memory write of `size` bytes at `ea`
};

/// Flag bits.
enum : std::uint8_t {
  kFlagStackArea = 1u << 0,  ///< the access hits the local stack area
  kFlagPrefetch = 1u << 1,   ///< the access is a prefetch touch
};

/// One trace record, delta/varint-coded field by field in TQTR v2, so the
/// format never depends on host struct padding; little-endian hosts only,
/// like the rest of the image formats.
struct Record {
  std::uint64_t retired;  ///< instruction count before the event
  std::uint64_t ea;       ///< effective address (or entered function id)
  std::uint32_t pc;       ///< instruction index within `func`
  std::uint16_t kernel;   ///< attributed kernel (0xffff = unattributed)
  std::uint16_t func;     ///< function executing the instruction
  EventKind kind;
  std::uint8_t size;      ///< access width in bytes
  std::uint8_t flags;     ///< kFlag* bits
  std::uint8_t reserved;  ///< must be 0: the decoder rejects and the writer refuses others
};

/// Packed size of one record's fields, independent of host padding: the
/// raw-equivalent volume behind `trace.write.raw_bytes` and the compression
/// ratio (it was also the per-record size of the retired flat v1 format).
inline constexpr std::size_t kRecordDiskBytes = 28;
static_assert(sizeof(Record::retired) + sizeof(Record::ea) + sizeof(Record::pc) +
                  sizeof(Record::kernel) + sizeof(Record::func) +
                  sizeof(Record::kind) + sizeof(Record::size) +
                  sizeof(Record::flags) + sizeof(Record::reserved) ==
              kRecordDiskBytes,
              "Record field layout drifted");
static_assert(std::is_trivially_copyable_v<Record>, "Record must stay POD");

inline constexpr std::uint16_t kNoKernel16 = 0xffff;

/// On-disk trace container formats (the version field of the "TQTR" magic).
/// Only v2 is written or read; version 1 files are rejected with an error.
enum class TraceFormat : std::uint32_t {
  kV2 = 2,  ///< block-compressed, delta/varint coded (trace_v2.hpp)
};

/// A decoded trace plus the metadata needed to interpret it.
struct Trace {
  std::vector<Record> records;
  std::uint64_t total_retired = 0;
  std::uint32_t kernel_count = 0;

  /// Decode a whole TQTR v2 image (throws tq::Error on malformed input,
  /// and on a version 1 header). Encode with serialize_v2() (trace_v2.hpp).
  static Trace deserialize(std::span<const std::uint8_t> bytes);
};

class TraceV2Writer;  // trace_v2.hpp
class TraceV2View;    // trace_v2.hpp

/// Records the profiler-relevant event stream of one guest run, as a
/// session::AnalysisConsumer on a ProfileSession: attribution comes from the
/// session's shared KernelAttribution pass, under the session's library
/// policy. Accesses with no attributable kernel are recorded with kernel =
/// kNoKernel16 so offline consumers can choose to keep or drop them.
///
/// Records stream through a TraceV2Writer block encoder as they happen —
/// memory stays proportional to the *compressed* trace — and take_encoded()
/// returns the finished file image.
class TraceRecorder final : public session::AnalysisConsumer {
 public:
  /// `policy` and `format` are ignored: the session's attribution decides
  /// every record's kernel, and v2 is the only format. (Both parameters stay
  /// for source compatibility.)
  TraceRecorder(const vm::Program& program,
                tquad::LibraryPolicy policy = tquad::LibraryPolicy::kExclude,
                TraceFormat format = TraceFormat::kV2);
  ~TraceRecorder() override;  // out-of-line: TraceV2Writer is incomplete here

  // session::AnalysisConsumer. Ticks carry nothing a trace stores — the
  // retired counters on the other records imply them.
  unsigned event_interests() const override {
    return kEnterInterest | kAccessInterest | kRetInterest;
  }
  void on_kernel_enter(const session::EnterEvent& event) override;
  void on_access(const session::AccessEvent& event) override {
    on_access_batch({&event, 1});
  }
  void on_access_batch(std::span<const session::AccessEvent> batch) override;
  void on_kernel_ret(const session::RetEvent& event) override;
  void on_session_end(std::uint64_t total_retired) override;
  void on_finish(const vm::RunOutcome& outcome) override;

  /// Seal the trace: flush the open block and append the file index.
  /// Idempotent; runs on every session outcome (on_finish) — including
  /// guest traps and truncation — and from take_encoded(), so a trace
  /// recorded up to a fault is a complete, replayable file.
  void finalize();

  /// Hand out the finished v2 file image (call after the run; the recorder
  /// is spent, and a second call fails a TQUAD_CHECK).
  std::vector<std::uint8_t> take_encoded();

  /// Self-observability: records/bytes written, the raw-equivalent volume
  /// (records x kRecordDiskBytes), the resulting compression ratio, and the
  /// CRC'd block count, under trace.write.* names. Call after take_encoded().
  void publish_metrics(metrics::Registry& registry) const;

 private:
  /// Forced inline so every on_* hook encodes without a call.
  [[gnu::always_inline]] void push(const Record& record);

  std::unique_ptr<TraceV2Writer> writer_;
  std::vector<std::uint8_t> encoded_;  ///< sealed image (finalize())
  std::uint64_t total_retired_ = 0;
  std::uint64_t last_retired_ = 0;
  std::uint64_t encoded_bytes_ = 0;  ///< set by finalize()
  bool finalized_ = false;
  bool spent_ = false;  ///< take_encoded() handed the trace out
};

/// Offline per-kernel per-slice aggregation, equivalent to the online
/// tquad::BandwidthRecorder for the same run and slice interval.
class OfflineBandwidth {
 public:
  OfflineBandwidth(std::uint32_t kernel_count, std::uint64_t slice_interval);

  /// Aggregate blocks [block_lo, block_hi) of an encoded v2 trace on `pool`:
  /// workers decode and accumulate contiguous block ranges (bounded memory,
  /// no flat Record array), and partial slices at range seams merge by
  /// addition, so the result does not depend on the pool size. Pass
  /// [0, view.block_count()) for the whole trace. Throws tq::Error on a
  /// range outside the trace, on a decode error, and when a kernel's
  /// records step back into an earlier slice.
  void aggregate(const TraceV2View& view, std::size_t block_lo,
                 std::size_t block_hi, ThreadPool& pool);

  std::uint64_t slice_interval() const noexcept { return slice_interval_; }
  const tquad::KernelBandwidth& kernel(std::uint32_t id) const;
  std::size_t kernel_count() const noexcept { return kernels_.size(); }
  std::uint64_t max_slice() const noexcept { return max_slice_; }

 private:
  void merge_partial(std::uint32_t kernel,
                     std::vector<tquad::SliceSample>&& samples);

  std::vector<tquad::KernelBandwidth> kernels_;
  std::uint64_t slice_interval_;
  std::uint64_t max_slice_ = 0;
};

}  // namespace tq::trace
