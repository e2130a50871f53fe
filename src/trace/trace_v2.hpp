// TQTR v2: block-compressed trace container, the only trace format.
//
// A flat layout (the retired v1 stored 28 bytes per event) dominates both
// disk and replay time at production trace sizes (1e9+ events). v2 groups
// records into fixed-capacity blocks, each independently decodable:
//
//   * per-block delta/varint coding — `retired`, `ea`, and `pc` as zigzag
//     deltas (ea keeps one previous-address register per event kind, so read
//     and write streams delta independently), kernel/func as varints with a
//     "same context as previous record" shortcut bit, kind/flags/size packed
//     into one tag byte — typically 4–7 bytes/event;
//   * a 32-byte block header carrying first/last retired count, record and
//     payload byte counts, and an approximate kernel-membership bloom;
//   * a file-level index of block offsets, so consumers can shard whole
//     blocks across a ThreadPool without decoding the prefix.
//
// Layout details in docs/FORMATS.md. Writers stream: TraceV2Writer holds one
// open block plus the already-encoded bytes, never the full Record array.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "trace/wire.hpp"

namespace tq::trace {

inline constexpr std::uint32_t kDefaultBlockCapacity = 4096;
inline constexpr std::uint32_t kMaxBlockCapacity = 1u << 20;
inline constexpr std::size_t kV2FileHeaderBytes = 40;
/// v2.1 block header (v2.0 lacked the trailing crc32c + reserved words).
inline constexpr std::size_t kV2BlockHeaderBytes = 40;
inline constexpr std::size_t kV2LegacyBlockHeaderBytes = 32;
inline constexpr std::size_t kV2IndexEntryBytes = 16;

/// The file header's version word packs major|minor: low 16 bits = 2, high
/// 16 bits = minor. Minor 0 (the original v2 layout, still decoded) has
/// 32-byte block headers; minor 1 appends a CRC-32C per block.
inline constexpr std::uint32_t kV2VersionMajor = 2;
inline constexpr std::uint32_t kV2MinorCrc = 1;
inline constexpr std::uint32_t v2_version_word(std::uint32_t minor) {
  return kV2VersionMajor | (minor << 16);
}

/// Record coding shared by the writer (inline below) and the decoder.
namespace v2_coding {

inline constexpr std::uint8_t kDefinedFlags = kFlagStackArea | kFlagPrefetch;

// Tag byte: bits 0-1 kind, 2-3 flags, 4-6 size code, 7 context-repeat
// (kernel/func equal the previous record in the block; their varints are
// omitted). pc is not part of the repeat set: a loop body walks several
// distinct pcs per iteration, so pc gets its own zigzag delta instead.
inline constexpr std::uint8_t kTagCtxRepeat = 0x80;

// Size codes 0..6 for the common access widths of kRead/kWrite; 7 means a
// literal size byte follows the tag. kEnter/kRet use code 0 for their
// (constant) size 0.
inline constexpr std::uint8_t kAccessSizes[7] = {1, 2, 4, 8, 16, 32, 64};
inline constexpr std::uint8_t kSizeLiteral = 7;

/// Upper bound on one encoded record: tag, literal size byte, three 10-byte
/// varints (retired, ea and pc deltas) and two 3-byte varints (kernel and
/// func, both 16-bit). The pc delta of a 32-bit pc never exceeds 5 bytes,
/// so the bound is loose by 5; one round figure keeps the check obvious.
inline constexpr std::size_t kMaxRecordBytes = 1 + 1 + 3 * 10 + 2 * 3;

constexpr std::uint8_t size_code(EventKind kind, std::uint8_t size) noexcept {
  if (kind == EventKind::kRead || kind == EventKind::kWrite) {
    switch (size) {
      case 1: return 0;
      case 2: return 1;
      case 4: return 2;
      case 8: return 3;
      case 16: return 4;
      case 32: return 5;
      case 64: return 6;
      default: return kSizeLiteral;
    }
  }
  return size == 0 ? 0 : kSizeLiteral;
}

/// Wraparound difference, zigzagged: the shortest signed distance wins, so
/// a max-u64 jump backwards still costs one byte.
inline std::uint64_t delta_u64(std::uint64_t value, std::uint64_t previous) noexcept {
  return wire::zigzag_encode(static_cast<std::int64_t>(value - previous));
}

}  // namespace v2_coding

/// Throws tq::Error unless `bytes` start with the TQTR magic and major
/// version 2 (any minor — open() rejects minors it cannot decode). A version
/// 1 header, the retired flat format, gets its own one-line message. open()
/// and salvage() run this first.
void check_v2_magic(std::span<const std::uint8_t> bytes);

/// Per-block metadata: the on-disk block header plus its file offset.
struct BlockInfo {
  std::uint64_t file_offset = 0;   ///< of the block header
  std::uint32_t record_count = 0;  ///< 1..block_capacity
  std::uint32_t payload_bytes = 0;
  std::uint64_t first_retired = 0;  ///< retired count of the first record
  std::uint64_t last_retired = 0;   ///< retired count of the last record
  std::uint64_t kernel_bloom = 0;   ///< bit (kernel & 63) set per record
  std::uint32_t crc = 0;            ///< CRC-32C (v2.1; 0 in v2.0 files)
};

/// What salvage-mode decoding recovered from a damaged v2 image.
struct SalvageReport {
  /// One block the salvage scan could not recover.
  struct DroppedBlock {
    std::size_t index = 0;          ///< ordinal position in the scan
    std::uint64_t file_offset = 0;  ///< of the (claimed) block header
    std::uint32_t record_count = 0; ///< records lost (claimed; 0 if unknown)
    std::string reason;
  };

  bool index_rebuilt = false;  ///< trailer index missing/corrupt; blocks rescanned
  std::size_t blocks_found = 0;      ///< block candidates examined
  std::size_t blocks_recovered = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t records_dropped = 0;  ///< from blocks with a readable count
  std::vector<DroppedBlock> dropped;

  bool clean() const noexcept { return !index_rebuilt && dropped.empty(); }
};

/// Streaming v2 encoder: feed records one at a time, then finish(). Memory
/// stays proportional to the *encoded* output plus one open block, so a
/// recorder can write arbitrarily long runs without buffering Record arrays.
class TraceV2Writer {
 public:
  /// `minor` selects the wire layout: kV2MinorCrc (default) writes v2.1
  /// with per-block CRC-32C; 0 writes the legacy v2.0 layout (for
  /// compatibility tests and the CRC-overhead bench).
  explicit TraceV2Writer(std::uint32_t kernel_count,
                         std::uint32_t block_capacity = kDefaultBlockCapacity,
                         std::uint32_t minor = kV2MinorCrc);

  /// Append one record. Throws tq::Error, writing nothing, for exactly the
  /// records TraceV2View rejects: flag bits outside the defined set, an
  /// out-of-range kind, a nonzero reserved byte, or a kernel id that is
  /// neither below `kernel_count` nor kNoKernel16.
  /// Forced inline: this is the recorder's per-event path, and at its size
  /// the compiler would otherwise keep it out of line.
  [[gnu::always_inline]] void add(const Record& record);

  /// Seal the file: flush the open block, append the index, patch the
  /// header. The writer is spent afterwards.
  std::vector<std::uint8_t> finish(std::uint64_t total_retired);

  std::uint64_t record_count() const noexcept { return record_count_; }
  /// Blocks flushed so far (all of them once finish() ran); each carries
  /// its own CRC-32C in the v2.1 layout.
  std::size_t block_count() const noexcept { return blocks_.size(); }

 private:
  /// Throws the error for the check add() failed.
  [[noreturn]] void reject(const Record& record) const;
  void grow_payload();
  void flush_block();

  std::uint32_t kernel_count_;
  std::uint32_t block_capacity_;
  std::uint32_t minor_;
  std::vector<std::uint8_t> out_;      ///< finished header + flushed blocks
  /// Open block payload: bytes [0, payload_used_) are encoded records; the
  /// vector's size is its capacity, kept >= payload_used_ + kMaxRecordBytes
  /// before each record is written through a raw cursor.
  std::vector<std::uint8_t> payload_;
  std::size_t payload_used_ = 0;
  std::vector<BlockInfo> blocks_;
  std::uint64_t record_count_ = 0;
  bool finished_ = false;

  // Open-block coder state (reset at block boundaries so blocks decode
  // independently).
  std::uint32_t block_records_ = 0;
  std::uint64_t block_first_retired_ = 0;
  std::uint64_t block_last_retired_ = 0;
  std::uint64_t block_bloom_ = 0;
  std::uint64_t prev_retired_ = 0;
  std::uint64_t prev_ea_[4] = {0, 0, 0, 0};
  std::uint32_t prev_pc_ = 0;
  std::uint16_t prev_kernel_ = 0;
  std::uint16_t prev_func_ = 0;
};

inline void TraceV2Writer::add(const Record& record) {
  using namespace v2_coding;
  const auto kind = static_cast<std::uint8_t>(record.kind);
  if (finished_ || kind > static_cast<std::uint8_t>(EventKind::kWrite) ||
      (record.flags & ~kDefinedFlags) != 0 || record.reserved != 0 ||
      (record.kernel >= kernel_count_ && record.kernel != kNoKernel16))
      [[unlikely]] {
    reject(record);
  }
  // One check per record: after it, any record fits without another.
  if (payload_.size() - payload_used_ < kMaxRecordBytes) [[unlikely]] {
    grow_payload();
  }
  if (block_records_ == 0) {
    block_first_retired_ = record.retired;
    prev_retired_ = record.retired;
  }

  const std::uint8_t code = size_code(record.kind, record.size);
  const bool repeat = block_records_ > 0 && record.kernel == prev_kernel_ &&
                      record.func == prev_func_;
  std::uint8_t* cursor = payload_.data() + payload_used_;
  *cursor++ = static_cast<std::uint8_t>(kind | (record.flags << 2) | (code << 4) |
                                        (repeat ? kTagCtxRepeat : 0));
  if (code == kSizeLiteral) *cursor++ = record.size;
  cursor = wire::put_varint(cursor, delta_u64(record.retired, prev_retired_));
  cursor = wire::put_varint(cursor, delta_u64(record.ea, prev_ea_[kind]));
  cursor = wire::put_varint(cursor, delta_u64(record.pc, prev_pc_));
  if (!repeat) {
    cursor = wire::put_varint(cursor, record.kernel);
    cursor = wire::put_varint(cursor, record.func);
  }
  payload_used_ = static_cast<std::size_t>(cursor - payload_.data());

  prev_retired_ = record.retired;
  prev_ea_[kind] = record.ea;
  prev_pc_ = record.pc;
  prev_kernel_ = record.kernel;
  prev_func_ = record.func;
  block_last_retired_ = record.retired;
  block_bloom_ |= 1ull << (record.kernel & 63);
  ++record_count_;
  if (++block_records_ == block_capacity_) flush_block();
}

/// One-shot convenience: encode a whole in-memory trace as TQTR v2.
std::vector<std::uint8_t> serialize_v2(
    const Trace& trace, std::uint32_t block_capacity = kDefaultBlockCapacity);

/// Validated random-access view over a v2 byte image. open() checks the
/// whole structure (magic, index/block offset chain, per-block headers,
/// record-count totals) up front; per-block payloads are validated on
/// decode. The view borrows `bytes` — keep them alive while using it.
class TraceV2View {
 public:
  static TraceV2View open(std::span<const std::uint8_t> bytes);

  /// Best-effort open of a damaged image: skips blocks whose CRC (v2.1) or
  /// trial decode fails, drops truncated tails, and rebuilds the block list
  /// by scanning forward from the file header when the trailer index is
  /// missing or unusable (e.g. the write was cut off mid-run). The returned
  /// view exposes only the recovered blocks, so every downstream consumer
  /// (decode_all, session replay, offline aggregation) works unchanged on
  /// the recovered subset. Throws tq::Error only when nothing is recoverable
  /// (bad magic/major version/file header). Details land in `*report` when
  /// non-null.
  static TraceV2View salvage(std::span<const std::uint8_t> bytes,
                             SalvageReport* report = nullptr);

  std::uint32_t kernel_count() const noexcept { return kernel_count_; }
  std::uint32_t block_capacity() const noexcept { return block_capacity_; }
  std::uint32_t minor_version() const noexcept { return minor_; }
  std::uint64_t total_retired() const noexcept { return total_retired_; }
  std::uint64_t record_count() const noexcept { return record_count_; }

  std::size_t block_count() const noexcept { return blocks_.size(); }
  const BlockInfo& block(std::size_t i) const;

  /// Decode one block. Throws tq::Error on corrupt payloads or block
  /// headers that disagree with the decoded records (first/last retired,
  /// kernel bloom, payload byte count).
  std::vector<Record> decode_block(std::size_t i) const;

  /// Decode every block into a flat Trace.
  Trace decode_all() const;

  /// Parsed file-header fields (an implementation detail shared between the
  /// strict and salvage open paths).
  struct HeaderFields {
    std::uint32_t minor = 0;
    std::uint32_t kernel_count = 0;
    std::uint32_t block_capacity = 0;
    std::uint64_t total_retired = 0;
    std::uint64_t record_count = 0;
    std::uint64_t index_offset = 0;
  };

 private:
  TraceV2View() = default;

  /// Decode a block payload described by `info` (no CRC check — that is
  /// decode_block's / salvage's job).
  std::vector<Record> decode_payload(const BlockInfo& info) const;

  std::span<const std::uint8_t> bytes_;
  std::vector<BlockInfo> blocks_;
  std::uint32_t kernel_count_ = 0;
  std::uint32_t block_capacity_ = 0;
  std::uint32_t minor_ = 0;
  std::uint64_t total_retired_ = 0;
  std::uint64_t record_count_ = 0;
};

}  // namespace tq::trace
