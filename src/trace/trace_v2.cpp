#include "trace/trace_v2.hpp"

#include <algorithm>
#include <cstring>

#include "support/check.hpp"
#include "support/crc32c.hpp"
#include "trace/wire.hpp"

namespace tq::trace {

namespace {

constexpr std::uint32_t kMagic = 0x52545154;  // "TQTR"

using v2_coding::kAccessSizes;
using v2_coding::kSizeLiteral;
using v2_coding::kTagCtxRepeat;

// The writer's switch and the decoder's table must agree on every code.
static_assert([] {
  for (std::uint8_t code = 0; code < kSizeLiteral; ++code) {
    if (v2_coding::size_code(EventKind::kRead, kAccessSizes[code]) != code) {
      return false;
    }
  }
  return true;
}());

std::uint64_t apply_delta(std::uint64_t previous, std::uint64_t zigzag) {
  return previous + static_cast<std::uint64_t>(wire::zigzag_decode(zigzag));
}

std::size_t block_header_bytes(std::uint32_t minor) {
  return minor >= kV2MinorCrc ? kV2BlockHeaderBytes : kV2LegacyBlockHeaderBytes;
}

/// The CRC covers the 32 header bytes shared with v2.0 plus the payload —
/// everything except the CRC word itself and the reserved word after it.
std::uint32_t block_crc(std::span<const std::uint8_t> bytes, const BlockInfo& info) {
  const std::uint32_t head =
      crc32c(bytes.data() + info.file_offset, kV2LegacyBlockHeaderBytes);
  return crc32c(bytes.data() + info.file_offset + kV2BlockHeaderBytes,
                info.payload_bytes, head);
}

}  // namespace

bool is_v2_image(std::span<const std::uint8_t> bytes) noexcept {
  // Magic "TQTR" then a version word whose low half is major 2 (any minor).
  return bytes.size() >= 8 && bytes[0] == 'T' && bytes[1] == 'Q' &&
         bytes[2] == 'T' && bytes[3] == 'R' && bytes[4] == kV2VersionMajor &&
         bytes[5] == 0;
}

// ---- TraceV2Writer ---------------------------------------------------------------

TraceV2Writer::TraceV2Writer(std::uint32_t kernel_count, std::uint32_t block_capacity,
                             std::uint32_t minor)
    : block_capacity_(block_capacity), minor_(minor) {
  TQUAD_CHECK(block_capacity_ >= 1 && block_capacity_ <= kMaxBlockCapacity,
              "TQTR v2 block capacity out of range");
  TQUAD_CHECK(minor_ <= kV2MinorCrc, "TQTR v2 minor version out of range");
  // Header now; total_retired / record_count / index_offset patched by
  // finish().
  wire::put_u32(out_, kMagic);
  wire::put_u32(out_, v2_version_word(minor_));
  wire::put_u32(out_, kernel_count);
  wire::put_u32(out_, block_capacity_);
  wire::put_u64(out_, 0);
  wire::put_u64(out_, 0);
  wire::put_u64(out_, 0);
}

void TraceV2Writer::reject(std::uint8_t kind, std::uint8_t flags) const {
  TQUAD_CHECK(!finished_, "TraceV2Writer reused after finish()");
  if (kind > static_cast<std::uint8_t>(EventKind::kWrite)) {
    TQUAD_THROW("TQTR v2: record kind out of range");
  }
  if (flags & ~v2_coding::kDefinedFlags) {
    TQUAD_THROW("TQTR v2: undefined flag bits are not representable");
  }
  TQUAD_THROW("TQTR v2: nonzero reserved byte is not representable");
}

void TraceV2Writer::grow_payload() {
  payload_.resize(std::max<std::size_t>(2 * payload_.size(), 256));
}

void TraceV2Writer::flush_block() {
  BlockInfo info;
  info.file_offset = out_.size();
  info.record_count = block_records_;
  info.payload_bytes = static_cast<std::uint32_t>(payload_used_);
  info.first_retired = block_first_retired_;
  info.last_retired = block_last_retired_;
  info.kernel_bloom = block_bloom_;
  blocks_.push_back(info);

  wire::put_u32(out_, info.record_count);
  wire::put_u32(out_, info.payload_bytes);
  wire::put_u64(out_, info.first_retired);
  wire::put_u64(out_, info.last_retired);
  wire::put_u64(out_, info.kernel_bloom);
  if (minor_ >= kV2MinorCrc) {
    // CRC over the 32 header bytes just written plus the payload.
    const std::uint32_t head =
        crc32c(out_.data() + info.file_offset, kV2LegacyBlockHeaderBytes);
    blocks_.back().crc = crc32c(payload_.data(), payload_used_, head);
    wire::put_u32(out_, blocks_.back().crc);
    wire::put_u32(out_, 0);  // reserved
  }
  out_.insert(out_.end(), payload_.begin(),
              payload_.begin() + static_cast<std::ptrdiff_t>(payload_used_));

  payload_used_ = 0;
  block_records_ = 0;
  block_bloom_ = 0;
  prev_retired_ = 0;
  std::fill(std::begin(prev_ea_), std::end(prev_ea_), 0);
  prev_pc_ = 0;
  prev_kernel_ = 0;
  prev_func_ = 0;
}

std::vector<std::uint8_t> TraceV2Writer::finish(std::uint64_t total_retired) {
  TQUAD_CHECK(!finished_, "TraceV2Writer reused after finish()");
  finished_ = true;
  if (block_records_ > 0) flush_block();
  const std::uint64_t index_offset = out_.size();
  wire::put_u32(out_, static_cast<std::uint32_t>(blocks_.size()));
  for (const BlockInfo& info : blocks_) {
    wire::put_u64(out_, info.file_offset);
    wire::put_u64(out_, info.first_retired);
  }
  auto patch_u64 = [&](std::size_t offset, std::uint64_t v) {
    std::memcpy(out_.data() + offset, &v, 8);
  };
  patch_u64(16, total_retired);
  patch_u64(24, record_count_);
  patch_u64(32, index_offset);
  return std::move(out_);
}

std::vector<std::uint8_t> serialize_v2(const Trace& trace,
                                       std::uint32_t block_capacity) {
  TraceV2Writer writer(trace.kernel_count, block_capacity);
  for (const Record& record : trace.records) writer.add(record);
  return writer.finish(trace.total_retired);
}

// ---- TraceV2View -----------------------------------------------------------------

namespace {

/// Parse and validate the 40-byte file header into an empty view (no block
/// scan). Shared by the strict and salvage open paths — both insist on a
/// sane file header; nothing is recoverable without one.
TraceV2View::HeaderFields parse_file_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kV2FileHeaderBytes) {
    TQUAD_THROW("TQTR v2 trace too short for a header");
  }
  wire::ByteReader header(bytes);
  if (header.u32() != kMagic) TQUAD_THROW("not a TQTR trace (bad magic)");
  const std::uint32_t version = header.u32();
  if ((version & 0xffffu) != kV2VersionMajor) {
    TQUAD_THROW("not a TQTR v2 trace");
  }
  TraceV2View::HeaderFields fields;
  fields.minor = version >> 16;
  if (fields.minor > kV2MinorCrc) {
    TQUAD_THROW("TQTR v2 minor version from the future");
  }
  fields.kernel_count = header.u32();
  fields.block_capacity = header.u32();
  fields.total_retired = header.u64();
  fields.record_count = header.u64();
  fields.index_offset = header.u64();
  if (fields.block_capacity < 1 || fields.block_capacity > kMaxBlockCapacity) {
    TQUAD_THROW("TQTR v2 block capacity out of range");
  }
  return fields;
}

/// Read one block header at `offset`, bounds-checking against `limit` (the
/// index offset for strict opens, EOF for salvage scans). Field sanity
/// (record count vs. capacity) is the caller's call.
BlockInfo read_block_header(std::span<const std::uint8_t> bytes,
                            std::uint64_t offset, std::uint64_t limit,
                            std::uint32_t minor) {
  const std::size_t header_bytes = block_header_bytes(minor);
  if (offset + header_bytes > limit) {
    TQUAD_THROW("TQTR v2 block header overruns the index");
  }
  wire::ByteReader block_header(bytes.subspan(offset));
  BlockInfo info;
  info.file_offset = offset;
  info.record_count = block_header.u32();
  info.payload_bytes = block_header.u32();
  info.first_retired = block_header.u64();
  info.last_retired = block_header.u64();
  info.kernel_bloom = block_header.u64();
  if (minor >= kV2MinorCrc) {
    info.crc = block_header.u32();
    if (block_header.u32() != 0) {
      TQUAD_THROW("TQTR v2 block header reserved word is not zero");
    }
  }
  return info;
}

}  // namespace

TraceV2View TraceV2View::open(std::span<const std::uint8_t> bytes) {
  const HeaderFields fields = parse_file_header(bytes);
  TraceV2View view;
  view.bytes_ = bytes;
  view.minor_ = fields.minor;
  view.kernel_count_ = fields.kernel_count;
  view.block_capacity_ = fields.block_capacity;
  view.total_retired_ = fields.total_retired;
  view.record_count_ = fields.record_count;
  const std::uint64_t index_offset = fields.index_offset;
  const std::size_t header_bytes = block_header_bytes(view.minor_);
  if (index_offset < kV2FileHeaderBytes || index_offset > bytes.size() - 4) {
    TQUAD_THROW("TQTR v2 index offset out of bounds");
  }

  wire::ByteReader index(bytes.subspan(index_offset));
  const std::uint32_t block_count = index.u32();
  if (bytes.size() - index_offset - 4 !=
      static_cast<std::uint64_t>(block_count) * kV2IndexEntryBytes) {
    TQUAD_THROW("TQTR v2 index size mismatch");
  }

  view.blocks_.reserve(block_count);
  std::uint64_t expected_offset = kV2FileHeaderBytes;
  std::uint64_t total_records = 0;
  for (std::uint32_t i = 0; i < block_count; ++i) {
    const std::uint64_t offset = index.u64();
    const std::uint64_t index_first_retired = index.u64();
    if (offset != expected_offset) {
      TQUAD_THROW("TQTR v2 index entry does not point at the next block");
    }
    const BlockInfo info = read_block_header(bytes, offset, index_offset, view.minor_);
    if (info.record_count < 1 || info.record_count > view.block_capacity_) {
      TQUAD_THROW("TQTR v2 block record count out of range");
    }
    if (offset + header_bytes + info.payload_bytes > index_offset) {
      TQUAD_THROW("TQTR v2 block payload overruns the index");
    }
    if (info.first_retired != index_first_retired) {
      TQUAD_THROW("TQTR v2 index disagrees with the block header");
    }
    total_records += info.record_count;
    expected_offset = offset + header_bytes + info.payload_bytes;
    view.blocks_.push_back(info);
  }
  if (expected_offset != index_offset) {
    TQUAD_THROW("TQTR v2 blocks do not end at the index");
  }
  if (total_records != view.record_count_) {
    TQUAD_THROW("TQTR v2 header record count disagrees with the blocks");
  }
  return view;
}

TraceV2View TraceV2View::salvage(std::span<const std::uint8_t> bytes,
                                 SalvageReport* report) {
  const HeaderFields fields = parse_file_header(bytes);
  TraceV2View view;
  view.bytes_ = bytes;
  view.minor_ = fields.minor;
  view.kernel_count_ = fields.kernel_count;
  view.block_capacity_ = fields.block_capacity;
  const std::size_t header_bytes = block_header_bytes(view.minor_);

  SalvageReport local;
  SalvageReport& rep = report ? *report : local;
  rep = SalvageReport{};

  // Prefer the trailer index: it re-anchors the scan after a block whose
  // header (and so payload length) is unreadable. Fall back to a forward
  // scan from the file header when the index is missing or unusable — the
  // shape a mid-write truncation leaves behind (index offset still zero).
  std::vector<std::uint64_t> offsets;
  const std::uint64_t index_offset = fields.index_offset;
  std::uint64_t blocks_end = bytes.size();
  bool have_index = false;
  if (index_offset >= kV2FileHeaderBytes && index_offset <= bytes.size() - 4) {
    wire::ByteReader index(bytes.subspan(index_offset));
    const std::uint32_t block_count = index.u32();
    if (bytes.size() - index_offset - 4 ==
        static_cast<std::uint64_t>(block_count) * kV2IndexEntryBytes) {
      have_index = true;
      blocks_end = index_offset;
      offsets.reserve(block_count);
      for (std::uint32_t i = 0; i < block_count; ++i) {
        offsets.push_back(index.u64());
        (void)index.u64();  // first_retired: re-read from the block header
      }
    }
  }
  rep.index_rebuilt = !have_index;

  const auto drop = [&](std::uint64_t offset, std::uint32_t record_count,
                        std::string reason) {
    rep.dropped.push_back(
        {rep.blocks_found - 1, offset, record_count, std::move(reason)});
    rep.records_dropped += record_count;
  };

  std::uint64_t prev_last_retired = 0;
  std::uint64_t scan_offset = kV2FileHeaderBytes;
  for (std::size_t i = 0; have_index ? i < offsets.size()
                                     : scan_offset < blocks_end;
       ++i) {
    const std::uint64_t offset = have_index ? offsets[i] : scan_offset;
    ++rep.blocks_found;
    BlockInfo info;
    try {
      if (have_index && (offset < kV2FileHeaderBytes || offset >= blocks_end)) {
        TQUAD_THROW("TQTR v2 index entry out of bounds");
      }
      info = read_block_header(bytes, offset, blocks_end, view.minor_);
      if (info.record_count < 1 || info.record_count > view.block_capacity_) {
        TQUAD_THROW("TQTR v2 block record count out of range");
      }
      if (offset + header_bytes + info.payload_bytes > blocks_end) {
        TQUAD_THROW("TQTR v2 block payload truncated");
      }
    } catch (const Error& err) {
      // Unreadable header: without the index the payload length is unknown,
      // so the scan cannot re-anchor — everything from here on is lost.
      drop(offset, 0, err.what());
      if (!have_index) break;
      continue;
    }
    scan_offset = offset + header_bytes + info.payload_bytes;
    try {
      if (view.minor_ >= kV2MinorCrc && block_crc(bytes, info) != info.crc) {
        TQUAD_THROW("TQTR v2 block CRC mismatch");
      }
      // Trial-decode so a salvaged view never throws downstream (v2.0 has
      // no CRC, and even a CRC-clean block could carry a writer-side lie).
      (void)view.decode_payload(info);
      if (info.first_retired < prev_last_retired) {
        TQUAD_THROW("TQTR v2 block retired counts out of order");
      }
    } catch (const Error& err) {
      drop(offset, info.record_count, err.what());
      continue;
    }
    prev_last_retired = info.last_retired;
    ++rep.blocks_recovered;
    rep.records_recovered += info.record_count;
    view.blocks_.push_back(info);
  }

  view.record_count_ = rep.records_recovered;
  // An unfinished file still has the placeholder zero here; best effort is
  // "the trace ends right after its last surviving record".
  view.total_retired_ = fields.total_retired != 0
                            ? fields.total_retired
                            : (view.blocks_.empty()
                                   ? 0
                                   : view.blocks_.back().last_retired + 1);
  return view;
}

const BlockInfo& TraceV2View::block(std::size_t i) const {
  TQUAD_CHECK(i < blocks_.size(), "block index out of range");
  return blocks_[i];
}

std::vector<Record> TraceV2View::decode_block(std::size_t i) const {
  const BlockInfo& info = block(i);
  if (minor_ >= kV2MinorCrc && block_crc(bytes_, info) != info.crc) {
    TQUAD_THROW("TQTR v2 block CRC mismatch");
  }
  return decode_payload(info);
}

std::vector<Record> TraceV2View::decode_payload(const BlockInfo& info) const {
  wire::ByteReader reader(bytes_.subspan(
      info.file_offset + block_header_bytes(minor_), info.payload_bytes));
  std::vector<Record> records;
  records.reserve(info.record_count);

  std::uint64_t prev_retired = info.first_retired;
  std::uint64_t prev_ea[4] = {0, 0, 0, 0};
  std::uint32_t prev_pc = 0;
  std::uint16_t prev_kernel = 0;
  std::uint16_t prev_func = 0;
  for (std::uint32_t n = 0; n < info.record_count; ++n) {
    const std::uint8_t tag = reader.u8();
    Record record{};
    record.kind = static_cast<EventKind>(tag & 0x3);
    record.flags = (tag >> 2) & 0x3;
    const std::uint8_t code = (tag >> 4) & 0x7;
    if (code == kSizeLiteral) {
      record.size = reader.u8();
    } else if (record.kind == EventKind::kRead || record.kind == EventKind::kWrite) {
      record.size = kAccessSizes[code];
    } else if (code == 0) {
      record.size = 0;
    } else {
      TQUAD_THROW("TQTR v2 record with bad size code");
    }
    record.retired = apply_delta(prev_retired, reader.varint());
    const auto kind_index = static_cast<std::size_t>(record.kind);
    record.ea = apply_delta(prev_ea[kind_index], reader.varint());
    const std::uint64_t pc = apply_delta(prev_pc, reader.varint());
    if (pc > 0xffffffffull) TQUAD_THROW("TQTR v2 record pc out of range");
    record.pc = static_cast<std::uint32_t>(pc);
    if (tag & kTagCtxRepeat) {
      record.kernel = prev_kernel;
      record.func = prev_func;
    } else {
      const std::uint64_t kernel = reader.varint();
      const std::uint64_t func = reader.varint();
      if (kernel > 0xffffull || func > 0xffffull) {
        TQUAD_THROW("TQTR v2 record field out of range");
      }
      record.kernel = static_cast<std::uint16_t>(kernel);
      record.func = static_cast<std::uint16_t>(func);
    }
    if (record.kernel != kNoKernel16 && record.kernel >= kernel_count_) {
      TQUAD_THROW("TQTR v2 record kernel id out of range");
    }
    if (((info.kernel_bloom >> (record.kernel & 63)) & 1) == 0) {
      TQUAD_THROW("TQTR v2 block bloom disagrees with its records");
    }
    prev_retired = record.retired;
    prev_ea[kind_index] = record.ea;
    prev_pc = record.pc;
    prev_kernel = record.kernel;
    prev_func = record.func;
    records.push_back(record);
  }
  if (reader.remaining() != 0) {
    TQUAD_THROW("TQTR v2 block payload has trailing bytes");
  }
  if (records.front().retired != info.first_retired ||
      records.back().retired != info.last_retired) {
    TQUAD_THROW("TQTR v2 block header retired range disagrees with its records");
  }
  return records;
}

Trace TraceV2View::decode_all() const {
  Trace trace;
  trace.kernel_count = kernel_count_;
  trace.total_retired = total_retired_;
  trace.records.reserve(record_count_);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const std::vector<Record> records = decode_block(b);
    trace.records.insert(trace.records.end(), records.begin(), records.end());
  }
  return trace;
}

std::size_t TraceV2View::first_block_at(std::uint64_t retired) const {
  // Blocks are ordered by retired count; find the first whose range can
  // still contain `retired`.
  const auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), retired,
      [](const BlockInfo& info, std::uint64_t r) { return info.last_retired < r; });
  return static_cast<std::size_t>(it - blocks_.begin());
}

std::uint64_t replay_range(const TraceV2View& view, std::uint64_t lo,
                           std::uint64_t hi, TraceSink& sink) {
  std::uint64_t delivered = 0;
  for (std::size_t b = view.first_block_at(lo); b < view.block_count(); ++b) {
    if (view.block(b).first_retired >= hi) break;
    for (const Record& record : view.decode_block(b)) {
      if (record.retired < lo || record.retired >= hi) continue;
      sink.on_record(record);
      ++delivered;
    }
  }
  return delivered;
}

}  // namespace tq::trace
