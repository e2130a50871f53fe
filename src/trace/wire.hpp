// Byte-level wire primitives for the trace codecs.
//
// Everything the TQTR readers consume is attacker-controlled (fuzz-tested),
// so reads go through a bounds-checked ByteReader that raises tq::Error on
// any overrun instead of walking off the buffer. Varints are LEB128 (7 bits
// per byte, little-endian groups, high bit = continuation, max 10 bytes for
// a u64); signed deltas use zigzag so small negative strides stay short.
// Fixed-width fields are copied in host byte order, which is the on-disk
// little-endian order only on little-endian hosts; the build refuses others.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace tq::trace::wire {

static_assert(std::endian::native == std::endian::little,
              "the TQTR wire format is little-endian; other hosts are unsupported");

inline void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 2);
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 8);
}

/// LEB128 unsigned varint, 1..10 bytes, written at `p` into a buffer the
/// caller has already sized; returns the position after it.
inline std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) noexcept {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Zigzag: map signed deltas to unsigned so ±small stays a 1-byte varint.
inline std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Bounds-checked cursor over untrusted bytes; every overrun is tq::Error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

  std::uint8_t u8() {
    require(1);
    return bytes_[pos_++];
  }
  std::uint16_t u16() {
    require(2);
    std::uint16_t v;
    std::memcpy(&v, bytes_.data() + pos_, 2);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v;
    std::memcpy(&v, bytes_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v;
    std::memcpy(&v, bytes_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  /// LEB128 u64; rejects truncation and >64-bit values.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      if (shift == 63 && (byte & 0x7e) != 0) {
        TQUAD_THROW("TQTR varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    TQUAD_THROW("TQTR varint longer than 10 bytes");
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) TQUAD_THROW("TQTR input truncated");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace tq::trace::wire
