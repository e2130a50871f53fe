// Byte-granular shadow memory mapping every guest address to the kernel that
// last wrote it — the mechanism behind QUAD's producer/consumer bindings
// (Ostadzadeh et al., "QUAD — a memory access pattern analyser", ARC 2010,
// reference [4] of the tQUAD paper).
//
// Layout mirrors PagedMemory: a hash map of 4 KiB pages, each holding one
// 16-bit producer id per byte. Pages materialise on first write; reads of
// unwritten memory report kNoProducer. A PageLookaside in front of the map
// keeps the recently used pages, so a mark or visit that stays inside one
// cached page runs inline without a hash lookup; anything else (a page miss,
// a page-straddling range) takes the general loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "support/page_lookaside.hpp"
#include "support/paged_memory.hpp"

namespace tq::quad {

/// Producer id stored per byte. 16 bits bound the tool to 65534 kernels,
/// ample for real programs (hArtes wfs has 64 functions).
using ProducerId = std::uint16_t;
inline constexpr ProducerId kNoProducer = 0xffff;

/// Sparse map: byte address -> last-writing kernel.
class ShadowMemory {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  static constexpr std::uint64_t kPageSize = PagedMemory::kPageSize;

  ShadowMemory() = default;
  ShadowMemory(const ShadowMemory&) = delete;
  ShadowMemory& operator=(const ShadowMemory&) = delete;

  /// Record `producer` as the last writer of [addr, addr+size).
  void mark_write(std::uint64_t addr, std::uint32_t size, ProducerId producer) {
    const std::uint64_t offset = addr & (kPageSize - 1);
    if (offset + size <= kPageSize) {
      if (Page* page = lookaside_.find(addr >> kPageBits)) {
        std::fill_n(page->producers + offset, size, producer);
        return;
      }
    }
    mark_write_general(addr, size, producer);
  }

  /// Producer of one byte (kNoProducer when never written).
  ProducerId producer_of(std::uint64_t addr) const noexcept;

  /// Adopt every page of `other`, leaving it empty. The page sets must be
  /// disjoint (the sharded-pipeline invariant: accesses are routed to shards
  /// by page number, so no page materialises in two shards); a collision is
  /// a routing bug and trips a check.
  void adopt_disjoint(ShadowMemory&& other);

  /// Visit the producer of every byte in [addr, addr+size):
  /// `visit(producer, run_length)` is called per maximal same-producer run
  /// within a page. Not const: a page found in the map is remembered in the
  /// lookaside, so concurrent visits of one shadow are not allowed.
  template <typename Visit>
  void for_each_producer(std::uint64_t addr, std::uint32_t size, Visit&& visit) {
    std::uint64_t cursor = addr;
    std::uint64_t remaining = size;
    while (remaining > 0) {
      const Page* page = lookup_page(cursor >> kPageBits);
      const std::uint64_t offset = cursor & (kPageSize - 1);
      const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
      if (page == nullptr) {
        visit(kNoProducer, static_cast<std::uint32_t>(in_page));
      } else {
        // Coalesce runs of the same producer within the page.
        std::uint64_t run_start = offset;
        ProducerId run_producer = page->producers[offset];
        for (std::uint64_t i = offset + 1; i < offset + in_page; ++i) {
          if (page->producers[i] != run_producer) {
            visit(run_producer, static_cast<std::uint32_t>(i - run_start));
            run_start = i;
            run_producer = page->producers[i];
          }
        }
        visit(run_producer, static_cast<std::uint32_t>(offset + in_page - run_start));
      }
      cursor += in_page;
      remaining -= in_page;
    }
  }

  std::size_t resident_pages() const noexcept { return pages_.size(); }
  std::size_t resident_bytes() const noexcept {
    return pages_.size() * kPageSize * sizeof(ProducerId);
  }

 private:
  struct Page {
    ProducerId producers[kPageSize];
  };

  const Page* find_page(std::uint64_t page_no) const noexcept {
    auto it = pages_.find(page_no);
    return it == pages_.end() ? nullptr : it->second.get();
  }
  /// find_page through the lookaside; a resident page found in the map is
  /// remembered, an absent one is not (adopt_disjoint may add it later).
  const Page* lookup_page(std::uint64_t page_no) {
    if (const Page* cached = lookaside_.find(page_no)) return cached;
    auto it = pages_.find(page_no);
    if (it == pages_.end()) return nullptr;
    lookaside_.remember(page_no, it->second.get());
    return it->second.get();
  }
  Page& touch_page(std::uint64_t page_no);
  void mark_write_general(std::uint64_t addr, std::uint32_t size, ProducerId producer);

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  PageLookaside<Page> lookaside_;
};

}  // namespace tq::quad
