// Unique-memory-address (UnMA) tracking.
//
// QUAD and tQUAD report the number of *distinct* byte addresses a kernel has
// read or written. Addresses cluster heavily (buffers, stack frames), so the
// set is stored as one bitmap per touched 4 KiB page: ~0.5 KiB of bitmap per
// resident page, with popcounts cached so `count()` stays O(1).
//
// The pages live in a hash map; a small PageLookaside in front of it holds
// the recently touched pages, so an insert that falls in one 64-bit bitmap
// word of a cached page is a mask and an OR done inline, with no hash
// lookup. Everything else takes the general out-of-line loop.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "support/page_lookaside.hpp"
#include "support/paged_memory.hpp"

namespace tq {

/// A set of 64-bit byte addresses, optimised for dense clusters.
class AddressSet {
 public:
  static constexpr std::uint64_t kPageBits = PagedMemory::kPageBits;
  static constexpr std::uint64_t kPageSize = PagedMemory::kPageSize;
  static constexpr std::size_t kWordsPerPage = kPageSize / 64;

  AddressSet() = default;
  AddressSet(const AddressSet&) = delete;
  AddressSet& operator=(const AddressSet&) = delete;
  /// Moves leave `other` empty; its lookaside must not keep pointing at the
  /// pages that now belong to this set.
  AddressSet(AddressSet&& other) noexcept { *this = std::move(other); }
  AddressSet& operator=(AddressSet&& other) noexcept {
    if (this != &other) {
      pages_ = std::move(other.pages_);
      population_ = other.population_;
      lookaside_ = other.lookaside_;
      other.clear();
    }
    return *this;
  }

  /// Mark the byte range [addr, addr+size) as present.
  void insert_range(std::uint64_t addr, std::uint32_t size) {
    const std::uint64_t bit = addr & (kPageSize - 1);
    const std::uint64_t shift = bit & 63;
    // size - 1 wraps for size 0, which the general loop handles.
    if (size - 1u < 64 - shift) {
      if (Bitmap* bm = lookaside_.find(addr >> kPageBits)) {
        add_fresh(bm->words[bit >> 6], (~0ull >> (64 - size)) << shift, size);
        return;
      }
    }
    insert_range_general(addr, size);
  }

  /// True if the single byte address is present.
  bool contains(std::uint64_t addr) const noexcept;

  /// Number of distinct byte addresses inserted so far.
  std::uint64_t count() const noexcept { return population_; }

  /// Number of distinct addresses inside [addr, addr+size) — the ranged
  /// popcount behind buffer-coverage reports.
  std::uint64_t count_range(std::uint64_t addr, std::uint64_t size) const noexcept;

  /// Fold `other` into this set (set union) and leave `other` empty. Pages
  /// absent here are adopted wholesale; overlapping pages are OR-merged with
  /// the population recomputed per word. Safe for arbitrary overlap, O(1)
  /// per disjoint page.
  void merge(AddressSet&& other);

  /// Number of resident bitmap pages (memory-footprint diagnostics).
  std::size_t resident_pages() const noexcept { return pages_.size(); }
  std::size_t resident_bytes() const noexcept {
    return pages_.size() * sizeof(Bitmap);
  }

  void clear() noexcept {
    pages_.clear();
    population_ = 0;
    lookaside_.reset();
  }

 private:
  struct Bitmap {
    std::uint64_t words[kWordsPerPage] = {};
  };

  /// Set the `bits` bits of `mask` in `word`, counting the ones not yet
  /// present. Re-inserts (nothing fresh) and wholly new ranges skip the
  /// popcount, which is a library call when the build has no POPCNT.
  void add_fresh(std::uint64_t& word, std::uint64_t mask, std::uint64_t bits) {
    const std::uint64_t fresh = mask & ~word;
    if (fresh == 0) return;
    population_ += fresh == mask ? bits : static_cast<std::uint64_t>(std::popcount(fresh));
    word |= fresh;
  }
  void insert_range_general(std::uint64_t addr, std::uint32_t size);
  Bitmap& touch(std::uint64_t page_no);

  std::unordered_map<std::uint64_t, std::unique_ptr<Bitmap>> pages_;
  std::uint64_t population_ = 0;
  PageLookaside<Bitmap> lookaside_;
};

}  // namespace tq
