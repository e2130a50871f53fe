#include "support/address_set.hpp"

#include <bit>

namespace tq {

AddressSet::Bitmap& AddressSet::touch(std::uint64_t page_no) {
  if (Bitmap* cached = lookaside_.find(page_no)) return *cached;
  auto& slot = pages_[page_no];
  if (!slot) slot = std::make_unique<Bitmap>();
  lookaside_.remember(page_no, slot.get());
  return *slot;
}

void AddressSet::insert_range_general(std::uint64_t addr, std::uint32_t size) {
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const std::uint64_t page_no = addr >> kPageBits;
    const std::uint64_t offset = addr & (kPageSize - 1);
    const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
    Bitmap& bm = touch(page_no);
    // Set bits [offset, offset+in_page) word by word.
    std::uint64_t bit = offset;
    std::uint64_t left = in_page;
    while (left > 0) {
      const std::uint64_t word_idx = bit >> 6;
      const std::uint64_t bit_in_word = bit & 63;
      const std::uint64_t span = std::min<std::uint64_t>(left, 64 - bit_in_word);
      const std::uint64_t mask =
          span == 64 ? ~0ull : (((1ull << span) - 1) << bit_in_word);
      add_fresh(bm.words[word_idx], mask, span);
      bit += span;
      left -= span;
    }
    addr += in_page;
    remaining -= in_page;
  }
}

std::uint64_t AddressSet::count_range(std::uint64_t addr,
                                      std::uint64_t size) const noexcept {
  std::uint64_t total = 0;
  std::uint64_t cursor = addr;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    const std::uint64_t page_no = cursor >> kPageBits;
    const std::uint64_t offset = cursor & (kPageSize - 1);
    const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
    auto it = pages_.find(page_no);
    if (it != pages_.end()) {
      std::uint64_t bit = offset;
      std::uint64_t left = in_page;
      while (left > 0) {
        const std::uint64_t word_idx = bit >> 6;
        const std::uint64_t bit_in_word = bit & 63;
        const std::uint64_t span = std::min<std::uint64_t>(left, 64 - bit_in_word);
        const std::uint64_t mask =
            span == 64 ? ~0ull : (((1ull << span) - 1) << bit_in_word);
        total += static_cast<std::uint64_t>(
            std::popcount(it->second->words[word_idx] & mask));
        bit += span;
        left -= span;
      }
    }
    cursor += in_page;
    remaining -= in_page;
  }
  return total;
}

void AddressSet::merge(AddressSet&& other) {
  if (this == &other) return;
  for (auto& [page_no, bitmap] : other.pages_) {
    auto it = pages_.find(page_no);
    if (it == pages_.end()) {
      std::uint64_t pop = 0;
      for (std::size_t w = 0; w < kWordsPerPage; ++w) {
        pop += static_cast<std::uint64_t>(std::popcount(bitmap->words[w]));
      }
      population_ += pop;
      pages_.emplace(page_no, std::move(bitmap));
    } else {
      Bitmap& mine = *it->second;
      for (std::size_t w = 0; w < kWordsPerPage; ++w) {
        const std::uint64_t before = mine.words[w];
        const std::uint64_t after = before | bitmap->words[w];
        population_ += static_cast<std::uint64_t>(std::popcount(after) -
                                                  std::popcount(before));
        mine.words[w] = after;
      }
    }
  }
  other.clear();
}

bool AddressSet::contains(std::uint64_t addr) const noexcept {
  auto it = pages_.find(addr >> kPageBits);
  if (it == pages_.end()) return false;
  const std::uint64_t offset = addr & (kPageSize - 1);
  return (it->second->words[offset >> 6] >> (offset & 63)) & 1;
}

}  // namespace tq
