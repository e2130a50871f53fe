// Direct-mapped page lookaside for the page-keyed hash stores.
//
// AddressSet and quad::ShadowMemory keep their pages in an
// unordered_map<page_no, unique_ptr<Page>>. A hash lookup per access is
// the dominant cost of QUAD's accounting, yet a whole run touches only a few
// hundred pages and the accesses in a stretch of the run fall on a handful
// of them (a stack page or two plus the buffers being streamed). Stack and
// global accesses alternate, so a single "last page" entry misses about
// every other access; a few slots indexed by the low page bits keep both.
//
// The lookaside never owns anything: each slot remembers a page number and
// the heap page the owning map holds for it. unique_ptr targets do not move
// when the map rehashes, so a slot stays valid until its page is destroyed
// or handed to another owner. The owner must therefore call reset() whenever
// it clears its map, moves it away, or gives pages to another store.
//
// Any 64-bit key other than the all-ones empty tag works the same way over
// any node-stable map; QuadTool keys its binding-edge cache by
// (consumer << 32 | producer) over a std::map.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tq {

template <typename Page>
class PageLookaside {
 public:
  static constexpr std::size_t kSlots = 16;

  /// The page cached for `page_no`, or nullptr on a miss.
  Page* find(std::uint64_t page_no) const noexcept {
    const Slot& slot = slots_[page_no & (kSlots - 1)];
    return slot.page_no == page_no ? slot.page : nullptr;
  }

  /// Cache `page` for `page_no`, evicting whatever shared its slot.
  void remember(std::uint64_t page_no, Page* page) noexcept {
    slots_[page_no & (kSlots - 1)] = Slot{page_no, page};
  }

  /// Forget every slot.
  void reset() noexcept {
    for (Slot& slot : slots_) slot = Slot{};
  }

 private:
  /// Page numbers are addresses shifted right by the page bits, so they stay
  /// below 2^52 and never equal the all-ones tag of an empty slot.
  static constexpr std::uint64_t kEmpty = ~0ull;

  struct Slot {
    std::uint64_t page_no = kEmpty;
    Page* page = nullptr;
  };
  Slot slots_[kSlots];
};

}  // namespace tq
