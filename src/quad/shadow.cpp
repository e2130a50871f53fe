#include "quad/shadow.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace tq::quad {

ShadowMemory::Page& ShadowMemory::touch_page(std::uint64_t page_no) {
  if (Page* cached = lookaside_.find(page_no)) return *cached;
  auto& slot = pages_[page_no];
  if (!slot) {
    slot = std::make_unique<Page>();
    std::fill(std::begin(slot->producers), std::end(slot->producers), kNoProducer);
  }
  lookaside_.remember(page_no, slot.get());
  return *slot;
}

void ShadowMemory::mark_write_general(std::uint64_t addr, std::uint32_t size,
                                      ProducerId producer) {
  std::uint64_t cursor = addr;
  std::uint64_t remaining = size;
  while (remaining > 0) {
    Page& page = touch_page(cursor >> kPageBits);
    const std::uint64_t offset = cursor & (kPageSize - 1);
    const std::uint64_t in_page = std::min<std::uint64_t>(remaining, kPageSize - offset);
    std::fill(page.producers + offset, page.producers + offset + in_page, producer);
    cursor += in_page;
    remaining -= in_page;
  }
}

void ShadowMemory::adopt_disjoint(ShadowMemory&& other) {
  if (this == &other) return;
  for (auto& [page_no, page] : other.pages_) {
    const bool inserted = pages_.emplace(page_no, std::move(page)).second;
    TQUAD_CHECK(inserted, "shadow shards overlap: page owned by two shards");
  }
  other.pages_.clear();
  other.lookaside_.reset();
}

ProducerId ShadowMemory::producer_of(std::uint64_t addr) const noexcept {
  const Page* page = find_page(addr >> kPageBits);
  if (page == nullptr) return kNoProducer;
  return page->producers[addr & (kPageSize - 1)];
}

}  // namespace tq::quad
