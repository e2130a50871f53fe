#include <gtest/gtest.h>

#include <set>

#include "support/address_set.hpp"
#include "support/rng.hpp"

namespace tq {
namespace {

TEST(AddressSet, EmptySet) {
  AddressSet set;
  EXPECT_EQ(set.count(), 0u);
  EXPECT_FALSE(set.contains(0));
  EXPECT_EQ(set.resident_pages(), 0u);
}

TEST(AddressSet, SingleBytes) {
  AddressSet set;
  set.insert_range(100, 1);
  set.insert_range(102, 1);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_TRUE(set.contains(100));
  EXPECT_FALSE(set.contains(101));
  EXPECT_TRUE(set.contains(102));
}

TEST(AddressSet, RangeInsertCountsDistinctBytes) {
  AddressSet set;
  set.insert_range(1000, 8);
  EXPECT_EQ(set.count(), 8u);
  // Overlapping insert adds only the new bytes.
  set.insert_range(1004, 8);
  EXPECT_EQ(set.count(), 12u);
  // Fully covered insert adds nothing.
  set.insert_range(1000, 12);
  EXPECT_EQ(set.count(), 12u);
}

TEST(AddressSet, IdempotentInserts) {
  AddressSet set;
  for (int i = 0; i < 10; ++i) set.insert_range(0x4000, 4);
  EXPECT_EQ(set.count(), 4u);
}

TEST(AddressSet, CrossesPageBoundary) {
  AddressSet set;
  const std::uint64_t addr = AddressSet::kPageSize - 2;
  set.insert_range(addr, 5);
  EXPECT_EQ(set.count(), 5u);
  EXPECT_TRUE(set.contains(addr));
  EXPECT_TRUE(set.contains(addr + 4));
  EXPECT_FALSE(set.contains(addr + 5));
  EXPECT_EQ(set.resident_pages(), 2u);
}

TEST(AddressSet, CrossesWordBoundaryWithinPage) {
  AddressSet set;
  set.insert_range(60, 10);  // bits 60..69 straddle the first 64-bit word
  EXPECT_EQ(set.count(), 10u);
  for (std::uint64_t a = 60; a < 70; ++a) EXPECT_TRUE(set.contains(a));
  EXPECT_FALSE(set.contains(59));
  EXPECT_FALSE(set.contains(70));
}

TEST(AddressSet, LargeRange) {
  AddressSet set;
  set.insert_range(0, 3 * AddressSet::kPageSize);
  EXPECT_EQ(set.count(), 3 * AddressSet::kPageSize);
}

TEST(AddressSet, ClearResets) {
  AddressSet set;
  set.insert_range(10, 100);
  set.clear();
  EXPECT_EQ(set.count(), 0u);
  EXPECT_FALSE(set.contains(10));
}

// ---- page lookaside ---------------------------------------------------------
// The lookaside caches raw page pointers in front of the page map; these
// cases reuse a set after every operation that hands its pages away or drops
// them, and drive the cache through slot collisions and evictions.

constexpr std::uint64_t kPage = AddressSet::kPageSize;
constexpr std::uint64_t kSlots = PageLookaside<int>::kSlots;

TEST(AddressSetLookaside, ReusableAfterMoveConstruction) {
  AddressSet source;
  source.insert_range(0x1000, 8);
  AddressSet moved(std::move(source));
  EXPECT_EQ(moved.count(), 8u);
  // The moved-from set is empty; re-inserting into the same page must build
  // a page of its own rather than write through to `moved`'s bitmap.
  EXPECT_EQ(source.count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.resident_pages(), 0u);
  source.insert_range(0x1004, 8);
  EXPECT_EQ(source.count(), 8u);
  EXPECT_FALSE(source.contains(0x1000));
  EXPECT_EQ(moved.count(), 8u);
  EXPECT_FALSE(moved.contains(0x100b));
  // The destination keeps using the pages (and cache) it took over.
  moved.insert_range(0x1008, 4);
  EXPECT_EQ(moved.count(), 12u);
}

TEST(AddressSetLookaside, ReusableAfterMoveAssignment) {
  AddressSet source;
  source.insert_range(0x2000, 16);
  AddressSet target;
  target.insert_range(0x9000, 4);  // dropped by the assignment
  target = std::move(source);
  EXPECT_EQ(target.count(), 16u);
  EXPECT_FALSE(target.contains(0x9000));
  source.insert_range(0x2000, 16);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.count(), 16u);
  EXPECT_EQ(target.count(), 16u);
  target.insert_range(0x9000, 4);
  EXPECT_EQ(target.count(), 20u);
  EXPECT_EQ(source.count(), 16u);
}

TEST(AddressSetLookaside, ReusableAfterClear) {
  AddressSet set;
  set.insert_range(0x3000, 8);
  set.clear();
  set.insert_range(0x3000, 8);
  EXPECT_EQ(set.count(), 8u);
  EXPECT_EQ(set.resident_pages(), 1u);
  EXPECT_TRUE(set.contains(0x3007));
}

TEST(AddressSetLookaside, MergeSourceIsReusable) {
  AddressSet into;
  AddressSet from;
  from.insert_range(0x4000, 8);          // page adopted wholesale
  into.insert_range(0x5000, 8);
  from.insert_range(0x5004, 8);          // page OR-merged
  into.merge(std::move(from));
  EXPECT_EQ(into.count(), 20u);
  EXPECT_EQ(from.count(), 0u);
  // The adopted page now belongs to `into`; `from` must not reach it.
  from.insert_range(0x4010, 8);
  EXPECT_EQ(from.count(), 8u);
  EXPECT_FALSE(into.contains(0x4010));
  EXPECT_EQ(into.count(), 20u);
  // And `into` sees the adopted page through its own path.
  into.insert_range(0x4008, 8);
  EXPECT_EQ(into.count(), 28u);
}

TEST(AddressSetLookaside, FirstAccessToPageZero) {
  AddressSet set;
  set.insert_range(0, 1);
  EXPECT_EQ(set.count(), 1u);
  EXPECT_TRUE(set.contains(0));
  EXPECT_EQ(set.resident_pages(), 1u);
}

TEST(AddressSetLookaside, AliasingPagesKeepSeparateBitmaps) {
  // Pages kSlots apart share one lookaside slot; each must still land in its
  // own bitmap as the slot flips between them.
  AddressSet set;
  const std::uint64_t a = 3 * kPage;
  const std::uint64_t b = (3 + kSlots) * kPage;
  const std::uint64_t c = (3 + 2 * kSlots) * kPage;
  for (int round = 0; round < 3; ++round) {
    set.insert_range(a + 8 * round, 8);
    set.insert_range(b + 8 * round, 8);
    set.insert_range(c + 8 * round, 8);
  }
  EXPECT_EQ(set.count(), 72u);
  EXPECT_EQ(set.resident_pages(), 3u);
  EXPECT_EQ(set.count_range(a, kPage), 24u);
  EXPECT_EQ(set.count_range(b, kPage), 24u);
  EXPECT_EQ(set.count_range(c, kPage), 24u);
}

TEST(AddressSetLookaside, MorePagesThanSlots) {
  AddressSet set;
  std::set<std::uint64_t> model;
  const std::uint64_t pages = 4 * kSlots + 3;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      const std::uint64_t addr = p * kPage + 5 * static_cast<std::uint64_t>(pass);
      set.insert_range(addr, 7);
      for (std::uint64_t x = addr; x < addr + 7; ++x) model.insert(x);
    }
  }
  EXPECT_EQ(set.count(), model.size());
  EXPECT_EQ(set.resident_pages(), pages);
  for (std::uint64_t addr : model) ASSERT_TRUE(set.contains(addr)) << addr;
}

TEST(AddressSetLookaside, AlignedWholeWordInsert) {
  AddressSet set;
  set.insert_range(0x6000, 1);  // make the page resident and cached
  set.insert_range(0x6040, 64);
  EXPECT_EQ(set.count(), 65u);
  EXPECT_FALSE(set.contains(0x603f));
  EXPECT_TRUE(set.contains(0x6040));
  EXPECT_TRUE(set.contains(0x607f));
  EXPECT_FALSE(set.contains(0x6080));
  set.insert_range(0x6040, 64);  // fully covered: adds nothing
  EXPECT_EQ(set.count(), 65u);
  set.insert_range(0x6000, 64);
  EXPECT_EQ(set.count(), 128u);
}

TEST(AddressSetLookaside, StraddlesWordAndPageOnCachedPage) {
  AddressSet set;
  set.insert_range(0x7000, 1);
  set.insert_range(0x7038, 16);  // word 0 -> word 1 of a cached page
  EXPECT_EQ(set.count(), 17u);
  EXPECT_EQ(set.count_range(0x7038, 16), 16u);
  set.insert_range(0x8000 - 4, 8);  // cached page -> next page
  EXPECT_EQ(set.count(), 25u);
  EXPECT_EQ(set.resident_pages(), 2u);
  EXPECT_TRUE(set.contains(0x8003));
  EXPECT_FALSE(set.contains(0x8004));
}

TEST(AddressSetLookaside, TopPageOfTheAddressSpace) {
  // The last page's number is 2^52 - 1, whose low bits match the empty-slot
  // tag's; it must still miss on a fresh set and hit afterwards.
  AddressSet set;
  const std::uint64_t top = ~0ull - kPage + 1;
  set.insert_range(~0ull - 3, 4);
  EXPECT_EQ(set.count(), 4u);
  EXPECT_TRUE(set.contains(~0ull));
  set.insert_range(top, 8);
  set.insert_range(~0ull - 7, 8);
  EXPECT_EQ(set.count(), 16u);
  EXPECT_EQ(set.resident_pages(), 1u);
  EXPECT_EQ(set.count_range(top, kPage), 16u);
}

/// Property: matches a std::set<uint64> reference under random ranges.
class AddressSetRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AddressSetRandomized, MatchesReferenceSet) {
  SplitMix64 rng(GetParam());
  AddressSet set;
  std::set<std::uint64_t> model;
  for (int op = 0; op < 600; ++op) {
    const std::uint64_t addr = rng.next_below(1 << 14);
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.next_below(100));
    set.insert_range(addr, size);
    for (std::uint64_t a = addr; a < addr + size; ++a) model.insert(a);
    ASSERT_EQ(set.count(), model.size());
  }
  // Spot-check membership.
  for (int probe = 0; probe < 500; ++probe) {
    const std::uint64_t addr = rng.next_below(1 << 14);
    EXPECT_EQ(set.contains(addr), model.contains(addr)) << addr;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressSetRandomized,
                         ::testing::Values(7, 21, 42, 1001));

}  // namespace
}  // namespace tq
