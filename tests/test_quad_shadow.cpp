#include <gtest/gtest.h>

#include <vector>

#include "quad/shadow.hpp"

namespace tq::quad {
namespace {

TEST(ShadowMemory, UnwrittenBytesHaveNoProducer) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.producer_of(0), kNoProducer);
  EXPECT_EQ(shadow.producer_of(0x12345678), kNoProducer);
  EXPECT_EQ(shadow.resident_pages(), 0u);
}

TEST(ShadowMemory, MarkAndQuery) {
  ShadowMemory shadow;
  shadow.mark_write(100, 8, 7);
  for (std::uint64_t a = 100; a < 108; ++a) EXPECT_EQ(shadow.producer_of(a), 7);
  EXPECT_EQ(shadow.producer_of(99), kNoProducer);
  EXPECT_EQ(shadow.producer_of(108), kNoProducer);
}

TEST(ShadowMemory, LastWriterWins) {
  ShadowMemory shadow;
  shadow.mark_write(100, 8, 1);
  shadow.mark_write(104, 8, 2);
  EXPECT_EQ(shadow.producer_of(100), 1);
  EXPECT_EQ(shadow.producer_of(103), 1);
  EXPECT_EQ(shadow.producer_of(104), 2);
  EXPECT_EQ(shadow.producer_of(111), 2);
}

TEST(ShadowMemory, CrossPageMark) {
  ShadowMemory shadow;
  const std::uint64_t addr = ShadowMemory::kPageSize - 3;
  shadow.mark_write(addr, 6, 9);
  for (std::uint64_t a = addr; a < addr + 6; ++a) EXPECT_EQ(shadow.producer_of(a), 9);
  EXPECT_EQ(shadow.resident_pages(), 2u);
}

struct Run {
  ProducerId producer;
  std::uint32_t length;
};

std::vector<Run> collect_runs(ShadowMemory& shadow, std::uint64_t addr,
                              std::uint32_t size) {
  std::vector<Run> runs;
  shadow.for_each_producer(addr, size, [&](ProducerId p, std::uint32_t len) {
    runs.push_back(Run{p, len});
  });
  return runs;
}

TEST(ShadowMemory, VisitorCoalescesRuns) {
  ShadowMemory shadow;
  shadow.mark_write(200, 4, 1);
  shadow.mark_write(204, 4, 2);
  const auto runs = collect_runs(shadow, 200, 8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].producer, 1);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].producer, 2);
  EXPECT_EQ(runs[1].length, 4u);
}

TEST(ShadowMemory, VisitorCoversUnwrittenGaps) {
  ShadowMemory shadow;
  shadow.mark_write(300, 2, 5);
  const auto runs = collect_runs(shadow, 298, 8);
  // none(2), 5(2), none(4)
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].producer, kNoProducer);
  EXPECT_EQ(runs[0].length, 2u);
  EXPECT_EQ(runs[1].producer, 5);
  EXPECT_EQ(runs[1].length, 2u);
  EXPECT_EQ(runs[2].producer, kNoProducer);
  EXPECT_EQ(runs[2].length, 4u);
}

TEST(ShadowMemory, VisitorTotalLengthAlwaysMatches) {
  ShadowMemory shadow;
  shadow.mark_write(ShadowMemory::kPageSize - 10, 20, 3);
  std::uint32_t total = 0;
  shadow.for_each_producer(ShadowMemory::kPageSize - 30, 64,
                           [&](ProducerId, std::uint32_t len) { total += len; });
  EXPECT_EQ(total, 64u);
}

TEST(ShadowMemory, VisitorOnEmptyPageSingleRun) {
  ShadowMemory shadow;
  const auto runs = collect_runs(shadow, 5000, 16);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].producer, kNoProducer);
  EXPECT_EQ(runs[0].length, 16u);
}

// ---- page lookaside ---------------------------------------------------------

constexpr std::uint64_t kPage = ShadowMemory::kPageSize;
constexpr std::uint64_t kSlots = PageLookaside<int>::kSlots;

TEST(ShadowLookaside, AdoptSourceIsReusable) {
  ShadowMemory shard0;
  ShadowMemory shard1;
  shard0.mark_write(0x1000, 8, 1);
  shard1.mark_write(0x2000, 8, 2);
  shard1.mark_write(0x2008, 8, 2);  // cached page, inline path
  shard0.adopt_disjoint(std::move(shard1));
  EXPECT_EQ(shard0.resident_pages(), 2u);
  EXPECT_EQ(shard1.resident_pages(), 0u);
  // The adopted page belongs to shard0 now: a new write through the old
  // owner must build a fresh page and leave shard0's untouched.
  shard1.mark_write(0x2000, 4, 3);
  EXPECT_EQ(shard1.producer_of(0x2000), 3);
  EXPECT_EQ(shard1.producer_of(0x2008), kNoProducer);
  EXPECT_EQ(shard0.producer_of(0x2000), 2);
  const auto runs = collect_runs(shard1, 0x2000, 8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].producer, 3);
  EXPECT_EQ(runs[1].producer, kNoProducer);
  // And shard0 reaches the adopted page.
  shard0.mark_write(0x2010, 4, 1);
  EXPECT_EQ(shard0.producer_of(0x2010), 1);
  EXPECT_EQ(collect_runs(shard0, 0x2008, 12).size(), 2u);
}

TEST(ShadowLookaside, VisitBeforeWriteThenWrite) {
  // A visit of an absent page must not cache anything a later write (or an
  // adopted page) would contradict.
  ShadowMemory shadow;
  EXPECT_EQ(collect_runs(shadow, 0x3000, 8)[0].producer, kNoProducer);
  shadow.mark_write(0x3000, 8, 4);
  const auto runs = collect_runs(shadow, 0x3000, 8);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].producer, 4);
  ShadowMemory other;
  other.mark_write(0x4000, 8, 5);
  EXPECT_EQ(collect_runs(shadow, 0x4000, 8)[0].producer, kNoProducer);
  shadow.adopt_disjoint(std::move(other));
  EXPECT_EQ(collect_runs(shadow, 0x4000, 8)[0].producer, 5);
}

TEST(ShadowLookaside, FirstAccessToPageZero) {
  ShadowMemory shadow;
  shadow.mark_write(0, 2, 6);
  EXPECT_EQ(shadow.producer_of(0), 6);
  EXPECT_EQ(shadow.producer_of(1), 6);
  EXPECT_EQ(shadow.producer_of(2), kNoProducer);
  EXPECT_EQ(shadow.resident_pages(), 1u);
}

TEST(ShadowLookaside, AliasingPagesKeepSeparateProducers) {
  ShadowMemory shadow;
  const std::uint64_t pages[] = {7 * kPage, (7 + kSlots) * kPage,
                                 (7 + 3 * kSlots) * kPage};
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      shadow.mark_write(pages[i] + 8 * round, 8,
                        static_cast<ProducerId>(10 * i + round));
    }
  }
  EXPECT_EQ(shadow.resident_pages(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto runs = collect_runs(shadow, pages[i], 32);
    ASSERT_EQ(runs.size(), 4u) << i;
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(runs[round].producer, 10 * i + round);
      EXPECT_EQ(runs[round].length, 8u);
    }
    EXPECT_EQ(runs[3].producer, kNoProducer);
  }
}

TEST(ShadowLookaside, MorePagesThanSlots) {
  ShadowMemory shadow;
  const std::uint64_t pages = 4 * kSlots + 1;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t p = 0; p < pages; ++p) {
      shadow.mark_write(p * kPage + 64, 8, static_cast<ProducerId>(p + pass));
    }
  }
  EXPECT_EQ(shadow.resident_pages(), pages);
  for (std::uint64_t p = 0; p < pages; ++p) {
    const auto runs = collect_runs(shadow, p * kPage + 60, 16);
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[1].producer, p + 1);
    EXPECT_EQ(runs[1].length, 8u);
  }
}

TEST(ShadowLookaside, WordAndPageStraddlingMarks) {
  ShadowMemory shadow;
  shadow.mark_write(0x5000, 1, 1);        // cache the page
  shadow.mark_write(0x503c, 8, 2);        // crosses a 64-byte line
  shadow.mark_write(0x6000 - 3, 6, 3);    // crosses into the next page
  EXPECT_EQ(shadow.producer_of(0x503b), kNoProducer);
  EXPECT_EQ(shadow.producer_of(0x503c), 2);
  EXPECT_EQ(shadow.producer_of(0x5043), 2);
  EXPECT_EQ(shadow.producer_of(0x5ffd), 3);
  EXPECT_EQ(shadow.producer_of(0x6002), 3);
  EXPECT_EQ(shadow.producer_of(0x6003), kNoProducer);
  const auto runs = collect_runs(shadow, 0x5ffc, 8);
  ASSERT_EQ(runs.size(), 4u);  // none | 3 | 3 (next page) | none
  EXPECT_EQ(runs[0].producer, kNoProducer);
  EXPECT_EQ(runs[1].length, 3u);
  EXPECT_EQ(runs[2].producer, 3);
  EXPECT_EQ(runs[2].length, 3u);
  EXPECT_EQ(runs[3].length, 1u);
}

TEST(ShadowLookaside, TopPageOfTheAddressSpace) {
  ShadowMemory shadow;
  shadow.mark_write(~0ull - 7, 8, 8);
  shadow.mark_write(~0ull - 3, 4, 9);  // inline path on the cached top page
  EXPECT_EQ(shadow.producer_of(~0ull - 7), 8);
  EXPECT_EQ(shadow.producer_of(~0ull), 9);
  EXPECT_EQ(shadow.resident_pages(), 1u);
  const auto runs = collect_runs(shadow, ~0ull - 7, 8);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].producer, 8);
  EXPECT_EQ(runs[1].producer, 9);
}

}  // namespace
}  // namespace tq::quad
