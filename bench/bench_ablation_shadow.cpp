// Ablation: QUAD's shadow-memory substrate under different access patterns.
//
// DESIGN.md calls out the shadow memory (byte-granular last-producer map)
// as the design choice QUAD's cost hinges on. This bench measures, with
// google-benchmark, the mark/lookup throughput for the access patterns the
// wfs kernels actually exhibit — sequential streaming (wav_store), strided
// scatter (AudioIo frames), small hot working set (fft1d), stack and global
// accesses interleaved (every kernel) — plus the memory footprint of the
// shadow pages and UnMA bitmaps each pattern costs.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "quad/shadow.hpp"
#include "support/address_set.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace tq;

constexpr std::uint64_t kBase = 0x1000'0000;

void BM_ShadowMarkSequential(benchmark::State& state) {
  const std::uint64_t span = static_cast<std::uint64_t>(state.range(0));
  quad::ShadowMemory shadow;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::uint64_t addr = kBase; addr < kBase + span; addr += 8) {
      shadow.mark_write(addr, 8, 1);
    }
    bytes += span;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ShadowMarkSequential)->Arg(1 << 16)->Arg(1 << 20);

void BM_ShadowMarkStrided(benchmark::State& state) {
  const std::uint64_t stride = static_cast<std::uint64_t>(state.range(0));
  quad::ShadowMemory shadow;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 16384; ++i) {
      shadow.mark_write(kBase + i * stride, 4, 2);
    }
    bytes += 16384 * 4;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ShadowMarkStrided)->Arg(64)->Arg(4096);

void BM_ShadowLookupHot(benchmark::State& state) {
  quad::ShadowMemory shadow;
  shadow.mark_write(kBase, 1 << 16, 3);
  SplitMix64 rng(7);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    std::uint64_t local = 0;
    shadow.for_each_producer(kBase + (rng.next_below(1 << 15)), 8,
                             [&](quad::ProducerId p, std::uint32_t len) {
                               local += static_cast<std::uint64_t>(p) * len;
                             });
    sum += local;
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ShadowLookupHot);

void BM_AddressSetInsert(benchmark::State& state) {
  const bool random = state.range(0) != 0;
  SplitMix64 rng(11);
  AddressSet set;
  for (auto _ : state) {
    const std::uint64_t addr =
        random ? kBase + rng.next_below(1 << 22) : kBase + (set.count() % (1 << 22));
    set.insert_range(addr, 8);
  }
  state.counters["resident_pages"] =
      static_cast<double>(set.resident_pages());
}
BENCHMARK(BM_AddressSetInsert)->Arg(0)->Arg(1);

// Stack and global accesses alternating between two pages, the pattern of
// almost every wfs kernel: a one-entry "last page" cache misses on every
// access here, while the page lookaside keeps both pages. Informational.
constexpr std::uint64_t kStackPage = 0x7fff'ffff'e000;

void BM_ShadowMarkInterleaved(benchmark::State& state) {
  quad::ShadowMemory shadow;
  SplitMix64 rng(5);
  std::uint64_t i = rng.next_below(64);
  for (auto _ : state) {
    const std::uint64_t offset = (i * 8) & 4095;
    shadow.mark_write(kStackPage + offset, 8, 1);
    shadow.mark_write(kBase + offset, 8, 2);
    ++i;
  }
  benchmark::DoNotOptimize(shadow.resident_pages());
}
BENCHMARK(BM_ShadowMarkInterleaved);

void BM_ShadowVisitInterleaved(benchmark::State& state) {
  quad::ShadowMemory shadow;
  shadow.mark_write(kStackPage, 4096, 1);
  shadow.mark_write(kBase, 4096, 2);
  SplitMix64 rng(6);
  std::uint64_t i = rng.next_below(64);
  std::uint64_t sum = 0;
  const auto visit = [&](quad::ProducerId p, std::uint32_t len) {
    sum += static_cast<std::uint64_t>(p) * len;
  };
  for (auto _ : state) {
    const std::uint64_t offset = (i * 8) & 4095;
    shadow.for_each_producer(kStackPage + offset, 8, visit);
    shadow.for_each_producer(kBase + offset, 8, visit);
    ++i;
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ShadowVisitInterleaved);

void BM_AddressSetInsertInterleaved(benchmark::State& state) {
  AddressSet set;
  SplitMix64 rng(7);
  std::uint64_t i = rng.next_below(64);
  for (auto _ : state) {
    const std::uint64_t offset = (i * 8) & 4095;
    set.insert_range(kStackPage + offset, 8);
    set.insert_range(kBase + offset, 8);
    ++i;
  }
  benchmark::DoNotOptimize(set.count());
}
BENCHMARK(BM_AddressSetInsertInterleaved);

void print_footprints() {
  std::printf("\n== shadow footprint per access pattern (16 MiB address span) ==\n");
  TextTable table({"pattern", "bytes touched", "shadow bytes", "unma bytes",
                   "overhead factor"});
  struct Pattern {
    const char* name;
    std::uint64_t count;
    std::uint64_t stride;
    std::uint32_t size;
  };
  const Pattern patterns[] = {
      {"sequential stream", 1u << 20, 8, 8},
      {"strided scatter (64B)", 1u << 17, 64, 4},
      {"page scatter (4KiB)", 1u << 12, 4096, 4},
      {"hot 4KiB set", 1u << 20, 8, 8},
  };
  for (const auto& pattern : patterns) {
    quad::ShadowMemory shadow;
    AddressSet unma;
    std::uint64_t touched = 0;
    for (std::uint64_t i = 0; i < pattern.count; ++i) {
      const std::uint64_t addr =
          pattern.name[0] == 'h'
              ? kBase + (i * pattern.stride) % 4096  // hot set wraps in a page
              : kBase + i * pattern.stride;
      shadow.mark_write(addr, pattern.size, 1);
      unma.insert_range(addr, pattern.size);
      touched += pattern.size;
    }
    const std::uint64_t shadow_bytes = shadow.resident_bytes();
    const std::uint64_t unma_bytes = unma.resident_pages() * 512;
    table.add_row({pattern.name, format_bytes(touched), format_bytes(shadow_bytes),
                   format_bytes(unma_bytes),
                   format_fixed(static_cast<double>(shadow_bytes + unma_bytes) /
                                    static_cast<double>(unma.count()),
                                2)});
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nreading: the paged design keeps dense patterns at ~2.1 bytes of\n"
              "shadow per distinct byte (2B producer id + bitmap bit); sparse page\n"
              "scatter pays a whole 8 KiB shadow page per touched location — the\n"
              "worst case for QUAD, and exactly the pattern AudioIo_setFrames'\n"
              "output exhibits at full scale.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_footprints();
  return 0;
}
