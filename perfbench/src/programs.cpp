#include "programs.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "stats.hpp"
#include "wfs/golden.hpp"
#include "wfs/wfs_program.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace {

using tq::PagedMemory;
using tq::vm::Cpu;

std::string mismatch(const std::string& what, std::uint64_t index,
                     double got, double want) {
  return what + "[" + std::to_string(index) + "]: got " + std::to_string(got) +
         ", want " + std::to_string(want);
}

std::string check_u64(const PagedMemory& memory, const std::string& what,
                      std::uint64_t addr, const std::vector<std::uint64_t>& want) {
  for (std::uint64_t i = 0; i < want.size(); ++i) {
    const std::uint64_t got = memory.load(addr + 8 * i, 8);
    if (got != want[i]) {
      return mismatch(what, i, static_cast<double>(got),
                      static_cast<double>(want[i]));
    }
  }
  return {};
}

std::string check_f64(const PagedMemory& memory, const std::string& what,
                      std::uint64_t addr, const std::vector<double>& want) {
  for (std::uint64_t i = 0; i < want.size(); ++i) {
    const double got = memory.load_f64(addr + 8 * i);
    if (got != want[i]) return mismatch(what, i, got, want[i]);
  }
  return {};
}

/// The deterministic wfs test signal with seeded noise mixed in, so each
/// seed gives the guest different samples to filter.
tq::wfs::WavData seeded_signal(const tq::wfs::WfsConfig& cfg, std::uint64_t seed) {
  tq::wfs::WavData wav = tq::wfs::make_test_signal(
      cfg.input_samples(), static_cast<std::uint32_t>(cfg.sample_rate));
  tq::SplitMix64 rng(seed);
  for (std::int16_t& sample : wav.samples) {
    const int noisy = sample + static_cast<int>(rng.next_below(4097)) - 2048;
    sample = static_cast<std::int16_t>(std::clamp(noisy, -32768, 32767));
  }
  return wav;
}

GuestProgram make_wfs(const std::string& name, const tq::wfs::WfsConfig& cfg,
                      std::uint64_t seed, SetupTimes& times) {
  GuestProgram out;
  out.name = name;
  out.wfs = cfg;
  auto start = Clock::now();
  out.program = tq::wfs::build_wfs_program(cfg).program;
  times.build_s += seconds_since(start);
  start = Clock::now();
  out.signal = seeded_signal(cfg, seed);
  out.input_wav = tq::wfs::wav_encode(out.signal);
  times.input_s += seconds_since(start);
  return out;
}

// ---- zoo members at the registry's bench scale ------------------------------

GuestProgram make_stream() {
  constexpr std::uint32_t kElements = 4096, kIterations = 4;
  tq::workloads::StreamArtifacts art = tq::workloads::build_stream(kElements, kIterations);
  GuestProgram out;
  out.name = "stream";
  out.program = std::move(art.program);
  out.check_state = [art = std::move(art)](const PagedMemory& memory,
                                           const Cpu&) -> std::string {
    std::vector<double> a(kElements, 2.0), b(kElements, 0.5), c(kElements, 0.0);
    for (std::uint32_t iter = 0; iter < kIterations; ++iter) {
      c = a;
      for (std::uint32_t i = 0; i < kElements; ++i) b[i] = art.scalar * c[i];
      for (std::uint32_t i = 0; i < kElements; ++i) c[i] = a[i] + b[i];
      for (std::uint32_t i = 0; i < kElements; ++i) a[i] = b[i] + art.scalar * c[i];
    }
    std::string err = check_f64(memory, "a", art.a_addr, a);
    if (err.empty()) err = check_f64(memory, "b", art.b_addr, b);
    if (err.empty()) err = check_f64(memory, "c", art.c_addr, c);
    return err;
  };
  return out;
}

GuestProgram make_matmul(bool tiled) {
  constexpr std::uint32_t kN = 48, kTile = 8;
  tq::workloads::MatmulArtifacts art = tq::workloads::build_matmul(kN, tiled, kTile);
  GuestProgram out;
  out.name = tiled ? "matmul_tiled" : "matmul_naive";
  out.program = std::move(art.program);
  out.check_state = [c_addr = art.c_addr](const PagedMemory& memory,
                                          const Cpu&) -> std::string {
    return check_f64(memory, "C", c_addr, tq::workloads::matmul_reference(kN));
  };
  return out;
}

GuestProgram make_chase(std::uint64_t seed) {
  tq::workloads::ChaseArtifacts art = tq::workloads::build_chase(4096, 100'000, seed);
  GuestProgram out;
  out.name = "chase";
  out.program = std::move(art.program);
  out.check_state = [nodes_addr = art.nodes_addr, want = art.expected_final](
                        const PagedMemory&, const Cpu& cpu) -> std::string {
    const std::uint64_t got = (cpu.regs[1] - nodes_addr) / 8;
    if (got != want) {
      return mismatch("final node", 0, static_cast<double>(got),
                      static_cast<double>(want));
    }
    return {};
  };
  return out;
}

GuestProgram make_histogram(std::uint64_t seed) {
  tq::workloads::HistogramArtifacts art =
      tq::workloads::build_histogram(1024, 100'000, seed);
  GuestProgram out;
  out.name = "histogram";
  out.program = std::move(art.program);
  out.check_state = [addr = art.buckets_addr, want = std::move(art.expected)](
                        const PagedMemory& memory, const Cpu&) {
    return check_u64(memory, "bucket", addr, want);
  };
  return out;
}

GuestProgram make_hashjoin(std::uint64_t seed) {
  tq::workloads::HashJoinArtifacts art =
      tq::workloads::build_hashjoin(4096, 8192, seed);
  GuestProgram out;
  out.name = "hashjoin";
  out.program = std::move(art.program);
  out.check_state = [addr = art.result_addr,
                     want = std::vector<std::uint64_t>{art.expected_sum,
                                                       art.expected_matches}](
                        const PagedMemory& memory, const Cpu&) {
    return check_u64(memory, "sum,matches", addr, want);
  };
  return out;
}

GuestProgram make_phased(std::uint64_t seed) {
  using tq::workloads::PhasedArtifacts;
  auto art = std::make_shared<PhasedArtifacts>(
      tq::workloads::build_phased(1024, 8, seed));
  GuestProgram out;
  out.name = "phased";
  out.program = std::move(art->program);
  out.check_state = [art](const PagedMemory& memory, const Cpu&) -> std::string {
    static const char* kNames[PhasedArtifacts::kPhases] = {"A", "B", "C", "D"};
    for (std::uint32_t p = 0; p < PhasedArtifacts::kPhases; ++p) {
      std::string err =
          check_u64(memory, kNames[p], art->buffer_addr[p], art->expected[p]);
      if (!err.empty()) return err;
    }
    return {};
  };
  return out;
}

}  // namespace

tq::vm::HostEnv GuestProgram::make_host() const {
  tq::vm::HostEnv host;
  if (wfs.has_value()) {
    host.attach_input(input_wav);
    host.create_output();
  }
  return host;
}

double GuestProgram::compute_golden() {
  const auto start = Clock::now();
  golden_output = tq::wfs::run_golden(*wfs, signal).output;
  return seconds_since(start);
}

std::string GuestProgram::check_output(const tq::vm::HostEnv& host) const {
  if (!wfs.has_value()) return {};
  const tq::wfs::WavData out =
      tq::wfs::wav_decode(host.output(tq::wfs::WfsArtifacts::kOutputFd));
  if (out.samples.size() != golden_output.size()) {
    return mismatch("output size", 0, static_cast<double>(out.samples.size()),
                    static_cast<double>(golden_output.size()));
  }
  for (std::size_t i = 0; i < out.samples.size(); ++i) {
    if (std::abs(int(out.samples[i]) - int(golden_output[i])) > 1) {
      return mismatch("sample", i, out.samples[i], golden_output[i]);
    }
  }
  return {};
}

GuestProgram build_standard_wfs(std::uint64_t seed, SetupTimes& times) {
  return make_wfs("wfs", tq::wfs::WfsConfig::standard(), seed, times);
}

std::vector<GuestProgram> build_zoo(std::uint64_t seed, SetupTimes& times) {
  tq::SplitMix64 seeds(seed);
  std::vector<GuestProgram> zoo;
  const auto start = Clock::now();
  zoo.push_back(make_stream());
  zoo.push_back(make_matmul(false));
  zoo.push_back(make_matmul(true));
  zoo.push_back(make_chase(seeds.next()));
  zoo.push_back(make_histogram(seeds.next()));
  zoo.push_back(make_hashjoin(seeds.next()));
  zoo.push_back(make_phased(seeds.next()));
  times.build_s += seconds_since(start);
  zoo.push_back(make_wfs("wfs", tq::wfs::WfsConfig::tiny(), seeds.next(), times));
  return zoo;
}

}  // namespace perfbench
