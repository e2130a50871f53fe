// Guest programs of the benchmark workloads, built from the seed, with the
// golden models their outputs are checked against.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "support/paged_memory.hpp"
#include "vm/host_env.hpp"
#include "vm/machine.hpp"
#include "vm/program.hpp"
#include "wfs/config.hpp"
#include "wfs/wav.hpp"

namespace perfbench {

/// One guest program plus everything needed to run and check it. Programs
/// are immutable once built; every run gets a fresh host from make_host().
struct GuestProgram {
  std::string name;
  tq::vm::Program program;

  /// wfs programs: the scene, the seeded input signal, and (after
  /// compute_golden) the native model's PCM16 output.
  std::optional<tq::wfs::WfsConfig> wfs;
  std::vector<std::uint8_t> input_wav;
  tq::wfs::WavData signal;
  std::vector<std::int16_t> golden_output;

  /// Zoo programs: golden check of the final machine state. Returns "" on a
  /// match, else the first mismatch. Empty for wfs programs, whose output
  /// WAV is the checked result.
  std::function<std::string(const tq::PagedMemory&, const tq::vm::Cpu&)>
      check_state;

  /// A fresh host: wfs programs get the input WAV as fd 0 and an output
  /// descriptor as fd 1, zoo programs run without descriptors.
  tq::vm::HostEnv make_host() const;

  /// wfs programs: run the native golden model on the seeded input and keep
  /// its output. Returns the model's wall time in seconds.
  double compute_golden();

  /// wfs programs: compare the guest's output WAV against the golden model
  /// (one LSB of PCM16 rounding allowed). "" on a match; "" for zoo
  /// programs too, which write no output.
  std::string check_output(const tq::vm::HostEnv& host) const;
};

/// Wall time of the two set-up steps, in seconds.
struct SetupTimes {
  double build_s = 0;  ///< guest images (gasm / wfs / workloads build functions)
  double input_s = 0;  ///< seeded input signals
};

/// The standard wfs run (43.3 M instructions) on a seeded input signal.
GuestProgram build_standard_wfs(std::uint64_t seed, SetupTimes& times);

/// The eight registry programs at bench scale. chase, histogram, hashjoin
/// and phased take their data seed from `seed`; the wfs member uses the
/// tiny scene on a seeded input signal.
std::vector<GuestProgram> build_zoo(std::uint64_t seed, SetupTimes& times);

}  // namespace perfbench
