// Call-topology invariants of the wfs application.
//
// The paper's Table I call counts encode the application's structure:
//   fft1d  = 2 per chunk + 2 (from ffw)        (984 ~ 2x493 - 2 in the paper)
//   bitrev = fft_size per fft1d call           (2'015'232 = 984 x 2048)
//   cadd = cmult = chunks x fft_size           (1'009'664 = 493 x 2048)
//   zeroRealVec ~ chunks x speakers            (15'782 ~ 493 x 32)
//   calculateGainPQ ~ move_chunks x speakers   (6'994 ~ 236 x ~32)
//   vsmult2d = calculateGainPQ + move_chunks   (7'026 ~ 6'994 + 236*)
//   wav_load = wav_store = ldint = 1
//   per-chunk kernels = chunks
//
// These relations must hold for *any* configuration — they are parameterised
// properties of the reimplementation, checked against both gsim's exact call
// counts and the static program structure.
#include <gtest/gtest.h>

#include "gprofsim/gprof_tool.hpp"
#include "vm/machine.hpp"
#include "wfs/runner.hpp"

#include "profile_run.hpp"

namespace tq::wfs {
namespace {

class WfsTopology : public ::testing::TestWithParam<WfsConfig> {};

TEST_P(WfsTopology, CallCountRelationsHold) {
  const WfsConfig cfg = GetParam();
  WfsRun run = prepare_wfs_run(cfg);
  gprof::GprofTool tool(run.artifacts.program, {});
  testutil::profile_live(run.artifacts.program, run.host, {&tool});
  auto calls = [&](const char* name) {
    return tool.calls(*run.artifacts.program.find(name));
  };
  const std::uint64_t K = cfg.chunks;
  const std::uint64_t N = cfg.fft_size;
  const std::uint64_t NS = cfg.speakers;
  const std::uint64_t M = cfg.move_chunks;

  EXPECT_EQ(calls("ldint"), 1u);
  EXPECT_EQ(calls("ffw"), 2u);
  EXPECT_EQ(calls("wav_load"), 1u);
  EXPECT_EQ(calls("wav_store"), 1u);
  // fft1d: forward+inverse per chunk, plus one per ffw.
  EXPECT_EQ(calls("fft1d"), 2 * K + 2);
  // perm: once per fft.
  EXPECT_EQ(calls("perm"), calls("fft1d"));
  // bitrev: once per element per fft.
  EXPECT_EQ(calls("bitrev"), calls("fft1d") * N);
  // cadd/cmult: once per bin per chunk, and equal to each other.
  EXPECT_EQ(calls("cmult"), K * N);
  EXPECT_EQ(calls("cadd"), calls("cmult"));
  // per-chunk kernels.
  for (const char* name : {"AudioIo_getFrames", "Filter_process_pre_",
                           "Filter_process", "DelayLine_processChunk",
                           "AudioIo_setFrames", "c2r"}) {
    EXPECT_EQ(calls(name), K) << name;
  }
  // r2c: per chunk plus two from ffw; zeroCplxVec identical.
  EXPECT_EQ(calls("r2c"), K + 2);
  EXPECT_EQ(calls("zeroCplxVec"), K + 2);
  // zeroRealVec: per speaker per chunk.
  EXPECT_EQ(calls("zeroRealVec"), K * NS);
  // propagation kernels: while the source moves.
  EXPECT_EQ(calls("PrimarySource_deriveTP"), M);
  EXPECT_EQ(calls("calculateGainPQ"), M * NS);
  EXPECT_EQ(calls("vsmult2d"), M * NS + M);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WfsTopology,
    ::testing::Values(WfsConfig::tiny(),
                      [] {
                        WfsConfig cfg = WfsConfig::tiny();
                        cfg.chunks = 10;
                        cfg.move_chunks = 7;
                        cfg.speakers = 5;
                        return cfg;
                      }(),
                      [] {
                        WfsConfig cfg = WfsConfig::tiny();
                        cfg.fft_size = 256;
                        cfg.chunk_size = 128;
                        cfg.move_chunks = 0;
                        return cfg;
                      }()),
    [](const ::testing::TestParamInfo<WfsConfig>& info) {
      return "chunks" + std::to_string(info.param.chunks) + "_spk" +
             std::to_string(info.param.speakers) + "_fft" +
             std::to_string(info.param.fft_size);
    });

TEST(WfsTopology, LibraryRoutinesAreLibraryImage) {
  const WfsArtifacts art = build_wfs_program(WfsConfig::tiny());
  for (const char* name : {"libc_read", "libc_write", "libc_seek"}) {
    const auto id = art.program.find(name);
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ(art.program.function(*id).image, vm::ImageKind::kLibrary) << name;
  }
  // All Table I kernels are main image.
  for (const char* name : {"wav_store", "fft1d", "bitrev", "AudioIo_setFrames"}) {
    EXPECT_EQ(art.program.function(*art.program.find(name)).image,
              vm::ImageKind::kMain)
        << name;
  }
}

TEST(WfsTopology, AllTableOneKernelsExist) {
  const WfsArtifacts art = build_wfs_program(WfsConfig::tiny());
  for (const char* name :
       {"wav_store", "fft1d", "DelayLine_processChunk", "bitrev", "zeroRealVec",
        "AudioIo_setFrames", "perm", "cadd", "cmult", "Filter_process",
        "wav_load", "Filter_process_pre_", "zeroCplxVec", "r2c", "c2r",
        "AudioIo_getFrames", "ffw", "vsmult2d", "calculateGainPQ",
        "PrimarySource_deriveTP", "ldint"}) {
    EXPECT_TRUE(art.program.find(name).has_value()) << name;
  }
}

TEST(WfsTopology, ProgramSerializesAndReloads) {
  // The wfs image survives a TQIM round trip and still runs correctly.
  const WfsConfig cfg = WfsConfig::tiny();
  WfsRun run = prepare_wfs_run(cfg);
  const auto bytes = run.artifacts.program.serialize();
  const vm::Program reloaded = vm::Program::deserialize(bytes);
  vm::HostEnv host;
  host.attach_input(wav_encode(run.input));
  host.create_output();
  vm::Machine machine(reloaded, host);
  machine.run();
  const GoldenResult golden = run_golden(cfg, run.input);
  const WavData out = wav_decode(host.output(WfsArtifacts::kOutputFd));
  ASSERT_EQ(out.samples.size(), golden.output.size());
  EXPECT_EQ(out.samples, golden.output);
}

}  // namespace
}  // namespace tq::wfs
