// The second case-study application (DCT image encoder): golden-model
// equivalence, DSP properties, and its profile shape under the tools.
#include <gtest/gtest.h>

#include <cmath>

#include "dctc/dctc.hpp"
#include "tquad/phase.hpp"
#include "tquad/tquad_tool.hpp"
#include "vm/machine.hpp"

#include "profile_run.hpp"

namespace tq::dctc {
namespace {

struct DctcRun {
  DctcConfig config;
  DctcArtifacts artifacts;
  std::vector<std::uint8_t> pixels;
  vm::HostEnv host;

  explicit DctcRun(const DctcConfig& cfg)
      : config(cfg), artifacts(build_dctc_program(cfg)), pixels(make_test_image(cfg)) {
    host.attach_input(pixels);
    host.create_output();
  }
};

TEST(Dctc, GuestStreamMatchesGoldenExactly) {
  DctcRun run(DctcConfig::tiny());
  vm::Machine machine(run.artifacts.program, run.host);
  machine.set_instruction_budget(100'000'000);
  machine.run();
  const GoldenEncode golden = run_golden_encode(run.config, run.pixels);
  const auto& stream = run.host.output(DctcArtifacts::kOutputFd);
  ASSERT_EQ(stream.size(), golden.stream.size());
  EXPECT_EQ(stream, golden.stream);
  EXPECT_FALSE(stream.empty());
}

TEST(Dctc, GuestCoefficientsMatchGolden) {
  DctcRun run(DctcConfig::tiny());
  vm::Machine machine(run.artifacts.program, run.host);
  machine.run();
  const GoldenEncode golden = run_golden_encode(run.config, run.pixels);
  for (std::size_t i = 0; i < golden.coefficients.size(); ++i) {
    const auto raw = static_cast<std::uint16_t>(
        machine.memory().load(run.artifacts.coeff_addr + 2 * i, 2));
    EXPECT_EQ(static_cast<std::int16_t>(raw), golden.coefficients[i]) << i;
  }
}

TEST(Dctc, CompressionActuallyCompresses) {
  const DctcConfig cfg = DctcConfig::tiny();
  const auto pixels = make_test_image(cfg);
  const GoldenEncode golden = run_golden_encode(cfg, pixels);
  // Quantised high-frequency coefficients vanish: the stream must be much
  // smaller than 3 bytes per coefficient.
  EXPECT_LT(golden.stream.size(), pixels.size());
  std::size_t zeros = 0;
  for (std::int16_t c : golden.coefficients) zeros += c == 0;
  EXPECT_GT(zeros, golden.coefficients.size() / 2);
}

TEST(Dctc, FlatImageHasOnlyDcCoefficients) {
  const DctcConfig cfg = DctcConfig::tiny();
  std::vector<std::uint8_t> flat(static_cast<std::size_t>(cfg.width) * cfg.height,
                                 200);
  const GoldenEncode golden = run_golden_encode(cfg, flat);
  for (std::uint32_t b = 0; b < cfg.blocks(); ++b) {
    for (int idx = 1; idx < 64; ++idx) {  // every AC coefficient
      EXPECT_EQ(golden.coefficients[static_cast<std::size_t>(b) * 64 + idx], 0);
    }
    // DC carries the block mean: (200-128)*8 / 16q ... nonzero.
    EXPECT_NE(golden.coefficients[static_cast<std::size_t>(b) * 64], 0);
  }
}

TEST(Dctc, DcCoefficientTracksBlockMean) {
  const DctcConfig cfg = DctcConfig::tiny();
  std::vector<std::uint8_t> bright(static_cast<std::size_t>(cfg.width) * cfg.height,
                                   250);
  std::vector<std::uint8_t> dark(bright.size(), 10);
  const auto bright_enc = run_golden_encode(cfg, bright);
  const auto dark_enc = run_golden_encode(cfg, dark);
  EXPECT_GT(bright_enc.coefficients[0], 0);
  EXPECT_LT(dark_enc.coefficients[0], 0);
}

TEST(Dctc, QualityControlsStreamSize) {
  DctcConfig fine = DctcConfig::tiny();
  fine.quality = 1;
  DctcConfig coarse = DctcConfig::tiny();
  coarse.quality = 8;
  const auto pixels = make_test_image(fine);
  EXPECT_GT(run_golden_encode(fine, pixels).stream.size(),
            run_golden_encode(coarse, pixels).stream.size());
}

TEST(Dctc, BadConfigRejected) {
  EXPECT_DEATH(DctcConfig({12, 32, 2}).validate(), "multiples of 8");
  EXPECT_DEATH(DctcConfig({16, 16, 0}).validate(), "quality");
}

TEST(Dctc, ThreePhaseProfileUnderTquad) {
  // The encoder's phase structure: load -> per-block transform pipeline ->
  // entropy encode. Distinct from the wfs five-phase shape.
  DctcRun run(DctcConfig::tiny());
  tquad::TQuadTool tool(run.artifacts.program, tquad::Options{.slice_interval = 500});
  testutil::profile_live(run.artifacts.program, run.host, {&tool});
  // Coarse windows must span at least one per-block iteration (~43 slices
  // here) for the per-block kernels to register as co-active; see
  // PhaseOptions::coarse_factor.
  tquad::PhaseOptions options;
  options.coarse_factor = 64;
  const auto phases = tquad::detect_phases(tool, options);
  ASSERT_GE(phases.size(), 2u);
  // img_load first, rle_encode last.
  auto phase_of = [&](const char* name) {
    const auto id = *run.artifacts.program.find(name);
    for (std::size_t p = 0; p < phases.size(); ++p) {
      for (auto k : phases[p].kernels) {
        if (k == id) return p;
      }
    }
    return SIZE_MAX;
  };
  EXPECT_LT(phase_of("img_load"), phase_of("rle_encode"));
  // The transform kernels cluster together.
  const auto fdct_phase = phase_of("fdct8x8");
  EXPECT_EQ(fdct_phase, phase_of("quantize"));
  EXPECT_EQ(fdct_phase, phase_of("zigzag"));
  EXPECT_NE(fdct_phase, phase_of("rle_encode"));
}

TEST(Dctc, TransformDominatesTheProfile) {
  DctcRun run(DctcConfig::tiny());
  tquad::TQuadTool tool(run.artifacts.program, tquad::Options{});
  testutil::profile_live(run.artifacts.program, run.host, {&tool});
  const auto fdct = *run.artifacts.program.find("fdct8x8");
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < tool.kernel_count(); ++k) {
    total += tool.activity(k).instructions;
  }
  const double share = static_cast<double>(tool.activity(fdct).instructions) /
                       static_cast<double>(total);
  EXPECT_GT(share, 0.6) << "the 2-D DCT is the hot kernel";
}

}  // namespace
}  // namespace tq::dctc
