// The traced run: per-layer figures measured from outside the libraries.
//
// Every consumer of a traced session is wrapped in TimedConsumer, a
// forwarding AnalysisConsumer that counts each call per event kind exactly
// and reads the clock on a fixed 1-in-64 sample of them (one call at a
// seeded random place in each window of 64, so the sample does not follow
// the guest's loops), scaled up by the call count; it never reads the
// clock on every event. Each sample also times one back-to-back clock read
// in place and subtracts it, so the estimate does not charge the clock's
// own cost to the consumer. QUAD's sharded access path is forwarded through
// a wrapping facet, so parallel sessions keep sharding. Render functions,
// TraceV2View decoding, the empty-consumer sessions and the bare VM are
// timed directly around their calls.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "session/events.hpp"
#include "sessions.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace perfbench {

/// The consumer layers a session can attach.
enum class Layer : unsigned { kTquad = 0, kQuad, kGprof, kTrace };
inline constexpr std::size_t kLayers = 4;

/// Event kinds the decorator counts.
enum EventKind : unsigned { kEnter = 0, kTick, kTickRun, kAccess, kRet, kKinds };

/// Calls counted on one thread. Cache-line aligned: each shard of a
/// parallel session counts on its own worker.
struct alignas(64) CallCounts {
  std::array<std::uint64_t, kKinds> calls{};
  std::array<std::uint64_t, kKinds> next_sample{};  ///< index of the next timed call
  std::array<std::uint64_t, kKinds> sampled{};     ///< calls that were timed
  std::array<std::uint64_t, kKinds> sampled_ns{};  ///< their summed time
  std::array<std::uint64_t, kKinds> clock_ns{};    ///< the clock's share of it
  std::uint64_t counted_accesses = 0;  ///< shard pieces that count the access
  tq::SplitMix64 jitter{0x9e3779b97f4a7c15ull};  ///< where in a window to sample
};

/// What the decorator saw of one consumer in one session.
struct ConsumerLedger {
  CallCounts main;                 ///< calls on the consumer itself
  std::vector<CallCounts> shards;  ///< calls through the sharded facet
  std::uint64_t exact_ns = 0;  ///< end, finish and shard prepare/merge, all timed

  /// Calls of `kind`; accesses routed through shards count once each.
  std::uint64_t calls(EventKind kind) const;
  /// Estimated busy time: sampled time scaled to the call counts, plus the
  /// calls timed exactly.
  double consume_s() const;
};

/// The traced-run instrumentation of one session (see run_session).
class SessionTrace {
 public:
  SessionTrace() = default;
  SessionTrace(const SessionTrace&) = delete;
  SessionTrace& operator=(const SessionTrace&) = delete;

  /// Wrap `tool` in a counting decorator that reports into ledger(layer).
  /// The decorator lives as long as this object.
  tq::session::AnalysisConsumer& wrap(tq::session::AnalysisConsumer& tool,
                                      Layer layer);

  const ConsumerLedger& ledger(Layer layer) const {
    return ledgers_[static_cast<std::size_t>(layer)];
  }
  tq::metrics::Registry& registry() { return registry_; }

  /// A counter or gauge the session published (0 when absent).
  std::uint64_t published(const std::string& name) const;

 private:
  tq::metrics::Registry registry_;
  std::array<ConsumerLedger, kLayers> ledgers_;
  std::vector<std::unique_ptr<tq::session::AnalysisConsumer>> wrappers_;
};

/// Run the traced suite of `workload` for at least `seconds` (and at least
/// two rounds) and return the median of every per-layer metric. Per-layer
/// rows and the ledger are also printed to stdout. Every session it runs is
/// checked and counted in `tally`.
std::vector<Metric> run_traced(const Workload& workload, Prepared& prepared,
                               double seconds, std::uint64_t seed, Tally& tally);

}  // namespace perfbench
