// Attach tools to one live guest execution the way every caller does:
// through a ProfileSession, whose shared attribution pass feeds them all.
#pragma once

#include <initializer_list>

#include "session/session.hpp"

namespace tq::testutil {

/// Run `program` on `host` once with `consumers` (in order) sharing a
/// session under `policy`; give each tool the same policy.
inline vm::RunOutcome profile_live(
    const vm::Program& program, vm::HostEnv& host,
    std::initializer_list<session::AnalysisConsumer*> consumers,
    tquad::LibraryPolicy policy = tquad::LibraryPolicy::kExclude) {
  session::SessionConfig config;
  config.library_policy = policy;
  session::ProfileSession session(program, config);
  for (session::AnalysisConsumer* consumer : consumers) {
    session.add_consumer(*consumer);
  }
  return session.run_live(host);
}

}  // namespace tq::testutil
