// The three workloads. Each fills the run's metrics (normalised, as
// printed in the result line), the raw un-normalised provenance figures and
// the correctness tally.
#pragma once

#include "harness.hpp"

namespace reqbench {

struct RunOutput {
  Metrics metrics;  ///< end-to-end (timed run) or per-layer (traced run)
  Metrics raw;      ///< raw times and the normaliser's state, for the log
  Tally tally;
};

/// plan-slack (slack = true) and plan-tight: guarded greedy + independent
/// verify on §V.B random instances, one caller thread, closed loop.
void run_plan(const Args& args, bool slack, RunOutput& out);

inline constexpr int kServeWorkers = 2;
inline constexpr int kServeConnections = 2;

/// serve-rounds: rounds of 64 requests through an in-process rpc::Server
/// over two loopback connections, closed loop.
void run_serve(const Args& args, RunOutput& out);

}  // namespace reqbench
