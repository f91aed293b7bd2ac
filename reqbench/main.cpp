// reqbench: the request-path benchmark of Chronus.
//
//   reqbench --workload plan-slack|plan-tight|serve-rounds --seed N
//            --seconds S --trace 0|1 [--tiny 1] [--inject early-switch|digest]
//
// Prints its provenance, the raw (un-normalised) figures, for a traced run
// the stage tables, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
// the per-layer ones. Exit codes: 0 ok, 1 a correctness failure or error,
// 2 bad arguments, 3 a build or run that would measure a different program
// (nothing is printed as a result then).
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using reqbench::Metrics;

/// Every per-layer metric of BENCHMARK.json. A traced run prints all of
/// them; a layer the workload does not run reads 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"core.greedy_ms", "ms"},
    {"core.probes_per_req", "count"},
    {"core.probe_yield", "ratio"},
    {"core.rounds_per_req", "count"},
    {"core.loopcheck_per_req", "count"},
    {"timenet.verify_ms", "ms"},
    {"timenet.classes_per_verify", "count"},
    {"service.run_ms_per_round", "ms"},
    {"service.intake_us_per_req", "us"},
    {"service.reserve_attempts_per_req", "count"},
    {"service.reserve_yield", "ratio"},
    {"service.deferrals_per_req", "count"},
    {"service.worker_busy_ratio", "ratio"},
    {"service.plan_ms_per_req", "ms"},
    {"sim.exec_ms_per_req", "ms"},
    {"sim.barrier_rounds_per_req", "count"},
    {"rpc.overhead_ms_per_round", "ms"},
    {"rpc.codec_us_per_msg.binary", "us"},
    {"rpc.codec_us_per_msg.json", "us"},
    {"rpc.bytes_per_req", "bytes"},
    {"rpc.deferred_per_req", "count"},
    {"bench.ref_kernel_us", "us"},
    {"bench.trace_overhead_ratio", "ratio"},
};

}  // namespace

int main(int argc, char** argv) {
  reqbench::Args args;
  try {
    args = reqbench::parse_args(argc, argv);
    if (args.workload != "plan-slack" && args.workload != "plan-tight" &&
        args.workload != "serve-rounds") {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reqbench: %s\n", e.what());
    return 2;
  }

  reqbench::Provenance prov = reqbench::collect_provenance(args);
  const bool serve = args.workload == "serve-rounds";
  prov.fields["workers"] = serve ? std::to_string(reqbench::kServeWorkers) : "0";
  prov.fields["connections"] =
      serve ? std::to_string(reqbench::kServeConnections) : "0";
  // serve: the benchmark thread (run_load), reactor, planner, workers.
  prov.fields["threads"] =
      serve ? std::to_string(3 + reqbench::kServeWorkers) : "1";
  prov.print();
  const std::string refusal = prov.refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "reqbench: refusing to time this build: %s\n",
                 refusal.c_str());
    return 3;
  }

  reqbench::RunOutput out;
  try {
    if (serve) {
      reqbench::run_serve(args, out);
    } else {
      reqbench::run_plan(args, args.workload == "plan-slack", out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reqbench: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      if (out.metrics.all().count(name) == 0) out.metrics.set(name, 0.0, unit);
    }
  }
  std::printf("reqbench raw: %s\n", out.raw.json().c_str());
  reqbench::print_result(out.tally, out.metrics);
  return out.tally.failed() == 0 ? 0 : 1;
}
