// plan-slack / plan-tight: one caller thread plans §V.B random instances
// with the verifier-guarded greedy (as the service calls it) and checks
// every accepted plan with an independent verify_transition.
//
// The instances are a fixed corpus drawn from the generator with a constant
// seed; --seed permutes the order in which they are requested. Request
// times are heavy-tailed (in a 1,200-instance probe, 3 of the 300
// n = 48 instances planned for 6-12 s before ending infeasible), so a
// corpus redrawn per seed moved the median latency of ten runs by 10-25 %.
// With the corpus fixed, runs of different seeds do the same work and the
// deterministic metrics are identical across all runs. The timed loop runs whole passes over the corpus until
// the time budget is spent; per-request outcomes must repeat exactly from
// pass to pass.
#include <cstdio>
#include <string>
#include <vector>

#include "core/greedy_scheduler.hpp"
#include "net/generators.hpp"
#include "timenet/verifier.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace reqbench {

namespace {

using namespace chronus;

/// Virtual duration of one schedule step (the service's default step_unit).
constexpr double kStepMs = 50.0;
constexpr int kSetups = 7;
constexpr std::uint64_t kCorpusSeed = 1;

struct Outcome {
  bool accepted = false;
  std::int64_t span = 0;
  std::uint64_t schedule_hash = 0;
  bool operator==(const Outcome&) const = default;
};

std::string schedule_key(const timenet::UpdateSchedule& s) {
  std::string key;
  for (const auto& [v, t] : s.entries()) {
    key += std::to_string(v) + "@" + std::to_string(t.count()) + ";";
  }
  return key;
}

/// Moves the last-updated switch one step earlier: the corruption the
/// independent verifier must catch.
void corrupt(timenet::UpdateSchedule& s) {
  if (s.step_span() < 2) return;
  const timenet::TimePoint last = s.last_time();
  for (const auto& [v, t] : s.entries()) {
    if (t == last) {
      s.set(v, t - 1);
      return;
    }
  }
}

/// One request: plan, then independently verify the accepted plan. Sets
/// `seconds` to the request's time, from the planner call to the verdict.
Outcome plan_one(std::size_t idx, const net::UpdateInstance& inst,
                 Inject inject, Tally& tally, double& seconds) {
  core::GreedyOptions gopt;
  gopt.record_steps = false;
  const auto t0 = Clock::now();
  core::ScheduleResult res = core::greedy_schedule(inst, gopt);
  Outcome out;
  out.accepted = res.feasible();
  if (out.accepted) {
    if (inject == Inject::kEarlySwitch) corrupt(res.schedule);
    const bool ok = timenet::verify_transition(inst, res.schedule).ok();
    seconds = seconds_since(t0);
    if (!ok) {
      tally.fail("instance " + std::to_string(idx) +
                 ": accepted plan fails verify_transition");
    }
    out.span = res.schedule.step_span();
    out.schedule_hash = fnv1a(schedule_key(res.schedule));
  } else {
    seconds = seconds_since(t0);
  }
  return out;
}

std::vector<net::UpdateInstance> make_instances(const Args& args, bool slack) {
  std::vector<std::size_t> sizes;
  std::size_t count;
  if (args.tiny) {
    sizes = {8, 12};
    count = 8;
  } else if (slack) {
    sizes = {16, 24, 32, 48};
    count = 100;
  } else {
    sizes = {16, 24, 32};
    count = 102;
  }
  util::Rng rng(kCorpusSeed * 0x9e3779b97f4a7c15ULL + (slack ? 11 : 23));
  std::vector<net::UpdateInstance> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::RandomInstanceOptions o;
    o.n = sizes[i % sizes.size()];
    o.slack_prob = slack ? 0.9 : 0.2;
    out.push_back(net::random_instance(o, rng));
  }
  return out;
}

}  // namespace

void run_plan(const Args& args, bool slack, RunOutput& out) {
  Normaliser norm;
  Tally& tally = out.tally;

  // Set-up, repeated: generate the instance set and warm up on its first
  // instances (two of each size). The last set-up's instances are used.
  std::vector<net::UpdateInstance> insts;
  std::vector<Timed> setups;
  for (int s = 0; s < kSetups; ++s) {
    const std::size_t at = norm.sample();
    const auto t0 = Clock::now();
    insts = make_instances(args, slack);
    Tally warm;
    double seconds;
    for (std::size_t i = 0; i < 8 && i < insts.size(); ++i) {
      plan_one(i, insts[i], Inject::kNone, warm, seconds);
    }
    setups.push_back({at, seconds_since(t0)});
  }
  const std::size_t k = insts.size();
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  util::Rng(args.seed).shuffle(order);

  // Timed loop: whole passes, the kernel between requests, no registry.
  std::vector<Outcome> first(k);
  std::vector<Timed> requests;
  std::size_t passes = 0;
  const auto loop0 = Clock::now();
  for (; another_pass(args, loop0, passes, requests.size()); ++passes) {
    require_dark("during the timed loop");
    for (const std::size_t i : order) {
      const std::size_t at = norm.sample();
      double seconds;
      const Outcome o = plan_one(i, insts[i], args.inject, tally, seconds);
      tally.attempt();
      if (passes == 0) {
        first[i] = o;
      } else if (!(o == first[i])) {
        tally.fail("instance " + std::to_string(i) +
                   ": outcome differs between passes");
      }
      requests.push_back({at, seconds});
    }
  }
  norm.sample();  // closes the window of the last request

  // Deterministic metrics from one pass.
  std::size_t accepted = 0;
  util::Summary spans, virt_ms;
  for (const Outcome& o : first) {
    if (!o.accepted) continue;
    ++accepted;
    spans.add(static_cast<double>(o.span));
    virt_ms.add(static_cast<double>(o.span) * kStepMs);
  }
  std::printf("reqbench %s: %zu instances x %zu passes, %zu accepted, "
              "p95 has %zu samples beyond it\n",
              args.workload.c_str(), k, passes, accepted,
              requests.size() / 20);

  Metrics timed;
  set_timed_metrics(norm, requests, 1.0, setups, timed, out.raw);
  if (!args.trace) {
    Metrics& m = out.metrics;
    m = timed;
    m.set("accept_ratio",
          static_cast<double>(accepted) / static_cast<double>(k), "ratio");
    m.set("makespan_steps_mean", spans.mean(), "steps");
    m.set("virtual_latency_ms_p50", virt_ms.percentile(50), "virtual_ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: replay the same instances once with a registry installed.
  // Stage times come from the library's own spans; the residue is the time
  // the benchmark measured around the calls that no span covers.
  obs::MetricsRegistry reg;
  double total_s = 0;
  {
    obs::ScopedMetrics scope(reg);
    for (std::size_t i = 0; i < k; ++i) {
      double seconds;
      const Outcome o = plan_one(i, insts[i], args.inject, tally, seconds);
      tally.attempt();
      if (!(o == first[i])) {
        tally.fail("instance " + std::to_string(i) +
                   ": traced outcome differs from the timed run");
      }
      total_s += seconds;
    }
  }
  const SnapshotReader d(reg.snapshot());
  const double kd = static_cast<double>(k);
  const double f = norm.factor();
  const double ms = f / 1e3;  // span microseconds -> normalised ms
  const double greedy_us = d.span_us("greedy.schedule");
  const double verify_us = d.span_us("verifier.transitions");
  const double heads = d.count("greedy.heads_expanded");

  Metrics& m = out.metrics;
  m.set("core.greedy_ms", greedy_us * ms / d.span_calls("greedy.schedule"),
        "ms");
  m.set("core.probes_per_req", heads / kd, "count");
  m.set("core.probe_yield", heads > 0 ? d.count("greedy.updates") / heads : 0,
        "ratio");
  m.set("core.rounds_per_req",
        d.count("greedy.rounds") / d.count("greedy.calls"), "count");
  m.set("core.loopcheck_per_req", d.count("loopcheck.exact_invocations") / kd,
        "count");
  m.set("timenet.verify_ms",
        verify_us * ms / d.span_calls("verifier.transitions"), "ms");
  m.set("timenet.classes_per_verify",
        d.count("verifier.classes_traced") / d.count("verifier.calls"),
        "count");
  m.set("bench.ref_kernel_us", norm.mean_us(), "us");
  const double timed_mean_s = util::mean_of(raw_seconds(requests));
  const double overhead = (total_s / kd) / timed_mean_s;
  m.set("bench.trace_overhead_ratio", overhead, "ratio");

  const double per_req_ms = total_s * 1e3 * f / kd;
  print_stages(args.workload + ": one request = guarded greedy + verify",
               "request", per_req_ms,
               {{"core: greedy_schedule", greedy_us * ms / kd},
                {"timenet: verify_transition", verify_us * ms / kd}});
  std::printf("  tracing overhead: traced %.4f ms vs timed %.4f ms per "
              "request (x%.3f)\n",
              per_req_ms, timed_mean_s * 1e3 * f, overhead);
}

}  // namespace reqbench
