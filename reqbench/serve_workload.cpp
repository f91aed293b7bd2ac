// serve-rounds: the service behind its socket front-end. One rpc::Server
// (two workers) runs in-process; the benchmark thread drives two loopback
// connections through rpc::run_load, one round of 64 requests at a time,
// alternating the binary and JSON-lines codecs by round.
//
// The request stream is one make_workload trace, drawn with a constant seed
// (as in the plan workloads, so every run does the same work) and cut into
// rounds of 64 in arrival order; --seed permutes the order of the rounds.
// Request ids are unique across a pass, so one server serves a whole pass;
// the next pass gets a fresh server, built while the program is idle,
// outside the timed rounds. Every round's digest must equal the digest of
// an in-process UpdateService::run over the same batch, and must repeat
// exactly in every pass.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "rpc/codec.hpp"
#include "rpc/load_driver.hpp"
#include "rpc/server.hpp"
#include "service/intake_queue.hpp"
#include "service/service.hpp"
#include "service/workload.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace reqbench {

namespace {

using namespace chronus;

constexpr int kSetups = 9;
constexpr std::uint64_t kTraceSeed = 1;

struct Setup {
  service::ServiceTrace trace;
  std::vector<std::vector<service::UpdateRequest>> rounds;
  rpc::ServerOptions server;
};

Setup make_setup(const Args& args) {
  const int round_size = args.tiny ? 8 : 64;
  const int rounds = args.tiny ? 2 : 12;
  Setup s;
  service::WorkloadOptions w;
  w.requests = round_size * rounds;
  w.conflict_density = 0.5;
  w.rescue_sites = rounds;
  w.oversize_prob = 0.03;
  w.seed = kTraceSeed;
  s.trace = service::make_workload(w);
  for (int r = 0; r < rounds; ++r) {
    const auto b = s.trace.requests.begin() + r * round_size;
    s.rounds.emplace_back(b, b + round_size);
  }
  // Intake room above a round: no submit is deferred, so every client
  // round is exactly one planning round and its digest is reproducible.
  s.server.intake_capacity = static_cast<std::size_t>(2 * round_size + 16);
  s.server.service.workers = kServeWorkers;
  s.server.service.seed = kTraceSeed;
  return s;
}

rpc::Codec codec_of(std::size_t round) {
  return round % 2 == 0 ? rpc::Codec::kBinary : rpc::Codec::kJson;
}

struct RoundResult {
  rpc::LoadResult load;
  double wall_s = 0;
};

RoundResult drive_round(const Setup& s, const rpc::Server& server,
                        std::size_t r, rpc::Codec codec) {
  rpc::LoadOptions lo;
  lo.port = server.port();
  lo.codec = codec;
  lo.connections = kServeConnections;
  lo.timeout_seconds = 60.0;
  RoundResult out;
  const auto t0 = Clock::now();
  out.load = rpc::run_load(s.trace.graph, s.rounds[r], lo);
  out.wall_s = seconds_since(t0);
  return out;
}

/// A request that ends with a verified plan and a clean verified run.
bool accepted(const rpc::WireRecord& rec) {
  return rec.status == service::to_string(service::RequestStatus::kCompleted) &&
         rec.plan_verified && rec.run_verified && rec.violations == 0;
}

/// Checks one round's wire outcome; returns its digest ("" when unusable).
std::string check_round(const RoundResult& rr, std::size_t r,
                        std::size_t round_size, Tally& tally) {
  const rpc::LoadResult& l = rr.load;
  const std::string tag = "round " + std::to_string(r) + ": ";
  if (!l.ok || l.digests.empty()) {
    tally.fail(tag + "load failed: " + l.error);
    return "";
  }
  if (l.rejected != 0 || l.records.size() != round_size) {
    tally.fail(tag + std::to_string(l.records.size()) + " records, " +
               std::to_string(l.rejected) + " rejected");
    return "";
  }
  for (const std::string& d : l.digests) {
    if (d != l.digests.front()) {
      tally.fail(tag + "connections report different digests");
      return "";
    }
  }
  const std::string completed =
      service::to_string(service::RequestStatus::kCompleted);
  for (const rpc::WireRecord& rec : l.records) {
    if (rec.status == completed && !accepted(rec)) {
      tally.fail(tag + "request " + std::to_string(rec.id) +
                 " completed without a clean verification");
    }
  }
  return l.digests.front();
}

/// Encodes and decodes every message once; returns seconds spent and
/// counts a message the round trip changes as a failure.
double codec_round_trip(rpc::Codec c, const std::vector<rpc::Message>& msgs,
                        Tally& tally) {
  const auto t0 = Clock::now();
  for (const rpc::Message& m : msgs) {
    const std::string frame = rpc::encode(c, m);
    rpc::Decoder dec(c);
    dec.feed(frame);
    rpc::Message back;
    std::string err;
    if (dec.next(&back, &err) != rpc::Decoder::Result::kMessage ||
        !(back == m)) {
      tally.fail(std::string("codec ") + rpc::to_string(c) +
                 " round trip changed a message " + err);
    }
  }
  return seconds_since(t0);
}

}  // namespace

void run_serve(const Args& args, RunOutput& out) {
  Normaliser norm;
  Tally& tally = out.tally;

  // Set-up, repeated: generate the trace, construct and start a server,
  // run one warm-up round over both connections, shut it down.
  Setup s;
  std::vector<Timed> setups;
  for (int i = 0; i < kSetups; ++i) {
    const std::size_t at = norm.sample();
    const auto t0 = Clock::now();
    s = make_setup(args);
    rpc::Server warm(s.trace.graph, s.server);
    warm.start();
    drive_round(s, warm, 0, rpc::Codec::kBinary);
    warm.join();
    setups.push_back({at, seconds_since(t0)});
  }
  const std::size_t rounds = s.rounds.size();
  const std::size_t round_size = s.rounds[0].size();
  std::vector<std::size_t> order(rounds);
  for (std::size_t r = 0; r < rounds; ++r) order[r] = r;
  util::Rng(args.seed).shuffle(order);

  // Timed loop: whole passes of every round, the kernel between rounds.
  std::vector<std::string> digest(rounds);
  std::vector<rpc::WireRecord> records;  // first pass, round order
  std::vector<Timed> timed_rounds;
  std::size_t round_no = 0;
  const auto loop0 = Clock::now();
  for (std::size_t pass = 0;
       another_pass(args, loop0, pass, timed_rounds.size()); ++pass) {
    rpc::Server server(s.trace.graph, s.server);
    server.start();
    for (const std::size_t r : order) {
      const std::size_t at = norm.sample();
      require_dark("during the timed loop");
      const RoundResult rr = drive_round(s, server, r, codec_of(round_no++));
      tally.attempt(round_size);
      timed_rounds.push_back({at, rr.wall_s});
      const std::string d = check_round(rr, r, round_size, tally);
      if (pass == 0) {
        digest[r] = d;
        records.insert(records.end(), rr.load.records.begin(),
                       rr.load.records.end());
      } else if (d != digest[r]) {
        tally.fail("round " + std::to_string(r) +
                   ": digest differs between passes");
      }
    }
    server.join();
    if (server.round_reports().size() != rounds) {
      tally.fail("server ran " +
                 std::to_string(server.round_reports().size()) +
                 " planning rounds for " + std::to_string(rounds) +
                 " client rounds");
    }
  }
  norm.sample();  // closes the window of the last round
  if (args.inject == Inject::kDigest) digest[0] += "tampered";

  // Deterministic metrics from the first pass's records.
  std::size_t ok = 0;
  util::Summary spans, virt_ms;
  for (const rpc::WireRecord& rec : records) {
    if (!accepted(rec)) continue;
    ++ok;
    spans.add(static_cast<double>(rec.plan_span));
    virt_ms.add(static_cast<double>(rec.completed - rec.arrival) / 1e3);
  }
  Metrics timed;
  set_timed_metrics(norm, timed_rounds, static_cast<double>(round_size),
                    setups, timed, out.raw);
  const double timed_round_s = util::mean_of(raw_seconds(timed_rounds));
  std::printf("reqbench serve-rounds: %zu rounds of %zu requests (%zu per "
              "pass), %d workers, %d connections, %zu accepted per pass\n",
              timed_rounds.size(), round_size, rounds, kServeWorkers,
              kServeConnections, ok);

  // Replay every round in-process and compare digests, push each batch
  // through an IntakeQueue and every frame through both codecs. A traced
  // run also drives each round over rpc once more, and records all of it.
  obs::MetricsRegistry rpc_reg, svc_reg;
  double traced_round_s = 0, run_s = 0, intake_s = 0;
  double submits = 0, deferred = 0;
  double codec_s[2] = {0, 0};
  std::size_t codec_msgs[2] = {0, 0};
  rpc::Server traced_server(s.trace.graph, s.server);
  if (args.trace) traced_server.start();
  for (std::size_t r = 0; r < rounds; ++r) {
    if (args.trace) {
      obs::ScopedMetrics scope(rpc_reg);
      const RoundResult rr =
          drive_round(s, traced_server, r, codec_of(r));
      traced_round_s += rr.wall_s;
      submits += static_cast<double>(rr.load.submits);
      deferred += static_cast<double>(rr.load.deferred);
      tally.attempt(round_size);
      const std::string d = check_round(rr, r, round_size, tally);
      if (d != digest[r]) {
        tally.fail("round " + std::to_string(r) +
                   ": traced digest differs from the timed run");
      }
    }
    service::ServiceReport rep;
    {
      obs::MetricsRegistry* reg = args.trace ? &svc_reg : nullptr;
      obs::MetricsRegistry* prev = obs::install(reg);
      const auto t0 = Clock::now();
      rep = service::UpdateService(s.trace.graph, s.server.service)
                .run(s.rounds[r]);
      run_s += seconds_since(t0);
      obs::install(prev);
    }
    if (rep.digest() != digest[r]) {
      tally.fail("round " + std::to_string(r) +
                 ": digest differs from the in-process replay");
    }

    std::vector<service::UpdateRequest> batch = s.rounds[r];
    service::IntakeQueue q(batch.size());
    const auto t0 = Clock::now();
    for (service::UpdateRequest& req : batch) q.try_push(std::move(req));
    const std::size_t taken = q.take_batch().size();
    intake_s += seconds_since(t0);
    if (taken != s.rounds[r].size()) tally.fail("intake queue lost requests");

    std::vector<rpc::Message> msgs;
    for (const service::UpdateRequest& req : s.rounds[r]) {
      rpc::Message m;
      m.type = rpc::MsgType::kSubmit;
      m.submit = rpc::to_wire(s.trace.graph, req);
      msgs.push_back(std::move(m));
    }
    for (const service::RequestRecord& rec : rep.records) {
      rpc::Message m;
      m.type = rpc::MsgType::kRecord;
      m.record = rpc::to_wire(rec);
      msgs.push_back(std::move(m));
    }
    for (int c = 0; c < 2; ++c) {
      codec_s[c] +=
          codec_round_trip(static_cast<rpc::Codec>(c), msgs, tally);
      codec_msgs[c] += msgs.size();
    }
  }
  if (args.trace) traced_server.join();

  if (!args.trace) {
    Metrics& m = out.metrics;
    m = timed;
    m.set("accept_ratio",
          static_cast<double>(ok) / static_cast<double>(records.size()),
          "ratio");
    m.set("makespan_steps_mean", spans.mean(), "steps");
    m.set("virtual_latency_ms_p50", virt_ms.percentile(50), "virtual_ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const SnapshotReader net(rpc_reg.snapshot());
  const SnapshotReader svc(svc_reg.snapshot());
  const double nr = static_cast<double>(rounds);
  const double nq = nr * static_cast<double>(round_size);
  const double f = norm.factor();
  const double ms = 1e3 * f;       // raw seconds -> normalised ms
  const double us_ms = f / 1e3;    // span microseconds -> normalised ms
  const double greedy_us = svc.span_us("workerpool.job.greedy.schedule");
  const double exec_us = svc.span_us("workerpool.job.executor.run_timed");
  // The server's own service.run span of the traced rpc rounds: what the
  // wire adds is measured against the same round, not against the replay.
  const double served_us = net.span_us("service.run");
  const double rpc_overhead_ms =
      (traced_round_s * 1e6 - served_us) * us_ms / nr;
  const double exec_verify_us =
      svc.span_us("workerpool.job.executor.run_timed.verifier.transitions");
  const double attempts = svc.count("ledger.reserve_attempts");
  const double heads = svc.count("greedy.heads_expanded");

  Metrics& m = out.metrics;
  m.set("core.greedy_ms",
        greedy_us * us_ms / svc.span_calls("workerpool.job.greedy.schedule"),
        "ms");
  m.set("core.probes_per_req", heads / nq, "count");
  m.set("core.probe_yield", heads > 0 ? svc.count("greedy.updates") / heads : 0,
        "ratio");
  m.set("core.rounds_per_req",
        svc.count("greedy.rounds") / svc.count("greedy.calls"), "count");
  m.set("core.loopcheck_per_req",
        svc.count("loopcheck.exact_invocations") / nq, "count");
  m.set("timenet.verify_ms",
        exec_verify_us * us_ms /
            svc.span_calls("workerpool.job.executor.run_timed.verifier.transitions"),
        "ms");
  m.set("timenet.classes_per_verify",
        svc.count("verifier.classes_traced") / svc.count("verifier.calls"),
        "count");
  m.set("service.run_ms_per_round", run_s * ms / nr, "ms");
  m.set("service.intake_us_per_req", intake_s * 1e3 * ms / nq, "us");
  m.set("service.reserve_attempts_per_req", attempts / nq, "count");
  m.set("service.reserve_yield",
        attempts > 0 ? svc.count("ledger.reserves") / attempts : 0, "ratio");
  m.set("service.deferrals_per_req", svc.count("admission.deferrals") / nq,
        "count");
  m.set("service.worker_busy_ratio",
        svc.span_us("workerpool.job") /
            (kServeWorkers * svc.span_us("service.run")),
        "ratio");
  m.set("service.plan_ms_per_req", greedy_us * us_ms / nq, "ms");
  m.set("sim.exec_ms_per_req", exec_us * us_ms / nq, "ms");
  m.set("sim.barrier_rounds_per_req", svc.count("executor.barrier_rounds") / nq,
        "count");
  m.set("rpc.overhead_ms_per_round", rpc_overhead_ms, "ms");
  m.set("rpc.codec_us_per_msg.binary",
        codec_s[0] * 1e3 * ms / static_cast<double>(codec_msgs[0]), "us");
  m.set("rpc.codec_us_per_msg.json",
        codec_s[1] * 1e3 * ms / static_cast<double>(codec_msgs[1]), "us");
  m.set("rpc.bytes_per_req",
        (net.count("rpc.binary.bytes_in") + net.count("rpc.binary.bytes_out") +
         net.count("rpc.json.bytes_in") + net.count("rpc.json.bytes_out")) /
            nq,
        "bytes");
  m.set("rpc.deferred_per_req", deferred / submits, "count");
  m.set("bench.ref_kernel_us", norm.mean_us(), "us");
  m.set("bench.trace_overhead_ratio", (traced_round_s / nr) / timed_round_s,
        "ratio");

  // Stage table of the traced rpc rounds, from the server's own spans.
  const double w = kServeWorkers;
  const double run_ms = served_us * us_ms / nr;
  const double plan_ms =
      net.span_us("workerpool.job.greedy.schedule") * us_ms / nr / w;
  const double verify_ms =
      net.span_us("workerpool.job.verifier.transitions") * us_ms / nr / w;
  const double exec_ms =
      net.span_us("workerpool.job.executor.run_timed") * us_ms / nr / w;
  print_stages("serve-rounds: one round of " + std::to_string(round_size) +
                   " requests over rpc",
               "round", traced_round_s * ms / nr,
               {{"rpc: wire, sessions, intake", rpc_overhead_ms},
                {"service.run: greedy / workers", plan_ms},
                {"service.run: plan re-verify / workers", verify_ms},
                {"service.run: executor / workers", exec_ms}});
  std::printf("  residue = the rest of service.run (%.4f ms): the "
              "dispatcher's admission, ledger, joint planning and pool "
              "barriers\n",
              run_ms - plan_ms - verify_ms - exec_ms);
  std::printf("  tracing overhead: traced %.3f ms vs timed %.3f ms per round "
              "(x%.3f)\n",
              traced_round_s * ms / nr, timed_round_s * ms,
              (traced_round_s / nr) / timed_round_s);
}

}  // namespace reqbench
