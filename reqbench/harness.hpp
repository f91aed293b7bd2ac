// Shared machinery of the request-path benchmark: command-line options, the
// drift normaliser (a small reference kernel timed between requests),
// correctness accounting, build/run provenance and the one-line JSON result
// the benchmark prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace reqbench {

/// Fault injected on purpose by the self-test; each must count as a failure.
enum class Inject { kNone, kEarlySwitch, kDigest };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test size: a handful of requests, one pass
  Inject inject = Inject::kNone;
};

/// Parses the flags with util::Cli; throws std::invalid_argument on an
/// unknown flag or a malformed value.
Args parse_args(int argc, char** argv);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Whether the timed loop, started at `loop0`, runs another whole pass over
/// its inputs. Always one pass; a tiny run stops there. A traced run spends
/// half of --seconds untraced; a timed run spends all of it and goes on
/// until 200 stretches are timed, so p95 has at least ten beyond it.
bool another_pass(const Args& args, Clock::time_point loop0,
                  std::size_t passes, std::size_t stretches);

/// One stretch of program work: its raw duration and the index of the
/// kernel sample taken just before it.
struct Timed {
  std::size_t at = 0;
  double raw_s = 0;
};

/// The drift normaliser. A fixed, repo-independent kernel (churn of a
/// 3,000-key std::map, small enough to stay out of the program's cache
/// footprint) is timed on the timing thread between stretches of program
/// work, never during them. A timed stretch is scaled to a fixed reference
/// speed by the kernel samples nearest to it in time (four before it, four
/// after it), so a slow spell of the host inside a run is divided out where
/// it happened:
///   normalised = raw * kNominalKernelUs / mean(nearest kernel samples).
/// The window, not one factor from the run's mean kernel time, because a
/// stretch such as a set-up sits at one end of the run; LAYERS.md gives the
/// spreads of both over the same runs.
class Normaliser {
 public:
  static constexpr double kNominalKernelUs = 700.0;

  Normaliser();
  /// Runs the kernel once, records its wall time and returns its index.
  std::size_t sample();
  /// Mean kernel time over the whole run (raw, for provenance).
  double mean_us() const;
  std::size_t samples() const { return us_.size(); }
  /// Normalised seconds of each stretch; call once every sample is taken.
  std::vector<double> normalise(const std::vector<Timed>& work) const;
  /// Run-wide factor raw -> normalised, for the traced replay: it takes no
  /// kernel samples of its own, and its per-layer sums span the whole run.
  double factor() const { return kNominalKernelUs / mean_us(); }

 private:
  std::map<std::uint64_t, std::uint64_t> map_;
  std::vector<std::uint64_t> keys_;
  std::uint64_t state_ = 0x2545f4914f6cdd1dULL;
  std::uint64_t sink_ = 0;
  std::vector<double> us_;
};

/// Raw seconds of each stretch.
std::vector<double> raw_seconds(const std::vector<Timed>& work);

/// Counts operations and correctness failures; keeps the first few
/// failure messages for the log.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  void print_failures() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> first_;
};

/// Provenance of the build and the run. refusal() names the reason the
/// build measures a different program than the default one (a build type
/// other than RelWithDebInfo, audit contracts, a sanitizer,
/// CHRONUS_ARENA=off), or is empty.
struct Provenance {
  std::map<std::string, std::string> fields;
  std::string refusal() const;
  void print() const;
};
Provenance collect_provenance(const Args& args);

/// Throws if a metrics registry is installed: the timed loop must run with
/// every instrument dark.
void require_dark(const char* where);

/// Ordered metric set of one run: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::pair<double, std::string>>& all() const {
    return m_;
  }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> m_;
};

/// Sets the timed end-to-end metrics — latency_ms_p50/p95 over `stretches`
/// (each stands for `per_stretch` requests decided together),
/// requests_per_s and setup_s (median over `setups`) — normalised into
/// `metrics` and as measured into `raw`, next to the kernel's state.
void set_timed_metrics(const Normaliser& norm,
                       const std::vector<Timed>& stretches,
                       double per_stretch, const std::vector<Timed>& setups,
                       Metrics& metrics, Metrics& raw);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Reads counters and span sums of one registry snapshot by name; a name
/// the run never recorded reads 0.
class SnapshotReader {
 public:
  explicit SnapshotReader(chronus::obs::MetricsSnapshot snap)
      : snap_(std::move(snap)) {}
  double count(const std::string& name) const;
  /// Total microseconds of the span `span.<path>_wall_us`.
  double span_us(const std::string& path) const;
  double span_calls(const std::string& path) const;

 private:
  chronus::obs::MetricsSnapshot snap_;
};

/// Prints one stage table: rows of (stage, ms per unit, share of total).
struct Stage {
  std::string name;
  double ms;
};
void print_stages(const std::string& title, const std::string& unit,
                  double total_ms, const std::vector<Stage>& stages);

/// Writes the result line (the last line of stdout).
void print_result(const Tally& tally, const Metrics& metrics);

/// FNV-1a of a string, for short fingerprints in logs and comparisons.
std::uint64_t fnv1a(const std::string& s);

}  // namespace reqbench
