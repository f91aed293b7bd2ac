#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/arena.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"

namespace reqbench {

namespace {

constexpr std::size_t kKernelKeys = 3000;
constexpr int kKernelOps = 1000;
// Kernel samples on each side of a stretch of work that normalise it.
constexpr std::size_t kWindow = 4;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  const chronus::util::Cli cli(argc, argv);
  Args a;
  a.workload = cli.get("workload", "");
  a.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  a.seconds = cli.get_double("seconds", 10.0);
  a.trace = cli.get_bool("trace", false);
  a.tiny = cli.get_bool("tiny", false);
  const std::string inject = cli.get("inject", "none");
  if (inject == "early-switch") {
    a.inject = Inject::kEarlySwitch;
  } else if (inject == "digest") {
    a.inject = Inject::kDigest;
  } else if (inject != "none") {
    throw std::invalid_argument("unknown --inject '" + inject + "'");
  }
  if (const auto extra = cli.unused(); !extra.empty()) {
    throw std::invalid_argument("unknown flag --" + extra.front());
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

bool another_pass(const Args& args, Clock::time_point loop0,
                  std::size_t passes, std::size_t stretches) {
  if (passes == 0) return true;
  if (args.tiny) return false;
  if (args.trace) return seconds_since(loop0) < 0.5 * args.seconds;
  return seconds_since(loop0) < args.seconds || stretches < 200;
}

Normaliser::Normaliser() {
  while (map_.size() < kKernelKeys) {
    const std::uint64_t k = xorshift(state_);
    if (map_.emplace(k, k >> 7).second) keys_.push_back(k);
  }
}

std::size_t Normaliser::sample() {
  // Walk the map first so the timed churn starts from a warm cache, not
  // from whatever the program's last request left in it.
  for (const auto& [key, value] : map_) sink_ += value;
  const auto t0 = Clock::now();
  for (int i = 0; i < kKernelOps; ++i) {
    const std::size_t slot = xorshift(state_) % keys_.size();
    map_.erase(keys_[slot]);
    std::uint64_t k = xorshift(state_);
    while (!map_.emplace(k, k >> 7).second) k = xorshift(state_);
    keys_[slot] = k;
    const auto it = map_.find(keys_[xorshift(state_) % keys_.size()]);
    sink_ += it->second;
  }
  us_.push_back(seconds_since(t0) * 1e6);
  return us_.size() - 1;
}

double Normaliser::mean_us() const {
  if (us_.empty()) throw std::logic_error("normaliser has no samples");
  return chronus::util::mean_of(us_);
}

std::vector<double> Normaliser::normalise(const std::vector<Timed>& work) const {
  std::vector<double> out;
  out.reserve(work.size());
  for (const Timed& t : work) {
    if (t.at >= us_.size()) throw std::logic_error("kernel sample out of range");
    const std::size_t lo = t.at >= kWindow - 1 ? t.at - (kWindow - 1) : 0;
    const std::size_t hi = std::min(us_.size(), t.at + kWindow + 1);
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += us_[i];
    out.push_back(t.raw_s * kNominalKernelUs * static_cast<double>(hi - lo) /
                  sum);
  }
  return out;
}

std::vector<double> raw_seconds(const std::vector<Timed>& work) {
  std::vector<double> out;
  out.reserve(work.size());
  for (const Timed& t : work) out.push_back(t.raw_s);
  return out;
}

void Tally::fail(const std::string& what) {
  ++failed_;
  if (first_.size() < 10) first_.push_back(what);
}

void Tally::print_failures() const {
  for (const std::string& f : first_) {
    std::fprintf(stderr, "reqbench: FAILED: %s\n", f.c_str());
  }
  if (failed_ > first_.size()) {
    std::fprintf(stderr, "reqbench: ... %llu failures in total\n",
                 static_cast<unsigned long long>(failed_));
  }
}

std::string Provenance::refusal() const {
  const std::string& bt = fields.at("build_type");
  if (bt != "RelWithDebInfo") {
    return "build type " + bt + " is not the default RelWithDebInfo";
  }
  if (fields.at("contracts") == "audit") return "audit contract build";
  if (fields.at("sanitizer") != "none") {
    return "sanitizer build (" + fields.at("sanitizer") + ")";
  }
  if (fields.at("arena") != "on") return "CHRONUS_ARENA=off";
  return "";
}

void Provenance::print() const {
  std::ostringstream line;
  {
    chronus::util::JsonWriter out(line, "reqbench");
    for (const auto& [k, v] : fields) out.meta(k, v);
  }
  std::printf("reqbench provenance: %s", line.str().c_str());
}

Provenance collect_provenance(const Args& args) {
  Provenance p;
  p.fields["build_type"] = REQBENCH_BUILD_TYPE;
  p.fields["compiler"] = REQBENCH_COMPILER;
  p.fields["nproc"] = std::to_string(std::thread::hardware_concurrency());
#if CHRONUS_CONTRACT_LEVEL == 0
  p.fields["contracts"] = "off";
#elif CHRONUS_CONTRACT_LEVEL == 1
  p.fields["contracts"] = "cheap";
#else
  p.fields["contracts"] = "audit";
#endif
#if defined(__SANITIZE_ADDRESS__)
  p.fields["sanitizer"] = "address";
#elif defined(__SANITIZE_THREAD__)
  p.fields["sanitizer"] = "thread";
#else
  p.fields["sanitizer"] = "none";
#endif
  p.fields["arena"] = chronus::util::arena_enabled() ? "on" : "off";
  p.fields["workload"] = args.workload;
  p.fields["seed"] = std::to_string(args.seed);
  p.fields["seconds"] = std::to_string(args.seconds);
  p.fields["trace"] = args.trace ? "1" : "0";
  p.fields["tiny"] = args.tiny ? "1" : "0";
  return p;
}

void require_dark(const char* where) {
  if (chronus::obs::registry() != nullptr) {
    throw std::runtime_error(std::string("a metrics registry is installed ") +
                             where + "; timed numbers would be skewed");
  }
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  m_[name] = {value, unit};
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : m_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + chronus::util::json_escape(name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + chronus::util::json_escape(vu.second) + "\"}";
  }
  return out + "}";
}

void set_timed_metrics(const Normaliser& norm,
                       const std::vector<Timed>& stretches,
                       double per_stretch, const std::vector<Timed>& setups,
                       Metrics& metrics, Metrics& raw) {
  const auto set = [&](Metrics& m, const std::vector<double>& lat,
                       const std::vector<double>& setup) {
    chronus::util::Summary l, u;
    l.add_all(lat);
    u.add_all(setup);
    m.set("latency_ms_p50", l.percentile(50) * 1e3, "ms");
    m.set("latency_ms_p95", l.percentile(95) * 1e3, "ms");
    m.set("requests_per_s",
          per_stretch * static_cast<double>(l.count()) / l.sum(), "1/s");
    m.set("setup_s", u.percentile(50), "s");
  };
  set(metrics, norm.normalise(stretches), norm.normalise(setups));
  set(raw, raw_seconds(stretches), raw_seconds(setups));
  raw.set("kernel_mean_us", norm.mean_us(), "us");
  raw.set("kernel_samples", static_cast<double>(norm.samples()), "count");
  raw.set("timed_stretches", static_cast<double>(stretches.size()), "count");
}

double peak_rss_mb() {
  // VmHWM belongs to this process image alone; getrusage's ru_maxrss also
  // carries the peak of the process that forked us across exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

double SnapshotReader::count(const std::string& name) const {
  const auto it = snap_.counters.find(name);
  return it == snap_.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double SnapshotReader::span_us(const std::string& path) const {
  const auto it = snap_.histograms.find("span." + path + "_wall_us");
  return it == snap_.histograms.end() ? 0.0
                                      : static_cast<double>(it->second.sum);
}

double SnapshotReader::span_calls(const std::string& path) const {
  return count("span." + path + ".calls");
}

void print_stages(const std::string& title, const std::string& unit,
                  double total_ms, const std::vector<Stage>& stages) {
  std::printf("\n%s (normalised ms per %s)\n", title.c_str(), unit.c_str());
  std::printf("  %-40s %12s %8s\n", "stage", "ms", "share");
  double sum = 0.0;
  for (const Stage& s : stages) {
    sum += s.ms;
    std::printf("  %-40s %12.4f %7.1f%%\n", s.name.c_str(), s.ms,
                total_ms > 0 ? 100.0 * s.ms / total_ms : 0.0);
  }
  std::printf("  %-40s %12.4f %7.1f%%\n", "unattributed residue",
              total_ms - sum, total_ms > 0 ? 100.0 * (total_ms - sum) / total_ms
                                           : 0.0);
  std::printf("  %-40s %12.4f %7.1f%%\n", "end-to-end (traced)", total_ms,
              100.0);
}

void print_result(const Tally& tally, const Metrics& metrics) {
  tally.print_failures();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              tally.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              metrics.json().c_str());
  std::fflush(stdout);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace reqbench
