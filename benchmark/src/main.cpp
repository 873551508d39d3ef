// aabench: one workload, one seed, one pass (see benchmark/README.md).
//
//   aabench --workload W --seed S --seconds T --trace 0|1
//           [--requests N] [--loss P] [--spans PATH]
//
// A single caller runs a closed loop over a fixed list of requests generated
// from the seed: seconds x the workload's nominal rate, at least
// kMinRequests (--requests overrides the count).  Prints every metric by name
// with its unit, then as its last line one JSON object
//   {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1.  --loss overrides the socket workload's injected loss and
// exists only for the clean-loopback observation in the README.  --probe 1
// is how the program launches itself to time its set-up (setup_seconds()).
//
// Times taken over a whole request (and over a set-up) are reported at the
// reference machine's speed: see calibrate().
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <memory_resource>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "core/codec.hpp"
#include "netio/socket_net.hpp"
#include "obs/export.hpp"

namespace {

using namespace aabench;
using apxa::harness::BackendKind;
using apxa::net::Metrics;

/// Time of the calibration work on the reference machine (README, "Noise").
constexpr double kReferenceCalibrationMs = 0.40;
constexpr std::size_t kCalibrationKeys = 3000;

volatile std::size_t g_calibration_sink = 0;

/// The host's current speed against the reference machine's.  The reference
/// machine is a shared virtual machine whose speed drifts by up to 1.8x for
/// seconds to minutes at a time as its neighbours load it.  So the caller
/// times, right after each request, a fixed piece of work, and a request's
/// time multiplied by the returned factor is its time at reference speed.
/// The work builds an ordered map of pseudo-random keys in a private arena:
/// branchy, pointer-chasing and allocating like the library, but sharing
/// neither its heap nor its code, so no change to the library moves it.
double calibrate() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(kCalibrationKeys);
    std::uint64_t s = 12345;
    for (std::uint32_t& x : k) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      x = static_cast<std::uint32_t>(s >> 33);
    }
    return k;
  }();
  alignas(std::max_align_t) static std::byte arena[std::size_t{1} << 18];
  const std::uint64_t t0 = now_ns();
  {
    std::pmr::monotonic_buffer_resource pool(arena, sizeof arena,
                                             std::pmr::null_memory_resource());
    std::pmr::map<std::uint32_t, std::uint32_t> m(&pool);
    for (std::uint32_t i = 0; i < keys.size(); ++i) m[keys[i]] = i;
    g_calibration_sink = m.size();
  }
  const std::uint64_t t1 = now_ns();
  return kReferenceCalibrationMs / (static_cast<double>(t1 - t0) / 1e6);
}

/// One request as the caller saw it.
struct Timed {
  Outcome outcome;
  double cpu_ms = 0.0;  ///< CPU time of every thread of the process
  double speed = 1.0;   ///< calibrate() right after the request
  std::uint64_t page_faults = 0;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  int trace = 0;
  std::uint64_t requests = 0;  // 0 = derive from seconds
  double loss = -1.0;          // < 0 = the workload's own
  std::string spans;
  bool probe = false;  // set up, print one line, exit: see setup_seconds()
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "aabench: %s\nusage: aabench --workload W --seed S --seconds T "
               "--trace 0|1 [--requests N] [--loss P] [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--requests") {
      a.requests = std::strtoull(val, &end, 10);
    } else if (key == "--loss") {
      a.loss = std::strtod(val, &end);
    } else if (key == "--spans") {
      a.spans = val;
    } else if (key == "--probe") {
      a.probe = std::strtol(val, &end, 10) != 0;
    } else {
      usage("unknown argument");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    usage("bad --seconds or --trace");
  }
  return a;
}

/// CPU time of every thread of the process.
double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double peak_rss_mb() { return static_cast<double>(self_usage().ru_maxrss) / 1024.0; }

std::uint64_t page_faults() {
  const rusage ru = self_usage();
  return static_cast<std::uint64_t>(ru.ru_minflt + ru.ru_majflt);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// Quantile of a latency histogram whose bucket i covers (i, i+1] / size of
/// the histogram's span, linearly interpolated inside the bucket.
double histogram_quantile(const std::array<std::uint64_t, Metrics::kLatencyBuckets>& h,
                          double q) {
  std::uint64_t total = 0;
  for (const auto c : h) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const double c = static_cast<double>(h[i]);
    if (c > 0.0 && seen + c >= target) {
      return (static_cast<double>(i) + (target - seen) / c) /
             static_cast<double>(h.size());
    }
    seen += c;
  }
  return 1.0;
}

/// The quantile over requests that rates and costs are taken from.  Bursts
/// of contention from the host's other tenants, seconds long, slow some of a
/// run's requests by up to 1.8x and make the run's request times bimodal;
/// the lower quartile stays on the undisturbed mode where the median flips
/// between the two (README, "Noise").
constexpr double kTypical = 0.25;

/// Sums over a pass's requests, and per-request samples.
struct Totals {
  std::uint64_t requests = 0, instances = 0, failed = 0;
  std::uint64_t msgs = 0, bytes = 0, packets = 0, delivered = 0;
  std::uint64_t retransmits = 0, page_faults = 0;
  TagCounts tags{};
  std::array<std::uint64_t, Metrics::kLatencyBuckets> latency{};
  apxa::obs::ExecStats exec;
  /// Per request: at reference speed (req_ms, cpu_ms), as measured
  /// (wall_ms, raw_cpu_ms), and the calibration chain's time.
  std::vector<double> req_ms, cpu_ms, wall_ms, raw_cpu_ms, calibration_ms;
  std::vector<double> finish;
  double stage_ms = 0, make_backend_ms = 0, run_ms = 0;

  void add(const Timed& t) {
    const Outcome& o = t.outcome;
    ++requests;
    req_ms.push_back(o.wall_ms() * t.speed);
    cpu_ms.push_back(t.cpu_ms * t.speed);
    wall_ms.push_back(o.wall_ms());
    raw_cpu_ms.push_back(t.cpu_ms);
    calibration_ms.push_back(kReferenceCalibrationMs / t.speed);
    page_faults += t.page_faults;
    instances += o.instances;
    failed += o.failed;
    const Metrics& m = o.metrics;
    msgs += m.messages_sent;
    bytes += m.payload_bytes;
    packets += m.packets_sent;
    delivered += m.messages_delivered;
    retransmits += m.packets_retransmitted;
    for (std::size_t i = 0; i < tags.size(); ++i) tags[i] += m.sent_by_tag[i];
    for (const auto& row : m.latency_by_tag) {
      for (std::size_t b = 0; b < row.size(); ++b) latency[b] += row[b];
    }
    exec.merge(o.exec);
    finish.insert(finish.end(), o.finish.begin(), o.finish.end());
    stage_ms += o.stage_ms;
    make_backend_ms += o.make_backend_ms;
    run_ms += o.run_ms;
  }

  [[nodiscard]] double inst_per_req() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(instances) /
                               static_cast<double>(requests);
  }
  [[nodiscard]] double inst_per_s() const {
    return inst_per_req() / (percentile(req_ms, kTypical) / 1e3);
  }
  [[nodiscard]] double cpu_ms_per_inst() const {
    return percentile(cpu_ms, kTypical) / inst_per_req();
  }
  [[nodiscard]] double raw_cpu_ms_per_inst() const {
    return percentile(raw_cpu_ms, kTypical) / inst_per_req();
  }
  [[nodiscard]] double per_inst(double x) const {
    return instances == 0 ? 0.0 : x / static_cast<double>(instances);
  }
  [[nodiscard]] double per_req(double x) const {
    return requests == 0 ? 0.0 : x / static_cast<double>(requests);
  }
  [[nodiscard]] double tag(apxa::core::MsgType t) const {
    return per_inst(static_cast<double>(tags[static_cast<std::size_t>(t)]));
  }
};

/// Metrics print as they are added; the JSON line carries only the ones
/// BENCHMARK.json declares for this pass.  A value that is not a finite
/// number makes the result incorrect.
class Report {
 public:
  void add(const char* name, double value, const char* unit) {
    note(name, value, unit);
    json_.push_back({name, value, unit});
    finite_ = finite_ && std::isfinite(value);
  }
  void note(const char* name, double value, const char* unit) {
    std::printf("  %-28s %16.6f  %s\n", name, value, unit);
  }
  void finish(bool correct, std::uint64_t attempted, std::uint64_t failed) {
    std::string out = "{\"correct\": ";
    out += correct && finite_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < json_.size(); ++i) {
      const Entry& e = json_[i];
      if (i > 0) out += ", ";
      out += '"';
      out += e.name;
      out += "\": {\"value\": ";
      out += number(e.value);
      out += ", \"unit\": \"";
      out += e.unit;
      out += "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  struct Entry {
    const char* name;
    double value;
    const char* unit;
  };
  static std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
  }
  std::vector<Entry> json_;
  bool finite_ = true;
};

void add_spans(std::vector<Span>& spans, const char* pass, std::uint64_t request,
               const Outcome& o) {
  if (o.phases.empty()) return;
  spans.push_back({std::string(pass) + "/request", o.phases.front().start_ns,
                   o.phases.back().end_ns, request});
  for (const Span& p : o.phases) {
    spans.push_back({std::string(pass) + "/" + p.name, p.start_ns, p.end_ns,
                     request});
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (spans.empty()) return true;
  const std::uint64_t origin = spans.front().start_ns;
  std::string doc = "{\"traceEvents\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 0, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu}}",
                  i == 0 ? "" : ",\n", s.name.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.request));
    doc += buf;
  }
  doc += "\n]}\n";
  return apxa::obs::write_text_file(path, doc);
}

struct Generated {
  std::vector<Request> requests;
  bool warmup_ok = true;
};

/// Set-up: generate every request from the seed, then run one untimed
/// warm-up request.
Generated set_up(const Workload& w, std::uint64_t seed, std::uint64_t count) {
  Generated g;
  g.requests.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    g.requests.push_back(make_request(w, seed, i));
  }
  g.warmup_ok = execute_request(w, make_request(w, seed, count), nullptr).failed == 0;
  return g;
}

/// Launches of the program per setup_s.
constexpr int kSetupLaunches = 11;

/// setup_s: the median, at reference speed, over kSetupLaunches launches of
/// this program with `argv` and --probe 1, of the time from the launch to
/// the probe's line saying its set-up is done.  Launching anew counts
/// loading and static initialisation.  Taking the median over launches
/// evens out how fast a given process happens to be: within one process,
/// repeated set-ups took either about 13.5 or about 16.5 ms on svc_sim,
/// depending on the process.
double setup_seconds(char** argv) {
  std::vector<char*> args;
  for (char** a = argv; *a != nullptr; ++a) args.push_back(*a);
  char flag[] = "--probe";
  char one[] = "1";
  args.push_back(flag);
  args.push_back(one);
  args.push_back(nullptr);
  std::vector<double> times;
  for (int k = 0; k < kSetupLaunches; ++k) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("set-up probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid = 0;
    const std::uint64_t t0 = now_ns();
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    char c = 0;
    bool line = false;
    while (rc == 0 && read(fds[0], &c, 1) == 1) {
      if (c == '\n') {
        line = true;
        break;
      }
    }
    const std::uint64_t t1 = now_ns();
    close(fds[0]);
    int status = 0;
    if (rc == 0) waitpid(pid, &status, 0);
    if (rc != 0 || !line || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up probe failed");
    }
    times.push_back(static_cast<double>(t1 - t0) / 1e9 * calibrate());
  }
  return percentile(times, 0.5);
}

Timed run_one(const Workload& w, const Request& r, apxa::obs::TraceSink* sink) {
  Timed t;
  const std::uint64_t f0 = page_faults();
  const double c0 = cpu_ms();
  t.outcome = execute_request(w, r, sink);
  t.cpu_ms = cpu_ms() - c0;
  t.page_faults = page_faults() - f0;
  t.speed = calibrate();
  return t;
}

int end_to_end(const Workload& w, const Generated& g, double setup_s) {
  Totals tot;
  for (const Request& r : g.requests) tot.add(run_one(w, r, nullptr));

  Report rep;
  std::printf("%s: %llu requests, %llu instances\n", w.name,
              static_cast<unsigned long long>(tot.requests),
              static_cast<unsigned long long>(tot.instances));
  rep.add("setup_s", setup_s, "s");
  rep.add("inst_per_s", tot.inst_per_s(), "1/s");
  rep.add("req_p25_ms", percentile(tot.req_ms, kTypical), "ms");
  rep.add("cpu_ms_per_inst", tot.cpu_ms_per_inst(), "ms");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("msgs_per_inst", tot.per_inst(static_cast<double>(tot.msgs)), "count");
  rep.add("bytes_per_inst", tot.per_inst(static_cast<double>(tot.bytes)), "B");
  rep.note("req_p50_ms", percentile(tot.req_ms, 0.50), "ms");
  rep.note("req_p90_ms", percentile(tot.req_ms, 0.90), "ms");
  rep.note("req_samples", static_cast<double>(tot.req_ms.size()), "count");
  rep.note("wall_req_p25_ms", percentile(tot.wall_ms, kTypical), "ms");
  rep.note("bench.calibration_ms", percentile(tot.calibration_ms, 0.50), "ms");
  if (w.backend == BackendKind::kSim) {
    rep.note("finish_p50_delta", percentile(tot.finish, 0.50), "Delta");
  } else {
    rep.note("inst_p50_ms", percentile(tot.finish, 0.50) * 1e3, "ms");
    rep.note("inst_p99_ms", percentile(tot.finish, 0.99) * 1e3, "ms");
  }
  rep.note("failed_frac", tot.per_inst(static_cast<double>(tot.failed)), "ratio");
  rep.finish(g.warmup_ok && tot.failed == 0, tot.instances, tot.failed);
  return 0;
}

TrafficShape traffic_of(const Totals& t) {
  TrafficShape traffic;
  traffic.tag_counts = t.tags;
  traffic.msgs_per_packet =
      t.packets == 0 ? 0.0
                     : static_cast<double>(t.msgs) / static_cast<double>(t.packets);
  return traffic;
}

int per_layer(const Workload& w, const Generated& g, double seconds,
              std::uint64_t seed, const std::string& spans_path) {
  // Every request runs untraced, so the request-time percentiles see the
  // whole sample.  The first quarter then also runs traced, each followed by
  // a slice of every layer replay, so that drift in the machine's speed hits
  // all three alike.  The replays total seconds / 10 per layer.
  const std::size_t quarter = std::max<std::size_t>(1, (g.requests.size() + 3) / 4);
  const double slice_s = seconds / 10.0 / static_cast<double>(quarter);
  Totals plain, head, traced;  // head: the untraced runs of the first quarter
  std::unique_ptr<LayerReplay> replay;
  double make_backend_ms = 0.0;
  std::uint64_t events = 0, dropped = 0, freezes = 0;
  std::vector<double> inst_wall_ms;
  std::vector<Span> spans;
  for (std::size_t i = 0; i < g.requests.size(); ++i) {
    const Request& r = g.requests[i];
    const Timed t = run_one(w, r, nullptr);
    plain.add(t);
    add_spans(spans, "plain", i, t.outcome);
    if (i >= quarter) continue;
    head.add(t);
    make_backend_ms += w.shape == Shape::kSession ? time_make_backend(w, r)
                                                  : t.outcome.make_backend_ms;

    apxa::obs::TraceSink sink;
    const Timed tt = run_one(w, r, &sink);
    traced.add(tt);
    const Outcome& ot = tt.outcome;
    add_spans(spans, "traced", i, ot);
    events += sink.recorded();
    dropped += sink.dropped();
    std::map<std::uint32_t, std::uint64_t> finish_ns;
    for (const auto& e : sink.snapshot()) {
      if (e.kind == apxa::obs::EventKind::kViewFreeze) ++freezes;
      if (e.kind == apxa::obs::EventKind::kInstanceFinish) {
        auto& f = finish_ns[e.peer];
        f = std::max(f, e.wall_ns);
      }
    }
    if (w.shape == Shape::kSession) {
      for (const auto& [instance, ns] : finish_ns) {
        inst_wall_ms.push_back(static_cast<double>(ns - ot.run_start_ns) / 1e6);
      }
    } else {
      inst_wall_ms.push_back(ot.run_ms);
    }

    if (!replay) replay = std::make_unique<LayerReplay>(w, seed, traffic_of(plain));
    replay->run(slice_s, spans);
  }
  const TrafficShape traffic = traffic_of(plain);
  const LayerCosts lc = replay->costs();

  // Attribution: calls per instance (from the untraced run's counters) x ns
  // per call (from the replay), as a share of CPU time per instance, both as
  // measured.  Every message goes out by multicast, so an encode serves n
  // sends.
  const double msgs = plain.per_inst(static_cast<double>(plain.msgs));
  const double packets = plain.per_inst(static_cast<double>(plain.packets));
  const double resends = plain.per_inst(static_cast<double>(plain.retransmits));
  const double encodes = msgs / w.n;
  const double freezes_per_inst = traced.per_inst(static_cast<double>(freezes));
  double averagings = 0.0;
  if (w.shape == Shape::kSession) {
    averagings = static_cast<double>(w.rounds) * (w.n - (w.crash ? 1 : 0));
  } else if (w.shape == Shape::kWitness) {
    averagings = static_cast<double>(w.rounds) * (w.n - w.byzantine);
  }
  const bool session = w.shape == Shape::kSession;
  const bool socket = w.backend == BackendKind::kSocket;
  const double cpu_ns = plain.raw_cpu_ms_per_inst() * 1e6;
  const auto share = [cpu_ns](double ns) { return cpu_ns > 0 ? ns / cpu_ns : 0.0; };
  const double a_codec = share(encodes * lc.codec_encode_ns + msgs * lc.codec_decode_ns);
  const double a_env = session ? share(encodes * lc.envelope_encode_ns +
                                       msgs * lc.envelope_decode_ns)
                               : 0.0;
  const double a_batch =
      w.batching > 0 ? share(packets * (lc.batch_encode_ns + lc.batch_unpack_ns)) : 0.0;
  const double a_metrics = share(packets * lc.note_send_ns);
  const double a_link = socket ? share(packets * lc.link_make_data_ns +
                                       (packets + resends) * lc.link_on_datagram_ns)
                               : 0.0;
  const double a_avg = share(averagings * lc.averager_ns);
  const double a_geom = share(freezes_per_inst * lc.safe_midpoint_us * 1e3);

  Report rep;
  std::printf("%s (traced pass): %zu requests untraced, the first %zu also traced\n",
              w.name, g.requests.size(), quarter);
  rep.add("req_p50_ms", percentile(plain.req_ms, 0.50), "ms");
  rep.add("req_p90_ms", percentile(plain.req_ms, 0.90), "ms");
  rep.note("req_samples", static_cast<double>(plain.req_ms.size()), "count");
  rep.add("bench.calibration_ms", percentile(plain.calibration_ms, 0.50), "ms");
  rep.add("proc.page_faults_per_req", plain.per_req(static_cast<double>(plain.page_faults)),
          "1/req");
  rep.add("harness.stage_ms", plain.per_req(plain.stage_ms), "ms");
  rep.add("harness.run_ms", plain.per_req(plain.run_ms), "ms");
  rep.add("exec.make_backend_ms", make_backend_ms / static_cast<double>(quarter), "ms");
  rep.add("runtime.claims", plain.per_inst(static_cast<double>(plain.exec.claims)), "1/inst");
  rep.add("runtime.steals", plain.per_inst(static_cast<double>(plain.exec.steals)), "1/inst");
  rep.add("runtime.idle_spins", plain.per_inst(static_cast<double>(plain.exec.idle_spins)),
          "1/inst");
  rep.add("net.sim_steps", plain.per_inst(static_cast<double>(plain.exec.steps)), "1/inst");
  rep.add("net.sim_fanned_events",
          plain.per_inst(static_cast<double>(plain.exec.fanned_events)), "1/inst");
  rep.add("net.packets_per_inst", packets, "count");
  rep.add("net.msgs_per_packet", traffic.msgs_per_packet, "ratio");
  rep.add("net.deliveries_per_inst", plain.per_inst(static_cast<double>(plain.delivered)),
          "count");
  using apxa::core::MsgType;
  rep.add("net.msgs.ROUND", plain.tag(MsgType::kRound), "1/inst");
  rep.add("net.msgs.RB_SEND", plain.tag(MsgType::kRbSend), "1/inst");
  rep.add("net.msgs.RB_ECHO", plain.tag(MsgType::kRbEcho), "1/inst");
  rep.add("net.msgs.RB_READY", plain.tag(MsgType::kRbReady), "1/inst");
  rep.add("net.msgs.REPORT", plain.tag(MsgType::kReport), "1/inst");
  rep.add("net.msgs.VEC", plain.tag(MsgType::kVecRound), "1/inst");
  const double rate =
      plain.packets == 0 ? 0.0
                         : static_cast<double>(plain.retransmits) /
                               static_cast<double>(plain.packets);
  rep.add("netio.retransmit_rate", rate, "ratio");
  rep.add("netio.useful_packet_ratio", 1.0 / (1.0 + rate), "ratio");
  if (socket) {
    const double span_ms = apxa::rt::kSocketLatencySpan * 1e3;
    rep.note("netio.deliver_p50_ms", histogram_quantile(plain.latency, 0.50) * span_ms, "ms");
    rep.note("netio.deliver_p99_ms", histogram_quantile(plain.latency, 0.99) * span_ms, "ms");
  }
  rep.add("core.codec.encode_ns", lc.codec_encode_ns, "ns");
  rep.add("core.codec.decode_ns", lc.codec_decode_ns, "ns");
  rep.add("net.envelope.encode_ns", lc.envelope_encode_ns, "ns");
  rep.add("net.envelope.decode_ns", lc.envelope_decode_ns, "ns");
  rep.add("net.batch.encode_ns", lc.batch_encode_ns, "ns");
  rep.add("net.batch.unpack_ns", lc.batch_unpack_ns, "ns");
  rep.add("net.metrics.note_send_ns", lc.note_send_ns, "ns");
  rep.add("netio.link.make_data_ns", lc.link_make_data_ns, "ns");
  rep.add("netio.link.on_datagram_ns", lc.link_on_datagram_ns, "ns");
  rep.add("core.averager.apply_ns", lc.averager_ns, "ns");
  rep.add("geom.safe_midpoint_us", lc.safe_midpoint_us, "us");
  rep.add("obs.trace_record_ns", lc.trace_record_ns, "ns");
  rep.add("attr.codec", a_codec, "share");
  rep.add("attr.envelope", a_env, "share");
  rep.add("attr.batch", a_batch, "share");
  rep.add("attr.metrics", a_metrics, "share");
  rep.add("attr.link", a_link, "share");
  rep.add("attr.averager", a_avg, "share");
  rep.add("attr.geom", a_geom, "share");
  rep.add("attr.other",
          1.0 - (a_codec + a_env + a_batch + a_metrics + a_link + a_avg + a_geom),
          "share");
  rep.add("obs.trace_overhead_pct",
          (head.inst_per_s() / traced.inst_per_s() - 1.0) * 100.0, "%");
  rep.add("obs.events_per_inst", traced.per_inst(static_cast<double>(events)), "1/inst");
  rep.add("obs.events_dropped", static_cast<double>(dropped), "count");
  rep.add("core.view_freezes_per_inst", freezes_per_inst, "1/inst");
  rep.add("session.inst_wall_p50_ms", percentile(inst_wall_ms, 0.50), "ms");
  rep.add("session.inst_wall_p99_ms", percentile(inst_wall_ms, 0.99), "ms");

  bool spans_ok = true;
  if (!spans_path.empty()) {
    spans_ok = write_spans(spans_path, spans);
    if (!spans_ok) std::fprintf(stderr, "aabench: cannot write %s\n", spans_path.c_str());
  }
  const std::uint64_t failed = plain.failed + traced.failed;
  rep.finish(g.warmup_ok && failed == 0 && lc.ok && spans_ok,
             plain.instances + traced.instances, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process, as a long-lived service would.  Under
  // glibc's defaults each session's teardown hands the top of the heap and
  // every block over 128 KiB back to the kernel, and the next request faults
  // them back in: about 600 page faults per svc_sim request, whose cost on a
  // virtual machine swings with the host's load.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  const Args a = parse(argc, argv);
  const Workload* found = find_workload(a.workload);
  if (found == nullptr) usage("unknown workload");
  Workload w = *found;
  if (a.loss >= 0.0) w.loss = a.loss;
  const std::uint64_t count =
      a.requests > 0 ? a.requests
                     : std::max(kMinRequests,
                                static_cast<std::uint64_t>(
                                    std::llround(a.seconds * w.nominal_req_per_s)));
  try {
    if (a.probe) {
      if (!set_up(w, a.seed, count).warmup_ok) return 1;
      std::printf("set up\n");
      return 0;
    }
    if (a.trace == 1) {
      return per_layer(w, set_up(w, a.seed, count), a.seconds, a.seed, a.spans);
    }
    const double setup_s = setup_seconds(argv);
    return end_to_end(w, set_up(w, a.seed, count), setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aabench: %s: %s\n", w.name, e.what());
    return 1;
  }
}
