// Socket party: one OS process per protocol party, talking real UDP.
//
// The socket transport's multi-process mode — fixed ports, remote peers,
// a linger window so the link layer keeps retransmitting for slower peers
// after the local party decides.  Each invocation with --party hosts exactly
// ONE party of an n-party crash-model approximate-agreement run; the peers
// are other OS processes (other terminals, containers, or the orchestrator
// mode below).
//
//   Host party 2 of a 5-party deployment on ports 19000 + id:
//     $ ./socket_party --party 2 --base-port 19000
//
//   Orchestrator smoke mode (no --party): fork all n parties as child
//   processes of this binary and wait for them — a full multi-process
//   deployment in one command, which is also what CTest runs:
//     $ ./socket_party
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/async_byz.hpp"
#include "core/async_crash.hpp"
#include "core/bounds.hpp"
#include "netio/socket_net.hpp"

namespace {

struct Options {
  int party = -1;  // -1 = orchestrator mode
  std::uint16_t base_port = 0;
  std::uint32_t n = 5;
  std::uint32_t t = 1;
  apxa::Round rounds = 0;  // 0 = provable count for the input range
  double loss = 0.0;       // injected datagram loss, every party
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--party ID] [--base-port P] [--n N] [--t T] "
               "[--rounds R] [--loss X]\n"
               "  --party ID    host only party ID (multi-process mode; "
               "requires --base-port)\n"
               "  without --party: fork all n parties and wait (smoke mode)\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--party") == 0) {
      o.party = std::atoi(next());
    } else if (std::strcmp(argv[i], "--base-port") == 0) {
      o.base_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--n") == 0) {
      o.n = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--t") == 0) {
      o.t = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      o.rounds = static_cast<apxa::Round>(std::atoi(next()));
    } else if (std::strcmp(argv[i], "--loss") == 0) {
      o.loss = std::atof(next());
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

double input_of(std::uint32_t id) { return 20.0 + 0.3 * id; }

/// Host ONE party; peers are other OS processes at base_port + id.
int run_party(const Options& o) {
  using namespace apxa;
  const SystemParams p{o.n, o.t};
  const Round rounds =
      o.rounds > 0 ? o.rounds
                   : core::rounds_for_bound(0.3 * (o.n - 1), 1e-2,
                                            core::Averager::kMean, p);
  const auto id = static_cast<ProcessId>(o.party);

  rt::SocketNetwork net(p);
  net.set_fixed_ports(o.base_port);
  for (ProcessId q = 0; q < p.n; ++q) {
    if (q != id) net.set_party_remote(q);
  }
  net.add_process_at(id, std::make_unique<core::RoundAaProcess>(
                             core::crash_aa_config(p, input_of(id), rounds)));
  if (o.loss > 0.0) {
    netio::FaultConfig faults;
    faults.loss = o.loss;
    faults.seed = 7;
    net.set_fault_config(faults);
  }
  // Keep acking/retransmitting after our own decision: a peer one round
  // behind still needs our final-round frames.
  net.set_linger(std::chrono::milliseconds(500));

  const bool ok = net.run(std::chrono::seconds(30));
  const auto y = net.inbox().process(id).output();
  if (!ok || !y) {
    std::fprintf(stderr, "party %u: no output (peers unreachable?)\n", id);
    return 1;
  }
  const auto& m = net.metrics();
  std::printf("party %u: input=%.2f output=%.6f rounds=%u retransmits=%llu\n",
              id, input_of(id), *y, rounds,
              static_cast<unsigned long long>(m.packets_retransmitted));
  return 0;
}

/// Fork one child per party, each re-executing this binary with --party.
int run_orchestrator(const Options& o, const char* argv0) {
  // Derive a per-run port range so parallel CI jobs don't collide.
  const std::uint16_t base =
      o.base_port != 0
          ? o.base_port
          : static_cast<std::uint16_t>(20'000 + (::getpid() * 131) % 30'000);
  std::printf("forking %u parties on ports %u..%u (loss=%.0f%%)\n", o.n, base,
              base + o.n - 1, o.loss * 100.0);

  std::vector<pid_t> kids;
  for (std::uint32_t id = 0; id < o.n; ++id) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      const std::string party = std::to_string(id);
      const std::string port = std::to_string(base);
      const std::string n = std::to_string(o.n);
      const std::string t = std::to_string(o.t);
      const std::string loss = std::to_string(o.loss);
      ::execl(argv0, argv0, "--party", party.c_str(), "--base-port",
              port.c_str(), "--n", n.c_str(), "--t", t.c_str(), "--loss",
              loss.c_str(), static_cast<char*>(nullptr));
      std::perror("execl");
      std::_Exit(127);
    }
    kids.push_back(pid);
  }

  bool all_ok = true;
  for (const pid_t pid : kids) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid ||
        !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
      all_ok = false;
    }
  }
  std::printf("multi-process deployment: %s\n", all_ok ? "ok" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.n < 2 || o.t >= o.n) usage(argv[0]);
  if (o.party >= 0) {
    if (o.base_port == 0 || o.party >= static_cast<int>(o.n)) usage(argv[0]);
    return run_party(o);
  }
  // Smoke mode doubles as the CTest entry: a clean deployment, then one with
  // injected loss exercising cross-process retransmission.
  Options lossy = o;
  lossy.loss = 0.10;
  return run_orchestrator(o, argv[0]) != 0 ? 1
                                           : run_orchestrator(lossy, argv[0]);
}
