// F5 — Delta-normalized latency vs precision.
//
// The simulator's virtual time is normalized so the maximum correct-to-
// correct delay is 1; a protocol's finish time therefore IS its asynchronous
// round complexity.  Latency must grow linearly in log(S/eps), with slope
// 1/log2(K).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "bench_util.hpp"
#include "core/async_byz.hpp"
#include "core/bounds.hpp"
#include "netio/socket_net.hpp"

int main(int argc, char** argv) {
  using namespace apxa;
  using namespace apxa::core;
  using namespace apxa::harness;

  bench::JsonSink sink(argc, argv, "f5");
  std::printf(
      "F5 — Finish time (in Delta units) vs log2(S/eps), random scheduler.\n\n");
  std::printf("series,log2(S/eps),budget_rounds,finish_time\n");
  sink.begin_section("latency",
                     {"series", "log2_ratio", "budget_rounds", "finish_time"});

  struct Row {
    const char* name;
    ProtocolKind kind;
    SystemParams p;
    Averager avg;
  };
  const Row rows[] = {
      {"crash-mean", ProtocolKind::kCrashRound, {16, 3}, Averager::kMean},
      {"crash-midpoint", ProtocolKind::kCrashRound, {16, 3}, Averager::kMidpoint},
      {"byz-dlpsw", ProtocolKind::kByzRound, {16, 3}, Averager::kDlpswAsync},
      {"witness", ProtocolKind::kWitness, {16, 5}, Averager::kReduceMidpoint},
  };

  // One flat (series x precision) grid through the parallel sweep runner;
  // reports come back in input order, so the printed series are unchanged.
  struct Cell {
    const char* name;
    int log_ratio;
    Round budget;
  };
  std::vector<Cell> cells;
  std::vector<RunConfig> grid;
  for (const auto& row : rows) {
    const double k = row.kind == ProtocolKind::kWitness
                         ? predicted_factor_witness()
                         : predicted_factor(row.avg, row.p.n, row.p.t);
    for (int log_ratio = 3; log_ratio <= 30; log_ratio += 3) {
      const double eps = std::pow(2.0, -log_ratio);
      RunConfig cfg;
      cfg.params = row.p;
      cfg.protocol = row.kind;
      cfg.epsilon = eps;
      cfg.inputs = linear_inputs(row.p.n, 0.0, 1.0);
      cfg.fixed_rounds = std::max<Round>(1, rounds_needed(1.0, eps, k));
      cells.push_back({row.name, log_ratio, cfg.fixed_rounds});
      grid.push_back(std::move(cfg));
    }
  }
  const auto reports = harness::run_many(grid);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    std::printf("%s,%d,%u,%.3f\n", cells[i].name, cells[i].log_ratio,
                cells[i].budget, reports[i].finish_time);
    sink.add_row({cells[i].name, std::to_string(cells[i].log_ratio),
                  std::to_string(cells[i].budget),
                  bench::fmt(reports[i].finish_time)});
  }

  // Per-tag delivery latency (virtual time send->deliver, Delta units) from
  // each series' deepest-precision run — the one with the most deliveries,
  // so the histogram tails are best populated.  The quantiles expose what
  // the finish-time aggregate hides: which protocol PHASE pays the
  // scheduler's tail (e.g. witness REPORT vs RB READY traffic).
  static const char* const kTagNames[] = {
      "unknown",  "ROUND",    "DONE",     "RB_SEND",     "RB_ECHO",
      "RB_READY", "REPORT",   "VEC",      "RBVEC_SEND",  "RBVEC_ECHO",
      "RBVEC_READY"};
  std::printf("\nseries,tag,samples,p50,p99 (Delta units, deepest run)\n");
  sink.begin_section("delivery_latency",
                     {"series", "tag", "samples", "p50", "p99"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    // Last cell of a series: the next cell starts a new series (or the grid
    // ends).
    const bool last_of_series =
        i + 1 == reports.size() ||
        std::strcmp(cells[i].name, cells[i + 1].name) != 0;
    if (!last_of_series) continue;
    const net::Metrics& m = reports[i].metrics;
    for (std::size_t tag = 0; tag <= net::Metrics::kMaxTag; ++tag) {
      const std::uint64_t samples = m.latency_samples(tag);
      if (samples == 0) continue;
      const char* tname =
          tag < std::size(kTagNames) ? kTagNames[tag] : "unknown";
      const double p50 = m.latency_quantile(tag, 0.50);
      const double p99 = m.latency_quantile(tag, 0.99);
      std::printf("%s,%s,%llu,%.4f,%.4f\n", cells[i].name, tname,
                  static_cast<unsigned long long>(samples), p50, p99);
      sink.add_row({cells[i].name, tname, std::to_string(samples),
                    bench::fmt(p50), bench::fmt(p99)});
    }
  }

  // Wall-clock latency over real loopback UDP (socket backend), clean and
  // under deterministic injected loss.  Quantiles are REAL milliseconds
  // (histogram units scaled by rt::kSocketLatencySpan); the retransmit rate
  // is the wire overhead the perfect link pays to absorb the loss.  The CI
  // bench-smoke gate checks this section: verdicts all ok, and the lossy
  // rows actually exercised retransmission (rate > 0).
  std::printf("\nsocket loopback (wall clock)\n");
  std::printf("series,loss,verdict,retransmit_rate,p50_ms,p99_ms\n");
  sink.begin_section("socket_loopback", {"series", "loss", "verdict",
                                         "retransmit_rate", "p50_ms", "p99_ms"});
  struct SocketRow {
    const char* name;
    ProtocolKind kind;
    SystemParams p;
    Averager avg;
    double loss;
  };
  const SocketRow socket_rows[] = {
      {"crash-mean", ProtocolKind::kCrashRound, {8, 1}, Averager::kMean, 0.0},
      {"crash-mean", ProtocolKind::kCrashRound, {8, 1}, Averager::kMean, 0.10},
      {"byz-dlpsw", ProtocolKind::kByzRound, {6, 1}, Averager::kDlpswAsync, 0.0},
      {"byz-dlpsw", ProtocolKind::kByzRound, {6, 1}, Averager::kDlpswAsync, 0.10},
  };
  for (const auto& row : socket_rows) {
    const double eps = 1e-2;
    RunConfig cfg;
    cfg.params = row.p;
    cfg.protocol = row.kind;
    cfg.averager = row.avg;
    cfg.epsilon = eps;
    cfg.inputs = linear_inputs(row.p.n, 0.0, 1.0);
    cfg.fixed_rounds = rounds_for_bound(1.0, eps, row.avg, row.p);
    cfg.backend = harness::BackendKind::kSocket;
    cfg.socket_faults.loss = row.loss;
    cfg.socket_faults.seed = 7;
    cfg.thread_timeout = std::chrono::milliseconds(60'000);
    const harness::RunReport rep = harness::run(cfg);
    const bool ok = rep.all_output && rep.validity_ok && rep.agreement_ok;
    const net::Metrics& m = rep.metrics;
    // Tag 1 (ROUND) carries the round traffic on both protocols here.
    const double to_ms = rt::kSocketLatencySpan * 1e3;
    const double p50 = m.latency_quantile(1, 0.50) * to_ms;
    const double p99 = m.latency_quantile(1, 0.99) * to_ms;
    std::printf("%s,%.2f,%s,%.4f,%.3f,%.3f\n", row.name, row.loss,
                ok ? "ok" : "FAILED", m.retransmit_rate(), p50, p99);
    sink.add_row({row.name, bench::fmt(row.loss), ok ? "ok" : "FAILED",
                  bench::fmt(m.retransmit_rate()), bench::fmt(p50),
                  bench::fmt(p99)});
  }

  std::printf(
      "\nExpected shape: straight lines in log2(S/eps); witness iterations cost\n"
      "~3 Delta each (RB SEND/ECHO/READY + report) vs ~1 Delta per plain round,\n"
      "so its line is steeper than byz-dlpsw even at the same factor 2.\n"
      "Socket rows: p50 well under a millisecond on loopback; injected loss\n"
      "must raise retransmit_rate above zero while leaving verdicts intact.\n");
  return sink.finish();
}
