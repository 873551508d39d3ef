// Layer replay: ns per call of each layer a message passes through, timed
// over inputs shaped like the workload's own traffic (its tag mix, system
// size, instance count, packing and value dimension).  The replayed frames
// are also round-tripped once, outside the timed loops, as a check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>

#include "bench.hpp"
#include "core/codec.hpp"
#include "core/multidim.hpp"
#include "core/multiset_ops.hpp"
#include "geom/safe_area.hpp"
#include "net/envelope.hpp"
#include "netio/link.hpp"

namespace aabench {

namespace {

using apxa::Bytes;
using apxa::BytesView;
using apxa::core::MsgType;

constexpr std::size_t kSamples = 4096;
constexpr std::size_t kViews = 64;

/// Keeps replayed results observable so no call is optimised away.
volatile std::uint64_t g_sink = 0;

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return splitmix(state); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// A value from the workload's input range.
  double input(const Workload& w) {
    return w.input_lo + (w.input_hi - w.input_lo) * uniform();
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
};

/// One logical protocol message, before encoding.
struct Message {
  MsgType type = MsgType::kRound;
  apxa::core::RoundMsg round;
  apxa::core::RbMsg rb;
  apxa::core::ReportMsg report;
  std::vector<double> vec;
};

Bytes encode(const Message& m) {
  switch (m.type) {
    case MsgType::kRound:
      return apxa::core::encode_round(m.round);
    case MsgType::kRbSend:
    case MsgType::kRbEcho:
    case MsgType::kRbReady:
      return apxa::core::encode_rb(m.rb);
    case MsgType::kReport:
      return apxa::core::encode_report(m.report);
    default:
      return apxa::core::encode_vec_round(m.round.round, m.vec);
  }
}

/// Decode by tag; returns the decoded message's value-carrying size so the
/// caller can both keep the result alive and check the round trip.
std::optional<std::size_t> decode(BytesView frame) {
  const auto type = apxa::core::peek_type(frame);
  if (!type) return std::nullopt;
  switch (*type) {
    case MsgType::kRound:
      if (const auto m = apxa::core::decode_round(frame)) return m->round + 1;
      return std::nullopt;
    case MsgType::kRbSend:
    case MsgType::kRbEcho:
    case MsgType::kRbReady:
      if (const auto m = apxa::core::decode_rb(frame)) return m->origin + 1;
      return std::nullopt;
    case MsgType::kReport:
      if (const auto m = apxa::core::decode_report(frame)) return m->have.size();
      return std::nullopt;
    default:
      if (const auto m = apxa::core::decode_vec_round(frame)) {
        return m->second.size();
      }
      return std::nullopt;
  }
}

std::size_t expected_decode(const Message& m) {
  switch (m.type) {
    case MsgType::kRound:
      return m.round.round + 1;
    case MsgType::kRbSend:
    case MsgType::kRbEcho:
    case MsgType::kRbReady:
      return m.rb.origin + 1;
    case MsgType::kReport:
      return m.report.have.size();
    default:
      return m.vec.size();
  }
}

/// The tags the replay can synthesise, drawn in the run's proportions.
std::vector<Message> sample_messages(const Workload& w, Rng& rng,
                                     const TagCounts& tags) {
  const MsgType kinds[] = {MsgType::kRound,   MsgType::kRbSend,
                           MsgType::kRbEcho,  MsgType::kRbReady,
                           MsgType::kReport,  MsgType::kVecRound};
  std::uint64_t total = 0;
  for (const MsgType k : kinds) total += tags[static_cast<std::size_t>(k)];
  std::vector<Message> out(kSamples);
  for (Message& m : out) {
    m.type = w.dim > 1 ? MsgType::kVecRound : MsgType::kRound;
    if (total > 0) {
      std::uint64_t pick = rng.next() % total;
      for (const MsgType k : kinds) {
        const std::uint64_t c = tags[static_cast<std::size_t>(k)];
        if (pick < c) {
          m.type = k;
          break;
        }
        pick -= c;
      }
    }
    const auto round = static_cast<apxa::Round>(rng.below(w.rounds + 1));
    m.round = {round, rng.input(w), 0};
    m.rb = {m.type, round, rng.below(w.n), rng.input(w)};
    m.report.iter = round;
    m.report.have.resize(w.n);
    for (std::size_t i = 0; i < w.n; ++i) m.report.have[i] = rng.below(2) == 1;
    m.vec.resize(w.dim);
    for (double& x : m.vec) x = rng.input(w);
  }
  return out;
}

using View = std::vector<std::vector<double>>;
using Mask = std::vector<std::uint8_t>;

/// Frozen views as the safe-area protocol produces them: each round every
/// honest party averages, with safe_midpoint itself, a view of n - t current
/// values, its own and the others drawn at random from the honest parties
/// (attackers speak last and rarely make it into a view).  Like the protocol
/// it trusts its own entry and any copy of it.  Feeding the rule its own
/// output reproduces how real views collapse onto certified clusters within
/// a round or two, which is what sets the cost of a call.
void emulate_views(const Workload& w, Rng& rng, std::vector<View>& views,
                   std::vector<Mask>& masks) {
  constexpr int kInstances = 10;
  const std::uint32_t honest = w.n - w.byzantine;
  const std::uint32_t m = w.n - w.t;
  for (int k = 0; k < kInstances; ++k) {
    View values(honest, std::vector<double>(w.dim));
    for (auto& v : values) {
      for (double& x : v) x = rng.input(w);
    }
    for (std::uint32_t round = 0; round < w.rounds; ++round) {
      View next = values;
      for (std::uint32_t p = 0; p < honest; ++p) {
        std::vector<std::uint32_t> others;
        for (std::uint32_t q = 0; q < honest; ++q) {
          if (q != p) others.push_back(q);
        }
        View view = {values[p]};
        for (std::uint32_t i = 0; i + 1 < m; ++i) {
          const std::uint32_t pick =
              i + rng.below(static_cast<std::uint32_t>(others.size()) - i);
          std::swap(others[i], others[pick]);
          view.push_back(values[others[i]]);
        }
        Mask trusted(view.size(), 0);
        for (std::size_t i = 0; i < view.size(); ++i) {
          trusted[i] = i == 0 || apxa::geom::same_point(view[i], values[p]);
        }
        next[p] = apxa::geom::safe_midpoint(view, w.t, {}, trusted).point;
        views.push_back(std::move(view));
        masks.push_back(std::move(trusted));
      }
      values = std::move(next);
    }
  }
}

enum Layer : std::size_t {
  kEncode, kDecode, kEnvelopeEncode, kEnvelopeDecode, kBatchEncode,
  kBatchUnpack, kNoteSend, kLinkMakeData, kLinkOnDatagram, kAverager, kGeom,
  kTraceRecord, kLayers
};

constexpr const char* kLayerNames[kLayers] = {
    "core.codec.encode",     "core.codec.decode",     "net.envelope.encode",
    "net.envelope.decode",   "net.batch.encode",      "net.batch.unpack",
    "net.metrics.note_send", "netio.link.make_data",  "netio.link.on_datagram",
    "core.averager.apply",   "geom.safe_midpoint",    "obs.trace_record"};

/// Calls per timed step: enough that reading the clock costs little.
constexpr std::size_t kBurst[kLayers] = {64, 64, 64, 64, 8, 8, 64, 64, 64, 16, 1, 256};

}  // namespace

struct LayerReplay::State {
  struct Meter {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    std::size_t cursor = 0;
  };

  Workload w;
  std::vector<Message> msgs;
  std::vector<Bytes> frames, envelopes, batches;
  std::vector<std::uint32_t> instance_of;
  std::size_t per_batch = 1;
  /// Wire packets as the transports see them: batches of the measured
  /// packing, envelopes when multiplexed, bare frames otherwise.
  const std::vector<Bytes>* packets = nullptr;
  apxa::net::Metrics metrics;
  // A sender/receiver pair exchanging the workload's packets; acks flow back
  // untimed after every burst so the resend queue never fills.
  apxa::netio::PeerLink sender, receiver;
  std::vector<Bytes> dgrams;
  std::vector<apxa::netio::Delivered> delivered, acked;
  apxa::core::Averager rule = apxa::core::Averager::kMean;
  std::vector<std::vector<double>> samples;
  std::vector<View> views;
  std::vector<Mask> masks;
  apxa::obs::TraceSink sink{std::size_t{1} << 12};
  bool ok = true;
  Meter meters[kLayers];

  /// One burst of calls into layer `l`; returns the number of calls.
  std::size_t step(Layer l);
  /// Times the link for `budget_ns`: make_data and on_datagram separately.
  void link_slice(std::uint64_t budget_ns);
};

std::size_t LayerReplay::State::step(Layer l) {
  Meter& m = meters[l];
  std::uint64_t sum = 0;
  const auto next = [&m](std::size_t size) {
    const std::size_t i = m.cursor;
    m.cursor = (m.cursor + 1) % size;
    return i;
  };
  for (std::size_t k = 0; k < kBurst[l]; ++k) {
    switch (l) {
      case kEncode:
        sum += encode(msgs[next(msgs.size())]).size();
        break;
      case kDecode:
        sum += decode(frames[next(frames.size())]).value_or(0);
        break;
      case kEnvelopeEncode: {
        const std::size_t i = next(frames.size());
        sum += apxa::net::encode_envelope(instance_of[i], frames[i]).size();
        break;
      }
      case kEnvelopeDecode:
        if (const auto v = apxa::net::decode_envelope(envelopes[next(envelopes.size())])) {
          sum += v->instance;
        }
        break;
      case kBatchEncode: {
        const std::size_t i = next(batches.size()) * per_batch;
        sum += apxa::net::encode_batch(
                   std::span<const Bytes>(envelopes.data() + i, per_batch))
                   .size();
        break;
      }
      case kBatchUnpack:
        sum += apxa::net::unpack_packet(batches[next(batches.size())]).size();
        break;
      case kNoteSend: {
        const std::size_t i = next(packets->size());
        metrics.note_send(static_cast<ProcessId>(i % w.n), (*packets)[i]);
        break;
      }
      case kAverager:
        sum += static_cast<std::uint64_t>(
            apxa::core::apply_averager(rule, samples[next(samples.size())], w.t));
        break;
      case kGeom: {
        // A fresh copy, as the protocol builds its points right before the
        // call: a view stored long ago sits scattered in the heap.
        const std::size_t i = next(views.size());
        const View points = views[i];
        sum += static_cast<std::uint64_t>(
            apxa::geom::safe_midpoint(points, w.t, {}, masks[i]).point[0]);
        break;
      }
      case kTraceRecord: {
        const std::size_t i = next(kSamples);
        sink.record(apxa::obs::EventKind::kSend, static_cast<std::uint32_t>(i % w.n),
                    static_cast<std::uint32_t>((i + 1) % w.n),
                    static_cast<std::int64_t>(i), 0.5, 1.0);
        break;
      }
      default:
        break;
    }
  }
  g_sink = g_sink + sum;
  return kBurst[l];
}

void LayerReplay::State::link_slice(std::uint64_t budget_ns) {
  Meter& make = meters[kLinkMakeData];
  Meter& recv = meters[kLinkOnDatagram];
  const std::uint64_t start = now_ns();
  do {
    const auto now = apxa::netio::PeerLink::Clock::now();
    dgrams.clear();
    const std::uint64_t t0 = now_ns();
    for (std::size_t k = 0; k < kBurst[kLinkMakeData]; ++k) {
      dgrams.push_back(sender.make_data((*packets)[make.cursor], now));
      make.cursor = (make.cursor + 1) % packets->size();
    }
    const std::uint64_t t1 = now_ns();
    delivered.clear();
    for (const Bytes& d : dgrams) receiver.on_datagram(d, now, delivered);
    const std::uint64_t t2 = now_ns();
    make.ns += t1 - t0;
    recv.ns += t2 - t1;
    make.calls += dgrams.size();
    recv.calls += dgrams.size();
    if (delivered.size() != dgrams.size()) ok = false;
    while (const auto ack = receiver.take_ack_frame()) {
      sender.on_datagram(*ack, now, acked);
    }
  } while (now_ns() - start < budget_ns);
}

LayerReplay::LayerReplay(const Workload& w, std::uint64_t seed,
                         const TrafficShape& traffic)
    : s_(std::make_unique<State>()) {
  State& s = *s_;
  s.w = w;
  Rng rng{seed ^ 0x5DEECE66Dull};
  s.msgs = sample_messages(w, rng, traffic.tag_counts);
  for (const Message& m : s.msgs) {
    s.frames.push_back(encode(m));
    s.instance_of.push_back(rng.below(w.instances));
    s.envelopes.push_back(
        apxa::net::encode_envelope(s.instance_of.back(), s.frames.back()));
  }
  for (std::size_t i = 0; i < s.msgs.size(); ++i) {
    if (decode(s.frames[i]) != expected_decode(s.msgs[i])) s.ok = false;
    const auto env = apxa::net::decode_envelope(s.envelopes[i]);
    if (!env || env->instance != s.instance_of[i] ||
        !std::equal(env->payload.begin(), env->payload.end(),
                    s.frames[i].begin(), s.frames[i].end())) {
      s.ok = false;
    }
  }
  s.per_batch = static_cast<std::size_t>(std::clamp(
      std::lround(traffic.msgs_per_packet), 1l,
      static_cast<long>(apxa::net::kMaxBatchFrames)));
  for (std::size_t i = 0; i + s.per_batch <= s.envelopes.size(); i += s.per_batch) {
    s.batches.push_back(apxa::net::encode_batch(
        std::span<const Bytes>(s.envelopes.data() + i, s.per_batch)));
    if (apxa::net::unpack_packet(s.batches.back()).size() != s.per_batch) {
      s.ok = false;
    }
  }
  s.packets = w.batching > 0 ? &s.batches
                             : (w.shape == Shape::kSession ? &s.envelopes : &s.frames);
  s.metrics.reset(w.n);
  s.rule = w.shape == Shape::kWitness ? apxa::core::Averager::kReduceMidpoint
                                      : apxa::core::Averager::kMean;
  s.samples.assign(kViews, std::vector<double>(w.n - w.t));
  for (auto& v : s.samples) {
    for (double& x : v) x = rng.input(w);
  }
  emulate_views(w, rng, s.views, s.masks);
}

LayerReplay::~LayerReplay() = default;

void LayerReplay::run(double seconds_per_layer, std::vector<Span>& spans) {
  State& s = *s_;
  const auto budget = static_cast<std::uint64_t>(seconds_per_layer * 1e9);
  for (std::size_t i = 0; i < kLayers; ++i) {
    const auto l = static_cast<Layer>(i);
    if (l == kLinkOnDatagram) continue;  // timed together with make_data
    const std::uint64_t start = now_ns();
    if (l == kLinkMakeData) {
      s.link_slice(2 * budget);
    } else {
      std::uint64_t calls = 0;
      std::uint64_t now = start;
      do {
        calls += s.step(l);
        now = now_ns();
      } while (now - start < budget);
      s.meters[l].ns += now - start;
      s.meters[l].calls += calls;
    }
    spans.push_back({std::string("replay/") + kLayerNames[l], start, now_ns(), 0});
  }
}

LayerCosts LayerReplay::costs() const {
  const State& s = *s_;
  const auto per_call = [&s](Layer l) {
    const auto& m = s.meters[l];
    return m.calls == 0 ? 0.0
                        : static_cast<double>(m.ns) / static_cast<double>(m.calls);
  };
  LayerCosts c;
  c.codec_encode_ns = per_call(kEncode);
  c.codec_decode_ns = per_call(kDecode);
  c.envelope_encode_ns = per_call(kEnvelopeEncode);
  c.envelope_decode_ns = per_call(kEnvelopeDecode);
  c.batch_encode_ns = per_call(kBatchEncode);
  c.batch_unpack_ns = per_call(kBatchUnpack);
  c.note_send_ns = per_call(kNoteSend);
  c.link_make_data_ns = per_call(kLinkMakeData);
  c.link_on_datagram_ns = per_call(kLinkOnDatagram);
  c.averager_ns = per_call(kAverager);
  c.safe_midpoint_us = per_call(kGeom) / 1e3;
  c.trace_record_ns = per_call(kTraceRecord);
  c.ok = s.ok;
  return c;
}

}  // namespace aabench
