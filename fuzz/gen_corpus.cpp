// Seed-corpus generator: writes one small set of structurally interesting
// inputs per fuzz target into fuzz/corpus/<target>/ using the library's OWN
// encoders, so every seed is a genuinely valid frame (plus a few hand-built
// adversarial ones: overlong varints, truncated ack lists, nested batches).
//
// Run from the repo root after changing a wire format, then commit the
// result:   ./build/fuzz/gen_corpus fuzz/corpus
//
// The committed corpus is replayed by tests/fuzz_corpus_replay_test.cpp on
// every build and used as the libFuzzer starting population in CI.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "core/codec.hpp"
#include "net/envelope.hpp"
#include "netio/link.hpp"

namespace {

using apxa::Bytes;

void write_seed(const std::filesystem::path& dir, const std::string& name,
                const Bytes& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream f(dir / name, std::ios::binary);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

Bytes raw(std::initializer_list<unsigned> bytes) {
  Bytes out;
  for (unsigned b : bytes) out.push_back(static_cast<std::byte>(b));
  return out;
}

Bytes cat(const Bytes& a, const Bytes& b) {
  Bytes out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  using namespace apxa;
  const fs::path root = argc > 1 ? argv[1] : "fuzz/corpus";

  // --- fuzz_codec: one valid frame per message type + adversarial varints --
  {
    const fs::path dir = root / "fuzz_codec";
    write_seed(dir, "round", core::encode_round({3, 0.25, 7}));
    write_seed(dir, "round-nan",
               core::encode_round({1, std::nan(""), 0}));
    write_seed(dir, "done", core::encode_done({5, -1.5}));
    write_seed(dir, "rb-echo",
               core::encode_rb({core::MsgType::kRbEcho, 2, 4, 3.75}));
    core::ReportMsg rep;
    rep.iter = 2;
    rep.have = {true, false, true, true, false};
    write_seed(dir, "report", core::encode_report(rep));
    core::RbVecMsg rv;
    rv.type = core::MsgType::kRbVecReady;
    rv.instance = 1;
    rv.origin = 2;
    rv.value = {0.5, -0.5, 2.0};
    write_seed(dir, "rbvec-ready", core::encode_rb_vec(rv));
    write_seed(dir, "vec-round", core::encode_vec_round(2, {1.0, 2.0}));
    // Overlong 10-byte varint whose 10th byte claims bits past 63: the
    // 2^64-wrap forgery the hardened ByteReader must reject.
    write_seed(dir, "varint-wrap",
               raw({1, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                    0x02}));
    write_seed(dir, "truncated", raw({1, 3}));
  }

  // --- fuzz_envelope: valid envelopes + the instance-id varint boundary ----
  {
    const fs::path dir = root / "fuzz_envelope";
    const Bytes inner = core::encode_round({1, 0.5, 0});
    write_seed(dir, "round-in-envelope", net::encode_envelope(7, inner));
    write_seed(dir, "instance-max",
               net::encode_envelope(0xffffffffu, inner));
    // Forged envelope whose instance varint encodes instance + 2^64 — must
    // NOT alias the small instance id (the PR 10 overflow fix).
    write_seed(dir, "overflow-aliased-instance",
               cat(raw({11, 0x87, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                        0x80, 0x02}),
                   inner));
    write_seed(dir, "empty-payload", raw({11, 7}));
  }

  // --- fuzz_batch: packed frames, nesting refusal, forged counts ----------
  {
    const fs::path dir = root / "fuzz_batch";
    const std::vector<Bytes> frames = {
        net::encode_envelope(1, core::encode_round({1, 0.25, 0})),
        net::encode_envelope(2, core::encode_done({2, 0.5})),
        core::encode_round({3, -0.125, 1}),
    };
    const Bytes batch = net::encode_batch(frames);
    write_seed(dir, "three-frames", batch);
    // encode_batch itself refuses to nest (ENSURE), so forge the nested
    // packet by hand: [tag][count=1][len][inner batch] — the decoder must
    // reject it.
    Bytes nested = raw({12, 1});
    {
      ByteWriter w;
      w.put_varint(batch.size());
      const Bytes len = std::move(w).take();
      nested.insert(nested.end(), len.begin(), len.end());
      nested.insert(nested.end(), batch.begin(), batch.end());
    }
    write_seed(dir, "nested-batch", nested);
    write_seed(dir, "forged-count",
               raw({12, 0x40, 2, 1, 1}));  // claims 64 frames, carries one
    write_seed(dir, "empty-frame", raw({12, 1, 0}));
  }

  // --- fuzz_link / fuzz_link_pair: real DATA/ACK frames + forgeries -------
  {
    netio::PeerLink link;
    const netio::PeerLink::TimePoint t0{};
    const Bytes payload = core::encode_round({1, 0.5, 0});
    const Bytes data = link.make_data(payload, t0);
    const fs::path dir = root / "fuzz_link";
    write_seed(dir, "data-frame", data);
    write_seed(dir, "ack-frame", raw({0xA2, 2, 1, 2}));
    // DATA frame whose ack list claims 3 entries but carries 1 — the
    // truncated forgery that must leave the resend queue untouched.
    write_seed(dir, "truncated-ack-list", raw({0xA1, 1, 0, 3, 1}));
    write_seed(dir, "huge-ack-count", raw({0xA2, 0xff, 0xff, 0x7f}));
    // A real frame of three packets, and a forgery whose second packet
    // length runs past the frame's end: malformed, neither acked nor
    // delivered.
    const Bytes p2 = core::encode_done({1, 0.5});
    const Bytes p3 = net::encode_envelope(2, core::encode_round({1, 0.25, 0}));
    const BytesView three[] = {payload, p2, p3};
    write_seed(dir, "three-packet-frame", link.make_data(three, t0));
    write_seed(dir, "packet-length-overrun",
               raw({0xA1, 3, 0, 0, 2, 1, 0x10, 9, 0x20}));
    // The pair target consumes structured op bytes, so any byte soup is a
    // schedule; seed it with a real frame and a mixed op tape.
    const fs::path pair_dir = root / "fuzz_link_pair";
    write_seed(pair_dir, "data-frame", data);
    write_seed(pair_dir, "op-tape",
               raw({8, 0, 0, 1, 2, 3, 8, 4, 1, 5, 0, 6, 1, 2, 3, 8, 2, 3,
                    0, 1, 2, 3, 8, 7, 0xaa, 2, 2, 3}));
  }

  // --- fuzz_state_machine: one seed per scenario shape --------------------
  {
    const fs::path dir = root / "fuzz_state_machine";
    // First byte picks the shape (mod 6); the rest parameterizes it.  Values
    // chosen to exercise: crash rounds + clique sched, DLPSW + spoiler,
    // witness + raw injector, vector crash, vector byz hull-escape, convex,
    // vector byz + raw injector, witness + NaN RB_SEND injector.
    write_seed(dir, "crash-clique",
               raw({0, 4, 9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 1, 1, 5, 1, 40, 10,
                    200, 30, 100, 60, 0, 90}));
    write_seed(dir, "byz-spoiler",
               raw({1, 0, 8, 8, 8, 8, 8, 8, 8, 8, 1, 2, 10, 0, 20, 50, 30,
                    100, 40, 150, 50, 200, 60, 250, 70, 44, 1, 0, 4, 16, 0,
                    32, 0, 64, 1, 7, 9, 9, 9, 9}));
    write_seed(dir, "witness-injector",
               raw({2, 1, 3, 3, 3, 3, 3, 3, 3, 3, 2, 1, 30, 0, 60, 10, 90,
                    20, 120, 30, 150, 40, 3, 1, 2, 0, 8, 100, 0, 200, 3, 2,
                    1, 2, 3, 4, 5, 6, 7, 8, 16, 0x55}));
    write_seed(dir, "vector-crash",
               raw({3, 1, 2, 5, 5, 5, 5, 5, 5, 5, 5, 1, 2, 1, 1, 6, 0, 10,
                    20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}));
    write_seed(dir, "vector-byz-hull-escape",
               raw({4, 1, 0, 7, 7, 7, 7, 7, 7, 7, 7, 1, 10, 0, 20, 10, 30,
                    20, 40, 30, 50, 40, 60, 50, 70, 60, 80, 70, 2, 6, 30, 0,
                    40, 0, 50, 1, 11, 3, 3, 3, 3}));
    write_seed(dir, "convex-quorum",
               raw({5, 0, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2, 15, 0, 25, 10,
                    35, 20, 45, 30, 55, 40, 65, 50, 75, 60, 1, 0, 6, 40, 0,
                    60, 0, 80, 1, 2, 4, 4, 4}));
    // Vector byzantine run (n = 7, d = 2) with the raw injector in slot 3:
    // a well-formed VEC frame, one of the wrong width and one past the
    // round budget, each behind its length byte, then reflections.
    Bytes vec_injector =
        raw({4, 1, 0, 7, 7, 7, 7, 7, 7, 7, 7, 1, 10, 0, 20, 10, 30, 20, 40,
             30, 50, 40, 60, 50, 70, 60, 80, 70, 90, 80, 100, 90, 110, 100,
             120, 110, 130, 120, 140, 130, 3, 0, 0, 64, 0, 192, 0, 16, 0, 1,
             2, 3, 4, 1, 3});
    for (const Bytes& frame : {core::encode_vec_round(0, {0.5, -0.5}),
                               core::encode_vec_round(0, {1.0, 2.0, 3.0}),
                               core::encode_vec_round(1000, {0.5, 0.5})}) {
      const Bytes length = raw({static_cast<unsigned>(frame.size() - 1)});
      vec_injector = cat(vec_injector, cat(length, frame));
    }
    write_seed(dir, "vector-byz-injector", cat(vec_injector, raw({16, 0x55})));
    // Witness run (n = 4, t = 1) with the raw injector at id 2: a
    // well-formed scalar RB_SEND of its own carrying NaN for iteration 0,
    // which RB delivers to every honest party and the witness phase must
    // keep out of every view.
    const Bytes nan_send =
        core::encode_rb({core::MsgType::kRbSend, 0, 2, std::nan("")});
    const Bytes witness_nan =
        raw({2, 0,                    // witness shape, random scheduler
             1, 0, 0, 0, 0, 0, 0, 0,  // seed
             0, 1,                    // n = 4, one byzantine slot
             0, 0, 0, 64, 0, 128, 0, 192,  // inputs -100, -50, 0, 50
             2, 1,                    // slot id 2, raw injector
             0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,  // unused stock attacker
             1, static_cast<unsigned>(nan_send.size() - 1)});  // one frame
    write_seed(dir, "witness-nan-send",
               cat(witness_nan, cat(nan_send, raw({0, 0}))));
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
