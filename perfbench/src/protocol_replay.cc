#include "protocol_replay.h"

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/commutative_cipher.h"
#include "crypto/parallel_modexp.h"
#include "sovereign/channel.h"
#include "sovereign/stream_frame.h"

namespace perfbench {

namespace {

using hsis::Bytes;
using hsis::Result;
using hsis::Rng;
using hsis::Status;
using hsis::U256;
using hsis::crypto::CommutativeCipher;
using hsis::sovereign::ChannelEndpoint;
using hsis::sovereign::Dataset;
using hsis::sovereign::DatasetSource;
using hsis::sovereign::ElementStreamReader;
using hsis::sovereign::Tuple;
namespace sv = hsis::sovereign;

// The streamed protocol's shuffle-stream purposes (send A, send B); the
// full-mode reply is not shuffled.
constexpr uint64_t kShuffleSendA = 0;
constexpr uint64_t kShuffleSendB = 1;

struct Party {
  Party(const Dataset& reported, ChannelEndpoint endpoint,
        CommutativeCipher cipher_in, size_t chunk_size)
      : data(&reported),
        source(reported, chunk_size),
        channel(std::move(endpoint)),
        cipher(std::move(cipher_in)) {}

  const Dataset* data;
  DatasetSource source;
  ChannelEndpoint channel;
  CommutativeCipher cipher;
  std::vector<U256> self_encrypted;
  std::map<U256, size_t> peer_counts;
  Bytes own_commitment;
  Bytes peer_commitment;
};

struct Ctx {
  Tracer* tracer;
  int threads;
  uint64_t frames = 0;
  uint64_t modexps = 0;
};

Status Send(Ctx& ctx, Party& p, const Bytes& msg) {
  Tracer::Scope span(ctx.tracer, "sovereign", "channel_seal");
  ++ctx.frames;
  return p.channel.Send(msg);
}

Status Receive(Ctx& ctx, Party& p, Bytes* out) {
  Tracer::Scope span(ctx.tracer, "sovereign", "channel_open");
  if (!p.channel.HasPending()) {
    return Status::ProtocolViolation("replay: stream ended early");
  }
  Result<Bytes> msg = p.channel.Receive();
  if (!msg.ok()) return msg.status();
  *out = std::move(*msg);
  return Status::OK();
}

Status SendCommitment(Ctx& ctx, Party& p,
                      const hsis::crypto::MultisetHashFamily& family) {
  Bytes msg;
  {
    Tracer::Scope span(ctx.tracer, "sovereign", "commit");
    std::unique_ptr<hsis::crypto::MultisetHash> hash = family.NewHash();
    for (size_t c = 0; c < p.source.chunk_count(); ++c) {
      for (const Tuple& t : p.source.Chunk(c)) hash->Add(t.value);
    }
    p.own_commitment = hash->Serialize();
    msg.push_back(sv::kMsgCommitment);
    hsis::Append(msg, p.own_commitment);
  }
  return Send(ctx, p, msg);
}

Status ReceiveCommitment(Ctx& ctx, Party& p) {
  Bytes msg;
  HSIS_RETURN_IF_ERROR(Receive(ctx, p, &msg));
  if (msg.empty() || msg[0] != sv::kMsgCommitment) {
    return Status::ProtocolViolation("replay: expected commitment");
  }
  p.peer_commitment.assign(msg.begin() + 1, msg.end());
  return Status::OK();
}

Status SendEncryptedSet(Ctx& ctx, Party& p, uint64_t seed,
                        uint64_t purpose) {
  const size_t n = p.source.total();
  p.self_encrypted.resize(n);
  const size_t chunks = p.source.chunk_count();
  if (chunks == 0) {
    Bytes frame;
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "frame_encode");
      frame = sv::SerializeFirstFrame(sv::kMsgEncryptedSet, 0, {});
    }
    return Send(ctx, p, frame);
  }
  for (size_t c = 0; c < chunks; ++c) {
    std::span<const Tuple> tuples = p.source.Chunk(c);
    std::span<U256> slots(p.self_encrypted.data() + c * p.source.chunk_size(),
                          tuples.size());
    {
      Tracer::Scope span(ctx.tracer, "crypto", "hash_encrypt");
      hsis::crypto::HashEncryptBatch(
          p.cipher, tuples.size(),
          [tuples](size_t i) -> const Bytes& { return tuples[i].value; },
          slots, ctx.threads);
      ctx.modexps += tuples.size();
    }
    std::vector<U256> frame;
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "shuffle");
      frame.assign(slots.begin(), slots.end());
      Rng shuffle_rng = Rng::ForIndex(seed, (purpose << 32) | c);
      shuffle_rng.Shuffle(frame);
    }
    Bytes wire;
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "frame_encode");
      wire = c == 0 ? sv::SerializeFirstFrame(sv::kMsgEncryptedSet,
                                              static_cast<uint32_t>(n), frame)
                    : sv::SerializeContinuationFrame(
                          sv::kMsgEncryptedSet, static_cast<uint32_t>(c),
                          frame);
    }
    HSIS_RETURN_IF_ERROR(Send(ctx, p, wire));
  }
  return Status::OK();
}

Status EncryptPeerSet(Ctx& ctx, Party& p) {
  ElementStreamReader reader(sv::kMsgEncryptedSet);
  uint32_t frame_no = 0;
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(Receive(ctx, p, &frame));
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "frame_decode");
      HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    }
    const size_t begin = reader.last_frame_begin();
    const size_t count = reader.elements().size() - begin;
    std::span<const U256> window(reader.elements().data() + begin, count);
    std::vector<U256> dd(count);
    {
      Tracer::Scope span(ctx.tracer, "crypto", "encrypt");
      hsis::crypto::EncryptBatch(p.cipher, window, dd, ctx.threads);
      ctx.modexps += count;
    }
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "resolve");
      for (const U256& v : dd) p.peer_counts[v]++;
    }
    Bytes wire;
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "frame_encode");
      std::vector<U256> reply;
      reply.reserve(count * 2);
      for (size_t i = 0; i < count; ++i) {
        reply.push_back(window[i]);
        reply.push_back(dd[i]);
      }
      wire = frame_no == 0
                 ? sv::SerializeFirstFrame(sv::kMsgDoubleEncryptedPairs,
                                           reader.total() * 2, reply)
                 : sv::SerializeContinuationFrame(sv::kMsgDoubleEncryptedPairs,
                                                  frame_no, reply);
    }
    HSIS_RETURN_IF_ERROR(Send(ctx, p, wire));
    ++frame_no;
  } while (!reader.complete());
  return Status::OK();
}

Status Resolve(Ctx& ctx, Party& p, sv::IntersectionOutcome& outcome) {
  const size_t n = p.data->size();
  ElementStreamReader reader(sv::kMsgDoubleEncryptedPairs);
  std::map<U256, U256> mapping;
  size_t paired = 0;
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(Receive(ctx, p, &frame));
    const bool first = !reader.header_seen();
    {
      Tracer::Scope span(ctx.tracer, "sovereign", "frame_decode");
      HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    }
    if (first && reader.total() != n * 2) {
      return Status::ProtocolViolation("replay: pair count mismatch");
    }
    Tracer::Scope span(ctx.tracer, "sovereign", "resolve");
    const std::vector<U256>& flat = reader.elements();
    for (; paired + 2 <= flat.size(); paired += 2) {
      mapping[flat[paired]] = flat[paired + 1];
    }
  } while (!reader.complete());

  Tracer::Scope span(ctx.tracer, "sovereign", "resolve");
  std::vector<U256> own_double_encrypted;
  own_double_encrypted.reserve(n);
  for (const U256& v : p.self_encrypted) {
    auto it = mapping.find(v);
    if (it == mapping.end()) {
      return Status::ProtocolViolation("replay: reply omits a value");
    }
    own_double_encrypted.push_back(it->second);
  }
  std::map<U256, size_t> remaining = std::move(p.peer_counts);
  const std::vector<Tuple>& tuples = p.data->tuples();
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto it = remaining.find(own_double_encrypted[i]);
    if (it != remaining.end() && it->second > 0) {
      --it->second;
      outcome.intersection.Add(tuples[i]);
    }
  }
  outcome.intersection_size = outcome.intersection.size();
  return Status::OK();
}

}  // namespace

Result<ReplayOutcome> ReplayIntersection(
    const Dataset& a_data, const Dataset& b_data,
    const hsis::crypto::PrimeGroup& group,
    const hsis::crypto::MultisetHashFamily& family, Rng& rng,
    size_t chunk_size, int threads, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  Ctx ctx{tracer, hsis::common::ResolveThreadCount(threads)};

  // Session set-up in the streamed call's draw order: channel key,
  // channel, A's cipher, B's cipher, shuffle seed.
  std::optional<Result<std::pair<ChannelEndpoint, ChannelEndpoint>>> channel;
  std::optional<Result<CommutativeCipher>> cipher_a;
  std::optional<Result<CommutativeCipher>> cipher_b;
  {
    Tracer::Scope span(tracer, "crypto", "keygen");
    Bytes session_key = rng.RandomBytes(32);
    channel.emplace(
        hsis::sovereign::SecureChannel::CreatePair(session_key, rng));
    HSIS_RETURN_IF_ERROR(channel->status());
    cipher_a.emplace(CommutativeCipher::Create(group, rng));
    HSIS_RETURN_IF_ERROR(cipher_a->status());
    cipher_b.emplace(CommutativeCipher::Create(group, rng));
    HSIS_RETURN_IF_ERROR(cipher_b->status());
  }
  const uint64_t shuffle_seed = rng.NextUint64();

  Party a(a_data, std::move((*channel)->first), std::move(**cipher_a),
          chunk_size);
  Party b(b_data, std::move((*channel)->second), std::move(**cipher_b),
          chunk_size);

  HSIS_RETURN_IF_ERROR(SendCommitment(ctx, a, family));
  HSIS_RETURN_IF_ERROR(SendCommitment(ctx, b, family));
  HSIS_RETURN_IF_ERROR(ReceiveCommitment(ctx, a));
  HSIS_RETURN_IF_ERROR(ReceiveCommitment(ctx, b));

  HSIS_RETURN_IF_ERROR(SendEncryptedSet(ctx, a, shuffle_seed, kShuffleSendA));
  HSIS_RETURN_IF_ERROR(SendEncryptedSet(ctx, b, shuffle_seed, kShuffleSendB));

  HSIS_RETURN_IF_ERROR(EncryptPeerSet(ctx, a));
  HSIS_RETURN_IF_ERROR(EncryptPeerSet(ctx, b));

  ReplayOutcome out;
  HSIS_RETURN_IF_ERROR(Resolve(ctx, a, out.a));
  HSIS_RETURN_IF_ERROR(Resolve(ctx, b, out.b));
  out.a.own_commitment = a.own_commitment;
  out.a.peer_commitment = a.peer_commitment;
  out.a.bytes_sent = a.channel.bytes_sent();
  out.b.own_commitment = b.own_commitment;
  out.b.peer_commitment = b.peer_commitment;
  out.b.bytes_sent = b.channel.bytes_sent();
  out.frames = ctx.frames;
  out.modexps = ctx.modexps;
  out.wall_ms = MsSince(start);
  return out;
}

void ReplayTotals::Add(const ReplayOutcome& replay, double real,
                       double layers_ms, size_t exchanged_tuples) {
  ++replayed;
  frames += replay.frames;
  modexps += replay.modexps;
  wire_bytes += replay.a.bytes_sent + replay.b.bytes_sent;
  tuples += exchanged_tuples;
  real_ms += real;
  replay_ms += replay.wall_ms;
  unexplained_ms += real - layers_ms;
}

void ProtocolLayerMetrics(const Tracer& tracer, const ReplayTotals& t,
                          std::map<std::string, double>& m) {
  if (t.replayed == 0) return;
  const double r = static_cast<double>(t.replayed);
  auto self_ns = [&](const char* layer, const char* name) {
    return static_cast<double>(tracer.Get(layer, name).self_ns);
  };
  m["crypto.hash_encrypt_ms"] = self_ns("crypto", "hash_encrypt") / r / 1e6;
  m["crypto.encrypt_ms"] = self_ns("crypto", "encrypt") / r / 1e6;
  m["crypto.keygen_ms"] = self_ns("crypto", "keygen") / r / 1e6;
  m["crypto.modexps"] = static_cast<double>(t.modexps) / r;
  m["crypto.modexp_per_s"] =
      static_cast<double>(t.modexps) /
      ((self_ns("crypto", "hash_encrypt") + self_ns("crypto", "encrypt")) /
       1e9);
  for (const char* name : {"commit", "frame_encode", "frame_decode",
                           "channel_seal", "channel_open", "shuffle",
                           "resolve"}) {
    m[std::string("sovereign.") + name + "_ms"] =
        self_ns("sovereign", name) / r / 1e6;
  }
  m["sovereign.frames"] = static_cast<double>(t.frames) / r;
  m["sovereign.wire_bytes"] = static_cast<double>(t.wire_bytes) / r;
  m["sovereign.unexplained_ms"] = t.unexplained_ms / r;
  m["trace.unexplained_pct"] = 100.0 * t.unexplained_ms / t.real_ms;
  m["trace.overhead_pct"] = 100.0 * (t.replay_ms - t.real_ms) / t.real_ms;
}

bool SameOutcome(const hsis::sovereign::IntersectionOutcome& x,
                 const hsis::sovereign::IntersectionOutcome& y) {
  return x.intersection == y.intersection &&
         x.intersection_size == y.intersection_size &&
         x.own_commitment == y.own_commitment &&
         x.peer_commitment == y.peer_commitment &&
         x.bytes_sent == y.bytes_sent;
}

}  // namespace perfbench
