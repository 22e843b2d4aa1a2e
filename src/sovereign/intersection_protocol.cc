// The two-party intersection protocol (RunTwoPartyIntersection and
// RunTwoPartyIntersectionStreamed, declared in intersection_protocol.h).
//
// One body serves both entry points. Every element list travels as a
// chunk-framed stream (sovereign/stream_frame.h) and every per-tuple
// modexp runs through the parallel batch stages of
// crypto/parallel_modexp.h. Shuffles draw from the caller's Rng on the
// caller thread, one frame at a time in chunk order, so the wire
// transcript is identical at every thread count, and a run with one
// frame per list (the whole-set entry point) draws exactly the
// whole-set shuffles. The outcome is the same at every chunk size (the
// pinned contract of tests/sovereign/streamed_protocol_test.cc).

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/parallel.h"
#include "crypto/commutative_cipher.h"
#include "crypto/parallel_modexp.h"
#include "sovereign/channel.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/set_ops.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {

namespace {

/// Per-party protocol state.
struct StreamParticipant {
  StreamParticipant(const Dataset& reported, ChannelEndpoint endpoint,
                    crypto::CommutativeCipher cipher_in, size_t chunk_size)
      : data(&reported),
        source(reported, chunk_size),
        channel(std::move(endpoint)),
        cipher(std::move(cipher_in)) {}

  const Dataset* data;
  DatasetSource source;
  ChannelEndpoint channel;
  crypto::CommutativeCipher cipher;

  // E_self(h(t)), aligned with data->tuples().
  std::vector<U256> self_encrypted;
  // Multiset {E_self(E_peer(h(peer tuple)))}, appended frame by frame.
  FlatMultiset peer_multiset;

  Bytes own_commitment;
  Bytes peer_commitment;
};

Status SendCommitmentStreamed(StreamParticipant& p,
                              const crypto::MultisetHashFamily& family,
                              int threads) {
  // Tiled accumulation: equal to the whole-set hash by the multiset
  // hash's incrementality (pinned by
  // tests/sovereign/commitment_stream_property_test.cc).
  HSIS_ASSIGN_OR_RETURN(p.own_commitment,
                        CommitTuples(p.data->tuples(), family, threads));
  Bytes msg;
  msg.push_back(kMsgCommitment);
  Append(msg, p.own_commitment);
  return p.channel.Send(msg);
}

Status ReceiveCommitmentStreamed(StreamParticipant& p) {
  Result<Bytes> msg = p.channel.Receive();
  HSIS_RETURN_IF_ERROR(msg.status());
  if (msg->empty() || (*msg)[0] != kMsgCommitment) {
    return Status::ProtocolViolation("expected commitment message");
  }
  p.peer_commitment.assign(msg->begin() + 1, msg->end());
  return Status::OK();
}

/// Receives the next frame of an in-flight stream; a drained channel
/// mid-stream is a protocol violation (the peer promised more chunks),
/// and channel-layer errors (tamper -> IntegrityViolation) pass through.
Status ReceiveFrame(ChannelEndpoint& channel, Bytes* frame) {
  if (!channel.HasPending()) {
    return Status::ProtocolViolation("element stream ended early");
  }
  Result<Bytes> msg = channel.Receive();
  HSIS_RETURN_IF_ERROR(msg.status());
  *frame = std::move(*msg);
  return Status::OK();
}

/// Phase 2, send side: hash + encrypt each chunk through the parallel
/// modexp stage into the aligned `self_encrypted` slots (kept for
/// phase 4), shuffle a frame-local copy with `rng`, ship it.
Status SendEncryptedSetStreamed(StreamParticipant& p, int threads, Rng& rng) {
  p.self_encrypted.resize(p.source.total());
  const size_t chunks = p.source.chunk_count();
  if (chunks == 0) {
    return p.channel.Send(SerializeFirstFrame(
        kMsgEncryptedSet, 0, std::vector<U256>()));
  }
  for (size_t c = 0; c < chunks; ++c) {
    std::span<const Tuple> tuples = p.source.Chunk(c);
    std::span<U256> slots(p.self_encrypted.data() + c * p.source.chunk_size(),
                          tuples.size());
    crypto::HashEncryptBatch(
        p.cipher, tuples.size(),
        [tuples](size_t i) -> const Bytes& { return tuples[i].value; }, slots,
        threads);
    std::vector<U256> frame(slots.begin(), slots.end());
    rng.Shuffle(frame);
    HSIS_RETURN_IF_ERROR(p.channel.Send(
        c == 0 ? SerializeFirstFrame(kMsgEncryptedSet,
                                     static_cast<uint32_t>(p.source.total()),
                                     frame)
               : SerializeContinuationFrame(kMsgEncryptedSet,
                                            static_cast<uint32_t>(c), frame)));
  }
  return Status::OK();
}

/// Phase 3: consumes the peer's singly-encrypted stream frame by frame,
/// double-encrypts each window through the parallel batch stage, records
/// the double-encrypted multiset, and streams the reply back — (v, E(v))
/// pairs in full mode, bare values shuffled frame-locally with `rng` in
/// size-only mode. `faults` (robustness testing) makes this participant
/// deviate: the faulted reply is buffered flat, mutated as one pair
/// list, and re-framed.
Status EncryptPeerSetStreamed(StreamParticipant& p, bool size_only,
                              int threads, size_t chunk_size, Rng& rng,
                              const FaultInjection& faults = {}) {
  ElementStreamReader reader(kMsgEncryptedSet);
  const bool buffer_reply = !size_only && faults.AnyActive();
  std::vector<U256> buffered;
  uint64_t frame_no = 0;
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
    HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    const size_t begin = reader.last_frame_begin();
    const size_t count = reader.elements().size() - begin;
    std::span<const U256> window(reader.elements().data() + begin, count);
    std::vector<U256> dd(count);
    crypto::EncryptBatch(p.cipher, window, dd, threads);
    p.peer_multiset.Append(dd);

    std::vector<U256> reply;
    if (size_only) {
      reply = dd;
      rng.Shuffle(reply);
    } else {
      reply.reserve(count * 2);
      for (size_t i = 0; i < count; ++i) {
        reply.push_back(window[i]);
        reply.push_back(dd[i]);
      }
    }
    if (buffer_reply) {
      buffered.insert(buffered.end(), reply.begin(), reply.end());
    } else {
      const uint32_t reply_total = static_cast<uint32_t>(
          size_only ? reader.total() : reader.total() * 2);
      Bytes wire =
          frame_no == 0
              ? SerializeFirstFrame(size_only ? kMsgDoubleEncryptedSet
                                              : kMsgDoubleEncryptedPairs,
                                    reply_total, reply)
              : SerializeContinuationFrame(
                    size_only ? kMsgDoubleEncryptedSet
                              : kMsgDoubleEncryptedPairs,
                    static_cast<uint32_t>(frame_no), reply);
      HSIS_RETURN_IF_ERROR(p.channel.Send(wire));
    }
    ++frame_no;
  } while (!reader.complete());

  if (!buffer_reply) return Status::OK();

  // Fault injection on the flat pair list.
  if (faults.omit_one_reply_pair && buffered.size() >= 2) {
    buffered.pop_back();
    buffered.pop_back();
  }
  if (faults.swap_reply_pairs && buffered.size() >= 4) {
    std::swap(buffered[1], buffered[3]);  // swap the double-encryptions only
  }
  const uint8_t tag = faults.wrong_message_type ? kMsgEncryptedSet
                                                : kMsgDoubleEncryptedPairs;
  const size_t per_frame = chunk_size * 2;  // whole pairs per frame
  uint32_t index = 0;
  size_t sent = 0;
  do {
    const size_t count = std::min(per_frame, buffered.size() - sent);
    std::vector<U256> frame(buffered.begin() + static_cast<ptrdiff_t>(sent),
                            buffered.begin() +
                                static_cast<ptrdiff_t>(sent + count));
    Bytes wire =
        index == 0
            ? SerializeFirstFrame(tag, static_cast<uint32_t>(buffered.size()),
                                  frame)
            : SerializeContinuationFrame(tag, index, frame);
    if (faults.corrupt_reply_count && index == 0 && buffered.size() >= 2) {
      AppendUint32BE(wire, 0);  // garbage length suffix -> malformed frame
    }
    HSIS_RETURN_IF_ERROR(p.channel.Send(wire));
    sent += count;
    ++index;
  } while (sent < buffered.size());
  return Status::OK();
}

/// Phase 4: consumes the peer's reply stream about our own set and
/// resolves the intersection (sovereign/set_ops.h).
Status ResolveIntersectionStreamed(StreamParticipant& p, bool size_only,
                                   IntersectionOutcome& outcome) {
  const size_t n = p.data->size();
  p.peer_multiset.Seal();

  if (size_only) {
    ElementStreamReader reader(kMsgDoubleEncryptedSet);
    size_t matches = 0;
    do {
      Bytes frame;
      HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
      const bool first = !reader.header_seen();
      HSIS_RETURN_IF_ERROR(reader.Consume(frame));
      if (first && reader.total() != n) {
        return Status::ProtocolViolation(
            "double-encrypted set size mismatch");
      }
      for (size_t i = reader.last_frame_begin(); i < reader.elements().size();
           ++i) {
        if (p.peer_multiset.Take(reader.elements()[i])) ++matches;
      }
    } while (!reader.complete());
    outcome.intersection_size = matches;
    return Status::OK();
  }

  ElementStreamReader reader(kMsgDoubleEncryptedPairs);
  do {
    Bytes frame;
    HSIS_RETURN_IF_ERROR(ReceiveFrame(p.channel, &frame));
    const bool first = !reader.header_seen();
    HSIS_RETURN_IF_ERROR(reader.Consume(frame));
    if (first && reader.total() != n * 2) {
      return Status::ProtocolViolation(
          "double-encrypted pair count mismatch");
    }
  } while (!reader.complete());
  return ResolveIntersection(*p.data, p.self_encrypted,
                             PairTable(reader.elements()), p.peer_multiset,
                             outcome);
}

}  // namespace

Status ValidateIntersectionOptions(const IntersectionOptions& options) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument(
        "IntersectionOptions.chunk_size must be >= 1");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument(
        "IntersectionOptions.threads must be >= 0 "
        "(0 selects hardware concurrency)");
  }
  return Status::OK();
}

Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersection(const Dataset& reported_a, const Dataset& reported_b,
                        const crypto::PrimeGroup& group,
                        const crypto::MultisetHashFamily& commitment_family,
                        Rng& rng, const IntersectionOptions& options) {
  // One frame per element list: the whole-set shuffle.
  IntersectionOptions whole_set = options;
  whole_set.chunk_size =
      std::max({reported_a.size(), reported_b.size(), size_t{1}});
  return RunTwoPartyIntersectionStreamed(reported_a, reported_b, group,
                                         commitment_family, rng, whole_set);
}

Result<std::pair<IntersectionOutcome, IntersectionOutcome>>
RunTwoPartyIntersectionStreamed(
    const Dataset& reported_a, const Dataset& reported_b,
    const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng,
    const IntersectionOptions& options) {
  HSIS_RETURN_IF_ERROR(ValidateIntersectionOptions(options));
  if (reported_a.size() > UINT32_MAX / 2 ||
      reported_b.size() > UINT32_MAX / 2) {
    return Status::InvalidArgument(
        "dataset exceeds the 32-bit element counts of the wire format");
  }
  const int threads = common::ResolveThreadCount(options.threads);

  // Session setup; every later draw is a frame shuffle.
  Bytes session_key = rng.RandomBytes(32);
  Result<std::pair<ChannelEndpoint, ChannelEndpoint>> channel =
      SecureChannel::CreatePair(session_key, rng);
  HSIS_RETURN_IF_ERROR(channel.status());
  Result<crypto::CommutativeCipher> cipher_a =
      crypto::CommutativeCipher::Create(group, rng);
  HSIS_RETURN_IF_ERROR(cipher_a.status());
  Result<crypto::CommutativeCipher> cipher_b =
      crypto::CommutativeCipher::Create(group, rng);
  HSIS_RETURN_IF_ERROR(cipher_b.status());

  StreamParticipant a(reported_a, std::move(channel->first),
                      std::move(*cipher_a), options.chunk_size);
  StreamParticipant b(reported_b, std::move(channel->second),
                      std::move(*cipher_b), options.chunk_size);

  // Phase 1: commitments, folded in parallel tiles.
  HSIS_RETURN_IF_ERROR(SendCommitmentStreamed(a, commitment_family, threads));
  HSIS_RETURN_IF_ERROR(SendCommitmentStreamed(b, commitment_family, threads));
  HSIS_RETURN_IF_ERROR(ReceiveCommitmentStreamed(a));
  HSIS_RETURN_IF_ERROR(ReceiveCommitmentStreamed(b));

  // Phase 2: chunk-framed singly-encrypted streams.
  HSIS_RETURN_IF_ERROR(SendEncryptedSetStreamed(a, threads, rng));
  HSIS_RETURN_IF_ERROR(SendEncryptedSetStreamed(b, threads, rng));

  // Phase 3: each double-encrypts the peer's stream chunk by chunk.
  // Fault injection (if any) applies to party B's reply about A's set.
  HSIS_RETURN_IF_ERROR(EncryptPeerSetStreamed(a, options.size_only, threads,
                                              options.chunk_size, rng));
  HSIS_RETURN_IF_ERROR(EncryptPeerSetStreamed(b, options.size_only, threads,
                                              options.chunk_size, rng,
                                              options.fault_injection));
  if (options.fault_injection.corrupt_reply_frame_bit) {
    a.channel.CorruptNextInboundForTest();  // tamper with B's reply in flight
  }

  // Phase 4: resolve incrementally.
  IntersectionOutcome out_a, out_b;
  HSIS_RETURN_IF_ERROR(
      ResolveIntersectionStreamed(a, options.size_only, out_a));
  HSIS_RETURN_IF_ERROR(
      ResolveIntersectionStreamed(b, options.size_only, out_b));

  out_a.own_commitment = a.own_commitment;
  out_a.peer_commitment = a.peer_commitment;
  out_a.bytes_sent = a.channel.bytes_sent();
  out_b.own_commitment = b.own_commitment;
  out_b.peer_commitment = b.peer_commitment;
  out_b.bytes_sent = b.channel.bytes_sent();
  return std::make_pair(std::move(out_a), std::move(out_b));
}

}  // namespace hsis::sovereign
