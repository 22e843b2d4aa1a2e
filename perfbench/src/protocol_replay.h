// Layer-by-layer replay of the two-party intersection protocol.
//
// `RunExchange` and `RunTwoPartyIntersectionStreamed` are single library
// calls, so a span around them says nothing about where their time goes.
// The replay runs the same four phases (commitments, singly-encrypted
// streams, double encryption, resolve) through the layers' public
// functions — MultisetHash::Add, HashEncryptBatch, Rng::Shuffle,
// Serialize*Frame, ChannelEndpoint::Send/Receive,
// ElementStreamReader::Consume, EncryptBatch and the map-based resolve —
// with a span around each call. Started from an Rng in the same state as
// the real call's, with the same chunk size and thread count, it draws
// the same keys and shuffles and so reproduces the streamed call's
// transcript byte for byte; the workloads check its outcome against the
// real call's.
#ifndef PERFBENCH_PROTOCOL_REPLAY_H_
#define PERFBENCH_PROTOCOL_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "crypto/group.h"
#include "crypto/multiset_hash.h"
#include "harness.h"
#include "sovereign/dataset.h"
#include "sovereign/intersection_protocol.h"

namespace perfbench {

struct ReplayOutcome {
  hsis::sovereign::IntersectionOutcome a;
  hsis::sovereign::IntersectionOutcome b;
  /// Frames both parties put on the channel.
  uint64_t frames = 0;
  /// Modular exponentiations (one per Encrypt) both parties ran.
  uint64_t modexps = 0;
  /// Wall time of the whole replay, spans included.
  double wall_ms = 0;
};

/// Replays one exchange. `chunk_size >= max(|a|, |b|)` is the whole-set
/// shape of the legacy `RunTwoPartyIntersection` path (one frame per
/// list). Spans go to `tracer` under the "crypto" and "sovereign" layers.
hsis::Result<ReplayOutcome> ReplayIntersection(
    const hsis::sovereign::Dataset& a, const hsis::sovereign::Dataset& b,
    const hsis::crypto::PrimeGroup& group,
    const hsis::crypto::MultisetHashFamily& family, hsis::Rng& rng,
    size_t chunk_size, int threads, Tracer* tracer);

/// What a run's replays add up to.
struct ReplayTotals {
  uint64_t replayed = 0;
  uint64_t frames = 0;
  uint64_t modexps = 0;
  uint64_t wire_bytes = 0;
  uint64_t tuples = 0;
  /// The real calls' time, the replays' time, and the real calls' time
  /// not covered by any layer span.
  double real_ms = 0;
  double replay_ms = 0;
  double unexplained_ms = 0;

  /// Adds one replay of a real call that took `real` ms; `layers_ms` is
  /// the self time of every span recorded for it.
  void Add(const ReplayOutcome& replay, double real, double layers_ms,
           size_t exchanged_tuples);
};

/// Fills the crypto.*, sovereign.* and trace.* per-layer metrics: times
/// and counts per replayed exchange.
void ProtocolLayerMetrics(const Tracer& tracer, const ReplayTotals& totals,
                          std::map<std::string, double>& metrics);

/// True iff the two outcomes agree on everything the protocol computes:
/// intersection, its size, both commitments and the sealed bytes sent.
bool SameOutcome(const hsis::sovereign::IntersectionOutcome& x,
                 const hsis::sovereign::IntersectionOutcome& y);

}  // namespace perfbench

#endif  // PERFBENCH_PROTOCOL_REPLAY_H_
