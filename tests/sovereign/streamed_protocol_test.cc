// The two-party protocol's contract, pinned against frozen outcomes.
//
// `RunTwoPartyIntersection` (one frame per list) and
// `RunTwoPartyIntersectionStreamed` share one body. The pins below were
// recorded from the original whole-set implementation before it was
// folded into the chunked one: for the differential corpus (seeds
// 101/202/303 in full and size-only mode, plus an empty set A) they fix
// the intersection, its size, both commitments, the single-frame
// bytes_sent of both parties, and the caller's next `rng.NextUint64()`
// after the run. Every cell of the chunk {1, 7, 64, n, n+1} × threads
// {1, 2, 8} matrix (n = the larger set) must reproduce the outcome;
// bytes_sent must not depend on the thread count; single-frame cells
// must reproduce the pinned bytes and Rng draw exactly, which holds only
// if frames are shuffled with the caller's Rng in frame order. The
// fault-injection matrix and the sim-layer traffic campaign ride along
// under the same binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "sim/protocol_traffic.h"
#include "sovereign/intersection_protocol.h"

namespace hsis::sovereign {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

crypto::MultisetHashFamily MuFamily() {
  return std::move(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
}

const crypto::PrimeGroup& Group() {
  return crypto::PrimeGroup::SmallTestGroup();
}

/// The matrix datasets: |A| = 41, |B| = 40, overlap 20 — sized so the
/// tested chunk sizes cover sub-tuple (1), ragged (7), larger-than-set
/// (64), exactly-|A| (41), and |A|+1 (42) framings.
Dataset MatrixSetA() {
  std::vector<std::string> v;
  for (int i = 0; i < 20; ++i) v.push_back("common" + std::to_string(i));
  for (int i = 0; i < 21; ++i) v.push_back("a-only" + std::to_string(i));
  return Dataset::FromStrings(v);
}

Dataset MatrixSetB() {
  std::vector<std::string> v;
  for (int i = 0; i < 20; ++i) v.push_back("common" + std::to_string(i));
  for (int i = 0; i < 20; ++i) v.push_back("b-only" + std::to_string(i));
  return Dataset::FromStrings(v);
}

/// SHA-256 over each tuple as [u32 big-endian length][value bytes], in
/// the dataset's canonical order.
std::string TuplesDigest(const Dataset& d) {
  Bytes all;
  for (const Tuple& t : d.tuples()) {
    AppendUint32BE(all, static_cast<uint32_t>(t.value.size()));
    Append(all, t.value);
  }
  return HexEncode(crypto::Sha256::Hash(all));
}

std::string BytesDigest(const Bytes& b) {
  return HexEncode(crypto::Sha256::Hash(b));
}

constexpr char kCommonDigest[] =
    "2e0afd2981948d0f951db3bc9776fde3e115816f62c2c24a40c0b6b627c6fe29";
constexpr char kEmptyDigest[] =
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
constexpr char kCommitA[] =
    "90e74de77c8c3df0f22226fda191e33db0cb7ceabcecb21c88034509489e2409";
constexpr char kCommitB[] =
    "9bde241482e97098e6fb5070836828974b7bf08f6c688073490a7a11ecd45e92";
constexpr char kCommitEmpty[] =
    "2566f5e4f69d2a2659b2fbd6a150fd892bec98394a6c907299090817294324ef";

/// One frozen whole-set outcome of the differential corpus.
struct Pin {
  uint64_t seed;
  bool size_only;
  bool empty_a;                   // A reports nothing; B is MatrixSetB
  const char* intersection;       // TuplesDigest of both parties' view
  size_t intersection_size;
  const char* commitment_a;       // BytesDigest of A's commitment
  const char* commitment_b;
  size_t bytes_a, bytes_b;        // single-frame bytes_sent
  uint64_t next_draw;             // rng.NextUint64() after the run
};

constexpr Pin kPins[] = {
    {101, false, false, kCommonDigest, 20, kCommitA, kCommitB, 4060, 4092,
     0x84593c4a48fc63fcULL},
    {202, false, false, kCommonDigest, 20, kCommitA, kCommitB, 4060, 4092,
     0xf7eba53bb8635320ULL},
    {303, false, false, kCommonDigest, 20, kCommitA, kCommitB, 4060, 4092,
     0x7aabae9e4313c1b2ULL},
    {101, true, false, kEmptyDigest, 20, kCommitA, kCommitB, 2780, 2780,
     0x097147b803b81cb9ULL},
    {202, true, false, kEmptyDigest, 20, kCommitA, kCommitB, 2780, 2780,
     0x53d302c319443315ULL},
    {303, true, false, kEmptyDigest, 20, kCommitA, kCommitB, 2780, 2780,
     0x5a025ce693ecb236ULL},
    {505, false, true, kEmptyDigest, 0, kCommitEmpty, kCommitB, 2748, 1468,
     0x9f8f56b7bb42007bULL},
    {505, true, true, kEmptyDigest, 0, kCommitEmpty, kCommitB, 1468, 1468,
     0x087f6858fd07c8b2ULL},
};

using Outcomes = std::pair<IntersectionOutcome, IntersectionOutcome>;

/// A run plus the caller's next draw after it.
struct Run {
  Outcomes outcomes;
  uint64_t next_draw = 0;
};

Dataset PinSetA(const Pin& pin) {
  return pin.empty_a ? Dataset() : MatrixSetA();
}

/// `chunk_size == 0` runs the whole-set entry point.
Run RunPin(const Pin& pin, size_t chunk_size, int threads) {
  Rng rng(pin.seed);
  IntersectionOptions options;
  options.size_only = pin.size_only;
  options.chunk_size = chunk_size;
  options.threads = threads;
  Result<Outcomes> run =
      chunk_size == 0
          ? RunTwoPartyIntersection(PinSetA(pin), MatrixSetB(), Group(),
                                    MuFamily(), rng, options)
          : RunTwoPartyIntersectionStreamed(PinSetA(pin), MatrixSetB(),
                                            Group(), MuFamily(), rng,
                                            options);
  EXPECT_TRUE(run.ok()) << run.status().message();
  return {std::move(*run), rng.NextUint64()};
}

Outcomes RunStreamed(uint64_t seed, bool size_only, size_t chunk_size,
                     int threads) {
  Rng rng(seed);
  IntersectionOptions options;
  options.size_only = size_only;
  options.chunk_size = chunk_size;
  options.threads = threads;
  Result<Outcomes> run = RunTwoPartyIntersectionStreamed(
      MatrixSetA(), MatrixSetB(), Group(), MuFamily(), rng, options);
  EXPECT_TRUE(run.ok()) << run.status().message();
  return std::move(*run);
}

/// The outcome (everything except bytes_sent and the Rng) must match the
/// pin exactly.
void ExpectPinnedOutcome(const Outcomes& got, const Pin& pin,
                         const std::string& label) {
  for (const IntersectionOutcome* party : {&got.first, &got.second}) {
    EXPECT_EQ(TuplesDigest(party->intersection), pin.intersection) << label;
    EXPECT_EQ(party->intersection_size, pin.intersection_size) << label;
  }
  EXPECT_EQ(BytesDigest(got.first.own_commitment), pin.commitment_a) << label;
  EXPECT_EQ(BytesDigest(got.second.own_commitment), pin.commitment_b)
      << label;
  EXPECT_EQ(got.first.peer_commitment, got.second.own_commitment) << label;
  EXPECT_EQ(got.second.peer_commitment, got.first.own_commitment) << label;
}

/// Single-frame runs send the pinned bytes and leave the caller's Rng
/// where the whole-set run left it.
void ExpectPinnedWire(const Run& run, const Pin& pin,
                      const std::string& label) {
  EXPECT_EQ(run.outcomes.first.bytes_sent, pin.bytes_a) << label;
  EXPECT_EQ(run.outcomes.second.bytes_sent, pin.bytes_b) << label;
  EXPECT_EQ(run.next_draw, pin.next_draw) << label;
}

void CheckMatrix(bool size_only) {
  for (const Pin& pin : kPins) {
    if (pin.size_only != size_only) continue;
    const std::string corpus = "seed=" + std::to_string(pin.seed) +
                               (pin.empty_a ? " empty-A" : "");
    const Run whole = RunPin(pin, /*chunk_size=*/0, /*threads=*/1);
    ExpectPinnedOutcome(whole.outcomes, pin, corpus + " whole-set");
    ExpectPinnedWire(whole, pin, corpus + " whole-set");

    const size_t n = std::max(PinSetA(pin).size(), MatrixSetB().size());
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, n, n + 1}) {
      // bytes_sent and the Rng draws must not depend on the thread
      // count; pin against the single-threaded run of the same chunk.
      const Run baseline = RunPin(pin, chunk, /*threads=*/1);
      for (int threads : kThreadCounts) {
        const std::string label = corpus + " chunk=" + std::to_string(chunk) +
                                  " threads=" + std::to_string(threads);
        const Run run = RunPin(pin, chunk, threads);
        ExpectPinnedOutcome(run.outcomes, pin, label);
        EXPECT_EQ(run.outcomes.first.bytes_sent,
                  baseline.outcomes.first.bytes_sent)
            << label;
        EXPECT_EQ(run.outcomes.second.bytes_sent,
                  baseline.outcomes.second.bytes_sent)
            << label;
        EXPECT_EQ(run.next_draw, baseline.next_draw) << label;
        if (chunk >= n) ExpectPinnedWire(run, pin, label);
      }
    }
  }
}

TEST(StreamedProtocolTest, DifferentialMatrixFullMode) {
  CheckMatrix(/*size_only=*/false);
}

TEST(StreamedProtocolTest, DifferentialMatrixSizeOnly) {
  CheckMatrix(/*size_only=*/true);
}

TEST(StreamedProtocolTest, SingleFrameStreamMatchesLegacyWireBytes) {
  // chunk_size >= both set sizes means every element list is one frame:
  // the sealed byte count is the pinned whole-set count (seed 303).
  const Pin& pin = kPins[2];
  for (size_t chunk : {size_t{41}, size_t{42}, size_t{64}, size_t{4096}}) {
    const Outcomes streamed =
        RunStreamed(303, /*size_only=*/false, chunk, /*threads=*/2);
    EXPECT_EQ(streamed.first.bytes_sent, pin.bytes_a) << "chunk=" << chunk;
    EXPECT_EQ(streamed.second.bytes_sent, pin.bytes_b) << "chunk=" << chunk;
  }
  // Multi-frame streams pay framing overhead — strictly more bytes,
  // never fewer, and strictly decreasing as frames get larger.
  const Outcomes tiny = RunStreamed(303, false, 1, 1);
  const Outcomes mid = RunStreamed(303, false, 7, 1);
  EXPECT_GT(tiny.first.bytes_sent, mid.first.bytes_sent);
  EXPECT_GT(mid.first.bytes_sent, pin.bytes_a);
}

TEST(StreamedProtocolTest, ContinuationOverheadIsExactlyFraming) {
  // Each continuation frame costs the 10-byte chunk header plus one AEAD
  // seal. Both are fixed, so the overhead of a chunked run over the
  // single-frame run is linear in the number of extra frames — measure
  // the per-frame cost at chunk=7 and check chunk=1 against it.
  auto frames = [](size_t n, size_t chunk) {
    return (n + chunk - 1) / chunk;
  };
  const size_t n_a = MatrixSetA().size();  // 41
  const size_t n_b = MatrixSetB().size();  // 40
  const Outcomes whole = RunStreamed(404, false, 64, 1);
  const Outcomes by7 = RunStreamed(404, false, 7, 1);
  const Outcomes by1 = RunStreamed(404, false, 1, 1);
  // Party A ships its own set (frames(n_a)) and the reply about B's
  // stream (frames(n_b)); each beyond the first is a continuation.
  const size_t extra7 = (frames(n_a, 7) - 1) + (frames(n_b, 7) - 1);
  const size_t extra1 = (frames(n_a, 1) - 1) + (frames(n_b, 1) - 1);
  const size_t overhead7 = by7.first.bytes_sent - whole.first.bytes_sent;
  const size_t overhead1 = by1.first.bytes_sent - whole.first.bytes_sent;
  ASSERT_EQ(overhead7 % extra7, 0u);
  const size_t per_frame = overhead7 / extra7;
  EXPECT_EQ(overhead1, per_frame * extra1);
  EXPECT_GE(per_frame, 10u);  // at least the continuation header itself
}

TEST(StreamedProtocolTest, PaperSection1Example) {
  Rng rng(1);
  Dataset vr = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset vs = Dataset::FromStrings({"a", "u", "v", "x"});
  IntersectionOptions options;
  options.chunk_size = 2;
  options.threads = 2;
  auto outcomes = RunTwoPartyIntersectionStreamed(vr, vs, Group(), MuFamily(),
                                                  rng, options);
  ASSERT_TRUE(outcomes.ok());
  Dataset expected = Dataset::FromStrings({"u", "v"});
  EXPECT_EQ(outcomes->first.intersection, expected);
  EXPECT_EQ(outcomes->second.intersection, expected);
}

TEST(StreamedProtocolTest, EmptyDatasets) {
  for (size_t chunk : {size_t{1}, size_t{3}}) {
    Rng rng(7);
    Dataset empty;
    Dataset b = Dataset::FromStrings({"x", "y"});
    IntersectionOptions options;
    options.chunk_size = chunk;
    auto one_sided = RunTwoPartyIntersectionStreamed(empty, b, Group(),
                                                     MuFamily(), rng, options);
    ASSERT_TRUE(one_sided.ok()) << one_sided.status().message();
    EXPECT_TRUE(one_sided->first.intersection.empty());
    EXPECT_TRUE(one_sided->second.intersection.empty());

    auto both = RunTwoPartyIntersectionStreamed(empty, empty, Group(),
                                                MuFamily(), rng, options);
    ASSERT_TRUE(both.ok()) << both.status().message();
    EXPECT_EQ(both->first.intersection_size, 0u);
  }
}

TEST(StreamedProtocolTest, MultisetMultiplicity) {
  for (size_t chunk : {size_t{1}, size_t{3}}) {
    Rng rng(8);
    Dataset a = Dataset::FromStrings({"x", "x", "x", "y"});
    Dataset b = Dataset::FromStrings({"x", "x", "z"});
    IntersectionOptions options;
    options.chunk_size = chunk;
    auto outcomes = RunTwoPartyIntersectionStreamed(a, b, Group(), MuFamily(),
                                                    rng, options);
    ASSERT_TRUE(outcomes.ok());
    EXPECT_EQ(outcomes->first.intersection, Dataset::FromStrings({"x", "x"}))
        << "chunk=" << chunk;
    EXPECT_EQ(outcomes->second.intersection, Dataset::FromStrings({"x", "x"}))
        << "chunk=" << chunk;
  }
}

TEST(StreamedProtocolTest, OptionValidation) {
  IntersectionOptions zero_chunk;
  zero_chunk.chunk_size = 0;
  EXPECT_EQ(ValidateIntersectionOptions(zero_chunk).code(),
            StatusCode::kInvalidArgument);
  IntersectionOptions negative_threads;
  negative_threads.threads = -1;
  EXPECT_EQ(ValidateIntersectionOptions(negative_threads).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateIntersectionOptions(IntersectionOptions{}).ok());
  // Hardware-concurrency selection (threads == 0) is valid, per the
  // ParseThreadsValue contract.
  IntersectionOptions hw;
  hw.threads = 0;
  EXPECT_TRUE(ValidateIntersectionOptions(hw).ok());

  // The streamed entry point rejects bad options before any traffic.
  Rng rng(9);
  Dataset a = Dataset::FromStrings({"p"});
  auto run = RunTwoPartyIntersectionStreamed(a, a, Group(), MuFamily(), rng,
                                             zero_chunk);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  run = RunTwoPartyIntersectionStreamed(a, a, Group(), MuFamily(), rng,
                                        negative_threads);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamedProtocolTest, WholeSetRunValidatesThreads) {
  // The whole-set entry point runs the same validation: a negative
  // thread count is rejected before any traffic.
  Rng rng(10);
  IntersectionOptions negative_threads;
  negative_threads.threads = -1;
  Dataset a = Dataset::FromStrings({"p"});
  auto run = RunTwoPartyIntersection(a, a, Group(), MuFamily(), rng,
                                     negative_threads);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// --- Fault-injection matrix over chunked runs ---------------------------
//
// The deviations of fault_injection_test.cc (whole-set entry point) over
// chunks {1, 2, 64}: structural deviations are ProtocolViolation, a
// covert swap of well-formed pairs is the semi-honest boundary.

Dataset FaultSetA() { return Dataset::FromStrings({"a", "b", "c", "d"}); }
Dataset FaultSetB() { return Dataset::FromStrings({"c", "d", "e", "f"}); }

constexpr size_t kFaultChunks[] = {1, 2, 64};

Result<Outcomes> RunStreamedFault(const FaultInjection& faults,
                                  size_t chunk_size) {
  Rng rng(11);
  IntersectionOptions options;
  options.chunk_size = chunk_size;
  options.fault_injection = faults;
  return RunTwoPartyIntersectionStreamed(FaultSetA(), FaultSetB(), Group(),
                                         MuFamily(), rng, options);
}

TEST(StreamedFaultInjectionTest, StructuralDeviationsDetected) {
  for (size_t chunk : kFaultChunks) {
    FaultInjection omit;
    omit.omit_one_reply_pair = true;
    auto run = RunStreamedFault(omit, chunk);
    ASSERT_FALSE(run.ok()) << "omit, chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kProtocolViolation);

    FaultInjection count;
    count.corrupt_reply_count = true;
    run = RunStreamedFault(count, chunk);
    ASSERT_FALSE(run.ok()) << "count, chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kProtocolViolation);

    FaultInjection wrong;
    wrong.wrong_message_type = true;
    run = RunStreamedFault(wrong, chunk);
    ASSERT_FALSE(run.ok()) << "type, chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kProtocolViolation);
  }
}

TEST(StreamedFaultInjectionTest, CovertSwapIsTheSemiHonestBoundary) {
  // Same boundary as the whole-set run: well-formed pairs with swapped
  // double-encryptions complete the protocol; B's own view stays honest.
  for (size_t chunk : kFaultChunks) {
    FaultInjection swap;
    swap.swap_reply_pairs = true;
    auto run = RunStreamedFault(swap, chunk);
    ASSERT_TRUE(run.ok()) << "covert deviation must not be detectable";
    EXPECT_EQ(run->second.intersection, Dataset::FromStrings({"c", "d"}));
  }
}

TEST(StreamedFaultInjectionTest, WireTamperRejectedByChannel) {
  // A bit flip on the sealed frame is the channel AEAD's job, below the
  // stream reader: IntegrityViolation, not a parse error.
  for (size_t chunk : kFaultChunks) {
    FaultInjection flip;
    flip.corrupt_reply_frame_bit = true;
    auto run = RunStreamedFault(flip, chunk);
    ASSERT_FALSE(run.ok()) << "chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kIntegrityViolation)
        << run.status().message();
  }
}

TEST(StreamedFaultInjectionTest, WireTamperRejectedOnLegacyPathToo) {
  // The whole-set entry point seals its one frame per list the same way.
  Rng rng(12);
  IntersectionOptions options;
  options.fault_injection.corrupt_reply_frame_bit = true;
  auto run = RunTwoPartyIntersection(FaultSetA(), FaultSetB(), Group(),
                                     MuFamily(), rng, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIntegrityViolation);
}

// --- Heavy-traffic campaigns ---------------------------------------------

TEST(ProtocolTrafficTest, CampaignStatsAreSessionThreadInvariant) {
  sim::ProtocolTrafficOptions options;
  options.sessions = 12;
  options.tuples_per_party = 24;
  options.common_tuples = 8;
  options.chunk_size = 5;
  options.seed = 99;
  options.session_threads = 1;
  auto serial = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  options.session_threads = 4;
  auto threaded =
      sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(threaded.ok()) << threaded.status().message();

  EXPECT_EQ(serial->sessions, 12u);
  EXPECT_EQ(serial->protocol_failures, 0u);
  // withhold and probe draw independently, so a session can be both;
  // the union of the three categories still covers every session.
  EXPECT_GE(serial->honest + serial->withheld + serial->probed,
            serial->sessions);
  EXPECT_LE(serial->honest, serial->sessions);
  EXPECT_GT(serial->tuples_processed, 0u);
  EXPECT_GT(serial->bytes_on_wire, 0u);
  EXPECT_LE(serial->audit_flags, serial->audited);

  EXPECT_EQ(serial->sessions, threaded->sessions);
  EXPECT_EQ(serial->honest, threaded->honest);
  EXPECT_EQ(serial->withheld, threaded->withheld);
  EXPECT_EQ(serial->probed, threaded->probed);
  EXPECT_EQ(serial->audited, threaded->audited);
  EXPECT_EQ(serial->audit_flags, threaded->audit_flags);
  EXPECT_EQ(serial->tuples_processed, threaded->tuples_processed);
  EXPECT_EQ(serial->intersections_total, threaded->intersections_total);
  EXPECT_EQ(serial->bytes_on_wire, threaded->bytes_on_wire);
  EXPECT_EQ(serial->protocol_failures, threaded->protocol_failures);
}

TEST(ProtocolTrafficTest, AuditsFlagEveryCheater) {
  // All-cheat, all-audit: every audited session's commitment must
  // mismatch the hash of the true dataset.
  sim::ProtocolTrafficOptions options;
  options.sessions = 6;
  options.tuples_per_party = 16;
  options.common_tuples = 4;
  options.withhold_fraction = 1.0;
  options.probe_fraction = 0.0;
  options.audit_fraction = 1.0;
  options.chunk_size = 4;
  auto stats = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->withheld, stats->sessions);
  EXPECT_EQ(stats->audited, stats->sessions);
  EXPECT_EQ(stats->audit_flags, stats->sessions);
  EXPECT_EQ(stats->honest, 0u);
}

TEST(ProtocolTrafficTest, HonestCampaignNeverFlags) {
  sim::ProtocolTrafficOptions options;
  options.sessions = 6;
  options.tuples_per_party = 16;
  options.common_tuples = 4;
  options.withhold_fraction = 0.0;
  options.probe_fraction = 0.0;
  options.audit_fraction = 1.0;
  options.size_only = true;
  auto stats = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->honest, stats->sessions);
  EXPECT_EQ(stats->audit_flags, 0u);
  // Honest sessions: every intersection is exactly the common pool.
  EXPECT_EQ(stats->intersections_total, 6u * 4u);
}

TEST(ProtocolTrafficTest, RejectsInvalidOptions) {
  sim::ProtocolTrafficOptions bad_chunk;
  bad_chunk.chunk_size = 0;
  EXPECT_EQ(sim::RunProtocolTrafficCampaign(bad_chunk, Group(), MuFamily())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  sim::ProtocolTrafficOptions bad_threads;
  bad_threads.session_threads = -2;
  EXPECT_EQ(sim::RunProtocolTrafficCampaign(bad_threads, Group(), MuFamily())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hsis::sovereign
