// Robustness of the whole-set intersection entry point
// (RunTwoPartyIntersection, one frame per list) against a deviating peer.
// The same deviations over chunked runs are the StreamedFaultInjectionTest
// matrix in streamed_protocol_test.cc.
//
// Structural deviations (dropped pairs, malformed frames, wrong message
// types) are detected as ProtocolViolation. A *covert* deviation —
// swapping double-encryptions within well-formed pairs — is not
// detectable inside the protocol: that is precisely the semi-honest
// boundary the paper draws, and why integrity of the *inputs* is
// enforced by the auditing device rather than by the protocol itself.

#include <gtest/gtest.h>

#include "sovereign/intersection_protocol.h"

namespace hsis::sovereign {
namespace {

crypto::MultisetHashFamily MuFamily() {
  return std::move(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
}

const crypto::PrimeGroup& Group() {
  return crypto::PrimeGroup::SmallTestGroup();
}

Dataset SetA() { return Dataset::FromStrings({"a", "b", "c", "d"}); }
Dataset SetB() { return Dataset::FromStrings({"c", "d", "e", "f"}); }

TEST(FaultInjectionTest, CleanRunStillWorks) {
  Rng rng(1);
  IntersectionOptions options;  // no faults
  auto outcomes =
      RunTwoPartyIntersection(SetA(), SetB(), Group(), MuFamily(), rng, options);
  ASSERT_TRUE(outcomes.ok());
  EXPECT_EQ(outcomes->first.intersection, Dataset::FromStrings({"c", "d"}));
}

TEST(FaultInjectionTest, OmittedPairDetected) {
  Rng rng(2);
  IntersectionOptions options;
  options.fault_injection.omit_one_reply_pair = true;
  auto outcomes =
      RunTwoPartyIntersection(SetA(), SetB(), Group(), MuFamily(), rng, options);
  ASSERT_FALSE(outcomes.ok());
  EXPECT_EQ(outcomes.status().code(), StatusCode::kProtocolViolation);
}

TEST(FaultInjectionTest, CorruptCountDetected) {
  Rng rng(3);
  IntersectionOptions options;
  options.fault_injection.corrupt_reply_count = true;
  auto outcomes =
      RunTwoPartyIntersection(SetA(), SetB(), Group(), MuFamily(), rng, options);
  ASSERT_FALSE(outcomes.ok());
  EXPECT_EQ(outcomes.status().code(), StatusCode::kProtocolViolation);
}

TEST(FaultInjectionTest, WrongMessageTypeDetected) {
  Rng rng(4);
  IntersectionOptions options;
  options.fault_injection.wrong_message_type = true;
  auto outcomes =
      RunTwoPartyIntersection(SetA(), SetB(), Group(), MuFamily(), rng, options);
  ASSERT_FALSE(outcomes.ok());
  EXPECT_EQ(outcomes.status().code(), StatusCode::kProtocolViolation);
}

TEST(FaultInjectionTest, CovertSwapIsTheSemiHonestBoundary) {
  // Swapping the double-encryptions inside well-formed pairs completes
  // the protocol but can change party A's result — undetectable at the
  // protocol layer. This is the deviation class (like input alteration)
  // that cryptographic protocol checks cannot catch; the paper's whole
  // mechanism exists because of it.
  Rng rng(5);
  IntersectionOptions options;
  options.fault_injection.swap_reply_pairs = true;
  auto outcomes =
      RunTwoPartyIntersection(SetA(), SetB(), Group(), MuFamily(), rng, options);
  ASSERT_TRUE(outcomes.ok()) << "covert deviation must not be detectable";
  // Party B (the deviator) still computes the honest result for itself.
  EXPECT_EQ(outcomes->second.intersection, Dataset::FromStrings({"c", "d"}));
  // Party A's view may be corrupted; what matters for the test is that
  // the protocol had no way to flag it.
}

}  // namespace
}  // namespace hsis::sovereign
