#include "crypto/authenticated_cipher.h"

#include <gtest/gtest.h>

namespace hsis::crypto {
namespace {

AuthenticatedCipher MakeCipher() {
  Result<AuthenticatedCipher> c = AuthenticatedCipher::Create(Bytes(32, 0x5a));
  EXPECT_TRUE(c.ok());
  return *c;
}

TEST(AuthenticatedCipherTest, SealOpenRoundTrip) {
  AuthenticatedCipher c = MakeCipher();
  Bytes nonce(12, 0x01);
  Bytes msg = ToBytes("secret payload");
  Bytes aad = ToBytes("header");

  Result<Bytes> sealed = c.Seal(nonce, msg, aad);
  ASSERT_TRUE(sealed.ok());
  Result<Bytes> opened = c.Open(*sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
}

TEST(AuthenticatedCipherTest, CiphertextHidesPlaintext) {
  AuthenticatedCipher c = MakeCipher();
  Bytes msg = ToBytes("secret payload");
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), msg, {});
  ASSERT_TRUE(sealed.ok());
  std::string blob = BytesToString(*sealed);
  EXPECT_EQ(blob.find("secret"), std::string::npos);
}

TEST(AuthenticatedCipherTest, DetectsCiphertextTamper) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), ToBytes("data"), {});
  ASSERT_TRUE(sealed.ok());
  for (size_t i = 0; i < sealed->size(); i += 7) {
    Bytes corrupted = *sealed;
    corrupted[i] ^= 0x01;
    Result<Bytes> opened = c.Open(corrupted, {});
    EXPECT_FALSE(opened.ok()) << "tamper at byte " << i << " not detected";
    EXPECT_EQ(opened.status().code(), StatusCode::kIntegrityViolation);
  }
}

TEST(AuthenticatedCipherTest, DetectsAadMismatch) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), ToBytes("data"), ToBytes("aad1"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(c.Open(*sealed, ToBytes("aad2")).ok());
  EXPECT_TRUE(c.Open(*sealed, ToBytes("aad1")).ok());
}

TEST(AuthenticatedCipherTest, DetectsTruncation) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x01), ToBytes("data"), {});
  ASSERT_TRUE(sealed.ok());
  Bytes truncated(sealed->begin(), sealed->end() - 1);
  EXPECT_FALSE(c.Open(truncated, {}).ok());
  EXPECT_FALSE(c.Open(Bytes(10, 0x00), {}).ok());
}

TEST(AuthenticatedCipherTest, DifferentKeysCannotOpen) {
  AuthenticatedCipher a = MakeCipher();
  Result<AuthenticatedCipher> b = AuthenticatedCipher::Create(Bytes(32, 0x77));
  ASSERT_TRUE(b.ok());
  Result<Bytes> sealed = a.Seal(Bytes(12, 0x01), ToBytes("data"), {});
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(b->Open(*sealed, {}).ok());
}

TEST(AuthenticatedCipherTest, RejectsBadSizes) {
  EXPECT_FALSE(AuthenticatedCipher::Create(Bytes(16, 0)).ok());
  AuthenticatedCipher c = MakeCipher();
  EXPECT_FALSE(c.Seal(Bytes(8, 0), ToBytes("x"), {}).ok());
}

TEST(AuthenticatedCipherTest, EmptyPlaintextAllowed) {
  AuthenticatedCipher c = MakeCipher();
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x09), Bytes{}, ToBytes("aad"));
  ASSERT_TRUE(sealed.ok());
  Result<Bytes> opened = c.Open(*sealed, ToBytes("aad"));
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened->empty());
}

// A frame long enough for every ChaCha20 path (four 4-block kernel
// runs, one lone block, a 12-byte tail) and many SHA-256 blocks: every
// single-bit flip of the nonce, ciphertext or tag, and every
// truncation, must come back as IntegrityViolation.
TEST(AuthenticatedCipherTest, MultiBlockFrameTamperSweep) {
  AuthenticatedCipher c = MakeCipher();
  Bytes msg(1100);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const Bytes aad = ToBytes("frame-header");
  Result<Bytes> sealed = c.Seal(Bytes(12, 0x3c), msg, aad);
  ASSERT_TRUE(sealed.ok());
  ASSERT_EQ(sealed->size(), AuthenticatedCipher::kNonceSize + msg.size() +
                                AuthenticatedCipher::kTagSize);
  Result<Bytes> opened = c.Open(*sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);

  Bytes corrupted = *sealed;
  for (size_t byte = 0; byte < corrupted.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      Result<Bytes> bad = c.Open(corrupted, aad);
      corrupted[byte] ^= static_cast<uint8_t>(1u << bit);
      ASSERT_FALSE(bad.ok()) << "flip of bit " << bit << " of byte " << byte;
      ASSERT_EQ(bad.status().code(), StatusCode::kIntegrityViolation)
          << "flip of bit " << bit << " of byte " << byte;
    }
  }
  for (size_t len = 0; len < sealed->size(); ++len) {
    Bytes truncated(sealed->begin(),
                    sealed->begin() + static_cast<ptrdiff_t>(len));
    Result<Bytes> bad = c.Open(truncated, aad);
    ASSERT_FALSE(bad.ok()) << "truncated to " << len;
    ASSERT_EQ(bad.status().code(), StatusCode::kIntegrityViolation)
        << "truncated to " << len;
  }
}

}  // namespace
}  // namespace hsis::crypto
