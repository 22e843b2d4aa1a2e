#include "crypto/chacha20.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hsis::crypto {
namespace {

Bytes MustHex(std::string_view h) {
  Result<Bytes> r = HexDecode(h);
  EXPECT_TRUE(r.ok());
  return *r;
}

// RFC 8439 section 2.3.2 block-function test vector.
TEST(ChaCha20Test, Rfc8439BlockFunction) {
  std::array<uint32_t, 8> key;
  for (uint32_t i = 0; i < 8; ++i) {
    key[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
             ((4 * i + 3) << 24);
  }
  std::array<uint32_t, 3> nonce = {0x09000000, 0x4a000000, 0x00000000};
  std::array<uint8_t, 64> block = ChaCha20::Block(key, nonce, 1);
  Bytes got(block.begin(), block.end());
  EXPECT_EQ(HexEncode(got),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 section 2.4.2 encryption test vector.
TEST(ChaCha20Test, Rfc8439Encryption) {
  Bytes key = MustHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = MustHex("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Result<Bytes> ct =
      ChaCha20::Apply(key, nonce, ToBytes(plaintext), /*initial_counter=*/1);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(HexEncode(*ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Test, EncryptDecryptRoundTrip) {
  Bytes key(32, 0x42);
  Bytes nonce(12, 0x07);
  Bytes msg = ToBytes("round trip message of arbitrary length 12345");
  Result<Bytes> ct = ChaCha20::Apply(key, nonce, msg);
  ASSERT_TRUE(ct.ok());
  EXPECT_NE(*ct, msg);
  Result<Bytes> pt = ChaCha20::Apply(key, nonce, *ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, msg);
}

TEST(ChaCha20Test, StreamingMatchesOneShot) {
  Bytes key(32, 0x11);
  Bytes nonce(12, 0x22);
  Bytes msg(1000);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<uint8_t>(i);

  Result<Bytes> oneshot = ChaCha20::Apply(key, nonce, msg);
  ASSERT_TRUE(oneshot.ok());

  Result<ChaCha20> cipher = ChaCha20::Create(key, nonce);
  ASSERT_TRUE(cipher.ok());
  Bytes streamed;
  for (size_t off = 0; off < msg.size(); off += 37) {
    size_t n = std::min<size_t>(37, msg.size() - off);
    Bytes chunk(msg.begin() + static_cast<ptrdiff_t>(off),
                msg.begin() + static_cast<ptrdiff_t>(off + n));
    cipher->Process(chunk);
    Append(streamed, chunk);
  }
  EXPECT_EQ(streamed, *oneshot);
}

TEST(ChaCha20Test, RejectsBadKeyOrNonceSize) {
  EXPECT_FALSE(ChaCha20::Create(Bytes(31, 0), Bytes(12, 0)).ok());
  EXPECT_FALSE(ChaCha20::Create(Bytes(32, 0), Bytes(11, 0)).ok());
  EXPECT_TRUE(ChaCha20::Create(Bytes(32, 0), Bytes(12, 0)).ok());
}

TEST(ChaCha20Test, DifferentNoncesDifferentStreams) {
  Bytes key(32, 0x01);
  Bytes msg(64, 0x00);
  Result<Bytes> a = ChaCha20::Apply(key, Bytes(12, 0x01), msg);
  Result<Bytes> b = ChaCha20::Apply(key, Bytes(12, 0x02), msg);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

// Block-wise `Process` against the RFC 8439 keystream at every length
// 0..200, in one call and split into two or three calls at every cut
// point, so each whole-block, partial-block and carried-over path runs
// on both sides of every 64-byte boundary. The reference keystream is
// the RFC block function (pinned by Rfc8439BlockFunction above) on the
// section 2.4.2 key and nonce from counter 1; its first 114 bytes are
// pinned against the RFC ciphertext as well.
TEST(ChaCha20Test, BlockwiseProcessMatchesRfc8439AtEveryLength) {
  const Bytes key = MustHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = MustHex("000000000000004a00000000");
  std::array<uint32_t, 8> key_words;
  for (uint32_t i = 0; i < 8; ++i) {
    key_words[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
                   ((4 * i + 3) << 24);
  }
  const std::array<uint32_t, 3> nonce_words = {0x00000000, 0x4a000000,
                                               0x00000000};
  constexpr size_t kMax = 200;
  Bytes keystream;
  for (uint32_t block = 1; keystream.size() < kMax; ++block) {
    std::array<uint8_t, 64> b = ChaCha20::Block(key_words, nonce_words, block);
    keystream.insert(keystream.end(), b.begin(), b.end());
  }
  const std::string sunscreen =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes rfc_plain = ToBytes(sunscreen);
  for (size_t i = 0; i < rfc_plain.size(); ++i) rfc_plain[i] ^= keystream[i];
  EXPECT_EQ(HexEncode(rfc_plain),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");

  auto run = [&](size_t len, std::vector<size_t> cuts) {
    Bytes data(len);
    for (size_t i = 0; i < len; ++i) data[i] = static_cast<uint8_t>(7 * i + 3);
    Bytes want = data;
    for (size_t i = 0; i < len; ++i) want[i] ^= keystream[i];
    Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, 1);
    EXPECT_TRUE(cipher.ok());
    cuts.push_back(len);
    size_t at = 0;
    for (size_t cut : cuts) {
      cipher->Process(data.data() + at, cut - at);
      at = cut;
    }
    return data == want;
  };
  for (size_t len = 0; len <= kMax; ++len) {
    EXPECT_TRUE(run(len, {})) << "len " << len;
    for (size_t cut = 0; cut <= len; ++cut) {
      EXPECT_TRUE(run(len, {cut})) << "len " << len << " cut " << cut;
    }
    for (size_t first : {size_t{1}, size_t{63}, size_t{64}, size_t{65}}) {
      for (size_t second : {size_t{64}, size_t{127}, size_t{128}}) {
        if (first + second <= len) {
          EXPECT_TRUE(run(len, {first, first + second}))
              << "len " << len << " cuts " << first << "," << first + second;
        }
      }
    }
  }
}

// The 4-lane kernel takes every run of four whole blocks, which the
// 0..200 sweep above never reaches. Every length 0..1100 runs in one
// call and in two calls cut at each 64-byte boundary (each 256-byte
// boundary is one of them) and one byte either side. The second stream
// starts at counter 0xFFFFFFFE, so the 32-bit counter wraps inside the
// kernel. The reference is the RFC 8439 block function, block by block.
TEST(ChaCha20Test, FourBlockKernelMatchesRfc8439BlockFunction) {
  Bytes key(ChaCha20::kKeySize), nonce(ChaCha20::kNonceSize);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  for (size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<uint8_t>(0xa0 + i);
  }
  std::array<uint32_t, 8> key_words;
  for (uint32_t i = 0; i < 8; ++i) {
    key_words[i] = (4 * i) | ((4 * i + 1) << 8) | ((4 * i + 2) << 16) |
                   ((4 * i + 3) << 24);
  }
  const std::array<uint32_t, 3> nonce_words = {0xa3a2a1a0, 0xa7a6a5a4,
                                               0xabaaa9a8};
  constexpr size_t kMax = 1100;

  for (uint32_t start : {uint32_t{1}, uint32_t{0xFFFFFFFE}}) {
    Bytes keystream;
    for (uint32_t counter = start; keystream.size() < kMax; ++counter) {
      std::array<uint8_t, 64> b =
          ChaCha20::Block(key_words, nonce_words, counter);
      keystream.insert(keystream.end(), b.begin(), b.end());
    }
    auto run = [&](size_t len, size_t cut) {
      Bytes data(len);
      for (size_t i = 0; i < len; ++i) {
        data[i] = static_cast<uint8_t>(5 * i + 1);
      }
      Bytes want = data;
      for (size_t i = 0; i < len; ++i) want[i] ^= keystream[i];
      Result<ChaCha20> cipher = ChaCha20::Create(key, nonce, start);
      EXPECT_TRUE(cipher.ok());
      cipher->Process(data.data(), cut);
      cipher->Process(data.data() + cut, len - cut);
      return data == want;
    };
    for (size_t len = 0; len <= kMax; ++len) {
      EXPECT_TRUE(run(len, len)) << "start " << start << " len " << len;
      for (size_t boundary = 64; boundary <= len; boundary += 64) {
        for (size_t cut : {boundary - 1, boundary, boundary + 1}) {
          if (cut > len) continue;
          EXPECT_TRUE(run(len, cut))
              << "start " << start << " len " << len << " cut " << cut;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hsis::crypto
