#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "crypto/sha256_compress.h"

namespace hsis::crypto {
namespace {

std::string HashHex(std::string_view msg) {
  return HexEncode(Sha256::Hash(msg));
}

// NIST FIPS 180-4 / classic test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(reinterpret_cast<const uint8_t*>(msg.data()), split);
    h.Update(reinterpret_cast<const uint8_t*>(msg.data()) + split,
             msg.size() - split);
    EXPECT_EQ(h.Finish(), Sha256::Hash(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, PaddingBoundaryLengths) {
  // Lengths straddling the 55/56/63/64-byte padding boundaries must all
  // produce distinct digests and not crash.
  std::set<std::string> digests;
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    digests.insert(HexEncode(Sha256::Hash(std::string(len, 'x'))));
  }
  EXPECT_EQ(digests.size(), 10u);
}

TEST(Sha256Test, DigestSizeIs32) {
  EXPECT_EQ(Sha256::Hash("x").size(), 32u);
}

using internal::Sha256CompressFn;

constexpr char kNoShaNi[] =
    "this CPU or build has no SHA-NI, so only the scalar compress runs";

// SHA-256 of `msg` computed with `compress` alone: FIPS 180-4 padding,
// then every padded block in one call.
Bytes DigestWith(Sha256CompressFn compress, const Bytes& msg) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0);
  AppendUint64BE(padded, static_cast<uint64_t>(msg.size()) * 8);
  compress(state, padded.data(), padded.size() / Sha256::kBlockSize);
  Bytes digest;
  for (uint32_t word : state) AppendUint32BE(digest, word);
  return digest;
}

// HMAC-SHA-256 (RFC 2104) over `DigestWith(compress, .)`.
Bytes HmacWith(Sha256CompressFn compress, Bytes key, const Bytes& msg) {
  if (key.size() > Sha256::kBlockSize) key = DigestWith(compress, key);
  key.resize(Sha256::kBlockSize, 0);
  Bytes inner = key, outer = key;
  for (size_t i = 0; i < key.size(); ++i) {
    inner[i] ^= 0x36;
    outer[i] ^= 0x5c;
  }
  inner.insert(inner.end(), msg.begin(), msg.end());
  Append(outer, DigestWith(compress, inner));
  return DigestWith(compress, outer);
}

// The NIST SHA-256 and RFC 4231 HMAC-SHA-256 vectors, pushed through
// one compress function directly rather than through `Sha256`.
void ExpectKnownVectors(Sha256CompressFn compress) {
  const std::pair<Bytes, std::string> digests[] = {
      {ToBytes(""),
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {ToBytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [msg, hex] : digests) {
    EXPECT_EQ(HexEncode(DigestWith(compress, msg)), hex)
        << msg.size() << "-byte message";
  }
  struct Hmac {
    Bytes key, msg;
    std::string hex;
  };
  const Hmac macs[] = {
      {Bytes(20, 0x0b), ToBytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {ToBytes("Jefe"), ToBytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Hmac& mac : macs) {
    EXPECT_EQ(HexEncode(HmacWith(compress, mac.key, mac.msg)), mac.hex)
        << mac.key.size() << "-byte key";
  }
}

TEST(Sha256CompressTest, ScalarPassesKnownVectors) {
  ExpectKnownVectors(&internal::Sha256CompressScalar);
}

TEST(Sha256CompressTest, ShaNiPassesKnownVectors) {
  const Sha256CompressFn sha_ni = internal::Sha256CompressShaNi();
  if (sha_ni == nullptr) GTEST_SKIP() << kNoShaNi;
  ExpectKnownVectors(sha_ni);
}

// Random chaining states and 1..17-block inputs, read from every
// alignment mod 16: the two compress functions must agree word for
// word.
TEST(Sha256CompressTest, ShaNiMatchesScalarOnRandomStatesAndBlocks) {
  const Sha256CompressFn sha_ni = internal::Sha256CompressShaNi();
  if (sha_ni == nullptr) GTEST_SKIP() << kNoShaNi;
  Rng rng(0x5A256);
  for (int trial = 0; trial < 340; ++trial) {
    const size_t blocks = 1 + static_cast<size_t>(trial) % 17;
    const size_t offset = static_cast<size_t>(trial) % 16;
    const Bytes input = rng.RandomBytes(offset + blocks * Sha256::kBlockSize);
    uint32_t scalar[8] = {}, vector[8] = {};
    for (uint32_t& word : scalar) {
      word = static_cast<uint32_t>(rng.NextUint64());
    }
    std::memcpy(vector, scalar, sizeof(scalar));
    internal::Sha256CompressScalar(scalar, input.data() + offset, blocks);
    sha_ni(vector, input.data() + offset, blocks);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(vector[i], scalar[i])
          << "trial " << trial << " blocks " << blocks << " word " << i;
    }
  }
}

TEST(Sha256CompressTest, SelectsShaNiWhenTheCpuHasIt) {
  const Sha256CompressFn sha_ni = internal::Sha256CompressShaNi();
  EXPECT_EQ(internal::Sha256Compress(),
            sha_ni != nullptr ? sha_ni : &internal::Sha256CompressScalar);
}

}  // namespace
}  // namespace hsis::crypto
