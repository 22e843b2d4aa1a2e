#include "crypto/authenticated_cipher.h"

#include "crypto/chacha20.h"

namespace hsis::crypto {

Result<AuthenticatedCipher> AuthenticatedCipher::Create(
    const Bytes& master_key) {
  if (master_key.size() != kKeySize) {
    return Status::InvalidArgument("master key must be 32 bytes");
  }
  Bytes enc_key = DeriveKey(master_key, "hsis.aead.enc", kKeySize);
  Bytes mac_key = DeriveKey(master_key, "hsis.aead.mac", kKeySize);
  return AuthenticatedCipher(std::move(enc_key), mac_key);
}

Bytes AuthenticatedCipher::ComputeTag(std::span<const uint8_t> nonce,
                                      std::span<const uint8_t> ciphertext,
                                      const Bytes& aad) const {
  HmacSha256Stream mac = mac_;
  Bytes aad_len;
  AppendUint64BE(aad_len, aad.size());
  mac.Update(aad_len);
  mac.Update(aad);
  mac.Update(nonce.data(), nonce.size());
  mac.Update(ciphertext.data(), ciphertext.size());
  return mac.Finish();
}

Result<Bytes> AuthenticatedCipher::Seal(const Bytes& nonce,
                                        const Bytes& plaintext,
                                        const Bytes& aad) const {
  if (nonce.size() != kNonceSize) {
    return Status::InvalidArgument("nonce must be 12 bytes");
  }
  HSIS_ASSIGN_OR_RETURN(ChaCha20 stream, ChaCha20::Create(enc_key_, nonce));
  // Encrypt in place inside the sealed buffer: nonce || ciphertext || tag.
  Bytes sealed;
  sealed.reserve(kNonceSize + plaintext.size() + kTagSize);
  Append(sealed, nonce);
  Append(sealed, plaintext);
  std::span<uint8_t> ciphertext(sealed.data() + kNonceSize, plaintext.size());
  stream.Process(ciphertext.data(), ciphertext.size());
  Append(sealed, ComputeTag(nonce, ciphertext, aad));
  return sealed;
}

Result<Bytes> AuthenticatedCipher::Open(const Bytes& sealed,
                                        const Bytes& aad) const {
  if (sealed.size() < kNonceSize + kTagSize) {
    return Status::IntegrityViolation("sealed message truncated");
  }
  std::span<const uint8_t> whole(sealed);
  std::span<const uint8_t> nonce = whole.first(kNonceSize);
  std::span<const uint8_t> ciphertext =
      whole.subspan(kNonceSize, sealed.size() - kNonceSize - kTagSize);
  std::span<const uint8_t> tag = whole.last(kTagSize);

  if (!ConstantTimeEqual(tag, ComputeTag(nonce, ciphertext, aad))) {
    return Status::IntegrityViolation("authentication tag mismatch");
  }
  HSIS_ASSIGN_OR_RETURN(ChaCha20 stream, ChaCha20::Create(enc_key_, nonce));
  Bytes plaintext(ciphertext.begin(), ciphertext.end());
  stream.Process(plaintext);
  return plaintext;
}

}  // namespace hsis::crypto
