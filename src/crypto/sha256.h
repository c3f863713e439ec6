// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper's request authentication (§3.4) uses keyed-hash MACs computed by
// a JavaScript crypto library; we provide the equivalent primitive here.
// Blocks are compressed by the SHA-NI kernel on x86 CPUs that have the
// extension and by a portable kernel everywhere else, chosen once per
// process (src/crypto/sha256_internal.h).
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace rcb {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  // Streaming interface.
  void Update(std::string_view data);
  std::array<uint8_t, kDigestSize> Finish();

  // One-shot digest as raw bytes.
  static std::string Digest(std::string_view data);
  // One-shot digest as lowercase hex.
  static std::string HexDigest(std::string_view data);

 private:
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  bool finished_ = false;
};

}  // namespace rcb

#endif  // SRC_CRYPTO_SHA256_H_
