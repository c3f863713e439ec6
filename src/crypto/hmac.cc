#include "src/crypto/hmac.h"

#include <algorithm>
#include <cstdint>

#include "src/crypto/sha256.h"
#include "src/util/base64.h"

namespace rcb {

std::string HmacSha256(std::string_view key, std::string_view message) {
  uint8_t key_block[Sha256::kBlockSize] = {};
  if (key.size() > Sha256::kBlockSize) {
    std::string hashed = Sha256::Digest(key);
    std::copy(hashed.begin(), hashed.end(), key_block);
  } else {
    std::copy(key.begin(), key.end(), key_block);
  }

  char inner_pad[Sha256::kBlockSize];
  char outer_pad[Sha256::kBlockSize];
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    inner_pad[i] = static_cast<char>(key_block[i] ^ 0x36);
    outer_pad[i] = static_cast<char>(key_block[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.Update(std::string_view(inner_pad, Sha256::kBlockSize));
  inner.Update(message);
  auto inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(std::string_view(outer_pad, Sha256::kBlockSize));
  outer.Update(std::string_view(reinterpret_cast<const char*>(inner_digest.data()),
                                inner_digest.size()));
  auto digest = outer.Finish();
  return std::string(reinterpret_cast<const char*>(digest.data()), digest.size());
}

std::string HmacSha256Hex(std::string_view key, std::string_view message) {
  return HexEncode(HmacSha256(key, message));
}

bool ConstantTimeEquals(std::string_view a, std::string_view b) {
  // Fold the length difference into the accumulator so equal-length prefixes
  // of different-length strings do not compare equal, while still touching
  // every byte.
  unsigned char acc = static_cast<unsigned char>(a.size() ^ b.size());
  size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    acc |= static_cast<unsigned char>(a[i] ^ b[i]);
  }
  for (size_t i = n; i < a.size(); ++i) {
    acc |= static_cast<unsigned char>(a[i]);
  }
  for (size_t i = n; i < b.size(); ++i) {
    acc |= static_cast<unsigned char>(b[i]);
  }
  return acc == 0;
}

}  // namespace rcb
