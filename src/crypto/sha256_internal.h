// SHA-256 block compression kernels, exposed for tests.
//
// Sha256 (src/crypto/sha256.h) picks one kernel per process: the SHA-NI
// kernel when the CPU has the extension, the portable one otherwise. Both
// fold `blocks` consecutive 64-byte blocks into `state` and must agree byte
// for byte; crypto_test compares them directly.
#ifndef SRC_CRYPTO_SHA256_INTERNAL_H_
#define SRC_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace rcb::sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks);

// True when this CPU can run CompressShaNi.
bool ShaNiSupported();

#if defined(__x86_64__) || defined(__i386__)
#define RCB_SHA256_HAS_SHANI_KERNEL 1
// Only valid when ShaNiSupported().
void CompressShaNi(uint32_t state[8], const uint8_t* data, size_t blocks);
#endif

}  // namespace rcb::sha256_internal

#endif  // SRC_CRYPTO_SHA256_INTERNAL_H_
