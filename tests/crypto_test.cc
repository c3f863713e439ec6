// Unit tests for SHA-256 (both block kernels), HMAC-SHA256 (standard test
// vectors), and session key generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/crypto/hmac.h"
#include "src/crypto/session_key.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_internal.h"
#include "src/util/base64.h"

namespace rcb {
namespace {

// FIPS 180-4 / NIST example vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  auto digest = hasher.Finish();
  EXPECT_EQ(HexEncode(std::string(reinterpret_cast<const char*>(digest.data()),
                                  digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string message = "The quick brown fox jumps over the lazy dog";
  Sha256 hasher;
  for (char c : message) {
    hasher.Update(std::string_view(&c, 1));
  }
  auto digest = hasher.Finish();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(digest.data()),
                        digest.size()),
            Sha256::Digest(message));
}

TEST(Sha256Test, BoundaryLengths) {
  // Padding edge cases: 55, 56, 63, 64, 65 byte messages.
  for (size_t n : {55u, 56u, 63u, 64u, 65u}) {
    std::string message(n, 'x');
    Sha256 streaming;
    streaming.Update(message.substr(0, n / 2));
    streaming.Update(message.substr(n / 2));
    auto digest = streaming.Finish();
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(digest.data()),
                          digest.size()),
              Sha256::Digest(message))
        << "length " << n;
  }
}

// ---- Block kernels -------------------------------------------------------

using CompressFn = void (*)(uint32_t*, const uint8_t*, size_t);

// FIPS 180-4 padding around a bare kernel. `run_blocks` caps how many blocks
// one kernel call gets, so multi-block runs and single-block calls are both
// exercised.
std::string KernelDigest(CompressFn compress, std::string_view message,
                         size_t run_blocks) {
  std::vector<uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != Sha256::kBlockSize - 8) {
    padded.push_back(0);
  }
  uint64_t bit_len = static_cast<uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bit_len >> (i * 8)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  const size_t blocks = padded.size() / Sha256::kBlockSize;
  for (size_t done = 0; done < blocks;) {
    size_t run = std::min(run_blocks, blocks - done);
    compress(state, padded.data() + done * Sha256::kBlockSize, run);
    done += run;
  }
  std::string digest;
  for (uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<char>(word >> shift));
    }
  }
  return digest;
}

std::string PatternMessage(size_t n) {
  std::string message(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    message[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  return message;
}

TEST(Sha256KernelTest, PortableKernelMatchesStreamingDigest) {
  for (size_t n = 0; n <= 1024; ++n) {
    std::string message = PatternMessage(n);
    ASSERT_EQ(KernelDigest(sha256_internal::CompressPortable, message, 1),
              Sha256::Digest(message))
        << "length " << n;
  }
}

TEST(Sha256KernelTest, ShaNiKernelMatchesPortableOnEveryLength) {
#ifdef RCB_SHA256_HAS_SHANI_KERNEL
  if (!sha256_internal::ShaNiSupported()) {
    GTEST_SKIP() << "CPU lacks the SHA-NI extension; only the portable "
                    "kernel runs here";
  }
  for (size_t n = 0; n <= 1024; ++n) {
    std::string message = PatternMessage(n);
    std::string portable =
        KernelDigest(sha256_internal::CompressPortable, message, SIZE_MAX);
    ASSERT_EQ(KernelDigest(sha256_internal::CompressShaNi, message, SIZE_MAX),
              portable)
        << "length " << n;
    ASSERT_EQ(KernelDigest(sha256_internal::CompressShaNi, message, 1),
              portable)
        << "length " << n;
  }
#else
  GTEST_SKIP() << "no SHA-NI kernel on this architecture";
#endif
}

TEST(Sha256KernelTest, SplitUpdatesMatchPortableKernel) {
  // Every split of a 300 B message hits the buffered head, the multi-block
  // run and the tail in a different proportion; the streaming digest runs on
  // whichever kernel this CPU selected.
  const std::string message = PatternMessage(300);
  const std::string expected =
      KernelDigest(sha256_internal::CompressPortable, message, 1);
  for (size_t split = 0; split <= message.size(); ++split) {
    Sha256 hasher;
    hasher.Update(std::string_view(message).substr(0, split));
    hasher.Update(std::string_view(message).substr(split));
    auto digest = hasher.Finish();
    ASSERT_EQ(std::string(reinterpret_cast<const char*>(digest.data()),
                          digest.size()),
              expected)
        << "split at " << split;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(HmacSha256Hex(key, "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HmacSha256Hex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  std::string key(20, '\xaa');
  std::string message(50, '\xdd');
  EXPECT_EQ(HmacSha256Hex(key, message),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  std::string key;
  for (char c = 0x01; c <= 0x19; ++c) {
    key.push_back(c);
  }
  std::string message(50, '\xcd');
  EXPECT_EQ(HmacSha256Hex(key, message),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HmacSha256Hex(key, "Test Using Larger Than Block-Size Key - "
                               "Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HmacSha256Hex(key,
                          "This is a test using a larger than block-size key "
                          "and a larger than block-size data. The key needs "
                          "to be hashed before being used by the HMAC "
                          "algorithm."),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, DifferentKeysDifferentMacs) {
  EXPECT_NE(HmacSha256Hex("key1", "message"), HmacSha256Hex("key2", "message"));
  EXPECT_NE(HmacSha256Hex("key", "message1"), HmacSha256Hex("key", "message2"));
}

TEST(ConstantTimeEqualsTest, Basics) {
  EXPECT_TRUE(ConstantTimeEquals("", ""));
  EXPECT_TRUE(ConstantTimeEquals("abc", "abc"));
  EXPECT_FALSE(ConstantTimeEquals("abc", "abd"));
  EXPECT_FALSE(ConstantTimeEquals("abc", "ab"));
  EXPECT_FALSE(ConstantTimeEquals("ab", "abc"));
  EXPECT_FALSE(ConstantTimeEquals("", "x"));
}

TEST(SessionKeyTest, GeneratesDistinctTypableKeys) {
  SessionKeyGenerator generator(42);
  std::string k1 = generator.Generate();
  std::string k2 = generator.Generate();
  EXPECT_EQ(k1.size(), 20u);
  EXPECT_NE(k1, k2);
  for (char c : k1) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'));
  }
}

TEST(SessionKeyTest, DeterministicPerSeed) {
  SessionKeyGenerator a(7);
  SessionKeyGenerator b(7);
  EXPECT_EQ(a.Generate(), b.Generate());
}

}  // namespace
}  // namespace rcb
