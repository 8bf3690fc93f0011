#include "src/crypto/aes128.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sbt {
namespace {

// Standard AES S-box (FIPS-197).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36};

// GF(2^8) multiply-by-2 (xtime).
inline uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

}  // namespace

Aes128::Aes128(const AesKey& key) {
  // Key expansion (FIPS-197 §5.2), 4-byte words, Nk=4, Nr=10.
  std::memcpy(round_keys_.data(), key.data(), kAesKeySize);
  for (size_t i = 4; i < 4 * (kAesRounds + 1); ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &round_keys_[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4 - 1]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (int b = 0; b < 4; ++b) {
      round_keys_[i * 4 + b] = round_keys_[(i - 4) * 4 + b] ^ temp[b];
    }
  }
}

void Aes128::EncryptBlock(uint8_t block[kAesBlockSize]) const {
  uint8_t s[16];
  std::memcpy(s, block, 16);

  auto add_round_key = [&](size_t round) {
    const uint8_t* rk = &round_keys_[round * 16];
    for (int i = 0; i < 16; ++i) {
      s[i] ^= rk[i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : s) {
      b = kSbox[b];
    }
  };
  auto shift_rows = [&] {
    // State is column-major: s[c*4 + r].
    uint8_t t;
    // Row 1: rotate left by 1.
    t = s[1];
    s[1] = s[5];
    s[5] = s[9];
    s[9] = s[13];
    s[13] = t;
    // Row 2: rotate left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: rotate left by 3 (== right by 1).
    t = s[15];
    s[15] = s[11];
    s[11] = s[7];
    s[7] = s[3];
    s[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = &s[c * 4];
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<uint8_t>(a0 ^ all ^ XTime(a0 ^ a1));
      col[1] = static_cast<uint8_t>(a1 ^ all ^ XTime(a1 ^ a2));
      col[2] = static_cast<uint8_t>(a2 ^ all ^ XTime(a2 ^ a3));
      col[3] = static_cast<uint8_t>(a3 ^ all ^ XTime(a3 ^ a0));
    }
  };

  add_round_key(0);
  for (size_t round = 1; round < kAesRounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(kAesRounds);

  std::memcpy(block, s, 16);
}

Aes128Ctr::Aes128Ctr(const AesKey& key, std::span<const uint8_t> nonce12) : cipher_(key) {
  SBT_CHECK(nonce12.size() == nonce_.size());
  std::memcpy(nonce_.data(), nonce12.data(), nonce_.size());
}

#if defined(__x86_64__)

// Helpers for the AES-NI path. Free functions (not lambdas) because GCC does not propagate
// the target attribute into lambda bodies.
__attribute__((target("aes,ssse3"))) inline __m128i EncryptOne(
    const __m128i rk[kAesRounds + 1], __m128i b) {
  b = _mm_xor_si128(b, rk[0]);
  for (size_t r = 1; r < kAesRounds; ++r) {
    b = _mm_aesenc_si128(b, rk[r]);
  }
  return _mm_aesenclast_si128(b, rk[kAesRounds]);
}

// Counter block `ctr_le + k`: the 32-bit counter sits little-endian in lane 3 of `ctr_le`, so
// the add wraps exactly like the big-endian 32-bit counter; the shuffle byte-swaps it into
// bytes 12..15 and zeroes the rest, which the nonce block fills.
__attribute__((target("aes,ssse3"))) inline __m128i CounterBlock(__m128i nonce_block,
                                                                __m128i ctr_le, int k) {
  const __m128i bswap_lane3 = _mm_set_epi8(12, 13, 14, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                           -1, -1, -1);
  return _mm_or_si128(
      nonce_block,
      _mm_shuffle_epi8(_mm_add_epi32(ctr_le, _mm_set_epi32(k, 0, 0, 0)), bswap_lane3));
}

// XORs keystream bytes [from, from + n) of counter block `ctr_block` into data[0, n).
__attribute__((target("aes,ssse3"))) inline void XorOneBlock(const __m128i rk[kAesRounds + 1],
                                                            __m128i ctr_block, size_t from,
                                                            uint8_t* data, size_t n) {
  alignas(16) uint8_t ks[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(ks), EncryptOne(rk, ctr_block));
  for (size_t i = 0; i < n; ++i) {
    data[i] ^= ks[from + i];
  }
}

// AES-NI CTR keystream: eight counter blocks in flight per iteration to fill the AESENC
// pipeline, built in registers.
__attribute__((target("aes,ssse3"))) void CryptAesNi(const uint8_t* round_keys,
                                                     const uint8_t* nonce, uint64_t counter,
                                                     size_t skip, uint8_t* data, size_t len) {
  constexpr size_t kLanes = 8;
  __m128i rk[kAesRounds + 1];
  for (size_t i = 0; i <= kAesRounds; ++i) {
    rk[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + i * 16));
  }
  alignas(16) uint8_t nonce_bytes[16] = {};
  std::memcpy(nonce_bytes, nonce, 12);
  const __m128i nonce_block = _mm_load_si128(reinterpret_cast<const __m128i*>(nonce_bytes));
  __m128i ctr_le = _mm_set_epi32(static_cast<int>(static_cast<uint32_t>(counter)), 0, 0, 0);

  size_t pos = 0;
  // Head: partial first block.
  if (skip != 0) {
    pos = std::min(kAesBlockSize - skip, len);
    XorOneBlock(rk, CounterBlock(nonce_block, ctr_le, 0), skip, data, pos);
    ctr_le = _mm_add_epi32(ctr_le, _mm_set_epi32(1, 0, 0, 0));
  }
  // Body: kLanes blocks at a time.
  while (pos + kLanes * kAesBlockSize <= len) {
    __m128i b[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      b[k] = _mm_xor_si128(CounterBlock(nonce_block, ctr_le, static_cast<int>(k)), rk[0]);
    }
    for (size_t r = 1; r < kAesRounds; ++r) {
      for (size_t k = 0; k < kLanes; ++k) {
        b[k] = _mm_aesenc_si128(b[k], rk[r]);
      }
    }
    __m128i* out = reinterpret_cast<__m128i*>(data + pos);
    for (size_t k = 0; k < kLanes; ++k) {
      b[k] = _mm_aesenclast_si128(b[k], rk[kAesRounds]);
      _mm_storeu_si128(out + k, _mm_xor_si128(_mm_loadu_si128(out + k), b[k]));
    }
    ctr_le = _mm_add_epi32(ctr_le, _mm_set_epi32(kLanes, 0, 0, 0));
    pos += kLanes * kAesBlockSize;
  }
  // Tail: block at a time.
  while (pos < len) {
    const size_t n = std::min(kAesBlockSize, len - pos);
    XorOneBlock(rk, CounterBlock(nonce_block, ctr_le, 0), 0, data + pos, n);
    ctr_le = _mm_add_epi32(ctr_le, _mm_set_epi32(1, 0, 0, 0));
    pos += n;
  }
}

#endif  // __x86_64__

bool HardwareAesSupported() {
#if defined(__x86_64__)
  static const bool supported =
      __builtin_cpu_supports("aes") != 0 && __builtin_cpu_supports("ssse3") != 0;
  return supported;
#else
  return false;
#endif
}

void Aes128Ctr::Crypt(std::span<uint8_t> data, uint64_t offset) const {
  uint64_t counter = offset / kAesBlockSize;
  size_t skip = offset % kAesBlockSize;
#if defined(__x86_64__)
  if (HardwareAesSupported()) {
    CryptAesNi(cipher_.round_keys(), nonce_.data(), counter, skip, data.data(), data.size());
    return;
  }
#endif
  size_t pos = 0;
  uint8_t keystream[kAesBlockSize];

  while (pos < data.size()) {
    // Counter block: nonce || 32-bit big-endian counter.
    std::memcpy(keystream, nonce_.data(), 12);
    const uint32_t ctr32 = static_cast<uint32_t>(counter);
    keystream[12] = static_cast<uint8_t>(ctr32 >> 24);
    keystream[13] = static_cast<uint8_t>(ctr32 >> 16);
    keystream[14] = static_cast<uint8_t>(ctr32 >> 8);
    keystream[15] = static_cast<uint8_t>(ctr32);
    cipher_.EncryptBlock(keystream);

    const size_t n = std::min(kAesBlockSize - skip, data.size() - pos);
    for (size_t i = 0; i < n; ++i) {
      data[pos + i] ^= keystream[skip + i];
    }
    pos += n;
    skip = 0;
    ++counter;
  }
}

void Aes128Ctr::Crypt(std::span<const uint8_t> in, std::span<uint8_t> out,
                      uint64_t offset) const {
  SBT_CHECK(in.size() <= out.size());
  std::memcpy(out.data(), in.data(), in.size());
  Crypt(out.subspan(0, in.size()), offset);
}

}  // namespace sbt
