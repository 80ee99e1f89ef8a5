#include "crypto/aes.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace vg::crypto
{

namespace
{

/** GF(2^8) multiply by x (xtime). */
inline uint8_t
xtime(uint8_t a)
{
    return uint8_t((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

inline uint32_t
rotr32(uint32_t x, unsigned n)
{
    // (-n & 31) keeps the left shift in [0, 31]; a plain 32 - n is
    // undefined for n == 0.
    return (x >> (n & 31)) | (x << (-n & 31));
}

} // namespace

namespace detail
{

void
buildAesSbox(uint8_t sbox[256])
{
    // 0x03 generates the multiplicative group of GF(2^8): walk
    // pow3[i] = 3^i once, recording discrete logs, and read every
    // inverse off as 3^(255 - log3[a]). One linear pass replaces the
    // quadratic search for each element's inverse.
    uint8_t pow3[256];
    uint8_t log3[256] = {0};
    uint8_t p = 1;
    for (int i = 0; i < 255; i++) {
        pow3[i] = p;
        log3[p] = uint8_t(i);
        p = uint8_t(p ^ xtime(p)); // p *= 0x03
    }
    pow3[255] = pow3[0];

    for (int i = 0; i < 256; i++) {
        uint8_t x = i ? pow3[255 - log3[i]] : 0;
        sbox[i] = uint8_t(x ^ (uint8_t)(x << 1 | x >> 7) ^
                          (uint8_t)(x << 2 | x >> 6) ^
                          (uint8_t)(x << 3 | x >> 5) ^
                          (uint8_t)(x << 4 | x >> 4) ^ 0x63);
    }
}

} // namespace detail

namespace
{

struct Tables
{
    uint8_t sbox[256];
    /** Encrypt round tables: te[0][x] = MixColumn of S[x] at row 0;
     *  te[i] is te[0] rotated right by 8i bits. */
    uint32_t te[4][256];

    Tables()
    {
        detail::buildAesSbox(sbox);
        for (int i = 0; i < 256; i++) {
            uint8_t s = sbox[i];
            uint32_t e = (uint32_t(xtime(s)) << 24) |
                         (uint32_t(s) << 16) | (uint32_t(s) << 8) |
                         uint32_t(uint8_t(s ^ xtime(s))); // (2s,s,s,3s)
            for (int r = 0; r < 4; r++)
                te[r][i] = rotr32(e, unsigned(8 * r));
        }
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint32_t
be32(const uint8_t *p)
{
    return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
           (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}

inline void
putBe32(uint8_t *p, uint32_t v)
{
    p[0] = uint8_t(v >> 24);
    p[1] = uint8_t(v >> 16);
    p[2] = uint8_t(v >> 8);
    p[3] = uint8_t(v);
}

// --------------------------------------------------------------------
// Portable kernels. T-table rounds: SubBytes+ShiftRows+MixColumns
// collapse to four table lookups and three XORs per output word.
// --------------------------------------------------------------------

void
tableEncrypt(const uint8_t *encKeys, uint8_t block[16])
{
    const Tables &t = tables();
    const uint8_t *rk = encKeys;
    uint32_t s0 = be32(block) ^ be32(rk);
    uint32_t s1 = be32(block + 4) ^ be32(rk + 4);
    uint32_t s2 = be32(block + 8) ^ be32(rk + 8);
    uint32_t s3 = be32(block + 12) ^ be32(rk + 12);

    for (int round = 1; round < 10; round++) {
        rk += 16;
        uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                      t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                      be32(rk);
        uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                      t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                      be32(rk + 4);
        uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                      t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                      be32(rk + 8);
        uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                      t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                      be32(rk + 12);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    rk += 16;
    uint32_t o0 = (uint32_t(t.sbox[s0 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s1 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s2 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s3 & 0xff]);
    uint32_t o1 = (uint32_t(t.sbox[s1 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s2 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s3 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s0 & 0xff]);
    uint32_t o2 = (uint32_t(t.sbox[s2 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s3 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s0 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s1 & 0xff]);
    uint32_t o3 = (uint32_t(t.sbox[s3 >> 24]) << 24) |
                  (uint32_t(t.sbox[(s0 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.sbox[(s1 >> 8) & 0xff]) << 8) |
                  uint32_t(t.sbox[s2 & 0xff]);
    putBe32(block, o0 ^ be32(rk));
    putBe32(block + 4, o1 ^ be32(rk + 4));
    putBe32(block + 8, o2 ^ be32(rk + 8));
    putBe32(block + 12, o3 ^ be32(rk + 12));
}

/** The low 8 bytes of a CTR nonce, as a big-endian counter. */
inline uint64_t
counterOf(const uint8_t nonce[16])
{
    return (uint64_t(be32(nonce + 8)) << 32) | be32(nonce + 12);
}

void
tableCtr(const uint8_t *encKeys, uint8_t *data, size_t len,
         const uint8_t nonce[16])
{
    uint64_t counter = counterOf(nonce);
    uint8_t keystream[16];
    for (size_t off = 0; off < len; off += 16, counter++) {
        std::memcpy(keystream, nonce, 8);
        putBe32(keystream + 8, uint32_t(counter >> 32));
        putBe32(keystream + 12, uint32_t(counter));
        tableEncrypt(encKeys, keystream);
        size_t n = std::min<size_t>(16, len - off);
        for (size_t i = 0; i < n; i++)
            data[off + i] ^= keystream[i];
    }
}

constexpr detail::AesKernels kTableKernels = {tableEncrypt, tableCtr};

// --------------------------------------------------------------------
// AES-NI kernels: one aesenc per round, over the same byte-order
// schedule the T-table kernels read.
// --------------------------------------------------------------------

#if defined(__x86_64__)

#define VG_AESNI __attribute__((target("aes,sse4.1")))

VG_AESNI inline void
loadKeys(const uint8_t *keys, __m128i k[11])
{
    for (size_t r = 0; r < 11; r++)
        k[r] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(keys + 16 * r));
}

VG_AESNI inline __m128i
niEncrypt(const __m128i k[11], __m128i b)
{
    b = _mm_xor_si128(b, k[0]);
    for (int r = 1; r < 10; r++)
        b = _mm_aesenc_si128(b, k[r]);
    return _mm_aesenclast_si128(b, k[10]);
}

VG_AESNI void
niEncryptBlock(const uint8_t *encKeys, uint8_t block[16])
{
    __m128i k[11];
    loadKeys(encKeys, k);
    auto *p = reinterpret_cast<__m128i *>(block);
    _mm_storeu_si128(p, niEncrypt(k, _mm_loadu_si128(p)));
}

/** XOR one keystream block into @p n <= 16 bytes at @p p. */
VG_AESNI inline void
xorBlock(uint8_t *p, __m128i ks, size_t n)
{
    auto *v = reinterpret_cast<__m128i *>(p);
    if (n == 16) {
        _mm_storeu_si128(v, _mm_xor_si128(_mm_loadu_si128(v), ks));
        return;
    }
    uint8_t bytes[16];
    _mm_storeu_si128(reinterpret_cast<__m128i *>(bytes), ks);
    for (size_t i = 0; i < n; i++)
        p[i] ^= bytes[i];
}

/**
 * Eight counter blocks in flight per batch, then one at a time for
 * the last whole blocks and the partial tail. Block i of a batch
 * carries the unchanged high half of the nonce and counter + i, so the
 * low half wraps mod 2^64 inside a batch exactly as the byte-wise
 * increment does.
 */
VG_AESNI void
niCtr(const uint8_t *encKeys, uint8_t *data, size_t len,
      const uint8_t nonce[16])
{
    __m128i k[11];
    loadKeys(encKeys, k);
    long long high;
    std::memcpy(&high, nonce, 8);
    uint64_t counter = counterOf(nonce);
    auto block = [&](uint64_t c) {
        return _mm_set_epi64x(
            static_cast<long long>(__builtin_bswap64(c)), high);
    };

    size_t off = 0;
    for (; off + 128 <= len; off += 128, counter += 8) {
        __m128i b[8];
#pragma GCC unroll 8
        for (size_t i = 0; i < 8; i++)
            b[i] = _mm_xor_si128(block(counter + i), k[0]);
        for (int r = 1; r < 10; r++) {
#pragma GCC unroll 8
            for (auto &x : b)
                x = _mm_aesenc_si128(x, k[r]);
        }
#pragma GCC unroll 8
        for (size_t i = 0; i < 8; i++)
            xorBlock(data + off + 16 * i,
                     _mm_aesenclast_si128(b[i], k[10]), 16);
    }
    for (; off < len; off += 16, counter++)
        xorBlock(data + off, niEncrypt(k, block(counter)),
                 std::min<size_t>(16, len - off));
}

#undef VG_AESNI

constexpr detail::AesKernels kNiKernels = {niEncryptBlock, niCtr};

#endif // __x86_64__

} // namespace

namespace detail
{

const AesKernels &
portableAes()
{
    return kTableKernels;
}

const AesKernels *
hardwareAes()
{
#if defined(__x86_64__)
    static const bool present = [] {
        unsigned a, b, c, d;
        return __get_cpuid(1, &a, &b, &c, &d) && (c & bit_AES) &&
               (c & bit_SSSE3) && (c & bit_SSE4_1);
    }();
    return present ? &kNiKernels : nullptr;
#else
    return nullptr;
#endif
}

} // namespace detail

Aes128::Aes128(const AesKey &key)
    : Aes128(key, detail::hardwareAes() ? *detail::hardwareAes()
                                        : detail::portableAes())
{
}

Aes128::Aes128(const AesKey &key, const detail::AesKernels &kernels)
    : _kernels(&kernels)
{
    const Tables &t = tables();
    uint32_t w[44];
    for (size_t i = 0; i < 4; i++)
        w[i] = be32(key.data() + 4 * i);
    for (size_t i = 4; i < 44; i++) {
        uint32_t temp = w[i - 1];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            temp = (temp << 8) | (temp >> 24);
            temp = (uint32_t(t.sbox[(temp >> 24) & 0xff]) << 24) |
                   (uint32_t(t.sbox[(temp >> 16) & 0xff]) << 16) |
                   (uint32_t(t.sbox[(temp >> 8) & 0xff]) << 8) |
                   uint32_t(t.sbox[temp & 0xff]);
            temp ^= uint32_t(kRcon[i / 4]) << 24;
        }
        w[i] = w[i - 4] ^ temp;
    }
    for (size_t i = 0; i < 44; i++)
        putBe32(_encKeys.data() + 4 * i, w[i]);
}

void
Aes128::encryptBlock(uint8_t block[16]) const
{
    _kernels->encrypt(_encKeys.data(), block);
}

void
Aes128::ctrCrypt(uint8_t *data, size_t len, const AesBlock &nonce) const
{
    _kernels->ctr(_encKeys.data(), data, len, nonce.data());
}

} // namespace vg::crypto
