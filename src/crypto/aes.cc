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

/** Full GF(2^8) multiply (table construction only). */
inline uint8_t
gmul(uint8_t a, uint8_t b)
{
    uint8_t p = 0;
    for (int i = 0; i < 8; i++) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
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
buildAesSboxes(uint8_t sbox[256], uint8_t inv_sbox[256])
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
        uint8_t y = uint8_t(x ^ (uint8_t)(x << 1 | x >> 7) ^
                            (uint8_t)(x << 2 | x >> 6) ^
                            (uint8_t)(x << 3 | x >> 5) ^
                            (uint8_t)(x << 4 | x >> 4) ^ 0x63);
        sbox[i] = y;
        inv_sbox[y] = uint8_t(i);
    }
}

} // namespace detail

namespace
{

struct Tables
{
    uint8_t sbox[256];
    uint8_t inv_sbox[256];
    /** Encrypt round tables: te[0][x] = MixColumn of S[x] at row 0;
     *  te[i] is te[0] rotated right by 8i bits. */
    uint32_t te[4][256];
    /** Decrypt round tables over InvS[x] and InvMixColumns. */
    uint32_t td[4][256];

    Tables()
    {
        detail::buildAesSboxes(sbox, inv_sbox);
        for (int i = 0; i < 256; i++) {
            uint8_t s = sbox[i];
            uint32_t e = (uint32_t(xtime(s)) << 24) |
                         (uint32_t(s) << 16) | (uint32_t(s) << 8) |
                         uint32_t(uint8_t(s ^ xtime(s))); // (2s,s,s,3s)
            uint8_t b = inv_sbox[i];
            uint32_t d = (uint32_t(gmul(b, 14)) << 24) |
                         (uint32_t(gmul(b, 9)) << 16) |
                         (uint32_t(gmul(b, 13)) << 8) |
                         uint32_t(gmul(b, 11)); // (14b,9b,13b,11b)
            for (int r = 0; r < 4; r++) {
                te[r][i] = rotr32(e, unsigned(8 * r));
                td[r][i] = rotr32(d, unsigned(8 * r));
            }
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

/** InvMixColumns of one round-key word, via Td0[S[x]] == IMC(x). */
inline uint32_t
invMixWord(const Tables &t, uint32_t w)
{
    return t.td[0][t.sbox[(w >> 24) & 0xff]] ^
           t.td[1][t.sbox[(w >> 16) & 0xff]] ^
           t.td[2][t.sbox[(w >> 8) & 0xff]] ^
           t.td[3][t.sbox[w & 0xff]];
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

void
tableDecrypt(const uint8_t *decKeys, uint8_t block[16])
{
    const Tables &t = tables();
    const uint8_t *dk = decKeys;
    uint32_t s0 = be32(block) ^ be32(dk);
    uint32_t s1 = be32(block + 4) ^ be32(dk + 4);
    uint32_t s2 = be32(block + 8) ^ be32(dk + 8);
    uint32_t s3 = be32(block + 12) ^ be32(dk + 12);

    for (int round = 1; round < 10; round++) {
        dk += 16;
        uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                      t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^
                      be32(dk);
        uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                      t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^
                      be32(dk + 4);
        uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                      t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^
                      be32(dk + 8);
        uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                      t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^
                      be32(dk + 12);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    dk += 16;
    uint32_t o0 = (uint32_t(t.inv_sbox[s0 >> 24]) << 24) |
                  (uint32_t(t.inv_sbox[(s3 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.inv_sbox[(s2 >> 8) & 0xff]) << 8) |
                  uint32_t(t.inv_sbox[s1 & 0xff]);
    uint32_t o1 = (uint32_t(t.inv_sbox[s1 >> 24]) << 24) |
                  (uint32_t(t.inv_sbox[(s0 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.inv_sbox[(s3 >> 8) & 0xff]) << 8) |
                  uint32_t(t.inv_sbox[s2 & 0xff]);
    uint32_t o2 = (uint32_t(t.inv_sbox[s2 >> 24]) << 24) |
                  (uint32_t(t.inv_sbox[(s1 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.inv_sbox[(s0 >> 8) & 0xff]) << 8) |
                  uint32_t(t.inv_sbox[s3 & 0xff]);
    uint32_t o3 = (uint32_t(t.inv_sbox[s3 >> 24]) << 24) |
                  (uint32_t(t.inv_sbox[(s2 >> 16) & 0xff]) << 16) |
                  (uint32_t(t.inv_sbox[(s1 >> 8) & 0xff]) << 8) |
                  uint32_t(t.inv_sbox[s0 & 0xff]);
    putBe32(block, o0 ^ be32(dk));
    putBe32(block + 4, o1 ^ be32(dk + 4));
    putBe32(block + 8, o2 ^ be32(dk + 8));
    putBe32(block + 12, o3 ^ be32(dk + 12));
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

constexpr detail::AesKernels kTableKernels = {tableEncrypt, tableDecrypt,
                                              tableCtr};

// --------------------------------------------------------------------
// AES-NI kernels: one aesenc/aesdec per round, over the same byte-order
// schedules the T-table kernels read.
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

VG_AESNI void
niDecryptBlock(const uint8_t *decKeys, uint8_t block[16])
{
    __m128i k[11];
    loadKeys(decKeys, k);
    auto *p = reinterpret_cast<__m128i *>(block);
    __m128i b = _mm_xor_si128(_mm_loadu_si128(p), k[0]);
    for (int r = 1; r < 10; r++)
        b = _mm_aesdec_si128(b, k[r]);
    _mm_storeu_si128(p, _mm_aesdeclast_si128(b, k[10]));
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

constexpr detail::AesKernels kNiKernels = {niEncryptBlock, niDecryptBlock,
                                           niCtr};

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

    // Equivalent inverse cipher: decrypt rounds walk the schedule
    // backwards with InvMixColumns folded into rounds 1..9.
    for (size_t i = 0; i < 44; i++) {
        size_t r = i / 4, c = i % 4;
        uint32_t src = w[4 * (10 - r) + c];
        putBe32(_encKeys.data() + 4 * i, w[i]);
        putBe32(_decKeys.data() + 4 * i,
                (r == 0 || r == 10) ? src : invMixWord(t, src));
    }
}

void
Aes128::encryptBlock(uint8_t block[16]) const
{
    _kernels->encrypt(_encKeys.data(), block);
}

void
Aes128::decryptBlock(uint8_t block[16]) const
{
    _kernels->decrypt(_decKeys.data(), block);
}

std::vector<uint8_t>
Aes128::cbcEncrypt(const std::vector<uint8_t> &plain,
                   const AesBlock &iv) const
{
    size_t pad = 16 - plain.size() % 16;
    std::vector<uint8_t> out(plain);
    out.insert(out.end(), pad, uint8_t(pad));

    uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    for (size_t off = 0; off < out.size(); off += 16) {
        for (int i = 0; i < 16; i++)
            out[off + i] ^= chain[i];
        encryptBlock(out.data() + off);
        std::memcpy(chain, out.data() + off, 16);
    }
    return out;
}

std::vector<uint8_t>
Aes128::cbcDecrypt(const std::vector<uint8_t> &cipher, const AesBlock &iv,
                   bool &ok) const
{
    ok = false;
    if (cipher.empty() || cipher.size() % 16 != 0)
        return {};

    std::vector<uint8_t> out(cipher);
    uint8_t chain[16];
    std::memcpy(chain, iv.data(), 16);
    for (size_t off = 0; off < out.size(); off += 16) {
        uint8_t saved[16];
        std::memcpy(saved, out.data() + off, 16);
        decryptBlock(out.data() + off);
        for (int i = 0; i < 16; i++)
            out[off + i] ^= chain[i];
        std::memcpy(chain, saved, 16);
    }

    uint8_t pad = out.back();
    if (pad == 0 || pad > 16 || pad > out.size())
        return {};
    for (size_t i = out.size() - pad; i < out.size(); i++) {
        if (out[i] != pad)
            return {};
    }
    out.resize(out.size() - pad);
    ok = true;
    return out;
}

void
Aes128::ctrCrypt(uint8_t *data, size_t len, const AesBlock &nonce) const
{
    _kernels->ctr(_encKeys.data(), data, len, nonce.data());
}

std::vector<uint8_t>
Aes128::ctrCrypt(const std::vector<uint8_t> &data,
                 const AesBlock &nonce) const
{
    std::vector<uint8_t> out(data);
    ctrCrypt(out.data(), out.size(), nonce);
    return out;
}

} // namespace vg::crypto
