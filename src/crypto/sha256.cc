#include "crypto/sha256.hh"

#include <algorithm>
#include <cstring>

#include "sim/log.hh"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace vg::crypto
{

namespace
{

constexpr std::array<uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline uint32_t
rotr(uint32_t x, unsigned n)
{
    return (x >> n) | (x << (32 - n));
}

/** One SHA-256 round with the a..h roles passed explicitly, so the
 *  unrolled loop rotates register roles instead of shuffling values. */
inline void
round(uint32_t a, uint32_t b, uint32_t c, uint32_t &d, uint32_t e,
      uint32_t f, uint32_t g, uint32_t &h, uint32_t k, uint32_t w)
{
    uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                  ((e & f) ^ (~e & g)) + k + w;
    uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                  ((a & b) ^ (a & c) ^ (b & c));
    d += t1;
    h = t1 + t2;
}

#if defined(__x86_64__)

/**
 * SHA-NI compression of @p n blocks in each of L independent lanes,
 * lane l absorbing p[l] into state[l]. Each lane's state lives as
 * ABEF/CDGH registers for the whole run of blocks. Group g does rounds
 * 4g..4g+3 with two sha256rnds2 per lane; msg1 and msg2 extend the
 * schedule four words at a time, rotating through m[l][0..3]. The lane
 * loop is innermost, so the L dependency chains interleave and keep
 * the SHA unit busy where one chain would stall on its latency.
 */
template <size_t L>
__attribute__((target("sha,sse4.1,ssse3"))) void
shaNiLanes(uint32_t *const *state, const uint8_t *const *p, size_t n)
{
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    __m128i abef[L], cdgh[L];
#pragma GCC unroll 4
    for (size_t l = 0; l < L; l++) {
        auto *st = reinterpret_cast<__m128i *>(state[l]);
        __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(st), 0xb1);
        __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(st + 1), 0x1b);
        abef[l] = _mm_alignr_epi8(cdab, efgh, 8);
        cdgh[l] = _mm_blend_epi16(efgh, cdab, 0xf0);
    }

    for (size_t off = 0; off < 64 * n; off += 64) {
        __m128i abefIn[L], cdghIn[L], m[L][4];
#pragma GCC unroll 4
        for (size_t l = 0; l < L; l++) {
            abefIn[l] = abef[l];
            cdghIn[l] = cdgh[l];
        }
#pragma GCC unroll 16
        for (size_t g = 0; g < 16; g++) {
            const __m128i k = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(kRound.data() + 4 * g));
#pragma GCC unroll 4
            for (size_t l = 0; l < L; l++) {
                __m128i &cur = m[l][g % 4];
                __m128i &next = m[l][(g + 1) % 4];
                __m128i &prev = m[l][(g + 3) % 4];
                if (g < 4)
                    cur = _mm_shuffle_epi8(
                        _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                            p[l] + off + 16 * g)),
                        bswap);
                __m128i wk = _mm_add_epi32(cur, k);
                cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
                if (g >= 3 && g < 15)
                    next = _mm_sha256msg2_epu32(
                        _mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)),
                        cur);
                abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l],
                                                _mm_shuffle_epi32(wk, 0x0e));
                if (g >= 1 && g < 13)
                    prev = _mm_sha256msg1_epu32(prev, cur);
            }
        }
#pragma GCC unroll 4
        for (size_t l = 0; l < L; l++) {
            abef[l] = _mm_add_epi32(abef[l], abefIn[l]);
            cdgh[l] = _mm_add_epi32(cdgh[l], cdghIn[l]);
        }
    }

#pragma GCC unroll 4
    for (size_t l = 0; l < L; l++) {
        auto *st = reinterpret_cast<__m128i *>(state[l]);
        __m128i feba = _mm_shuffle_epi32(abef[l], 0x1b);
        __m128i dchg = _mm_shuffle_epi32(cdgh[l], 0xb1);
        _mm_storeu_si128(st, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(st + 1, _mm_alignr_epi8(dchg, feba, 8));
    }
}

/** The one-lane SHA-NI kernel (Sha256Blocks). */
void
shaNiBlocks(uint32_t state[8], const uint8_t *p, size_t n)
{
    shaNiLanes<1>(&state, &p, n);
}

/** Run @p n blocks of every lane through the SHA-NI kernel, four lanes
 *  at a time, then the remaining one to three together. */
void
shaNiAllLanes(uint32_t *const *state, const uint8_t *const *p,
              size_t lanes, size_t n)
{
    for (; lanes >= 4; lanes -= 4, state += 4, p += 4)
        shaNiLanes<4>(state, p, n);
    if (lanes == 3)
        shaNiLanes<3>(state, p, n);
    else if (lanes == 2)
        shaNiLanes<2>(state, p, n);
    else if (lanes == 1)
        shaNiLanes<1>(state, p, n);
}

#endif // __x86_64__

} // namespace

namespace detail
{

void
portableSha256(uint32_t state[8], const uint8_t *p, size_t n)
{
    for (; n > 0; n--, p += 64) {
        uint32_t w[64];
        for (size_t i = 0; i < 16; i++) {
            w[i] = (uint32_t(p[i * 4]) << 24) |
                   (uint32_t(p[i * 4 + 1]) << 16) |
                   (uint32_t(p[i * 4 + 2]) << 8) | uint32_t(p[i * 4 + 3]);
        }
        for (int i = 16; i < 64; i++) {
            uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                          (w[i - 15] >> 3);
            uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                          (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        // Eight rounds per iteration with rotated register roles — no
        // value shuffling between rounds.
        for (int i = 0; i < 64; i += 8) {
            round(a, b, c, d, e, f, g, h, kRound[i + 0], w[i + 0]);
            round(h, a, b, c, d, e, f, g, kRound[i + 1], w[i + 1]);
            round(g, h, a, b, c, d, e, f, kRound[i + 2], w[i + 2]);
            round(f, g, h, a, b, c, d, e, kRound[i + 3], w[i + 3]);
            round(e, f, g, h, a, b, c, d, kRound[i + 4], w[i + 4]);
            round(d, e, f, g, h, a, b, c, kRound[i + 5], w[i + 5]);
            round(c, d, e, f, g, h, a, b, kRound[i + 6], w[i + 6]);
            round(b, c, d, e, f, g, h, a, kRound[i + 7], w[i + 7]);
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

Sha256Blocks
hardwareSha256()
{
#if defined(__x86_64__)
    static const bool present = [] {
        unsigned a, b, c, d;
        if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSSE3) ||
            !(c & bit_SSE4_1))
            return false;
        return __get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & bit_SHA);
    }();
    return present ? shaNiBlocks : nullptr;
#else
    return nullptr;
#endif
}

} // namespace detail

Sha256::Sha256()
    : Sha256(detail::hardwareSha256() ? detail::hardwareSha256()
                                      : detail::portableSha256)
{
}

void
Sha256::reset()
{
    _state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    _totalLen = 0;
    _bufferLen = 0;
}

void
Sha256::update(const void *data, size_t len)
{
    if (len == 0)
        return;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    _totalLen += len;

    if (_bufferLen > 0) {
        size_t take = std::min(len, _buffer.size() - _bufferLen);
        std::memcpy(_buffer.data() + _bufferLen, p, take);
        _bufferLen += take;
        p += take;
        len -= take;
        if (_bufferLen == _buffer.size()) {
            processBlocks(_buffer.data(), 1);
            _bufferLen = 0;
        }
    }
    if (len >= 64) {
        size_t whole = len / 64;
        processBlocks(p, whole);
        p += 64 * whole;
        len -= 64 * whole;
    }
    if (len > 0) {
        std::memcpy(_buffer.data(), p, len);
        _bufferLen = len;
    }
}

void
Sha256::updateLanes(std::span<Sha256 *const> lanes,
                    std::span<const uint8_t *const> data, size_t len)
{
    if (data.size() != lanes.size())
        sim::panic("Sha256::updateLanes: %zu lanes but %zu inputs",
                   lanes.size(), data.size());
    // Together only when every lane completes at least one block.
    const size_t buffered = lanes.empty() ? 0 : lanes[0]->_bufferLen;
    bool together = lanes.size() > 1 && buffered + len >= 64;
#if defined(__x86_64__)
    for (Sha256 *h : lanes)
        together = together && h->_blocks == shaNiBlocks &&
                   h->_bufferLen == buffered;
#else
    together = false;
#endif
    if (!together) {
        for (size_t i = 0; i < lanes.size(); i++)
            lanes[i]->update(data[i], len);
        return;
    }

#if defined(__x86_64__)
    // The steps of update(), taken by every lane together: complete
    // the buffered block, run the whole blocks, keep the tail.
    const size_t n = lanes.size();
    const size_t head = buffered > 0 ? 64 - buffered : 0;
    std::vector<uint32_t *> states(n);
    std::vector<const uint8_t *> in(n);
    for (size_t i = 0; i < n; i++)
        states[i] = lanes[i]->_state.data();
    if (buffered > 0) {
        for (size_t i = 0; i < n; i++) {
            std::memcpy(lanes[i]->_buffer.data() + buffered, data[i], head);
            in[i] = lanes[i]->_buffer.data();
        }
        shaNiAllLanes(states.data(), in.data(), n, 1);
    }
    const size_t whole = (len - head) / 64;
    for (size_t i = 0; i < n; i++)
        in[i] = data[i] + head;
    if (whole > 0)
        shaNiAllLanes(states.data(), in.data(), n, whole);
    const size_t tail = len - head - 64 * whole;
    for (size_t i = 0; i < n; i++) {
        std::memcpy(lanes[i]->_buffer.data(), in[i] + 64 * whole, tail);
        lanes[i]->_totalLen += len;
        lanes[i]->_bufferLen = tail;
    }
#endif
}

Digest
Sha256::final()
{
    uint64_t bit_len = _totalLen * 8;

    // One-shot padding: the tail always fits in one or two blocks.
    uint8_t pad[128];
    std::memcpy(pad, _buffer.data(), _bufferLen);
    size_t n = _bufferLen;
    pad[n++] = 0x80;
    size_t total = (n + 8 <= 64) ? 64 : 128;
    std::memset(pad + n, 0, total - 8 - n);
    for (int i = 0; i < 8; i++)
        pad[total - 8 + i] = uint8_t(bit_len >> (56 - 8 * i));
    processBlocks(pad, total / 64);

    Digest out;
    for (int i = 0; i < 8; i++) {
        out[i * 4] = uint8_t(_state[i] >> 24);
        out[i * 4 + 1] = uint8_t(_state[i] >> 16);
        out[i * 4 + 2] = uint8_t(_state[i] >> 8);
        out[i * 4 + 3] = uint8_t(_state[i]);
    }
    reset();
    return out;
}

Digest
Sha256::hash(const void *data, size_t len)
{
    Sha256 h;
    h.update(data, len);
    return h.final();
}

std::string
toHex(const Digest &digest)
{
    static const char *hex = "0123456789abcdef";
    std::string s;
    s.reserve(64);
    for (uint8_t b : digest) {
        s.push_back(hex[b >> 4]);
        s.push_back(hex[b & 0xf]);
    }
    return s;
}

} // namespace vg::crypto
