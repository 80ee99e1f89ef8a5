#include "crypto/sha256.hh"

#include <cstring>

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

} // namespace

void
Sha256::reset()
{
    _state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    _totalLen = 0;
    _bufferLen = 0;
}

void
Sha256::processBlock(const uint8_t *block)
{
    uint32_t w[64];
    for (int i = 0; i < 16; i++) {
        w[i] = (uint32_t(block[i * 4]) << 24) |
               (uint32_t(block[i * 4 + 1]) << 16) |
               (uint32_t(block[i * 4 + 2]) << 8) |
               uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; i++) {
        uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                      (w[i - 15] >> 3);
        uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                      (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = _state[0], b = _state[1], c = _state[2], d = _state[3];
    uint32_t e = _state[4], f = _state[5], g = _state[6], h = _state[7];

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

    _state[0] += a;
    _state[1] += b;
    _state[2] += c;
    _state[3] += d;
    _state[4] += e;
    _state[5] += f;
    _state[6] += g;
    _state[7] += h;
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
            processBlock(_buffer.data());
            _bufferLen = 0;
        }
    }
    while (len >= 64) {
        processBlock(p);
        p += 64;
        len -= 64;
    }
    if (len > 0) {
        std::memcpy(_buffer.data(), p, len);
        _bufferLen = len;
    }
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
    processBlock(pad);
    if (total == 128)
        processBlock(pad + 64);

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
