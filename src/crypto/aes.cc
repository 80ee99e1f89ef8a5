#include "crypto/aes.hh"

#include <cstring>

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

} // namespace

Aes128::Aes128(const AesKey &key)
{
    const Tables &t = tables();
    for (int i = 0; i < 4; i++) {
        _roundKeys[i] = (uint32_t(key[4 * i]) << 24) |
                        (uint32_t(key[4 * i + 1]) << 16) |
                        (uint32_t(key[4 * i + 2]) << 8) |
                        uint32_t(key[4 * i + 3]);
    }
    for (int i = 4; i < 44; i++) {
        uint32_t temp = _roundKeys[i - 1];
        if (i % 4 == 0) {
            // RotWord + SubWord + Rcon.
            temp = (temp << 8) | (temp >> 24);
            temp = (uint32_t(t.sbox[(temp >> 24) & 0xff]) << 24) |
                   (uint32_t(t.sbox[(temp >> 16) & 0xff]) << 16) |
                   (uint32_t(t.sbox[(temp >> 8) & 0xff]) << 8) |
                   uint32_t(t.sbox[temp & 0xff]);
            temp ^= uint32_t(kRcon[i / 4]) << 24;
        }
        _roundKeys[i] = _roundKeys[i - 4] ^ temp;
    }

    // Equivalent inverse cipher: decrypt rounds walk the schedule
    // backwards with InvMixColumns folded into rounds 1..9.
    for (int c = 0; c < 4; c++) {
        _decKeys[c] = _roundKeys[40 + c];
        _decKeys[40 + c] = _roundKeys[c];
    }
    for (int r = 1; r < 10; r++)
        for (int c = 0; c < 4; c++)
            _decKeys[4 * r + c] =
                invMixWord(t, _roundKeys[4 * (10 - r) + c]);
}

// --------------------------------------------------------------------
// T-table rounds: SubBytes+ShiftRows+MixColumns collapse to four table
// lookups and three XORs per output word.
// --------------------------------------------------------------------

void
Aes128::encryptBlock(uint8_t block[16]) const
{
    const Tables &t = tables();
    const uint32_t *rk = _roundKeys.data();
    uint32_t s0 = be32(block) ^ rk[0];
    uint32_t s1 = be32(block + 4) ^ rk[1];
    uint32_t s2 = be32(block + 8) ^ rk[2];
    uint32_t s3 = be32(block + 12) ^ rk[3];

    for (int round = 1; round < 10; round++) {
        rk += 4;
        uint32_t t0 = t.te[0][s0 >> 24] ^ t.te[1][(s1 >> 16) & 0xff] ^
                      t.te[2][(s2 >> 8) & 0xff] ^ t.te[3][s3 & 0xff] ^
                      rk[0];
        uint32_t t1 = t.te[0][s1 >> 24] ^ t.te[1][(s2 >> 16) & 0xff] ^
                      t.te[2][(s3 >> 8) & 0xff] ^ t.te[3][s0 & 0xff] ^
                      rk[1];
        uint32_t t2 = t.te[0][s2 >> 24] ^ t.te[1][(s3 >> 16) & 0xff] ^
                      t.te[2][(s0 >> 8) & 0xff] ^ t.te[3][s1 & 0xff] ^
                      rk[2];
        uint32_t t3 = t.te[0][s3 >> 24] ^ t.te[1][(s0 >> 16) & 0xff] ^
                      t.te[2][(s1 >> 8) & 0xff] ^ t.te[3][s2 & 0xff] ^
                      rk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    rk += 4;
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
    putBe32(block, o0 ^ rk[0]);
    putBe32(block + 4, o1 ^ rk[1]);
    putBe32(block + 8, o2 ^ rk[2]);
    putBe32(block + 12, o3 ^ rk[3]);
}

void
Aes128::decryptBlock(uint8_t block[16]) const
{
    const Tables &t = tables();
    const uint32_t *dk = _decKeys.data();
    uint32_t s0 = be32(block) ^ dk[0];
    uint32_t s1 = be32(block + 4) ^ dk[1];
    uint32_t s2 = be32(block + 8) ^ dk[2];
    uint32_t s3 = be32(block + 12) ^ dk[3];

    for (int round = 1; round < 10; round++) {
        dk += 4;
        uint32_t t0 = t.td[0][s0 >> 24] ^ t.td[1][(s3 >> 16) & 0xff] ^
                      t.td[2][(s2 >> 8) & 0xff] ^ t.td[3][s1 & 0xff] ^
                      dk[0];
        uint32_t t1 = t.td[0][s1 >> 24] ^ t.td[1][(s0 >> 16) & 0xff] ^
                      t.td[2][(s3 >> 8) & 0xff] ^ t.td[3][s2 & 0xff] ^
                      dk[1];
        uint32_t t2 = t.td[0][s2 >> 24] ^ t.td[1][(s1 >> 16) & 0xff] ^
                      t.td[2][(s0 >> 8) & 0xff] ^ t.td[3][s3 & 0xff] ^
                      dk[2];
        uint32_t t3 = t.td[0][s3 >> 24] ^ t.td[1][(s2 >> 16) & 0xff] ^
                      t.td[2][(s1 >> 8) & 0xff] ^ t.td[3][s0 & 0xff] ^
                      dk[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    dk += 4;
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
    putBe32(block, o0 ^ dk[0]);
    putBe32(block + 4, o1 ^ dk[1]);
    putBe32(block + 8, o2 ^ dk[2]);
    putBe32(block + 12, o3 ^ dk[3]);
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
    uint8_t counter[16];
    std::memcpy(counter, nonce.data(), 16);
    uint8_t keystream[16];

    size_t off = 0;
    // Whole blocks: XOR the keystream in two 64-bit lanes.
    for (; off + 16 <= len; off += 16) {
        std::memcpy(keystream, counter, 16);
        encryptBlock(keystream);
        uint64_t d0, d1, k0, k1;
        std::memcpy(&d0, data + off, 8);
        std::memcpy(&d1, data + off + 8, 8);
        std::memcpy(&k0, keystream, 8);
        std::memcpy(&k1, keystream + 8, 8);
        d0 ^= k0;
        d1 ^= k1;
        std::memcpy(data + off, &d0, 8);
        std::memcpy(data + off + 8, &d1, 8);
        for (int i = 15; i >= 8; i--) {
            if (++counter[i] != 0)
                break;
        }
    }
    // The partial tail block.
    for (; off < len; off += 16) {
        std::memcpy(keystream, counter, 16);
        encryptBlock(keystream);
        size_t n = std::min<size_t>(16, len - off);
        for (size_t i = 0; i < n; i++)
            data[off + i] ^= keystream[i];
        // Increment the big-endian counter in the low 8 bytes.
        for (int i = 15; i >= 8; i--) {
            if (++counter[i] != 0)
                break;
        }
    }
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
