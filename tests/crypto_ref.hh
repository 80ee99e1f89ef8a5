/**
 * @file
 * Test-only reference crypto: the textbook constructions the production
 * code in src/crypto must match bit for bit.
 *
 *  - AES-128 with byte-oriented SubBytes/ShiftRows/MixColumns rounds
 *    (FIPS 197 as written), an S-box found by brute-force inversion in
 *    GF(2^8), and CTR mode built on the block cipher;
 *  - SHA-256 with the rotating round loop and the byte-at-a-time
 *    padding finalize (FIPS 180-4 as written);
 *  - HMAC-SHA256 built per call from ipad/opad (RFC 2104);
 *  - the sealing construction with a two-pass MAC (derive both
 *    subkeys, CTR-encrypt, then HMAC over one concatenated buffer),
 *    writing and parsing the wire layout nonce || mac || ciphertext
 *    field by field;
 *  - square-and-multiply modular exponentiation over BigNum.
 *
 * Everything is written for obviousness, not speed, and depends on
 * nothing in src/crypto beyond the shared types (AesKey, Digest,
 * BigNum, CtrDrbg).
 */

#ifndef VG_TESTS_CRYPTO_REF_HH
#define VG_TESTS_CRYPTO_REF_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/bignum.hh"
#include "crypto/drbg.hh"
#include "crypto/sha256.hh"

namespace vg::crypto_ref
{

using crypto::AesBlock;
using crypto::AesKey;
using crypto::Digest;

// --------------------------------------------------------------------
// AES-128 (FIPS 197).
// --------------------------------------------------------------------

inline uint8_t
xtime(uint8_t a)
{
    return uint8_t((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

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

/** S-box: multiplicative inverse (found by search), then the affine
 *  transform. */
struct Sboxes
{
    uint8_t fwd[256];

    Sboxes()
    {
        for (int x = 0; x < 256; x++) {
            uint8_t invx = 0;
            for (int y = 1; x != 0 && y < 256; y++)
                if (gmul(uint8_t(x), uint8_t(y)) == 1)
                    invx = uint8_t(y);
            uint8_t s = 0x63;
            for (int bit = 0; bit < 8; bit++) {
                uint8_t v = uint8_t(((invx >> bit) ^
                                     (invx >> ((bit + 4) % 8)) ^
                                     (invx >> ((bit + 5) % 8)) ^
                                     (invx >> ((bit + 6) % 8)) ^
                                     (invx >> ((bit + 7) % 8))) &
                                    1);
                s ^= uint8_t(v << bit);
            }
            fwd[x] = s;
        }
    }
};

inline const Sboxes &
sboxes()
{
    static const Sboxes s;
    return s;
}

/** Textbook AES-128; the state is column-major, s[4*c + r]. */
class Aes128
{
  public:
    explicit Aes128(const AesKey &key)
    {
        const uint8_t *sb = sboxes().fwd;
        std::memcpy(_w.data(), key.data(), 16);
        uint8_t rcon = 1;
        for (int i = 4; i < 44; i++) {
            uint8_t t[4];
            std::memcpy(t, &_w[size_t(4 * (i - 1))], 4);
            if (i % 4 == 0) {
                uint8_t t0 = t[0];
                t[0] = uint8_t(sb[t[1]] ^ rcon);
                t[1] = sb[t[2]];
                t[2] = sb[t[3]];
                t[3] = sb[t0];
                rcon = xtime(rcon);
            }
            for (int j = 0; j < 4; j++)
                _w[size_t(4 * i + j)] =
                    uint8_t(_w[size_t(4 * (i - 4) + j)] ^ t[j]);
        }
    }

    void
    encryptBlock(uint8_t s[16]) const
    {
        addRoundKey(s, 0);
        for (int round = 1; round < 10; round++) {
            subBytes(s, sboxes().fwd);
            shiftRows(s);
            mixColumns(s);
            addRoundKey(s, round);
        }
        subBytes(s, sboxes().fwd);
        shiftRows(s);
        addRoundKey(s, 10);
    }

    /** CTR mode: big-endian counter in the low eight bytes. */
    std::vector<uint8_t>
    ctrCrypt(std::vector<uint8_t> data, const AesBlock &nonce) const
    {
        AesBlock counter = nonce;
        for (size_t off = 0; off < data.size(); off += 16) {
            AesBlock ks = counter;
            encryptBlock(ks.data());
            for (size_t i = 0; i < 16 && off + i < data.size(); i++)
                data[off + i] ^= ks[i];
            for (int i = 15; i >= 8; i--)
                if (++counter[size_t(i)] != 0)
                    break;
        }
        return data;
    }

  private:
    void
    addRoundKey(uint8_t s[16], int round) const
    {
        for (int i = 0; i < 16; i++)
            s[i] ^= _w[size_t(16 * round + i)];
    }

    static void
    subBytes(uint8_t s[16], const uint8_t box[256])
    {
        for (int i = 0; i < 16; i++)
            s[i] = box[s[i]];
    }

    static void
    shiftRows(uint8_t s[16])
    {
        uint8_t t[16];
        for (int c = 0; c < 4; c++)
            for (int r = 0; r < 4; r++)
                t[4 * c + r] = s[4 * ((c + r) % 4) + r];
        std::memcpy(s, t, 16);
    }

    static void
    mixColumns(uint8_t s[16])
    {
        for (int c = 0; c < 4; c++) {
            uint8_t *p = s + 4 * c;
            uint8_t a0 = p[0], a1 = p[1], a2 = p[2], a3 = p[3];
            p[0] = uint8_t(gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3);
            p[1] = uint8_t(a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3);
            p[2] = uint8_t(a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3));
            p[3] = uint8_t(gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2));
        }
    }

    /** Expanded key, 11 round keys of 16 bytes. */
    std::array<uint8_t, 176> _w{};
};

// --------------------------------------------------------------------
// SHA-256 (FIPS 180-4).
// --------------------------------------------------------------------

class Sha256
{
  public:
    void
    update(const void *data, size_t len)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < len; i++) {
            _buf[_bufLen++] = p[i];
            _total++;
            if (_bufLen == 64) {
                compress();
                _bufLen = 0;
            }
        }
    }

    /** Byte-at-a-time padding: 0x80, zeros to 56 mod 64, bit length. */
    Digest
    final()
    {
        uint64_t bits = _total * 8;
        uint8_t b = 0x80;
        update(&b, 1);
        b = 0;
        while (_bufLen != 56)
            update(&b, 1);
        for (int i = 0; i < 8; i++) {
            b = uint8_t(bits >> (56 - 8 * i));
            update(&b, 1);
        }
        Digest out{};
        for (int i = 0; i < 32; i++)
            out[size_t(i)] = uint8_t(_h[size_t(i / 4)] >> (24 - 8 * (i % 4)));
        return out;
    }

  private:
    static uint32_t
    rotr(uint32_t x, unsigned n)
    {
        return (x >> n) | (x << (32 - n));
    }

    void
    compress()
    {
        static constexpr uint32_t k[64] = {
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
        uint32_t w[64];
        for (int i = 0; i < 16; i++)
            w[i] = (uint32_t(_buf[size_t(4 * i)]) << 24) |
                   (uint32_t(_buf[size_t(4 * i + 1)]) << 16) |
                   (uint32_t(_buf[size_t(4 * i + 2)]) << 8) |
                   uint32_t(_buf[size_t(4 * i + 3)]);
        for (int i = 16; i < 64; i++) {
            uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                          (w[i - 15] >> 3);
            uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                          (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }
        uint32_t a = _h[0], b = _h[1], c = _h[2], d = _h[3];
        uint32_t e = _h[4], f = _h[5], g = _h[6], h = _h[7];
        for (int i = 0; i < 64; i++) {
            uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                          ((e & f) ^ (~e & g)) + k[i] + w[i];
            uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                          ((a & b) ^ (a & c) ^ (b & c));
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }
        _h[0] += a;
        _h[1] += b;
        _h[2] += c;
        _h[3] += d;
        _h[4] += e;
        _h[5] += f;
        _h[6] += g;
        _h[7] += h;
    }

    std::array<uint32_t, 8> _h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                  0xa54ff53a, 0x510e527f, 0x9b05688c,
                                  0x1f83d9ab, 0x5be0cd19};
    std::array<uint8_t, 64> _buf{};
    size_t _bufLen = 0;
    uint64_t _total = 0;
};

inline Digest
sha256(const void *data, size_t len)
{
    Sha256 h;
    h.update(data, len);
    return h.final();
}

// --------------------------------------------------------------------
// HMAC-SHA256 (RFC 2104), constructed per call.
// --------------------------------------------------------------------

inline Digest
hmacSha256(const std::vector<uint8_t> &key, const void *data, size_t len)
{
    uint8_t k[64] = {};
    if (key.size() > 64) {
        Digest kd = sha256(key.data(), key.size());
        std::memcpy(k, kd.data(), kd.size());
    } else if (!key.empty()) {
        std::memcpy(k, key.data(), key.size());
    }
    uint8_t ipad[64], opad[64];
    for (int i = 0; i < 64; i++) {
        ipad[i] = uint8_t(k[i] ^ 0x36);
        opad[i] = uint8_t(k[i] ^ 0x5c);
    }
    Sha256 inner;
    inner.update(ipad, 64);
    inner.update(data, len);
    Digest id = inner.final();
    Sha256 outer;
    outer.update(opad, 64);
    outer.update(id.data(), id.size());
    return outer.final();
}

// --------------------------------------------------------------------
// Sealing: AES-CTR under a derived key, then HMAC over
// aad || nonce || ciphertext under a second derived key.
// --------------------------------------------------------------------

struct SealKeys
{
    AesKey enc{};
    std::vector<uint8_t> mac;

    explicit SealKeys(const AesKey &master)
    {
        Sha256 h1;
        h1.update("vg-seal-enc", 11);
        h1.update(master.data(), master.size());
        Digest d1 = h1.final();
        std::memcpy(enc.data(), d1.data(), enc.size());
        Sha256 h2;
        h2.update("vg-seal-mac", 11);
        h2.update(master.data(), master.size());
        Digest d2 = h2.final();
        mac.assign(d2.begin(), d2.end());
    }
};

/** Two-pass MAC: concatenate, then one HMAC. */
inline Digest
sealMac(const std::vector<uint8_t> &mac_key, const std::vector<uint8_t> &aad,
        const AesBlock &nonce, const std::vector<uint8_t> &ciphertext)
{
    std::vector<uint8_t> buf(aad);
    buf.insert(buf.end(), nonce.begin(), nonce.end());
    buf.insert(buf.end(), ciphertext.begin(), ciphertext.end());
    return hmacSha256(mac_key, buf.data(), buf.size());
}

/** Sealed wire bytes: nonce(16) || mac(32) || ciphertext. */
inline std::vector<uint8_t>
seal(const AesKey &key, crypto::CtrDrbg &rng,
     const std::vector<uint8_t> &plain, const std::vector<uint8_t> &aad = {})
{
    SealKeys keys(key);
    AesBlock nonce{};
    rng.generate(nonce.data(), nonce.size());
    std::vector<uint8_t> ciphertext = Aes128(keys.enc).ctrCrypt(plain, nonce);
    Digest mac = sealMac(keys.mac, aad, nonce, ciphertext);
    std::vector<uint8_t> wire(nonce.size() + mac.size() + ciphertext.size());
    auto out = std::copy(nonce.begin(), nonce.end(), wire.begin());
    out = std::copy(mac.begin(), mac.end(), out);
    std::copy(ciphertext.begin(), ciphertext.end(), out);
    return wire;
}

/** @p ok is false for wire bytes too short to hold a nonce and MAC, or
 *  when the MAC does not verify. */
inline std::vector<uint8_t>
unseal(const AesKey &key, const std::vector<uint8_t> &wire, bool &ok,
       const std::vector<uint8_t> &aad = {})
{
    AesBlock nonce{};
    Digest mac{};
    ok = false;
    if (wire.size() < nonce.size() + mac.size())
        return {};
    std::copy(wire.begin(), wire.begin() + long(nonce.size()), nonce.begin());
    std::copy(wire.begin() + long(nonce.size()),
              wire.begin() + long(nonce.size() + mac.size()), mac.begin());
    std::vector<uint8_t> ciphertext(
        wire.begin() + long(nonce.size() + mac.size()), wire.end());
    SealKeys keys(key);
    ok = sealMac(keys.mac, aad, nonce, ciphertext) == mac;
    if (!ok)
        return {};
    return Aes128(keys.enc).ctrCrypt(ciphertext, nonce);
}

// --------------------------------------------------------------------
// Modular exponentiation: right-to-left square-and-multiply.
// --------------------------------------------------------------------

inline crypto::BigNum
modExp(const crypto::BigNum &base, const crypto::BigNum &exp,
       const crypto::BigNum &mod)
{
    crypto::BigNum result = crypto::BigNum(1) % mod;
    crypto::BigNum b = base % mod;
    for (size_t i = 0; i < exp.bitLength(); i++) {
        if (exp.bit(i))
            result = (result * b) % mod;
        b = (b * b) % mod;
    }
    return result;
}

} // namespace vg::crypto_ref

#endif // VG_TESTS_CRYPTO_REF_HH
