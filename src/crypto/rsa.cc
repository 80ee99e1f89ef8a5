#include "crypto/rsa.hh"

#include <cstring>

#include "crypto/drbg.hh"
#include "sim/log.hh"

namespace vg::crypto
{

namespace
{

/** Append a length-prefixed big-endian integer to @p out. */
void
putField(std::vector<uint8_t> &out, const BigNum &n)
{
    std::vector<uint8_t> bytes = n.toBytes();
    out.push_back(uint8_t(bytes.size() >> 8));
    out.push_back(uint8_t(bytes.size()));
    out.insert(out.end(), bytes.begin(), bytes.end());
}

/** Read a length-prefixed integer; returns false on truncation. */
bool
getField(const std::vector<uint8_t> &in, size_t &off, BigNum &n)
{
    if (off + 2 > in.size())
        return false;
    size_t len = (size_t(in[off]) << 8) | in[off + 1];
    off += 2;
    if (off + len > in.size())
        return false;
    n = BigNum::fromBytes(
        std::vector<uint8_t>(in.begin() + off, in.begin() + off + len));
    off += len;
    return true;
}

BigNum
generatePrime(CtrDrbg &rng, size_t bits)
{
    while (true) {
        BigNum candidate = BigNum::randomBits(rng, bits);
        if (!candidate.isOdd())
            candidate = candidate + BigNum(1);
        if (candidate.isProbablePrime(rng))
            return candidate;
    }
}

/**
 * Derive the CRT exponents and coefficient from (d, p, q). False when
 * p * q != n, p or q is below 2, or qInv is not q^-1 mod p: the CRT
 * trusts p and q, so a key they do not factor is rejected.
 */
bool
deriveCrt(RsaPrivateKey &key)
{
    BigNum one(1);
    if (key.p <= one || key.q <= one || key.p * key.q != key.n)
        return false;
    key.dP = key.d % (key.p - one);
    key.dQ = key.d % (key.q - one);
    // Fermat (p prime): one modExp costs a third of extended Euclid
    // at 192 bits. The product check rejects a qInv that is not an
    // inverse, as for a composite p.
    key.qInv = key.q.modExp(key.p - BigNum(2), key.p);
    return (key.q * key.qInv) % key.p == one;
}

} // namespace

std::vector<uint8_t>
RsaPublicKey::serialize() const
{
    std::vector<uint8_t> out;
    putField(out, n);
    putField(out, e);
    return out;
}

RsaPublicKey
RsaPublicKey::deserialize(const std::vector<uint8_t> &bytes, bool &ok)
{
    RsaPublicKey key;
    size_t off = 0;
    ok = getField(bytes, off, key.n) && getField(bytes, off, key.e);
    return key;
}

std::vector<uint8_t>
RsaPrivateKey::serialize() const
{
    std::vector<uint8_t> out;
    putField(out, n);
    putField(out, e);
    putField(out, d);
    putField(out, p);
    putField(out, q);
    return out;
}

RsaPrivateKey
RsaPrivateKey::deserialize(const std::vector<uint8_t> &bytes, bool &ok)
{
    RsaPrivateKey key;
    size_t off = 0;
    ok = getField(bytes, off, key.n) && getField(bytes, off, key.e) &&
         getField(bytes, off, key.d) && getField(bytes, off, key.p) &&
         getField(bytes, off, key.q) && deriveCrt(key);
    return key;
}

RsaPrivateKey
rsaGenerate(CtrDrbg &rng, size_t bits)
{
    if (bits < 128)
        sim::fatal("rsaGenerate: modulus too small (%zu bits)", bits);

    BigNum one(1);
    BigNum e(65537);
    while (true) {
        BigNum p = generatePrime(rng, bits / 2);
        BigNum q = generatePrime(rng, bits - bits / 2);
        if (p == q)
            continue;
        BigNum n = p * q;
        BigNum phi = (p - one) * (q - one);
        if (BigNum::gcd(e, phi) != one)
            continue;
        bool ok = false;
        BigNum d = e.modInverse(phi, ok);
        if (!ok)
            continue;
        RsaPrivateKey key;
        key.n = n;
        key.e = e;
        key.d = d;
        key.p = p;
        key.q = q;
        if (!deriveCrt(key))
            sim::panic("rsaGenerate: distinct primes without a CRT "
                       "coefficient");
        return key;
    }
}

BigNum
rsaPrivateOp(const RsaPrivateKey &key, const BigNum &x)
{
    // m1 = x^dP mod p, m2 = x^dQ mod q, then Garner's recombination:
    // h = qInv * (m1 - m2) mod p and x^d mod n = m2 + h * q.
    BigNum m1 = x.modExp(key.dP, key.p);
    BigNum m2 = x.modExp(key.dQ, key.q);
    BigNum m2p = m2 % key.p;
    BigNum diff = m1 >= m2p ? m1 - m2p : m1 + key.p - m2p;
    BigNum h = (key.qInv * diff) % key.p;
    return m2 + h * key.q;
}

std::vector<uint8_t>
rsaEncrypt(const RsaPublicKey &key, CtrDrbg &rng,
           const std::vector<uint8_t> &message)
{
    size_t k = key.modulusBytes();
    if (message.size() + 11 > k)
        sim::fatal("rsaEncrypt: message too long (%zu bytes for %zu)",
                   message.size(), k);

    // EB = 00 || 02 || nonzero padding || 00 || message
    std::vector<uint8_t> eb(k, 0);
    eb[1] = 0x02;
    size_t pad_len = k - 3 - message.size();
    for (size_t i = 0; i < pad_len; i++) {
        uint8_t b = 0;
        while (b == 0)
            rng.generate(&b, 1);
        eb[2 + i] = b;
    }
    eb[2 + pad_len] = 0x00;
    std::memcpy(eb.data() + 3 + pad_len, message.data(), message.size());

    BigNum m = BigNum::fromBytes(eb);
    BigNum c = m.modExp(key.e, key.n);
    return c.toBytesPadded(k);
}

std::vector<uint8_t>
rsaDecrypt(const RsaPrivateKey &key, const std::vector<uint8_t> &cipher,
           bool &ok)
{
    ok = false;
    size_t k = key.publicKey().modulusBytes();
    if (cipher.size() != k)
        return {};

    BigNum c = BigNum::fromBytes(cipher);
    if (c >= key.n)
        return {};
    std::vector<uint8_t> eb = rsaPrivateOp(key, c).toBytesPadded(k);

    if (eb.size() < 11 || eb[0] != 0x00 || eb[1] != 0x02)
        return {};
    size_t i = 2;
    while (i < eb.size() && eb[i] != 0x00)
        i++;
    if (i == eb.size() || i < 10)
        return {};
    ok = true;
    return std::vector<uint8_t>(eb.begin() + i + 1, eb.end());
}

namespace
{

/** EMSA-style deterministic padding of SHA-256(message). */
std::vector<uint8_t>
signaturePad(const std::vector<uint8_t> &message, size_t k)
{
    Digest h = Sha256::hash(message.data(), message.size());
    if (k < h.size() + 11)
        sim::fatal("rsaSign: %zu-byte modulus cannot hold a SHA-256 "
                   "signature (need >= 43 bytes, i.e. >= 344-bit "
                   "keys)",
                   k);
    std::vector<uint8_t> eb(k, 0xff);
    eb[0] = 0x00;
    eb[1] = 0x01;
    eb[k - h.size() - 1] = 0x00;
    std::memcpy(eb.data() + k - h.size(), h.data(), h.size());
    return eb;
}

} // namespace

std::vector<uint8_t>
rsaSign(const RsaPrivateKey &key, const std::vector<uint8_t> &message)
{
    size_t k = key.publicKey().modulusBytes();
    BigNum m = BigNum::fromBytes(signaturePad(message, k));
    return rsaPrivateOp(key, m).toBytesPadded(k);
}

bool
rsaVerify(const RsaPublicKey &key, const std::vector<uint8_t> &message,
          const std::vector<uint8_t> &signature)
{
    size_t k = key.modulusBytes();
    if (signature.size() != k)
        return false;
    BigNum s = BigNum::fromBytes(signature);
    if (s >= key.n)
        return false;
    BigNum m = s.modExp(key.e, key.n);
    return m.toBytesPadded(k) == signaturePad(message, k);
}

} // namespace vg::crypto
