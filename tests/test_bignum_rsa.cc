/**
 * @file
 * BigNum arithmetic and RSA tests, including parameterized property
 * sweeps over random operands and a differential check of the CRT
 * private operation against plain square-and-multiply.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/bignum.hh"
#include "crypto/drbg.hh"
#include "crypto/rsa.hh"

#include "crypto_ref.hh"

using namespace vg::crypto;

TEST(BigNum, ConstructAndCompare)
{
    BigNum zero;
    BigNum a(42);
    BigNum b(0x100000000ull);
    EXPECT_TRUE(zero.isZero());
    EXPECT_FALSE(a.isZero());
    EXPECT_LT(zero, a);
    EXPECT_LT(a, b);
    EXPECT_EQ(b.bitLength(), 33u);
    EXPECT_EQ(a, BigNum(42));
}

TEST(BigNum, HexRoundtrip)
{
    BigNum n = BigNum::fromHex("deadbeefcafebabe0123456789abcdef");
    EXPECT_EQ(n.toHex(), "deadbeefcafebabe0123456789abcdef");
    EXPECT_EQ(BigNum(0).toHex(), "0");
    EXPECT_EQ(BigNum::fromHex("0000ff").toHex(), "ff");
}

TEST(BigNum, BytesRoundtrip)
{
    std::vector<uint8_t> bytes = {0x01, 0x02, 0x03, 0xff};
    BigNum n = BigNum::fromBytes(bytes);
    EXPECT_EQ(n.toBytes(), bytes);
    EXPECT_EQ(n.toBytesPadded(6),
              (std::vector<uint8_t>{0, 0, 0x01, 0x02, 0x03, 0xff}));
}

TEST(BigNum, AddSub)
{
    BigNum a = BigNum::fromHex("ffffffffffffffff");
    BigNum b(1);
    EXPECT_EQ((a + b).toHex(), "10000000000000000");
    EXPECT_EQ((a + b - b), a);
    EXPECT_EQ((a - a).toHex(), "0");
}

TEST(BigNum, Mul)
{
    BigNum a = BigNum::fromHex("ffffffff");
    EXPECT_EQ((a * a).toHex(), "fffffffe00000001");
    EXPECT_EQ((a * BigNum(0)).toHex(), "0");
    EXPECT_EQ((BigNum(12345) * BigNum(6789)), BigNum(83810205));
}

TEST(BigNum, Shifts)
{
    BigNum a(1);
    EXPECT_EQ((a << 100).bitLength(), 101u);
    EXPECT_EQ(((a << 100) >> 100), a);
    EXPECT_EQ((BigNum(0xff) >> 4), BigNum(0xf));
    EXPECT_TRUE((a >> 1).isZero());
}

TEST(BigNum, DivMod)
{
    BigNum a(1000), b(7);
    BigNum q, r;
    a.divmod(b, q, r);
    EXPECT_EQ(q, BigNum(142));
    EXPECT_EQ(r, BigNum(6));
    EXPECT_EQ(BigNum(5) % BigNum(10), BigNum(5));
}

TEST(BigNum, ModExpKnown)
{
    EXPECT_EQ(BigNum(4).modExp(BigNum(13), BigNum(497)), BigNum(445));
    EXPECT_EQ(BigNum(2).modExp(BigNum(10), BigNum(1000)), BigNum(24));
    EXPECT_EQ(BigNum(7).modExp(BigNum(0), BigNum(13)), BigNum(1));
}

TEST(BigNum, ModInverse)
{
    bool ok = false;
    BigNum inv = BigNum(3).modInverse(BigNum(11), ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(inv, BigNum(4));

    BigNum no_inv = BigNum(4).modInverse(BigNum(8), ok);
    EXPECT_FALSE(ok);
    (void)no_inv;
}

TEST(BigNum, Gcd)
{
    EXPECT_EQ(BigNum::gcd(BigNum(48), BigNum(36)), BigNum(12));
    EXPECT_EQ(BigNum::gcd(BigNum(17), BigNum(5)), BigNum(1));
    EXPECT_EQ(BigNum::gcd(BigNum(0), BigNum(7)), BigNum(7));
}

TEST(BigNum, PrimalityKnownValues)
{
    CtrDrbg rng({'p'});
    EXPECT_TRUE(BigNum(2).isProbablePrime(rng));
    EXPECT_TRUE(BigNum(3).isProbablePrime(rng));
    EXPECT_TRUE(BigNum(65537).isProbablePrime(rng));
    EXPECT_TRUE(BigNum::fromHex("fffffffb").isProbablePrime(rng));
    EXPECT_FALSE(BigNum(1).isProbablePrime(rng));
    EXPECT_FALSE(BigNum(561).isProbablePrime(rng)); // Carmichael
    EXPECT_FALSE(BigNum(65536).isProbablePrime(rng));
}

/**
 * Property sweep: algebraic identities over random operands of varying
 * widths.
 */
class BigNumProperty : public ::testing::TestWithParam<size_t>
{};

TEST_P(BigNumProperty, DivModReconstructs)
{
    size_t bits = GetParam();
    CtrDrbg rng({'d', uint8_t(bits)});
    for (int i = 0; i < 20; i++) {
        BigNum a = BigNum::randomBits(rng, bits);
        BigNum b = BigNum::randomBits(rng, bits / 2 + 1);
        BigNum q, r;
        a.divmod(b, q, r);
        EXPECT_EQ(q * b + r, a);
        EXPECT_LT(r, b);
    }
}

TEST_P(BigNumProperty, MulDistributesOverAdd)
{
    size_t bits = GetParam();
    CtrDrbg rng({'m', uint8_t(bits)});
    for (int i = 0; i < 20; i++) {
        BigNum a = BigNum::randomBits(rng, bits);
        BigNum b = BigNum::randomBits(rng, bits);
        BigNum c = BigNum::randomBits(rng, bits);
        EXPECT_EQ(a * (b + c), a * b + a * c);
    }
}

TEST_P(BigNumProperty, ShiftIsMulByPowerOfTwo)
{
    size_t bits = GetParam();
    CtrDrbg rng({'s', uint8_t(bits)});
    for (int i = 0; i < 10; i++) {
        BigNum a = BigNum::randomBits(rng, bits);
        size_t k = rng.nextBounded(60) + 1;
        BigNum pow2(1);
        pow2 = pow2 << k;
        EXPECT_EQ(a << k, a * pow2);
    }
}

TEST_P(BigNumProperty, ModExpMatchesNaive)
{
    size_t bits = GetParam();
    CtrDrbg rng({'e', uint8_t(bits)});
    for (int i = 0; i < 5; i++) {
        BigNum base = BigNum::randomBits(rng, bits);
        BigNum mod = BigNum::randomBits(rng, bits);
        if (mod.isZero())
            continue;
        uint64_t exp = rng.nextBounded(20);
        BigNum naive(1);
        naive = naive % mod;
        for (uint64_t j = 0; j < exp; j++)
            naive = (naive * base) % mod;
        EXPECT_EQ(base.modExp(BigNum(exp), mod), naive);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BigNumProperty,
                         ::testing::Values(16, 48, 96, 160, 256));

// --------------------------------------------------------------------
// RSA
// --------------------------------------------------------------------

namespace
{

/** Shared small test key (generation dominates test time). */
const RsaPrivateKey &
testKey()
{
    static RsaPrivateKey key = [] {
        CtrDrbg rng({'k', 'e', 'y'});
        return rsaGenerate(rng, 384);
    }();
    return key;
}

} // namespace

TEST(Rsa, KeyStructure)
{
    const RsaPrivateKey &key = testKey();
    EXPECT_EQ(key.n, key.p * key.q);
    EXPECT_GE(key.n.bitLength(), 380u);
    // d*e == 1 mod (p-1)(q-1)
    BigNum phi = (key.p - BigNum(1)) * (key.q - BigNum(1));
    EXPECT_EQ((key.d * key.e) % phi, BigNum(1));
}

TEST(Rsa, EncryptDecryptRoundtrip)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'r'});
    std::vector<uint8_t> msg = {'s', 'e', 'c', 'r', 'e', 't'};
    auto cipher = rsaEncrypt(key.publicKey(), rng, msg);
    EXPECT_EQ(cipher.size(), key.publicKey().modulusBytes());
    bool ok = false;
    EXPECT_EQ(rsaDecrypt(key, cipher, ok), msg);
    EXPECT_TRUE(ok);
}

TEST(Rsa, EncryptionIsRandomized)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'r'});
    std::vector<uint8_t> msg = {1, 2, 3};
    auto c1 = rsaEncrypt(key.publicKey(), rng, msg);
    auto c2 = rsaEncrypt(key.publicKey(), rng, msg);
    EXPECT_NE(c1, c2);
}

TEST(Rsa, DecryptRejectsTampered)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'r'});
    auto cipher = rsaEncrypt(key.publicKey(), rng, {1, 2, 3, 4});
    cipher[cipher.size() / 2] ^= 0x55;
    bool ok = true;
    rsaDecrypt(key, cipher, ok);
    // Tampering either breaks padding (ok=false) or yields different
    // bytes; padding failure is the expected path.
    if (ok) {
        auto got = rsaDecrypt(key, cipher, ok);
        EXPECT_NE(got, (std::vector<uint8_t>{1, 2, 3, 4}));
    }
}

TEST(Rsa, SignVerify)
{
    const RsaPrivateKey &key = testKey();
    std::vector<uint8_t> msg(200, 0x3c);
    auto sig = rsaSign(key, msg);
    EXPECT_TRUE(rsaVerify(key.publicKey(), msg, sig));

    msg[0] ^= 1;
    EXPECT_FALSE(rsaVerify(key.publicKey(), msg, sig));
    msg[0] ^= 1;
    sig[10] ^= 1;
    EXPECT_FALSE(rsaVerify(key.publicKey(), msg, sig));
}

TEST(Rsa, VerifyRejectsWrongKey)
{
    const RsaPrivateKey &key = testKey();
    CtrDrbg rng({'k', '2'});
    RsaPrivateKey other = rsaGenerate(rng, 384);
    std::vector<uint8_t> msg = {'m'};
    auto sig = rsaSign(key, msg);
    EXPECT_FALSE(rsaVerify(other.publicKey(), msg, sig));
}

TEST(Rsa, SerializeRoundtrip)
{
    const RsaPrivateKey &key = testKey();
    bool ok = false;
    RsaPrivateKey back =
        RsaPrivateKey::deserialize(key.serialize(), ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(back.n, key.n);
    EXPECT_EQ(back.d, key.d);

    RsaPublicKey pub =
        RsaPublicKey::deserialize(key.publicKey().serialize(), ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(pub.n, key.n);
    EXPECT_EQ(pub.e, key.e);
}

TEST(Rsa, PrivateKeyBytesStartWithPublicKey)
{
    // sshFetch parses only the (n, e) prefix of the host key file.
    const RsaPrivateKey &key = testKey();
    std::vector<uint8_t> priv = key.serialize();
    std::vector<uint8_t> pub = key.publicKey().serialize();
    ASSERT_LT(pub.size(), priv.size());
    EXPECT_TRUE(std::equal(pub.begin(), pub.end(), priv.begin()));

    bool ok = false;
    RsaPublicKey parsed = RsaPublicKey::deserialize(priv, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(parsed.n, key.n);
    EXPECT_EQ(parsed.e, key.e);
}

TEST(Rsa, DeserializeRejectsTruncated)
{
    const RsaPrivateKey &key = testKey();
    auto bytes = key.serialize();
    bytes.resize(bytes.size() / 2);
    bool ok = true;
    RsaPrivateKey::deserialize(bytes, ok);
    EXPECT_FALSE(ok);
}

TEST(Rsa, DeserializeRejectsWrongFactors)
{
    // The CRT private operation trusts p and q, so a key whose p * q
    // is not n must not load.
    const RsaPrivateKey &key = testKey();
    RsaPrivateKey bad = key;
    bad.q = bad.q + BigNum(2);
    bool ok = true;
    RsaPrivateKey::deserialize(bad.serialize(), ok);
    EXPECT_FALSE(ok);

    bad = key;
    bad.p = BigNum(1);
    bad.q = key.n;
    ok = true;
    RsaPrivateKey::deserialize(bad.serialize(), ok);
    EXPECT_FALSE(ok);

    RsaPrivateKey back = RsaPrivateKey::deserialize(key.serialize(), ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(back.dP, key.dP);
    EXPECT_EQ(back.dQ, key.dQ);
    EXPECT_EQ(back.qInv, key.qInv);
}

/**
 * Differential sweep: over many keys, the CRT private operation and
 * everything built on it give the bytes the plain x^d mod n gives,
 * including the edges x = 0, x = n - 1 and x sharing a factor with n.
 */
TEST(Rsa, CrtMatchesPlainModExp)
{
    for (uint8_t seed = 0; seed < 12; seed++) {
        CtrDrbg rng({'c', 'r', 't', seed});
        size_t bits = seed % 3 == 2 ? 512 : 384;
        RsaPrivateKey key = rsaGenerate(rng, bits);
        size_t k = key.publicKey().modulusBytes();
        auto plain = [&](const BigNum &x) {
            return vg::crypto_ref::modExp(x, key.d, key.n);
        };

        std::vector<BigNum> xs = {BigNum(), BigNum(1),
                                  key.n - BigNum(1), key.p, key.q,
                                  key.p * BigNum(3), key.q * BigNum(5),
                                  BigNum::random(rng, key.n)};
        for (const BigNum &x : xs)
            ASSERT_EQ(rsaPrivateOp(key, x), plain(x))
                << "seed " << int(seed) << " x " << x.toHex();

        std::vector<uint8_t> msg = rng.generate(seed + 1u);
        std::vector<uint8_t> sig = rsaSign(key, msg);
        Digest h = Sha256::hash(msg.data(), msg.size());
        std::vector<uint8_t> eb(k, 0xff);
        eb[0] = 0x00;
        eb[1] = 0x01;
        eb[k - h.size() - 1] = 0x00;
        std::copy(h.begin(), h.end(), eb.end() - long(h.size()));
        EXPECT_EQ(sig, plain(BigNum::fromBytes(eb)).toBytesPadded(k))
            << "seed " << int(seed);

        std::vector<uint8_t> secret = rng.generate(16);
        std::vector<uint8_t> cipher =
            rsaEncrypt(key.publicKey(), rng, secret);
        BigNum m = plain(BigNum::fromBytes(cipher));
        bool ok = false;
        EXPECT_EQ(rsaDecrypt(key, cipher, ok), secret);
        EXPECT_TRUE(ok);
        std::vector<uint8_t> eb2 = m.toBytesPadded(k);
        EXPECT_TRUE(std::equal(secret.begin(), secret.end(),
                               eb2.end() - long(secret.size())))
            << "seed " << int(seed);
    }
}
