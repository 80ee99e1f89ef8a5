/**
 * @file
 * Crypto substrate tests: SHA-256, AES-128, HMAC, DRBG, sealing.
 * Known-answer vectors come from FIPS 197, FIPS 180-4 and RFC 4231 and
 * run against the production code, the crypto_ref.hh oracle, and the
 * portable and hardware kernel sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/aes.hh"
#include "crypto/drbg.hh"
#include "crypto/hmac.hh"
#include "crypto/sealed.hh"
#include "crypto/sha256.hh"

#include "crypto_ref.hh"

using namespace vg::crypto;

namespace
{

std::vector<uint8_t>
fromHexStr(const std::string &hex)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(
            uint8_t(std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

AesKey
keyFromHex(const std::string &hex)
{
    AesKey k{};
    auto v = fromHexStr(hex);
    std::copy(v.begin(), v.end(), k.begin());
    return k;
}

/** CTR over a copy of @p data. */
std::vector<uint8_t>
ctr(const Aes128 &aes, std::vector<uint8_t> data, const AesBlock &nonce)
{
    aes.ctrCrypt(data.data(), data.size(), nonce);
    return data;
}

} // namespace

// --------------------------------------------------------------------
// SHA-256
// --------------------------------------------------------------------

TEST(Sha256, EmptyString)
{
    EXPECT_EQ(toHex(Sha256::hash("", 0)),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(toHex(Sha256::hash("abc", 3)),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    const char *msg = "abcdbcdecdefdefgefghfghighijhijkijkljklm"
                      "klmnlmnomnopnopq";
    EXPECT_EQ(toHex(Sha256::hash(msg, std::strlen(msg))),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 h;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; i++)
        h.update(chunk.data(), chunk.size());
    EXPECT_EQ(toHex(h.final()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot)
{
    std::string msg = "The quick brown fox jumps over the lazy dog";
    Sha256 h;
    for (char c : msg)
        h.update(&c, 1);
    EXPECT_EQ(h.final(), Sha256::hash(msg.data(), msg.size()));
}

TEST(Sha256, ResetAfterFinal)
{
    Sha256 h;
    h.update("abc", 3);
    h.final();
    h.update("abc", 3);
    EXPECT_EQ(toHex(h.final()),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

// --------------------------------------------------------------------
// AES-128
// --------------------------------------------------------------------

TEST(Aes, Fips197Vector)
{
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    auto block = fromHexStr("00112233445566778899aabbccddeeff");
    aes.encryptBlock(block.data());
    EXPECT_EQ(block, fromHexStr("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(Aes, NistEcbVector)
{
    Aes128 aes(keyFromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    auto block = fromHexStr("6bc1bee22e409f96e93d7e117393172a");
    aes.encryptBlock(block.data());
    EXPECT_EQ(block, fromHexStr("3ad77bb40d7a3660a89ecaf32466ef97"));
}

TEST(Aes, CtrRoundtripAndSymmetry)
{
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    AesBlock nonce{};
    nonce[0] = 0xaa;

    std::vector<uint8_t> plain(1000);
    for (size_t i = 0; i < plain.size(); i++)
        plain[i] = uint8_t(i);
    auto cipher = ctr(aes, plain, nonce);
    EXPECT_NE(cipher, plain);
    EXPECT_EQ(ctr(aes, cipher, nonce), plain);
}

TEST(Aes, CtrCounterAdvancesAcrossBlocks)
{
    Aes128 aes(keyFromHex("000102030405060708090a0b0c0d0e0f"));
    AesBlock nonce{};
    std::vector<uint8_t> zeros(64, 0);
    auto ks = ctr(aes, zeros, nonce);
    // Keystream blocks must differ.
    EXPECT_NE(std::memcmp(ks.data(), ks.data() + 16, 16), 0);
    EXPECT_NE(std::memcmp(ks.data() + 16, ks.data() + 32, 16), 0);
}

// --------------------------------------------------------------------
// HMAC (RFC 4231)
// --------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1)
{
    std::vector<uint8_t> key(20, 0x0b);
    auto mac = hmacSha256(key, "Hi There", 8);
    EXPECT_EQ(toHex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2)
{
    std::vector<uint8_t> key = {'J', 'e', 'f', 'e'};
    const char *data = "what do ya want for nothing?";
    auto mac = hmacSha256(key, data, std::strlen(data));
    EXPECT_EQ(toHex(mac),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashed)
{
    std::vector<uint8_t> key(131, 0xaa);
    const char *data = "Test Using Larger Than Block-Size Key - "
                       "Hash Key First";
    auto mac = hmacSha256(key, data, std::strlen(data));
    EXPECT_EQ(toHex(mac),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqualConstantTime)
{
    Digest a{}, b{};
    EXPECT_TRUE(digestEqual(a, b));
    b[31] = 1;
    EXPECT_FALSE(digestEqual(a, b));
}

// --------------------------------------------------------------------
// DRBG
// --------------------------------------------------------------------

TEST(Drbg, Deterministic)
{
    CtrDrbg a({'s', 'e', 'e', 'd'});
    CtrDrbg b({'s', 'e', 'e', 'd'});
    EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, DifferentSeedsDiverge)
{
    CtrDrbg a({'s', 'e', 'e', 'd'});
    CtrDrbg b({'S', 'E', 'E', 'D'});
    EXPECT_NE(a.generate(64), b.generate(64));
}

TEST(Drbg, BoundedValues)
{
    CtrDrbg rng({'x'});
    for (int i = 0; i < 1000; i++)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Drbg, OutputLooksUniform)
{
    CtrDrbg rng({'u'});
    auto bytes = rng.generate(1 << 16);
    size_t ones = 0;
    for (uint8_t b : bytes)
        ones += size_t(__builtin_popcount(b));
    double frac = double(ones) / (8.0 * double(bytes.size()));
    EXPECT_NEAR(frac, 0.5, 0.01);
}

// --------------------------------------------------------------------
// Sealed blobs
// --------------------------------------------------------------------

TEST(Sealed, Roundtrip)
{
    AesKey key = keyFromHex("00112233445566778899aabbccddeeff");
    CtrDrbg rng({'r'});
    std::vector<uint8_t> plain = {1, 2, 3, 4, 5};
    std::vector<uint8_t> wire = seal(key, rng, plain);
    EXPECT_EQ(wire.size(), sealedHeaderBytes + plain.size());
    bool ok = false;
    EXPECT_EQ(unseal(key, wire, ok), plain);
    EXPECT_TRUE(ok);
}

TEST(Sealed, DetectsCiphertextTampering)
{
    AesKey key = keyFromHex("00112233445566778899aabbccddeeff");
    CtrDrbg rng({'r'});
    std::vector<uint8_t> wire = seal(key, rng, std::vector<uint8_t>(100, 7));
    wire[sealedHeaderBytes + 50] ^= 1;
    bool ok = true;
    unseal(key, wire, ok);
    EXPECT_FALSE(ok);
}

TEST(Sealed, DetectsNonceTampering)
{
    AesKey key = keyFromHex("00112233445566778899aabbccddeeff");
    CtrDrbg rng({'r'});
    std::vector<uint8_t> wire = seal(key, rng, std::vector<uint8_t>(16, 9));
    wire[0] ^= 1; // the nonce leads the wire layout
    bool ok = true;
    unseal(key, wire, ok);
    EXPECT_FALSE(ok);
}

TEST(Sealed, AadBindsContext)
{
    // A page sealed for one virtual address must not verify for
    // another (anti-relocation protection for ghost swap).
    AesKey key = keyFromHex("00112233445566778899aabbccddeeff");
    CtrDrbg rng({'r'});
    std::vector<uint8_t> aad1 = {0x10};
    std::vector<uint8_t> aad2 = {0x20};
    std::vector<uint8_t> wire = seal(key, rng, std::vector<uint8_t>(8, 1), aad1);
    bool ok = true;
    unseal(key, wire, ok, aad2);
    EXPECT_FALSE(ok);
    unseal(key, wire, ok, aad1);
    EXPECT_TRUE(ok);
}

TEST(Sealed, WrongKeyFails)
{
    AesKey key1 = keyFromHex("00112233445566778899aabbccddeeff");
    AesKey key2 = keyFromHex("ffeeddccbbaa99887766554433221100");
    CtrDrbg rng({'r'});
    std::vector<uint8_t> wire = seal(key1, rng, std::vector<uint8_t>(8, 1));
    bool ok = true;
    unseal(key2, wire, ok);
    EXPECT_FALSE(ok);
}

TEST(Sealed, ShortFrameRefused)
{
    // A frame too short to hold the nonce and MAC never opens; one
    // exactly that long is the seal of an empty message.
    AesKey key = keyFromHex("00112233445566778899aabbccddeeff");
    CtrDrbg rng({'r'});
    std::vector<uint8_t> empty = seal(key, rng, {});
    ASSERT_EQ(empty.size(), sealedHeaderBytes);
    bool ok = false;
    EXPECT_TRUE(unseal(key, empty, ok).empty());
    EXPECT_TRUE(ok);
    for (size_t len = 0; len < sealedHeaderBytes; len++) {
        std::vector<uint8_t> shortFrame(empty.begin(),
                                        empty.begin() + long(len));
        ok = true;
        EXPECT_TRUE(unseal(key, shortFrame, ok).empty());
        EXPECT_FALSE(ok) << "len " << len;
    }
}

// --------------------------------------------------------------------
// S-box construction (the xtime/exponentiation build)
// --------------------------------------------------------------------

TEST(AesSbox, KnownEntries)
{
    uint8_t sbox[256];
    detail::buildAesSbox(sbox);
    // FIPS 197 Figure 7 spot checks.
    EXPECT_EQ(sbox[0x00], 0x63);
    EXPECT_EQ(sbox[0x01], 0x7c);
    EXPECT_EQ(sbox[0x53], 0xed);
    EXPECT_EQ(sbox[0xff], 0x16);
}

TEST(AesSbox, IsAPermutation)
{
    uint8_t sbox[256];
    detail::buildAesSbox(sbox);
    bool seen[256] = {false};
    for (int i = 0; i < 256; i++)
        seen[sbox[i]] = true;
    for (int i = 0; i < 256; i++)
        EXPECT_TRUE(seen[i]) << "missing sbox output " << i;
}

// --------------------------------------------------------------------
// Known-answer vectors against the production code, the textbook
// oracle in crypto_ref.hh, and each host kernel set reached directly:
// portable (runs everywhere) and hardware (AES-NI/SHA-NI, skipped when
// cpuid lacks them). The param selects the implementation.
// --------------------------------------------------------------------

namespace
{

struct CryptoImpl
{
    const char *name;
    /** Why this host cannot run the row's AES or SHA kernel; null when
     *  it can. */
    const char *(*aesMissing)();
    const char *(*shaMissing)();
    void (*encrypt)(const AesKey &key, uint8_t block[16]);
    std::vector<uint8_t> (*ctr)(const AesKey &key,
                                const std::vector<uint8_t> &data,
                                const AesBlock &nonce);
    /** SHA-256 fed by two update() calls split at @p split. */
    Digest (*sha256)(const void *data, size_t len, size_t split);
    Digest (*hmac)(const std::vector<uint8_t> &key, const void *data,
                   size_t len);
};

const char *
runsEverywhere()
{
    return nullptr;
}

template <class Hasher>
Digest
splitHash(Hasher h, const void *data, size_t len, size_t split)
{
    const auto *p = static_cast<const uint8_t *>(data);
    h.update(p, split);
    h.update(p + split, len - split);
    return h.final();
}

const CryptoImpl kProduction = {
    "production",
    runsEverywhere,
    runsEverywhere,
    [](const AesKey &k, uint8_t b[16]) { Aes128(k).encryptBlock(b); },
    [](const AesKey &k, const std::vector<uint8_t> &d, const AesBlock &n) {
        return ctr(Aes128(k), d, n);
    },
    [](const void *d, size_t n, size_t s) {
        return splitHash(Sha256(), d, n, s);
    },
    [](const std::vector<uint8_t> &k, const void *d, size_t n) {
        return hmacSha256(k, d, n);
    },
};

const CryptoImpl kReference = {
    "reference",
    runsEverywhere,
    runsEverywhere,
    [](const AesKey &k, uint8_t b[16]) {
        vg::crypto_ref::Aes128(k).encryptBlock(b);
    },
    [](const AesKey &k, const std::vector<uint8_t> &d, const AesBlock &n) {
        return vg::crypto_ref::Aes128(k).ctrCrypt(d, n);
    },
    [](const void *d, size_t n, size_t s) {
        return splitHash(vg::crypto_ref::Sha256(), d, n, s);
    },
    [](const std::vector<uint8_t> &k, const void *d, size_t n) {
        return vg::crypto_ref::hmacSha256(k, d, n);
    },
};

const CryptoImpl kPortable = {
    "portable",
    runsEverywhere,
    runsEverywhere,
    [](const AesKey &k, uint8_t b[16]) {
        Aes128(k, detail::portableAes()).encryptBlock(b);
    },
    [](const AesKey &k, const std::vector<uint8_t> &d, const AesBlock &n) {
        return ctr(Aes128(k, detail::portableAes()), d, n);
    },
    [](const void *d, size_t n, size_t s) {
        return splitHash(Sha256(detail::portableSha256), d, n, s);
    },
    [](const std::vector<uint8_t> &k, const void *d, size_t n) {
        return HmacSha256(k, Sha256(detail::portableSha256)).mac(d, n);
    },
};

// The hardware row's AES and SHA entries run only after its
// aesMissing/shaMissing checks pass, so the kernels are non-null there.
const CryptoImpl kHardware = {
    "hardware",
    [] {
        return detail::hardwareAes()
                   ? nullptr
                   : "cpuid leaf 1 ECX lacks AES (bit 25), SSSE3 or SSE4.1";
    },
    [] {
        return detail::hardwareSha256()
                   ? nullptr
                   : "cpuid leaf 7 EBX lacks SHA (bit 29), or leaf 1 "
                     "ECX lacks SSSE3 or SSE4.1";
    },
    [](const AesKey &k, uint8_t b[16]) {
        Aes128(k, *detail::hardwareAes()).encryptBlock(b);
    },
    [](const AesKey &k, const std::vector<uint8_t> &d, const AesBlock &n) {
        return ctr(Aes128(k, *detail::hardwareAes()), d, n);
    },
    [](const void *d, size_t n, size_t s) {
        return splitHash(Sha256(detail::hardwareSha256()), d, n, s);
    },
    [](const std::vector<uint8_t> &k, const void *d, size_t n) {
        return HmacSha256(k, Sha256(detail::hardwareSha256())).mac(d, n);
    },
};

} // namespace

class BothPaths : public ::testing::TestWithParam<const CryptoImpl *>
{
};

TEST_P(BothPaths, AesFips197)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.aesMissing())
        GTEST_SKIP() << missing;
    AesKey key = keyFromHex("000102030405060708090a0b0c0d0e0f");
    auto block = fromHexStr("00112233445566778899aabbccddeeff");
    impl.encrypt(key, block.data());
    EXPECT_EQ(block, fromHexStr("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST_P(BothPaths, AesNistEcb)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.aesMissing())
        GTEST_SKIP() << missing;
    AesKey key = keyFromHex("2b7e151628aed2a6abf7158809cf4f3c");
    const char *vec[][2] = {
        {"6bc1bee22e409f96e93d7e117393172a",
         "3ad77bb40d7a3660a89ecaf32466ef97"},
        {"ae2d8a571e03ac9c9eb76fac45af8e51",
         "f5d3d58503b9699de785895a96fdbaaf"},
        {"30c81c46a35ce411e5fbc1191a0a52ef",
         "43b1cd7f598ece23881b00e3ed030688"},
        {"f69f2445df4f9b17ad2b417be66c3710",
         "7b0c785e27e8ad3f8223207104725dd4"},
    };
    for (auto &v : vec) {
        auto block = fromHexStr(v[0]);
        impl.encrypt(key, block.data());
        EXPECT_EQ(block, fromHexStr(v[1]));
    }
}

TEST_P(BothPaths, Sha256Nist)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.shaMissing())
        GTEST_SKIP() << missing;
    EXPECT_EQ(toHex(impl.sha256("", 0, 0)),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(toHex(impl.sha256("abc", 3, 0)),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    const char *two = "abcdbcdecdefdefgefghfghighijhijkijkljklm"
                      "klmnlmnomnopnopq";
    EXPECT_EQ(toHex(impl.sha256(two, std::strlen(two), 0)),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
    // 56 bytes: the padding tail spills into a second block.
    std::string fiftysix(56, 'a');
    EXPECT_EQ(impl.sha256(fiftysix.data(), fiftysix.size(), 0),
              kReference.sha256(fiftysix.data(), fiftysix.size(), 0));
}

TEST_P(BothPaths, HmacRfc4231)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.shaMissing())
        GTEST_SKIP() << missing;
    {
        std::vector<uint8_t> key(20, 0x0b);
        EXPECT_EQ(toHex(impl.hmac(key, "Hi There", 8)),
                  "b0344c61d8db38535ca8afceaf0bf12b"
                  "881dc200c9833da726e9376c2e32cff7");
    }
    {
        std::vector<uint8_t> key = {'J', 'e', 'f', 'e'};
        const char *data = "what do ya want for nothing?";
        EXPECT_EQ(toHex(impl.hmac(key, data, std::strlen(data))),
                  "5bdcc146bf60754e6a042426089575c7"
                  "5a003f089d2739839dec58b964ec3843");
    }
    {
        std::vector<uint8_t> key(131, 0xaa);
        const char *data = "Test Using Larger Than Block-Size Key - "
                           "Hash Key First";
        EXPECT_EQ(toHex(impl.hmac(key, data, std::strlen(data))),
                  "60e431591ee0b67f0d8a26aacbf5b77f"
                  "8e0bc6213728c5140546040f0ee37f54");
    }
}

TEST_P(BothPaths, HmacClassMatchesFreeFunction)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.shaMissing())
        GTEST_SKIP() << missing;
    for (size_t key_len : {0u, 4u, 20u, 64u, 131u}) {
        std::vector<uint8_t> key(key_len, 0x0b);
        HmacSha256 ctx(key);
        std::vector<uint8_t> data(200);
        for (size_t i = 0; i < data.size(); i++)
            data[i] = uint8_t(i);
        EXPECT_EQ(ctx.mac(data), impl.hmac(key, data.data(), data.size()));
        // Streaming via begin()/finish() over two chunks.
        Sha256 inner = ctx.begin();
        inner.update(data.data(), 100);
        inner.update(data.data() + 100, data.size() - 100);
        EXPECT_EQ(ctx.finish(inner),
                  impl.hmac(key, data.data(), data.size()));
    }
}

TEST_P(BothPaths, CtrEveryLengthAcrossCounterWrap)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.aesMissing())
        GTEST_SKIP() << missing;
    AesKey key = keyFromHex("2b7e151628aed2a6abf7158809cf4f3c");
    // Low half 2^64 - 3: the counter wraps at block 3, inside the first
    // batch of eight blocks, and must not carry into the high half.
    AesBlock nonce;
    for (size_t i = 0; i < 8; i++)
        nonce[i] = uint8_t(0xa0 + i);
    for (size_t i = 8; i < 16; i++)
        nonce[i] = 0xff;
    nonce[15] = 0xfd;
    std::vector<uint8_t> data(287);
    for (size_t i = 0; i < data.size(); i++)
        data[i] = uint8_t(i * 7 + 1);
    for (size_t len = 0; len <= data.size(); len++) {
        std::vector<uint8_t> msg(data.begin(), data.begin() + long(len));
        EXPECT_EQ(impl.ctr(key, msg, nonce),
                  kReference.ctr(key, msg, nonce))
            << "length " << len;
    }

    // Block 3's keystream is E(high half || 0): the high half is
    // unchanged after the wrap.
    auto ks = impl.ctr(key, std::vector<uint8_t>(64, 0), nonce);
    uint8_t wrapped[16] = {};
    std::memcpy(wrapped, nonce.data(), 8);
    kReference.encrypt(key, wrapped);
    EXPECT_TRUE(std::equal(wrapped, wrapped + 16, ks.begin() + 48));
}

TEST_P(BothPaths, Sha256UpdateSplitAtEveryOffset)
{
    const CryptoImpl &impl = *GetParam();
    if (const char *missing = impl.shaMissing())
        GTEST_SKIP() << missing;
    std::vector<uint8_t> msg(300);
    for (size_t i = 0; i < msg.size(); i++)
        msg[i] = uint8_t(i * 13 + 5);
    Digest want = kReference.sha256(msg.data(), msg.size(), 0);
    for (size_t split = 0; split <= 200; split++)
        EXPECT_EQ(impl.sha256(msg.data(), msg.size(), split), want)
            << "split at " << split;
}

INSTANTIATE_TEST_SUITE_P(
    EveryImpl, BothPaths,
    ::testing::Values(&kProduction, &kReference, &kPortable, &kHardware),
    [](const ::testing::TestParamInfo<const CryptoImpl *> &info) {
        return std::string(info.param->name);
    });
