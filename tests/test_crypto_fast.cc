/**
 * @file
 * The production crypto (T-table AES, one-shot SHA-256 finalize,
 * precomputed HMAC states, Montgomery modExp, cached seal keys) must be
 * *bit identical* to the textbook constructions: same ciphertexts, same
 * digests, same MACs, same sealed blobs, same swapped-page bytes. Each
 * sweep checks the production output against the test-only oracle in
 * crypto_ref.hh where one exists, and folds every output into a digest
 * compared with the value recorded from the retired in-tree reference
 * path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "crypto/aes.hh"
#include "crypto/bignum.hh"
#include "crypto/drbg.hh"
#include "crypto/hmac.hh"
#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "crypto/sha256.hh"
#include "hw/iommu.hh"
#include "hw/mmu.hh"
#include "hw/phys_mem.hh"
#include "hw/tpm.hh"
#include "sva/vm.hh"

#include "crypto_ref.hh"
#include "golden.hh"

using namespace vg;
using namespace vg::crypto;

namespace
{

AesKey
randomKey(CtrDrbg &rng)
{
    AesKey k{};
    rng.generate(k.data(), k.size());
    return k;
}

/** Recorded digests: test name -> {seed 1, 2, 3, 4}. */
const std::map<std::string, std::array<uint64_t, 4>> kCryptoGolden = {
    {"AesPrimitives",
     {0x36e50f6078f3bca6ull, 0xf2d4d70badd1a941ull,
      0x793f3538398075acull, 0x9ba000d7333b6196ull}},
    {"ShaAndHmac",
     {0x5ccb2a3ebdd2dbb4ull, 0xe1883b47dc5beca4ull,
      0x2dc2b9ca56287c5aull, 0x6fa34d09472261b3ull}},
    {"ModExp",
     {0x49eb095ff1af0160ull, 0x8041d56efa146a01ull,
      0x908cd83d6919e1a3ull, 0x7b4584d2a1863203ull}},
    {"RsaOps",
     {0xd6f3fba66b92140bull, 0x7c8a806d33662393ull,
      0x0bc4285d8f8f9eacull, 0xd0a4e1f4e6e5308cull}},
    {"RsaKeygen",
     {0x9105572df5c95924ull, 0x23d243474c3b82cbull,
      0xedca14854c894401ull, 0xb2a321ca71a174d5ull}},
    {"SealedBlobs",
     {0x1ff8a60be480002eull, 0x98b57ad9d15a6117ull,
      0xf3c423481f1cf2eeull, 0x40c59d269247f61dull}},
    {"GhostPageSwap",
     {0x80dd39dc1140d5c2ull, 0x7e99ac2ed1fc4a9cull,
      0x73bdd5fd6a2f058bull, 0x8ff7d1119c2fe30dull}},
};

} // namespace

class CryptoGoldenSweep : public ::testing::TestWithParam<int>
{
  protected:
    CtrDrbg
    rng() const
    {
        return CtrDrbg({uint8_t(GetParam()), 'c', 'f'});
    }

    /** Check @p g against test @p name's recorded digest for the
     *  seed. */
    void
    expectGolden(const char *name, const test::Golden &g) const
    {
        EXPECT_TRUE(test::matchesGolden(
            g.h, kCryptoGolden.at(name).at(size_t(GetParam() - 1))));
    }
};

// --------------------------------------------------------------------
// AES: block encryption and CTR over random keys and lengths.
// --------------------------------------------------------------------

TEST_P(CryptoGoldenSweep, AesPrimitives)
{
    CtrDrbg r = rng();
    test::Golden g;
    for (int round = 0; round < 20; round++) {
        AesKey key = randomKey(r);
        Aes128 aes(key);
        crypto_ref::Aes128 ref(key);

        uint8_t blk[16], blkR[16];
        r.generate(blk, 16);
        std::memcpy(blkR, blk, 16);
        aes.encryptBlock(blk);
        ref.encryptBlock(blkR);
        ASSERT_EQ(std::memcmp(blk, blkR, 16), 0) << "round " << round;
        g.bytes(blk, 16);

        AesBlock iv{};
        r.generate(iv.data(), iv.size());
        size_t len = size_t(r.nextBounded(600));
        std::vector<uint8_t> plain = r.generate(len);

        std::vector<uint8_t> ctr = plain;
        aes.ctrCrypt(ctr.data(), ctr.size(), iv);
        ASSERT_EQ(ctr, ref.ctrCrypt(plain, iv)) << "ctr len " << len;
        std::vector<uint8_t> back = ctr;
        aes.ctrCrypt(back.data(), back.size(), iv);
        ASSERT_EQ(back, plain);
        g.vec(ctr);
    }

    // A nonce near the 64-bit counter boundary exercises the carry
    // chain.
    AesKey key = randomKey(r);
    AesBlock nonce{};
    for (int i = 8; i < 16; i++)
        nonce[size_t(i)] = 0xff;
    std::vector<uint8_t> data = r.generate(128);
    std::vector<uint8_t> ctr = data;
    Aes128(key).ctrCrypt(ctr.data(), ctr.size(), nonce);
    ASSERT_EQ(ctr, crypto_ref::Aes128(key).ctrCrypt(data, nonce));
    g.vec(ctr);
    expectGolden("AesPrimitives", g);
}

// --------------------------------------------------------------------
// SHA-256 + HMAC: random lengths, random chunking, random key sizes.
// --------------------------------------------------------------------

TEST_P(CryptoGoldenSweep, ShaAndHmac)
{
    CtrDrbg r = rng();
    test::Golden g;
    for (size_t len = 0; len < 200; len++) {
        std::vector<uint8_t> msg = r.generate(len);
        Digest d = Sha256::hash(msg.data(), msg.size());
        ASSERT_EQ(d, crypto_ref::sha256(msg.data(), msg.size()))
            << "len " << len;
        g.bytes(d.data(), d.size());
    }
    for (int round = 0; round < 10; round++) {
        std::vector<uint8_t> msg =
            r.generate(size_t(r.nextBounded(8192)));
        Digest ref = crypto_ref::sha256(msg.data(), msg.size());
        ASSERT_EQ(Sha256::hash(msg.data(), msg.size()), ref);

        // Random chunking must not change the digest.
        Sha256 h;
        size_t off = 0;
        while (off < msg.size()) {
            size_t n = std::min<size_t>(r.nextBounded(200) + 1,
                                        msg.size() - off);
            h.update(msg.data() + off, n);
            off += n;
        }
        ASSERT_EQ(h.final(), ref);
        g.bytes(ref.data(), ref.size());
    }
    for (size_t key_len = 0; key_len < 150; key_len += 7) {
        std::vector<uint8_t> key = r.generate(key_len);
        std::vector<uint8_t> msg =
            r.generate(size_t(r.nextBounded(500)));
        Digest ref = crypto_ref::hmacSha256(key, msg.data(), msg.size());
        ASSERT_EQ(hmacSha256(key, msg.data(), msg.size()), ref)
            << "key len " << key_len;
        ASSERT_EQ(HmacSha256(key).mac(msg), ref);
        g.bytes(ref.data(), ref.size());
    }
    expectGolden("ShaAndHmac", g);
}

// --------------------------------------------------------------------
// Montgomery modExp vs square-and-multiply.
// --------------------------------------------------------------------

TEST_P(CryptoGoldenSweep, ModExp)
{
    CtrDrbg r = rng();
    test::Golden g;
    for (int round = 0; round < 60; round++) {
        BigNum mod =
            BigNum::fromBytes(r.generate(size_t(r.nextBounded(48)) + 1));
        if (mod.isZero())
            mod = BigNum(1);
        BigNum base =
            BigNum::fromBytes(r.generate(size_t(r.nextBounded(64)) + 1));
        BigNum exp =
            BigNum::fromBytes(r.generate(size_t(r.nextBounded(8)) + 1));
        BigNum got = base.modExp(exp, mod);
        ASSERT_EQ(got, crypto_ref::modExp(base, exp, mod))
            << "round " << round << " mod " << mod.toHex();
        g.vec(got.toBytes());
    }

    // Directed edges: trivial modulus, even modulus (square-and-
    // multiply in production too), zero exponent, zero base,
    // base == mod.
    BigNum m = BigNum::fromHex("f123456789abcdef123457");
    BigNum even = BigNum::fromHex("f123456789abcdef123456");
    BigNum b = BigNum::fromHex("123456789");
    EXPECT_EQ(b.modExp(BigNum(5), BigNum(1)), BigNum());
    EXPECT_EQ(b.modExp(BigNum(77), even),
              crypto_ref::modExp(b, BigNum(77), even));
    EXPECT_EQ(b.modExp(BigNum(), m), BigNum(1));
    EXPECT_EQ(BigNum().modExp(BigNum(9), m),
              crypto_ref::modExp(BigNum(), BigNum(9), m));
    EXPECT_EQ(m.modExp(BigNum(3), m), BigNum());

    // A 2048-bit odd modulus with 64-bit exponents (square-and-
    // multiply is too slow for full-width exponents here).
    BigNum wide = BigNum::fromBytes(r.generate(256));
    wide.setBit(2047);
    wide.setBit(0);
    for (int round = 0; round < 3; round++) {
        BigNum base = BigNum::fromBytes(r.generate(256));
        BigNum exp(r.next64());
        BigNum got = base.modExp(exp, wide);
        ASSERT_EQ(got, crypto_ref::modExp(base, exp, wide))
            << "wide round " << round;
        g.vec(got.toBytes());
    }
    expectGolden("ModExp", g);
}

// --------------------------------------------------------------------
// RSA: signatures and ciphertexts round-trip and match the record.
// --------------------------------------------------------------------

TEST_P(CryptoGoldenSweep, RsaOps)
{
    CtrDrbg keygen = rng();
    RsaPrivateKey key = rsaGenerate(keygen, 384);

    CtrDrbg r = rng();
    test::Golden g;
    for (int round = 0; round < 4; round++) {
        std::vector<uint8_t> msg =
            r.generate(size_t(r.nextBounded(200)) + 1);

        auto sig = rsaSign(key, msg);
        EXPECT_TRUE(rsaVerify(key.publicKey(), msg, sig));
        g.vec(sig);

        std::vector<uint8_t> shortMsg = r.generate(16);
        CtrDrbg pad({uint8_t(round), 'p'});
        auto c = rsaEncrypt(key.publicKey(), pad, shortMsg);
        bool ok = false;
        ASSERT_EQ(rsaDecrypt(key, c, ok), shortMsg);
        EXPECT_TRUE(ok);
        g.vec(c);
    }
    expectGolden("RsaOps", g);
}

// --------------------------------------------------------------------
// RSA key generation: the DRBG draws, candidate order and Miller-Rabin
// rounds fix every key, so any drift in the candidate sequence moves
// this digest.
// --------------------------------------------------------------------

TEST_P(CryptoGoldenSweep, RsaKeygen)
{
    CtrDrbg r = rng();
    test::Golden g;
    for (size_t bits : {384, 512}) {
        RsaPrivateKey key = rsaGenerate(r, bits);
        EXPECT_EQ(key.n, key.p * key.q);
        for (const BigNum *v : {&key.n, &key.e, &key.d, &key.p, &key.q})
            g.vec(v->toBytes());
    }
    expectGolden("RsaKeygen", g);
}

// --------------------------------------------------------------------
// Sealed blobs: byte-identical to the two-pass oracle, tamper
// detection on both.
// --------------------------------------------------------------------

TEST_P(CryptoGoldenSweep, SealedBlobs)
{
    CtrDrbg r = rng();
    test::Golden g;
    // Few distinct keys so the derived-key cache gets hits too.
    std::vector<AesKey> keys;
    for (int i = 0; i < 3; i++)
        keys.push_back(randomKey(r));

    for (int round = 0; round < 20; round++) {
        const AesKey &key = keys[round % keys.size()];
        std::vector<uint8_t> plain =
            r.generate(size_t(r.nextBounded(5000)));
        std::vector<uint8_t> aad =
            r.generate(size_t(r.nextBounded(32)));

        CtrDrbg rng({uint8_t(round), 's'});
        CtrDrbg rngR({uint8_t(round), 's'});
        std::vector<uint8_t> wire = seal(key, rng, plain, aad);
        ASSERT_EQ(wire, crypto_ref::seal(key, rngR, plain, aad))
            << "round " << round;
        g.vec(wire);

        bool ok = false, okR = false;
        ASSERT_EQ(unseal(key, wire, ok, aad), plain);
        ASSERT_EQ(crypto_ref::unseal(key, wire, okR, aad), plain);
        EXPECT_TRUE(ok && okR);

        size_t text_len = wire.size() - sealedHeaderBytes;
        if (text_len != 0) {
            std::vector<uint8_t> bad = wire;
            bad[sealedHeaderBytes + size_t(r.nextBounded(text_len))] ^=
                0x01;
            ok = okR = true;
            unseal(key, bad, ok, aad);
            crypto_ref::unseal(key, bad, okR, aad);
            EXPECT_FALSE(ok);
            EXPECT_FALSE(okR);
        }
    }
    expectGolden("SealedBlobs", g);
}

// --------------------------------------------------------------------
// Multi-lane SHA-256: updateLanes() against the oracle, on the lane
// kernel (SHA-NI lanes sharing a buffered length) and on the per-lane
// fallback (the portable kernel, mixed buffered lengths, mixed
// kernels).
// --------------------------------------------------------------------

namespace
{

constexpr size_t kMaxLanes = 9;
constexpr size_t kLaneText = 4096 + 63;

/**
 * Each lane's random 64-byte prefix and kLaneText-byte text, and the
 * oracle digest of prefix[0..p) || text[0..len) for every lane, every
 * p in 0..63 and every length: 0..300, then 4096 + {0, 1, 63}.
 */
struct LaneCorpus
{
    std::vector<uint8_t> prefix, text;
    std::vector<size_t> lengths;
    std::vector<Digest> ref; ///< [lane][p][length index]

    const uint8_t *prefixOf(size_t lane) const
    {
        return prefix.data() + 64 * lane;
    }
    const uint8_t *textOf(size_t lane) const
    {
        return text.data() + kLaneText * lane;
    }
    const Digest &
    digest(size_t lane, size_t p, size_t li) const
    {
        return ref[(lane * 64 + p) * lengths.size() + li];
    }

    static const LaneCorpus &
    get()
    {
        static const LaneCorpus corpus = [] {
            LaneCorpus c;
            CtrDrbg r({'l', 'n'});
            c.prefix = r.generate(64 * kMaxLanes);
            c.text = r.generate(kLaneText * kMaxLanes);
            for (size_t len = 0; len <= 300; len++)
                c.lengths.push_back(len);
            for (size_t extra : {0, 1, 63})
                c.lengths.push_back(4096 + extra);
            for (size_t lane = 0; lane < kMaxLanes; lane++) {
                for (size_t p = 0; p < 64; p++) {
                    // Grow one oracle hasher byte by byte and finish a
                    // copy at every recorded length.
                    crypto_ref::Sha256 h;
                    h.update(c.prefixOf(lane), p);
                    size_t at = 0;
                    for (size_t len : c.lengths) {
                        h.update(c.textOf(lane) + at, len - at);
                        at = len;
                        c.ref.push_back(crypto_ref::Sha256(h).final());
                    }
                }
            }
            return c;
        }();
        return corpus;
    }
};

/**
 * Hash lane i's prefix[0..prefixes[i]) on its own, then its
 * text[0..len) through one updateLanes() call for all lanes, each lane
 * a copy of kernels[i % kernels.size()]. Returns the digests.
 */
std::vector<Digest>
hashLanes(const std::vector<Sha256> &kernels,
          const std::vector<size_t> &prefixes, size_t len)
{
    const LaneCorpus &c = LaneCorpus::get();
    const size_t n = prefixes.size();
    std::vector<Sha256> hashers;
    std::vector<Sha256 *> lanes;
    std::vector<const uint8_t *> data;
    for (size_t i = 0; i < n; i++)
        hashers.push_back(kernels[i % kernels.size()]);
    for (size_t i = 0; i < n; i++) {
        hashers[i].update(c.prefixOf(i), prefixes[i]);
        lanes.push_back(&hashers[i]);
        data.push_back(c.textOf(i));
    }
    Sha256::updateLanes(lanes, data, len);
    std::vector<Digest> out;
    for (Sha256 &h : hashers)
        out.push_back(h.final());
    return out;
}

/** Check every lane of hashLanes() against the oracle. */
void
expectLanesMatch(const std::vector<Sha256> &kernels,
                 const std::vector<size_t> &prefixes)
{
    const LaneCorpus &c = LaneCorpus::get();
    for (size_t li = 0; li < c.lengths.size(); li++) {
        std::vector<Digest> got =
            hashLanes(kernels, prefixes, c.lengths[li]);
        for (size_t i = 0; i < prefixes.size(); i++)
            ASSERT_EQ(got[i], c.digest(i, prefixes[i], li))
                << prefixes.size() << " lanes, lane " << i << " prefix "
                << prefixes[i] << " len " << c.lengths[li];
    }
}

} // namespace

/** The parameter selects the kernel: false portable, true SHA-NI. */
class Sha256Lanes : public ::testing::TestWithParam<bool>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() && !detail::hardwareSha256())
            GTEST_SKIP() << "no SHA-NI on this host";
    }

    Sha256
    kernel() const
    {
        return GetParam() ? Sha256(detail::hardwareSha256())
                          : Sha256(detail::portableSha256);
    }
};

TEST_P(Sha256Lanes, SharedPrefixMatchesReference)
{
    for (size_t n = 1; n <= kMaxLanes; n++)
        for (size_t p = 0; p < 64; p++)
            expectLanesMatch({kernel()}, std::vector<size_t>(n, p));
}

TEST_P(Sha256Lanes, MixedPrefixesMatchReference)
{
    // Buffered lengths that differ between lanes take the fallback.
    for (size_t n = 2; n <= kMaxLanes; n++) {
        for (size_t base = 0; base < 64; base += 9) {
            std::vector<size_t> prefixes;
            for (size_t i = 0; i < n; i++)
                prefixes.push_back((base + 13 * i) % 64);
            expectLanesMatch({kernel()}, prefixes);
        }
    }
}

TEST_P(Sha256Lanes, MixedKernelsMatchReference)
{
    // Portable and SHA-NI hashers in one call take the fallback.
    if (!detail::hardwareSha256())
        GTEST_SKIP() << "no SHA-NI on this host";
    std::vector<Sha256> kernels = {kernel(),
                                   GetParam()
                                       ? Sha256(detail::portableSha256)
                                       : Sha256(detail::hardwareSha256())};
    for (size_t n = 2; n <= kMaxLanes; n++)
        for (size_t p : {0, 1, 40, 63})
            expectLanesMatch(kernels, std::vector<size_t>(n, p));
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Lanes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "ShaNi" : "Portable";
                         });

// --------------------------------------------------------------------
// Sealing in place on the wire layout: the same bytes as the oracle's
// seal, and a refused frame is left exactly as it was.
// --------------------------------------------------------------------

namespace
{

/** Text lengths at the AES block and ssh chunk edges, then random
 *  ones up to 5000 bytes. */
std::vector<size_t>
wireLengths()
{
    std::vector<size_t> lens = {0, 1, 15, 16, 17, 4096, 32768};
    CtrDrbg r({'w', 'l'});
    for (int i = 0; i < 24; i++)
        lens.push_back(size_t(r.nextBounded(5001)));
    return lens;
}

/** Room for the nonce and MAC, then @p plain at the text offset. */
std::vector<uint8_t>
wireFrame(const std::vector<uint8_t> &plain)
{
    std::vector<uint8_t> wire(sealedHeaderBytes + plain.size());
    std::copy(plain.begin(), plain.end(),
              wire.begin() + long(sealedHeaderBytes));
    return wire;
}

} // namespace

TEST(SealedWire, MatchesReferenceWire)
{
    CtrDrbg r({'s', 'w'});
    AesKey key = randomKey(r);
    for (size_t len : wireLengths()) {
        for (size_t aad_len : {size_t(0), size_t(13)}) {
            std::vector<uint8_t> plain = r.generate(len);
            std::vector<uint8_t> aad = r.generate(aad_len);
            CtrDrbg rng({uint8_t(len), uint8_t(len >> 8), 'n'});
            CtrDrbg rngR({uint8_t(len), uint8_t(len >> 8), 'n'});

            std::vector<uint8_t> wire = wireFrame(plain);
            sealInPlace(key, rng, wire.data(), len, aad);
            std::vector<uint8_t> ref = crypto_ref::seal(key, rngR, plain, aad);
            ASSERT_EQ(wire, ref) << "len " << len << " aad " << aad_len;

            for (std::vector<uint8_t> *w : {&wire, &ref}) {
                ASSERT_TRUE(openInPlace(key, w->data(), w->size(), aad))
                    << "len " << len;
                ASSERT_EQ(std::vector<uint8_t>(
                              w->begin() + long(sealedHeaderBytes),
                              w->end()),
                          plain)
                    << "len " << len;
            }
        }
    }
}

TEST(SealedWire, RejectedFrameIsLeftUnchanged)
{
    CtrDrbg r({'s', 't'});
    AesKey key = randomKey(r);
    std::vector<uint8_t> aad = r.generate(13);
    for (size_t len : wireLengths()) {
        std::vector<uint8_t> sealed = wireFrame(r.generate(len));
        CtrDrbg rng({uint8_t(len), uint8_t(len >> 8), 't'});
        sealInPlace(key, rng, sealed.data(), len, aad);

        // One flipped bit in every nonce and MAC byte, and in the
        // first, a random and the last text byte.
        std::vector<size_t> at;
        for (size_t i = 0; i < sealedHeaderBytes; i++)
            at.push_back(i);
        if (len > 0) {
            at.push_back(sealedHeaderBytes);
            at.push_back(sealedHeaderBytes + size_t(r.nextBounded(len)));
            at.push_back(sealed.size() - 1);
        }
        for (size_t i : at) {
            std::vector<uint8_t> bad = sealed;
            bad[i] ^= uint8_t(1u << r.nextBounded(8));
            const std::vector<uint8_t> before = bad;
            EXPECT_FALSE(openInPlace(key, bad.data(), bad.size(), aad))
                << "len " << len << " byte " << i;
            EXPECT_EQ(bad, before) << "len " << len << " byte " << i;
        }

        // A one-bit change to the aad.
        std::vector<uint8_t> bad_aad = aad;
        bad_aad[size_t(r.nextBounded(bad_aad.size()))] ^=
            uint8_t(1u << r.nextBounded(8));
        std::vector<uint8_t> frame = sealed;
        EXPECT_FALSE(openInPlace(key, frame.data(), frame.size(), bad_aad))
            << "len " << len;
        EXPECT_EQ(frame, sealed) << "len " << len;

        EXPECT_TRUE(openInPlace(key, frame.data(), frame.size(), aad));
    }

    // Frames too short to hold a nonce and a MAC.
    for (size_t n = 0; n < sealedHeaderBytes; n++) {
        std::vector<uint8_t> frame = r.generate(n);
        const std::vector<uint8_t> before = frame;
        EXPECT_FALSE(openInPlace(key, frame.data(), n)) << "size " << n;
        EXPECT_EQ(frame, before) << "size " << n;
    }
}

TEST(SealedWire, BatchMatchesSingleSeals)
{
    // One N-frame seal and N one-frame seals from twin generators: the
    // same wire bytes, and the generators end in the same state. Equal
    // aad lengths give the frames one buffered length (the lane
    // kernel); random ones mix it (the fallback).
    CtrDrbg r({'s', 'b'});
    AesKey key = randomKey(r);
    for (size_t n : {1, 2, 3, 4, 5, 8, 9, 32}) {
        for (size_t len : {0, 1, 15, 64, 100, 4096}) {
            for (bool equal_aads : {true, false}) {
                std::vector<std::vector<uint8_t>> batch, single, aads;
                for (size_t i = 0; i < n; i++) {
                    batch.push_back(wireFrame(r.generate(len)));
                    single.push_back(batch.back());
                    aads.push_back(r.generate(
                        equal_aads ? 24 : size_t(r.nextBounded(70))));
                }
                std::vector<uint8_t *> frames;
                for (std::vector<uint8_t> &w : batch)
                    frames.push_back(w.data());

                CtrDrbg rngB({uint8_t(n), uint8_t(len), 'b'});
                CtrDrbg rngS({uint8_t(n), uint8_t(len), 'b'});
                sealInPlace(key, rngB, frames, len, aads);
                for (size_t i = 0; i < n; i++)
                    sealInPlace(key, rngS, single[i].data(), len, aads[i]);
                for (size_t i = 0; i < n; i++)
                    ASSERT_EQ(batch[i], single[i])
                        << n << " frames, frame " << i << " len " << len;
                ASSERT_EQ(rngB.generate(16), rngS.generate(16))
                    << n << " frames, len " << len;
            }
        }
    }
}

// --------------------------------------------------------------------
// Ghost-page swap: a booted machine under random swap-out/swap-in
// traffic. Blobs, the clock after every op, final RAM and stats fold
// into the digest.
// --------------------------------------------------------------------

namespace
{

struct SwapRig
{
    sim::SimContext ctx;
    hw::PhysMem mem;
    hw::Mmu mmu;
    hw::Iommu iommu;
    hw::Tpm tpm;
    sva::SvaVm vm;
    std::deque<hw::Frame> freeFrames;

    static constexpr int kPages = 4;

    SwapRig()
        : ctx(sim::VgConfig::full()), mem(512), mmu(mem, ctx), iommu(mem, ctx),
          tpm({'c', 's'}), vm(ctx, mem, mmu, iommu, tpm)
    {
        vm.install(384);
        vm.boot();
        for (hw::Frame f = 64; f < 256; f++)
            freeFrames.push_back(f);
        vm.setFrameProvider([this]() -> std::optional<hw::Frame> {
            if (freeFrames.empty())
                return std::nullopt;
            hw::Frame f = freeFrames.front();
            freeFrames.pop_front();
            return f;
        });
        vm.setFrameReceiver(
            [this](hw::Frame f) { freeFrames.push_back(f); });

        sva::SvaError err;
        EXPECT_TRUE(vm.declarePtPage(0, 4, &err)) << err.message;
        EXPECT_TRUE(vm.allocGhostMemory(1, 0, hw::ghostBase, kPages,
                                        &err))
            << err.message;
    }

    /** Fill every ghost-typed frame with bytes from @p fill. */
    void
    fillGhostFrames(const std::vector<uint8_t> &fill)
    {
        size_t off = 0;
        for (hw::Frame f = 0; f < 512; f++) {
            if (vm.frames()[f].type != sva::FrameType::Ghost)
                continue;
            mem.writeBytes(f * hw::pageSize, fill.data() + off,
                           hw::pageSize);
            off += hw::pageSize;
        }
    }
};

} // namespace

TEST_P(CryptoGoldenSweep, GhostPageSwap)
{
    CtrDrbg r = rng();
    SwapRig rig;
    rig.fillGhostFrames(r.generate(SwapRig::kPages * hw::pageSize));

    std::map<hw::Vaddr, std::vector<uint8_t>> swapped;
    sva::SvaError err;
    test::Golden g;

    for (int op = 0; op < 200; op++) {
        hw::Vaddr va =
            hw::ghostBase + r.nextBounded(SwapRig::kPages) * hw::pageSize;
        auto it = swapped.find(va);
        if (it == swapped.end()) {
            std::vector<std::vector<uint8_t>> wires =
                rig.vm.swapOutGhostBatch(1, 0, {va}, &err);
            ASSERT_EQ(wires.size(), 1u) << "op " << op;
            g.vec(wires[0]);
            swapped.emplace(va, std::move(wires[0]));
        } else {
            if (r.nextBounded(4) == 0) {
                // Tampered page: must be rejected.
                std::vector<uint8_t> bad = it->second;
                size_t text_len = bad.size() - sealedHeaderBytes;
                bad[sealedHeaderBytes + size_t(r.nextBounded(text_len))] ^=
                    0x40;
                EXPECT_FALSE(rig.vm.swapInGhostPage(1, 0, va, bad, &err));
            }
            ASSERT_TRUE(rig.vm.swapInGhostPage(1, 0, va, it->second, &err))
                << "op " << op << ": " << err.message;
            swapped.erase(it);
        }
        g.u64(rig.ctx.clock().now());
    }

    // Swap everything back in, then fold the full machine state.
    for (auto &[va, blob] : swapped)
        ASSERT_TRUE(rig.vm.swapInGhostPage(1, 0, va, blob, &err));
    g.machine(rig.ctx);
    std::vector<uint8_t> page(hw::pageSize);
    for (uint64_t pa = 0; pa < rig.mem.sizeBytes(); pa += hw::pageSize) {
        rig.mem.readBytes(pa, page.data(), page.size());
        g.bytes(page.data(), page.size());
    }
    expectGolden("GhostPageSwap", g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoGoldenSweep,
                         ::testing::Values(1, 2, 3, 4));
