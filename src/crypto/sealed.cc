#include "crypto/sealed.hh"

#include <algorithm>
#include <cstring>
#include <map>

#include "crypto/drbg.hh"
#include "crypto/hmac.hh"
#include "sim/log.hh"

namespace vg::crypto
{

namespace
{

/** Derive independent cipher and MAC keys from the master key. */
void
deriveKeys(const AesKey &master, AesKey &enc_key,
           std::vector<uint8_t> &mac_key)
{
    Sha256 h1;
    h1.update("vg-seal-enc", 11);
    h1.update(master.data(), master.size());
    Digest d1 = h1.final();
    std::memcpy(enc_key.data(), d1.data(), enc_key.size());

    Sha256 h2;
    h2.update("vg-seal-mac", 11);
    h2.update(master.data(), master.size());
    Digest d2 = h2.final();
    mac_key.assign(d2.begin(), d2.end());
}

/** Ready-to-use subkey schedules derived from one master key. */
struct SealKeys
{
    Aes128 aes;
    HmacSha256 mac;
};

/**
 * Derived-key cache: the two KDF passes, the AES key schedule, and the
 * HMAC pad states are a pure function of the master key, so amortize
 * them across calls. Capped so pathological key churn cannot grow it
 * without bound.
 */
const SealKeys &
cachedKeys(const AesKey &master)
{
    static std::map<AesKey, SealKeys> cache;
    auto it = cache.find(master);
    if (it != cache.end())
        return it->second;
    if (cache.size() >= 64)
        cache.clear();

    AesKey enc_key;
    std::vector<uint8_t> mac_key;
    deriveKeys(master, enc_key, mac_key);
    return cache
        .emplace(master, SealKeys{Aes128(enc_key), HmacSha256(mac_key)})
        .first->second;
}

/** Streaming MAC over aad || nonce || text. */
Digest
computeMac(const HmacSha256 &mac, const std::vector<uint8_t> &aad,
           const AesBlock &nonce, const uint8_t *text, size_t len)
{
    Sha256 inner = mac.begin();
    inner.update(aad.data(), aad.size());
    inner.update(nonce.data(), nonce.size());
    inner.update(text, len);
    return mac.finish(inner);
}

} // namespace

std::vector<uint8_t>
seal(const AesKey &key, CtrDrbg &rng, const std::vector<uint8_t> &plain,
     const std::vector<uint8_t> &aad)
{
    std::vector<uint8_t> wire(sealedHeaderBytes + plain.size());
    std::copy(plain.begin(), plain.end(),
              wire.begin() + long(sealedHeaderBytes));
    sealInPlace(key, rng, wire.data(), plain.size(), aad);
    return wire;
}

std::vector<uint8_t>
unseal(const AesKey &key, const std::vector<uint8_t> &wire, bool &ok,
       const std::vector<uint8_t> &aad)
{
    std::vector<uint8_t> text = wire;
    ok = openInPlace(key, text.data(), text.size(), aad);
    if (!ok)
        return {};
    text.erase(text.begin(), text.begin() + long(sealedHeaderBytes));
    return text;
}

/*
 * The one encrypt-then-MAC core. Every sealing entry point lands here
 * with its texts in caller memory. Frame by frame, in order: draw the
 * nonce, encrypt the text in place, and start its MAC over
 * aad || nonce. The ciphertexts then enter the MACs together, so the
 * lane kernel hashes them side by side.
 */
void
sealInPlace(const AesKey &key, CtrDrbg &rng,
            std::span<uint8_t *const> wires, size_t text_len,
            std::span<const std::vector<uint8_t>> aads)
{
    const size_t n = wires.size();
    if (aads.size() != n)
        sim::panic("sealInPlace: %zu frames but %zu aads", n, aads.size());
    const SealKeys &keys = cachedKeys(key);
    std::vector<Sha256> macs(n, keys.mac.begin());
    std::vector<Sha256 *> lanes(n);
    std::vector<const uint8_t *> texts(n);
    for (size_t i = 0; i < n; i++) {
        uint8_t *text = wires[i] + sealedHeaderBytes;
        AesBlock nonce{};
        rng.generate(nonce.data(), nonce.size());
        keys.aes.ctrCrypt(text, text_len, nonce);
        std::memcpy(wires[i], nonce.data(), nonce.size());
        macs[i].update(aads[i].data(), aads[i].size());
        macs[i].update(nonce.data(), nonce.size());
        lanes[i] = &macs[i];
        texts[i] = text;
    }
    Sha256::updateLanes(lanes, texts, text_len);
    for (size_t i = 0; i < n; i++) {
        Digest mac = keys.mac.finish(macs[i]);
        std::memcpy(wires[i] + sizeof(AesBlock), mac.data(), mac.size());
    }
}

void
sealInPlace(const AesKey &key, CtrDrbg &rng, uint8_t *wire,
            size_t text_len, const std::vector<uint8_t> &aad)
{
    sealInPlace(key, rng, {&wire, 1}, text_len, {&aad, 1});
}

/* The core's inverse: verify the MAC first and decrypt the text in
 * place only when it holds; on failure the frame is untouched. */
bool
openInPlace(const AesKey &key, uint8_t *wire, size_t wire_len,
            const std::vector<uint8_t> &aad)
{
    if (wire_len < sealedHeaderBytes)
        return false;
    const SealKeys &keys = cachedKeys(key);
    uint8_t *text = wire + sealedHeaderBytes;
    size_t text_len = wire_len - sealedHeaderBytes;
    AesBlock nonce{};
    Digest mac{};
    std::memcpy(nonce.data(), wire, nonce.size());
    std::memcpy(mac.data(), wire + nonce.size(), mac.size());
    if (!digestEqual(computeMac(keys.mac, aad, nonce, text, text_len), mac))
        return false;
    keys.aes.ctrCrypt(text, text_len, nonce);
    return true;
}

} // namespace vg::crypto
