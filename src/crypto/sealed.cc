#include "crypto/sealed.hh"

#include <cstring>
#include <map>

#include "crypto/drbg.hh"
#include "crypto/hmac.hh"

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

/**
 * The one encrypt-then-MAC core. Every sealing entry point lands here
 * with its text in caller memory: draw the nonce, encrypt the text in
 * place, then MAC aad || nonce || ciphertext.
 */
void
sealText(const SealKeys &keys, CtrDrbg &rng, uint8_t *text, size_t len,
         const std::vector<uint8_t> &aad, AesBlock &nonce, Digest &mac)
{
    rng.generate(nonce.data(), nonce.size());
    keys.aes.ctrCrypt(text, len, nonce);
    mac = computeMac(keys.mac, aad, nonce, text, len);
}

/** The core's inverse: verify the MAC first and decrypt the text in
 *  place only when it holds; on failure the text is untouched. */
bool
openText(const SealKeys &keys, uint8_t *text, size_t len,
         const std::vector<uint8_t> &aad, const AesBlock &nonce,
         const Digest &mac)
{
    if (!digestEqual(computeMac(keys.mac, aad, nonce, text, len), mac))
        return false;
    keys.aes.ctrCrypt(text, len, nonce);
    return true;
}

} // namespace

std::vector<uint8_t>
SealedBlob::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(sealedHeaderBytes + ciphertext.size());
    out.insert(out.end(), nonce.begin(), nonce.end());
    out.insert(out.end(), mac.begin(), mac.end());
    out.insert(out.end(), ciphertext.begin(), ciphertext.end());
    return out;
}

SealedBlob
SealedBlob::deserialize(const std::vector<uint8_t> &bytes, bool &ok)
{
    SealedBlob blob;
    ok = false;
    if (bytes.size() < sealedHeaderBytes)
        return blob;
    std::memcpy(blob.nonce.data(), bytes.data(), blob.nonce.size());
    std::memcpy(blob.mac.data(), bytes.data() + blob.nonce.size(),
                blob.mac.size());
    blob.ciphertext.assign(bytes.begin() + long(sealedHeaderBytes),
                           bytes.end());
    ok = true;
    return blob;
}

SealedBlob
seal(const AesKey &key, CtrDrbg &rng, const std::vector<uint8_t> &plain,
     const std::vector<uint8_t> &aad)
{
    SealedBlob blob;
    blob.ciphertext = plain;
    sealText(cachedKeys(key), rng, blob.ciphertext.data(),
             blob.ciphertext.size(), aad, blob.nonce, blob.mac);
    return blob;
}

std::vector<SealedBlob>
sealBatch(const AesKey &key, CtrDrbg &rng,
          const std::vector<SealInput> &batch)
{
    const SealKeys &keys = cachedKeys(key);
    std::vector<SealedBlob> out(batch.size());
    for (size_t i = 0; i < batch.size(); i++) {
        SealedBlob &blob = out[i];
        blob.ciphertext = batch[i].plain;
        sealText(keys, rng, blob.ciphertext.data(), blob.ciphertext.size(),
                 batch[i].aad, blob.nonce, blob.mac);
    }
    return out;
}

std::vector<uint8_t>
unseal(const AesKey &key, const SealedBlob &blob, bool &ok,
       const std::vector<uint8_t> &aad)
{
    std::vector<uint8_t> text = blob.ciphertext;
    ok = openText(cachedKeys(key), text.data(), text.size(), aad,
                  blob.nonce, blob.mac);
    if (!ok)
        return {};
    return text;
}

void
sealInPlace(const AesKey &key, CtrDrbg &rng, uint8_t *wire,
            size_t text_len, const std::vector<uint8_t> &aad)
{
    AesBlock nonce{};
    Digest mac{};
    sealText(cachedKeys(key), rng, wire + sealedHeaderBytes, text_len, aad,
             nonce, mac);
    std::memcpy(wire, nonce.data(), nonce.size());
    std::memcpy(wire + nonce.size(), mac.data(), mac.size());
}

bool
openInPlace(const AesKey &key, uint8_t *wire, size_t wire_len,
            const std::vector<uint8_t> &aad)
{
    if (wire_len < sealedHeaderBytes)
        return false;
    AesBlock nonce{};
    Digest mac{};
    std::memcpy(nonce.data(), wire, nonce.size());
    std::memcpy(mac.data(), wire + nonce.size(), mac.size());
    return openText(cachedKeys(key), wire + sealedHeaderBytes,
                    wire_len - sealedHeaderBytes, aad, nonce, mac);
}

} // namespace vg::crypto
