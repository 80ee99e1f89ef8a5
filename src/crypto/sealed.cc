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

/** Streaming MAC over aad || nonce || ciphertext. */
Digest
computeMac(const HmacSha256 &mac, const SealedBlob &blob,
           const std::vector<uint8_t> &aad)
{
    Sha256 inner = mac.begin();
    inner.update(aad.data(), aad.size());
    inner.update(blob.nonce.data(), blob.nonce.size());
    inner.update(blob.ciphertext.data(), blob.ciphertext.size());
    return mac.finish(inner);
}

} // namespace

std::vector<uint8_t>
SealedBlob::serialize() const
{
    std::vector<uint8_t> out;
    out.reserve(nonce.size() + mac.size() + ciphertext.size());
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
    if (bytes.size() < blob.nonce.size() + blob.mac.size())
        return blob;
    size_t off = 0;
    std::memcpy(blob.nonce.data(), bytes.data(), blob.nonce.size());
    off += blob.nonce.size();
    std::memcpy(blob.mac.data(), bytes.data() + off, blob.mac.size());
    off += blob.mac.size();
    blob.ciphertext.assign(bytes.begin() + off, bytes.end());
    ok = true;
    return blob;
}

SealedBlob
seal(const AesKey &key, CtrDrbg &rng, const std::vector<uint8_t> &plain,
     const std::vector<uint8_t> &aad)
{
    const SealKeys &keys = cachedKeys(key);
    SealedBlob blob;
    rng.generate(blob.nonce.data(), blob.nonce.size());
    blob.ciphertext = keys.aes.ctrCrypt(plain, blob.nonce);
    blob.mac = computeMac(keys.mac, blob, aad);
    return blob;
}

std::vector<SealedBlob>
sealBatch(const AesKey &key, CtrDrbg &rng,
          const std::vector<SealInput> &batch)
{
    const SealKeys &keys = cachedKeys(key);
    std::vector<SealedBlob> out;
    out.reserve(batch.size());
    for (const SealInput &in : batch) {
        SealedBlob blob;
        rng.generate(blob.nonce.data(), blob.nonce.size());
        blob.ciphertext = keys.aes.ctrCrypt(in.plain, blob.nonce);
        blob.mac = computeMac(keys.mac, blob, in.aad);
        out.push_back(std::move(blob));
    }
    return out;
}

std::vector<uint8_t>
unseal(const AesKey &key, const SealedBlob &blob, bool &ok,
       const std::vector<uint8_t> &aad)
{
    const SealKeys &keys = cachedKeys(key);
    ok = digestEqual(computeMac(keys.mac, blob, aad), blob.mac);
    if (!ok)
        return {};
    return keys.aes.ctrCrypt(blob.ciphertext, blob.nonce);
}

} // namespace vg::crypto
