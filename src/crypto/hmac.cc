#include "crypto/hmac.hh"

#include <cstring>

namespace vg::crypto
{

HmacSha256::HmacSha256(const std::vector<uint8_t> &key, const Sha256 &fresh)
    : _inner(fresh), _outer(fresh)
{
    // Normalize the key to one 64-byte block (hash it if longer).
    uint8_t k[64] = {};
    if (key.size() > 64) {
        Sha256 h = fresh;
        h.update(key.data(), key.size());
        Digest kd = h.final();
        std::memcpy(k, kd.data(), kd.size());
    } else if (!key.empty()) {
        std::memcpy(k, key.data(), key.size());
    }

    uint8_t pad[64];
    for (int i = 0; i < 64; i++)
        pad[i] = uint8_t(k[i] ^ 0x36);
    _inner.update(pad, 64);
    for (int i = 0; i < 64; i++)
        pad[i] = uint8_t(k[i] ^ 0x5c);
    _outer.update(pad, 64);
}

Digest
HmacSha256::finish(Sha256 inner) const
{
    Digest inner_digest = inner.final();
    Sha256 outer = _outer;
    outer.update(inner_digest.data(), inner_digest.size());
    return outer.final();
}

Digest
HmacSha256::mac(const void *data, size_t len) const
{
    Sha256 inner = _inner;
    inner.update(data, len);
    return finish(inner);
}

Digest
hmacSha256(const std::vector<uint8_t> &key, const void *data, size_t len)
{
    return HmacSha256(key).mac(data, len);
}

Digest
hmacSha256(const std::vector<uint8_t> &key, const std::vector<uint8_t> &data)
{
    return hmacSha256(key, data.data(), data.size());
}

bool
digestEqual(const Digest &a, const Digest &b)
{
    uint8_t diff = 0;
    for (size_t i = 0; i < a.size(); i++)
        diff |= uint8_t(a[i] ^ b[i]);
    return diff == 0;
}

} // namespace vg::crypto
