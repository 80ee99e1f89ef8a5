#include "crypto/drbg.hh"

#include <cstring>

#include "crypto/sha256.hh"
#include "sim/log.hh"

namespace vg::crypto
{

CtrDrbg::CtrDrbg(const std::vector<uint8_t> &seed_material)
    : _aes(AesKey{})
{
    Digest d = Sha256::hash(seed_material.data(), seed_material.size());
    AesKey key;
    std::memcpy(key.data(), d.data(), 16);
    std::memcpy(_counter.data(), d.data() + 16, 16);
    _aes = Aes128(key);
}

void
CtrDrbg::step(uint8_t out[16])
{
    for (int i = 15; i >= 0; i--) {
        if (++_counter[i] != 0)
            break;
    }
    std::memcpy(out, _counter.data(), 16);
    _aes.encryptBlock(out);
}

void
CtrDrbg::generate(void *out, size_t len)
{
    uint8_t *p = static_cast<uint8_t *>(out);
    uint8_t block[16];
    while (len > 0) {
        step(block);
        size_t n = std::min<size_t>(16, len);
        std::memcpy(p, block, n);
        p += n;
        len -= n;
    }
}

std::vector<uint8_t>
CtrDrbg::generate(size_t len)
{
    std::vector<uint8_t> out(len);
    generate(out.data(), out.size());
    return out;
}

uint64_t
CtrDrbg::next64()
{
    uint64_t v;
    generate(&v, sizeof(v));
    return v;
}

uint64_t
CtrDrbg::nextBounded(uint64_t bound)
{
    if (bound == 0)
        sim::panic("CtrDrbg::nextBounded: zero bound");
    // Rejection sampling to avoid modulo bias.
    uint64_t limit = ~uint64_t(0) - (~uint64_t(0) % bound);
    uint64_t v;
    do {
        v = next64();
    } while (v >= limit);
    return v % bound;
}

} // namespace vg::crypto
