#include "hw/tpm.hh"

#include <cstring>

#include "crypto/sha256.hh"

namespace vg::hw
{

Tpm::Tpm(const std::vector<uint8_t> &seed) : _rng(seed)
{
    // Derive the storage key from the seed, domain-separated from the
    // entropy stream.
    crypto::Sha256 h;
    h.update("tpm-storage-key", 15);
    h.update(seed.data(), seed.size());
    crypto::Digest d = h.final();
    std::memcpy(_storageKey.data(), d.data(), _storageKey.size());
}

std::vector<uint8_t>
Tpm::seal(const std::vector<uint8_t> &data)
{
    return crypto::seal(_storageKey, _rng, data);
}

std::vector<uint8_t>
Tpm::unseal(const std::vector<uint8_t> &wire, bool &ok)
{
    return crypto::unseal(_storageKey, wire, ok);
}

std::vector<uint8_t>
Tpm::entropy(size_t len)
{
    return _rng.generate(len);
}

uint64_t
Tpm::monotonicIncrement(uint32_t idx)
{
    return ++_counters[idx];
}

uint64_t
Tpm::monotonicRead(uint32_t idx) const
{
    auto it = _counters.find(idx);
    return it == _counters.end() ? 0 : it->second;
}

} // namespace vg::hw
