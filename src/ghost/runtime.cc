#include "ghost/runtime.hh"

#include <cstring>

namespace vg::ghost
{

GhostRuntime::GhostRuntime(kern::UserApi &api)
    : _api(api), _heap(api), _rng([&api]() {
          // Seed from the trusted VM generator, never the OS.
          std::vector<uint8_t> seed(32);
          api.secureRandom(seed.data(), seed.size());
          return seed;
      }())
{
    _appKey = _api.getKey();
}

hw::Vaddr
GhostRuntime::bounce(uint64_t len)
{
    if (_bounceLen >= len && _bounceVa != 0)
        return _bounceVa;
    uint64_t rounded = (len + hw::pageSize - 1) & ~(hw::pageSize - 1);
    if (_bounceVa != 0)
        _api.munmap(_bounceVa, _bounceLen);
    _bounceVa = _api.mmap(rounded);
    _bounceLen = rounded;
    return _bounceVa;
}

bool
GhostRuntime::writeFile(const std::string &path,
                        const std::vector<uint8_t> &data)
{
    int fd = _api.open(path, true);
    if (fd < 0)
        return false;
    bool ok = true;
    if (!data.empty()) {
        hw::Vaddr buf = bounce(data.size());
        ok = buf != 0 &&
             _api.copyToUser(buf, data.data(), data.size()) &&
             _api.write(fd, buf, data.size()) ==
                 int64_t(data.size());
    }
    _api.close(fd);
    return ok;
}

bool
GhostRuntime::readFile(const std::string &path,
                       std::vector<uint8_t> &out)
{
    kern::FileStat st;
    if (_api.stat(path, st) != 0)
        return false;
    int fd = _api.open(path);
    if (fd < 0)
        return false;
    out.resize(st.size);
    bool ok = true;
    if (st.size > 0) {
        hw::Vaddr buf = bounce(st.size);
        ok = buf != 0 && _api.read(fd, buf, st.size) ==
                             int64_t(st.size) &&
             _api.copyFromUser(buf, out.data(), st.size);
    }
    _api.close(fd);
    return ok;
}

namespace
{

std::vector<uint8_t>
versionAad(uint64_t version)
{
    std::vector<uint8_t> aad(12);
    std::memcpy(aad.data(), "vgver", 5);
    std::memcpy(aad.data() + 5, &version, sizeof(version) - 1);
    return aad;
}

} // namespace

bool
GhostRuntime::sealToFile(const std::string &path,
                         const std::vector<uint8_t> &plain, bool versioned)
{
    if (!_appKey)
        return false;
    std::vector<uint8_t> aad;
    if (versioned) {
        // A fresh monotonic value from the TPM, via the VM.
        uint64_t version =
            _api.kernel().vm().counterIncrement(_api.pid());
        if (version == 0)
            return false;
        aad = versionAad(version);
    }
    _api.kernel().ctx().chargeAes(plain.size());
    _api.kernel().ctx().chargeSha(plain.size());
    return writeFile(path, crypto::seal(*_appKey, _rng, plain, aad));
}

bool
GhostRuntime::openFromFile(const std::string &path,
                           std::vector<uint8_t> &plain, bool versioned)
{
    if (!_appKey)
        return false;
    std::vector<uint8_t> wire;
    if (!readFile(path, wire) || wire.size() < crypto::sealedHeaderBytes)
        return false;
    // Only the *current* counter value verifies: a replayed older
    // file was sealed with a smaller version and fails the MAC.
    std::vector<uint8_t> aad;
    if (versioned)
        aad = versionAad(_api.kernel().vm().counterRead(_api.pid()));
    size_t text_len = wire.size() - crypto::sealedHeaderBytes;
    _api.kernel().ctx().chargeAes(text_len);
    _api.kernel().ctx().chargeSha(text_len);
    if (!crypto::openInPlace(*_appKey, wire.data(), wire.size(), aad)) {
        plain.clear();
        return false;
    }
    plain.assign(wire.begin() + long(crypto::sealedHeaderBytes),
                 wire.end());
    return true;
}

bool
GhostRuntime::writeSecureFile(const std::string &path,
                              const std::vector<uint8_t> &plain)
{
    return sealToFile(path, plain, false);
}

bool
GhostRuntime::readSecureFile(const std::string &path,
                             std::vector<uint8_t> &plain)
{
    return openFromFile(path, plain, false);
}

bool
GhostRuntime::writeVersionedFile(const std::string &path,
                                 const std::vector<uint8_t> &plain)
{
    return sealToFile(path, plain, true);
}

bool
GhostRuntime::readVersionedFile(const std::string &path,
                                std::vector<uint8_t> &plain)
{
    return openFromFile(path, plain, true);
}

hw::Vaddr
GhostRuntime::stashSecret(const std::vector<uint8_t> &secret)
{
    hw::Vaddr va = _heap.gmalloc(secret.size());
    if (va != 0)
        _heap.write(va, secret.data(), secret.size());
    return va;
}

std::vector<uint8_t>
GhostRuntime::fetchSecret(hw::Vaddr va, uint64_t len)
{
    std::vector<uint8_t> out(len);
    if (!_heap.read(va, out.data(), len))
        out.clear();
    return out;
}

} // namespace vg::ghost
