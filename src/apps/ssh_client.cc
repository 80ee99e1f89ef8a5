/**
 * @file
 * ssh: the client. In ghosting mode (S 6) every sensitive allocation —
 * the decrypted authentication key, the session key, and the received
 * plaintext — lives in ghost memory via the ghost heap; only protocol
 * ciphertext passes through traditional memory.
 */

#include <algorithm>
#include <charconv>
#include <cstring>

#include "apps/ssh_common.hh"

namespace vg::apps
{

SshResult
sshFetch(kern::UserApi &api, const std::string &path, bool ghosting,
         bool keep_data, uint16_t port)
{
    SshResult result;
    ghost::GhostRuntime runtime(api);
    if (!runtime.appKey())
        return result;

    // Load and decrypt the authentication key. Ghosting mode parks
    // the plaintext in ghost memory and re-reads it from there, so
    // the OS never holds it; the extra copies are the ghosting cost.
    std::vector<uint8_t> auth_raw;
    if (!runtime.readSecureFile(authKeyPath, auth_raw))
        return result;
    if (ghosting) {
        hw::Vaddr key_ghost = runtime.stashSecret(auth_raw);
        if (key_ghost == 0)
            return result;
        auth_raw = runtime.fetchSecret(key_ghost, auth_raw.size());
    }
    bool ok = false;
    crypto::RsaPrivateKey auth =
        crypto::RsaPrivateKey::deserialize(auth_raw, ok);
    if (!ok)
        return result;

    std::vector<uint8_t> seed(32);
    api.secureRandom(seed.data(), seed.size());
    crypto::CtrDrbg rng(seed);

    int fd = api.connect(port);
    if (fd < 0)
        return result;

    // Handshake.
    if (!sendStr(api, fd, "VGSSH-1"))
        return result;
    std::vector<uint8_t> challenge;
    if (!recvMsg(api, fd, challenge))
        return result;
    if (!sendMsg(api, fd, appRsaSign(api, auth, challenge)))
        return result;
    std::string verdict;
    if (!recvStr(api, fd, verdict) || verdict != "OK")
        return result;

    // Session key: generated from the trusted RNG, optionally stored
    // in ghost memory, and wrapped to the server's host public key.
    // The client learns that key from the host key file itself, which
    // also holds the private half; RsaPrivateKey::serialize() writes
    // (n, e) first, so only that public prefix is parsed.
    std::vector<uint8_t> host_raw;
    if (!runtime.readFile(hostKeyPath, host_raw))
        return result;
    crypto::RsaPublicKey host_pub =
        crypto::RsaPublicKey::deserialize(host_raw, ok);
    if (!ok)
        return result;

    crypto::AesKey session{};
    api.secureRandom(session.data(), session.size());
    if (ghosting) {
        hw::Vaddr kva = runtime.stashSecret(
            std::vector<uint8_t>(session.begin(), session.end()));
        auto back = runtime.fetchSecret(kva, session.size());
        std::memcpy(session.data(), back.data(), session.size());
    }
    std::vector<uint8_t> key_bytes(session.begin(), session.end());
    if (!sendMsg(api, fd,
                 appRsaEncrypt(api, host_pub, rng, key_bytes)))
        return result;

    // Fetch the file.
    if (!sendStr(api, fd, "GET " + path))
        return result;
    // The SIZE line crossed the OS: anything but one whole decimal
    // number that fits 64 bits fails the session.
    std::string size_line;
    if (!recvStr(api, fd, size_line) ||
        size_line.rfind("SIZE ", 0) != 0)
        return result;
    uint64_t total = 0;
    const char *digits = size_line.data() + 5;
    const char *end = size_line.data() + size_line.size();
    auto [parsed, ec] = std::from_chars(digits, end, total);
    if (ec != std::errc() || parsed != end)
        return result;
    // One reservation for the whole file. A forged SIZE value only
    // caps what is reserved up front.
    constexpr uint64_t maxReserve = 64u << 20;
    if (keep_data)
        result.data.reserve(std::min(total, maxReserve));

    uint64_t received = 0;
    hw::Vaddr ghost_buf = 0;
    uint64_t ghost_buf_len = 0;
    // Every sealed chunk is received into this one frame and opened
    // where it lies; its plaintext follows the nonce and MAC.
    std::vector<uint8_t> frame;
    while (received < total) {
        if (!recvMsg(api, fd, frame) ||
            !appOpenInPlace(api, session, frame.data(), frame.size()))
            break;
        const uint8_t *plain = frame.data() + crypto::sealedHeaderBytes;
        size_t n = frame.size() - crypto::sealedHeaderBytes;
        if (ghosting) {
            // Plaintext goes straight into ghost memory.
            if (n > ghost_buf_len) {
                if (ghost_buf)
                    runtime.heap().gfree(ghost_buf);
                ghost_buf = runtime.heap().gmalloc(n);
                ghost_buf_len = n;
            }
            if (ghost_buf == 0 || !runtime.heap().write(ghost_buf, plain, n))
                break;
        }
        if (keep_data)
            result.data.insert(result.data.end(), plain, plain + n);
        received += n;
    }
    sendStr(api, fd, "BYE");
    api.close(fd);

    result.bytes = received;
    result.ok = received == total;
    return result;
}

} // namespace vg::apps
