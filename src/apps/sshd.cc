/**
 * @file
 * sshd: the (non-ghosting) vgssh file server used for the S 8.3
 * bandwidth experiments and by the ghosting ssh client.
 *
 * Per connection:
 *   1. receive "VGSSH-1" banner,
 *   2. send a random 16-byte challenge,
 *   3. receive the client's RSA signature over the challenge and check
 *      it against /etc/authorized,
 *   4. receive the AES session key, encrypted to our host key,
 *   5. serve "GET <path>" requests: size, then sealed 32 KB chunks.
 */

#include <algorithm>
#include <cstring>

#include "apps/ssh_common.hh"

namespace vg::apps
{

namespace
{

/** Load (or create at first boot) the server host key. */
bool
loadHostKey(kern::UserApi &api, ghost::GhostRuntime &runtime,
            crypto::RsaPrivateKey &out)
{
    std::vector<uint8_t> raw;
    if (runtime.readFile(hostKeyPath, raw)) {
        bool ok = false;
        out = crypto::RsaPrivateKey::deserialize(raw, ok);
        if (ok)
            return true;
    }
    std::vector<uint8_t> seed(32);
    api.secureRandom(seed.data(), seed.size());
    crypto::CtrDrbg rng(seed);
    api.kernel().ctx().clock().advance(
        20 * api.kernel().ctx().costs().rsaPrivOp);
    out = crypto::rsaGenerate(rng, 384);
    api.mkdir("/etc");
    return runtime.writeFile(hostKeyPath, out.serialize());
}

/** One client session; false only on protocol violations. */
bool
serveConnection(kern::UserApi &api, ghost::GhostRuntime & /*runtime*/,
                const crypto::RsaPrivateKey &host_key,
                const crypto::RsaPublicKey &authorized, int conn,
                crypto::CtrDrbg &rng)
{
    std::string banner;
    if (!recvStr(api, conn, banner) || banner != "VGSSH-1")
        return false;

    std::vector<uint8_t> challenge(16);
    // The OS-provided randomness: under VG this routes to the VM.
    api.osRandom(challenge.data(), challenge.size());
    if (!sendMsg(api, conn, challenge))
        return false;

    std::vector<uint8_t> signature;
    if (!recvMsg(api, conn, signature))
        return false;
    if (!appRsaVerify(api, authorized, challenge, signature)) {
        sendStr(api, conn, "DENIED");
        return false;
    }
    if (!sendStr(api, conn, "OK"))
        return false;

    std::vector<uint8_t> wrapped_key;
    if (!recvMsg(api, conn, wrapped_key))
        return false;
    bool ok = false;
    std::vector<uint8_t> key_bytes =
        appRsaDecrypt(api, host_key, wrapped_key, ok);
    if (!ok || key_bytes.size() != 16)
        return false;
    crypto::AesKey session{};
    std::memcpy(session.data(), key_bytes.data(), session.size());

    // Request loop.
    while (true) {
        std::string request;
        if (!recvStr(api, conn, request) || request == "BYE")
            break;
        if (request.rfind("GET ", 0) != 0) {
            sendStr(api, conn, "ERR");
            continue;
        }
        std::string path = request.substr(4);
        kern::FileStat st;
        if (api.stat(path, st) != 0) {
            sendStr(api, conn, "NOENT");
            continue;
        }
        sendStr(api, conn, "SIZE " + std::to_string(st.size));

        int fd = api.open(path);
        if (fd < 0) {
            sendStr(api, conn, "ERR");
            continue;
        }
        constexpr uint64_t chunk = 32 * 1024;
        // One frame, length header || nonce || mac || text, serves
        // every chunk: read straight from the buffer cache to the text
        // offset (no mmap staging area to demand-fault), seal there,
        // and send header and sealed bytes in one call.
        constexpr size_t text_off = msgHeaderBytes + crypto::sealedHeaderBytes;
        std::vector<uint8_t> frame(text_off + chunk);
        uint64_t remaining = st.size;
        while (remaining > 0) {
            uint64_t n = std::min(remaining, chunk);
            if (api.readHost(fd, frame.data() + text_off, n) != int64_t(n))
                break;
            appSealInPlace(api, session, rng, frame.data() + msgHeaderBytes,
                           n);
            if (!sendFramed(api, conn, frame.data(),
                            uint32_t(crypto::sealedHeaderBytes + n)))
                break;
            remaining -= n;
        }
        api.close(fd);
    }
    return true;
}

} // namespace

int
sshd(kern::UserApi &api, const SshdConfig &config)
{
    ghost::GhostRuntime runtime(api);

    crypto::RsaPrivateKey host_key;
    if (!loadHostKey(api, runtime, host_key))
        return 1;

    std::vector<uint8_t> pub_raw;
    if (!runtime.readFile(authorizedPath, pub_raw))
        return 2;
    bool ok = false;
    crypto::RsaPublicKey authorized =
        crypto::RsaPublicKey::deserialize(pub_raw, ok);
    if (!ok)
        return 3;

    std::vector<uint8_t> seed(32);
    api.secureRandom(seed.data(), seed.size());
    crypto::CtrDrbg rng(seed);

    int ls = api.socket();
    if (api.bind(ls, config.port) != 0 || api.listen(ls) != 0)
        return 4;

    // Pre-forked worker pool, one per expected connection and at most
    // four: each worker pays the session infrastructure setup
    // (privilege separation, pty plumbing, environment) ONCE, then
    // sleeps in accept() until the accept queue's softirq wakes it.
    // Per accepted connection only the per-session state (login
    // record, channel open) is charged.
    unsigned nworkers = config.maxConnections
                            ? std::min(unsigned(config.maxConnections), 4u)
                            : 4u;
    // Split the connection quota across the pool (0 = forever).
    std::vector<uint64_t> workers;
    for (unsigned w = 0; w < nworkers; w++) {
        int quota = 0;
        if (config.maxConnections) {
            quota = config.maxConnections / int(nworkers) +
                    (w < unsigned(config.maxConnections) % nworkers);
            if (quota == 0)
                continue;
        }
        workers.push_back(api.fork([&, quota](kern::UserApi &capi) {
            capi.kernel().ctx().chargeKernelWork(140000, 60000, 13000);
            int served = 0;
            while (quota == 0 || served < quota) {
                int conn = capi.accept(ls);
                if (conn < 0)
                    break;
                capi.kernel().ctx().chargeKernelWork(14000, 6000, 1300);
                serveConnection(capi, runtime, host_key, authorized,
                                conn, rng);
                capi.close(conn);
                served++;
            }
            return 0;
        }));
    }
    int status = 0;
    for (uint64_t w : workers)
        api.waitpid(w, status);
    api.close(ls);
    return 0;
}

} // namespace vg::apps
