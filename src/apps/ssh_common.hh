/**
 * @file
 * Shared pieces of the miniature OpenSSH suite (S 6).
 *
 * Wire protocol ("vgssh"): length-prefixed messages over the TCP-lite
 * sockets. Authentication: the client proves possession of an RSA
 * authentication key (generated by ssh-keygen, stored app-key-
 * encrypted on disk) by signing a server challenge; the server checks
 * it against the installed public key. Transport privacy: the client
 * picks a random AES session key, encrypts it to the server's host
 * key, and all payloads travel sealed (AES-CTR + HMAC).
 *
 * All application-side crypto charges simulated CPU cycles, so the
 * benchmarks see realistic compute/wire overlap.
 */

#ifndef VG_APPS_SSH_COMMON_HH
#define VG_APPS_SSH_COMMON_HH

#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hh"
#include "crypto/sealed.hh"
#include "ghost/runtime.hh"
#include "kernel/kernel.hh"

namespace vg::apps
{

/** Well-known ports. */
constexpr uint16_t sshdPort = 22;
constexpr uint16_t agentPort = 2222;
constexpr uint16_t httpPort = 80;

/** Paths used by the suite. */
constexpr const char *authKeyPath = "/home/id_auth";
constexpr const char *authPubPath = "/home/id_auth.pub";
constexpr const char *hostKeyPath = "/etc/ssh_host_key";
constexpr const char *authorizedPath = "/etc/authorized";

// --- framing ----------------------------------------------------------

/** Bytes of the length header in front of every message. */
constexpr size_t msgHeaderBytes = 4;

/** Send one length-prefixed message. */
bool sendMsg(kern::UserApi &api, int fd,
             const std::vector<uint8_t> &payload);

/** Send the @p len-byte payload that already sits at
 *  frame + msgHeaderBytes: write the length header into the first
 *  msgHeaderBytes of @p frame and send header and payload in one call. */
bool sendFramed(kern::UserApi &api, int fd, uint8_t *frame, uint32_t len);

/** Receive one message (false on EOF/error). */
bool recvMsg(kern::UserApi &api, int fd, std::vector<uint8_t> &out);

/** String helpers. */
bool sendStr(kern::UserApi &api, int fd, const std::string &s);
bool recvStr(kern::UserApi &api, int fd, std::string &out);

// --- cycle-charged crypto ----------------------------------------------

/** crypto::sealInPlace with CPU-cost accounting for @p text_len
 *  bytes. */
void appSealInPlace(kern::UserApi &api, const crypto::AesKey &key,
                    crypto::CtrDrbg &rng, uint8_t *wire, size_t text_len);

/** crypto::openInPlace with CPU-cost accounting for the text. A frame
 *  too short to hold a nonce and MAC is refused before any charge. */
bool appOpenInPlace(kern::UserApi &api, const crypto::AesKey &key,
                    uint8_t *wire, size_t wire_len);

/** RSA sign/verify/encrypt with cost accounting. */
std::vector<uint8_t> appRsaSign(kern::UserApi &api,
                                const crypto::RsaPrivateKey &key,
                                const std::vector<uint8_t> &message);
bool appRsaVerify(kern::UserApi &api, const crypto::RsaPublicKey &key,
                  const std::vector<uint8_t> &message,
                  const std::vector<uint8_t> &signature);
std::vector<uint8_t> appRsaEncrypt(kern::UserApi &api,
                                   const crypto::RsaPublicKey &key,
                                   crypto::CtrDrbg &rng,
                                   const std::vector<uint8_t> &message);
std::vector<uint8_t> appRsaDecrypt(kern::UserApi &api,
                                   const crypto::RsaPrivateKey &key,
                                   const std::vector<uint8_t> &cipher,
                                   bool &ok);

// --- applications -------------------------------------------------------

/** ssh-keygen: create an auth key pair; the private half is encrypted
 *  with the shared application key before it touches the filesystem.
 *  Also installs the public key as /etc/authorized. */
int sshKeygen(kern::UserApi &api, size_t bits = 384);

/** sshd configuration. */
struct SshdConfig
{
    /** Serve this many connections, then exit (0 = forever). */
    int maxConnections = 1;
    uint16_t port = sshdPort;
};

/** sshd: non-ghosting file server speaking vgssh. */
int sshd(kern::UserApi &api, const SshdConfig &config);

/** ssh client result. */
struct SshResult
{
    bool ok = false;
    uint64_t bytes = 0;
    std::vector<uint8_t> data; ///< retained only when keep_data
};

/** ssh: fetch @p path from sshd ("ssh server cat path").
 *  @param ghosting  place the session heap (keys + plaintext) in
 *                   ghost memory via the ghost runtime. */
SshResult sshFetch(kern::UserApi &api, const std::string &path,
                   bool ghosting, bool keep_data = false,
                   uint16_t port = sshdPort);

/** ssh-agent configuration. */
struct AgentConfig
{
    /** The in-memory secret the S 7 attacks try to steal. */
    std::string secret = "GHOST-SECRET-KEY";
    bool useGhostMemory = true;
    /** Serve this many requests, then exit. */
    int maxRequests = 4;
    /** Spin this many iterations of idle syscalls before serving
     *  (gives an attacker a window; used by the attack tests). */
    int idleSpins = 0;
};

/** ssh-agent: holds authentication keys and the secret in (ghost)
 *  memory, signs challenges over the agent socket. Returns 0 when it
 *  exits normally — which it must even under attack. */
int sshAgent(kern::UserApi &api, const AgentConfig &config);

/** Where the agent stashed its secret (set during sshAgent startup;
 *  read by the attack harness, standing in for the attacker's memory
 *  scan). */
uint64_t agentSecretAddress();

} // namespace vg::apps

#endif // VG_APPS_SSH_COMMON_HH
