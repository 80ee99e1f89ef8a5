#include "apps/ssh_common.hh"

#include <cstring>

namespace vg::apps
{

bool
sendMsg(kern::UserApi &api, int fd, const std::vector<uint8_t> &payload)
{
    // One writev-style send for header + payload: one gate crossing
    // and one wire frame per message instead of two.
    std::vector<uint8_t> frame(4 + payload.size());
    uint32_t len = uint32_t(payload.size());
    std::memcpy(frame.data(), &len, 4);
    if (!payload.empty())
        std::memcpy(frame.data() + 4, payload.data(), payload.size());
    return api.sendHost(fd, frame.data(), frame.size()) ==
           int64_t(frame.size());
}

namespace
{

bool
recvExact(kern::UserApi &api, int fd, uint8_t *out, uint64_t len)
{
    uint64_t got = 0;
    while (got < len) {
        int64_t n = api.recvHost(fd, out + got, len - got);
        if (n <= 0)
            return false;
        got += uint64_t(n);
    }
    return true;
}

} // namespace

bool
recvMsg(kern::UserApi &api, int fd, std::vector<uint8_t> &out)
{
    uint8_t hdr[4];
    if (!recvExact(api, fd, hdr, 4))
        return false;
    uint32_t len = 0;
    std::memcpy(&len, hdr, 4);
    if (len > (64u << 20))
        return false; // absurd frame
    out.resize(len);
    if (len == 0)
        return true;
    return recvExact(api, fd, out.data(), len);
}

bool
sendStr(kern::UserApi &api, int fd, const std::string &s)
{
    return sendMsg(api, fd, std::vector<uint8_t>(s.begin(), s.end()));
}

bool
recvStr(kern::UserApi &api, int fd, std::string &out)
{
    std::vector<uint8_t> payload;
    if (!recvMsg(api, fd, payload))
        return false;
    out.assign(payload.begin(), payload.end());
    return true;
}

crypto::SealedBlob
appSeal(kern::UserApi &api, const crypto::AesKey &key,
        crypto::CtrDrbg &rng, const std::vector<uint8_t> &plain)
{
    api.kernel().ctx().chargeAes(plain.size());
    api.kernel().ctx().chargeSha(plain.size());
    return crypto::seal(key, rng, plain);
}

std::vector<uint8_t>
appUnseal(kern::UserApi &api, const crypto::AesKey &key,
          const crypto::SealedBlob &blob, bool &ok)
{
    api.kernel().ctx().chargeAes(blob.ciphertext.size());
    api.kernel().ctx().chargeSha(blob.ciphertext.size());
    return crypto::unseal(key, blob, ok);
}

std::vector<uint8_t>
appRsaSign(kern::UserApi &api, const crypto::RsaPrivateKey &key,
           const std::vector<uint8_t> &message)
{
    api.kernel().ctx().clock().advance(
        api.kernel().ctx().costs().rsaPrivOp);
    return crypto::rsaSign(key, message);
}

bool
appRsaVerify(kern::UserApi &api, const crypto::RsaPublicKey &key,
             const std::vector<uint8_t> &message,
             const std::vector<uint8_t> &signature)
{
    api.kernel().ctx().clock().advance(
        api.kernel().ctx().costs().rsaPubOp);
    return crypto::rsaVerify(key, message, signature);
}

std::vector<uint8_t>
appRsaEncrypt(kern::UserApi &api, const crypto::RsaPublicKey &key,
              crypto::CtrDrbg &rng, const std::vector<uint8_t> &message)
{
    api.kernel().ctx().clock().advance(
        api.kernel().ctx().costs().rsaPubOp);
    return crypto::rsaEncrypt(key, rng, message);
}

std::vector<uint8_t>
appRsaDecrypt(kern::UserApi &api, const crypto::RsaPrivateKey &key,
              const std::vector<uint8_t> &cipher, bool &ok)
{
    api.kernel().ctx().clock().advance(
        api.kernel().ctx().costs().rsaPrivOp);
    return crypto::rsaDecrypt(key, cipher, ok);
}

} // namespace vg::apps
