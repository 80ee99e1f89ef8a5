#include "apps/ssh_common.hh"

#include <cstring>

namespace vg::apps
{

bool
sendMsg(kern::UserApi &api, int fd, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> frame(msgHeaderBytes + payload.size());
    if (!payload.empty())
        std::memcpy(frame.data() + msgHeaderBytes, payload.data(),
                    payload.size());
    return sendFramed(api, fd, frame.data(), uint32_t(payload.size()));
}

bool
sendFramed(kern::UserApi &api, int fd, uint8_t *frame, uint32_t len)
{
    // One writev-style send for header + payload: one gate crossing
    // and one wire frame per message instead of two.
    std::memcpy(frame, &len, msgHeaderBytes);
    uint64_t total = msgHeaderBytes + uint64_t(len);
    return api.sendHost(fd, frame, total) == int64_t(total);
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
    uint8_t hdr[msgHeaderBytes];
    if (!recvExact(api, fd, hdr, msgHeaderBytes))
        return false;
    uint32_t len = 0;
    std::memcpy(&len, hdr, msgHeaderBytes);
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

void
appSealInPlace(kern::UserApi &api, const crypto::AesKey &key,
               crypto::CtrDrbg &rng, uint8_t *wire, size_t text_len)
{
    api.kernel().ctx().chargeAes(text_len);
    api.kernel().ctx().chargeSha(text_len);
    crypto::sealInPlace(key, rng, wire, text_len);
}

bool
appOpenInPlace(kern::UserApi &api, const crypto::AesKey &key,
               uint8_t *wire, size_t wire_len)
{
    if (wire_len < crypto::sealedHeaderBytes)
        return false;
    size_t text_len = wire_len - crypto::sealedHeaderBytes;
    api.kernel().ctx().chargeAes(text_len);
    api.kernel().ctx().chargeSha(text_len);
    return crypto::openInPlace(key, wire, wire_len);
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
