/**
 * @file
 * HMAC-SHA256 (RFC 2104) message authentication.
 *
 * Used to sign native-code translations, MAC swapped ghost pages, and
 * provide the encrypt-then-MAC construction for secure application file
 * I/O.
 *
 * The HmacSha256 class precomputes the ipad/opad key states once per
 * key so repeated MACs under the same key skip two compression calls
 * and the key-block setup.
 */

#ifndef VG_CRYPTO_HMAC_HH
#define VG_CRYPTO_HMAC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/sha256.hh"

namespace vg::crypto
{

/**
 * Keyed HMAC-SHA256 context with precomputed inner/outer pad states.
 * Cheap to copy; one construction amortizes the key schedule over any
 * number of MACs.
 */
class HmacSha256
{
  public:
    /** Key the MAC; every hash starts as a copy of @p fresh, so its
     *  compression kernel is the one @p fresh was built on. */
    explicit HmacSha256(const std::vector<uint8_t> &key,
                        const Sha256 &fresh = Sha256());

    /** Start a streaming MAC: a hasher mid-way through ipad||message. */
    Sha256 begin() const { return _inner; }

    /** Finish a streaming MAC started with begin(). */
    Digest finish(Sha256 inner) const;

    /** One-shot MAC of @p len bytes at @p data. */
    Digest mac(const void *data, size_t len) const;

    /** One-shot MAC of a byte vector. */
    Digest
    mac(const std::vector<uint8_t> &data) const
    {
        return mac(data.data(), data.size());
    }

  private:
    Sha256 _inner; ///< State after absorbing the ipad block.
    Sha256 _outer; ///< State after absorbing the opad block.
};

/** Compute HMAC-SHA256 of @p len bytes at @p data under @p key. */
Digest hmacSha256(const std::vector<uint8_t> &key, const void *data,
                  size_t len);

/** HMAC over a byte vector. */
Digest hmacSha256(const std::vector<uint8_t> &key,
                  const std::vector<uint8_t> &data);

/** Constant-time digest comparison. */
bool digestEqual(const Digest &a, const Digest &b);

} // namespace vg::crypto

#endif // VG_CRYPTO_HMAC_HH
