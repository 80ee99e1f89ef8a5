/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * Used for HMAC integrity tags on swapped ghost pages and translation
 * signatures, and for application file checksums (S 3.3).
 *
 * The finalize pads in one stack buffer and the compression loop is
 * unrolled eight rounds at a time. The textbook rotating round loop
 * and byte-at-a-time padding live in the test oracle
 * (tests/crypto_ref.hh), which this implementation must match.
 */

#ifndef VG_CRYPTO_SHA256_HH
#define VG_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vg::crypto
{

/** A 32-byte SHA-256 digest. */
using Digest = std::array<uint8_t, 32>;

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    Sha256() { reset(); }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p len bytes at @p data. */
    void update(const void *data, size_t len);

    /** Finalize and return the digest; the hasher is then reset. */
    Digest final();

    /** One-shot convenience hash. */
    static Digest hash(const void *data, size_t len);

    /** One-shot hash of a byte vector. */
    static Digest
    hash(const std::vector<uint8_t> &data)
    {
        return hash(data.data(), data.size());
    }

  private:
    void processBlock(const uint8_t *block);

    std::array<uint32_t, 8> _state;
    std::array<uint8_t, 64> _buffer;
    uint64_t _totalLen;
    size_t _bufferLen;
};

/** Render a digest as lowercase hex. */
std::string toHex(const Digest &digest);

} // namespace vg::crypto

#endif // VG_CRYPTO_SHA256_HH
