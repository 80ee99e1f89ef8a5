/**
 * @file
 * SHA-256 (FIPS 180-4), implemented from scratch.
 *
 * Used for HMAC integrity tags on swapped ghost pages and translation
 * signatures, and for application file checksums (S 3.3).
 *
 * Two compression kernels exist, and cpuid picks one per process: the
 * SHA-NI one (sha256rnds2/msg1/msg2) when leaf 7 EBX reports SHA and
 * leaf 1 ECX reports SSSE3 and SSE4.1, and otherwise a portable loop
 * unrolled eight rounds at a time. update() hands every run of whole
 * blocks to the kernel in one call, and final() pads in one stack
 * buffer. updateLanes() feeds several hashers at once; on SHA-NI hosts
 * it interleaves up to four lanes' blocks in one kernel. The textbook
 * rotating round loop and byte-at-a-time padding live in the test
 * oracle (tests/crypto_ref.hh), which both kernels must match.
 */

#ifndef VG_CRYPTO_SHA256_HH
#define VG_CRYPTO_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vg::crypto
{

/** A 32-byte SHA-256 digest. */
using Digest = std::array<uint8_t, 32>;

namespace detail
{

/** A compression kernel: absorb @p n whole 64-byte blocks at @p p. */
using Sha256Blocks = void (*)(uint32_t state[8], const uint8_t *p,
                              size_t n);

/** The portable kernel, which runs on every host. */
void portableSha256(uint32_t state[8], const uint8_t *p, size_t n);

/** The SHA-NI kernel, or null when cpuid lacks SHA, SSSE3 or SSE4.1. */
Sha256Blocks hardwareSha256();

} // namespace detail

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    /** A hasher on the kernel this host's cpuid selects. */
    Sha256();

    /** A hasher on @p blocks (tests compare the kernels). */
    explicit Sha256(detail::Sha256Blocks blocks) : _blocks(blocks)
    {
        reset();
    }

    /** Reset to the initial state. */
    void reset();

    /** Absorb @p len bytes at @p data. */
    void update(const void *data, size_t len);

    /**
     * Absorb @p len bytes at data[i] into *lanes[i] for every lane: the
     * same as calling lanes[i]->update(data[i], len) for each i. When
     * there are several lanes, all on the SHA-NI kernel, all holding
     * the same number of buffered bytes and each completing at least
     * one block, their blocks run through an interleaved kernel four
     * lanes at a time (then the last one to three together), which
     * fills the SHA unit where one stream cannot. Anything else takes
     * the per-lane loop.
     */
    static void updateLanes(std::span<Sha256 *const> lanes,
                            std::span<const uint8_t *const> data,
                            size_t len);

    /** Finalize and return the digest; the hasher is then reset. */
    Digest final();

    /** One-shot convenience hash. */
    static Digest hash(const void *data, size_t len);

  private:
    void
    processBlocks(const uint8_t *p, size_t n)
    {
        _blocks(_state.data(), p, n);
    }

    detail::Sha256Blocks _blocks;
    std::array<uint32_t, 8> _state;
    std::array<uint8_t, 64> _buffer;
    uint64_t _totalLen;
    size_t _bufferLen;
};

/** Render a digest as lowercase hex. */
std::string toHex(const Digest &digest);

} // namespace vg::crypto

#endif // VG_CRYPTO_SHA256_HH
