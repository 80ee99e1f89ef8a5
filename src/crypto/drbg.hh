/**
 * @file
 * Deterministic random bit generator (simplified CTR-DRBG over AES-128).
 *
 * Backs the Virtual Ghost VM's trusted random-number instruction
 * (S 4.7), which defeats Iago attacks that feed applications non-random
 * bytes through /dev/random. Also used for nonce/IV generation in the
 * key manager. Seeding is explicit so tests are reproducible.
 */

#ifndef VG_CRYPTO_DRBG_HH
#define VG_CRYPTO_DRBG_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes.hh"

namespace vg::crypto
{

/** Counter-mode DRBG seeded once from explicit material. */
class CtrDrbg
{
  public:
    /** Construct from arbitrary seed material (hashed down). */
    explicit CtrDrbg(const std::vector<uint8_t> &seed_material);

    /** Fill @p len bytes at @p out with pseudo-random data. */
    void generate(void *out, size_t len);

    /** Convenience: return @p len random bytes. */
    std::vector<uint8_t> generate(size_t len);

    /** Return a uniformly distributed 64-bit value. */
    uint64_t next64();

    /** Return a value in [0, bound) (bound must be nonzero). */
    uint64_t nextBounded(uint64_t bound);

  private:
    void step(uint8_t out[16]);

    AesBlock _counter;
    /** Expanded schedule of the seed-derived key. */
    Aes128 _aes;
};

} // namespace vg::crypto

#endif // VG_CRYPTO_DRBG_HH
