/**
 * @file
 * Trusted Platform Module model.
 *
 * Holds a storage key fused at "manufacture". The Virtual Ghost VM
 * seals its RSA private key under the TPM storage key at install time
 * and unseals it at boot (S 4.4); the OS never sees either key. The
 * TPM also provides a hardware entropy source used to seed the trusted
 * DRBG.
 */

#ifndef VG_HW_TPM_HH
#define VG_HW_TPM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/drbg.hh"
#include "crypto/sealed.hh"

namespace vg::hw
{

/** Minimal TPM: a sealed-storage root of trust plus entropy. */
class Tpm
{
  public:
    /** Manufacture a TPM with deterministic seed material (tests) or
     *  arbitrary entropy. */
    explicit Tpm(const std::vector<uint8_t> &seed);

    /** Seal @p data under the storage key; returns the wire bytes. */
    std::vector<uint8_t> seal(const std::vector<uint8_t> &data);

    /** Unseal wire bytes; @p ok false on a short frame or a MAC
     *  failure (tampered blob). */
    std::vector<uint8_t> unseal(const std::vector<uint8_t> &wire, bool &ok);

    /** Draw @p len bytes of entropy. */
    std::vector<uint8_t> entropy(size_t len);

    /** Increment monotonic counter @p idx and return the new value
     *  (TPM counters never go backwards — the root of rollback
     *  protection). */
    uint64_t monotonicIncrement(uint32_t idx);

    /** Read monotonic counter @p idx. */
    uint64_t monotonicRead(uint32_t idx) const;

  private:
    crypto::AesKey _storageKey{};
    crypto::CtrDrbg _rng;
    std::map<uint32_t, uint64_t> _counters;
};

} // namespace vg::hw

#endif // VG_HW_TPM_HH
