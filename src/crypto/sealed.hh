/**
 * @file
 * Authenticated encryption ("sealing") built from AES-CTR + HMAC-SHA256
 * in an encrypt-then-MAC construction.
 *
 * Reused in three places that the paper describes separately:
 *  - the TPM seals the Virtual Ghost private key (S 4.4),
 *  - the VG VM encrypts+MACs ghost pages before swap-out (S 3.3),
 *  - applications protect file data written through the hostile OS
 *    (S 3.3, encrypted checksum scheme).
 */

#ifndef VG_CRYPTO_SEALED_HH
#define VG_CRYPTO_SEALED_HH

#include <cstdint>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace vg::crypto
{

class CtrDrbg;

/** A sealed (encrypted and authenticated) blob. */
struct SealedBlob
{
    AesBlock nonce{};
    std::vector<uint8_t> ciphertext;
    Digest mac{};

    /** Flat wire format: nonce || mac || ciphertext. */
    std::vector<uint8_t> serialize() const;
    static SealedBlob deserialize(const std::vector<uint8_t> &bytes,
                                  bool &ok);
};

/**
 * Seal @p plain under @p key with a fresh random nonce.
 *
 * @param aad optional associated data bound into the MAC (e.g. a page's
 *            virtual address for swap, so pages cannot be swapped back
 *            to the wrong location).
 *
 * The derived subkeys (AES schedule, HMAC pad states) are cached per
 * master key, and the MAC streams over aad || nonce || ciphertext
 * without concatenating them.
 */
SealedBlob seal(const AesKey &key, CtrDrbg &rng,
                const std::vector<uint8_t> &plain,
                const std::vector<uint8_t> &aad = {});

/** One element of a sealBatch() call: plaintext plus the associated
 *  data bound into its MAC. */
struct SealInput
{
    std::vector<uint8_t> plain;
    std::vector<uint8_t> aad;
};

/**
 * Seal a batch of plaintexts under one key in a scatter-gather
 * pipeline: the KDF passes, AES key schedule, and HMAC pad states are
 * set up once and reused across the whole batch (the per-call setup
 * that seal() pays every time). Nonces are drawn from @p rng in batch
 * order, so the output is bit-identical to calling seal() on each
 * element in sequence.
 */
std::vector<SealedBlob> sealBatch(const AesKey &key, CtrDrbg &rng,
                                  const std::vector<SealInput> &batch);

/**
 * Verify and decrypt a sealed blob.
 * @param ok false if the MAC (over aad || nonce || ciphertext) fails.
 */
std::vector<uint8_t> unseal(const AesKey &key, const SealedBlob &blob,
                            bool &ok,
                            const std::vector<uint8_t> &aad = {});

} // namespace vg::crypto

#endif // VG_CRYPTO_SEALED_HH
