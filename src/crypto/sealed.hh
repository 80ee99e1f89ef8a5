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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace vg::crypto
{

class CtrDrbg;

/** Bytes of the wire layout ahead of the text: the nonce, then the
 *  MAC. */
constexpr size_t sealedHeaderBytes = sizeof(AesBlock) + sizeof(Digest);

/** A sealed (encrypted and authenticated) blob. */
struct SealedBlob
{
    AesBlock nonce{};
    std::vector<uint8_t> ciphertext;
    Digest mac{};

    /** Flat wire format: nonce(16) || mac(32) || ciphertext. */
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

/**
 * Seal in place on the wire layout nonce(16) || mac(32) || text: the
 * @p text_len plaintext bytes at wire + sealedHeaderBytes are encrypted
 * where they lie, a fresh nonce is drawn into the first 16 bytes, and
 * the MAC over aad || nonce || text fills the next 32. The result is
 * byte for byte seal(key, rng, text, aad).serialize().
 */
void sealInPlace(const AesKey &key, CtrDrbg &rng, uint8_t *wire,
                 size_t text_len, const std::vector<uint8_t> &aad = {});

/**
 * Open a @p wire_len-byte frame in the wire layout in place. The MAC is
 * checked first; only when it verifies is the text decrypted where it
 * lies, leaving the plaintext at wire + sealedHeaderBytes.
 * @return false, with every byte of the frame unchanged, for a frame
 *         shorter than sealedHeaderBytes or a MAC that fails.
 */
bool openInPlace(const AesKey &key, uint8_t *wire, size_t wire_len,
                 const std::vector<uint8_t> &aad = {});

} // namespace vg::crypto

#endif // VG_CRYPTO_SEALED_HH
