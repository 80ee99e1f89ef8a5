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
 *
 * A sealed message has one representation everywhere, the wire
 * layout nonce(16) || mac(32) || text, held as plain bytes: the OS
 * stores and moves it without seeing any structure. Only this file
 * knows where the nonce and MAC lie; a frame shorter than
 * sealedHeaderBytes never opens.
 */

#ifndef VG_CRYPTO_SEALED_HH
#define VG_CRYPTO_SEALED_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/aes.hh"
#include "crypto/sha256.hh"

namespace vg::crypto
{

class CtrDrbg;

/** Bytes of the wire layout ahead of the text: the nonce, then the
 *  MAC. */
constexpr size_t sealedHeaderBytes = sizeof(AesBlock) + sizeof(Digest);

/**
 * Seal @p plain under @p key with a fresh random nonce and return the
 * wire bytes: a copy of @p plain sealed by sealInPlace().
 *
 * @param aad optional associated data bound into the MAC (e.g. a page's
 *            virtual address for swap, so pages cannot be swapped back
 *            to the wrong location).
 */
std::vector<uint8_t> seal(const AesKey &key, CtrDrbg &rng,
                          const std::vector<uint8_t> &plain,
                          const std::vector<uint8_t> &aad = {});

/**
 * Verify and decrypt the wire bytes @p wire into a fresh plaintext.
 * @param ok false for a frame shorter than sealedHeaderBytes or a MAC
 *           (over aad || nonce || ciphertext) that fails.
 */
std::vector<uint8_t> unseal(const AesKey &key,
                            const std::vector<uint8_t> &wire, bool &ok,
                            const std::vector<uint8_t> &aad = {});

/**
 * Seal in place on the wire layout: the @p text_len plaintext bytes at
 * wire + sealedHeaderBytes are encrypted where they lie, a fresh nonce
 * is drawn into the first 16 bytes, and the MAC over
 * aad || nonce || text fills the next 32. The derived subkeys (AES
 * schedule, HMAC pad states) are cached per master key, and the MAC
 * streams over its three parts without concatenating them. A one-frame
 * call of the N-frame form below.
 */
void sealInPlace(const AesKey &key, CtrDrbg &rng, uint8_t *wire,
                 size_t text_len, const std::vector<uint8_t> &aad = {});

/**
 * Seal wires.size() frames in place, each holding @p text_len
 * plaintext bytes at wires[i] + sealedHeaderBytes, frame i's MAC
 * binding aads[i] (one aad per frame). The result, and the state of
 * @p rng after it, are byte-identical to sealing frame 0, 1, ... in
 * turn with the one-frame form: the nonces are drawn and the texts
 * encrypted in frame order. The MACs then absorb the ciphertexts
 * through Sha256::updateLanes, several frames per SHA-NI kernel call.
 */
void sealInPlace(const AesKey &key, CtrDrbg &rng,
                 std::span<uint8_t *const> wires, size_t text_len,
                 std::span<const std::vector<uint8_t>> aads);

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
