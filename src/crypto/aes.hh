/**
 * @file
 * AES-128 implemented from scratch (FIPS 197): the block encryption
 * and CTR mode.
 *
 * This is the symmetric cipher behind application keys (S 3.3), ghost
 * page swapping (S 3.3), and the ssh session transport (S 6). The
 * paper's prototype hard-codes a 128-bit AES application key; we keep
 * the same key size. Every sealed format is CTR with an HMAC, and CTR
 * only ever runs the cipher forwards, so there is no decryption.
 *
 * Two kernel sets run the rounds, and cpuid picks one per process:
 * AES-NI (aesenc, with CTR keeping eight blocks in flight) when leaf 1
 * ECX reports AES, SSSE3 and SSE4.1, and otherwise portable T-tables.
 * Both read the same round-key schedule, stored in FIPS-197 byte order.
 * The textbook byte-oriented SubBytes/ShiftRows/MixColumns rounds live
 * in the test oracle (tests/crypto_ref.hh), which the known-answer and
 * sweep tests hold both kernel sets to bit for bit.
 */

#ifndef VG_CRYPTO_AES_HH
#define VG_CRYPTO_AES_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace vg::crypto
{

/** A 128-bit symmetric key. */
using AesKey = std::array<uint8_t, 16>;

/** A 128-bit block / IV / counter. */
using AesBlock = std::array<uint8_t, 16>;

namespace detail
{

/**
 * Build the AES S-box from the xtime/exponentiation construction: 0x03
 * generates GF(2^8)*, so log/antilog tables give every multiplicative
 * inverse in one pass (no O(256^2) search). Exposed so table
 * generation is testable on its own.
 */
void buildAesSbox(uint8_t sbox[256]);

/**
 * One implementation of the AES-128 rounds. The schedule is 11 round
 * keys of 16 bytes in FIPS-197 byte order. ctr XORs the keystream of
 * @p nonce, whose low 8 bytes are a big-endian counter that wraps
 * without carrying into the high 8.
 */
struct AesKernels
{
    void (*encrypt)(const uint8_t *encKeys, uint8_t block[16]);
    void (*ctr)(const uint8_t *encKeys, uint8_t *data, size_t len,
                const uint8_t nonce[16]);
};

/** The T-table kernels, which run on every host. */
const AesKernels &portableAes();

/** The AES-NI kernels, or null when cpuid lacks AES, SSSE3 or SSE4.1. */
const AesKernels *hardwareAes();

} // namespace detail

/** AES-128 block cipher with expanded round keys. */
class Aes128
{
  public:
    /** Expand @p key for the kernels this host's cpuid selects. */
    explicit Aes128(const AesKey &key);

    /** Expand @p key for @p kernels (tests compare the kernel sets). */
    Aes128(const AesKey &key, const detail::AesKernels &kernels);

    /** Encrypt one 16-byte block in place. */
    void encryptBlock(uint8_t block[16]) const;

    /** CTR-mode keystream XOR in place (encryption == decryption). */
    void ctrCrypt(uint8_t *data, size_t len, const AesBlock &nonce) const;

  private:
    const detail::AesKernels *_kernels;
    /** Encryption round keys. */
    std::array<uint8_t, 176> _encKeys;
};

} // namespace vg::crypto

#endif // VG_CRYPTO_AES_HH
