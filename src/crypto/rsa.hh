/**
 * @file
 * RSA public-key encryption and signatures.
 *
 * Virtual Ghost maintains a public/private key pair per installed
 * system (S 3.3): the private key is sealed by the TPM storage key, the
 * public key signs application binaries and encrypts the per-application
 * key section. We implement key generation (Miller-Rabin), PKCS#1-v1.5
 * style encryption padding, and hash-then-sign signatures.
 */

#ifndef VG_CRYPTO_RSA_HH
#define VG_CRYPTO_RSA_HH

#include <cstdint>
#include <vector>

#include "crypto/bignum.hh"
#include "crypto/sha256.hh"

namespace vg::crypto
{

class CtrDrbg;

/** An RSA public key (n, e). */
struct RsaPublicKey
{
    BigNum n;
    BigNum e;

    /** Modulus size in bytes. */
    size_t modulusBytes() const { return (n.bitLength() + 7) / 8; }

    std::vector<uint8_t> serialize() const;
    static RsaPublicKey deserialize(const std::vector<uint8_t> &bytes,
                                    bool &ok);
};

/**
 * An RSA private key. The private operation runs by the CRT on p and
 * q, with dP = d mod (p-1), dQ = d mod (q-1) and qInv = q^-1 mod p
 * derived by rsaGenerate() and deserialize(); serialize() writes only
 * (n, e, d, p, q).
 */
struct RsaPrivateKey
{
    BigNum n;
    BigNum e;
    BigNum d;
    BigNum p;
    BigNum q;
    BigNum dP;
    BigNum dQ;
    BigNum qInv;

    RsaPublicKey publicKey() const { return {n, e}; }

    std::vector<uint8_t> serialize() const;
    /** @p ok is false on truncation or when p * q != n. */
    static RsaPrivateKey deserialize(const std::vector<uint8_t> &bytes,
                                     bool &ok);
};

/** Generate an RSA key pair with an @p bits-bit modulus. */
RsaPrivateKey rsaGenerate(CtrDrbg &rng, size_t bits);

/**
 * Encrypt a short message (<= modulusBytes - 11) under @p key.
 * Uses PKCS#1 v1.5-style type-2 random padding.
 */
std::vector<uint8_t> rsaEncrypt(const RsaPublicKey &key, CtrDrbg &rng,
                                const std::vector<uint8_t> &message);

/** The raw private operation x^d mod n (x < n), computed by the CRT;
 *  rsaDecrypt() and rsaSign() both run it. */
BigNum rsaPrivateOp(const RsaPrivateKey &key, const BigNum &x);

/** Decrypt; @p ok is false on padding or length failure. */
std::vector<uint8_t> rsaDecrypt(const RsaPrivateKey &key,
                                const std::vector<uint8_t> &cipher,
                                bool &ok);

/** Sign SHA-256(@p message) with the private key. */
std::vector<uint8_t> rsaSign(const RsaPrivateKey &key,
                             const std::vector<uint8_t> &message);

/** Verify a signature produced by rsaSign(). */
bool rsaVerify(const RsaPublicKey &key, const std::vector<uint8_t> &message,
               const std::vector<uint8_t> &signature);

} // namespace vg::crypto

#endif // VG_CRYPTO_RSA_HH
