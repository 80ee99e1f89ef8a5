/**
 * @file
 * Arbitrary-precision unsigned integers for RSA.
 *
 * Little-endian 32-bit limbs (modExp packs them into 64-bit words for
 * its Montgomery multiply). Implements exactly the operations the RSA
 * layer needs: comparison, add/sub, multiply, divmod, shifts, modular
 * exponentiation, extended GCD / modular inverse, and Miller-Rabin
 * primality testing.
 */

#ifndef VG_CRYPTO_BIGNUM_HH
#define VG_CRYPTO_BIGNUM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace vg::crypto
{

class CtrDrbg;

/** Unsigned big integer. */
class BigNum
{
  public:
    BigNum() = default;

    /** Construct from a 64-bit value. */
    explicit BigNum(uint64_t v);

    /** Construct from big-endian bytes. */
    static BigNum fromBytes(const std::vector<uint8_t> &bytes);

    /** Serialize to big-endian bytes (minimal length, "0" => {0}). */
    std::vector<uint8_t> toBytes() const;

    /** Serialize to big-endian bytes left-padded to @p len. */
    std::vector<uint8_t> toBytesPadded(size_t len) const;

    /** Parse from lowercase hex. */
    static BigNum fromHex(const std::string &hex);

    /** Render as lowercase hex (no leading zeros, "0" for zero). */
    std::string toHex() const;

    bool isZero() const { return _limbs.empty(); }
    bool isOdd() const { return !_limbs.empty() && (_limbs[0] & 1); }

    /** Number of significant bits. */
    size_t bitLength() const;

    /** Value of bit @p i (0 = least significant). */
    bool bit(size_t i) const;

    /** Set bit @p i to 1. */
    void setBit(size_t i);

    int compare(const BigNum &other) const;

    bool operator==(const BigNum &o) const { return compare(o) == 0; }
    bool operator!=(const BigNum &o) const { return compare(o) != 0; }
    bool operator<(const BigNum &o) const { return compare(o) < 0; }
    bool operator<=(const BigNum &o) const { return compare(o) <= 0; }
    bool operator>=(const BigNum &o) const { return compare(o) >= 0; }

    BigNum operator+(const BigNum &o) const;
    /** Subtraction; requires *this >= o. */
    BigNum operator-(const BigNum &o) const;
    BigNum operator*(const BigNum &o) const;
    BigNum operator<<(size_t bits) const;
    BigNum operator>>(size_t bits) const;

    /** Quotient and remainder of *this / divisor (divisor != 0). */
    void divmod(const BigNum &divisor, BigNum &quotient,
                BigNum &remainder) const;

    BigNum operator%(const BigNum &o) const;

    /**
     * Modular exponentiation: this^exp mod mod.
     *
     * Odd moduli > 1 use Montgomery multiplication on 64-bit words
     * with a 4-bit fixed-window ladder; even moduli (and mod == 1), where Montgomery
     * reduction does not apply, use square-and-multiply.
     */
    BigNum modExp(const BigNum &exp, const BigNum &mod) const;

    /**
     * Modular inverse of *this mod @p mod.
     * @param ok set false if no inverse exists.
     */
    BigNum modInverse(const BigNum &mod, bool &ok) const;

    /** Greatest common divisor. */
    static BigNum gcd(BigNum a, BigNum b);

    /** Miller-Rabin probabilistic primality test. */
    bool isProbablePrime(CtrDrbg &rng, int rounds = 24) const;

    /** Uniform random value in [0, bound). */
    static BigNum random(CtrDrbg &rng, const BigNum &bound);

    /** Random value with exactly @p bits bits (top bit set). */
    static BigNum randomBits(CtrDrbg &rng, size_t bits);

  private:
    void trim();

    /** Montgomery arithmetic over 64-bit words under one odd
     *  modulus > 1 (modExp, isProbablePrime). */
    struct Mont;

    /** Little-endian limbs; empty means zero. */
    std::vector<uint32_t> _limbs;
};

} // namespace vg::crypto

#endif // VG_CRYPTO_BIGNUM_HH
