#include "crypto/bignum.hh"

#include <algorithm>

#include "crypto/drbg.hh"
#include "sim/log.hh"

namespace vg::crypto
{

namespace
{

/**
 * Word-level multiply-accumulate row: acc[0..n-1] += a * b[0..n-1].
 * @return the carry word out of acc[n-1].
 */
inline uint32_t
mulAddRow(uint32_t *acc, const uint32_t *b, size_t n, uint32_t a)
{
    uint64_t carry = 0;
    for (size_t j = 0; j < n; j++) {
        uint64_t cur = uint64_t(acc[j]) + uint64_t(a) * b[j] + carry;
        acc[j] = uint32_t(cur);
        carry = cur >> 32;
    }
    return uint32_t(carry);
}

using u128 = unsigned __int128;

/**
 * CIOS Montgomery multiply on 64-bit words: out = a * b * R^-1 mod n
 * with R = 2^(64k). Operands are k words, < n; out may alias a or b.
 * @p t is k + 2 words of scratch; n0inv = -n[0]^-1 mod 2^64.
 *
 * K != 0 fixes k at compile time so the word loops unroll (the key
 * sizes' moduli and primes); K == 0 takes @p kDyn for any width.
 */
template <size_t K>
void
cios(uint64_t *out, const uint64_t *a, const uint64_t *b, const uint64_t *n,
     size_t kDyn, uint64_t n0inv, uint64_t *t)
{
    const size_t k = K ? K : kDyn;
    std::fill(t, t + k + 2, 0);
    for (size_t i = 0; i < k; i++) {
        // t += a[i] * b
        uint64_t carry = 0;
        for (size_t j = 0; j < k; j++) {
            u128 cur = u128(a[i]) * b[j] + t[j] + carry;
            t[j] = uint64_t(cur);
            carry = uint64_t(cur >> 64);
        }
        u128 top = u128(t[k]) + carry;
        t[k] = uint64_t(top);
        t[k + 1] = uint64_t(top >> 64);

        // t = (t + m*n) / 2^64 — m chosen so the low word cancels.
        uint64_t m = t[0] * n0inv;
        carry = uint64_t((u128(m) * n[0] + t[0]) >> 64);
        for (size_t j = 1; j < k; j++) {
            u128 cur = u128(m) * n[j] + t[j] + carry;
            t[j - 1] = uint64_t(cur);
            carry = uint64_t(cur >> 64);
        }
        top = u128(t[k]) + carry;
        t[k - 1] = uint64_t(top);
        t[k] = t[k + 1] + uint64_t(top >> 64);
    }

    // t < 2n, so at most one final subtraction of n.
    bool ge = true;
    if (t[k] == 0) {
        for (size_t j = k; j-- > 0;) {
            if (t[j] != n[j]) {
                ge = t[j] > n[j];
                break;
            }
        }
    }
    if (ge) {
        uint64_t borrow = 0;
        for (size_t j = 0; j < k; j++) {
            u128 diff = u128(t[j]) - n[j] - borrow;
            out[j] = uint64_t(diff);
            borrow = uint64_t(diff >> 64) & 1;
        }
    } else {
        std::copy(t, t + k, out);
    }
}

} // namespace

/**
 * A Montgomery context for one odd modulus n > 1, with R = 2^(64k):
 * n packed into k 64-bit words, n0inv = -n[0]^-1 mod 2^64, R^2 mod n,
 * and every word array an exponentiation needs, in one buffer. Built
 * once per modulus and reused by every multiply and exponentiation
 * under it. @p mod must outlive the context.
 */
struct BigNum::Mont
{
    explicit Mont(const BigNum &mod);
    Mont(const Mont &) = delete;
    Mont &operator=(const Mont &) = delete;

    /** out = a * b * R^-1 mod n; out may alias a or b. */
    void
    mul(uint64_t *out, const uint64_t *a, const uint64_t *b)
    {
        montMul(out, a, b, n, k, n0inv, t);
    }

    /** out = v * R mod n, the Montgomery form of @p v. */
    void to(const BigNum &v, uint64_t *out);

    /** The plain value of the Montgomery-form @p x. */
    BigNum from(const uint64_t *x);

    /** out = Montgomery form of base^e mod n; e != 0. */
    void exp(uint64_t *out, const BigNum &base, const BigNum &e);

    const BigNum &mod;
    const size_t k; ///< words per value
    void (*const montMul)(uint64_t *, const uint64_t *, const uint64_t *,
                          const uint64_t *, size_t, uint64_t, uint64_t *);
    uint64_t n0inv = 0;
    /** n, R^2 mod n, a spare operand, the 16-entry window table, an
     *  accumulator for the caller, and montMul's k + 2 words of
     *  scratch. */
    std::vector<uint64_t> ws;
    uint64_t *n, *r2, *spare, *tbl, *acc, *t;
};

namespace
{

/** OR the 32-bit @p limbs into the zeroed 64-bit words @p w. */
void
packWords(const std::vector<uint32_t> &limbs, uint64_t *w)
{
    for (size_t i = 0; i < limbs.size(); i++)
        w[i / 2] |= uint64_t(limbs[i]) << (32 * (i % 2));
}

} // namespace

BigNum::Mont::Mont(const BigNum &m)
    : mod(m), k((m._limbs.size() + 1) / 2),
      // Fixed widths for the 384- and 512-bit keys' moduli and primes.
      montMul(k == 3   ? cios<3>
              : k == 4 ? cios<4>
              : k == 6 ? cios<6>
              : k == 8 ? cios<8>
                       : cios<0>),
      ws(21 * k + 2, 0)
{
    n = ws.data();
    r2 = n + k;
    spare = r2 + k;
    tbl = spare + k; // tbl + i * k = mont(base^i), i >= 1
    acc = tbl + 16 * k;
    t = acc + k;
    packWords(mod._limbs, n);

    // n odd: each Newton step doubles the number of correct low bits
    // of n[0]^-1, starting from 3.
    uint64_t inv = n[0];
    for (int i = 0; i < 5; i++)
        inv *= 2 - n[0] * inv;
    n0inv = uint64_t(0) - inv;

    packWords(((BigNum(1) << (128 * k)) % mod)._limbs, r2);
}

void
BigNum::Mont::to(const BigNum &v, uint64_t *out)
{
    std::fill(spare, spare + k, 0);
    if (v < mod)
        packWords(v._limbs, spare);
    else
        packWords((v % mod)._limbs, spare);
    mul(out, spare, r2);
}

BigNum
BigNum::Mont::from(const uint64_t *x)
{
    // Multiply by 1 to leave the Montgomery domain.
    std::fill(spare, spare + k, 0);
    spare[0] = 1;
    mul(spare, x, spare);

    BigNum out;
    out._limbs.resize(2 * k);
    for (size_t i = 0; i < k; i++) {
        out._limbs[2 * i] = uint32_t(spare[i]);
        out._limbs[2 * i + 1] = uint32_t(spare[i] >> 32);
    }
    out.trim();
    return out;
}

void
BigNum::Mont::exp(uint64_t *out, const BigNum &base, const BigNum &e)
{
    // The table is mont(base^1 .. base^15).
    to(base, tbl + k);
    for (size_t i = 2; i < 16; i++)
        mul(tbl + i * k, tbl + (i - 1) * k, tbl + k);

    // 4-bit fixed windows, most significant first. Windows are
    // nibble-aligned so they never straddle a limb.
    auto nibble = [&](size_t idx) -> uint32_t {
        size_t bit_off = idx * 4;
        size_t limb = bit_off / 32;
        if (limb >= e._limbs.size())
            return 0;
        return (e._limbs[limb] >> (bit_off % 32)) & 0xf;
    };
    size_t windows = (e.bitLength() + 3) / 4;

    uint32_t top = nibble(windows - 1); // != 0
    std::copy(tbl + top * k, tbl + (top + 1) * k, out);
    for (size_t idx = windows - 1; idx-- > 0;) {
        for (int s = 0; s < 4; s++)
            mul(out, out, out);
        uint32_t nib = nibble(idx);
        if (nib)
            mul(out, out, tbl + nib * k);
    }
}

BigNum::BigNum(uint64_t v)
{
    if (v != 0) {
        _limbs.push_back(uint32_t(v));
        if (v >> 32)
            _limbs.push_back(uint32_t(v >> 32));
    }
}

void
BigNum::trim()
{
    while (!_limbs.empty() && _limbs.back() == 0)
        _limbs.pop_back();
}

BigNum
BigNum::fromBytes(const std::vector<uint8_t> &bytes)
{
    // Byte i from the end lands in limb i / 4 at bit 8 * (i % 4).
    BigNum n;
    n._limbs.assign((bytes.size() + 3) / 4, 0);
    size_t i = 0;
    for (auto it = bytes.rbegin(); it != bytes.rend(); ++it, ++i)
        n._limbs[i / 4] |= uint32_t(*it) << (8 * (i % 4));
    n.trim();
    return n;
}

std::vector<uint8_t>
BigNum::toBytes() const
{
    if (isZero())
        return {0};
    size_t bytes = (bitLength() + 7) / 8;
    return toBytesPadded(bytes);
}

std::vector<uint8_t>
BigNum::toBytesPadded(size_t len) const
{
    std::vector<uint8_t> out(len, 0);
    for (size_t i = 0; i < len; i++) {
        size_t bit_off = 8 * i;
        size_t limb = bit_off / 32;
        if (limb >= _limbs.size())
            break;
        out[len - 1 - i] = uint8_t(_limbs[limb] >> (bit_off % 32));
    }
    return out;
}

BigNum
BigNum::fromHex(const std::string &hex)
{
    // Non-hex characters are skipped; digit i from the end lands in
    // limb i / 8 at bit 4 * (i % 8).
    std::vector<uint8_t> digits;
    digits.reserve(hex.size());
    for (char c : hex) {
        if (c >= '0' && c <= '9')
            digits.push_back(uint8_t(c - '0'));
        else if (c >= 'a' && c <= 'f')
            digits.push_back(uint8_t(c - 'a' + 10));
        else if (c >= 'A' && c <= 'F')
            digits.push_back(uint8_t(c - 'A' + 10));
    }
    BigNum n;
    n._limbs.assign((digits.size() + 7) / 8, 0);
    size_t i = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it, ++i)
        n._limbs[i / 8] |= uint32_t(*it) << (4 * (i % 8));
    n.trim();
    return n;
}

std::string
BigNum::toHex() const
{
    if (isZero())
        return "0";
    static const char *hex = "0123456789abcdef";
    std::string s;
    for (size_t i = _limbs.size(); i-- > 0;) {
        for (int shift = 28; shift >= 0; shift -= 4)
            s.push_back(hex[(_limbs[i] >> shift) & 0xf]);
    }
    size_t first = s.find_first_not_of('0');
    return s.substr(first);
}

size_t
BigNum::bitLength() const
{
    if (_limbs.empty())
        return 0;
    uint32_t top = _limbs.back();
    size_t bits = (_limbs.size() - 1) * 32;
    while (top) {
        bits++;
        top >>= 1;
    }
    return bits;
}

bool
BigNum::bit(size_t i) const
{
    size_t limb = i / 32;
    if (limb >= _limbs.size())
        return false;
    return (_limbs[limb] >> (i % 32)) & 1;
}

void
BigNum::setBit(size_t i)
{
    size_t limb = i / 32;
    if (limb >= _limbs.size())
        _limbs.resize(limb + 1, 0);
    _limbs[limb] |= uint32_t(1) << (i % 32);
}

int
BigNum::compare(const BigNum &other) const
{
    if (_limbs.size() != other._limbs.size())
        return _limbs.size() < other._limbs.size() ? -1 : 1;
    for (size_t i = _limbs.size(); i-- > 0;) {
        if (_limbs[i] != other._limbs[i])
            return _limbs[i] < other._limbs[i] ? -1 : 1;
    }
    return 0;
}

BigNum
BigNum::operator+(const BigNum &o) const
{
    BigNum out;
    size_t n = std::max(_limbs.size(), o._limbs.size());
    out._limbs.resize(n, 0);
    uint64_t carry = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t sum = carry;
        if (i < _limbs.size())
            sum += _limbs[i];
        if (i < o._limbs.size())
            sum += o._limbs[i];
        out._limbs[i] = uint32_t(sum);
        carry = sum >> 32;
    }
    if (carry)
        out._limbs.push_back(uint32_t(carry));
    return out;
}

BigNum
BigNum::operator-(const BigNum &o) const
{
    if (*this < o)
        sim::panic("BigNum subtraction underflow");
    BigNum out;
    out._limbs.resize(_limbs.size(), 0);
    int64_t borrow = 0;
    for (size_t i = 0; i < _limbs.size(); i++) {
        int64_t diff = int64_t(_limbs[i]) - borrow;
        if (i < o._limbs.size())
            diff -= int64_t(o._limbs[i]);
        if (diff < 0) {
            diff += int64_t(1) << 32;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out._limbs[i] = uint32_t(diff);
    }
    out.trim();
    return out;
}

BigNum
BigNum::operator*(const BigNum &o) const
{
    if (isZero() || o.isZero())
        return BigNum();
    BigNum out;
    out._limbs.assign(_limbs.size() + o._limbs.size(), 0);
    for (size_t i = 0; i < _limbs.size(); i++) {
        out._limbs[i + o._limbs.size()] +=
            mulAddRow(out._limbs.data() + i, o._limbs.data(),
                      o._limbs.size(), _limbs[i]);
    }
    out.trim();
    return out;
}

BigNum
BigNum::operator<<(size_t bits) const
{
    if (isZero())
        return BigNum();
    size_t limb_shift = bits / 32;
    size_t bit_shift = bits % 32;
    BigNum out;
    out._limbs.assign(_limbs.size() + limb_shift + 1, 0);
    for (size_t i = 0; i < _limbs.size(); i++) {
        out._limbs[i + limb_shift] |= _limbs[i] << bit_shift;
        if (bit_shift)
            out._limbs[i + limb_shift + 1] |=
                uint32_t(uint64_t(_limbs[i]) >> (32 - bit_shift));
    }
    out.trim();
    return out;
}

BigNum
BigNum::operator>>(size_t bits) const
{
    size_t limb_shift = bits / 32;
    size_t bit_shift = bits % 32;
    if (limb_shift >= _limbs.size())
        return BigNum();
    BigNum out;
    out._limbs.assign(_limbs.size() - limb_shift, 0);
    for (size_t i = 0; i < out._limbs.size(); i++) {
        out._limbs[i] = _limbs[i + limb_shift] >> bit_shift;
        if (bit_shift && i + limb_shift + 1 < _limbs.size())
            out._limbs[i] |= uint32_t(
                uint64_t(_limbs[i + limb_shift + 1]) << (32 - bit_shift));
    }
    out.trim();
    return out;
}

void
BigNum::divmod(const BigNum &divisor, BigNum &quotient,
               BigNum &remainder) const
{
    if (divisor.isZero())
        sim::panic("BigNum division by zero");
    quotient = BigNum();
    remainder = BigNum();
    if (*this < divisor) {
        remainder = *this;
        return;
    }

    // Single-limb divisor: schoolbook short division.
    if (divisor._limbs.size() == 1) {
        uint64_t d = divisor._limbs[0];
        quotient._limbs.assign(_limbs.size(), 0);
        uint64_t rem = 0;
        for (size_t i = _limbs.size(); i-- > 0;) {
            uint64_t cur = (rem << 32) | _limbs[i];
            quotient._limbs[i] = uint32_t(cur / d);
            rem = cur % d;
        }
        quotient.trim();
        remainder = BigNum(rem);
        return;
    }

    // Knuth Algorithm D (TAOCP 4.3.1) with 32-bit limbs.
    size_t n = divisor._limbs.size();
    size_t m = _limbs.size() - n;

    // D1: normalize so the divisor's top limb has its high bit set.
    unsigned shift = 0;
    uint32_t top = divisor._limbs[n - 1];
    while (!(top & 0x80000000u)) {
        top <<= 1;
        shift++;
    }
    BigNum u = *this << shift;
    BigNum v = divisor << shift;
    u._limbs.resize(_limbs.size() + 1, 0); // u has m+n+1 limbs

    quotient._limbs.assign(m + 1, 0);
    const uint64_t base = uint64_t(1) << 32;

    for (size_t j = m + 1; j-- > 0;) {
        // D3: estimate q_hat from the top two limbs of u against the
        // top limb of v, then refine with the second limb.
        uint64_t num = (uint64_t(u._limbs[j + n]) << 32) |
                       u._limbs[j + n - 1];
        uint64_t q_hat = num / v._limbs[n - 1];
        uint64_t r_hat = num % v._limbs[n - 1];
        if (q_hat >= base) {
            q_hat = base - 1;
            r_hat = num - q_hat * v._limbs[n - 1];
        }
        while (r_hat < base &&
               q_hat * v._limbs[n - 2] >
                   ((r_hat << 32) | u._limbs[j + n - 2])) {
            q_hat--;
            r_hat += v._limbs[n - 1];
        }

        // D4: multiply-and-subtract q_hat * v from u[j .. j+n].
        int64_t borrow = 0;
        uint64_t carry = 0;
        for (size_t i = 0; i < n; i++) {
            uint64_t prod = q_hat * v._limbs[i] + carry;
            carry = prod >> 32;
            int64_t diff = int64_t(u._limbs[i + j]) -
                           int64_t(prod & 0xffffffffull) - borrow;
            if (diff < 0) {
                diff += int64_t(base);
                borrow = 1;
            } else {
                borrow = 0;
            }
            u._limbs[i + j] = uint32_t(diff);
        }
        int64_t diff = int64_t(u._limbs[j + n]) - int64_t(carry) - borrow;
        bool negative = diff < 0;
        u._limbs[j + n] = uint32_t(diff);

        // D5/D6: if we overshot, add v back once and decrement q_hat.
        if (negative) {
            q_hat--;
            uint64_t add_carry = 0;
            for (size_t i = 0; i < n; i++) {
                uint64_t sum = uint64_t(u._limbs[i + j]) + v._limbs[i] +
                               add_carry;
                u._limbs[i + j] = uint32_t(sum);
                add_carry = sum >> 32;
            }
            u._limbs[j + n] += uint32_t(add_carry);
        }
        quotient._limbs[j] = uint32_t(q_hat);
    }

    quotient.trim();
    u._limbs.resize(n);
    u.trim();
    remainder = u >> shift;
}

BigNum
BigNum::operator%(const BigNum &o) const
{
    BigNum q, r;
    divmod(o, q, r);
    return r;
}

BigNum
BigNum::modExp(const BigNum &exp, const BigNum &mod) const
{
    if (mod.isZero())
        sim::panic("BigNum modExp with zero modulus");
    // Montgomery reduction needs gcd(mod, 2^32) == 1, so even moduli
    // (and the trivial mod == 1) take square-and-multiply.
    if (mod.isOdd() && mod != BigNum(1)) {
        if (exp.isZero())
            return BigNum(1);
        Mont mont(mod);
        mont.exp(mont.acc, *this, exp);
        return mont.from(mont.acc);
    }
    BigNum result(1);
    result = result % mod;
    BigNum base = *this % mod;
    size_t bits = exp.bitLength();
    for (size_t i = 0; i < bits; i++) {
        if (exp.bit(i))
            result = (result * base) % mod;
        base = (base * base) % mod;
    }
    return result;
}

BigNum
BigNum::gcd(BigNum a, BigNum b)
{
    while (!b.isZero()) {
        BigNum r = a % b;
        a = b;
        b = r;
    }
    return a;
}

BigNum
BigNum::modInverse(const BigNum &mod, bool &ok) const
{
    // Iterative extended Euclid tracking only the coefficient of *this,
    // using (sign, magnitude) pairs to stay within unsigned arithmetic.
    BigNum r0 = mod, r1 = *this % mod;
    BigNum t0, t1(1);
    bool t0_neg = false, t1_neg = false;

    while (!r1.isZero()) {
        BigNum q, r2;
        r0.divmod(r1, q, r2);

        // t2 = t0 - q * t1
        BigNum qt = q * t1;
        BigNum t2;
        bool t2_neg;
        if (t0_neg == t1_neg) {
            // t0 and q*t1 have the same sign: real subtraction.
            if (t0 >= qt) {
                t2 = t0 - qt;
                t2_neg = t0_neg;
            } else {
                t2 = qt - t0;
                t2_neg = !t0_neg;
            }
        } else {
            t2 = t0 + qt;
            t2_neg = t0_neg;
        }

        r0 = r1;
        r1 = r2;
        t0 = t1;
        t0_neg = t1_neg;
        t1 = t2;
        t1_neg = t2_neg;
    }

    if (r0 != BigNum(1)) {
        ok = false;
        return BigNum();
    }
    ok = true;
    if (t0_neg)
        return mod - (t0 % mod);
    return t0 % mod;
}

BigNum
BigNum::random(CtrDrbg &rng, const BigNum &bound)
{
    if (bound.isZero())
        sim::panic("BigNum::random with zero bound");
    size_t bytes = (bound.bitLength() + 7) / 8;
    while (true) {
        BigNum candidate = fromBytes(rng.generate(bytes));
        if (candidate < bound)
            return candidate;
    }
}

BigNum
BigNum::randomBits(CtrDrbg &rng, size_t bits)
{
    size_t bytes = (bits + 7) / 8;
    BigNum n = fromBytes(rng.generate(bytes));
    // Clear excess high bits, then force the top bit.
    while (n.bitLength() > bits)
        n = n >> 1;
    n.setBit(bits - 1);
    return n;
}

bool
BigNum::isProbablePrime(CtrDrbg &rng, int rounds) const
{
    static const uint32_t small_primes[] = {2,  3,  5,  7,  11, 13,
                                            17, 19, 23, 29, 31, 37};
    if (isZero() || *this == BigNum(1))
        return false;
    for (uint32_t p : small_primes) {
        if (_limbs.size() == 1 && _limbs[0] == p)
            return true;
        uint64_t rem = 0; // single-word remainder, top limb first
        for (size_t i = _limbs.size(); i-- > 0;)
            rem = ((rem << 32) | _limbs[i]) % p;
        if (rem == 0)
            return false;
    }
    if (!isOdd())
        return false;

    BigNum one(1), two(2);
    BigNum n_minus_1 = *this - one;
    BigNum d = n_minus_1;
    size_t s = 0;
    while (!d.isOdd()) {
        d = d >> 1;
        s++;
    }

    // Every round works in Montgomery form under one context: x is
    // compared against the forms of 1 and n - 1, and squared by a
    // Montgomery multiply.
    Mont mont(*this);
    const size_t k = mont.k;
    std::vector<uint64_t> words(2 * k, 0);
    uint64_t *mOne = words.data(), *mMinusOne = mOne + k, *x = mont.acc;
    mont.to(one, mOne);
    mont.to(n_minus_1, mMinusOne);
    auto xIs = [&](const uint64_t *v) { return std::equal(x, x + k, v); };

    for (int round = 0; round < rounds; round++) {
        BigNum a = random(rng, n_minus_1 - two) + two;
        mont.exp(x, a, d);
        if (xIs(mOne) || xIs(mMinusOne))
            continue;
        bool composite = true;
        for (size_t i = 1; i < s; i++) {
            mont.mul(x, x, x);
            if (xIs(mMinusOne)) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

} // namespace vg::crypto
