//! Arithmetic in GF(2^255 - 19), the base field of curve25519.
//!
//! Elements are stored as five 51-bit limbs (`value = Σ limb_i · 2^(51·i)`),
//! the classic "donna" representation: limb products fit comfortably in
//! `u128` and the prime's shape lets the carry out of the top limb wrap
//! around multiplied by 19. Both [`crate::x25519`] and [`crate::ed25519`]
//! build on this module.
//!
//! # Limb bounds
//!
//! Limbs are allowed to run above 51 bits between reductions. Two bounds
//! make up the contract, and every operation states (and `debug_assert`s)
//! which one it takes and which one it returns:
//!
//! - **tight**: every limb `< 2^52`. Returned by every constructor and by
//!   `mul`, `square`, `mul_small`, `add`, `sub`, `neg`, `invert`,
//!   `pow_p58`.
//! - **loose**: every limb `< 2^54`. Returned by `add_lazy` / `sub_lazy`
//!   (which take tight inputs and do no carry at all) and accepted by
//!   `mul`, `square` and `mul_small`, so a lazy sum or difference may
//!   only ever feed a multiplication.
//!
//! Only `to_bytes` (and `equals` / `is_zero` / `parity` through it)
//! reduces to the canonical representative in `[0, p)`.

/// Low 51 bits.
const MASK51: u64 = (1u64 << 51) - 1;
/// Exclusive limb bound of a tight element.
const TIGHT: u64 = 1 << 52;
/// Exclusive limb bound of a loose element.
const LOOSE: u64 = 1 << 54;

/// An element of GF(2^255 - 19); see the module docs for the limb bounds.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

/// Carries five `u128` column sums into a tight element: one chain up
/// the limbs, the top carry folded back ×19 (still in `u128`), and one
/// trailing carry out of limb 0.
///
/// Input: every column `< 2^115` (so each running sum stays far below
/// 2^128). Output: limb 1 `< 2^51 + 2^18`, the others `< 2^51`.
#[inline]
fn carry_wide(r: [u128; 5]) -> Fe {
    const M: u128 = MASK51 as u128;
    debug_assert!(r.iter().all(|&c| c < 1 << 115));
    let r1 = r[1] + (r[0] >> 51);
    let r2 = r[2] + (r1 >> 51);
    let r3 = r[3] + (r2 >> 51);
    let r4 = r[4] + (r3 >> 51);
    let r0 = (r[0] & M) + 19 * (r4 >> 51);
    Fe([
        (r0 & M) as u64,
        (r1 & M) as u64 + (r0 >> 51) as u64,
        (r2 & M) as u64,
        (r3 & M) as u64,
        (r4 & M) as u64,
    ])
}

#[inline]
fn m(x: u64, y: u64) -> u128 {
    u128::from(x) * u128::from(y)
}

/// Carries limbs 0..4 upward, leaving them below 2^51 and the whole
/// excess in limb 4.
fn carry_up(t: &mut [u64; 5]) {
    for i in 0..4 {
        t[i + 1] += t[i] >> 51;
        t[i] &= MASK51;
    }
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Builds an element from a small integer.
    #[cfg(test)]
    #[must_use]
    pub(crate) const fn from_u64(v: u64) -> Fe {
        Fe([v & MASK51, (v >> 51) & MASK51, 0, 0, 0])
    }

    /// Decodes 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// matching RFC 7748 field-element decoding.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut v = 0u64;
            for j in 0..8 {
                v |= (bytes[i + j] as u64) << (8 * j);
            }
            v
        };
        let lo0 = load(0);
        let lo1 = load(6) >> 3;
        let lo2 = load(12) >> 6;
        let lo3 = load(19) >> 1;
        let lo4 = load(24) >> 12;
        Fe([
            lo0 & MASK51,
            lo1 & MASK51,
            lo2 & MASK51,
            lo3 & MASK51,
            lo4 & MASK51,
        ])
    }

    fn within(self, bound: u64) -> bool {
        self.0.iter().all(|&l| l < bound)
    }

    /// Encodes the element canonically as 32 little-endian bytes.
    ///
    /// Input: loose. This is the one place that reduces fully, to the
    /// representative in `[0, p)`, without branching on the value.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        // After one carry pass the value is below 2^255 + 2^8 < 2p.
        let mut t = self.carry().0;
        // q = 1 iff value >= p, i.e. iff value + 19 reaches 2^255.
        let mut q = (t[0] + 19) >> 51;
        q = (t[1] + q) >> 51;
        q = (t[2] + q) >> 51;
        q = (t[3] + q) >> 51;
        q = (t[4] + q) >> 51;
        // value - q·p = value + 19q - q·2^255: add, carry, drop bit 255.
        t[0] += 19 * q;
        carry_up(&mut t);
        t[4] &= MASK51;
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for &limb in &t {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        // 5 · 51 = 255 bits: the last seven sit in the accumulator.
        out[31] = acc as u8;
        out
    }

    /// One carry pass up the limbs, the top carry folded back ×19.
    ///
    /// Input: loose. Output: limb 0 `< 2^51 + 2^8`, the others `< 2^51`.
    fn carry(self) -> Fe {
        debug_assert!(self.within(LOOSE));
        let mut t = self.0;
        carry_up(&mut t);
        t[0] += 19 * (t[4] >> 51);
        t[4] &= MASK51;
        Fe(t)
    }

    /// Limb-wise sum with no carry, for use between multiplications.
    ///
    /// Input: tight. Output: loose (every limb `< 2^53`).
    #[inline]
    #[must_use]
    pub(crate) fn add_lazy(self, rhs: Fe) -> Fe {
        debug_assert!(self.within(TIGHT) && rhs.within(TIGHT));
        Fe([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
    }

    /// Limb-wise difference with no carry, for use between
    /// multiplications: `self + 4p - rhs`, and every limb of `4p` is at
    /// least `2^53 - 76`, above any tight limb, so no limb goes negative.
    ///
    /// Input: tight. Output: loose (every limb `< 2^52 + 2^53`).
    #[inline]
    #[must_use]
    pub(crate) fn sub_lazy(self, rhs: Fe) -> Fe {
        debug_assert!(self.within(TIGHT) && rhs.within(TIGHT));
        const FOUR_P0: u64 = 4 * (MASK51 - 18); // 4 · (2^51 - 19)
        const FOUR_PI: u64 = 4 * MASK51; // 4 · (2^51 - 1)
        Fe([
            self.0[0] + FOUR_P0 - rhs.0[0],
            self.0[1] + FOUR_PI - rhs.0[1],
            self.0[2] + FOUR_PI - rhs.0[2],
            self.0[3] + FOUR_PI - rhs.0[3],
            self.0[4] + FOUR_PI - rhs.0[4],
        ])
    }

    /// Field addition. Input: tight. Output: tight.
    #[must_use]
    pub fn add(self, rhs: Fe) -> Fe {
        self.add_lazy(rhs).carry()
    }

    /// Field subtraction. Input: tight. Output: tight.
    #[must_use]
    pub fn sub(self, rhs: Fe) -> Fe {
        self.sub_lazy(rhs).carry()
    }

    /// Field negation. Input: tight. Output: tight.
    #[must_use]
    pub(crate) fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication. Input: loose. Output: tight.
    #[inline]
    #[must_use]
    pub fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.within(LOOSE) && rhs.within(LOOSE));
        let a = &self.0;
        let b = &rhs.0;
        // 19 · 2^54 < 2^59: the pre-scaled limbs stay in u64, and each
        // column is below 77 · 2^108 < 2^115.
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        carry_wide([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// Field squaring: the 15 distinct limb products of `mul(self, self)`,
    /// the off-diagonal ones doubled. Input: loose. Output: tight.
    #[inline]
    #[must_use]
    pub fn square(self) -> Fe {
        debug_assert!(self.within(LOOSE));
        let a = &self.0;
        // 38 · 2^54 < 2^60: the doubled and pre-scaled limbs stay in u64.
        let d0 = 2 * a[0];
        let d1 = 2 * a[1];
        let d2_19 = 38 * a[2];
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];
        let d4_19 = 2 * a4_19;
        carry_wide([
            m(a[0], a[0]) + m(d4_19, a[1]) + m(d2_19, a[3]),
            m(d0, a[1]) + m(d4_19, a[2]) + m(a3_19, a[3]),
            m(d0, a[2]) + m(a[1], a[1]) + m(d4_19, a[3]),
            m(d0, a[3]) + m(d1, a[2]) + m(a4_19, a[4]),
            m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]),
        ])
    }

    /// `self` squared `k` times, i.e. `self^(2^k)`.
    fn pow2k(self, k: u32) -> Fe {
        (0..k).fold(self, |x, _| x.square())
    }

    /// Multiplication by a small constant (the ladder's 121 665): five
    /// limb products instead of 25. Input: loose. Output: tight.
    #[inline]
    #[must_use]
    pub(crate) fn mul_small(self, k: u32) -> Fe {
        debug_assert!(self.within(LOOSE));
        let k = u64::from(k);
        carry_wide(self.0.map(|l| m(l, k)))
    }

    /// `(self^(2^250 - 1), self^11)`: the addition chain shared by
    /// [`Fe::invert`], [`Fe::pow_p58`] and `Fe::sqrt_m1`: 249
    /// squarings and 10 multiplications.
    fn pow22501(self) -> (Fe, Fe) {
        let x2 = self.square();
        let x9 = x2.pow2k(2).mul(self);
        let x11 = x9.mul(x2);
        let e5 = x11.square().mul(x9); // 2^5 - 1
        let e10 = e5.pow2k(5).mul(e5); // 2^10 - 1
        let e20 = e10.pow2k(10).mul(e10);
        let e40 = e20.pow2k(20).mul(e20);
        let e50 = e40.pow2k(10).mul(e10);
        let e100 = e50.pow2k(50).mul(e50);
        let e200 = e100.pow2k(100).mul(e100);
        let e250 = e200.pow2k(50).mul(e50);
        (e250, x11)
    }

    /// Raises the element to an arbitrary power given as 32 little-endian
    /// bytes, bit by bit: the oracle the addition chains are tested
    /// against.
    #[cfg(test)]
    fn pow_bytes_le(self, exp: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        for bit in (0..256).rev() {
            result = result.square();
            if (exp[bit / 8] >> (bit % 8)) & 1 == 1 {
                result = result.mul(self);
            }
        }
        result
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`.
    ///
    /// Returns zero for zero input (callers must handle that case).
    /// Input: loose. Output: tight.
    #[must_use]
    pub fn invert(self) -> Fe {
        // p - 2 = 2^255 - 21 = (2^250 - 1) · 2^5 + 11.
        let (e250, x11) = self.pow22501();
        e250.pow2k(5).mul(x11)
    }

    /// `self^((p-5)/8)`, used for square-root extraction on the curve.
    /// Input: loose. Output: tight.
    #[must_use]
    pub(crate) fn pow_p58(self) -> Fe {
        // (p - 5) / 8 = 2^252 - 3 = (2^250 - 1) · 2^2 + 1.
        let (e250, _) = self.pow22501();
        e250.pow2k(2).mul(self)
    }

    /// Returns `sqrt(-1)` in the field (one of the two roots).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn sqrt_m1() -> Fe {
        // 2^((p-1)/4) is a square root of -1 because 2 is a non-square
        // mod p. (p-1)/4 = 2^253 - 5 = (2^250 - 1) · 2^3 + 3.
        let (e250, _) = Fe::from_u64(2).pow22501();
        e250.pow2k(3).mul(Fe::from_u64(8))
    }

    /// True if the element is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Canonical equality (comparing reduced encodings).
    #[must_use]
    pub fn equals(self, other: Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// Returns the low bit of the canonical encoding (the "sign" of x in
    /// Edwards-point compression).
    #[must_use]
    pub(crate) fn parity(self) -> u8 {
        self.to_bytes()[0] & 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    #[test]
    fn add_sub_small() {
        assert!(fe(5).add(fe(7)).equals(fe(12)));
        assert!(fe(12).sub(fe(7)).equals(fe(5)));
        assert!(fe(0).sub(fe(1)).add(fe(1)).equals(Fe::ZERO));
    }

    #[test]
    fn mul_small() {
        assert!(fe(6).mul(fe(7)).equals(fe(42)));
        assert!(fe(1 << 30)
            .mul(fe(1 << 30))
            .equals(Fe([0, 1 << 9, 0, 0, 0])));
    }

    #[test]
    fn p_is_zero() {
        // p = 2^255 - 19 encoded as limbs must reduce to zero.
        let p = Fe([MASK51 - 18, MASK51, MASK51, MASK51, MASK51]);
        assert!(p.is_zero());
        assert_eq!(p.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn p_plus_one_is_one() {
        let p1 = Fe([MASK51 - 17, MASK51, MASK51, MASK51, MASK51]);
        assert!(p1.equals(Fe::ONE));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as u8).wrapping_mul(37).wrapping_add(1);
        }
        b[31] &= 0x7f; // Keep below 2^255 so the encoding is canonical.
        let x = Fe::from_bytes(&b);
        assert_eq!(x.to_bytes(), b);
    }

    #[test]
    fn inverse_of_two() {
        let inv2 = fe(2).invert();
        assert!(inv2.mul(fe(2)).equals(Fe::ONE));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert!(i.square().equals(Fe::ONE.neg()));
    }

    #[test]
    fn pow_p58_consistency() {
        // For v a nonzero square, v^((p-5)/8) * v relates to sqrt(v):
        // check the standard identity (v^((p-5)/8))^8 * v^3 is v^((p-5)+3)
        // indirectly via invert: x^(p-2) * x == 1.
        let x = fe(123_456_789);
        assert!(x.invert().mul(x).equals(Fe::ONE));
        let y = x.pow_p58();
        // y = x^((p-5)/8) => y^8 = x^(p-5) = x^(-4) (Fermat), so y^8*x^4 = 1.
        let y8 = y.square().square().square();
        let x4 = x.square().square();
        assert!(y8.mul(x4).equals(Fe::ONE));
    }

    // ------------------------------------------------------------------
    // A reference that shares nothing with the limb code: 256-bit
    // integers as four u64 words, schoolbook multiplication, reduction
    // by 2^256 = 38 (mod p) and trial subtraction of p.
    // ------------------------------------------------------------------

    type U256 = [u64; 4];
    const P: U256 = [
        0xffff_ffff_ffff_ffed,
        u64::MAX,
        u64::MAX,
        0x7fff_ffff_ffff_ffff,
    ];

    /// `a - b` over 256 bits, for `a >= b`.
    fn ref_sub_words(a: U256, b: U256) -> U256 {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = u64::from(b1 | b2);
        }
        assert_eq!(borrow, 0);
        out
    }

    /// `Σ words[i] · 2^(64·i) mod p`, canonical.
    fn ref_reduce(words: &[u64]) -> U256 {
        let mut w = words.to_vec();
        w.resize(w.len().max(5), 0);
        // Fold everything above 2^256 down ×38 until it is gone.
        while w[4..].iter().any(|&x| x != 0) {
            let (lo, hi) = w.split_at(4);
            let mut next = vec![0u64; hi.len().max(4) + 1];
            let mut carry = 0u128;
            for i in 0..next.len() {
                let t = u128::from(lo.get(i).copied().unwrap_or(0))
                    + 38 * u128::from(hi.get(i).copied().unwrap_or(0))
                    + carry;
                next[i] = t as u64;
                carry = t >> 64;
            }
            assert_eq!(carry, 0);
            w = next;
        }
        let mut r: U256 = [w[0], w[1], w[2], w[3]];
        let ge_p = |r: &U256| {
            (0..4)
                .rev()
                .find(|&i| r[i] != P[i])
                .is_none_or(|i| r[i] > P[i])
        };
        while ge_p(&r) {
            r = ref_sub_words(r, P);
        }
        r
    }

    /// The integer a limb vector stands for, reduced mod p.
    fn ref_of(x: Fe) -> U256 {
        let mut w = [0u64; 6];
        for (i, &limb) in x.0.iter().enumerate() {
            let v = u128::from(limb) << (51 * i % 64);
            let at = 51 * i / 64;
            let mut carry = 0u128;
            for (j, part) in [v as u64, (v >> 64) as u64, 0].into_iter().enumerate() {
                let t = u128::from(w[at + j]) + u128::from(part) + carry;
                w[at + j] = t as u64;
                carry = t >> 64;
            }
        }
        ref_reduce(&w)
    }

    fn ref_mul(a: U256, b: U256) -> U256 {
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = u128::from(prod[i + j]) + u128::from(a[i]) * u128::from(b[j]) + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        ref_reduce(&prod)
    }

    fn ref_mul_small(a: U256, k: u32) -> U256 {
        ref_mul(a, [u64::from(k), 0, 0, 0])
    }

    fn ref_add(a: U256, b: U256) -> U256 {
        let mut sum = [0u64; 5];
        let mut carry = 0u128;
        for i in 0..4 {
            let t = u128::from(a[i]) + u128::from(b[i]) + carry;
            sum[i] = t as u64;
            carry = t >> 64;
        }
        sum[4] = carry as u64;
        ref_reduce(&sum)
    }

    /// `a - b` as `a + (p - b)`; both inputs canonical.
    fn ref_sub(a: U256, b: U256) -> U256 {
        ref_add(a, ref_sub_words(P, b))
    }

    /// Asserts that `x` encodes to the canonical bytes of `want`.
    #[track_caller]
    fn assert_is(x: Fe, want: U256) {
        let mut bytes = [0u8; 32];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(want) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        assert_eq!(x.to_bytes(), bytes);
    }

    /// Every limb at `bound - 1`.
    fn all_limbs(bound: u64) -> Fe {
        Fe([bound - 1; 5])
    }

    /// 0, 1, p-1, p, p+1, 2^255-1 as limb vectors, plus every limb at the
    /// tight maximum. All are tight, so every operation accepts them.
    fn tight_edges() -> Vec<Fe> {
        vec![
            Fe::ZERO,
            Fe::ONE,
            Fe([MASK51 - 19, MASK51, MASK51, MASK51, MASK51]),
            Fe([MASK51 - 18, MASK51, MASK51, MASK51, MASK51]),
            Fe([MASK51 - 17, MASK51, MASK51, MASK51, MASK51]),
            Fe([MASK51; 5]),
            all_limbs(TIGHT),
        ]
    }

    /// A full-width element whose limbs are uniform below `bound`.
    fn fe_below(bound: u64, raw: &[u8; 40]) -> Fe {
        let mut limbs = [0u64; 5];
        for (l, chunk) in limbs.iter_mut().zip(raw.chunks_exact(8)) {
            *l = u64::from_le_bytes(chunk.try_into().unwrap()) % bound;
        }
        Fe(limbs)
    }

    /// The multiplications (which accept loose operands) against the
    /// reference, with the tight bound of their results.
    fn check_multiplications(a: Fe, b: Fe) {
        let (ra, rb) = (ref_of(a), ref_of(b));
        assert_is(a, ra);
        assert_is(a.mul(b), ref_mul(ra, rb));
        assert_is(a.square(), ref_mul(ra, ra));
        assert_is(a.mul_small(121_665), ref_mul_small(ra, 121_665));
        assert_is(a.mul_small(u32::MAX), ref_mul_small(ra, u32::MAX));
        assert!(a.mul(b).within(TIGHT) && a.square().within(TIGHT));
        assert!(a.mul_small(u32::MAX).within(TIGHT));
    }

    /// Every operation on tight `(a, b)` against the reference.
    fn check_against_reference(a: Fe, b: Fe) {
        check_multiplications(a, b);
        let (ra, rb) = (ref_of(a), ref_of(b));
        let (rs, rd) = (ref_add(ra, rb), ref_sub(ra, rb));
        assert_is(a.add(b), rs);
        assert_is(a.sub(b), rd);
        assert_is(a.neg(), ref_sub([0; 4], ra));
        assert!(a.add(b).within(TIGHT) && a.sub(b).within(TIGHT));
        // The lazy forms, each consumed by a multiplication the way the
        // ladder step composes them.
        let (sum, diff) = (a.add_lazy(b), a.sub_lazy(b));
        assert!(sum.within(LOOSE) && diff.within(LOOSE));
        assert_is(sum, rs);
        assert_is(diff, rd);
        check_multiplications(diff, sum);
        // z2 = e · (aa + 121665 · e) with e = aa - bb.
        let (aa, bb) = (sum.square(), diff.square());
        let e = aa.sub_lazy(bb);
        let z2 = e.mul(aa.add_lazy(e.mul_small(121_665)));
        let (raa, rbb) = (ref_mul(rs, rs), ref_mul(rd, rd));
        let re = ref_sub(raa, rbb);
        assert_is(z2, ref_mul(re, ref_add(raa, ref_mul_small(re, 121_665))));
    }

    /// An exponent of the shape `2^k - c`: all-ones bytes but the ends.
    fn exponent(first: u8, last: u8) -> [u8; 32] {
        let mut e = [0xffu8; 32];
        e[0] = first;
        e[31] = last;
        e
    }

    /// `invert` and `pow_p58` against bit-by-bit exponentiation.
    fn check_chains(x: Fe) {
        let p_minus_2 = exponent(0xeb, 0x7f);
        let p_minus_5_over_8 = exponent(0xfd, 0x0f);
        assert_eq!(x.invert().to_bytes(), x.pow_bytes_le(&p_minus_2).to_bytes());
        assert_eq!(
            x.pow_p58().to_bytes(),
            x.pow_bytes_le(&p_minus_5_over_8).to_bytes()
        );
    }

    #[test]
    fn reference_knows_p() {
        assert_eq!(ref_reduce(&P), [0; 4]);
        assert_eq!(ref_reduce(&[0, 0, 0, 0, 1]), [38, 0, 0, 0]); // 2^256
        assert_eq!(
            ref_mul_small(ref_sub([0; 4], [1, 0, 0, 0]), 2),
            ref_sub(P, [2, 0, 0, 0])
        );
    }

    #[test]
    fn edges_match_reference() {
        let edges = tight_edges();
        for &a in &edges {
            for &b in &edges {
                check_against_reference(a, b);
            }
        }
        // p, p+1 and 2^255-1 are non-canonical: they must encode reduced.
        assert_eq!(edges[3].to_bytes(), [0u8; 32]);
        assert_eq!(edges[4].to_bytes(), Fe::ONE.to_bytes());
        assert_eq!(edges[5].to_bytes(), Fe::from_u64(18).to_bytes());
    }

    #[test]
    fn loose_maximum_is_accepted_by_every_multiplication() {
        let top = all_limbs(LOOSE);
        check_multiplications(top, top);
        assert!(top.invert().mul(top).equals(Fe::ONE));
    }

    #[test]
    fn chains_match_bitwise_exponentiation() {
        let mut xs = tight_edges();
        xs.push(all_limbs(LOOSE));
        xs.into_iter().for_each(check_chains);
        let p_minus_1_over_4 = exponent(0xfb, 0x1f);
        assert_eq!(
            Fe::sqrt_m1().to_bytes(),
            fe(2).pow_bytes_le(&p_minus_1_over_4).to_bytes()
        );
    }

    #[test]
    fn invert_zero_is_zero() {
        assert!(Fe::ZERO.invert().is_zero());
        // p is zero too.
        assert!(tight_edges()[3].invert().is_zero());
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert!(fe(a).add(fe(b)).equals(fe(b).add(fe(a))));
        }

        #[test]
        fn prop_mul_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert!(fe(a).mul(fe(b)).equals(fe(b).mul(fe(a))));
        }

        #[test]
        fn prop_distributive(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let lhs = fe(a).mul(fe(b).add(fe(c)));
            let rhs = fe(a).mul(fe(b)).add(fe(a).mul(fe(c)));
            prop_assert!(lhs.equals(rhs));
        }

        #[test]
        fn prop_sub_add_roundtrip(a in any::<u64>(), b in any::<u64>()) {
            prop_assert!(fe(a).sub(fe(b)).add(fe(b)).equals(fe(a)));
        }

        #[test]
        fn prop_invert(a in 1u64..) {
            prop_assert!(fe(a).invert().mul(fe(a)).equals(Fe::ONE));
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in any::<[u8; 32]>()) {
            let mut b = bytes;
            b[31] &= 0x7f;
            // Skip the few non-canonical encodings in [p, 2^255).
            let x = Fe::from_bytes(&b);
            let rt = Fe::from_bytes(&x.to_bytes());
            prop_assert!(x.equals(rt));
        }

        #[test]
        fn prop_random_field_mul_assoc(a in any::<[u8;32]>(), b in any::<[u8;32]>(), c in any::<[u8;32]>()) {
            let (mut a, mut b, mut c) = (a, b, c);
            a[31] &= 0x7f; b[31] &= 0x7f; c[31] &= 0x7f;
            let (x, y, z) = (Fe::from_bytes(&a), Fe::from_bytes(&b), Fe::from_bytes(&c));
            prop_assert!(x.mul(y).mul(z).equals(x.mul(y.mul(z))));
        }

        #[test]
        fn prop_full_width_matches_reference(a in any::<[u8; 40]>(), b in any::<[u8; 40]>()) {
            check_against_reference(fe_below(TIGHT, &a), fe_below(TIGHT, &b));
        }

        #[test]
        fn prop_loose_multiplications_match_reference(a in any::<[u8; 40]>(), b in any::<[u8; 40]>()) {
            check_multiplications(fe_below(LOOSE, &a), fe_below(LOOSE, &b));
        }

        #[test]
        fn prop_full_width_chains(a in any::<[u8; 40]>()) {
            let x = fe_below(LOOSE, &a);
            check_chains(x);
            prop_assert!(x.is_zero() || x.invert().mul(x).equals(Fe::ONE));
        }
    }
}
