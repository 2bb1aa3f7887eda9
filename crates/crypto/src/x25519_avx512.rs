//! Eight X25519 ladders in the eight 64-bit lanes of AVX-512 registers,
//! multiplied by AVX-512IFMA: one secret scalar, eight base points
//! ([`crate::x25519::x25519_many`] is the caller and decides what goes in
//! a batch).
//!
//! Nothing is shared between the ladders — each lane walks RFC 7748's
//! ladder exactly as [`crate::x25519::x25519`] does, on its own base
//! point — so every lane's output is bit-equal to the scalar function,
//! which stays the fallback on every other host (AVX-512F without IFMA
//! included) and the oracle of the tests below. This is one of the
//! crate's two `unsafe` modules, one per kernel (the other is
//! `sha256_ni`): it holds the intrinsics, one unaligned store, and the
//! two calls from safe code into `#[target_feature]` code, each behind a
//! runtime `is_x86_feature_detected!` of `avx512f` and `avx512ifma`.
//! Everything it exports is safe.
//!
//! # Representation and limb bounds
//!
//! A field element is five limbs in radix 2^51, [`Fe`]'s layout:
//! `value = Σ limb_i · 2^(51·i)`. Limb `i` of all eight elements shares
//! one `__m512i`, so `load` and `store` are transposes. A limb product is
//! a pair of multiply-adds, `_mm512_madd52lo_epu64` /
//! `_mm512_madd52hi_epu64`: the low and the high 52 bits of the 104-bit
//! product of the low 52 bits of each multiplicand, added into a 64-bit
//! accumulator. The low half of `a_i · b_j` goes to column `i + j` and,
//! as `2^52 = 2 · 2^51`, twice the high half to column `i + j + 1`;
//! columns 5..9 fold ×19 into columns 0..4 (`2^255 ≡ 19`), and one
//! parallel carry round finishes. `mul` is 25 + 25 multiply-adds,
//! `square` 15 + 15 and `mul_small` 5 + 5.
//!
//! IFMA reads only the low 52 bits of a multiplicand, so a limb at or
//! above 2^52 does not overflow: it silently gives a wrong product. Two
//! bounds make up the contract, and every operation `debug_assert`s,
//! lane by lane, the one it takes:
//!
//! - **reduced**: every limb `< 2^52`. Taken by `mul`, `square`,
//!   `mul_small` and `load`; every [`Fe`] that [`crate::field`] calls
//!   tight is reduced here.
//! - **tight**: every limb `< 2^51 + 2^16`. What `carry` returns from
//!   columns below 2^62, and so what every operation returns; tight is
//!   reduced.
//!
//! There is no lazy form: `add` and `sub` (`a + 2p − b`) carry once
//! before they feed a product, because the limb-wise sum of two tight
//! elements can reach 2^52. With both operands reduced each half-product
//! is below 2^52, so the widest column after the fold (column 0: one low
//! half, plus ×19 the four low and five doubled high halves of column 5)
//! is below `267 · 2^52 < 2^62`, which a `const` assertion beside the
//! bounds checks.
//!
//! # Constant time
//!
//! `cswap` stays a mask: the only data-dependent quantity in this
//! module is `0 − bit` of the shared scalar, splatted across the lanes.
//! No branch, index or lane choice depends on the scalar or on any field
//! value; padding and batch boundaries (the caller's) depend on the
//! public peer count alone.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_madd52hi_epu64, _mm512_madd52lo_epu64,
    _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64,
    _mm512_srli_epi64, _mm512_storeu_si512, _mm512_sub_epi64, _mm512_xor_si512,
};

use crate::field::Fe;
use crate::x25519::clamp;

const MASK51: u64 = (1 << 51) - 1;
/// Exclusive limb bound of a reduced element; see the module docs.
const REDUCED: u64 = 1 << 52;
/// Exclusive limb bound of a tight element.
const TIGHT: u64 = (1 << 51) + (1 << 16);
/// Exclusive bound of a column sum going into `carry`.
const COLUMN: u64 = 1 << 62;

// The contract's arithmetic, checked where the constants are defined: the
// widest column of `mul` and `square` stays below the ceiling `carry`
// takes; below that ceiling every carry out is under 2^11, so the carried
// limbs are tight; tight limbs are reduced; and every limb of `2p` covers
// a tight subtrahend.
const _: () = {
    let widest = (1 + 19 * (4 + 2 * 5)) * REDUCED as u128;
    assert!(widest < COLUMN as u128);
    assert!(MASK51 + 19 * (COLUMN >> 51) < TIGHT);
    assert!(TIGHT < REDUCED && TIGHT + TIGHT >= REDUCED);
    assert!(2 * (MASK51 - 18) >= TIGHT);
};

#[inline]
#[target_feature(enable = "avx512f")]
fn splat(v: u64) -> __m512i {
    _mm512_set1_epi64(v as i64)
}

#[inline]
#[target_feature(enable = "avx512f")]
fn lanes(v: __m512i) -> [u64; 8] {
    let mut out = [0u64; 8];
    // SAFETY: `out` is 64 writable bytes and the store is the unaligned
    // form.
    unsafe {
        _mm512_storeu_si512(out.as_mut_ptr().cast(), v);
    }
    out
}

/// Whether every lane of every vector is below `bound`.
#[target_feature(enable = "avx512f")]
fn all_below(vs: &[__m512i], bound: u64) -> bool {
    let mut ok = true;
    for &v in vs {
        for l in lanes(v) {
            ok &= l < bound;
        }
    }
    ok
}

/// `19 · x` in every lane, as `16x + 2x + x`. Input: every lane `< 2^59`.
#[inline]
#[target_feature(enable = "avx512f")]
fn times19(x: __m512i) -> __m512i {
    let x3 = _mm512_add_epi64(_mm512_add_epi64(x, x), x);
    _mm512_add_epi64(x3, _mm512_slli_epi64::<4>(x))
}

/// Carries five column sums into a tight element in one parallel round:
/// every limb keeps its low 51 bits and takes the carry out of the limb
/// below, the carry out of limb 4 folded back ×19 into limb 0.
///
/// Input: every column `< 2^62`. Output: tight.
#[inline]
#[target_feature(enable = "avx512f")]
fn carry(t: [__m512i; 5]) -> Fe8 {
    debug_assert!(all_below(&t, COLUMN));
    let mask = splat(MASK51);
    let mut out = t;
    for i in 0..5 {
        out[i] = _mm512_and_si512(t[i], mask);
    }
    for i in 0..4 {
        out[i + 1] = _mm512_add_epi64(out[i + 1], _mm512_srli_epi64::<51>(t[i]));
    }
    out[0] = _mm512_add_epi64(out[0], times19(_mm512_srli_epi64::<51>(t[4])));
    Fe8(out)
}

/// Sums ten columns of half-products — column `c` is `once[c] +
/// 2·twice[c]` — folds columns 5..9 ×19 into 0..4, and carries.
///
/// Input: the columns of a product of reduced elements. Output: tight.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold(once: [__m512i; 10], twice: [__m512i; 10]) -> Fe8 {
    let mut column = once;
    for c in 0..10 {
        column[c] = _mm512_add_epi64(once[c], _mm512_add_epi64(twice[c], twice[c]));
    }
    let mut t = [column[0]; 5];
    for k in 0..5 {
        t[k] = _mm512_add_epi64(column[k], times19(column[k + 5]));
    }
    carry(t)
}

/// Eight elements of GF(2^255 − 19), limb `i` of all eight in `self.0[i]`.
#[derive(Clone, Copy)]
struct Fe8([__m512i; 5]);

impl Fe8 {
    /// Input: every limb of every `Fe` reduced (anything
    /// `Fe::from_bytes` returns is tight). Output: the same limbs.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load(fes: &[Fe; 8]) -> Fe8 {
        let mut out = [_mm512_setzero_si512(); 5];
        for (i, limb) in out.iter_mut().enumerate() {
            let l: [i64; 8] = core::array::from_fn(|lane| fes[lane].0[i] as i64);
            *limb = _mm512_set_epi64(l[7], l[6], l[5], l[4], l[3], l[2], l[1], l[0]);
        }
        let out = Fe8(out);
        debug_assert!(out.within(REDUCED));
        out
    }

    /// Input: reduced. Output: the same limbs, tight in
    /// [`crate::field`]'s sense.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store(self) -> [Fe; 8] {
        debug_assert!(self.within(REDUCED));
        let mut out = [Fe::ZERO; 8];
        for (i, &limb) in self.0.iter().enumerate() {
            for (fe, l) in out.iter_mut().zip(lanes(limb)) {
                fe.0[i] = l;
            }
        }
        out
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn within(self, bound: u64) -> bool {
        all_below(&self.0, bound)
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat(fe: Fe) -> Fe8 {
        Fe8::load(&[fe; 8])
    }

    /// Field addition, carried. Input: tight. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add(self, rhs: Fe8) -> Fe8 {
        debug_assert!(self.within(TIGHT) && rhs.within(TIGHT));
        let mut t = self.0;
        for i in 0..5 {
            t[i] = _mm512_add_epi64(t[i], rhs.0[i]);
        }
        carry(t)
    }

    /// Field subtraction `self + 2p − rhs`, carried: every limb of `2p`
    /// is at least `2^52 − 38`, above any tight limb, so no lane goes
    /// negative. Input: tight. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sub(self, rhs: Fe8) -> Fe8 {
        debug_assert!(self.within(TIGHT) && rhs.within(TIGHT));
        let (two_p0, two_p) = (splat(2 * (MASK51 - 18)), splat(2 * MASK51));
        let mut t = self.0;
        for i in 0..5 {
            let bias = if i == 0 { two_p0 } else { two_p };
            t[i] = _mm512_sub_epi64(_mm512_add_epi64(t[i], bias), rhs.0[i]);
        }
        carry(t)
    }

    /// Field multiplication: the 25 limb products, each a low and a high
    /// multiply-add. Input: reduced. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul(self, rhs: Fe8) -> Fe8 {
        debug_assert!(self.within(REDUCED) && rhs.within(REDUCED));
        let (a, b) = (self.0, rhs.0);
        let mut once = [_mm512_setzero_si512(); 10];
        let mut twice = once;
        for i in 0..5 {
            for j in 0..5 {
                once[i + j] = _mm512_madd52lo_epu64(once[i + j], a[i], b[j]);
                twice[i + j + 1] = _mm512_madd52hi_epu64(twice[i + j + 1], a[i], b[j]);
            }
        }
        fold(once, twice)
    }

    /// Field squaring: the 15 distinct limb products of `mul(self,
    /// self)`. An off-diagonal product counts twice, so its low half
    /// joins the doubled column and its high half counts four times.
    /// Input: reduced. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn square(self) -> Fe8 {
        debug_assert!(self.within(REDUCED));
        let a = self.0;
        let mut once = [_mm512_setzero_si512(); 10];
        let (mut twice, mut four) = (once, once);
        for i in 0..5 {
            once[2 * i] = _mm512_madd52lo_epu64(once[2 * i], a[i], a[i]);
            twice[2 * i + 1] = _mm512_madd52hi_epu64(twice[2 * i + 1], a[i], a[i]);
            for j in i + 1..5 {
                twice[i + j] = _mm512_madd52lo_epu64(twice[i + j], a[i], a[j]);
                four[i + j + 1] = _mm512_madd52hi_epu64(four[i + j + 1], a[i], a[j]);
            }
        }
        for c in 0..10 {
            twice[c] = _mm512_add_epi64(twice[c], _mm512_add_epi64(four[c], four[c]));
        }
        fold(once, twice)
    }

    /// `self` squared `k` times.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn pow2k(self, k: u32) -> Fe8 {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Multiplication by a constant (the ladder's 121 665): five limb
    /// products. Input: reduced. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_small(self, k: u32) -> Fe8 {
        debug_assert!(self.within(REDUCED));
        let k = splat(u64::from(k));
        let mut once = [_mm512_setzero_si512(); 10];
        let mut twice = once;
        for i in 0..5 {
            once[i] = _mm512_madd52lo_epu64(once[i], self.0[i], k);
            twice[i + 1] = _mm512_madd52hi_epu64(twice[i + 1], self.0[i], k);
        }
        fold(once, twice)
    }

    /// `self^(p − 2)`, lane-wise: the addition chain of [`Fe::invert`]
    /// (zero for zero). Input: reduced. Output: tight.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn invert(self) -> Fe8 {
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
        // p - 2 = (2^250 - 1) · 2^5 + 11.
        e250.pow2k(5).mul(x11)
    }
}

/// Swaps `a` and `b` in every lane iff `mask` is all ones (it is all
/// ones or all zeros, the same in every lane).
#[inline]
#[target_feature(enable = "avx512f")]
fn cswap(mask: __m512i, a: &mut Fe8, b: &mut Fe8) {
    for i in 0..5 {
        let t = _mm512_and_si512(mask, _mm512_xor_si512(a.0[i], b.0[i]));
        a.0[i] = _mm512_xor_si512(a.0[i], t);
        b.0[i] = _mm512_xor_si512(b.0[i], t);
    }
}

/// [`crate::x25519::x25519`]'s ladder, step for step, on eight base
/// points. `k` is the clamped scalar.
#[target_feature(enable = "avx512f,avx512ifma")]
fn ladder(k: &[u8; 32], us: &[[u8; 32]; 8]) -> [[u8; 32]; 8] {
    // `Fe::from_bytes` returns limbs below 2^51: tight.
    let x1 = Fe8::load(&us.map(|u| Fe::from_bytes(&u)));
    let mut x2 = Fe8::splat(Fe::ONE);
    let mut z2 = Fe8::splat(Fe::ZERO);
    let mut x3 = x1;
    let mut z3 = x2;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        let mask = splat(0u64.wrapping_sub(swap ^ k_t));
        cswap(mask, &mut x2, &mut x3);
        cswap(mask, &mut z2, &mut z3);
        swap = k_t;

        // The scalar ladder's step, with every sum and difference
        // carried: all of them take tight operands, and every product
        // takes tight (so reduced) ones.
        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }
    let mask = splat(0u64.wrapping_sub(swap));
    cswap(mask, &mut x2, &mut x3);
    cswap(mask, &mut z2, &mut z3);
    x2.mul(z2.invert()).store().map(Fe::to_bytes)
}

/// Whether this CPU runs the kernel: AVX-512F for the registers, IFMA
/// for the products.
fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512ifma")
}

/// `x25519(scalar, us[i])` for all eight `i` (the scalar is clamped
/// here, as there), or `None` on a host without AVX-512IFMA.
#[must_use]
pub fn ladder8(scalar: &[u8; 32], us: &[[u8; 32]; 8]) -> Option<[[u8; 32]; 8]> {
    if !detected() {
        return None;
    }
    // SAFETY: avx512f and avx512ifma were detected above.
    Some(unsafe { ladder(&clamp(*scalar), us) })
}

/// `(f · g^muls)^(2^squares)` in each lane, or `None` without
/// AVX-512IFMA: the wide field arithmetic on its own, for the `field51x8`
/// microbench rows.
#[doc(hidden)]
#[must_use]
pub fn field_chain8(
    f: &[[u8; 32]; 8],
    g: &[[u8; 32]; 8],
    muls: u32,
    squares: u32,
) -> Option<[[u8; 32]; 8]> {
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn chain(f: &[[u8; 32]; 8], g: &[[u8; 32]; 8], muls: u32, squares: u32) -> [[u8; 32]; 8] {
        let g = Fe8::load(&g.map(|b| Fe::from_bytes(&b)));
        let mut f = Fe8::load(&f.map(|b| Fe::from_bytes(&b)));
        for _ in 0..muls {
            f = f.mul(g);
        }
        f.pow2k(squares).store().map(Fe::to_bytes)
    }
    if !detected() {
        return None;
    }
    // SAFETY: avx512f and avx512ifma were detected above.
    Some(unsafe { chain(f, g, muls, squares) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x25519::{x25519, BASE_POINT};
    use rand::{Rng, SeedableRng};

    const SKIPPED: &str = "x25519 wide path: skipped (no avx512ifma)";

    /// Runs `body` where the wide path can run at all.
    fn on_ifma(body: unsafe fn()) {
        if !detected() {
            println!("{SKIPPED}");
            return;
        }
        // SAFETY: avx512f and avx512ifma were detected above.
        unsafe { body() }
    }

    /// Five limbs per lane, as written.
    type Limbs = [[u64; 5]; 8];

    /// The limbs as they are, past any bound: `load` would check them.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn from_limbs(limbs: &Limbs) -> Fe8 {
        Fe8(core::array::from_fn(|i| {
            let l: [i64; 8] = core::array::from_fn(|lane| limbs[lane][i] as i64);
            _mm512_set_epi64(l[7], l[6], l[5], l[4], l[3], l[2], l[1], l[0])
        }))
    }

    /// Every limb at `bound − 1`.
    fn all_limbs(bound: u64) -> [u64; 5] {
        [bound - 1; 5]
    }

    fn below(bound: u64, rng: &mut impl Rng) -> [u64; 5] {
        core::array::from_fn(|_| rng.gen::<u64>() % bound)
    }

    /// 0, 1, p − 1, p, p + 1, 2^255 − 1, every limb at the tight maximum,
    /// and one random tight element: eight lanes, all tight.
    fn tight_edges(rng: &mut impl Rng) -> Limbs {
        let p = |limb0: u64| [limb0, MASK51, MASK51, MASK51, MASK51];
        [
            [0; 5],
            [1, 0, 0, 0, 0],
            p(MASK51 - 19),
            p(MASK51 - 18),
            p(MASK51 - 17),
            p(MASK51),
            all_limbs(TIGHT),
            below(TIGHT, rng),
        ]
    }

    #[track_caller]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn assert_lanes(got: Fe8, want: impl Fn(usize) -> Fe, what: &str) {
        assert!(got.within(TIGHT), "{what}: result not tight");
        for (lane, fe) in got.store().into_iter().enumerate() {
            assert_eq!(fe.to_bytes(), want(lane).to_bytes(), "{what}, lane {lane}");
        }
    }

    /// The multiplications (which take reduced operands) and `carry`,
    /// lane by lane against [`Fe`]: the same limbs are the same integer
    /// there, and reduced is tight there.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn check_multiplications(a: &Limbs, b: &Limbs) {
        let (fa, fb) = (from_limbs(a), from_limbs(b));
        assert!(fa.within(REDUCED) && fb.within(REDUCED));
        assert_lanes(fa.mul(fb), |l| Fe(a[l]).mul(Fe(b[l])), "mul");
        assert_lanes(fa.square(), |l| Fe(a[l]).square(), "square");
        for k in [121_665, u32::MAX] {
            assert_lanes(fa.mul_small(k), |l| Fe(a[l]).mul_small(k), "mul_small");
        }
        assert_lanes(carry(fa.0), |l| Fe(a[l]), "carry");
    }

    /// `add` and `sub` on tight operands, each consumed by a
    /// multiplication the way the ladder step composes them.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn check_add_sub(a: &Limbs, b: &Limbs) {
        let (fa, fb) = (from_limbs(a), from_limbs(b));
        let (sum, diff) = (fa.add(fb), fa.sub(fb));
        let want_sum = |l: usize| Fe(a[l]).add(Fe(b[l]));
        let want_diff = |l: usize| Fe(a[l]).sub(Fe(b[l]));
        assert_lanes(sum, want_sum, "add");
        assert_lanes(diff, want_diff, "sub");
        assert_lanes(
            diff.mul(sum),
            |l| want_diff(l).mul(want_sum(l)),
            "(a - b)(a + b)",
        );
        assert_lanes(diff.square(), |l| want_diff(l).square(), "(a - b)^2");
        assert_lanes(
            sum.mul_small(121_665),
            |l| want_sum(l).mul_small(121_665),
            "121665 (a + b)",
        );
    }

    #[test]
    fn edges_match_the_scalar_field() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(25);
            let mut b = tight_edges(&mut rng);
            let a = b;
            // Every edge against every edge: rotate one side through the lanes.
            for _ in 0..8 {
                b.rotate_left(1);
                check_multiplications(&a, &b);
                check_add_sub(&a, &b);
            }
        }
        on_ifma(body);
    }

    #[test]
    fn reduced_maximum_is_accepted_by_every_multiplication() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(26);
            let top = [all_limbs(REDUCED); 8];
            check_multiplications(&top, &top);
            let mut mixed = tight_edges(&mut rng);
            for _ in 0..8 {
                mixed.rotate_left(1);
                check_multiplications(&top, &mixed);
                check_multiplications(&mixed, &top);
            }
            assert_lanes(
                from_limbs(&top).invert().mul(from_limbs(&top)),
                |_| Fe::ONE,
                "x / x",
            );
            // The sum and difference of two tight maxima, through a product.
            let tight = [all_limbs(TIGHT); 8];
            check_add_sub(&tight, &tight);
            check_add_sub(&tight, &[[0; 5]; 8]);
            check_add_sub(&[[0; 5]; 8], &tight);
            // Columns at the documented ceiling still carry to tight.
            assert!(carry([splat(COLUMN - 1); 5]).within(TIGHT));
        }
        on_ifma(body);
    }

    /// Release IFMA would silently drop bit 52 of a multiplicand, so the
    /// debug build's assertion is the only guard: a limb at 2^52 must stop
    /// every multiplication there.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_reject_a_limb_at_2_52() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut over = [all_limbs(REDUCED); 8];
            over[5][3] = REDUCED;
            let x = from_limbs(&over);
            let ok = from_limbs(&[[1, 0, 0, 0, 0]; 8]);
            assert!(std::panic::catch_unwind(|| x.mul(ok).within(TIGHT)).is_err());
            assert!(std::panic::catch_unwind(|| ok.mul(x).within(TIGHT)).is_err());
            assert!(std::panic::catch_unwind(|| x.square().within(TIGHT)).is_err());
            assert!(std::panic::catch_unwind(|| x.mul_small(1).within(TIGHT)).is_err());
        }
        on_ifma(body);
    }

    #[test]
    fn random_limbs_match_the_scalar_field() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(27);
            for _ in 0..64 {
                let a: Limbs = core::array::from_fn(|_| below(REDUCED, &mut rng));
                let b: Limbs = core::array::from_fn(|_| below(REDUCED, &mut rng));
                check_multiplications(&a, &b);
                let a: Limbs = core::array::from_fn(|_| below(TIGHT, &mut rng));
                let b: Limbs = core::array::from_fn(|_| below(TIGHT, &mut rng));
                check_add_sub(&a, &b);
            }
        }
        on_ifma(body);
    }

    #[test]
    fn inversion_matches_the_scalar_chain() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(28);
            let x = tight_edges(&mut rng);
            assert_lanes(from_limbs(&x).invert(), |l| Fe(x[l]).invert(), "1 / x");
        }
        on_ifma(body);
    }

    #[test]
    fn field_chain_matches_the_scalar_field() {
        let (f, g) = ([[0x5au8; 32]; 8], [[0x33u8; 32]; 8]);
        let Some(got) = field_chain8(&f, &g, 3, 2) else {
            println!("{SKIPPED}");
            return;
        };
        let (x, y) = (Fe::from_bytes(&f[0]), Fe::from_bytes(&g[0]));
        let want = x.mul(y).mul(y).mul(y).square().square().to_bytes();
        assert_eq!(got, [want; 8]);
    }

    fn unhex32(s: &str) -> [u8; 32] {
        core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
    }

    #[test]
    fn rfc7748_vectors_in_every_lane() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let Some(got) = ladder8(&scalar, &[u; 8]) else {
            println!("{SKIPPED}");
            return;
        };
        let want = unhex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(got, [want; 8]);

        // RFC 7748 §5.2's iterated vector, eight identical lanes a step.
        let (mut k, mut u) = (BASE_POINT, BASE_POINT);
        for i in 1..=1000 {
            let out = ladder8(&k, &[u; 8]).expect("detected above");
            assert_eq!(out, [out[0]; 8], "step {i}");
            if i % 100 == 1 {
                assert_eq!(out[0], x25519(&k, &u), "step {i}");
            }
            (k, u) = (out[0], k);
        }
        assert_eq!(
            k,
            unhex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")
        );
    }

    /// The whole kernel against the scalar ladder — in a release run, as
    /// the optimiser compiles it: random batches under random scalars,
    /// one edge u-coordinate per batch walked through every lane.
    #[test]
    fn random_batches_match_the_scalar_ladder() {
        let le = |low: u8, top: u8| -> [u8; 32] {
            core::array::from_fn(|i| match i {
                0 => low,
                31 => top,
                _ => 0xff,
            })
        };
        let mut edges = vec![
            [0; 32],
            Fe::ONE.to_bytes(),
            le(0xec, 0x7f), // p − 1
            le(0xed, 0x7f), // p
            le(0xee, 0x7f), // p + 1
            le(0xff, 0x7f), // 2^255 − 1
            le(0xff, 0xff), // 2^256 − 1
            unhex32("0900000000000000000000000000000000000000000000000000000000000080"),
            unhex32("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
            unhex32("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
        ];
        // Eleven edges, coprime to eight lanes: every 88 batches put every
        // edge in every lane.
        edges.push(BASE_POINT);
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut random32 = || {
            let mut b = [0u8; 32];
            rng.fill(&mut b[..]);
            b
        };
        for batch in 0..1_000 {
            let scalar = random32();
            let mut us: [[u8; 32]; 8] = core::array::from_fn(|_| random32());
            us[batch % 8] = edges[batch % edges.len()];
            let Some(got) = ladder8(&scalar, &us) else {
                println!("{SKIPPED}");
                return;
            };
            for (lane, u) in us.iter().enumerate() {
                assert_eq!(got[lane], x25519(&scalar, u), "batch {batch}, lane {lane}");
            }
        }
    }
}
