//! Eight X25519 ladders in the eight 64-bit lanes of AVX-512F registers:
//! one secret scalar, eight base points ([`crate::x25519::x25519_many`]
//! is the caller and decides what goes in a batch).
//!
//! Nothing is shared between the ladders — each lane walks RFC 7748's
//! ladder exactly as [`crate::x25519::x25519`] does, on its own base
//! point — so every lane's output is bit-equal to the scalar function,
//! which stays the fallback on every other host and the oracle of the
//! tests below. This is one of the crate's two `unsafe` modules, one per
//! kernel (the other is `sha256_ni`): it holds the intrinsics, one
//! unaligned store, and the two calls from safe code into
//! `#[target_feature]` code, each behind a runtime
//! `is_x86_feature_detected!("avx512f")`. Everything it exports is safe.
//!
//! # Representation and limb bounds
//!
//! A field element is ten limbs in radix 2^25.5 (ref10's layout,
//! unsigned): `value = Σ limb_i · 2^⌈25.5·i⌉`, even limbs 26 bits wide,
//! odd limbs 25. Limb `i` of all eight elements shares one `__m512i`, and
//! limb products are `_mm512_mul_epu32` (32 × 32 → 64 bits per lane), so
//! every multiplicand must stay below 2^32. As in [`crate::field`], two
//! bounds make up the contract and every operation `debug_assert`s, lane
//! by lane, the one it takes:
//!
//! - **tight**: even limbs `< 2^26 + 2^18`, odd limbs `< 2^25 + 2^18` —
//!   what `carry` (and so `mul`, `square`, `mul_small`) returns.
//! - **loose**: one `add_lazy` or `sub_lazy` (`a + 2p − b`, `b` tight)
//!   away from tight: even `< 2^27 + 2^26 + 2^18` (≈ 2^27.6), odd
//!   `< 2^26 + 2^25 + 2^18` (≈ 2^26.6). Accepted by `mul`, `square`,
//!   `mul_small`, so a lazy sum or difference may only feed a
//!   multiplication. Then every pre-scaled multiplicand (`19·g`, `2·f`,
//!   `38·f_odd`) is `< 2^32` and every column sum `< 2^63`.
//!
//! # Constant time
//!
//! `cswap` stays a mask: the only data-dependent quantity in this
//! module is `0 − bit` of the shared scalar, splatted across the lanes.
//! No branch, index or lane choice depends on the scalar or on any field
//! value; padding and batch boundaries (the caller's) depend on the
//! public peer count alone.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_mul_epu32, _mm512_set1_epi64,
    _mm512_set_epi64, _mm512_slli_epi64, _mm512_srli_epi64, _mm512_storeu_si512, _mm512_sub_epi64,
    _mm512_xor_si512,
};

use crate::field::Fe;
use crate::x25519::clamp;

const MASK26: u64 = (1 << 26) - 1;
const MASK25: u64 = (1 << 25) - 1;

/// Exclusive `(even, odd)` limb bounds; see the module docs.
type Bound = (u64, u64);
const TIGHT: Bound = ((1 << 26) + (1 << 18), (1 << 25) + (1 << 18));
const LOOSE: Bound = (TIGHT.0 + (1 << 27), TIGHT.1 + (1 << 26));

// The contract's arithmetic, checked where the constants are defined:
// scaled multiplicands fit `_mm512_mul_epu32`'s 32 bits, and the widest
// column of `mul` (h0: one plain, four ×19 even·even and five ×38 odd·odd
// products) stays below 2^63.
const _: () = {
    assert!(19 * LOOSE.0 < 1 << 32 && 38 * LOOSE.1 < 1 << 32);
    let column =
        77 * (LOOSE.0 as u128 * LOOSE.0 as u128) + 190 * (LOOSE.1 as u128 * LOOSE.1 as u128);
    assert!(column < 1 << 63);
};

/// `a0·b0 + a1·b1 + …` on the low 32 bits of each 64-bit lane.
macro_rules! dot {
    ($a:expr, $b:expr) => { _mm512_mul_epu32($a, $b) };
    ($a:expr, $b:expr, $($rest:expr),+) => {
        _mm512_add_epi64(_mm512_mul_epu32($a, $b), dot!($($rest),+))
    };
}

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

/// Carries ten column sums into a tight element: ref10's two interleaved
/// chains, the carry out of limb 9 folded back ×19 into limb 0, and one
/// trailing carry out of limb 0.
///
/// Input: every column `< 2^63`. Output: limb 1 `< 2^25 + 2^18`, limb 5
/// `< 2^25 + 2^13`, the others below their 26 / 25 bits.
#[inline]
#[target_feature(enable = "avx512f")]
fn carry(mut h: [__m512i; 10]) -> Fe8 {
    let (m26, m25) = (splat(MASK26), splat(MASK25));
    macro_rules! step {
        ($i:literal -> $j:literal, 26) => {
            h[$j] = _mm512_add_epi64(h[$j], _mm512_srli_epi64::<26>(h[$i]));
            h[$i] = _mm512_and_si512(h[$i], m26);
        };
        ($i:literal -> $j:literal, 25) => {
            h[$j] = _mm512_add_epi64(h[$j], _mm512_srli_epi64::<25>(h[$i]));
            h[$i] = _mm512_and_si512(h[$i], m25);
        };
    }
    step!(0 -> 1, 26);
    step!(4 -> 5, 26);
    step!(1 -> 2, 25);
    step!(5 -> 6, 25);
    step!(2 -> 3, 26);
    step!(6 -> 7, 26);
    step!(3 -> 4, 25);
    step!(7 -> 8, 25);
    step!(4 -> 5, 26);
    step!(8 -> 9, 26);
    // The top carry can exceed 32 bits, so ×19 is shifts and adds, not
    // a 32-bit multiply: 19c = 16c + 2c + c.
    let c = _mm512_srli_epi64::<25>(h[9]);
    h[9] = _mm512_and_si512(h[9], m25);
    let c19 = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_slli_epi64::<4>(c), _mm512_slli_epi64::<1>(c)),
        c,
    );
    h[0] = _mm512_add_epi64(h[0], c19);
    step!(0 -> 1, 26);
    Fe8(h)
}

/// Eight elements of GF(2^255 − 19), limb `i` of all eight in `self.0[i]`.
#[derive(Clone, Copy)]
struct Fe8([__m512i; 10]);

impl Fe8 {
    /// Input: every limb of every `Fe` `< 2^51 + 2^44` (in particular
    /// anything `Fe::from_bytes` returns). Output: tight.
    #[target_feature(enable = "avx512f")]
    fn load(fes: &[Fe; 8]) -> Fe8 {
        let mut limbs = [[0u64; 8]; 10];
        for (lane, fe) in fes.iter().enumerate() {
            for (i, &limb51) in fe.0.iter().enumerate() {
                limbs[2 * i][lane] = limb51 & MASK26;
                limbs[2 * i + 1][lane] = limb51 >> 26;
            }
        }
        let out = Fe8(limbs.map(|l| {
            let [l0, l1, l2, l3, l4, l5, l6, l7] = l.map(|x| x as i64);
            _mm512_set_epi64(l7, l6, l5, l4, l3, l2, l1, l0)
        }));
        debug_assert!(out.within(TIGHT));
        out
    }

    /// Input: tight. Output: tight in [`crate::field`]'s sense (every
    /// 51-bit limb `< 2^52`).
    #[target_feature(enable = "avx512f")]
    fn store(self) -> [Fe; 8] {
        debug_assert!(self.within(TIGHT));
        let limbs = self.0.map(|l| lanes(l));
        core::array::from_fn(|lane| {
            Fe(core::array::from_fn(|i| {
                limbs[2 * i][lane] + (limbs[2 * i + 1][lane] << 26)
            }))
        })
    }

    #[target_feature(enable = "avx512f")]
    fn within(self, (even, odd): Bound) -> bool {
        self.0.iter().enumerate().all(|(i, &limb)| {
            let bound = if i % 2 == 0 { even } else { odd };
            lanes(limb).iter().all(|&l| l < bound)
        })
    }

    #[target_feature(enable = "avx512f")]
    fn splat(fe: Fe) -> Fe8 {
        Fe8::load(&[fe; 8])
    }

    /// Limb-wise sum, no carry. Input: tight. Output: loose.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add_lazy(self, rhs: Fe8) -> Fe8 {
        debug_assert!(self.within(TIGHT) && rhs.within(TIGHT));
        let mut out = self.0;
        for i in 0..10 {
            out[i] = _mm512_add_epi64(out[i], rhs.0[i]);
        }
        Fe8(out)
    }

    /// Limb-wise `self + 2p − rhs`, no carry: every limb of `2p` is at
    /// least `2^26 − 2`, above any tight limb of its parity, so no lane
    /// goes negative. Input: tight. Output: loose.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sub_lazy(self, rhs: Fe8) -> Fe8 {
        debug_assert!(self.within(TIGHT) && rhs.within(TIGHT));
        let two_p = [
            splat(2 * (MASK26 - 18)),
            splat(2 * MASK25),
            splat(2 * MASK26),
        ];
        let mut out = self.0;
        for i in 0..10 {
            let bias = two_p[if i == 0 { 0 } else { 1 + (i + 1) % 2 }];
            out[i] = _mm512_sub_epi64(_mm512_add_epi64(out[i], bias), rhs.0[i]);
        }
        Fe8(out)
    }

    /// Field multiplication: ref10's hundred limb products, written out
    /// column by column (the same sums as a loop over `(i + j) % 10`
    /// compiled to code twice as slow as the scalar ladder).
    /// Input: loose. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul(self, rhs: Fe8) -> Fe8 {
        debug_assert!(self.within(LOOSE) && rhs.within(LOOSE));
        let [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9] = self.0;
        let [g0, g1, g2, g3, g4, g5, g6, g7, g8, g9] = rhs.0;
        let k19 = splat(19);
        // A product of limbs i and j lands in column (i + j) mod 10, ×19
        // if it wrapped past 2^255, ×2 if both limbs are odd (two
        // half-bits of radix 2^25.5 make a whole one).
        let g1_19 = _mm512_mul_epu32(g1, k19);
        let g2_19 = _mm512_mul_epu32(g2, k19);
        let g3_19 = _mm512_mul_epu32(g3, k19);
        let g4_19 = _mm512_mul_epu32(g4, k19);
        let g5_19 = _mm512_mul_epu32(g5, k19);
        let g6_19 = _mm512_mul_epu32(g6, k19);
        let g7_19 = _mm512_mul_epu32(g7, k19);
        let g8_19 = _mm512_mul_epu32(g8, k19);
        let g9_19 = _mm512_mul_epu32(g9, k19);
        let f1_2 = _mm512_add_epi64(f1, f1);
        let f3_2 = _mm512_add_epi64(f3, f3);
        let f5_2 = _mm512_add_epi64(f5, f5);
        let f7_2 = _mm512_add_epi64(f7, f7);
        let f9_2 = _mm512_add_epi64(f9, f9);
        #[rustfmt::skip]
        let h = [
            dot!(f0, g0, f1_2, g9_19, f2, g8_19, f3_2, g7_19, f4, g6_19, f5_2, g5_19, f6, g4_19, f7_2, g3_19, f8, g2_19, f9_2, g1_19),
            dot!(f0, g1, f1, g0, f2, g9_19, f3, g8_19, f4, g7_19, f5, g6_19, f6, g5_19, f7, g4_19, f8, g3_19, f9, g2_19),
            dot!(f0, g2, f1_2, g1, f2, g0, f3_2, g9_19, f4, g8_19, f5_2, g7_19, f6, g6_19, f7_2, g5_19, f8, g4_19, f9_2, g3_19),
            dot!(f0, g3, f1, g2, f2, g1, f3, g0, f4, g9_19, f5, g8_19, f6, g7_19, f7, g6_19, f8, g5_19, f9, g4_19),
            dot!(f0, g4, f1_2, g3, f2, g2, f3_2, g1, f4, g0, f5_2, g9_19, f6, g8_19, f7_2, g7_19, f8, g6_19, f9_2, g5_19),
            dot!(f0, g5, f1, g4, f2, g3, f3, g2, f4, g1, f5, g0, f6, g9_19, f7, g8_19, f8, g7_19, f9, g6_19),
            dot!(f0, g6, f1_2, g5, f2, g4, f3_2, g3, f4, g2, f5_2, g1, f6, g0, f7_2, g9_19, f8, g8_19, f9_2, g7_19),
            dot!(f0, g7, f1, g6, f2, g5, f3, g4, f4, g3, f5, g2, f6, g1, f7, g0, f8, g9_19, f9, g8_19),
            dot!(f0, g8, f1_2, g7, f2, g6, f3_2, g5, f4, g4, f5_2, g3, f6, g2, f7_2, g1, f8, g0, f9_2, g9_19),
            dot!(f0, g9, f1, g8, f2, g7, f3, g6, f4, g5, f5, g4, f6, g3, f7, g2, f8, g1, f9, g0),
        ];
        carry(h)
    }

    /// Field squaring: the 55 distinct limb products of `mul(self, self)`,
    /// the off-diagonal ones doubled. Input: loose. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn square(self) -> Fe8 {
        debug_assert!(self.within(LOOSE));
        let [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9] = self.0;
        let (k19, k38) = (splat(19), splat(38));
        let f0_2 = _mm512_add_epi64(f0, f0);
        let f1_2 = _mm512_add_epi64(f1, f1);
        let f2_2 = _mm512_add_epi64(f2, f2);
        let f3_2 = _mm512_add_epi64(f3, f3);
        let f4_2 = _mm512_add_epi64(f4, f4);
        let f5_2 = _mm512_add_epi64(f5, f5);
        let f6_2 = _mm512_add_epi64(f6, f6);
        let f7_2 = _mm512_add_epi64(f7, f7);
        let f5_38 = _mm512_mul_epu32(f5, k38);
        let f6_19 = _mm512_mul_epu32(f6, k19);
        let f7_38 = _mm512_mul_epu32(f7, k38);
        let f8_19 = _mm512_mul_epu32(f8, k19);
        let f9_38 = _mm512_mul_epu32(f9, k38);
        #[rustfmt::skip]
        let h = [
            dot!(f0, f0, f1_2, f9_38, f2_2, f8_19, f3_2, f7_38, f4_2, f6_19, f5, f5_38),
            dot!(f0_2, f1, f2, f9_38, f3_2, f8_19, f4, f7_38, f5_2, f6_19),
            dot!(f0_2, f2, f1_2, f1, f3_2, f9_38, f4_2, f8_19, f5_2, f7_38, f6, f6_19),
            dot!(f0_2, f3, f1_2, f2, f4, f9_38, f5_2, f8_19, f6, f7_38),
            dot!(f0_2, f4, f1_2, f3_2, f2, f2, f5_2, f9_38, f6_2, f8_19, f7, f7_38),
            dot!(f0_2, f5, f1_2, f4, f2_2, f3, f6, f9_38, f7_2, f8_19),
            dot!(f0_2, f6, f1_2, f5_2, f2_2, f4, f3_2, f3, f7_2, f9_38, f8, f8_19),
            dot!(f0_2, f7, f1_2, f6, f2_2, f5, f3_2, f4, f8, f9_38),
            dot!(f0_2, f8, f1_2, f7_2, f2_2, f6, f3_2, f5_2, f4, f4, f9, f9_38),
            dot!(f0_2, f9, f1_2, f8, f2_2, f7, f3_2, f6, f4_2, f5),
        ];
        carry(h)
    }

    /// `self` squared `k` times.
    #[target_feature(enable = "avx512f")]
    fn pow2k(self, k: u32) -> Fe8 {
        (0..k).fold(self, |x, _| x.square())
    }

    /// Multiplication by a constant below 2^17 (the ladder's 121 665):
    /// ten limb products. Input: loose. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul_small(self, k: u32) -> Fe8 {
        debug_assert!(self.within(LOOSE) && k < 1 << 17);
        let k = splat(u64::from(k));
        let mut h = self.0;
        for limb in &mut h {
            *limb = _mm512_mul_epu32(*limb, k);
        }
        carry(h)
    }

    /// `self^(p − 2)`, lane-wise: the addition chain of [`Fe::invert`]
    /// (zero for zero). Input: loose. Output: tight.
    #[target_feature(enable = "avx512f")]
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
    for i in 0..10 {
        let t = _mm512_and_si512(mask, _mm512_xor_si512(a.0[i], b.0[i]));
        a.0[i] = _mm512_xor_si512(a.0[i], t);
        b.0[i] = _mm512_xor_si512(b.0[i], t);
    }
}

/// [`crate::x25519::x25519`]'s ladder, step for step, on eight base
/// points. `k` is the clamped scalar.
#[target_feature(enable = "avx512f")]
fn ladder(k: &[u8; 32], us: &[[u8; 32]; 8]) -> [[u8; 32]; 8] {
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

        // As in the scalar ladder: every lazy sum or difference takes
        // tight operands and feeds a multiplication.
        let a = x2.add_lazy(z2);
        let aa = a.square();
        let b = x2.sub_lazy(z2);
        let bb = b.square();
        let e = aa.sub_lazy(bb);
        let c = x3.add_lazy(z3);
        let d = x3.sub_lazy(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add_lazy(cb).square();
        z3 = x1.mul(da.sub_lazy(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add_lazy(e.mul_small(121_665)));
    }
    let mask = splat(0u64.wrapping_sub(swap));
    cswap(mask, &mut x2, &mut x3);
    cswap(mask, &mut z2, &mut z3);
    x2.mul(z2.invert()).store().map(Fe::to_bytes)
}

/// `x25519(scalar, us[i])` for all eight `i` (the scalar is clamped
/// here, as there), or `None` on a host without AVX-512F.
#[must_use]
pub fn ladder8(scalar: &[u8; 32], us: &[[u8; 32]; 8]) -> Option<[[u8; 32]; 8]> {
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return None;
    }
    // SAFETY: avx512f was detected above.
    Some(unsafe { ladder(&clamp(*scalar), us) })
}

/// `(f · g^muls)^(2^squares)` in each lane, or `None` without AVX-512F:
/// the wide field arithmetic on its own, for the `field25` microbench
/// rows.
#[doc(hidden)]
#[must_use]
pub fn field_chain8(
    f: &[[u8; 32]; 8],
    g: &[[u8; 32]; 8],
    muls: u32,
    squares: u32,
) -> Option<[[u8; 32]; 8]> {
    #[target_feature(enable = "avx512f")]
    fn chain(f: &[[u8; 32]; 8], g: &[[u8; 32]; 8], muls: u32, squares: u32) -> [[u8; 32]; 8] {
        let g = Fe8::load(&g.map(|b| Fe::from_bytes(&b)));
        let f = Fe8::load(&f.map(|b| Fe::from_bytes(&b)));
        let f = (0..muls).fold(f, |acc, _| acc.mul(g));
        f.pow2k(squares).store().map(Fe::to_bytes)
    }
    if !std::arch::is_x86_feature_detected!("avx512f") {
        return None;
    }
    // SAFETY: avx512f was detected above.
    Some(unsafe { chain(f, g, muls, squares) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x25519::{x25519, BASE_POINT};
    use rand::{Rng, SeedableRng};

    const SKIPPED: &str = "x25519 wide path: skipped (no avx512f)";

    /// Runs `body` where the wide path can run at all.
    fn on_avx512f(body: unsafe fn()) {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            println!("{SKIPPED}");
            return;
        }
        // SAFETY: avx512f was detected above.
        unsafe { body() }
    }

    /// Ten limbs per lane, as written.
    type Limbs = [[u64; 10]; 8];

    #[target_feature(enable = "avx512f")]
    fn from_limbs(limbs: &Limbs) -> Fe8 {
        Fe8(core::array::from_fn(|i| {
            let l: [i64; 8] = core::array::from_fn(|lane| limbs[lane][i] as i64);
            _mm512_set_epi64(l[7], l[6], l[5], l[4], l[3], l[2], l[1], l[0])
        }))
    }

    /// The same integer as an [`Fe`]: loose here is loose there.
    fn fe_of(l: &[u64; 10]) -> Fe {
        Fe(core::array::from_fn(|i| l[2 * i] + (l[2 * i + 1] << 26)))
    }

    /// Every limb at `bound − 1`.
    fn all_limbs((even, odd): Bound) -> [u64; 10] {
        core::array::from_fn(|i| if i % 2 == 0 { even - 1 } else { odd - 1 })
    }

    fn below((even, odd): Bound, rng: &mut impl Rng) -> [u64; 10] {
        core::array::from_fn(|i| rng.gen::<u64>() % if i % 2 == 0 { even } else { odd })
    }

    /// 0, 1, p − 1, p, p + 1, 2^255 − 1, every limb at the tight maximum,
    /// and one random tight element: eight lanes, all tight.
    fn tight_edges(rng: &mut impl Rng) -> Limbs {
        let p = |limb0: u64| -> [u64; 10] {
            core::array::from_fn(|i| match i {
                0 => limb0,
                i if i % 2 == 0 => MASK26,
                _ => MASK25,
            })
        };
        let small = |v: u64| -> [u64; 10] { core::array::from_fn(|i| if i == 0 { v } else { 0 }) };
        [
            small(0),
            small(1),
            p(MASK26 - 19),
            p(MASK26 - 18),
            p(MASK26 - 17),
            p(MASK26),
            all_limbs(TIGHT),
            below(TIGHT, rng),
        ]
    }

    #[track_caller]
    #[target_feature(enable = "avx512f")]
    fn assert_lanes(got: Fe8, want: impl Fn(usize) -> Fe, what: &str) {
        assert!(got.within(TIGHT), "{what}: result not tight");
        for (lane, fe) in got.store().into_iter().enumerate() {
            assert_eq!(fe.to_bytes(), want(lane).to_bytes(), "{what}, lane {lane}");
        }
    }

    /// The multiplications (which accept loose operands) and `carry`,
    /// lane by lane against [`Fe`].
    #[target_feature(enable = "avx512f")]
    fn check_multiplications(a: &Limbs, b: &Limbs) {
        let (fa, fb) = (from_limbs(a), from_limbs(b));
        assert!(fa.within(LOOSE) && fb.within(LOOSE));
        assert_lanes(fa.mul(fb), |l| fe_of(&a[l]).mul(fe_of(&b[l])), "mul");
        assert_lanes(fa.square(), |l| fe_of(&a[l]).square(), "square");
        for k in [121_665, (1 << 17) - 1] {
            assert_lanes(fa.mul_small(k), |l| fe_of(&a[l]).mul_small(k), "mul_small");
        }
        assert_lanes(carry(fa.0), |l| fe_of(&a[l]), "carry");
    }

    /// The lazy forms on tight operands, each consumed by a
    /// multiplication the way the ladder step composes them.
    #[target_feature(enable = "avx512f")]
    fn check_lazy(a: &Limbs, b: &Limbs) {
        let (fa, fb) = (from_limbs(a), from_limbs(b));
        let (sum, diff) = (fa.add_lazy(fb), fa.sub_lazy(fb));
        assert!(sum.within(LOOSE) && diff.within(LOOSE));
        let want_sum = |l: usize| fe_of(&a[l]).add(fe_of(&b[l]));
        let want_diff = |l: usize| fe_of(&a[l]).sub(fe_of(&b[l]));
        assert_lanes(carry(sum.0), want_sum, "add_lazy");
        assert_lanes(carry(diff.0), want_diff, "sub_lazy");
        assert_lanes(
            diff.mul(sum),
            |l| want_diff(l).mul(want_sum(l)),
            "(a - b)(a + b)",
        );
        assert_lanes(diff.square(), |l| want_diff(l).square(), "(a - b)^2");
        assert_lanes(
            diff.mul_small(121_665),
            |l| want_diff(l).mul_small(121_665),
            "121665 (a - b)",
        );
    }

    #[test]
    fn edges_match_the_scalar_field() {
        #[target_feature(enable = "avx512f")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(25);
            let mut b = tight_edges(&mut rng);
            let a = b;
            // Every edge against every edge: rotate one side through the lanes.
            for _ in 0..8 {
                b.rotate_left(1);
                check_multiplications(&a, &b);
                check_lazy(&a, &b);
            }
        }
        on_avx512f(body);
    }

    #[test]
    fn loose_maximum_is_accepted_by_every_multiplication() {
        #[target_feature(enable = "avx512f")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(26);
            let top = [all_limbs(LOOSE); 8];
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
            // Columns at the documented ceiling still carry to tight.
            assert!(carry([splat((1 << 63) - 1); 10]).within(TIGHT));
        }
        on_avx512f(body);
    }

    /// The debug build is the one that checks the contract: a limb one
    /// past loose must stop `mul` there.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_reject_a_limb_past_loose() {
        #[target_feature(enable = "avx512f")]
        fn body() {
            let mut over = [all_limbs(LOOSE); 8];
            over[5][3] += 1;
            let mul = || from_limbs(&over).mul(from_limbs(&over)).within(TIGHT);
            assert!(std::panic::catch_unwind(mul).is_err());
        }
        on_avx512f(body);
    }

    #[test]
    fn random_limbs_match_the_scalar_field() {
        #[target_feature(enable = "avx512f")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(27);
            for _ in 0..64 {
                let a: Limbs = core::array::from_fn(|_| below(LOOSE, &mut rng));
                let b: Limbs = core::array::from_fn(|_| below(LOOSE, &mut rng));
                check_multiplications(&a, &b);
                let a: Limbs = core::array::from_fn(|_| below(TIGHT, &mut rng));
                let b: Limbs = core::array::from_fn(|_| below(TIGHT, &mut rng));
                check_lazy(&a, &b);
            }
        }
        on_avx512f(body);
    }

    #[test]
    fn inversion_matches_the_scalar_chain() {
        #[target_feature(enable = "avx512f")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(28);
            let x = tight_edges(&mut rng);
            assert_lanes(from_limbs(&x).invert(), |l| fe_of(&x[l]).invert(), "1 / x");
        }
        on_avx512f(body);
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
}
