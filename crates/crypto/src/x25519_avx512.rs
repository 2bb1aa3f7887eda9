//! The crate's IFMA kernels: eight X25519 ladders, or two edwards25519
//! points, in the eight 64-bit lanes of AVX-512 registers, multiplied by
//! AVX-512IFMA. Both run on one field arithmetic, `Fe8`.
//!
//! - **Eight ladders** (`ladder8`): one secret scalar, eight base points
//!   (`crate::x25519::x25519_many` is the caller and decides what goes
//!   in a batch). Nothing is shared between the ladders — each lane walks
//!   RFC 7748's ladder exactly as [`crate::x25519::x25519`] does, on its
//!   own base point — so every lane's output is bit-equal to the scalar
//!   function.
//! - **The Edwards pair** (`mul_pair`, `vartime_straus_pair`): two points
//!   × four extended coordinates `(X, Y, Z, T)`, one point per group of
//!   four lanes, in the four-way formulas of Hisil–Wong–Carter–Dawson
//!   (the arrangement of curve25519-dalek's IFMA backend): a doubling is
//!   one squaring and one multiplication of all eight lanes, an addition
//!   two multiplications, and lane permutes do the shuffles in between.
//!   `crate::ed25519::Point::{mul_scalar2, are_torsion_free,
//!   vartime_straus2}` are the callers: the VRF's two secret products
//!   `x·H` and `k·H`, the subgroup check of two proofs' `Γ`, and a
//!   verification's two Straus chains. Every group computes the group
//!   element the scalar forms compute, so encodings are bit-equal to
//!   theirs.
//! - **The comb pass** (`comb_pass`), on the same pair: products read
//!   off a comb, whose row `i` holds the eight multiples `(j+1)·16^i·P`
//!   (`ed25519::CombRow`), rows `0..32` in lane group 0 and `32..64` in
//!   lane group 1. A step loads a row pair's entries as its masked scan
//!   reaches them (`select_row`) and adds the one each group's digit
//!   names: one pair addition a step and no doubling; one more addition
//!   (`join`) sums the two groups' halves. Two callers: `mul_base_pair`,
//!   every `s·B` of `Point::mul_base` from the static base comb (affine
//!   entries, so `2Z = 2` is filled in on the load), 33 additions; and
//!   `mul_comb_pair`, `Comb::mul2`'s `[a·P, b·P]` from a comb that
//!   `build_comb` built once from a public `P` (128 doublings to reach
//!   `16^32·P`, then 32 row pairs of seven additions and one doubling),
//!   both products in one pass of 32 steps, 65 additions.
//!
//! The scalar forms stay the fallback on every other host (AVX-512F
//! without IFMA included) and the oracle of the tests below; a host
//! without IFMA builds no comb and multiplies by `mul_scalar2` instead,
//! so the built comb has no scalar twin. This is one of the crate's
//! three `unsafe` modules (the others are `chacha20_avx512` and
//! `sha256_ni`): it holds the intrinsics, one unaligned store, the comb
//! rows' loads (each reads exactly the row words it is given),
//! and the seven calls from safe code into `#[target_feature]` code, each
//! behind a runtime `is_x86_feature_detected!` of `avx512f` and
//! `avx512ifma`. Everything it exports is safe.
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
//! The Edwards pair keeps the same contract: every sum and difference
//! that feeds a product is carried, several of them at once where a lane
//! adds and subtracts more than two terms (`combine`), and the curve
//! constant enters as small multipliers (`Cached2`). Comb entries come in
//! tight: the static ones are canonical limbs, the built ones the words a
//! tight `Cached2` was stored as, and `load_entry` asserts it.
//!
//! # Constant time
//!
//! `cswap` stays a mask: the only data-dependent quantity in the ladder
//! is `0 − bit` of the shared scalar, splatted across the lanes. No
//! branch, index or lane choice depends on the scalar or on any field
//! value; padding and batch boundaries (the caller's) depend on the
//! public peer count alone.
//!
//! `mul_pair` runs `ed25519::Point::mul_scalar`'s schedule: the same
//! doublings and additions for every pair of scalars, and each group's
//! table entry picked by a masked scan of the whole table and a masked
//! negation, the masks computed from the digits as data. No branch,
//! index or lane choice depends on a digit. The comb pass keeps the same
//! contract: every row pair is read, all of it and in order, and the
//! entry is picked by the same masked scan (`scan`, shared by `select`
//! and `select_row`), so the loads' addresses depend on the step alone.
//! The point a comb is built from is public. `vartime_straus_pair`
//! branches on and indexes by its NAF digits: **public inputs only**.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_loadu_si512, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_maskz_expandloadu_epi64, _mm512_or_si512,
    _mm512_permutex2var_epi64, _mm512_permutexvar_epi64, _mm512_set1_epi64, _mm512_set_epi64,
    _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srai_epi64, _mm512_srli_epi64,
    _mm512_storeu_si512, _mm512_sub_epi64, _mm512_ternarylogic_epi64, _mm512_xor_si512,
};

use crate::ed25519::CombRow;
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
        Fe8::combine([self, rhs], [])
    }

    /// Field subtraction `self + 2p − rhs`, carried. Input: tight.
    /// Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sub(self, rhs: Fe8) -> Fe8 {
        Fe8::combine([self], [rhs])
    }

    /// `Σ plus − Σ minus`, carried once: each subtrahend comes with `2p`,
    /// whose every limb covers a tight one, so no lane goes negative, and
    /// eight tight terms with their offsets sum below `2^55`, far under
    /// what `carry` takes. Input: tight. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn combine<const P: usize, const M: usize>(plus: [Fe8; P], minus: [Fe8; M]) -> Fe8 {
        debug_assert!(P + M <= 8);
        debug_assert!(plus.iter().chain(&minus).all(|x| x.within(TIGHT)));
        let (two_p0, two_p) = (splat(2 * (MASK51 - 18)), splat(2 * MASK51));
        let mut t = [_mm512_setzero_si512(); 5];
        for x in &plus {
            for i in 0..5 {
                t[i] = _mm512_add_epi64(t[i], x.0[i]);
            }
        }
        for x in &minus {
            for i in 0..5 {
                let bias = if i == 0 { two_p0 } else { two_p };
                t[i] = _mm512_sub_epi64(_mm512_add_epi64(t[i], bias), x.0[i]);
            }
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
        self.mul_lanes(splat(u64::from(k)))
    }

    /// Multiplication by a small constant per lane, each below 2^32.
    /// Input: reduced. Output: tight.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_lanes(self, k: __m512i) -> Fe8 {
        debug_assert!(self.within(REDUCED) && all_below(&[k], 1 << 32));
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

// ---------------------------------------------------------------------------
// Two edwards25519 points per pass.
// ---------------------------------------------------------------------------

/// The index vector that moves lane `from[c]` of each group to its lane
/// `c`; an index of 4 or more reads lane `from[c] − 4` of a second
/// operand (`_mm512_permutex2var_epi64` reads bit 3 of each index).
#[inline]
#[target_feature(enable = "avx512f")]
fn group_index(from: [u8; 4]) -> __m512i {
    // Lane 4 + c of the result reads index 4 + from[c]: the second group
    // of the same source, with the second-operand bit moved up to bit 3.
    let at = |c: usize, g: u8| {
        let (lane, second) = (from[c] % 4, from[c] / 4);
        i64::from(8 * second + 4 * g + lane)
    };
    _mm512_set_epi64(
        at(3, 1),
        at(2, 1),
        at(1, 1),
        at(0, 1),
        at(3, 0),
        at(2, 0),
        at(1, 0),
        at(0, 0),
    )
}

impl Fe8 {
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn zero() -> Fe8 {
        Fe8([_mm512_setzero_si512(); 5])
    }

    /// Coordinate `c` of each group takes coordinate `from[c]` of the
    /// same group.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn permute(self, from: [u8; 4]) -> Fe8 {
        let idx = group_index(from);
        let mut out = self.0;
        for limb in &mut out {
            *limb = _mm512_permutexvar_epi64(idx, *limb);
        }
        Fe8(out)
    }

    /// Coordinate `c` of each group from `self` (`from[c] < 4`) or from
    /// `other` (`from[c] − 4`), same group.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn shuffle2(self, other: Fe8, from: [u8; 4]) -> Fe8 {
        let idx = group_index(from);
        let mut out = self.0;
        for i in 0..5 {
            out[i] = _mm512_permutex2var_epi64(self.0[i], idx, other.0[i]);
        }
        Fe8(out)
    }

    /// `other` in every lane where `mask` is all ones, `self` where it is
    /// zero: the `cswap` idiom, no branch and no lane choice.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn cmov(self, mask: __m512i, other: Fe8) -> Fe8 {
        let mut out = self.0;
        for i in 0..5 {
            // Bitwise `mask ? other : self`: truth table 0xca.
            out[i] = _mm512_ternarylogic_epi64::<0xca>(mask, other.0[i], self.0[i]);
        }
        Fe8(out)
    }
}

/// Two edwards25519 points, one per lane group: lanes `4g..4g + 4` of
/// every limb hold point `g`'s extended coordinates `(X, Y, Z, T)`.
/// Tight.
#[derive(Clone, Copy)]
struct Ext2(Fe8);

/// Two points prepared as the second operand of an addition: `λ·(Y − X,
/// Y + X, 2Z, 2d·T)` per group with `λ = 121 666`, so that `2d·λ =
/// −2 · 121 665` is a small constant. `λ` is a projective scale: a sum
/// with it comes out scaled by `λ²` in all four coordinates, the same
/// point. Tight.
#[derive(Clone, Copy)]
struct Cached2(Fe8);

/// The identity `(0 : 1 : 1 : 0)`.
const IDENTITY: [Fe; 4] = [Fe::ZERO, Fe::ONE, Fe::ONE, Fe::ZERO];

impl Ext2 {
    /// Input: every coordinate reduced (a [`Fe`] that [`crate::field`]
    /// calls tight is). Output: the same points, tight.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load(points: &[[Fe; 4]; 2]) -> Ext2 {
        let [p, q] = points;
        let fes = [p[0], p[1], p[2], p[3], q[0], q[1], q[2], q[3]];
        Ext2(carry(Fe8::load(&fes).0))
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store(self) -> [[Fe; 4]; 2] {
        let [x0, y0, z0, t0, x1, y1, z1, t1] = self.0.store();
        [[x0, y0, z0, t0], [x1, y1, z1, t1]]
    }

    /// `(Y − X, Y + X, Z, T)` per group.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn diff_sum(self) -> Fe8 {
        let (p, zero) = (self.0, Fe8::zero());
        // (Y, Y, Z, T) + (0, X, 0, 0) − (X, 0, 0, 0)
        Fe8::combine(
            [p.permute([1, 1, 2, 3]), p.shuffle2(zero, [4, 0, 4, 4])],
            [p.shuffle2(zero, [0, 4, 4, 4])],
        )
    }

    /// Doubling, "dbl-2008-hwcd" for a = −1 (Hisil–Wong–Carter–Dawson)
    /// in the four-lane arrangement of curve25519-dalek's vector
    /// backends: one squaring of `(X, Y, Z, X+Y)` and one multiplication. With `S1..S4` the four squares, `S5 = S1 +
    /// S2`, `S6 = S1 − S2`, `S8 = S6 + 2·S3` and `S9 = S5 − S4`, the
    /// result is `(S8·S9, S5·S6, S8·S6, S5·S9)` — `(E·F, G·H, F·G, E·H)`
    /// with every factor negated, the same point. Valid for every point.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn double(self) -> Ext2 {
        let (p, zero) = (self.0, Fe8::zero());
        // (X, Y, Z, X) + (0, 0, 0, Y), squared.
        let s = Fe8::combine(
            [p.permute([0, 1, 2, 0]), p.shuffle2(zero, [4, 4, 4, 1])],
            [],
        )
        .square();
        // (S5, S6, S8, S9) = S1 + (S2, 0, 2·S3, S2) − (0, S2, S2, S4)
        let s3 = s.shuffle2(zero, [4, 4, 2, 4]);
        let t = Fe8::combine(
            [s.permute([0; 4]), s.shuffle2(zero, [1, 4, 4, 1]), s3, s3],
            [s.shuffle2(zero, [4, 1, 1, 3])],
        );
        // (S8, S5, S8, S5) · (S9, S6, S6, S9)
        Ext2(t.permute([2, 0, 2, 0]).mul(t.permute([3, 1, 1, 3])))
    }

    /// The unified addition "add-2008-hwcd-3" in the four-lane
    /// arrangement: `(Y1−X1, Y1+X1, Z1, T1) · (Y2−X2, Y2+X2, 2Z2, 2d·T2)`
    /// gives `(A, B, D, C)`; `E = B − A`, `H = B + A`, `F = D − C` and
    /// `G = D + C` come out of one difference and one sum, and
    /// `(E, G, G, E) · (F, H, F, H)` is the sum. Valid for every pair of
    /// curve points.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn add(self, q: &Cached2) -> Ext2 {
        let m = self.diff_sum().mul(q.0);
        let (x, y) = (m.permute([1, 1, 2, 2]), m.permute([0, 0, 3, 3]));
        // (E, E, F, F) and (H, H, G, G): indices 4.. read the sums.
        let (diff, sum) = (x.sub(y), x.add(y));
        let left = diff.shuffle2(sum, [0, 6, 6, 0]);
        let right = diff.shuffle2(sum, [2, 4, 2, 4]);
        Ext2(left.mul(right))
    }

    /// The cached form `λ·(Y − X, Y + X, 2Z, 2d·T)`: a multiplication by
    /// small constants per lane and a negation of the `T` lane.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn cache(self) -> Cached2 {
        const LAMBDA: i64 = 121_666;
        let k = _mm512_set_epi64(
            2 * (LAMBDA - 1),
            2 * LAMBDA,
            LAMBDA,
            LAMBDA,
            2 * (LAMBDA - 1),
            2 * LAMBDA,
            LAMBDA,
            LAMBDA,
        );
        let scaled = self.diff_sum().mul_lanes(k);
        Cached2(scaled.shuffle2(Fe8::zero().sub(scaled), [0, 1, 2, 7]))
    }

    /// `self + j·step` for `j = 0..8`, cached.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn progression(self, step: &Cached2) -> [Cached2; 8] {
        let mut next = self;
        let mut table = [self.cache(); 8];
        for entry in &mut table[1..] {
            next = next.add(step);
            *entry = next.cache();
        }
        table
    }
}

impl Cached2 {
    /// The negated points: `Y − X` and `Y + X` trade places, `T` flips.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn neg(self) -> Cached2 {
        let c = self.0;
        Cached2(c.shuffle2(Fe8::zero().sub(c), [1, 0, 2, 7]))
    }
}

/// `digits[g] · P_g` from `table[j] = (j+1)·P` per group, for digits in
/// `[−8, 8]`: every entry scanned under a mask and a masked negation, so
/// neither the operations, the addresses loaded nor the lanes chosen
/// depend on a digit (the masks are data, as in `cswap`).
#[target_feature(enable = "avx512f,avx512ifma")]
fn select(table: &[Cached2; 8], identity: &Cached2, digits: [i8; 2]) -> Cached2 {
    scan(|j| table[j], identity, digits)
}

/// The masked scan of [`select`] and [`select_row`] over `entry(j) =
/// (j+1)·P` for `j = 0..8`, each entry read once, in order.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn scan(entry: impl Fn(usize) -> Cached2, identity: &Cached2, digits: [i8; 2]) -> Cached2 {
    // Per digit: its sign as 0 or −1 and its magnitude, without a branch.
    let sign = digits.map(|d| d >> 7);
    let magnitude = [0, 1].map(|g| i64::from((digits[g] ^ sign[g]).wrapping_sub(sign[g])));
    let per_group = |v: [i64; 2]| _mm512_set_epi64(v[1], v[1], v[1], v[1], v[0], v[0], v[0], v[0]);
    let magnitude = per_group(magnitude);
    let mut chosen = identity.0;
    for (j, m) in (0..8).zip(1..) {
        // (m ^ magnitude) − 1 has its top bit set iff magnitude == m.
        let hit = _mm512_srai_epi64::<63>(_mm512_sub_epi64(
            _mm512_xor_si512(magnitude, splat(m)),
            splat(1),
        ));
        chosen = chosen.cmov(hit, entry(j).0);
    }
    let negative = per_group(sign.map(i64::from));
    let chosen = Cached2(chosen);
    Cached2(chosen.0.cmov(negative, chosen.neg().0))
}

/// [`mul_pair`]'s body: the schedule of `ed25519::Point::mul_scalar` in
/// both groups at once.
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_pair_wide(points: &[[Fe; 4]; 2], digits: &[[i8; 64]; 2]) -> [[Fe; 4]; 2] {
    let p = Ext2::load(points);
    let table = p.progression(&p.cache());
    let identity = Ext2::load(&[IDENTITY; 2]);
    let cached_identity = identity.cache();
    let digit = |i: usize| [digits[0][i], digits[1][i]];
    let mut acc = identity.add(&select(&table, &cached_identity, digit(63)));
    for i in (0..63).rev() {
        let window = acc.double().double().double().double();
        acc = window.add(&select(&table, &cached_identity, digit(i)));
    }
    acc.store()
}

/// [`vartime_straus_pair`]'s body.
#[target_feature(enable = "avx512f,avx512ifma")]
fn vartime_straus_wide(
    firsts: &[[Fe; 4]; 2],
    seconds: &[[Fe; 4]; 2],
    nafs: [&[i8; 256]; 2],
) -> [[Fe; 4]; 2] {
    let odd_multiples = |points: &[[Fe; 4]; 2]| {
        let p = Ext2::load(points);
        p.progression(&p.double().cache())
    };
    let tables = [odd_multiples(firsts), odd_multiples(seconds)];
    let mut acc = Ext2::load(&[IDENTITY; 2]);
    for i in (0..256).rev() {
        acc = acc.double();
        for (naf, table) in nafs.iter().zip(&tables) {
            let digit = naf[i];
            if digit != 0 {
                let multiple = table[usize::from(digit.unsigned_abs() / 2)];
                let signed = if digit < 0 { multiple.neg() } else { multiple };
                acc = acc.add(&signed);
            }
        }
    }
    acc.store()
}

// ---------------------------------------------------------------------------
// Comb passes: fixed-base products with no doubling.
// ---------------------------------------------------------------------------

/// All ones in the lanes of group 1.
#[inline]
#[target_feature(enable = "avx512f")]
fn group1() -> __m512i {
    _mm512_set_epi64(-1, -1, -1, -1, 0, 0, 0, 0)
}

impl Fe8 {
    /// The two lane groups trade places.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn swap_groups(self) -> Fe8 {
        let idx = _mm512_set_epi64(3, 2, 1, 0, 7, 6, 5, 4);
        let mut out = self.0;
        for limb in &mut out {
            *limb = _mm512_permutexvar_epi64(idx, *limb);
        }
        Fe8(out)
    }
}

/// [`select`] from comb row pair `row`: row `i` in group 0 and row
/// `32 + i` in group 1 (see `ed25519::CombRow`), each entry loaded as
/// the scan reaches it. The addresses read depend on the row alone.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn select_row<const W: usize>(row: &CombRow<W>, identity: &Cached2, digits: [i8; 2]) -> Cached2 {
    scan(|j| load_entry(&row[j]), identity, digits)
}

/// One entry of a comb row pair, cached. A `W = 6` entry (the static
/// base comb) holds affine `(y − x, y + x, 2d·xy)` per group: they
/// expand into lanes 0, 1 and 3, and lane 2 takes `2Z = 2`. A `W = 8`
/// entry is a built comb's, cached already.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn load_entry<const W: usize>(entry: &[[u64; W]; 5]) -> Cached2 {
    const { assert!(W == 6 || W == 8) };
    let mut cached = Cached2(Fe8::zero());
    for (lanes, limb) in cached.0 .0.iter_mut().zip(entry) {
        *lanes = if W == 6 {
            // SAFETY: an expand load reads one word per set bit of its
            // mask, six consecutive words, and `limb` holds six.
            unsafe { _mm512_maskz_expandloadu_epi64(0b1011_1011, limb.as_ptr().cast()) }
        } else {
            // SAFETY: `limb` holds the eight words the load reads.
            unsafe { _mm512_loadu_si512(limb.as_ptr().cast()) }
        };
    }
    if W == 6 {
        let two_z = _mm512_set_epi64(0, 2, 0, 0, 0, 2, 0, 0);
        cached.0 .0[0] = _mm512_or_si512(cached.0 .0[0], two_z);
    }
    debug_assert!(cached.0.within(TIGHT));
    cached
}

/// The comb pass: for each scalar's 64 signed radix-16 digits `d`,
/// `Σ d_i·P_i` over rows `0..32` in group 0 and over rows `32..64` in
/// group 1, where row `i` holds the multiples of `P_i`. Per row pair and
/// scalar, one [`select_row`] in each group and one pair addition: no
/// doubling. Constant-time in the digits as `select` is; the rows are
/// read in order.
#[target_feature(enable = "avx512f,avx512ifma")]
fn comb_pass<const W: usize, const N: usize>(
    rows: &[CombRow<W>; 32],
    digits: [&[i8; 64]; N],
) -> [Ext2; N] {
    let identity = Ext2::load(&[IDENTITY; 2]);
    let cached_identity = identity.cache();
    let mut sums = [identity; N];
    for (i, row) in rows.iter().enumerate() {
        for (sum, d) in sums.iter_mut().zip(digits) {
            *sum = sum.add(&select_row(row, &cached_identity, [d[i], d[32 + i]]));
        }
    }
    sums
}

/// `p_0 + p_1` in group 0 and `q_0 + q_1` in group 1, from `p = (p_0,
/// p_1)` and `q = (q_0, q_1)` by group: the half sums of a comb pass
/// joined in one pair addition.
#[target_feature(enable = "avx512f,avx512ifma")]
fn join(p: Ext2, q: Ext2) -> Ext2 {
    let low = p.0.cmov(group1(), q.0.swap_groups());
    let high = p.0.swap_groups().cmov(group1(), q.0);
    Ext2(low).add(&Ext2(high).cache())
}

/// [`mul_base_pair`]'s body.
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_base_wide(comb: &[CombRow<6>; 32], digits: &[i8; 64]) -> [Fe; 4] {
    let [sum] = comb_pass(comb, [digits]);
    let [sb, _] = join(sum, sum).store();
    sb
}

/// [`build_comb`]'s body: `P` in group 0 and `16^32·P` in group 1 (128
/// doublings of both), then per row pair the progression of its eight
/// multiples and one doubling of the eighth, `16·` the row's point,
/// which opens the next.
#[target_feature(enable = "avx512f,avx512ifma")]
fn build_comb_wide(point: &[Fe; 4], comb: &mut [CombRow<8>; 32]) {
    let p = Ext2::load(&[*point; 2]);
    let mut far = p;
    for _ in 0..4 * 32 {
        far = far.double();
    }
    let mut row_point = Ext2(p.0.cmov(group1(), far.0));
    for row in comb.iter_mut() {
        let step = row_point.cache();
        let mut multiple = row_point;
        for (j, entry) in row.iter_mut().enumerate() {
            let cached = if j == 0 {
                step
            } else {
                multiple = multiple.add(&step);
                multiple.cache()
            };
            for (words, limb) in entry.iter_mut().zip(cached.0 .0) {
                *words = lanes(limb);
            }
        }
        row_point = multiple.double();
    }
}

/// [`mul_comb_pair`]'s body: both products in one comb pass.
#[target_feature(enable = "avx512f,avx512ifma")]
fn mul_comb_wide(comb: &[CombRow<8>; 32], digits: &[[i8; 64]; 2]) -> [[Fe; 4]; 2] {
    let [a, b] = comb_pass(comb, [&digits[0], &digits[1]]);
    join(a, b).store()
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
pub(crate) fn ladder8(scalar: &[u8; 32], us: &[[u8; 32]; 8]) -> Option<[[u8; 32]; 8]> {
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

/// Whether this CPU runs the Edwards pair: [`detected`], unless a test
/// on this thread has switched the pair off with [`with_scalar_pair`].
fn pair_detected() -> bool {
    #[cfg(test)]
    if SCALAR_PAIR.with(core::cell::Cell::get) {
        return false;
    }
    detected()
}

#[cfg(test)]
thread_local! {
    static SCALAR_PAIR: core::cell::Cell<bool> = const { core::cell::Cell::new(false) };
}

/// Runs `body` with the Edwards pair switched off on this thread, so the
/// scalar fallback runs on an IFMA host too.
#[cfg(test)]
pub(crate) fn with_scalar_pair<R>(body: impl FnOnce() -> R) -> R {
    SCALAR_PAIR.with(|off| off.set(true));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    SCALAR_PAIR.with(|off| off.set(false));
    out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// `[d_0·P_0, d_1·P_1]`, each point as extended coordinates `(X, Y, Z,
/// T)` and each scalar as its 64 signed radix-16 digits in `[−8, 8]`
/// (`ed25519::radix16`): `ed25519::Point::mul_scalar`'s schedule in both
/// lane groups at once, constant-time in the digits. `None` on a host
/// without AVX-512IFMA.
#[must_use]
pub(crate) fn mul_pair(points: &[[Fe; 4]; 2], digits: &[[i8; 64]; 2]) -> Option<[[Fe; 4]; 2]> {
    if !pair_detected() {
        return None;
    }
    // SAFETY: avx512f and avx512ifma were detected above.
    Some(unsafe { mul_pair_wide(points, digits) })
}

/// `[a·P_0 + b·Q_0, a·P_1 + b·Q_1]` for `nafs = [a, b]` as width-5
/// NAFs (`ed25519::naf5`), `firsts = [P_0, P_1]` and `seconds = [Q_0,
/// Q_1]` as extended coordinates: `ed25519::Point::vartime_straus` in
/// both lane groups at once. Both groups add where either NAF has a
/// digit, so they never diverge; branches on and indexes by the digits,
/// so **public inputs only**. `None` on a host without AVX-512IFMA.
#[must_use]
pub(crate) fn vartime_straus_pair(
    firsts: &[[Fe; 4]; 2],
    seconds: &[[Fe; 4]; 2],
    nafs: [&[i8; 256]; 2],
) -> Option<[[Fe; 4]; 2]> {
    if !pair_detected() {
        return None;
    }
    // SAFETY: avx512f and avx512ifma were detected above.
    Some(unsafe { vartime_straus_wide(firsts, seconds, nafs) })
}

/// `s·B` as extended coordinates from the static base comb and the 64
/// signed radix-16 digits of `s` (`ed25519::radix16`): rows `0..32` in
/// group 0 and `32..64` in group 1, one comb pass and one addition
/// joining the two sums. Constant-time in the digits. `None` on a host
/// without AVX-512IFMA.
#[must_use]
pub(crate) fn mul_base_pair(comb: &[CombRow<6>; 32], digits: &[i8; 64]) -> Option<[Fe; 4]> {
    if !pair_detected() {
        return None;
    }
    // SAFETY: avx512f and avx512ifma were detected above.
    Some(unsafe { mul_base_wide(comb, digits) })
}

/// The comb of the point `P` (extended coordinates): row `i` holds
/// `(j+1)·16^i·P` for `j = 0..8`, cached, rows `i` and `32 + i` in the
/// two groups of row pair `i`. `P` is public. `None` on a host without
/// AVX-512IFMA.
#[must_use]
pub(crate) fn build_comb(point: &[Fe; 4]) -> Option<Box<[CombRow<8>; 32]>> {
    if !pair_detected() {
        return None;
    }
    let mut comb: Box<[CombRow<8>; 32]> = vec![[[[0; 8]; 5]; 8]; 32]
        .into_boxed_slice()
        .try_into()
        .expect("32 row pairs");
    // SAFETY: avx512f and avx512ifma were detected above.
    unsafe { build_comb_wide(point, &mut comb) };
    Some(comb)
}

/// `[d_0·P, d_1·P]` from the comb of `P` ([`build_comb`]), each scalar
/// as its 64 signed radix-16 digits: one comb pass, then one addition
/// joining each product's two half sums. Constant-time in the digits.
/// `None` on a host without AVX-512IFMA.
#[must_use]
pub(crate) fn mul_comb_pair(
    comb: &[CombRow<8>; 32],
    digits: &[[i8; 64]; 2],
) -> Option<[[Fe; 4]; 2]> {
    if !pair_detected() {
        return None;
    }
    // SAFETY: avx512f and avx512ifma were detected above.
    Some(unsafe { mul_comb_wide(comb, digits) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x25519::{x25519, BASE_POINT};
    use rand::{Rng, SeedableRng};

    const SKIPPED: &str = "x25519 wide path: skipped (no avx512ifma)";

    /// Runs `body` where the wide path can run at all.
    fn on_ifma(body: unsafe fn()) {
        on_ifma_or(body, SKIPPED);
    }

    /// [`on_ifma`] for the Edwards pair's tests.
    fn on_ifma_pair(body: unsafe fn()) {
        on_ifma_or(body, "ed25519 pair path: skipped (no avx512ifma)");
    }

    fn on_ifma_or(body: unsafe fn(), skipped: &str) {
        if !detected() {
            println!("{skipped}");
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

    /// Coordinate `c` of group `g` of `limbs`, as a scalar element.
    fn coords(limbs: &Limbs, g: usize) -> [Fe; 4] {
        core::array::from_fn(|c| Fe(limbs[4 * g + c]))
    }

    /// "dbl-2008-hwcd" for a = −1 on the scalar field, as written.
    fn double_oracle([x, y, z, _]: [Fe; 4]) -> [Fe; 4] {
        let (a, b) = (x.square(), y.square());
        let c = z.square().mul_small(2);
        let e = x.add(y).square().sub(a).sub(b);
        let g = b.sub(a);
        let f = g.sub(c);
        let h = a.add(b).neg();
        [e.mul(f), g.mul(h), f.mul(g), e.mul(h)]
    }

    /// "add-2008-hwcd-3" with `k = 2d` on the scalar field, times `λ²`
    /// (the cached operand carries `λ`).
    fn add_oracle(p: [Fe; 4], q: [Fe; 4]) -> [Fe; 4] {
        let lambda = Fe::from_u64(121_666);
        let d2 = Fe::from_u64(2 * 121_665).neg().mul(lambda.invert());
        let a = p[1].sub(p[0]).mul(q[1].sub(q[0]));
        let b = p[1].add(p[0]).mul(q[1].add(q[0]));
        let c = p[3].mul(d2).mul(q[3]);
        let d = p[2].mul(q[2]).mul_small(2);
        let (e, f, g, h) = (b.sub(a), d.sub(c), d.add(c), b.add(a));
        [e.mul(f), g.mul(h), f.mul(g), e.mul(h)].map(|v| v.mul(lambda.square()))
    }

    #[track_caller]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn assert_pair(got: Fe8, want: impl Fn(usize) -> [Fe; 4], what: &str) {
        assert_lanes(got, |lane| want(lane / 4)[lane % 4], what);
    }

    /// The doubling and the addition (of a cached operand and of its
    /// negation) against the formulas on the scalar field: they are
    /// polynomial identities, so any tight coordinates will do — the
    /// tight edges walked through every lane, then random ones. In a
    /// debug build every step also asserts its limb bounds.
    #[test]
    fn edwards_formulas_match_the_scalar_field() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(30);
            let mut a = tight_edges(&mut rng);
            for round in 0..72 {
                if round < 8 {
                    a.rotate_left(1);
                } else {
                    a = core::array::from_fn(|_| below(TIGHT, &mut rng));
                }
                let b: Limbs = core::array::from_fn(|_| below(TIGHT, &mut rng));
                let (p, q) = (Ext2(from_limbs(&a)), Ext2(from_limbs(&b)));
                let neg = |[x, y, z, t]: [Fe; 4]| [x.neg(), y, z, t.neg()];
                assert_pair(p.double().0, |g| double_oracle(coords(&a, g)), "double");
                let sum = |g| add_oracle(coords(&a, g), coords(&b, g));
                assert_pair(p.add(&q.cache()).0, sum, "add");
                let difference = |g| add_oracle(coords(&a, g), neg(coords(&b, g)));
                assert_pair(p.add(&q.cache().neg()).0, difference, "add −q");
                assert_pair(
                    p.add(&q.cache()).double().0,
                    |g| double_oracle(sum(g)),
                    "2(p + q)",
                );
            }
        }
        on_ifma_pair(body);
    }

    /// Every pair of digits in `[−8, 8]`, one per lane group, selects the
    /// signed multiple it names (the identity for zero).
    #[test]
    fn select_returns_every_signed_multiple_in_both_groups() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(31);
            let p = Ext2(from_limbs(&core::array::from_fn(|_| {
                below(TIGHT, &mut rng)
            })));
            let table = p.progression(&p.cache());
            let identity = Ext2::load(&[IDENTITY; 2]).cache();
            let want = |digit: i8| match digit {
                0 => identity,
                1..=8 => table[digit as usize - 1],
                _ => table[digit.unsigned_abs() as usize - 1].neg(),
            };
            for d0 in -8i8..=8 {
                for d1 in -8i8..=8 {
                    let got = select(&table, &identity, [d0, d1]).0;
                    let (w0, w1) = (want(d0).0.store(), want(d1).0.store());
                    assert_lanes(
                        got,
                        |lane| if lane < 4 { w0[lane] } else { w1[lane] },
                        "select",
                    );
                }
            }
        }
        on_ifma_pair(body);
    }

    /// A comb row's entries as [`select_row`] must see them: group `g`
    /// of entry `j` is the row's words for that group, with `2Z = 2`
    /// added where a static (`W = 6`) row leaves it out.
    fn row_entries<const W: usize>(row: &CombRow<W>) -> [[[Fe; 4]; 2]; 8] {
        row.map(|entry| {
            core::array::from_fn(|g| {
                core::array::from_fn(|c| {
                    Fe(core::array::from_fn(|l| match (W, c) {
                        (6, 2) => u64::from(l == 0) * 2,
                        (6, 3) => entry[l][3 * g + 2],
                        (6, _) => entry[l][3 * g + c],
                        _ => entry[l][4 * g + c],
                    }))
                })
            })
        })
    }

    /// Every pair of digits in `[−8, 8]` selects, in each lane group, the
    /// signed multiple it names from that group's row (the identity for
    /// zero), for a static and a built row pair.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn check_select_row<const W: usize>(row: &CombRow<W>) {
        let entries = row_entries(row);
        let identity = Ext2::load(&[IDENTITY; 2]).cache();
        let want = |digit: i8| match digit {
            0 => identity,
            1..=8 => Cached2(Ext2::load(&entries[digit as usize - 1]).0),
            _ => Cached2(Ext2::load(&entries[digit.unsigned_abs() as usize - 1]).0).neg(),
        };
        for d0 in -8i8..=8 {
            for d1 in -8i8..=8 {
                let got = select_row(row, &identity, [d0, d1]).0;
                let (w0, w1) = (want(d0).0.store(), want(d1).0.store());
                assert_lanes(
                    got,
                    |lane| if lane < 4 { w0[lane] } else { w1[lane] },
                    "select_row",
                );
            }
        }
    }

    #[test]
    fn comb_row_select_returns_every_signed_multiple_in_both_groups() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            let mut rng = rand::rngs::StdRng::seed_from_u64(32);
            let mut words =
                |w: usize| -> Vec<u64> { (0..w).map(|_| rng.gen::<u64>() % (1 << 51)).collect() };
            let static_row: CombRow<6> =
                core::array::from_fn(|_| core::array::from_fn(|_| words(6).try_into().unwrap()));
            let built_row: CombRow<8> =
                core::array::from_fn(|_| core::array::from_fn(|_| words(8).try_into().unwrap()));
            check_select_row(&static_row);
            check_select_row(&built_row);
        }
        on_ifma_or(body, "ed25519 comb path: skipped (no avx512ifma)");
    }

    /// The pair's bounds are debug assertions too: a coordinate limb at
    /// the tight bound must stop the doubling, the addition and the
    /// caching, in either group.
    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_reject_a_coordinate_past_tight() {
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn body() {
            for lane in [2, 6] {
                let mut over = [all_limbs(TIGHT); 8];
                over[lane][4] = TIGHT;
                let p = Ext2(from_limbs(&over));
                let q = Ext2(from_limbs(&[[1, 0, 0, 0, 0]; 8])).cache();
                assert!(std::panic::catch_unwind(|| p.double().0.within(TIGHT)).is_err());
                assert!(std::panic::catch_unwind(|| p.add(&q).0.within(TIGHT)).is_err());
                assert!(std::panic::catch_unwind(|| p.cache().0.within(TIGHT)).is_err());
            }
        }
        on_ifma_pair(body);
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
