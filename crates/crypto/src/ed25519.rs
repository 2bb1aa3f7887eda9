//! The edwards25519 group and a Schnorr signature scheme over it.
//!
//! SecAgg's malicious-setting extensions (and XNoise's dropout-understating
//! prevention, §3.3 of the paper) require a UF-CMA signature scheme backed
//! by a PKI. This module implements the twisted Edwards curve
//! `-x^2 + y^2 = 1 + d x^2 y^2` over GF(2^255-19) with the standard
//! complete addition formulas, plus an Ed25519-*style* Schnorr signature.
//!
//! The signature differs from RFC 8032 only in its hash: SHA-512 is not
//! available in this dependency-free crate, so nonces and challenges are
//! derived with SHA-256/HKDF domain-separated constructions. The scheme is
//! the textbook Schnorr signature over a prime-order group, unforgeable
//! under the discrete-log assumption in the random-oracle model; it is not
//! wire-compatible with RFC 8032.
//!
//! # Scalar multiplication and its timing
//!
//! There are three multiplications, and which one a caller uses is
//! decided by whether its scalar is secret:
//!
//! - [`Point::mul_base`] (`s·B`, fixed-base comb) and
//!   [`Point::mul_scalar`] (`s·P`, signed radix-16 windows) are
//!   **constant-time in the scalar**: the same doublings and additions
//!   for every scalar, table entries picked by a masked scan of the whole
//!   table. They carry every secret — signing and VRF keys, nonces,
//!   `Γ = x·H`. `mul_scalar` is not constant-time in the *point*, which
//!   is public everywhere it is used.
//! - `Point::vartime_double_mul` and
//!   [`Point::vartime_double_mul_base`] (`a·P + b·Q`, Straus over
//!   width-5 NAFs) branch on and index by both scalars. They take
//!   **public inputs only**; the two call sites are
//!   [`VerifyingKey::verify`] and `VrfPublicKey::verify`, and
//!   `tests/constant_time_surface.rs` fails on a third.
//!
//! Two of them also come in pairs, for the VRF: [`Point::mul_scalar2`]
//! (`[a·P, b·P]`, constant-time in both scalars: `Γ = x·H` and the nonce
//! commitment `k·H`) and [`Point::vartime_straus2`] (`[a·B + b·Q, a·P +
//! b·R]`, public inputs only: a verification's two chains). Where the CPU
//! has AVX-512IFMA a pair is one pass of `x25519_avx512`'s Edwards
//! kernel, its two products in two lane groups on the same schedule as
//! the single form; elsewhere it is the single form twice.
//! [`Point::is_torsion_free`] (`[l]·P = O`) runs `mul_scalar`'s chain
//! over the digits of the public constant `l`, on the kernel too.
//!
//! [`Scalar`] arithmetic modulo `l` (`add`, `mul`, the reductions) still
//! compares and branches on its values and is not constant-time; neither
//! is [`Point::decompress`], which only ever sees public encodings.
//!
//! All of them compute the same group elements as the bitwise
//! double-and-add they replaced, which the tests keep as the oracle
//! (`mul_bytes`, compiled for tests only), so keys, VRF outputs, proofs
//! and signatures are bit-identical to it; goldens recorded from it pin
//! released proofs, signatures and claims.

use crate::field::Fe;
use crate::hmac::hkdf;
use crate::sha256::sha256_concat;
use crate::CryptoError;

// ---------------------------------------------------------------------------
// Scalar arithmetic modulo the group order l.
// ---------------------------------------------------------------------------

/// The group order `l = 2^252 + 27742317777372353535851937790883648493`,
/// little-endian u64 limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar modulo the group order `l`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scalar(pub(crate) [u64; 4]);

fn lt256(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

fn sub256(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 as u64) | (b2 as u64);
    }
    out
}

fn add256(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], bool) {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        out[i] = s2;
        carry = (c1 as u64) | (c2 as u64);
    }
    (out, carry != 0)
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar one.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Builds a scalar from a small integer.
    #[must_use]
    pub fn from_u64(v: u64) -> Scalar {
        Scalar([v, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes, reducing modulo `l`.
    #[must_use]
    pub fn from_bytes_mod_l(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_wide_bytes(&wide)
    }

    /// Parses 32 little-endian bytes, rejecting values `>= l`.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Result<Scalar, CryptoError> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut v = 0u64;
            for j in 0..8 {
                v |= (bytes[8 * i + j] as u64) << (8 * j);
            }
            limbs[i] = v;
        }
        if lt256(&limbs, &L) {
            Ok(Scalar(limbs))
        } else {
            Err(CryptoError::Malformed("non-canonical scalar"))
        }
    }

    /// Reduces 64 little-endian bytes modulo `l` (for hash-to-scalar).
    #[must_use]
    pub fn from_wide_bytes(bytes: &[u8; 64]) -> Scalar {
        // Horner over bytes: acc = acc * 256 + byte, all mod l. 64 bytes of
        // work with 256-bit adds — not fast, but signing is off the hot path.
        let mut acc = Scalar::ZERO;
        for &byte in bytes.iter().rev() {
            // acc *= 256 via 8 doublings.
            for _ in 0..8 {
                acc = acc.add(acc);
            }
            acc = acc.add(Scalar::from_u64(byte as u64));
        }
        acc
    }

    /// Serializes as 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Addition modulo `l`.
    #[must_use]
    pub fn add(self, rhs: Scalar) -> Scalar {
        // Both inputs < l < 2^253, so the sum fits in 256 bits (no carry).
        let (sum, carry) = add256(&self.0, &rhs.0);
        debug_assert!(!carry);
        if lt256(&sum, &L) {
            Scalar(sum)
        } else {
            Scalar(sub256(&sum, &L))
        }
    }

    /// Subtraction modulo `l`.
    #[must_use]
    pub fn sub(self, rhs: Scalar) -> Scalar {
        if lt256(&self.0, &rhs.0) {
            let (shifted, _) = add256(&self.0, &L);
            Scalar(sub256(&shifted, &rhs.0))
        } else {
            Scalar(sub256(&self.0, &rhs.0))
        }
    }

    /// Multiplication modulo `l` (schoolbook 256x256 then bitwise reduce).
    #[must_use]
    pub fn mul(self, rhs: Scalar) -> Scalar {
        // 512-bit product.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = prod[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                prod[i + j] = t as u64;
                carry = t >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        // Reduce 512 bits mod l via double-and-add from the top bit down.
        let mut acc = Scalar::ZERO;
        for bit in (0..512).rev() {
            acc = acc.add(acc);
            if (prod[bit / 64] >> (bit % 64)) & 1 == 1 {
                acc = acc.add(Scalar::ONE);
            }
        }
        acc
    }

    /// True if the scalar is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }
}

// ---------------------------------------------------------------------------
// Edwards points.
// ---------------------------------------------------------------------------

/// A point on edwards25519 in extended homogeneous coordinates
/// `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `T = XY/Z`.
///
/// Every coordinate is *tight* (see [`crate::field`]): each one is a
/// constant, a `mul` result or a `neg` of one.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// `(X : Y : Z)` without `T`: all a doubling reads, so a run of
/// doublings never pays the multiplication that would produce `T`.
/// Coordinates are tight.
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// An addition or doubling before its closing multiplications:
/// `X = E·F`, `Y = G·H`, `Z = F·G`, `T = E·H`. The fields are *loose*
/// (carry-free sums and differences of tight values) and are only ever
/// multiplied, which is what the limb-bound contract allows.
struct Completed {
    e: Fe,
    f: Fe,
    g: Fe,
    h: Fe,
}

/// What an addition multiplies its first operand by, `(Y+X, Y−X, 2d·T)`
/// of the second, all tight. On its own it stands for a point with
/// `Z = 1` — the affine `(y+x, y−x, 2d·xy)` entries of the base comb —
/// whose addition takes seven multiplications instead of eight.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
}

/// A point of any `Z` prepared as the second operand of an addition.
#[derive(Clone, Copy)]
struct Cached {
    niels: Niels,
    z: Fe,
}

// The curve constants `D`, `D2`, `SQRT_M1`, the base point `BASE`, its
// fixed-base comb `BASE_COMB` and its odd multiples `BASE_ODD`: static
// data, generated from the curve's definition and checked in, so no
// process builds them at run time. The test
// `static_tables_are_the_generated_source` regenerates the file and
// fails if it differs.
include!("ed25519_base.rs");

/// A [`Niels`] table entry from its canonical limbs.
const fn niels(y_plus_x: [u64; 5], y_minus_x: [u64; 5], t2d: [u64; 5]) -> Niels {
    Niels {
        y_plus_x: Fe(y_plus_x),
        y_minus_x: Fe(y_minus_x),
        t2d: Fe(t2d),
    }
}

/// A [`Cached`] table entry from its canonical limbs.
const fn cached(y_plus_x: [u64; 5], y_minus_x: [u64; 5], t2d: [u64; 5], z: [u64; 5]) -> Cached {
    Cached {
        niels: niels(y_plus_x, y_minus_x, t2d),
        z: Fe(z),
    }
}

/// Replaces every element by its inverse with one field inversion
/// (Montgomery's trick: invert the running product, then peel it back
/// off). No element may be zero — one zero would zero them all; a `Z`
/// coordinate never is.
fn batch_invert(elems: &mut [Fe]) {
    let mut acc = Fe::ONE;
    let mut prefixes = Vec::with_capacity(elems.len());
    for &e in elems.iter() {
        prefixes.push(acc);
        acc = acc.mul(e);
    }
    let mut inv = acc.invert();
    for (e, prefix) in elems.iter_mut().zip(prefixes).rev() {
        let e_inv = inv.mul(prefix);
        inv = inv.mul(*e);
        *e = e_inv;
    }
}

/// All ones where `a == b`, zero otherwise, without branching on either.
fn mask_eq(a: u8, b: u8) -> u64 {
    let diff = u64::from(a ^ b);
    0u64.wrapping_sub(diff.wrapping_sub(1) >> 63)
}

/// `a = b` where `mask` is all ones, `a` unchanged where it is zero (the
/// `cswap` idiom of [`crate::x25519`]).
fn cmov(a: &mut Fe, b: &Fe, mask: u64) {
    for i in 0..5 {
        a.0[i] ^= mask & (a.0[i] ^ b.0[i]);
    }
}

/// What [`select`] needs of a table entry.
trait TableEntry: Copy {
    /// The identity element in this representation.
    const IDENTITY: Self;
    /// `self = other` where `mask` is all ones.
    fn cmov(&mut self, other: &Self, mask: u64);
    /// The negated point.
    fn neg(&self) -> Self;
}

impl TableEntry for Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        t2d: Fe::ZERO,
    };

    fn cmov(&mut self, other: &Niels, mask: u64) {
        cmov(&mut self.y_plus_x, &other.y_plus_x, mask);
        cmov(&mut self.y_minus_x, &other.y_minus_x, mask);
        cmov(&mut self.t2d, &other.t2d, mask);
    }

    fn neg(&self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            t2d: self.t2d.neg(),
        }
    }
}

impl TableEntry for Cached {
    const IDENTITY: Cached = Cached {
        niels: Niels::IDENTITY,
        z: Fe::ONE,
    };

    fn cmov(&mut self, other: &Cached, mask: u64) {
        self.niels.cmov(&other.niels, mask);
        cmov(&mut self.z, &other.z, mask);
    }

    fn neg(&self) -> Cached {
        Cached {
            niels: self.niels.neg(),
            z: self.z,
        }
    }
}

/// `digit · P` from `table[j] = (j+1)·P`, for a digit in `[-8, 8]`:
/// a masked scan of all eight entries and a masked negation, so neither
/// the branches taken nor the addresses loaded depend on the digit.
fn select<E: TableEntry>(table: &[E; 8], digit: i8) -> E {
    let negative = (digit >> 7) as u8; // 0xff or 0
    let magnitude = (digit as u8 ^ negative).wrapping_sub(negative);
    let mut entry = E::IDENTITY;
    for (j, multiple) in (1u8..).zip(table) {
        entry.cmov(multiple, mask_eq(magnitude, j));
    }
    let negated = entry.neg();
    entry.cmov(&negated, mask_eq(negative, 0xff));
    entry
}

/// Signed radix-16 digits of a little-endian integer below 2^255:
/// `Σ d_i·16^i` with every `d_i` in `[-8, 8)` and the top one in
/// `[0, 8]`. No branch on the value.
fn radix16(bytes: &[u8; 32]) -> [i8; 64] {
    debug_assert!(bytes[31] < 128);
    let mut digits = [0i8; 64];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(bytes) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in &mut digits[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    digits[63] += carry;
    digits
}

/// Width-5 non-adjacent form of a reduced scalar: `Σ d_i·2^i`, every
/// nonzero `d_i` odd in `[-15, 15]` and followed by at least four zeros,
/// so a 253-bit scalar has ≈ 42 of them. Variable time.
fn naf5(scalar: &Scalar) -> [i8; 256] {
    let s = &scalar.0;
    let limbs = [s[0], s[1], s[2], s[3], 0];
    let mut naf = [0i8; 256];
    let mut carry = 0u64;
    let mut pos = 0;
    while pos < 256 {
        let (limb, bit) = (pos / 64, pos % 64);
        let mut window = limbs[limb] >> bit;
        if bit > 59 {
            window |= limbs[limb + 1] << (64 - bit);
        }
        let window = carry + (window & 31);
        if window & 1 == 0 {
            // Zero digit; a pending carry rides on to the next bit.
            pos += 1;
            continue;
        }
        carry = window >> 4;
        naf[pos] = window as i8 - ((carry as i8) << 5);
        pos += 5;
    }
    // A scalar below l < 2^253 leaves room for the last carry.
    debug_assert_eq!(carry, 0);
    naf
}

impl Projective {
    /// Doubling ("dbl-2008-hwcd" for a = -1 with `F` and `H` negated,
    /// which is the same projective point): 4 squarings.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        // Tight, because the lazy differences below subtract them.
        let h = yy.add(xx);
        let g = yy.sub(xx);
        Completed {
            e: self.x.add_lazy(self.y).square().sub_lazy(h), // 2XY
            f: zz.add(zz).sub_lazy(g),
            g,
            h,
        }
    }
}

impl Completed {
    const IDENTITY: Completed = Completed {
        e: Fe::ZERO,
        f: Fe::ONE,
        g: Fe::ONE,
        h: Fe::ONE,
    };

    /// Three multiplications: enough for a doubling to follow.
    fn to_projective(&self) -> Projective {
        Projective {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
        }
    }

    /// Four multiplications: an addition reads `T` as well.
    fn to_extended(&self) -> Point {
        Point {
            x: self.e.mul(self.f),
            y: self.g.mul(self.h),
            z: self.f.mul(self.g),
            t: self.e.mul(self.h),
        }
    }
}

impl Point {
    /// The identity element (0, 1).
    #[must_use]
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point `B` (y = 4/5, even x).
    #[cfg(test)]
    #[must_use]
    fn base() -> Point {
        BASE
    }

    /// Recovers a point from `y` and the sign (parity) of `x`. The curve
    /// constants come as arguments so that the table generator can
    /// derive the base point without reading the tables it writes.
    fn from_y_and_sign(y: Fe, sign: u8, d: Fe, sqrt_m1: Fe) -> Result<Point, CryptoError> {
        // x^2 = (y^2 - 1) / (d y^2 + 1).
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = d.mul(yy).add(Fe::ONE);
        // Candidate x = u v^3 (u v^7)^((p-5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
        let vxx = v.mul(x.square());
        if vxx.equals(u) {
            // Root found.
        } else if vxx.equals(u.neg()) {
            x = x.mul(sqrt_m1);
        } else {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if x.parity() != sign {
            x = x.neg();
        }
        Ok(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    fn to_projective(self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> Cached {
        Cached {
            niels: Niels {
                y_plus_x: self.y.add(self.x),
                y_minus_x: self.y.sub(self.x),
                t2d: self.t.mul(D2),
            },
            z: self.z,
        }
    }

    /// The complete unified addition "add-2008-hwcd-3" for a = -1
    /// twisted Edwards curves, up to its closing multiplications, given
    /// `2·Z1·Z2` (tight) beside the second operand. Valid for every pair
    /// of curve points, doubling and the small-order points included.
    fn add_niels(&self, other: &Niels, zz2: Fe) -> Completed {
        let a = self.y.sub_lazy(self.x).mul(other.y_minus_x);
        let b = self.y.add_lazy(self.x).mul(other.y_plus_x);
        let c = self.t.mul(other.t2d);
        Completed {
            e: b.sub_lazy(a),
            f: zz2.sub_lazy(c),
            g: zz2.add_lazy(c),
            h: b.add_lazy(a),
        }
    }

    fn add_cached(&self, other: &Cached) -> Completed {
        let zz = self.z.mul(other.z);
        self.add_niels(&other.niels, zz.add(zz))
    }

    /// [`Point::add_cached`] for `Z2 = 1` ("madd-2008-hwcd-3").
    fn add_affine(&self, other: &Niels) -> Completed {
        self.add_niels(other, self.z.add(self.z))
    }

    /// Point addition (complete: also valid for doubling, which is what
    /// pins [`Point::double`]).
    #[must_use]
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached()).to_extended()
    }

    /// Point doubling: 4 squarings and 4 multiplications against the 9
    /// multiplications of `add`.
    #[must_use]
    pub fn double(&self) -> Point {
        self.to_projective().double().to_extended()
    }

    /// Point negation.
    #[must_use]
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by an arbitrary 256-bit (little-endian)
    /// scalar, bit by bit: the oracle the table-driven multiplications
    /// are tested against.
    #[cfg(test)]
    fn mul_bytes(&self, scalar: &[u8; 32]) -> Point {
        let mut acc = Point::identity();
        for bit in (0..256).rev() {
            acc = acc.double();
            if (scalar[bit / 8] >> (bit % 8)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `scalar · B`, constant-time in the scalar: one masked lookup and
    /// one seven-multiplication addition per radix-16 digit from the
    /// static comb, no doubling.
    #[must_use]
    pub fn mul_base(scalar: &Scalar) -> Point {
        Point::mul_base_bytes(&scalar.to_bytes())
    }

    /// [`Point::mul_base`] of any little-endian integer below 2^255,
    /// reduced modulo `l` or not: what a clamped X25519 secret is.
    pub(crate) fn mul_base_bytes(scalar: &[u8; 32]) -> Point {
        let digits = radix16(scalar);
        let mut acc = Point::identity();
        for (row, &digit) in BASE_COMB.iter().zip(&digits) {
            acc = acc.add_affine(&select(row, digit)).to_extended();
        }
        acc
    }

    /// The u-coordinate of the birationally equivalent curve25519 point,
    /// `u = (1+y)/(1−y) = (Z+Y)/(Z−Y)`, encoded as X25519 encodes it: one
    /// inversion. The identity (`Z = Y`) encodes as zero, which is what
    /// the ladder returns for it.
    pub(crate) fn montgomery_u(&self) -> [u8; 32] {
        let num = self.z.add_lazy(self.y);
        num.mul(self.z.sub_lazy(self.y).invert()).to_bytes()
    }

    /// `scalar · self`, constant-time in the scalar (not in the point):
    /// signed radix-16 windows over a table of `P..8P`, i.e. per digit
    /// four doublings — only the last of which produces `T` — and one
    /// addition of a masked-lookup entry.
    #[must_use]
    pub fn mul_scalar(&self, scalar: &Scalar) -> Point {
        self.mul_digits(&radix16(&scalar.to_bytes()))
    }

    /// `[a·self, b·self]`, constant-time in both scalars: where the CPU
    /// has AVX-512IFMA, one pass of `x25519_avx512`'s Edwards pair runs
    /// [`Point::mul_scalar`]'s schedule for both scalars in its two lane
    /// groups over one table of `self`; elsewhere, `mul_scalar` twice.
    #[must_use]
    pub fn mul_scalar2(&self, a: &Scalar, b: &Scalar) -> [Point; 2] {
        let digits = [a, b].map(|s| radix16(&s.to_bytes()));
        #[cfg(target_arch = "x86_64")]
        if let Some(out) = crate::x25519_avx512::mul_pair(&[self.coords(); 2], &digits) {
            return out.map(Point::from_coords);
        }
        digits.map(|d| self.mul_digits(&d))
    }

    /// Whether `self` lies in the prime-order subgroup: `[l]·self = O`.
    /// The chain is [`Point::mul_scalar`]'s over the digits of the public
    /// constant `l` (on the Edwards pair where the CPU has it), the same
    /// operations for every point.
    #[must_use]
    pub fn is_torsion_free(&self) -> bool {
        let l = radix16(&Scalar(L).to_bytes());
        #[cfg(target_arch = "x86_64")]
        if let Some([lp, _]) = crate::x25519_avx512::mul_pair(&[self.coords(); 2], &[l; 2]) {
            return Point::from_coords(lp).is_identity();
        }
        self.mul_digits(&l).is_identity()
    }

    /// The sum `Σ digits[i]·16^i·self` of signed radix-16 digits.
    fn mul_digits(&self, digits: &[i8; 64]) -> Point {
        let table = self.progression(self).map(Point::to_cached);
        let mut acc = Point::identity().add_cached(&select(&table, digits[63]));
        for &digit in digits[..63].iter().rev() {
            let mut window = acc.to_projective();
            for _ in 0..3 {
                window = window.double().to_projective();
            }
            acc = window
                .double()
                .to_extended()
                .add_cached(&select(&table, digit));
        }
        acc.to_extended()
    }

    /// `self + j·step` for `j = 0..8`: with `step = self` the multiples
    /// `P..8P` a radix-16 digit selects from.
    fn progression(&self, step: &Point) -> [Point; 8] {
        let step = step.to_cached();
        let mut next = *self;
        std::array::from_fn(|j| {
            if j > 0 {
                next = next.add_cached(&step).to_extended();
            }
            next
        })
    }

    /// `P, 3P, .. 15P`: the table a width-5 NAF indexes.
    fn odd_multiples(&self) -> [Cached; 8] {
        self.progression(&self.double()).map(Point::to_cached)
    }

    /// Straus' interleaving over two width-5 NAFs: one shared chain of
    /// doublings, an addition wherever either scalar has a nonzero
    /// digit. Branches on, and indexes by, both scalars.
    fn vartime_straus(
        a: &Scalar,
        table_a: &[Cached; 8],
        b: &Scalar,
        table_b: &[Cached; 8],
    ) -> Point {
        let terms = [(naf5(a), table_a), (naf5(b), table_b)];
        let mut acc = Completed::IDENTITY;
        for i in (0..256).rev() {
            acc = acc.to_projective().double();
            for (naf, table) in &terms {
                let digit = naf[i];
                if digit != 0 {
                    let multiple = table[usize::from(digit.unsigned_abs() / 2)];
                    let signed = if digit < 0 { multiple.neg() } else { multiple };
                    acc = acc.to_extended().add_cached(&signed);
                }
            }
        }
        acc.to_extended()
    }

    /// `a·P + b·Q` in variable time: **public inputs only** — the two
    /// sides of a verification equation, never a secret key or nonce.
    #[must_use]
    fn vartime_double_mul(a: &Scalar, p: &Point, b: &Scalar, q: &Point) -> Point {
        Point::vartime_straus(a, &p.odd_multiples(), b, &q.odd_multiples())
    }

    /// `a·B + b·Q` in variable time over the static odd multiples of
    /// `B`: **public inputs only**, as `Point::vartime_double_mul`.
    #[must_use]
    pub fn vartime_double_mul_base(a: &Scalar, b: &Scalar, q: &Point) -> Point {
        Point::vartime_straus(a, &BASE_ODD, b, &q.odd_multiples())
    }

    /// `[a·B + b·Q, a·P + b·R]` in variable time:
    /// [`Point::vartime_double_mul_base`] and
    /// `Point::vartime_double_mul` on one pair of scalars. Where the CPU
    /// has AVX-512IFMA the two Straus chains run in the two lane groups
    /// of one pass of `x25519_avx512`'s Edwards pair, sharing the NAFs of
    /// `a` and `b`. **Public inputs only**.
    #[must_use]
    pub fn vartime_straus2(a: &Scalar, b: &Scalar, q: &Point, p: &Point, r: &Point) -> [Point; 2] {
        #[cfg(target_arch = "x86_64")]
        if let Some(out) = crate::x25519_avx512::vartime_straus_pair(
            &[BASE.coords(), p.coords()],
            &[q.coords(), r.coords()],
            [&naf5(a), &naf5(b)],
        ) {
            return out.map(Point::from_coords);
        }
        [
            Point::vartime_double_mul_base(a, b, q),
            Point::vartime_double_mul(a, p, b, r),
        ]
    }

    /// The extended coordinates `(X, Y, Z, T)`, the Edwards pair's
    /// layout.
    fn coords(&self) -> [Fe; 4] {
        [self.x, self.y, self.z, self.t]
    }

    /// A point from the Edwards pair: its coordinates are tight there,
    /// so they are here.
    fn from_coords([x, y, z, t]: [Fe; 4]) -> Point {
        Point { x, y, z, t }
    }

    /// `y` with the parity of `x` in bit 255, given `1/Z`.
    fn compress_with(&self, z_inv: Fe) -> [u8; 32] {
        let x = self.x.mul(z_inv);
        let y = self.y.mul(z_inv);
        let mut out = y.to_bytes();
        out[31] |= x.parity() << 7;
        out
    }

    /// Compresses to 32 bytes: `y` with the parity of `x` in bit 255.
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        self.compress_with(self.z.invert())
    }

    /// [`Point::compress`] of every point, element-wise, for one field
    /// inversion in total (Montgomery's trick).
    #[must_use]
    pub fn compress_batch<const N: usize>(points: &[Point; N]) -> [[u8; 32]; N] {
        let mut z_inv = points.map(|p| p.z);
        batch_invert(&mut z_inv);
        std::array::from_fn(|i| points[i].compress_with(z_inv[i]))
    }

    /// Decompresses a 32-byte encoding, validating the curve equation.
    pub fn decompress(bytes: &[u8; 32]) -> Result<Point, CryptoError> {
        let sign = bytes[31] >> 7;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = Fe::from_bytes(&y_bytes);
        // Reject non-canonical y (>= p).
        if y.to_bytes() != y_bytes {
            return Err(CryptoError::InvalidPoint);
        }
        Point::from_y_and_sign(y, sign, D, SQRT_M1)
    }

    /// True if this is the identity element.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        // x == 0 and y == z.
        self.x.is_zero() && self.y.equals(self.z)
    }

    /// Equality in the group (projective coordinates compared cross-wise).
    #[must_use]
    pub fn equals(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  <=>  x1 z2 == x2 z1, same for y.
        self.x.mul(other.z).equals(other.x.mul(self.z))
            && self.y.mul(other.z).equals(other.y.mul(self.z))
    }

    /// Checks the affine curve equation `-x^2 + y^2 = 1 + d x^2 y^2`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(xx);
        let rhs = Fe::ONE.add(D.mul(xx).mul(yy));
        lhs.equals(rhs)
    }
}

// ---------------------------------------------------------------------------
// Schnorr signatures.
// ---------------------------------------------------------------------------

/// A signing key (seed plus cached expansion).
#[derive(Clone)]
pub struct SigningKey {
    scalar: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

/// A verifying (public) key: a compressed group element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; 32]);

/// A detached signature: `R || s` (64 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

/// Domain-separated 64-byte hash used for nonces and challenges.
fn hash64(parts: &[&[u8]]) -> [u8; 64] {
    let mut h0 = vec![0u8];
    let mut h1 = vec![1u8];
    for p in parts {
        h0.extend_from_slice(p);
        h1.extend_from_slice(p);
    }
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&sha256_concat(&[&h0]));
    out[32..].copy_from_slice(&sha256_concat(&[&h1]));
    out
}

impl SigningKey {
    /// Derives a signing key deterministically from a 32-byte seed.
    #[must_use]
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        let expanded: [u8; 64] = hkdf(b"dordis.sig.keygen", seed, b"expand");
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&expanded[..32]);
        // Ed25519-style clamping keeps the scalar in the prime-order
        // subgroup's coset structure; reduce mod l for scalar arithmetic.
        scalar_bytes[0] &= 248;
        scalar_bytes[31] &= 127;
        scalar_bytes[31] |= 64;
        let scalar = Scalar::from_bytes_mod_l(&scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&expanded[32..]);
        let public = VerifyingKey(Point::mul_base(&scalar).compress());
        SigningKey {
            scalar,
            prefix,
            public,
        }
    }

    /// Returns the verifying key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs a message (deterministic nonce, per Ed25519 practice).
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let r = Scalar::from_wide_bytes(&hash64(&[b"nonce", &self.prefix, message]));
        // A zero nonce would leak the key; derive an alternative in the
        // (cryptographically unreachable) case.
        let r = if r.is_zero() { Scalar::ONE } else { r };
        let r_point = Point::mul_base(&r).compress();
        let k = Scalar::from_wide_bytes(&hash64(&[b"chal", &r_point, &self.public.0, message]));
        let s = r.add(k.mul(self.scalar));
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

impl VerifyingKey {
    /// Verifies `signature` over `message`.
    ///
    /// Checks `s·B − k·A == R` with `k = H(R, A, message)`, rejecting
    /// non-canonical scalars and invalid point encodings.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&signature.0[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&signature.0[32..]);
        let s = Scalar::from_canonical_bytes(&s_bytes).map_err(|_| CryptoError::BadSignature)?;
        let r_point = Point::decompress(&r_bytes).map_err(|_| CryptoError::BadSignature)?;
        let a_point = Point::decompress(&self.0).map_err(|_| CryptoError::BadSignature)?;
        let k = Scalar::from_wide_bytes(&hash64(&[b"chal", &r_bytes, &self.0, message]));
        // Signature and key are public: s·B − k·A in one interleaved pass.
        let lhs = Point::vartime_double_mul_base(&s, &k, &a_point.neg());
        if lhs.equals(&r_point) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

/// Runs `body` on the Edwards pair where this host has it (printing the
/// skip line where it does not), then again with the pair switched off,
/// on the scalar fallback.
#[cfg(test)]
pub(crate) fn on_both_paths(body: impl Fn()) {
    #[cfg(target_arch = "x86_64")]
    let runs =
        crate::x25519_avx512::mul_pair(&[Point::identity().coords(); 2], &[[0; 64]; 2]).is_some();
    #[cfg(not(target_arch = "x86_64"))]
    let runs = false;
    if !runs {
        println!("ed25519 pair path: skipped (no avx512ifma)");
    }
    body();
    with_scalar_pair(body);
}

/// Runs `body` with the Edwards pair switched off on this thread.
#[cfg(test)]
pub(crate) fn with_scalar_pair<R>(body: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    return crate::x25519_avx512::with_scalar_pair(body);
    #[cfg(not(target_arch = "x86_64"))]
    body()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_point_is_on_curve() {
        assert!(Point::base().on_curve());
        // y coordinate must be exactly 4/5.
        let zinv = Point::base().z.invert();
        let y = Point::base().y.mul(zinv);
        assert!(y.equals(Fe::from_u64(4).mul(Fe::from_u64(5).invert())));
    }

    #[test]
    fn base_point_has_order_l() {
        let l_bytes = Scalar(L).to_bytes();
        let lb = Point::base().mul_bytes(&l_bytes);
        assert!(lb.is_identity());
        // ...and no smaller power-of-two related order: l/2 is not integral,
        // but check that 2B, 4B, 8B are all non-identity.
        let b2 = Point::base().double();
        let b4 = b2.double();
        let b8 = b4.double();
        assert!(!b2.is_identity() && !b4.is_identity() && !b8.is_identity());
    }

    #[test]
    fn addition_matches_doubling() {
        let b = Point::base();
        assert!(b.add(&b).equals(&b.double()));
        let b3a = b.add(&b).add(&b);
        let b3b = b.double().add(&b);
        assert!(b3a.equals(&b3b));
    }

    #[test]
    fn double_equals_unified_add_on_random_points() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xd0b1);
        for _ in 0..32 {
            let mut k = [0u8; 32];
            rng.fill(&mut k[..]);
            let p = Point::base().mul_bytes(&k);
            let d = p.double();
            assert!(d.on_curve());
            assert!(d.equals(&p.add(&p)));
            assert_eq!(d.compress(), p.add(&p).compress());
            // T = XY/Z must hold too: the next addition reads it.
            assert!(d.add(&p).equals(&p.add(&p).add(&p)));
        }
        assert!(Point::identity().double().is_identity());
        // The order-2 point (0, -1): y = p - 1.
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let order2 = Point::decompress(&minus_one).unwrap();
        assert!(!order2.is_identity() && order2.double().is_identity());
    }

    /// A full-width reduced scalar from 32 random bytes.
    fn random_scalar(rng: &mut impl rand::Rng) -> Scalar {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes[..]);
        Scalar::from_bytes_mod_l(&bytes)
    }

    /// Every nibble of the low 252 bits equal to `nibble`: the largest
    /// such pattern a reduced scalar (< l, just above 2^252) can hold.
    fn all_nibbles(nibble: u64) -> Scalar {
        let word = nibble * 0x1111_1111_1111_1111;
        Scalar([word, word, word, word >> 4])
    }

    /// 0, 1, l − 1, 2^252, and the radix-16 patterns where every digit
    /// borrows from the next (all 8s) or none does (all 7s).
    fn edge_scalars() -> Vec<Scalar> {
        vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::ZERO.sub(Scalar::ONE),
            Scalar([0, 0, 0, 1 << 60]),
            all_nibbles(8),
            all_nibbles(7),
        ]
    }

    /// All four table-driven multiplications against the bitwise oracle.
    #[track_caller]
    fn check_against_oracle(s: &Scalar, p: &Point, t: &Scalar, q: &Point) {
        let same = |got: Point, want: Point| {
            assert!(got.on_curve());
            assert_eq!(got.compress(), want.compress());
            // T is not part of the encoding but the next addition reads it.
            assert!(got.add(p).equals(&want.add(p)));
        };
        let s_base = Point::base().mul_bytes(&s.to_bytes());
        let s_p = p.mul_bytes(&s.to_bytes());
        let t_q = q.mul_bytes(&t.to_bytes());
        same(Point::mul_base(s), s_base);
        same(p.mul_scalar(s), s_p);
        same(Point::vartime_double_mul(s, p, t, q), s_p.add(&t_q));
        same(Point::vartime_double_mul_base(s, t, q), s_base.add(&t_q));
    }

    #[test]
    fn multiplications_match_the_bitwise_oracle_on_random_scalars() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xed25);
        let (mut p, mut q) = (Point::base().double(), Point::base());
        for _ in 0..1024 {
            let (s, t) = (random_scalar(&mut rng), random_scalar(&mut rng));
            check_against_oracle(&s, &p, &t, &q);
            // Walk to fresh points with Z != 1.
            (p, q) = (q.mul_scalar(&s), p.add(&q));
        }
    }

    #[test]
    fn multiplications_match_the_bitwise_oracle_on_edge_scalars() {
        let p = Point::base().mul_scalar(&Scalar::from_u64(0xd0b1));
        let q = p.double().add(&Point::base());
        let edges = edge_scalars();
        for s in &edges {
            for t in &edges {
                check_against_oracle(s, &p, t, &q);
            }
        }
        assert!(Point::mul_base(&Scalar::ZERO).is_identity());
        assert!(p.mul_scalar(&Scalar::ZERO).is_identity());
        assert!(Point::mul_base(&edges[2]).equals(&Point::base().neg()));
    }

    /// The identity and one point each of order 2, 4 and 8: `l·P` of a
    /// hashed-to point lands in the torsion subgroup, on an element of
    /// full order 8 half the time.
    fn small_order_points() -> [Point; 4] {
        let l_bytes = Scalar(L).to_bytes();
        let order8 = (0u8..)
            .filter_map(|i| Point::decompress(&crate::sha256::sha256(&[i])).ok())
            .map(|p| p.mul_bytes(&l_bytes))
            .find(|t| !t.double().double().is_identity())
            .expect("some hashed point has a torsion component of order 8");
        let order4 = order8.double();
        let order2 = order4.double();
        assert!(!order2.is_identity() && order2.double().is_identity());
        [Point::identity(), order2, order4, order8]
    }

    #[test]
    fn multiplications_accept_the_identity_and_small_order_points() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let p = Point::base().mul_scalar(&Scalar::from_u64(3));
        for q in small_order_points() {
            let mut scalars = edge_scalars();
            scalars.extend((0..8).map(|_| random_scalar(&mut rng)));
            for t in &scalars {
                // Q on either side of the double multiplication, and
                // under the windowed one.
                check_against_oracle(t, &q, &scalars[5], &p);
                check_against_oracle(&scalars[5], &p, t, &q);
            }
        }
    }

    /// Both pair forms against the scalar forms the tests above pin to
    /// the bitwise oracle, each product checked in its own lane group.
    #[track_caller]
    fn check_pair(a: &Scalar, b: &Scalar, p: &Point, q: &Point, r: &Point) {
        let same = |got: [Point; 2], want: [Point; 2]| {
            for (got, want) in got.iter().zip(&want) {
                assert!(got.on_curve());
                assert_eq!(got.compress(), want.compress());
                // T is not part of the encoding but the next addition reads it.
                assert!(got.add(p).equals(&want.add(p)));
            }
        };
        same(p.mul_scalar2(a, b), [p.mul_scalar(a), p.mul_scalar(b)]);
        same(
            Point::vartime_straus2(a, b, q, p, r),
            [
                Point::vartime_double_mul_base(a, b, q),
                Point::vartime_double_mul(a, p, b, r),
            ],
        );
    }

    /// [`edge_scalars`] and the all-high radix-16 digits (every nibble
    /// 15: each digit −1 with a carry into the next).
    fn pair_edge_scalars() -> Vec<Scalar> {
        let mut edges = edge_scalars();
        edges.push(all_nibbles(15));
        edges
    }

    #[test]
    fn pair_matches_the_scalar_forms_on_edge_and_random_scalars() {
        use rand::SeedableRng;
        on_both_paths(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x9a12);
            let p = Point::base().mul_scalar(&random_scalar(&mut rng));
            let q = p.double().add(&Point::base());
            let r = q.mul_scalar(&random_scalar(&mut rng));
            let edges = pair_edge_scalars();
            for a in &edges {
                for b in &edges {
                    check_pair(a, b, &p, &q, &r);
                }
            }
            let (mut p, mut q, mut r) = (p, q, r);
            for _ in 0..32 {
                let (a, b) = (random_scalar(&mut rng), random_scalar(&mut rng));
                check_pair(&a, &b, &p, &q, &r);
                (p, q, r) = (q.mul_scalar(&a), r.add(&p), p.double());
            }
        });
    }

    #[test]
    fn pair_accepts_the_identity_and_small_order_points() {
        use rand::SeedableRng;
        on_both_paths(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x9a13);
            let p = Point::base().mul_scalar(&Scalar::from_u64(5));
            let mut scalars = pair_edge_scalars();
            scalars.extend((0..4).map(|_| random_scalar(&mut rng)));
            for t in small_order_points() {
                for a in &scalars {
                    let b = &scalars[5];
                    // T under the windowed pair, and as either point of
                    // either lane group's Straus chain.
                    check_pair(a, b, &t, &p, &p);
                    check_pair(b, a, &p, &t, &p);
                    check_pair(a, b, &p, &p, &t);
                }
            }
        });
    }

    #[test]
    fn torsion_check_rejects_every_small_order_component() {
        use rand::SeedableRng;
        on_both_paths(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x9a14);
            let p = Point::base().mul_scalar(&random_scalar(&mut rng));
            for q in [Point::identity(), Point::base(), p, p.neg().double()] {
                assert!(q.is_torsion_free());
                for t in &small_order_points()[1..] {
                    assert!(!t.is_torsion_free());
                    assert!(!q.add(t).is_torsion_free());
                }
            }
        });
    }

    #[test]
    fn compress_batch_equals_compress() {
        let b = Point::base();
        let points = [
            b.mul_scalar(&Scalar::from_u64(77)),
            Point::identity(),
            b,
            b.double().add(&b).neg(),
        ];
        assert_eq!(Point::compress_batch(&points), points.map(|p| p.compress()));
        assert_eq!(Point::compress_batch(&[points[0]]), [points[0].compress()]);
        assert_eq!(Point::compress_batch::<0>(&[]), [[0u8; 32]; 0]);
    }

    #[test]
    fn base_comb_is_affine_multiples_of_sixteen_powers() {
        assert!(std::mem::size_of_val(&BASE_COMB) < 64 << 10);
        let mut row_base = Point::base();
        for row in &BASE_COMB {
            let mut multiple = row_base;
            for entry in row {
                let z_inv = multiple.z.invert();
                let (x, y) = (multiple.x.mul(z_inv), multiple.y.mul(z_inv));
                assert!(entry.y_plus_x.equals(y.add(x)));
                assert!(entry.y_minus_x.equals(y.sub(x)));
                assert!(entry.t2d.equals(x.mul(y).mul(D2)));
                multiple = multiple.add(&row_base);
            }
            row_base = row_base.mul_bytes(&Scalar::from_u64(16).to_bytes());
        }
        for (j, entry) in (1u64..).step_by(2).zip(&BASE_ODD) {
            let want = Point::base().mul_bytes(&Scalar::from_u64(j).to_bytes());
            let got = Point::identity().add_cached(entry).to_extended();
            assert!(got.equals(&want), "{j}·B");
        }
    }

    /// The canonical limbs of `v`, as the table file spells an element.
    fn limbs(v: Fe) -> String {
        let [l0, l1, l2, l3, l4] = Fe::from_bytes(&v.to_bytes()).0;
        format!("[{l0:#015x}, {l1:#015x}, {l2:#015x}, {l3:#015x}, {l4:#015x}]")
    }

    /// `ed25519_base.rs` from the curve's definition: each constant
    /// computed from its formula, the comb built by additions from the
    /// base point and made affine through one shared inversion.
    fn generated_table_source() -> String {
        use std::fmt::Write;
        let d = Fe::from_u64(121_665)
            .neg()
            .mul(Fe::from_u64(121_666).invert());
        let d2 = d.add(d);
        let sqrt_m1 = Fe::sqrt_m1();
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let base = Point::from_y_and_sign(y, 0, d, sqrt_m1).expect("base point must decompress");
        let mut multiples = Vec::with_capacity(64 * 8);
        let mut row_base = base;
        for _ in 0..64 {
            let row = row_base.progression(&row_base);
            multiples.extend(row);
            // 2 · 8 · 16^i · B opens the next row.
            row_base = row[7].double();
        }
        let mut z_inv: Vec<Fe> = multiples.iter().map(|p| p.z).collect();
        batch_invert(&mut z_inv);

        let mut out = String::from(
            "// Static tables of `crypto::ed25519`, included by `ed25519.rs`.\n\
             //\n\
             // Generated from the curve's definition by the test\n\
             // `ed25519::tests::static_tables_are_the_generated_source`; do not\n\
             // edit. After changing the generator, run that test with\n\
             // `DORDIS_REGENERATE_TABLES=1` to rewrite this file. Every element\n\
             // is its canonical representative in five radix-2^51 limbs.\n\n",
        );
        let mut constant = |doc: &str, name: &str, v: Fe| {
            writeln!(out, "/// {doc}\nconst {name}: Fe = Fe({});\n", limbs(v)).unwrap();
        };
        constant("`d = −121665/121666`, the curve's constant.", "D", d);
        constant("`2d`.", "D2", d2);
        constant("A square root of −1.", "SQRT_M1", sqrt_m1);
        writeln!(
            out,
            "/// The base point `B`: `y = 4/5`, `x` even, `Z = 1`.\n\
             const BASE: Point = Point {{\n    \
             x: Fe({}),\n    y: Fe({}),\n    z: Fe({}),\n    t: Fe({}),\n}};\n",
            limbs(base.x),
            limbs(base.y),
            limbs(base.z),
            limbs(base.t)
        )
        .unwrap();
        out.push_str(
            "/// `BASE_COMB[i][j] = (j+1)·16^i·B` as affine `(y+x, y−x, 2d·xy)`: one\n\
             /// row per radix-16 digit of a scalar, so `s·B` is 64 additions and\n\
             /// no doubling (61 440 bytes).\n\
             static BASE_COMB: [[Niels; 8]; 64] = [\n",
        );
        for (i, (row, inv)) in multiples
            .chunks_exact(8)
            .zip(z_inv.chunks_exact(8))
            .enumerate()
        {
            writeln!(out, "    // 16^{i}·B").unwrap();
            out.push_str("    [\n");
            for (p, &z_inv) in row.iter().zip(inv) {
                let (x, y) = (p.x.mul(z_inv), p.y.mul(z_inv));
                let (sum, diff, t2d) = (y.add(x), y.sub(x), x.mul(y).mul(d2));
                writeln!(
                    out,
                    "        niels(\n            {},\n            {},\n            {},\n        ),",
                    limbs(sum),
                    limbs(diff),
                    limbs(t2d)
                )
                .unwrap();
            }
            out.push_str("    ],\n");
        }
        out.push_str(
            "];\n\n/// `BASE_ODD[j] = (2j+1)·B`, what a width-5 NAF indexes.\n\
             static BASE_ODD: [Cached; 8] = [\n",
        );
        for entry in base.odd_multiples() {
            let Cached { niels, z } = entry;
            writeln!(
                out,
                "    cached(\n        {},\n        {},\n        {},\n        {},\n    ),",
                limbs(niels.y_plus_x),
                limbs(niels.y_minus_x),
                limbs(niels.t2d),
                limbs(z)
            )
            .unwrap();
        }
        out.push_str("];\n");
        out
    }

    /// The checked-in tables are what the generator derives today: no
    /// process builds them at run time, so this is what keeps them right.
    #[test]
    fn static_tables_are_the_generated_source() {
        let source = generated_table_source();
        if std::env::var_os("DORDIS_REGENERATE_TABLES").is_some() {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/ed25519_base.rs");
            std::fs::write(path, &source).expect("rewrite the table file");
        }
        assert!(
            source == include_str!("ed25519_base.rs"),
            "src/ed25519_base.rs is stale: rerun this test with DORDIS_REGENERATE_TABLES=1"
        );
    }

    #[test]
    fn select_returns_every_signed_multiple() {
        let p = Point::base().double();
        let table = p.progression(&p).map(Point::to_cached);
        let q = Point::base();
        for digit in -8i8..=8 {
            let want = if digit < 0 {
                p.mul_scalar(&Scalar::from_u64(u64::from(digit.unsigned_abs())))
                    .neg()
            } else {
                p.mul_scalar(&Scalar::from_u64(digit as u64))
            };
            let got = q.add_cached(&select(&table, digit)).to_extended();
            assert!(got.equals(&q.add(&want)), "digit {digit}");
        }
    }

    /// `acc += magnitude · 2^bit` over five 64-bit words.
    fn add_shifted(acc: &mut [u64; 5], magnitude: u8, bit: usize) {
        let wide = u128::from(magnitude) << (bit % 64);
        let mut carry = 0u128;
        for (k, word) in acc.iter_mut().enumerate().skip(bit / 64) {
            let part = match k - bit / 64 {
                0 => wide as u64,
                1 => (wide >> 64) as u64,
                _ => 0,
            };
            let sum = u128::from(*word) + u128::from(part) + carry;
            *word = sum as u64;
            carry = sum >> 64;
        }
        assert_eq!(carry, 0);
    }

    /// Asserts `Σ digits[i] · 2^(step·i)` is exactly the integer `value`,
    /// by comparing the positive digits against value + negative digits.
    #[track_caller]
    fn assert_recomposes(digits: &[i8], step: usize, value: &[u64; 4]) {
        let mut positive = [0u64; 5];
        let mut negative = [value[0], value[1], value[2], value[3], 0];
        for (i, &digit) in digits.iter().enumerate() {
            let side = if digit < 0 {
                &mut negative
            } else {
                &mut positive
            };
            add_shifted(side, digit.unsigned_abs(), step * i);
        }
        assert_eq!(positive, negative);
    }

    fn check_radix16(limbs: [u64; 4]) {
        let digits = radix16(&Scalar(limbs).to_bytes());
        assert!(digits[..63].iter().all(|d| (-8..8).contains(d)));
        assert!((0..=8).contains(&digits[63]));
        assert_recomposes(&digits, 4, &limbs);
    }

    fn check_naf5(scalar: Scalar) {
        let naf = naf5(&scalar);
        for (i, &digit) in naf.iter().enumerate() {
            if digit != 0 {
                assert!(digit & 1 == 1 && (-15..=15).contains(&digit));
                assert!(naf[i + 1..].iter().take(4).all(|&d| d == 0));
            }
        }
        assert_recomposes(&naf, 1, &scalar.0);
    }

    #[test]
    fn recodings_recompose_on_edge_scalars() {
        for s in edge_scalars() {
            check_radix16(s.0);
            check_naf5(s);
        }
        // radix16 takes any integer below 2^255, reduced or not.
        check_radix16([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1]);
        check_radix16([
            0x8888_8888_8888_8888,
            0x8888_8888_8888_8888,
            0x8888_8888_8888_8888,
            0x7888_8888_8888_8888,
        ]);
        assert_eq!(radix16(&all_nibbles(8).to_bytes())[0], -8);
        assert_eq!(radix16(&all_nibbles(8).to_bytes())[63], 1);
        assert_eq!(radix16(&all_nibbles(7).to_bytes())[..63], [7i8; 63]);
    }

    #[test]
    fn identity_laws() {
        let b = Point::base();
        assert!(b.add(&Point::identity()).equals(&b));
        assert!(b.add(&b.neg()).is_identity());
        assert!(Point::identity().on_curve());
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = Point::base();
        let p5 = b.mul_scalar(&Scalar::from_u64(5));
        let p2 = b.mul_scalar(&Scalar::from_u64(2));
        let p3 = b.mul_scalar(&Scalar::from_u64(3));
        assert!(p2.add(&p3).equals(&p5));
        let p6a = b.mul_scalar(&Scalar::from_u64(6));
        let p6b = p2.mul_scalar(&Scalar::from_u64(3));
        assert!(p6a.equals(&p6b));
    }

    #[test]
    fn compress_roundtrip() {
        for k in [1u64, 2, 3, 7, 31, 1000, 99_999] {
            let p = Point::base().mul_scalar(&Scalar::from_u64(k));
            let c = p.compress();
            let q = Point::decompress(&c).unwrap();
            assert!(p.equals(&q), "k={k}");
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn decompress_rejects_garbage() {
        // Most random strings are not valid y-coordinates of curve points —
        // at least some of these must fail; all that succeed must roundtrip.
        let mut failures = 0;
        for i in 0..16u8 {
            let mut b = [i; 32];
            b[31] &= 0x7f;
            match Point::decompress(&b) {
                Ok(p) => assert!(p.on_curve()),
                Err(_) => failures += 1,
            }
        }
        assert!(failures > 0);
    }

    #[test]
    fn scalar_arithmetic_basics() {
        let a = Scalar::from_u64(7);
        let b = Scalar::from_u64(5);
        assert_eq!(a.add(b), Scalar::from_u64(12));
        assert_eq!(a.sub(b), Scalar::from_u64(2));
        assert_eq!(b.sub(a), Scalar::ZERO.sub(Scalar::from_u64(2)));
        assert_eq!(a.mul(b), Scalar::from_u64(35));
    }

    #[test]
    fn scalar_l_reduces_to_zero() {
        let l_bytes = Scalar(L).to_bytes();
        assert_eq!(Scalar::from_bytes_mod_l(&l_bytes), Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_err());
    }

    #[test]
    fn scalar_wide_reduction_matches_mod_l() {
        // 2^256 mod l computed two ways.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let via_wide = Scalar::from_wide_bytes(&wide);
        // 2^255 mod l, doubled.
        let mut half = [0u8; 32];
        half[31] = 0x80;
        let via_half = Scalar::from_bytes_mod_l(&half);
        assert_eq!(via_half.add(via_half), via_wide);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = SigningKey::from_seed(&[42u8; 32]);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"round 7 dropout outcome");
        assert!(vk.verify(b"round 7 dropout outcome", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let sk = SigningKey::from_seed(&[1u8; 32]);
        let sig = sk.sign(b"message A");
        assert!(sk.verifying_key().verify(b"message B", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let sk1 = SigningKey::from_seed(&[1u8; 32]);
        let sk2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = sk1.sign(b"m");
        assert!(sk2.verifying_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let sk = SigningKey::from_seed(&[3u8; 32]);
        let mut sig = sk.sign(b"m");
        sig.0[0] ^= 1;
        assert!(sk.verifying_key().verify(b"m", &sig).is_err());
        let mut sig2 = sk.sign(b"m");
        sig2.0[63] ^= 0x40;
        assert!(sk.verifying_key().verify(b"m", &sig2).is_err());
    }

    #[test]
    fn signatures_are_deterministic() {
        let sk = SigningKey::from_seed(&[9u8; 32]);
        assert_eq!(sk.sign(b"x"), sk.sign(b"x"));
        assert_ne!(sk.sign(b"x"), sk.sign(b"y"));
    }

    proptest::proptest! {
        #[test]
        fn prop_radix16_recomposes(bytes in proptest::prelude::any::<[u8; 32]>()) {
            let mut limbs = [0u64; 4];
            for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
                *limb = u64::from_le_bytes(chunk.try_into().unwrap());
            }
            limbs[3] >>= 1;
            check_radix16(limbs);
        }

        #[test]
        fn prop_naf5_recomposes(bytes in proptest::prelude::any::<[u8; 32]>()) {
            check_naf5(Scalar::from_bytes_mod_l(&bytes));
        }
    }
}
