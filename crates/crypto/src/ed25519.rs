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

use std::sync::OnceLock;

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
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

struct Constants {
    d: Fe,
    d2: Fe,
    sqrt_m1: Fe,
    base: Point,
}

fn constants() -> &'static Constants {
    static CONSTS: OnceLock<Constants> = OnceLock::new();
    CONSTS.get_or_init(|| {
        // d = -121665/121666 mod p.
        let d = Fe::from_u64(121_665)
            .neg()
            .mul(Fe::from_u64(121_666).invert());
        let d2 = d.add(d);
        let sqrt_m1 = Fe::sqrt_m1();
        // Base point: y = 4/5, x the even square root.
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let base = Point::from_y_and_sign(y, 0, d, sqrt_m1).expect("base point must decompress");
        Constants {
            d,
            d2,
            sqrt_m1,
            base,
        }
    })
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
    #[must_use]
    pub fn base() -> Point {
        constants().base
    }

    /// Recovers a point from `y` and the sign (parity) of `x`. The curve
    /// constants come as arguments because [`constants`] itself calls
    /// this to build the base point.
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

    /// Point addition (complete unified formula "add-2008-hwcd-3" for
    /// a = -1 twisted Edwards curves; also valid for doubling, which is
    /// what pins [`Point::double`]).
    #[must_use]
    pub fn add(&self, other: &Point) -> Point {
        let c = constants();
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let cc = self.t.mul(c.d2).mul(other.t);
        let dd = self.z.add(self.z).mul(other.z);
        let e = b.sub(a);
        let f = dd.sub(cc);
        let g = dd.add(cc);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling ("dbl-2008-hwcd" for a = -1, every coordinate
    /// negated, which is the same projective point): 4 squarings and
    /// 4 multiplications against the 9 multiplications of `add`.
    #[must_use]
    pub fn double(&self) -> Point {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let e = self.x.add(self.y).square().sub(xx).sub(yy); // 2XY
        let g = yy.sub(xx);
        let f = zz.add(zz).sub(g);
        let h = yy.add(xx);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
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

    /// Scalar multiplication by an arbitrary 256-bit (little-endian) scalar.
    #[must_use]
    pub fn mul_bytes(&self, scalar: &[u8; 32]) -> Point {
        let mut acc = Point::identity();
        for bit in (0..256).rev() {
            acc = acc.double();
            if (scalar[bit / 8] >> (bit % 8)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Scalar multiplication by a reduced scalar.
    #[must_use]
    pub fn mul_scalar(&self, scalar: &Scalar) -> Point {
        self.mul_bytes(&scalar.to_bytes())
    }

    /// Compresses to 32 bytes: `y` with the parity of `x` in bit 255.
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        out[31] |= x.parity() << 7;
        out
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
        let c = constants();
        Point::from_y_and_sign(y, sign, c.d, c.sqrt_m1)
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
    #[must_use]
    pub fn on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(xx);
        let rhs = Fe::ONE.add(constants().d.mul(xx).mul(yy));
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
        let expanded = hkdf(b"dordis.sig.keygen", seed, b"expand", 64);
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
        let public = VerifyingKey(Point::base().mul_scalar(&scalar).compress());
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
        let r_point = Point::base().mul_scalar(&r).compress();
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
    /// Checks `s·B == R + k·A` with `k = H(R, A, message)`, rejecting
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
        let lhs = Point::base().mul_scalar(&s);
        let rhs = r_point.add(&a_point.mul_scalar(&k));
        if lhs.equals(&rhs) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
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
}
