//! RFC 7748 x25519 Diffie–Hellman over curve25519.
//!
//! This is the `KA` primitive of SecAgg's Figure 5: each client generates a
//! keypair, advertises the public key through the server, and agrees on a
//! shared secret with every other client. The Montgomery ladder operates on
//! u-coordinates only.
//!
//! A client agrees with all of its neighbours under the same secret, so
//! there are two entry points: [`x25519`] walks one ladder, and
//! [`x25519_many`] takes one scalar and any number of base points and
//! hands them, eight at a time, to the lane-parallel ladder of
//! `x25519_avx512` (radix 2^51 on AVX-512IFMA multiply-adds) where the
//! CPU has AVX-512IFMA. Every output of either is bit-equal to
//! [`x25519`], which is the fallback on every other host.

use crate::field::Fe;

/// An x25519 secret key (clamped scalar).
pub type SecretKey = [u8; 32];
/// An x25519 public key (u-coordinate).
pub type PublicKey = [u8; 32];

/// The base point u-coordinate (u = 9).
pub const BASE_POINT: PublicKey = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Clamps a 32-byte scalar per RFC 7748.
#[must_use]
pub fn clamp(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// Conditionally swaps two field elements (data-independent of `swap`).
fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
    let mask = 0u64.wrapping_sub(swap);
    for i in 0..5 {
        let t = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= t;
        b.0[i] ^= t;
    }
}

/// Scalar multiplication on the Montgomery curve: returns `u([scalar] P_u)`.
///
/// The scalar is clamped internally, matching the RFC 7748 X25519 function.
#[must_use]
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        // Every sum and difference below takes `mul`/`square` outputs
        // (tight) and feeds a `mul`/`square`/`mul_small` (which accept
        // loose), so the carry-free forms are within their limb bounds
        // by construction; `x1` comes tight from `from_bytes`.
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
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);
    x2.mul(z2.invert()).to_bytes()
}

/// `x25519(scalar, u)` for every `u` of `us`, in order.
///
/// While at least two points remain, up to eight go through one
/// `x25519_avx512::ladder8` batch (unused lanes padded with
/// [`BASE_POINT`]); the rest, and everything on a host without
/// AVX-512IFMA, goes through [`x25519`] one by one. Which points share a
/// batch depends on `us.len()` alone.
#[must_use]
pub fn x25519_many(scalar: &[u8; 32], us: &[[u8; 32]]) -> Vec<[u8; 32]> {
    let mut out = Vec::with_capacity(us.len());
    #[cfg(target_arch = "x86_64")]
    let us = wide_batches(scalar, us, &mut out);
    out.extend(x25519_many_portable(scalar, us));
    out
}

/// Appends the leading points of `us` that the batching rule gives to the
/// wide kernel and returns the points left over.
#[cfg(target_arch = "x86_64")]
fn wide_batches<'a>(
    scalar: &[u8; 32],
    mut us: &'a [[u8; 32]],
    out: &mut Vec<[u8; 32]>,
) -> &'a [[u8; 32]] {
    /// Fewest points worth a batch: eight lanes cost about as much as
    /// 1.6 scalar ladders, however many of them are padding.
    const WIDE_BATCH_MIN: usize = 2;
    while us.len() >= WIDE_BATCH_MIN {
        let (batch, rest) = us.split_at(us.len().min(8));
        let mut lanes = [BASE_POINT; 8];
        lanes[..batch.len()].copy_from_slice(batch);
        let Some(shared) = crate::x25519_avx512::ladder8(scalar, &lanes) else {
            break;
        };
        out.extend_from_slice(&shared[..batch.len()]);
        us = rest;
    }
    us
}

/// [`x25519_many`] without the wide kernel: one scalar ladder per point.
fn x25519_many_portable(scalar: &[u8; 32], us: &[[u8; 32]]) -> Vec<[u8; 32]> {
    us.iter().map(|u| x25519(scalar, u)).collect()
}

/// Derives the public key for a secret key.
#[must_use]
pub fn public_key(secret: &SecretKey) -> PublicKey {
    x25519(secret, &BASE_POINT)
}

/// Computes the raw shared secret between `our_secret` and `their_public`.
///
/// Callers should hash the result before use as key material (see
/// [`crate::ka`]), per standard DH hygiene.
///
/// A low-order `their_public` is not rejected: the result is then all
/// zero whatever the secret (RFC 7748 §6.1 leaves that check to the
/// caller). [`crate::ka::KeyPair::agree`] hashes the result together
/// with both public keys, so such a peer only fixes the key of its own
/// channel, which it would know anyway.
#[must_use]
pub fn shared_secret(our_secret: &SecretKey, their_public: &PublicKey) -> [u8; 32] {
    x25519(our_secret, their_public)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn rfc7748_vector_1() {
        // RFC 7748 §5.2 test vector 1.
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(&scalar, &u);
        assert_eq!(
            hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_dh_vectors() {
        // RFC 7748 §6.1: Alice/Bob DH exchange.
        let a_sk = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let b_sk = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let a_pk = public_key(&a_sk);
        let b_pk = public_key(&b_sk);
        assert_eq!(
            hex(&a_pk),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&b_pk),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let k_ab = shared_secret(&a_sk, &b_pk);
        let k_ba = shared_secret(&b_sk, &a_pk);
        assert_eq!(k_ab, k_ba);
        assert_eq!(
            hex(&k_ab),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn rfc7748_iterated_vector() {
        // RFC 7748 §5.2: k = u = 9; each step sets (k, u) to
        // (X25519(k, u), k).
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for i in 1..=1000 {
            (k, u) = (x25519(&k, &u), k);
            if i == 1 {
                assert_eq!(
                    hex(&k),
                    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
                );
            }
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn low_order_points_give_the_all_zero_secret() {
        // The u-coordinates of the points of order 1, 2, 4 and 8 on the
        // curve and its twist, with the non-canonical encodings p and
        // p + 1 of 0 and 1: clamping makes the scalar a multiple of 8,
        // so the ladder lands on the identity and encodes 0.
        let low_order = [
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0100000000000000000000000000000000000000000000000000000000000000",
            "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
            "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        ];
        for secret in [[0x42u8; 32], [0xffu8; 32], BASE_POINT] {
            for u in low_order {
                assert_eq!(shared_secret(&secret, &unhex32(u)), [0u8; 32], "u = {u}");
            }
        }
    }

    /// Edge encodings of a peer's u-coordinate: 0, 1, p − 1, p, p + 1,
    /// 2^255 − 1, bit 255 set (ignored on decode), and the low-order
    /// points.
    fn edge_points() -> Vec<[u8; 32]> {
        [
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0100000000000000000000000000000000000000000000000000000000000000",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "0900000000000000000000000000000000000000000000000000000000000080",
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1ccc",
            "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
            "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
            "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        ]
        .map(unhex32)
        .to_vec()
    }

    fn random32(rng: &mut impl rand::Rng) -> [u8; 32] {
        let mut b = [0u8; 32];
        rng.fill(&mut b[..]);
        b
    }

    /// Every batch, padding and tail shape of the dispatcher — and, called
    /// directly, of the portable path, so a host with AVX-512F still
    /// covers the ladder everyone else runs.
    #[test]
    fn many_matches_one_by_one_at_every_length() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for len in 0..=33 {
            let scalar = random32(&mut rng);
            let us: Vec<[u8; 32]> = (0..len).map(|_| random32(&mut rng)).collect();
            let want: Vec<[u8; 32]> = us.iter().map(|u| x25519(&scalar, u)).collect();
            assert_eq!(x25519_many(&scalar, &us), want, "len {len}");
            assert_eq!(
                x25519_many_portable(&scalar, &us),
                want,
                "portable, len {len}"
            );
        }
    }

    #[test]
    fn many_matches_one_by_one_on_edge_points() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        // 11 edges and 5 random points make two full batches: eight
        // rotations by one walk every edge through every lane.
        let mut us = edge_points();
        us.extend((0..5).map(|_| random32(&mut rng)));
        for secret in [[0x42u8; 32], [0xffu8; 32], random32(&mut rng)] {
            for _ in 0..8 {
                us.rotate_left(1);
                let want: Vec<[u8; 32]> = us.iter().map(|u| x25519(&secret, u)).collect();
                assert_eq!(x25519_many(&secret, &us), want);
                assert_eq!(x25519_many_portable(&secret, &us), want);
            }
        }
    }

    #[test]
    fn dh_commutes_for_random_keys() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..8 {
            let mut a = [0u8; 32];
            let mut b = [0u8; 32];
            rng.fill(&mut a[..]);
            rng.fill(&mut b[..]);
            let ka = shared_secret(&a, &public_key(&b));
            let kb = shared_secret(&b, &public_key(&a));
            assert_eq!(ka, kb);
            assert_ne!(ka, [0u8; 32]);
        }
    }

    #[test]
    fn distinct_secrets_distinct_publics() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        assert_ne!(public_key(&a), public_key(&b));
    }

    #[test]
    fn clamping_is_idempotent() {
        let s = [0xffu8; 32];
        assert_eq!(clamp(clamp(s)), clamp(s));
        let c = clamp(s);
        assert_eq!(c[0] & 7, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }
}
