//! Shamir t-of-n secret sharing over GF(256).
//!
//! SecAgg backs up each client's masking key `s^SK_u` and self-mask seed
//! `b_u` with Shamir shares so the server can recover them after dropout;
//! XNoise additionally shares the noise-component seeds `g_{u,k}` (paper
//! §3.2, "dropout-resilient noise removal with secret sharing"). Secrets
//! here are byte strings (32-byte seeds), shared bytewise: each byte is the
//! constant term of an independent random polynomial of degree `t-1` over
//! GF(256), evaluated at nonzero points `x = 1..=n`.
//!
//! The 32 polynomials of a 32-byte block are evaluated side by side on
//! four `u64` lanes, and every multiplication has a public factor (an
//! evaluation point, or a Lagrange coefficient of public points), taken
//! as a chain of byte-wise doublings (`xtime`). So nothing branches on or
//! indexes by a secret byte, and there are no tables. Coefficients are
//! still drawn one secret byte after another, so shares and RNG
//! consumption are those of a byte-at-a-time evaluation (the tests keep a
//! log/exp-table one as the oracle).

use rand::Rng;

use crate::CryptoError;

/// Secret bytes evaluated side by side: four `u64` lanes of eight bytes,
/// byte `8l + k` of a block in byte `k` (little-endian) of lane `l`.
const BLOCK: usize = 32;

/// Bytes a lane holds.
const LANE: usize = 8;

/// A block of 32 GF(256) elements, one per byte.
type Lanes = [u64; 4];

/// `2·a` in GF(256) (the AES polynomial x^8+x^4+x^3+x+1, 0x11b) for all
/// eight bytes of `a` at once: shift every byte left and reduce the ones
/// whose top bit fell off by 0x1b. No branch and no lookup.
#[inline]
fn xtime(a: u64) -> u64 {
    let high = a & 0x8080_8080_8080_8080;
    ((a ^ high) << 1) ^ ((high >> 7) * 0x1b)
}

/// `x·a` for every byte of `a` and a **public** `x`: the chain of
/// doublings `a, 2a, 4a, …` up to the top bit of `x`, summed where `x`
/// has a bit. What runs depends on `x` alone, never on `a`.
#[inline]
fn mul_public(a: Lanes, x: u8) -> Lanes {
    let (mut acc, mut power, mut rest) = ([0u64; 4], a, x);
    loop {
        if rest & 1 == 1 {
            for (acc, power) in acc.iter_mut().zip(power) {
                *acc ^= power;
            }
        }
        rest >>= 1;
        if rest == 0 {
            return acc;
        }
        power = power.map(xtime);
    }
}

/// `a·b` in GF(256) for two public bytes.
fn gf_mul(a: u8, b: u8) -> u8 {
    mul_public([u64::from(a), 0, 0, 0], b)[0] as u8
}

/// `a·b` byte by byte with neither factor public: eight doublings of
/// `a`, each kept where the matching bit of `b`'s byte is set.
fn mul_bytes(mut a: u64, b: u64) -> u64 {
    let mut acc = 0;
    for bit in 0..8 {
        acc ^= a & (((b >> bit) & 0x0101_0101_0101_0101) * 0xff);
        a = xtime(a);
    }
    acc
}

/// `a^-1 = a^254` byte by byte (zero stays zero).
fn inv_bytes(a: u64) -> u64 {
    // 254 = 0b1111_1110: square-and-multiply from the top bit.
    let mut acc = a;
    for _ in 0..6 {
        acc = mul_bytes(mul_bytes(acc, acc), a);
    }
    mul_bytes(acc, acc)
}

/// 1 in every zero byte of `a`, 0 elsewhere.
fn zero_bytes(a: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    (!(((a & LOW7) + LOW7) | a) >> 7) & 0x0101_0101_0101_0101
}

/// The Lagrange coefficients at zero of the distinct nonzero points
/// `xs`, `L_i = Π_{j≠i} x_j / (x_j − x_i) = P / (x_i · Π_{j≠i} (x_j ⊕ x_i))`
/// with `P = Π_j x_j`: the denominators of eight points side by side,
/// one lane product per point and one inversion per lane.
fn lagrange_at_zero(xs: &[u8]) -> Vec<u8> {
    let p = xs.iter().fold(1, |acc, &x| gf_mul(acc, x));
    let mut basis = vec![0u8; xs.len()];
    for (lane, out) in xs.chunks(LANE).zip(basis.chunks_mut(LANE)) {
        let xi = load_lane(lane);
        let mut den = xi;
        for &xj in xs {
            // x_j ⊕ x_i is zero exactly at i = j, whose factor is left out.
            let diff = (u64::from(xj) * 0x0101_0101_0101_0101) ^ xi;
            den = mul_bytes(den, diff | zero_bytes(diff));
        }
        store(&mul_public([inv_bytes(den), 0, 0, 0], p), out);
    }
    basis
}

/// Up to eight bytes as a lane, zero-padded.
fn load_lane(bytes: &[u8]) -> u64 {
    let mut lane = [0u8; LANE];
    lane[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(lane)
}

/// Loads up to 32 bytes into lanes, zero-padded.
fn load(bytes: &[u8]) -> Lanes {
    let mut lanes = [0u64; 4];
    for (lane, chunk) in lanes.iter_mut().zip(bytes.chunks(LANE)) {
        *lane = load_lane(chunk);
    }
    lanes
}

/// Stores the first `out.len()` (≤ 32) bytes of `lanes`.
fn store(lanes: &Lanes, out: &mut [u8]) {
    for (chunk, lane) in out.chunks_mut(LANE).zip(lanes) {
        chunk.copy_from_slice(&lane.to_le_bytes()[..chunk.len()]);
    }
}

/// One share of a secret: the evaluation point and per-byte evaluations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point `x` (nonzero).
    pub x: u8,
    /// Polynomial evaluations, one byte per secret byte.
    pub y: Vec<u8>,
}

/// Splits `secret` into `n` shares, any `t` of which reconstruct it.
///
/// # Errors
///
/// Returns an error if `t == 0`, `t > n`, or `n > 255`.
pub fn share<R: Rng>(
    secret: &[u8],
    t: usize,
    n: usize,
    rng: &mut R,
) -> Result<Vec<Share>, CryptoError> {
    if t == 0 || t > n {
        return Err(CryptoError::InconsistentShares("threshold out of range"));
    }
    if n > 255 {
        return Err(CryptoError::InconsistentShares("at most 255 shares"));
    }
    let mut shares: Vec<Share> = (1..=n as u8)
        .map(|x| Share {
            x,
            y: vec![0u8; secret.len()],
        })
        .collect();
    // One random polynomial per secret byte (coefficient 0 is the
    // secret byte), drawn byte after byte as ever; the 32 polynomials of
    // a block are then evaluated at once, coefficient `j` of all of them
    // in `coeffs[j]`.
    let mut coeff_bytes = vec![[0u8; BLOCK]; t];
    let mut coeffs = vec![[0u64; 4]; t];
    for (block, secret) in secret.chunks(BLOCK).enumerate() {
        for (byte, &s) in secret.iter().enumerate() {
            coeff_bytes[0][byte] = s;
            for c in &mut coeff_bytes[1..] {
                c[byte] = rng.gen();
            }
        }
        for (lanes, bytes) in coeffs.iter_mut().zip(&coeff_bytes) {
            *lanes = load(bytes);
        }
        let range = block * BLOCK..block * BLOCK + secret.len();
        for sh in shares.iter_mut() {
            // Horner evaluation at x = sh.x.
            let mut acc = [0u64; 4];
            for c in coeffs.iter().rev() {
                acc = mul_public(acc, sh.x);
                for (acc, c) in acc.iter_mut().zip(c) {
                    *acc ^= c;
                }
            }
            store(&acc, &mut sh.y[range.clone()]);
        }
    }
    Ok(shares)
}

/// Reconstructs the secret from at least `t` shares via Lagrange
/// interpolation at `x = 0`.
///
/// # Errors
///
/// Fails if fewer than `t` shares are supplied, shares disagree on length,
/// or evaluation points repeat.
pub fn reconstruct(shares: &[Share], t: usize) -> Result<Vec<u8>, CryptoError> {
    if shares.len() < t {
        return Err(CryptoError::NotEnoughShares {
            needed: t,
            got: shares.len(),
        });
    }
    let used = &shares[..t];
    let len = used[0].y.len();
    for s in used {
        if s.y.len() != len {
            return Err(CryptoError::InconsistentShares("length mismatch"));
        }
        if s.x == 0 {
            return Err(CryptoError::InconsistentShares("x must be nonzero"));
        }
    }
    for i in 0..used.len() {
        for j in (i + 1)..used.len() {
            if used[i].x == used[j].x {
                return Err(CryptoError::InconsistentShares("duplicate x"));
            }
        }
    }
    // The basis depends on the public `x`s only.
    let xs: Vec<u8> = used.iter().map(|sh| sh.x).collect();
    let basis = lagrange_at_zero(&xs);
    let mut secret = vec![0u8; len];
    for (block, out) in secret.chunks_mut(BLOCK).enumerate() {
        let range = block * BLOCK..block * BLOCK + out.len();
        let mut acc = [0u64; 4];
        for (sh, &l) in used.iter().zip(&basis) {
            let term = mul_public(load(&sh.y[range.clone()]), l);
            for (acc, term) in acc.iter_mut().zip(term) {
                *acc ^= term;
            }
        }
        store(&acc, out);
    }
    Ok(secret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    #[test]
    fn gf_mul_known_values() {
        assert_eq!(gf_mul(0, 5), 0);
        assert_eq!(gf_mul(1, 5), 5);
        assert_eq!(gf_mul(2, 2), 4);
        // 0x53 * 0xCA = 0x01 in AES field (classic inverse pair).
        assert_eq!(gf_mul(0x53, 0xca), 0x01);
    }

    #[test]
    fn gf_inverse_all_nonzero() {
        let all: Vec<u8> = (0..=255).collect();
        for lane in all.chunks(LANE) {
            let inv = inv_bytes(load_lane(lane)).to_le_bytes();
            for (&a, &a_inv) in lane.iter().zip(&inv) {
                assert_eq!(gf_mul(a, a_inv), u8::from(a != 0), "a={a}");
            }
        }
    }

    #[test]
    fn byte_products_and_zero_bytes_cover_every_byte() {
        let all: Vec<u8> = (0..=255).collect();
        for lane in all.chunks(LANE) {
            let a = load_lane(lane);
            let zero = zero_bytes(a).to_le_bytes();
            for (&x, &z) in lane.iter().zip(&zero) {
                assert_eq!(z, u8::from(x == 0), "a={x}");
            }
            for b in 0..=255u8 {
                let prod = mul_bytes(a, u64::from(b) * 0x0101_0101_0101_0101).to_le_bytes();
                for (&x, &p) in lane.iter().zip(&prod) {
                    assert_eq!(p, gf_mul(x, b), "{x}·{b}");
                }
            }
        }
    }

    #[test]
    fn share_and_reconstruct_exact_threshold() {
        let secret = b"the noise seed g_{u,k} for k=3!!";
        let shares = share(secret, 3, 5, &mut rng()).unwrap();
        assert_eq!(shares.len(), 5);
        let got = reconstruct(&shares[..3], 3).unwrap();
        assert_eq!(got, secret);
        let got2 = reconstruct(&shares[2..5], 3).unwrap();
        assert_eq!(got2, secret);
    }

    #[test]
    fn any_t_subset_reconstructs() {
        let secret = [0xde, 0xad, 0xbe, 0xef];
        let shares = share(&secret, 2, 4, &mut rng()).unwrap();
        for i in 0..4 {
            for j in (i + 1)..4 {
                let subset = vec![shares[i].clone(), shares[j].clone()];
                assert_eq!(reconstruct(&subset, 2).unwrap(), secret);
            }
        }
    }

    #[test]
    fn too_few_shares_fails() {
        let shares = share(b"secret", 3, 5, &mut rng()).unwrap();
        let err = reconstruct(&shares[..2], 3).unwrap_err();
        assert_eq!(err, CryptoError::NotEnoughShares { needed: 3, got: 2 });
    }

    #[test]
    fn fewer_than_t_shares_reveal_nothing_about_equal_prefix() {
        // Shares of two different secrets with the same randomness stream
        // should differ, but a single share must not determine the secret:
        // verify that many secrets are consistent with one fixed share by
        // checking shares of distinct secrets can collide in x but differ
        // in y (statistical smoke test of the hiding property).
        let s1 = share(b"AAAA", 2, 3, &mut rng()).unwrap();
        let s2 = share(b"BBBB", 2, 3, &mut rng()).unwrap();
        assert_eq!(s1[0].x, s2[0].x);
        // With t=2, a lone share's y values are uniform; they should not
        // simply equal the secret bytes.
        assert_ne!(s1[0].y, b"AAAA".to_vec());
    }

    #[test]
    fn duplicate_shares_rejected() {
        let shares = share(b"s", 2, 3, &mut rng()).unwrap();
        let dup = vec![shares[0].clone(), shares[0].clone()];
        assert!(matches!(
            reconstruct(&dup, 2),
            Err(CryptoError::InconsistentShares(_))
        ));
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(share(b"s", 0, 3, &mut rng()).is_err());
        assert!(share(b"s", 4, 3, &mut rng()).is_err());
        assert!(share(b"s", 2, 256, &mut rng()).is_err());
    }

    #[test]
    fn empty_secret_roundtrips() {
        let shares = share(b"", 2, 3, &mut rng()).unwrap();
        assert_eq!(reconstruct(&shares[..2], 2).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn one_of_one_sharing() {
        let shares = share(b"solo", 1, 1, &mut rng()).unwrap();
        assert_eq!(reconstruct(&shares, 1).unwrap(), b"solo");
    }

    /// The log/exp-table implementation the lanes replaced: one secret
    /// byte and one table lookup at a time. Kept as the oracle.
    mod log_exp {
        use super::super::Share;
        use rand::Rng;

        /// GF(256) log/antilog tables for 0x11b with generator 3.
        struct Tables {
            exp: [u8; 512],
            log: [u8; 256],
        }

        const TABLES: Tables = {
            let (mut exp, mut log) = ([0u8; 512], [0u8; 256]);
            let mut x: u16 = 1;
            let mut i = 0;
            while i < 255 {
                exp[i] = x as u8;
                log[x as usize] = i as u8;
                // x·3 = (x << 1) ^ x.
                x ^= x << 1;
                if x & 0x100 != 0 {
                    x ^= 0x11b;
                }
                i += 1;
            }
            while i < 512 {
                exp[i] = exp[i - 255];
                i += 1;
            }
            Tables { exp, log }
        };

        fn gf_mul(a: u8, b: u8) -> u8 {
            if a == 0 || b == 0 {
                return 0;
            }
            TABLES.exp[TABLES.log[a as usize] as usize + TABLES.log[b as usize] as usize]
        }

        fn gf_inv(a: u8) -> u8 {
            TABLES.exp[255 - TABLES.log[a as usize] as usize]
        }

        pub fn share<R: Rng>(secret: &[u8], t: usize, n: usize, rng: &mut R) -> Vec<Share> {
            let mut shares: Vec<Share> = (1..=n as u8)
                .map(|x| Share {
                    x,
                    y: vec![0u8; secret.len()],
                })
                .collect();
            let mut coeffs = vec![0u8; t];
            for (byte_idx, &s) in secret.iter().enumerate() {
                coeffs[0] = s;
                for c in coeffs.iter_mut().skip(1) {
                    *c = rng.gen();
                }
                for sh in shares.iter_mut() {
                    let mut acc = 0u8;
                    for &c in coeffs.iter().rev() {
                        acc = gf_mul(acc, sh.x) ^ c;
                    }
                    sh.y[byte_idx] = acc;
                }
            }
            shares
        }

        pub fn reconstruct(used: &[Share]) -> Vec<u8> {
            let mut secret = vec![0u8; used[0].y.len()];
            for (i, si) in used.iter().enumerate() {
                let (mut num, mut den) = (1u8, 1u8);
                for (j, sj) in used.iter().enumerate() {
                    if i != j {
                        num = gf_mul(num, sj.x);
                        den = gf_mul(den, sj.x ^ si.x);
                    }
                }
                let basis = gf_mul(num, gf_inv(den));
                for (b, &y) in secret.iter_mut().zip(&si.y) {
                    *b ^= gf_mul(basis, y);
                }
            }
            secret
        }

        #[test]
        fn tables_are_the_bitwise_products() {
            for a in 0..=255u8 {
                for b in 0..=255u8 {
                    assert_eq!(gf_mul(a, b), super::gf_mul(a, b), "{a}·{b}");
                }
            }
        }
    }

    #[test]
    fn xtime_doubles_every_byte() {
        for a in 0..=255u8 {
            let want = (u16::from(a) << 1) ^ if a & 0x80 != 0 { 0x11b } else { 0 };
            let lane = u64::from_le_bytes([a, 0x80, a, 0x01, 0xff, a, 0, a]);
            let got = xtime(lane).to_le_bytes();
            assert_eq!(got[0], want as u8);
            assert_eq!([got[1], got[3], got[4], got[6]], [0x1b, 0x02, 0xe5, 0]);
            assert_eq!([got[2], got[5], got[7]], [want as u8; 3]);
        }
    }

    /// Byte-parallel `share` and `reconstruct` against the log/exp
    /// oracle over a (t, n, seed) grid, secret lengths on both sides of
    /// a 32-byte block: the same shares (so the same RNG draws, in the
    /// same order), the same RNG state afterwards, the same secret back.
    #[test]
    fn lanes_match_the_log_exp_oracle() {
        use rand::RngCore;
        let grid = [
            (1, 1),
            (1, 4),
            (2, 3),
            (3, 5),
            (11, 21),
            (17, 32),
            (24, 25),
            (100, 180),
            (255, 255),
        ];
        let lens = [0, 1, 7, 31, 32, 33, 64, 70];
        for (t, n) in grid {
            for seed in 0..20u64 {
                let len = lens[seed as usize % lens.len()];
                let mut draw = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5ec7e7);
                let secret: Vec<u8> = (0..len).map(|_| draw.gen()).collect();
                let (mut ours, mut theirs) = (
                    rand::rngs::StdRng::seed_from_u64(seed),
                    rand::rngs::StdRng::seed_from_u64(seed),
                );
                let shares = share(&secret, t, n, &mut ours).unwrap();
                assert_eq!(
                    shares,
                    log_exp::share(&secret, t, n, &mut theirs),
                    "t={t} n={n} seed={seed}"
                );
                assert_eq!(
                    ours.next_u64(),
                    theirs.next_u64(),
                    "RNG consumption, t={t} n={n}"
                );
                // The last t shares, in reverse: not the first x's, not
                // in order.
                let mut used = shares[n - t..].to_vec();
                used.reverse();
                let got = reconstruct(&used, t).unwrap();
                assert_eq!(got, log_exp::reconstruct(&used), "t={t} n={n} seed={seed}");
                assert_eq!(got, secret);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            secret in proptest::collection::vec(any::<u8>(), 0..64),
            t in 1usize..6,
            extra in 0usize..6,
            seed in any::<u64>(),
        ) {
            let n = t + extra;
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let shares = share(&secret, t, n, &mut r).unwrap();
            // Reconstruct from the *last* t shares to vary the subset.
            let got = reconstruct(&shares[n - t..], t).unwrap();
            prop_assert_eq!(got, secret);
        }

        #[test]
        fn prop_reconstruct_ignores_share_order(
            secret in proptest::collection::vec(any::<u8>(), 1..32),
            seed in any::<u64>(),
        ) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let shares = share(&secret, 3, 5, &mut r).unwrap();
            let mut rev: Vec<Share> = shares[..3].to_vec();
            rev.reverse();
            prop_assert_eq!(reconstruct(&rev, 3).unwrap(), secret);
        }
    }
}
