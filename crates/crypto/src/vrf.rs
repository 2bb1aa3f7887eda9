//! A verifiable random function (VRF) over edwards25519.
//!
//! Dordis §7 proposes VRF-based client sampling to stop a malicious
//! server from cherry-picking colluding clients: each client evaluates
//! `VRF(sk, round)` itself, participates iff the output falls below the
//! sampling threshold, and everyone can verify everyone else's
//! participation proof.
//!
//! The construction is the classic EC-VRF shape:
//!
//! - hash-to-curve `H = h2c(input)` (try-and-increment, cofactor-cleared),
//! - `Γ = x·H` where `x` is the secret scalar, `PK = x·B`,
//! - a Chaum–Pedersen DLEQ proof that `log_B(PK) = log_H(Γ)`,
//! - output `β = SHA-256("out" ‖ Γ)`.
//!
//! Proofs are non-interactive via Fiat–Shamir. Like the signature module,
//! this is a from-scratch implementation that is *not* wire-compatible
//! with RFC 9381, but carries the same uniqueness + pseudorandomness
//! structure. Uniqueness needs one check beyond the DLEQ equations: the
//! proof pins `Γ` only up to a small-order point `T` (a prover who
//! retries nonces until `c·T = O` makes `Γ + T` verify, and up to eight
//! outputs with an order-8 `T`), and the output hashes `Γ` as sent, so
//! [`VrfPublicKey::verify`] refuses a `Γ` outside the prime-order
//! subgroup (`[l]·Γ ≠ O`). An honest `Γ = x·H` is always inside.
//!
//! Timing: [`VrfSecretKey::from_seed`] and [`VrfSecretKey::evaluate`]
//! multiply by the secret scalar and the proof nonce only through
//! `Point::mul_base`, `Point::mul_scalar2` and `Comb::mul2`, which are
//! constant-time in the scalar (see [`crate::ed25519`]; the scalar
//! arithmetic `s = k + c·x` is not). [`VrfPublicKey::verify`] sees public
//! values only — key, input, proof — and is the one place here allowed
//! to call the variable-time `Point::vartime_*` forms.
//!
//! Where the CPU has AVX-512IFMA, every multiplication here runs on the
//! IFMA Edwards pair: `evaluate`'s `x·H` and `k·H` as one pass (a
//! windowed pass, or a comb pass on an input that carries the comb of
//! `H`), `x·B` and `k·B` as a comb pass over the static base comb, and
//! `verify`'s two Straus chains `s·B − c·PK`, `s·H − c·Γ` and the
//! subgroup checks of two proofs' `Γ` as one pass each.
//!
//! A round's shared work is done once:
//!
//! - **The input hash.** A [`VrfInput`] hashes an input to the curve
//!   once for every key that evaluates it and every proof verified
//!   against it: `core::session::planned_cohorts` evaluates a round's
//!   keys on one, and `core::sampling::seat_claims` checks a round's
//!   claims against one. Bytes passed to `evaluate` or `verify` are
//!   hashed on that call, so a lone `self_select` or `verify` still pays
//!   the hash. `H`'s encoding rides in each call's one batch inversion.
//! - **The comb of `H`.** [`VrfInput::for_many_evaluations`], whose
//!   caller is `planned_cohorts` (a round's input under every key of the
//!   population), also builds the comb of `H` once where the CPU has
//!   AVX-512IFMA, so each evaluation takes `x·H` and `k·H` with no
//!   doubling. A lone `self_select`, every `verify` and a host without
//!   IFMA build none and run `mul_scalar2`.
//! - **The key's point.** A [`VrfPublicKey`] keeps the point key
//!   generation computed, so `verify` decompresses no key.
//! - **The subgroup checks.** [`VrfProof::check_all`] parses a batch of
//!   proofs and checks their `Γ`s two a pass of the Edwards pair, into
//!   [`CheckedProof`]s that `verify` takes as they are.
//!
//! On the 2-core AVX-512IFMA host (`benches/crypto.rs`, medians of ten
//! alternating runs; single runs swing up to 2× with the host's load):
//! `evaluate` ≈ 71 µs from bytes, ≈ 42 µs on a `VrfInput` and ≈ 25 µs
//! on one built for many evaluations (`x·H` and `k·H` ≈ 8 µs from the
//! comb against ≈ 29 µs for `mul_scalar2`, `k·B` ≈ 5 µs; the comb costs
//! ≈ 39 µs once a round), `verify` ≈ 97 µs from bytes; a round's claim
//! costs half of `check_all` of two (≈ 40 µs) and `verify` of the
//! checked proof on the round's `VrfInput` (≈ 37 µs).

use std::borrow::Cow;
use std::fmt;

use crate::ed25519::{Comb, Point, Scalar};
use crate::hmac::hkdf;
use crate::sha256::sha256_concat;
use crate::CryptoError;

/// VRF secret key.
#[derive(Clone)]
pub struct VrfSecretKey {
    scalar: Scalar,
    public: VrfPublicKey,
}

/// VRF public key: the compressed point, and the point itself as key
/// generation computed it, so a verification decompresses nothing.
#[derive(Clone, Copy)]
pub struct VrfPublicKey {
    encoded: [u8; 32],
    point: Point,
}

/// A VRF evaluation proof: `(Γ, c, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VrfProof {
    /// The VRF point `Γ = x·H` (compressed).
    pub gamma: [u8; 32],
    /// Fiat–Shamir challenge.
    pub c: [u8; 32],
    /// Response scalar.
    pub s: [u8; 32],
}

impl VrfSecretKey {
    /// Derives a VRF key from a 32-byte seed.
    #[must_use]
    pub fn from_seed(seed: &[u8; 32]) -> VrfSecretKey {
        let wide = hkdf(b"dordis.vrf.keygen", seed, b"scalar");
        let scalar = Scalar::from_wide_bytes(&wide);
        let scalar = if scalar.is_zero() {
            Scalar::ONE
        } else {
            scalar
        };
        let point = Point::mul_base(&scalar);
        let public = VrfPublicKey {
            encoded: point.compress(),
            point,
        };
        VrfSecretKey { scalar, public }
    }

    /// The corresponding public key.
    #[must_use]
    pub fn public_key(&self) -> VrfPublicKey {
        self.public
    }

    /// Evaluates the VRF: returns `(output, proof)`. `input` is the
    /// input's bytes, hashed to the curve here, or a [`VrfInput`] hashed
    /// once for every key that evaluates the same input.
    #[must_use]
    pub fn evaluate<I: AsVrfInput + ?Sized>(&self, input: &I) -> ([u8; 32], VrfProof) {
        let input = input.as_vrf_input();
        // DLEQ proof: k random (derived deterministically), commitments
        // k·B and k·H, challenge c = H(B, H, PK, Γ, k·B, k·H),
        // response s = k + c·x.
        let k = {
            let mut material = self.scalar.to_bytes().to_vec();
            material.extend_from_slice(&input.bytes);
            let wide = hkdf(b"dordis.vrf.nonce", &material, b"k");
            let k = Scalar::from_wide_bytes(&wide);
            if k.is_zero() {
                Scalar::ONE
            } else {
                k
            }
        };
        let [gamma, kh] = input
            .comb
            .as_ref()
            .and_then(|comb| comb.mul2(&self.scalar, &k))
            .unwrap_or_else(|| input.point.mul_scalar2(&self.scalar, &k));
        let [h_c, gamma_c, kb, kh] =
            Point::compress_batch(&[input.point, gamma, Point::mul_base(&k), kh]);
        let c_bytes = challenge(&self.public.encoded, &h_c, &gamma_c, &kb, &kh);
        let c = Scalar::from_bytes_mod_l(&c_bytes);
        let s = k.add(c.mul(self.scalar));
        let output = vrf_output(&gamma_c);
        (
            output,
            VrfProof {
                gamma: gamma_c,
                c: c_bytes,
                s: s.to_bytes(),
            },
        )
    }
}

impl VrfPublicKey {
    /// The key's 32-byte encoding.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 32] {
        self.encoded
    }

    /// Decompresses a key from its encoding: what a key looks like to a
    /// verifier that was handed only the bytes.
    #[cfg(test)]
    pub(crate) fn from_bytes(encoded: &[u8; 32]) -> Result<VrfPublicKey, CryptoError> {
        Ok(VrfPublicKey {
            encoded: *encoded,
            point: Point::decompress(encoded)?,
        })
    }

    /// Verifies a proof and returns the VRF output. `input` is the
    /// input's bytes, hashed to the curve here, or a [`VrfInput`] hashed
    /// once for every proof against the same input; `proof` is a
    /// [`VrfProof`], parsed and subgroup-checked here, or a
    /// [`CheckedProof`] checked already.
    ///
    /// # Errors
    ///
    /// Fails on an invalid `Γ` or `s`, a `Γ` outside the prime-order
    /// subgroup or a non-verifying DLEQ proof.
    pub fn verify<I: AsVrfInput + ?Sized, P: AsCheckedProof + ?Sized>(
        &self,
        input: &I,
        proof: &P,
    ) -> Result<[u8; 32], CryptoError> {
        let proof = proof.as_checked_proof()?;
        let input = input.as_vrf_input();
        // Recompute commitments: k·B = s·B − c·PK, k·H = s·H − c·Γ. Key,
        // input and proof are all public.
        let [kb, kh] = Point::vartime_straus2(
            &proof.s,
            &proof.c,
            &self.point.neg(),
            &input.point,
            &proof.gamma.neg(),
        );
        let [h_c, kb, kh] = Point::compress_batch(&[input.point, kb, kh]);
        let expected_c = challenge(&self.encoded, &h_c, &proof.proof.gamma, &kb, &kh);
        if expected_c != proof.proof.c {
            return Err(CryptoError::BadSignature);
        }
        Ok(vrf_output(&proof.proof.gamma))
    }
}

impl fmt::Debug for VrfPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("VrfPublicKey").field(&self.encoded).finish()
    }
}

/// A VRF input hashed to the curve, with its bytes: the part of an
/// evaluation or a verification that every key and every proof on the
/// same input shares. The point's encoding, which the challenge hashes,
/// rides in each call's one batch inversion. An input built for many
/// evaluations also carries the comb of its point.
#[derive(Clone, Debug)]
pub struct VrfInput {
    bytes: Vec<u8>,
    point: Point,
    /// The comb of `point`, from which `evaluate` takes `x·H` and `k·H`
    /// with no doubling: built by [`VrfInput::for_many_evaluations`]
    /// where the CPU has AVX-512IFMA, `None` otherwise.
    comb: Option<Comb>,
}

impl VrfInput {
    /// Hashes `input` to the curve (two decompressions on average).
    #[must_use]
    pub fn new(input: &[u8]) -> VrfInput {
        VrfInput {
            bytes: input.to_vec(),
            point: hash_to_curve(input),
            comb: None,
        }
    }

    /// [`VrfInput::new`], plus the comb of the hashed point where the
    /// CPU has AVX-512IFMA ([`Point::comb`]: about the cost of two
    /// variable-base products, 80 KiB): for an input that many keys
    /// evaluate, such as a round's input under every key of the
    /// population. Every evaluation on it then takes `x·H` and `k·H`
    /// from the comb. Verification does not read the comb.
    #[must_use]
    pub fn for_many_evaluations(input: &[u8]) -> VrfInput {
        let mut input = VrfInput::new(input);
        input.comb = input.point.comb();
        input
    }
}

/// What [`VrfSecretKey::evaluate`] and [`VrfPublicKey::verify`] take as
/// their input: bytes, hashed on each call, or a [`VrfInput`] hashed
/// already.
pub trait AsVrfInput {
    /// The input hashed to the curve.
    fn as_vrf_input(&self) -> Cow<'_, VrfInput>;
}

impl<T: AsRef<[u8]> + ?Sized> AsVrfInput for T {
    fn as_vrf_input(&self) -> Cow<'_, VrfInput> {
        Cow::Owned(VrfInput::new(self.as_ref()))
    }
}

impl AsVrfInput for VrfInput {
    fn as_vrf_input(&self) -> Cow<'_, VrfInput> {
        Cow::Borrowed(self)
    }
}

/// A proof with `Γ` decompressed, `c` and `s` parsed and `Γ` in the
/// prime-order subgroup: every check of a verification that needs
/// neither the key nor the input, made ahead of it.
#[derive(Clone, Debug)]
pub struct CheckedProof {
    proof: VrfProof,
    gamma: Point,
    c: Scalar,
    s: Scalar,
}

impl VrfProof {
    /// Decompresses `Γ` and parses `s`, the checks that need no group
    /// multiplication.
    fn parse(&self) -> Result<CheckedProof, CryptoError> {
        Ok(CheckedProof {
            gamma: Point::decompress(&self.gamma)?,
            c: Scalar::from_bytes_mod_l(&self.c),
            s: Scalar::from_canonical_bytes(&self.s)?,
            proof: self.clone(),
        })
    }

    /// Parses the proof and checks that `Γ` lies in the prime-order
    /// subgroup.
    ///
    /// The DLEQ equations pin `Γ` only up to a small-order `T`: with `Γ +
    /// T`, a prover who retries nonces until `c·T = O` gets a second
    /// output that verifies. Uniqueness needs `Γ` in the prime-order
    /// subgroup, where the honest `x·H` always is.
    ///
    /// # Errors
    ///
    /// An invalid `Γ` or a non-canonical `s`, or a `Γ` outside the
    /// subgroup ([`CryptoError::InvalidPoint`]).
    fn check(&self) -> Result<CheckedProof, CryptoError> {
        let proof = self.parse()?;
        if !proof.gamma.is_torsion_free() {
            return Err(CryptoError::InvalidPoint);
        }
        Ok(proof)
    }

    /// Parses every proof and checks that its `Γ` lies in the
    /// prime-order subgroup, the checks of two parsed proofs in one pass
    /// of the Edwards pair. Each result, in order, is what `verify` finds
    /// for that proof alone before its DLEQ equations.
    #[must_use]
    pub fn check_all<'a>(
        proofs: impl IntoIterator<Item = &'a VrfProof>,
    ) -> Vec<Result<CheckedProof, CryptoError>> {
        let parsed: Vec<_> = proofs.into_iter().map(VrfProof::parse).collect();
        let gammas: Vec<Point> = parsed.iter().flatten().map(|p| p.gamma).collect();
        let mut free = Vec::with_capacity(gammas.len());
        let mut pairs = gammas.chunks_exact(2);
        for pair in &mut pairs {
            free.extend(Point::are_torsion_free(&[pair[0], pair[1]]));
        }
        free.extend(pairs.remainder().iter().map(Point::is_torsion_free));
        let mut free = free.into_iter();
        parsed
            .into_iter()
            .map(|proof| {
                let proof = proof?;
                if free.next().expect("one check a parsed proof") {
                    Ok(proof)
                } else {
                    Err(CryptoError::InvalidPoint)
                }
            })
            .collect()
    }
}

/// What [`VrfPublicKey::verify`] takes as its proof: a [`VrfProof`],
/// checked on each call, or a [`CheckedProof`] checked already.
pub trait AsCheckedProof {
    /// The proof, parsed and subgroup-checked.
    ///
    /// # Errors
    ///
    /// An invalid `Γ` or a non-canonical `s`, or a `Γ` outside the
    /// subgroup ([`CryptoError::InvalidPoint`]).
    fn as_checked_proof(&self) -> Result<Cow<'_, CheckedProof>, CryptoError>;
}

impl AsCheckedProof for VrfProof {
    fn as_checked_proof(&self) -> Result<Cow<'_, CheckedProof>, CryptoError> {
        self.check().map(Cow::Owned)
    }
}

impl AsCheckedProof for CheckedProof {
    fn as_checked_proof(&self) -> Result<Cow<'_, CheckedProof>, CryptoError> {
        Ok(Cow::Borrowed(self))
    }
}

/// Try-and-increment hash-to-curve, cofactor-cleared to the prime-order
/// subgroup.
fn hash_to_curve(input: &[u8]) -> Point {
    for ctr in 0u32..=255 {
        let digest = sha256_concat(&[b"dordis.vrf.h2c", &ctr.to_le_bytes(), input]);
        if let Ok(p) = Point::decompress(&digest) {
            // Multiply by the cofactor 8 to land in the prime-order group;
            // reject if that gives the identity (tiny-order input point).
            let cleared = p.double().double().double();
            if !cleared.is_identity() {
                return cleared;
            }
        }
    }
    // Statistically unreachable (each attempt succeeds w.p. ~1/2).
    unreachable!("hash_to_curve failed for all counters");
}

fn challenge(
    pk: &[u8; 32],
    h: &[u8; 32],
    gamma: &[u8; 32],
    kb: &[u8; 32],
    kh: &[u8; 32],
) -> [u8; 32] {
    sha256_concat(&[b"dordis.vrf.chal", pk, h, gamma, kb, kh])
}

fn vrf_output(gamma: &[u8; 32]) -> [u8; 32] {
    sha256_concat(&[b"dordis.vrf.out", gamma])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_verify_roundtrip() {
        let sk = VrfSecretKey::from_seed(&[1u8; 32]);
        let (out, proof) = sk.evaluate(b"round 42");
        let verified = sk.public_key().verify(b"round 42", &proof).unwrap();
        assert_eq!(out, verified);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The VRF input `core::sampling` evaluates for a round.
    fn sampling_input(round: u64) -> Vec<u8> {
        [&b"dordis.sampling.round"[..], &round.to_le_bytes()].concat()
    }

    /// No released key, proof or signature changes: (VRF public key,
    /// output, `Γ‖c‖s`) on the round-7 sampling input and (verifying key,
    /// signature) per seed, recorded at commit cf51982 — before the
    /// group arithmetic under them was replaced — plus a digest of the
    /// same for 64 more keys.
    #[test]
    fn released_proofs_and_signatures_golden() {
        use crate::ed25519::SigningKey;
        let golden = [
            (
                [0x00u8; 32],
                "1ea378173da5f2301c520ec8978a94b3473b3a5626dfafe1b5fae6b16e22c470",
                "2e6579e7ef989616e75f3d9f5c0db0a4ca43c51e3016f1f95d8aa55a522d4803",
                "f607da201203902409233a6c29296a6534d01e7cfd84f7073c332077a67e9714\
                 161129f8169ce352930e7e888b30c0a9fb30dfe5d0e29851cddb54e7675377d1\
                 32324231a1f2c183d41d6c3bfb9559cdacc78430b16bc727e376db35eb419d07",
                "3eef4441b644cad0a4fb052a792bba88184af786716a6ab13db2a5f3f0e17c69",
                "6790605dc750bffcd91b791a1498c858299fdf467a0517d6935886dfbbd492e9\
                 579d377299888e349dbb0847c1010526be00d146bb256e81e315fe01b7cc3007",
            ),
            (
                [0x42u8; 32],
                "65724446f0971189cd7c748b0fdf63c27b852b0e139d081e451abc095f6b63bb",
                "3d0265dd66536f8d48da7a20335e422fe5b567f3cc0351dd905f0d896856b204",
                "6e72e8c2cc012a917d226e8b39f17b09e48f6f998ea5d6772c33a9bfa661b100\
                 12d80b94649e4dd1486a95d181187d5c0da92388abc7833876e2cdefa25a351d\
                 091a06aed08e9d6c4d00d0f234391742c34b0087b3d047dd3e541e43ad3aa206",
                "d2cdb509bdf3e9aba0ce82cc02e276209cf2de1e2387806e5acfa19ec39233f1",
                "b9f6624b0fac8ddf12e85c419e816daf39ba2a774a8eb2d339c2623f0083b3e2\
                 a8718e5303498ab6bfda377dbe83573e5409df03e6a11ab3e4bf2386bba72507",
            ),
            (
                [0xffu8; 32],
                "e633f8a797428e5c24a2e4539780a814c30340f5b8f27517662e5379a7dba272",
                "f52470205d3bb9d0b97812653294bcd2887d4264bc96c3c123070450eecb2054",
                "3f4f4d45599d9edd403767ee26c794cb3d2fec056e338c3c3e6159eb7744e413\
                 6fbe9a97f0bd55c62e82bc2d289dc400d0311a427b8d17bb713064d0f493608d\
                 2cd9e042f47eea0734e525724bcd454f8b85707966d02d741db0d999265b3106",
                "4809c3f7286174b524bf0298228580387e36353fcbf595d76329417962fc5927",
                "59a6a22dc3839af4d5009a84b6a48c9a88eb880c4db585b03c8567710f7a5cf4\
                 b18b6d243ab520926783d80ec5130fc859fa7333e18839096a50cbaac29c440a",
            ),
        ];
        let message = b"round 12 consistency check over U3";
        for (seed, pk, out, proof_hex, vk, sig_hex) in golden {
            let sk = VrfSecretKey::from_seed(&seed);
            let (output, proof) = sk.evaluate(&sampling_input(7));
            assert_eq!(hex(&sk.public_key().to_bytes()), pk);
            assert_eq!(hex(&output), out);
            assert_eq!(hex(&[proof.gamma, proof.c, proof.s].concat()), proof_hex);
            assert_eq!(
                sk.public_key().verify(&sampling_input(7), &proof),
                Ok(output)
            );
            let signer = SigningKey::from_seed(&seed);
            let signature = signer.sign(message);
            assert_eq!(hex(&signer.verifying_key().0), vk);
            assert_eq!(hex(&signature.0), sig_hex);
            assert_eq!(signer.verifying_key().verify(message, &signature), Ok(()));
        }

        let mut all = Vec::new();
        for i in 0..64u8 {
            let mut seed = [i; 32];
            seed[31] = 0xa5;
            let sk = VrfSecretKey::from_seed(&seed);
            let (output, proof) = sk.evaluate(&sampling_input(u64::from(i)));
            let signer = SigningKey::from_seed(&seed);
            for part in [
                &sk.public_key().to_bytes()[..],
                &output,
                &proof.gamma,
                &proof.c,
                &proof.s,
                &signer.verifying_key().0,
                &signer.sign(&seed).0,
            ] {
                all.extend_from_slice(part);
            }
        }
        assert_eq!(
            hex(&crate::sha256::sha256(&all)),
            "954ec490c05df088faf14008eb1511abb8f8e0c8d7e4c7d553cf6ca38f806d46"
        );
    }

    /// The goldens again with the Edwards pair switched off: the scalar
    /// fallback releases the same keys, outputs and proofs.
    #[test]
    fn released_goldens_hold_on_the_scalar_fallback() {
        crate::ed25519::with_scalar_pair(released_proofs_and_signatures_golden);
    }

    /// A point of the given order (2, 4 or 8): `l·P` of a hashed-to point
    /// lands in the torsion subgroup.
    fn torsion_point(order: u32) -> Point {
        let l_minus_one = Scalar::ZERO.sub(Scalar::ONE);
        let order8 = (0u8..)
            .filter_map(|i| Point::decompress(&crate::sha256::sha256(&[i])).ok())
            .map(|p| p.mul_scalar(&l_minus_one).add(&p))
            .find(|t| !t.double().double().is_identity())
            .expect("some hashed point has a torsion component of order 8");
        match order {
            8 => order8,
            4 => order8.double(),
            2 => order8.double().double(),
            _ => unreachable!("orders 2, 4 and 8 only"),
        }
    }

    /// What a key holder can prove for `Γ + t` without the subgroup check:
    /// honest commitments, nonces retried until `c·t = O`, so that `s·H −
    /// c·(Γ + t) = k·H` holds. Returns the proof and the attempts it took.
    fn forge_shifted(sk: &VrfSecretKey, input: &[u8], t: &Point) -> (VrfProof, u64) {
        let h = hash_to_curve(input);
        let shifted = h.mul_scalar(&sk.scalar).add(t);
        for attempt in 1u64.. {
            let k = Scalar::from_u64(attempt);
            let [h_c, gamma_c, kb, kh] =
                Point::compress_batch(&[h, shifted, Point::mul_base(&k), h.mul_scalar(&k)]);
            let c_bytes = challenge(&sk.public.encoded, &h_c, &gamma_c, &kb, &kh);
            let c = Scalar::from_bytes_mod_l(&c_bytes);
            if t.mul_scalar(&c).is_identity() {
                let s = k.add(c.mul(sk.scalar)).to_bytes();
                let proof = VrfProof {
                    gamma: gamma_c,
                    c: c_bytes,
                    s,
                };
                return (proof, attempt);
            }
        }
        unreachable!("c·t = O for one c in eight")
    }

    /// A VRF output is unique: a `Γ` shifted by a point of order 2 or 8,
    /// with a proof whose DLEQ equations hold, is refused, on both paths.
    #[test]
    fn small_order_shifts_of_gamma_are_rejected() {
        crate::ed25519::on_both_paths(|| {
            let sk = VrfSecretKey::from_seed(&[12u8; 32]);
            let input = sampling_input(3);
            let (honest, _) = sk.evaluate(&input);
            for order in [2, 8] {
                let (forged, attempts) = forge_shifted(&sk, &input, &torsion_point(order));
                assert!(attempts < 200, "order {order}: {attempts} attempts");
                assert_ne!(vrf_output(&forged.gamma), honest, "a second output");
                assert_eq!(
                    sk.public_key().verify(&input, &forged),
                    Err(CryptoError::InvalidPoint),
                    "order {order}"
                );
            }
        });
    }

    /// Bytes and a [`VrfInput`] hashed from them verify alike.
    #[test]
    fn prehashed_input_verifies_like_its_bytes() {
        let sk = VrfSecretKey::from_seed(&[13u8; 32]);
        let (out, proof) = sk.evaluate(b"round 5");
        let input = VrfInput::new(b"round 5");
        assert_eq!(sk.public_key().verify(&input, &proof), Ok(out));
        assert_eq!(sk.public_key().verify(b"round 5", &proof), Ok(out));
        let other = VrfInput::new(b"round 6");
        assert!(sk.public_key().verify(&other, &proof).is_err());
    }

    /// The keys and inputs the goldens above pin: three seeds on the
    /// round-7 sampling input, and 64 more each on its own round.
    fn golden_cases() -> Vec<(VrfSecretKey, Vec<u8>)> {
        let three = [[0x00u8; 32], [0x42; 32], [0xff; 32]]
            .map(|seed| (VrfSecretKey::from_seed(&seed), sampling_input(7)));
        let more = (0..64u8).map(|i| {
            let mut seed = [i; 32];
            seed[31] = 0xa5;
            (VrfSecretKey::from_seed(&seed), sampling_input(u64::from(i)))
        });
        three.into_iter().chain(more).collect()
    }

    /// A [`VrfInput`] evaluates exactly as its bytes do, output and
    /// proof, on every golden key and input, on both paths.
    #[test]
    fn prehashed_evaluate_matches_bytes_on_the_golden_inputs() {
        crate::ed25519::on_both_paths(|| {
            for (sk, input) in golden_cases() {
                assert_eq!(sk.evaluate(&VrfInput::new(&input)), sk.evaluate(&input));
            }
        });
    }

    /// An input built for many evaluations, which carries the comb of
    /// its point where the pair runs, evaluates exactly as its bytes do,
    /// output and proof, on every golden key and input, on both paths.
    #[test]
    fn comb_evaluate_matches_bytes_on_the_golden_inputs() {
        crate::ed25519::on_both_comb_paths(|| {
            for (sk, input) in golden_cases() {
                let shared = VrfInput::for_many_evaluations(&input);
                assert_eq!(sk.evaluate(&shared), sk.evaluate(&input));
            }
        });
    }

    /// The key that key generation hands out, with its point kept,
    /// verifies every proof exactly as the same key decompressed from its
    /// bytes does: honest proofs, each part tampered, a torsion-shifted
    /// `Γ`, another key's proof and another input.
    #[test]
    fn generated_key_verifies_like_its_decompressed_bytes() {
        crate::ed25519::on_both_paths(|| {
            let cases = golden_cases();
            let (_, stranger) = cases[0].0.evaluate(&sampling_input(7));
            for (n, (sk, input)) in cases.iter().enumerate() {
                let generated = sk.public_key();
                let decompressed = VrfPublicKey::from_bytes(&generated.to_bytes())
                    .expect("a generated key decompresses");
                let (_, honest) = sk.evaluate(input);
                let mut proofs = vec![honest.clone(), stranger.clone()];
                for part in 0..3 {
                    let mut bad = honest.clone();
                    [&mut bad.gamma, &mut bad.c, &mut bad.s][part][n % 32] ^= 1;
                    proofs.push(bad);
                }
                if n < 3 {
                    proofs.push(forge_shifted(sk, input, &torsion_point(2)).0);
                }
                for proof in &proofs {
                    for input in [&input[..], b"another input"] {
                        assert_eq!(
                            generated.verify(input, proof),
                            decompressed.verify(input, proof)
                        );
                    }
                }
            }
        });
    }

    /// What a check leaves to compare: the proof it accepted, or why not.
    fn checked(result: Result<CheckedProof, CryptoError>) -> Result<VrfProof, CryptoError> {
        result.map(|checked| checked.proof)
    }

    /// [`VrfProof::check_all`] answers, in order, what
    /// [`VrfProof::check`] answers for each proof alone — and a checked
    /// proof verifies as its bytes do — for an honest `Γ`, `Γ` shifted by
    /// order 2, 4 and 8, the identity, an undecodable `Γ` and a
    /// non-canonical `s`, in either slot of a pair, alone at the end of an
    /// odd batch and after a proof that fails to parse.
    #[test]
    fn check_all_matches_one_check_a_proof() {
        crate::ed25519::on_both_paths(|| {
            let sk = VrfSecretKey::from_seed(&[14u8; 32]);
            let input = VrfInput::new(&sampling_input(4));
            let (_, honest) = sk.evaluate(&input);
            let gamma = Point::decompress(&honest.gamma).expect("honest Γ decodes");
            let with_gamma = |gamma: [u8; 32]| VrfProof {
                gamma,
                ..honest.clone()
            };
            let mut kinds = vec![honest.clone()];
            for order in [2, 4, 8] {
                kinds.push(with_gamma(gamma.add(&torsion_point(order)).compress()));
            }
            kinds.push(with_gamma(Point::identity().compress()));
            kinds.push(with_gamma([0xff; 32]));
            kinds.push(VrfProof {
                s: [0xff; 32],
                ..honest.clone()
            });
            for a in &kinds {
                for b in &kinds {
                    for batch in [vec![a, b], vec![a, b, a], vec![&kinds[5], a, b]] {
                        let all = VrfProof::check_all(batch.iter().copied());
                        assert_eq!(all.len(), batch.len());
                        for (proof, result) in batch.iter().zip(all) {
                            if let Ok(checked) = &result {
                                assert_eq!(
                                    sk.public_key().verify(&input, checked),
                                    sk.public_key().verify(&input, *proof)
                                );
                            }
                            assert_eq!(checked(result), checked(proof.check()));
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn output_is_deterministic_and_input_sensitive() {
        let sk = VrfSecretKey::from_seed(&[2u8; 32]);
        let (o1, _) = sk.evaluate(b"round 1");
        let (o1b, _) = sk.evaluate(b"round 1");
        let (o2, _) = sk.evaluate(b"round 2");
        assert_eq!(o1, o1b);
        assert_ne!(o1, o2);
    }

    #[test]
    fn different_keys_different_outputs() {
        let a = VrfSecretKey::from_seed(&[3u8; 32]);
        let b = VrfSecretKey::from_seed(&[4u8; 32]);
        assert_ne!(a.evaluate(b"x").0, b.evaluate(b"x").0);
    }

    #[test]
    fn wrong_input_rejected() {
        let sk = VrfSecretKey::from_seed(&[5u8; 32]);
        let (_, proof) = sk.evaluate(b"round 7");
        assert!(sk.public_key().verify(b"round 8", &proof).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let a = VrfSecretKey::from_seed(&[6u8; 32]);
        let b = VrfSecretKey::from_seed(&[7u8; 32]);
        let (_, proof) = a.evaluate(b"m");
        assert!(b.public_key().verify(b"m", &proof).is_err());
    }

    #[test]
    fn tampered_proof_rejected() {
        let sk = VrfSecretKey::from_seed(&[8u8; 32]);
        let (_, proof) = sk.evaluate(b"m");
        let pk = sk.public_key();
        let mut bad = proof.clone();
        bad.c[0] ^= 1;
        assert!(pk.verify(b"m", &bad).is_err());
        let mut bad = proof.clone();
        bad.s[0] ^= 1;
        assert!(pk.verify(b"m", &bad).is_err());
        let mut bad = proof;
        bad.gamma[0] ^= 1;
        assert!(pk.verify(b"m", &bad).is_err());
    }

    #[test]
    fn forged_gamma_cannot_verify() {
        // An adversarial server trying to claim a different output needs a
        // different Γ, which breaks the DLEQ proof.
        let sk = VrfSecretKey::from_seed(&[9u8; 32]);
        let other = VrfSecretKey::from_seed(&[10u8; 32]);
        let (_, honest) = sk.evaluate(b"m");
        let (_, theirs) = other.evaluate(b"m");
        let forged = VrfProof {
            gamma: theirs.gamma,
            c: honest.c,
            s: honest.s,
        };
        assert!(sk.public_key().verify(b"m", &forged).is_err());
    }

    #[test]
    fn outputs_are_roughly_uniform() {
        // First byte of outputs over many inputs should spread.
        let sk = VrfSecretKey::from_seed(&[11u8; 32]);
        let mut low = 0usize;
        let n = 200;
        for i in 0..n {
            let (out, _) = sk.evaluate(&[i as u8]);
            if out[0] < 128 {
                low += 1;
            }
        }
        assert!((60..140).contains(&low), "low-half count {low}");
    }

    #[test]
    fn hash_to_curve_points_valid() {
        for i in 0..10u8 {
            let p = hash_to_curve(&[i]);
            assert!(p.on_curve());
            assert!(!p.is_identity());
        }
    }
}
