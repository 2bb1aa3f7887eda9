//! From-scratch cryptographic primitives for the Dordis federated-learning
//! framework.
//!
//! Dordis (EuroSys '24) instantiates its secure-aggregation and XNoise
//! protocols on a small set of standard primitives: a hash, a MAC/KDF, a
//! stream cipher used as a PRG, Diffie–Hellman key agreement, a signature
//! scheme, Shamir secret sharing, and an IND-CPA + INT-CTXT authenticated
//! encryption scheme. No third-party crypto crates are available offline, so
//! this crate implements all of them directly:
//!
//! - [`sha256`]: FIPS 180-4 SHA-256, every block through one compression
//!   function.
//! - `sha256_ni` (x86-64 only): that compression function on the SHA
//!   extensions — the kernel `sha256::compress` runs on where the CPU
//!   has them, bit-equal to the portable rounds it falls back to.
//! - [`hmac`]: RFC 2104 HMAC-SHA256 keyed once into two midstates, and
//!   RFC 5869 HKDF into fixed-size outputs.
//! - [`chacha20`]: RFC 8439 ChaCha20 block function and stream cipher.
//! - `chacha20_avx512` (x86-64 only): sixteen of those blocks per pass
//!   in the lanes of AVX-512 registers — the kernel the keystream's word
//!   reader (the noise and rounding draws) refills from where the CPU
//!   has AVX-512F.
//! - [`prg`]: a seeded, forkable pseudorandom generator on top of ChaCha20.
//! - [`field`]: arithmetic in GF(2^255 - 19) with 51-bit limbs.
//! - [`x25519`]: RFC 7748 Montgomery-ladder Diffie–Hellman, one ladder
//!   at a time (`x25519`) or one secret against many peers
//!   (`x25519_many`).
//! - `x25519_avx512` (x86-64 only): the IFMA kernels, radix 2^51 on
//!   AVX-512IFMA multiply-adds in the lanes of AVX-512 registers: eight
//!   of those ladders — what `x25519_many` runs its batches on where the
//!   CPU has it — and the Edwards pair, two edwards25519 points × four
//!   coordinates, what the VRF's two secret multiplications, its subgroup
//!   check, its verification's two Straus chains and every fixed-base
//!   product `s·B` (a comb pass) run on there.
//! - [`ed25519`]: edwards25519 group operations and a Schnorr signature
//!   scheme over that group (UF-CMA under standard assumptions).
//! - [`shamir`]: t-of-n Shamir secret sharing over GF(256).
//! - [`aead`]: encrypt-then-MAC authenticated encryption
//!   (ChaCha20 + HMAC-SHA256).
//! - [`ka`]: the key-agreement wrapper used by SecAgg (`KA.gen`/`KA.agree`
//!   composed with a hash, as in the paper's Figure 5).
//! - [`vrf`]: an EC-VRF over edwards25519 for verifiable client sampling
//!   (the paper's §7 extension).
//!
//! The hot paths the aggregation protocols' round time is made of
//! (ChaCha20 mask expansion and noise streams, the X25519 ladder over
//! the lazily reduced [`field`], the Edwards multiplications under
//! signatures and the VRF, the SHA-256 under every key derivation and
//! AEAD tag, Shamir's byte-parallel sharing) are written for speed, each
//! with a plain reference it is tested bit-equal against. `unsafe` is
//! denied crate-wide and allowed on exactly three kernel modules:
//! `chacha20_avx512`, `x25519_avx512` (both IFMA kernels, on one field
//! arithmetic) and `sha256_ni`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod chacha20_avx512;
pub mod ed25519;
pub mod field;
pub mod hmac;
pub mod ka;
pub mod prg;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha256_ni;
pub mod shamir;
pub mod vrf;
pub mod x25519;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod x25519_avx512;

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// An authenticated-encryption ciphertext failed integrity verification.
    AuthenticationFailed,
    /// A ciphertext or encoded object was too short or malformed.
    Malformed(&'static str),
    /// A signature did not verify under the given public key.
    BadSignature,
    /// A point encoding was not on the curve or not canonical.
    InvalidPoint,
    /// Secret-sharing reconstruction was attempted with too few shares.
    NotEnoughShares {
        /// Shares required by the scheme threshold.
        needed: usize,
        /// Shares actually supplied.
        got: usize,
    },
    /// Shares passed to reconstruction were inconsistent (e.g. duplicate x).
    InconsistentShares(&'static str),
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication failed"),
            CryptoError::Malformed(what) => write!(f, "malformed input: {what}"),
            CryptoError::BadSignature => write!(f, "bad signature"),
            CryptoError::InvalidPoint => write!(f, "invalid curve point"),
            CryptoError::NotEnoughShares { needed, got } => {
                write!(f, "not enough shares: needed {needed}, got {got}")
            }
            CryptoError::InconsistentShares(what) => write!(f, "inconsistent shares: {what}"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Constant-time byte-slice equality.
///
/// Used wherever secret-dependent comparisons occur (MAC tags, signatures).
/// The comparison touches every byte of both slices regardless of where the
/// first difference occurs.
#[must_use]
pub(crate) fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_agrees_with_eq() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"", b"x"));
    }

    #[test]
    fn errors_display() {
        let e = CryptoError::NotEnoughShares { needed: 3, got: 1 };
        assert!(e.to_string().contains("needed 3"));
        assert_eq!(
            CryptoError::AuthenticationFailed.to_string(),
            "authentication failed"
        );
    }
}
