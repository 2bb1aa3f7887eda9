//! Authenticated encryption: ChaCha20 + HMAC-SHA256, encrypt-then-MAC.
//!
//! SecAgg requires an IND-CPA and INT-CTXT authenticated encryption scheme
//! `AE` to protect the Shamir shares exchanged between clients through the
//! untrusted server (Figure 5, `ShareKeys`). Encrypt-then-MAC with
//! independent keys is the textbook construction achieving both properties
//! (Bellare–Namprempre); the two sub-keys are derived from the input key
//! with HKDF so callers can pass a single 32-byte key-agreement output.

use rand::Rng;

use crate::chacha20::{self, NONCE_LEN};
use crate::hmac::{hkdf, HmacSha256};
use crate::{ct_eq, CryptoError};

/// Key length accepted by [`seal`]/[`open`] (any length works; 32 is
/// conventional as the output of key agreement).
pub const KEY_LEN: usize = 32;
/// MAC tag length in bytes.
pub const TAG_LEN: usize = 32;
/// Total ciphertext expansion: nonce plus tag.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

fn derive_keys(key: &[u8]) -> ([u8; 32], [u8; 32]) {
    let okm: [u8; 64] = hkdf(b"dordis.aead", key, b"enc|mac");
    let mut enc = [0u8; 32];
    let mut mac = [0u8; 32];
    enc.copy_from_slice(&okm[..32]);
    mac.copy_from_slice(&okm[32..]);
    (enc, mac)
}

/// Encrypts and authenticates `plaintext` with optional associated data.
///
/// Output layout: `nonce (12) || ciphertext || tag (32)`. The associated
/// data is authenticated but not transmitted; SecAgg uses it for the
/// `u || v` addressing metadata so a ciphertext cannot be replayed between
/// client pairs.
#[must_use]
pub fn seal<R: Rng>(key: &[u8], aad: &[u8], plaintext: &[u8], rng: &mut R) -> Vec<u8> {
    let (enc_key, mac_key) = derive_keys(key);
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill(&mut nonce[..]);
    let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
    out.extend_from_slice(&nonce);
    out.extend_from_slice(plaintext);
    chacha20::xor_stream(&enc_key, &nonce, 1, &mut out[NONCE_LEN..]);
    let tag = compute_tag(&mac_key, aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Verifies and decrypts a ciphertext produced by [`seal`].
///
/// # Errors
///
/// Returns [`CryptoError::AuthenticationFailed`] if the tag does not verify
/// (wrong key, wrong associated data, or tampering) and
/// [`CryptoError::Malformed`] if the ciphertext is too short.
pub fn open(key: &[u8], aad: &[u8], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if ciphertext.len() < OVERHEAD {
        return Err(CryptoError::Malformed("ciphertext shorter than overhead"));
    }
    let (enc_key, mac_key) = derive_keys(key);
    let body_len = ciphertext.len() - TAG_LEN;
    let (body, tag) = ciphertext.split_at(body_len);
    let expected = compute_tag(&mac_key, aad, body);
    if !ct_eq(tag, &expected) {
        return Err(CryptoError::AuthenticationFailed);
    }
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&body[..NONCE_LEN]);
    let mut plaintext = body[NONCE_LEN..].to_vec();
    chacha20::xor_stream(&enc_key, &nonce, 1, &mut plaintext);
    Ok(plaintext)
}

/// MAC over `len(aad) || aad || nonce+ciphertext` (length-prefixed to keep
/// the encoding injective).
fn compute_tag(mac_key: &[u8; 32], aad: &[u8], body: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = HmacSha256::new(mac_key);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(aad);
    mac.update(body);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn roundtrip() {
        let key = [9u8; 32];
        let ct = seal(&key, b"u=3|v=7", b"share bytes", &mut rng());
        let pt = open(&key, b"u=3|v=7", &ct).unwrap();
        assert_eq!(pt, b"share bytes");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = [1u8; 32];
        let ct = seal(&key, b"", b"", &mut rng());
        assert_eq!(ct.len(), OVERHEAD);
        assert_eq!(open(&key, b"", &ct).unwrap(), b"");
    }

    #[test]
    fn wrong_key_fails() {
        let ct = seal(&[1u8; 32], b"", b"msg", &mut rng());
        assert_eq!(
            open(&[2u8; 32], b"", &ct).unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn wrong_aad_fails() {
        let key = [3u8; 32];
        let ct = seal(&key, b"u=1|v=2", b"msg", &mut rng());
        assert!(open(&key, b"u=2|v=1", &ct).is_err());
    }

    #[test]
    fn tampering_detected_everywhere() {
        let key = [4u8; 32];
        let ct = seal(&key, b"a", b"some plaintext payload", &mut rng());
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x80;
            assert!(open(&key, b"a", &bad).is_err(), "byte {i} flip accepted");
        }
    }

    #[test]
    fn truncation_detected() {
        let key = [5u8; 32];
        let ct = seal(&key, b"", b"0123456789", &mut rng());
        for keep in 0..ct.len() {
            assert!(open(&key, b"", &ct[..keep]).is_err());
        }
    }

    #[test]
    fn nonce_randomization_gives_distinct_ciphertexts() {
        let key = [6u8; 32];
        let mut r = rng();
        let c1 = seal(&key, b"", b"same message", &mut r);
        let c2 = seal(&key, b"", b"same message", &mut r);
        assert_ne!(c1, c2);
        assert_eq!(open(&key, b"", &c1).unwrap(), open(&key, b"", &c2).unwrap());
    }
}
