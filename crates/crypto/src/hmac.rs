//! RFC 2104 HMAC-SHA256 and RFC 5869 HKDF.
//!
//! HMAC is the message-authentication primitive behind the crate's
//! encrypt-then-MAC [`crate::aead`] scheme; HKDF derives independent
//! sub-keys (encryption key, MAC key, per-purpose PRG seeds) from
//! Diffie–Hellman shared secrets. Neither allocates: a key is hashed
//! into its two midstates once, and HKDF writes into a caller's
//! fixed-size output.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are first hashed, per RFC 2104.
#[must_use]
fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256 context.
///
/// Keying absorbs `key ⊕ ipad` into the inner hash and `key ⊕ opad` into
/// the outer one, so the context holds the two midstates: a clone of a
/// keyed context (what HKDF-Expand makes per output block) MACs a
/// message without touching the key again.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacSha256 {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// RFC 5869 HKDF-Extract: `PRK = HMAC(salt, ikm)`.
#[must_use]
fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// RFC 5869 HKDF-Expand filling `out` (at most 255 * 32 bytes). HMAC is
/// keyed with `prk` once for all output blocks.
///
/// # Panics
///
/// Panics if more than `255 * 32` output bytes are requested, per the RFC
/// limit; callers in this crate only ever derive a few keys at once.
fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "HKDF output too long");
    let keyed = HmacSha256::new(prk);
    let mut t = [0u8; DIGEST_LEN];
    for (i, block) in out.chunks_mut(DIGEST_LEN).enumerate() {
        let mut mac = keyed.clone();
        if i > 0 {
            mac.update(&t);
        }
        mac.update(info);
        mac.update(&[(i + 1) as u8]);
        t = mac.finalize();
        block.copy_from_slice(&t[..block.len()]);
    }
}

/// One-call HKDF (extract + expand) into an `N`-byte output — the entry
/// point every key derivation in the crate goes through.
///
/// # Panics
///
/// Panics if `N > 255 * 32`, the RFC 5869 limit on HKDF-Expand.
#[must_use]
pub fn hkdf<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    hkdf_expand(&hkdf_extract(salt, ikm), info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = vec![0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_data() {
        let key = vec![0xaa; 20];
        let data = vec![0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4_to_7() {
        // Case 4: a 25-byte key; 5: the tag truncated to 128 bits; 6 and
        // 7: a 131-byte key, hashed first, then 54 and 152 bytes of data.
        let key4: Vec<u8> = (1..=25).collect();
        let long_key = vec![0xaa; 131];
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &key4,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0x0c; 20],
                b"Test With Truncation",
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                &long_key,
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &long_key,
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, data, want)) in cases.into_iter().enumerate() {
            let tag = hex(&hmac_sha256(key, data));
            assert_eq!(&tag[..want.len()], want, "case {}", i + 4);
        }
    }

    #[test]
    fn long_key_is_hashed() {
        // Keys longer than one block must behave as HMAC(H(key), ...).
        let long_key = vec![0x42u8; 100];
        let hashed = crate::sha256::sha256(&long_key);
        assert_eq!(hmac_sha256(&long_key, b"m"), hmac_sha256(&hashed, b"m"));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"part one ");
        mac.update(b"part two");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"part one part two"));
    }

    #[test]
    fn rfc5869_case1() {
        let ikm = vec![0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let okm = hkdf::<42>(&salt, &ikm, &info);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case2_long_inputs() {
        // 80-byte salt, ikm and info: every HMAC input spans two blocks,
        // and the 82-byte output three expand blocks.
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        assert_eq!(
            hex(&hkdf_extract(&salt, &ikm)),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        );
        let okm = hkdf::<82>(&salt, &ikm, &info);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case3_empty_salt_and_info() {
        let ikm = vec![0x0b; 22];
        assert_eq!(
            hex(&hkdf_extract(b"", &ikm)),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        );
        assert_eq!(
            hex(&hkdf::<42>(b"", &ikm, b"")),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn hkdf_prefix_property() {
        // Shorter outputs are prefixes of longer ones for the same inputs.
        let long = hkdf::<64>(b"salt", b"ikm", b"info");
        let short = hkdf::<16>(b"salt", b"ikm", b"info");
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn hkdf_info_separates_keys() {
        assert_ne!(
            hkdf::<32>(b"s", b"ikm", b"enc"),
            hkdf::<32>(b"s", b"ikm", b"mac")
        );
    }
}
