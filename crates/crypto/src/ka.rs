//! The `KA` key-agreement wrapper used by SecAgg.
//!
//! The paper's Figure 5 uses "the Diffie–Hellman key agreement composed
//! with a secure hash function": `KA.gen` produces an x25519 keypair and
//! `KA.agree` hashes the raw DH output so the result is a uniform 32-byte
//! key suitable for both AEAD keys and PRG seeds.

use rand::Rng;

use crate::hmac::hkdf;
use crate::x25519;

/// A key-agreement keypair.
#[derive(Clone)]
pub struct KeyPair {
    /// The secret (clamped) scalar.
    pub secret: x25519::SecretKey,
    /// The public u-coordinate.
    pub public: x25519::PublicKey,
}

impl KeyPair {
    /// Generates a fresh keypair (`KA.gen`).
    #[must_use]
    pub fn generate<R: Rng>(rng: &mut R) -> KeyPair {
        let mut secret = [0u8; 32];
        rng.fill(&mut secret[..]);
        let public = x25519::public_key(&secret);
        KeyPair { secret, public }
    }

    /// Derives a keypair deterministically from a seed (useful for
    /// reproducible protocol tests).
    #[cfg(test)]
    #[must_use]
    fn from_seed(seed: &[u8; 32]) -> KeyPair {
        let secret = hkdf(b"dordis.ka.keygen", seed, b"sk");
        let public = x25519::public_key(&secret);
        KeyPair { secret, public }
    }

    /// Computes the shared key with a peer (`KA.agree`): the DH output
    /// passed through HKDF along with both public keys.
    ///
    /// Including both public keys (sorted so the two ends agree) binds the
    /// derived key to this specific pair, the standard defence against
    /// unknown-key-share confusions.
    #[must_use]
    pub fn agree(&self, their_public: &x25519::PublicKey) -> [u8; 32] {
        let raw = x25519::shared_secret(&self.secret, their_public);
        self.derive(their_public, &raw)
    }

    /// `self.agree(peer)` for every peer, in order and byte for byte: the
    /// DH outputs come from `x25519::x25519_many`, which runs the
    /// ladders of one secret side by side where the CPU allows it.
    #[must_use]
    pub fn agree_many(&self, peers: &[x25519::PublicKey]) -> Vec<[u8; 32]> {
        let raws = x25519::x25519_many(&self.secret, peers);
        peers
            .iter()
            .zip(&raws)
            .map(|(peer, raw)| self.derive(peer, raw))
            .collect()
    }

    /// The hash half of `KA.agree`: the raw DH output with `their_public`
    /// through HKDF, bound to both public keys.
    fn derive(&self, their_public: &x25519::PublicKey, raw: &[u8; 32]) -> [u8; 32] {
        let (lo, hi) = if self.public <= *their_public {
            (self.public, *their_public)
        } else {
            (*their_public, self.public)
        };
        let mut info = [0u8; 64];
        info[..32].copy_from_slice(&lo);
        info[32..].copy_from_slice(&hi);
        hkdf(b"dordis.ka.agree", raw, &info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn agreement_is_symmetric() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(a.agree(&b.public), b.agree(&a.public));
    }

    #[test]
    fn agree_many_is_agree_peer_by_peer() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let me = KeyPair::generate(&mut rng);
        let mut peers: Vec<x25519::PublicKey> = (0..21)
            .map(|_| KeyPair::generate(&mut rng).public)
            .collect();
        // The HKDF info sorts the two public keys: peers on both sides
        // of `me.public`, the nearest possible ones included.
        let (mut below, mut above) = (me.public, me.public);
        below[31] = below[31].wrapping_sub(1);
        above[31] = above[31].wrapping_add(1);
        assert!(below < me.public && me.public < above);
        peers.extend([below, above, [0u8; 32], [0xff; 32], me.public]);
        for len in [0, 1, 3, 4, 8, 9, peers.len()] {
            let want: Vec<[u8; 32]> = peers[..len].iter().map(|p| me.agree(p)).collect();
            assert_eq!(me.agree_many(&peers[..len]), want, "{len} peers");
        }
        // And the far end derives the same key from its side.
        let other = KeyPair::generate(&mut rng);
        assert_eq!(me.agree_many(&[other.public])[0], other.agree(&me.public));
        let many = me.agree_many(&[other.public; 8]);
        assert_eq!(many, other.agree_many(&[me.public; 8]));
    }

    #[test]
    fn distinct_pairs_distinct_keys() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let c = KeyPair::generate(&mut rng);
        assert_ne!(a.agree(&b.public), a.agree(&c.public));
        assert_ne!(a.agree(&b.public), b.agree(&c.public));
    }

    #[test]
    fn from_seed_is_deterministic() {
        let k1 = KeyPair::from_seed(&[5u8; 32]);
        let k2 = KeyPair::from_seed(&[5u8; 32]);
        assert_eq!(k1.public, k2.public);
        assert_eq!(k1.secret, k2.secret);
        let k3 = KeyPair::from_seed(&[6u8; 32]);
        assert_ne!(k1.public, k3.public);
    }

    #[test]
    fn agreed_key_differs_from_raw_dh() {
        let a = KeyPair::from_seed(&[1u8; 32]);
        let b = KeyPair::from_seed(&[2u8; 32]);
        let raw = x25519::shared_secret(&a.secret, &b.public);
        assert_ne!(a.agree(&b.public), raw);
    }
}
