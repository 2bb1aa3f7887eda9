//! Wire messages exchanged between clients and the server.
//!
//! The `dordis-net` crate carries these messages over real transports.
//! Its codec defines their encoded layout and sizes, and its coordinator
//! counts the framed bytes each stage moves.

use dordis_crypto::ed25519::Signature;
use dordis_crypto::prg::Seed;
use dordis_crypto::shamir::Share;

use crate::ClientId;

/// Stage 0: a client's advertised key pair (plus identity signature in the
/// malicious model).
#[derive(Clone, Debug, PartialEq)]
pub struct AdvertisedKeys {
    /// Sender.
    pub client: ClientId,
    /// Public key for the AEAD channel (`c^PK`).
    pub c_pk: [u8; 32],
    /// Public key for pairwise masking (`s^PK`).
    pub s_pk: [u8; 32],
    /// `SIG.sign(d^SK, c_pk ‖ s_pk)` under the malicious model.
    pub signature: Option<Signature>,
}

/// Stage 1: an encrypted share bundle addressed from one client to
/// another, routed through the server.
#[derive(Clone, Debug, PartialEq)]
pub struct EncryptedShares {
    /// Originating client.
    pub from: ClientId,
    /// Destination client.
    pub to: ClientId,
    /// AEAD ciphertext of the serialized [`ShareBundle`].
    pub ciphertext: Vec<u8>,
}

/// The plaintext carried inside [`EncryptedShares`]: the sender's Shamir
/// shares destined for one recipient.
#[derive(Clone, Debug, PartialEq)]
pub struct ShareBundle {
    /// Redundant addressing checked after decryption (Figure 5 asserts
    /// `u = u' ∧ v = v'`).
    pub from: ClientId,
    /// Redundant addressing.
    pub to: ClientId,
    /// Share of the sender's masking secret key `s^SK`.
    pub sk_share: Share,
    /// Share of the sender's self-mask seed `b`.
    pub b_share: Share,
    /// Shares of the sender's XNoise seeds `g_{u,k}` for `k = 1..=T`.
    pub seed_shares: Vec<Share>,
}

impl ShareBundle {
    /// Serializes to bytes (simple length-prefixed layout).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.to.to_le_bytes());
        encode_share(&mut out, &self.sk_share);
        encode_share(&mut out, &self.b_share);
        out.push(self.seed_shares.len() as u8);
        for s in &self.seed_shares {
            encode_share(&mut out, s);
        }
        out
    }

    /// Parses the encoding; `None` on malformed input.
    #[must_use]
    pub(crate) fn decode(bytes: &[u8]) -> Option<ShareBundle> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            if *pos + n > bytes.len() {
                return None;
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Some(s)
        };
        let from = ClientId::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let to = ClientId::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
        let sk_share = decode_share(bytes, &mut pos)?;
        let b_share = decode_share(bytes, &mut pos)?;
        let count = *take(&mut pos, 1)?.first()? as usize;
        let mut seed_shares = Vec::with_capacity(count);
        for _ in 0..count {
            seed_shares.push(decode_share(bytes, &mut pos)?);
        }
        if pos != bytes.len() {
            return None;
        }
        Some(ShareBundle {
            from,
            to,
            sk_share,
            b_share,
            seed_shares,
        })
    }
}

fn encode_share(out: &mut Vec<u8>, share: &Share) {
    out.push(share.x);
    out.push(share.y.len() as u8);
    out.extend_from_slice(&share.y);
}

fn decode_share(bytes: &[u8], pos: &mut usize) -> Option<Share> {
    if *pos + 2 > bytes.len() {
        return None;
    }
    let x = bytes[*pos];
    let len = bytes[*pos + 1] as usize;
    *pos += 2;
    if *pos + len > bytes.len() {
        return None;
    }
    let y = bytes[*pos..*pos + len].to_vec();
    *pos += len;
    Some(Share { x, y })
}

/// Stage 2: the masked, perturbed input vector `y_u`.
#[derive(Clone, Debug, PartialEq)]
pub struct MaskedInput {
    /// Sender.
    pub client: ClientId,
    /// Vector in `Z_{2^b}`.
    pub vector: Vec<u64>,
    /// Ring bit width: coordinates are packed at this many bits each.
    pub bit_width: u32,
}

/// Stage 3 (malicious only): signature over `round ‖ U3`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsistencySignature {
    /// Sender.
    pub client: ClientId,
    /// `SIG.sign(d^SK, round ‖ U3)`.
    pub signature: Signature,
}

/// Stage 4: a surviving client's unmasking response.
#[derive(Clone, Debug, PartialEq)]
pub struct UnmaskingResponse {
    /// Sender.
    pub client: ClientId,
    /// Shares of `s^SK_v` for dropped clients `v ∈ U2 \ U3`.
    pub sk_shares: Vec<(ClientId, Share)>,
    /// Shares of `b_v` for surviving clients `v ∈ U3`.
    pub b_shares: Vec<(ClientId, Share)>,
    /// The sender's own noise seeds `g_{u,k}` for the removal range
    /// `|U \ U3| + 1 ≤ k ≤ T` (1-based component index).
    pub own_seeds: Vec<(usize, Seed)>,
}

/// Stage 5: shares of noise seeds of clients that dropped between masking
/// and unmasking (`v ∈ U3 \ U5`).
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseShareResponse {
    /// Sender.
    pub client: ClientId,
    /// `(owner, component k, share of g_{owner,k})`.
    pub seed_shares: Vec<(ClientId, usize, Share)>,
}

/// A broadcast list of client ids, such as a survivor set.
#[derive(Clone, Debug, PartialEq)]
pub struct IdList(pub Vec<ClientId>);

#[cfg(test)]
mod tests {
    use super::*;

    fn share(x: u8, len: usize) -> Share {
        Share { x, y: vec![x; len] }
    }

    #[test]
    fn bundle_roundtrip() {
        let b = ShareBundle {
            from: 3,
            to: 9,
            sk_share: share(4, 32),
            b_share: share(4, 32),
            seed_shares: vec![share(4, 32), share(4, 32)],
        };
        let enc = b.encode();
        let dec = ShareBundle::decode(&enc).unwrap();
        assert_eq!(dec, b);
    }

    #[test]
    fn bundle_roundtrip_no_seeds() {
        let b = ShareBundle {
            from: 0,
            to: 1,
            sk_share: share(1, 32),
            b_share: share(1, 32),
            seed_shares: vec![],
        };
        assert_eq!(ShareBundle::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn bundle_rejects_truncation_and_trailing() {
        let b = ShareBundle {
            from: 1,
            to: 2,
            sk_share: share(3, 32),
            b_share: share(3, 32),
            seed_shares: vec![share(3, 32)],
        };
        let enc = b.encode();
        for keep in 0..enc.len() {
            assert!(ShareBundle::decode(&enc[..keep]).is_none(), "len {keep}");
        }
        let mut extended = enc.clone();
        extended.push(0);
        assert!(ShareBundle::decode(&extended).is_none());
    }

    #[test]
    fn masked_input_packs_bits() {
        let m = MaskedInput {
            client: 1,
            vector: (0..1000u64).map(|i| (i * 0x9e37 + 11) & 0xf_ffff).collect(),
            bit_width: 20,
        };
        // 1000 coords * 20 bits = 2500 bytes, and they unpack unchanged.
        let mut packed = Vec::new();
        crate::pack::pack_into(&m.vector, m.bit_width, &mut packed);
        assert_eq!(packed.len(), 2500);
        assert_eq!(
            crate::pack::unpack(&packed, m.bit_width, m.vector.len()),
            m.vector
        );
    }
}
