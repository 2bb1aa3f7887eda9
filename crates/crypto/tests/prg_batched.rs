//! Batched-keystream equivalence: the multi-block ChaCha20 fast paths
//! (`KeyStream::fill_u64` / `fill_u32`, used by `Prg::fill_mod2b`) must
//! be byte- and word-equal to the legacy per-block/per-word path for
//! arbitrary lengths, interior splits, and stream offsets, and the mask
//! layout `Prg::fill_mod2b` builds from them must be the documented one
//! — the bit-equality of every mask in the system rides on this.

use dordis_crypto::chacha20::{block, KeyStream, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use dordis_crypto::hmac::hkdf;
use dordis_crypto::prg::Prg;
use proptest::collection;
use proptest::prelude::*;

/// The reference byte stream: whole blocks, concatenated.
fn reference_stream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.next_multiple_of(BLOCK_LEN));
    let mut ctr = 0u32;
    while out.len() < len {
        out.extend_from_slice(&block(key, ctr, nonce));
        ctr = ctr.wrapping_add(1);
    }
    out.truncate(len);
    out
}

/// The mask layout, spelled out over raw blocks: element `i` is the
/// little-endian `u32` at stream byte `4·i` for `bits ≤ 32`, the `u64`
/// at byte `8·i` above, masked to the ring. `(key, nonce)` are derived
/// from `(seed, domain)` the way `Prg::new` documents.
fn reference_mask(
    seed: &[u8; 32],
    domain: &[u8],
    bits: u32,
    offset: usize,
    len: usize,
) -> Vec<u64> {
    let okm: [u8; KEY_LEN + NONCE_LEN] = hkdf(b"dordis.prg", seed, domain);
    let key: [u8; KEY_LEN] = okm[..KEY_LEN].try_into().expect("key");
    let nonce: [u8; NONCE_LEN] = okm[KEY_LEN..].try_into().expect("nonce");
    let lane = if bits <= 32 { 4 } else { 8 };
    let stream = reference_stream(&key, &nonce, (offset + len) * lane);
    stream[offset * lane..]
        .chunks_exact(lane)
        .map(|word| {
            let mut le = [0u8; 8];
            le[..lane].copy_from_slice(word);
            u64::from_le_bytes(le) & (u64::MAX >> (64 - bits))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `fill_u64` equals the legacy per-word path for any prefix skip
    /// (misaligning the stream by bytes) and any batch length, and the
    /// stream stays in lockstep afterwards.
    #[test]
    fn batched_words_equal_legacy_words(
        key in any::<[u8; 32]>(),
        skip in 0usize..100,
        len in 0usize..200,
    ) {
        let nonce = [7u8; NONCE_LEN];
        let mut batched = KeyStream::new(key, nonce);
        let mut legacy = KeyStream::new(key, nonce);
        let mut prefix = vec![0u8; skip];
        batched.fill(&mut prefix);
        legacy.fill(&mut prefix);

        let mut fast = vec![0u64; len];
        batched.fill_u64(&mut fast);
        let slow: Vec<u64> = (0..len).map(|_| legacy.next_u64()).collect();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(batched.next_u64(), legacy.next_u64());
    }

    /// `fill_u64` output, re-serialized to little-endian bytes, equals
    /// the raw block byte stream at the same offset.
    #[test]
    fn batched_words_equal_reference_bytes(
        key in any::<[u8; 32]>(),
        skip_words in 0usize..40,
        len in 1usize..150,
    ) {
        let nonce = [9u8; NONCE_LEN];
        let mut ks = KeyStream::new(key, nonce);
        ks.seek(skip_words as u64 * 8);
        let mut words = vec![0u64; len];
        ks.fill_u64(&mut words);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let want = reference_stream(&key, &nonce, skip_words * 8 + len * 8);
        prop_assert_eq!(&bytes[..], &want[skip_words * 8..]);
    }

    /// Splitting one `fill_u64` call into arbitrary sub-fills changes
    /// nothing.
    #[test]
    fn batched_fill_is_split_invariant(
        key in any::<[u8; 32]>(),
        cuts in collection::vec(1usize..25, 1..8),
    ) {
        let nonce = [3u8; NONCE_LEN];
        let total: usize = cuts.iter().sum();
        let mut whole_ks = KeyStream::new(key, nonce);
        let mut whole = vec![0u64; total];
        whole_ks.fill_u64(&mut whole);

        let mut split_ks = KeyStream::new(key, nonce);
        let mut split = vec![0u64; total];
        let mut pos = 0;
        for c in cuts {
            split_ks.fill_u64(&mut split[pos..pos + c]);
            pos += c;
        }
        prop_assert_eq!(whole, split);
    }

    /// `fill_u32` equals the per-word path for any prefix skip and any
    /// batch length, and the stream stays in lockstep afterwards.
    #[test]
    fn batched_u32_words_equal_legacy_words(
        key in any::<[u8; 32]>(),
        skip in 0usize..100,
        len in 0usize..400,
    ) {
        let nonce = [5u8; NONCE_LEN];
        let mut batched = KeyStream::new(key, nonce);
        let mut legacy = KeyStream::new(key, nonce);
        let mut prefix = vec![0u8; skip];
        batched.fill(&mut prefix);
        legacy.fill(&mut prefix);

        let mut fast = vec![0u32; len];
        batched.fill_u32(&mut fast);
        let slow: Vec<u32> = (0..len).map(|_| legacy.next_u32()).collect();
        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(batched.next_u64(), legacy.next_u64());
    }

    /// `Prg::fill_mod2b` from `Prg::new_at` equals the documented layout
    /// over concatenated blocks for every bit width, offset and length.
    #[test]
    fn fill_mod2b_equals_reference_layout(
        seed in any::<[u8; 32]>(),
        bits in 1u32..65,
        offset in 0usize..60,
        len in 0usize..180,
    ) {
        let mut out = vec![0u64; len];
        Prg::new_at(&seed, b"equiv", bits, offset).fill_mod2b(bits, &mut out);
        prop_assert_eq!(out, reference_mask(&seed, b"equiv", bits, offset, len));
    }

    /// Splitting one `fill_mod2b` into arbitrary sub-fills changes
    /// nothing — odd cuts included, which leave a 32-bit-lane stream at
    /// 4 mod 8.
    #[test]
    fn fill_mod2b_is_split_invariant(
        seed in any::<[u8; 32]>(),
        bits in 1u32..65,
        cuts in collection::vec(1usize..40, 1..8),
    ) {
        let total: usize = cuts.iter().sum();
        let mut split_prg = Prg::new(&seed, b"split");
        let mut split = vec![0u64; total];
        let mut pos = 0;
        for c in cuts {
            split_prg.fill_mod2b(bits, &mut split[pos..pos + c]);
            pos += c;
        }
        prop_assert_eq!(split, reference_mask(&seed, b"split", bits, 0, total));
    }
}
