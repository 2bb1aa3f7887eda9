//! Mask expansion and modular vector arithmetic in `Z_{2^b}`.
//!
//! `expand_and_add` and its [`add_pairwise_mask_assign`] wrapper
//! (and, for the tests, `add_self_mask_assign`) accumulate the PRG keystream
//! **directly into the running sum** in cache-sized strips, never
//! materializing a `Vec<u64>` per mask per neighbor — the dominant
//! allocation in unmasking recovery, where a dropout costs
//! `O(neighbors)` full-dimension expansions. The `elem_offset` parameter
//! seeks the mask stream (ChaCha20 is seekable), so a per-chunk compute
//! job expands exactly its slice of every mask: element `i` of every
//! mask is the same ring element wherever the expansion starts (which
//! keystream bytes it is read from is `dordis_crypto::prg`'s business —
//! `Prg::fill_mod2b` and `Prg::new_at` agree on it). The tests pin the
//! fused expansion to whole materialized mask vectors.

use dordis_crypto::prg::{Prg, RingWord, Seed};

/// PRG domain for pairwise masks `PRG(s_{u,v})`.
const DOMAIN_PAIRWISE: &[u8] = b"secagg.pairwise";
/// PRG domain for self-masks `PRG(b_u)`.
const DOMAIN_SELFMASK: &[u8] = b"secagg.selfmask";

/// Strip length (in words) for fused expansion: large enough to
/// amortize the ChaCha20 block loop, small enough to stay in L1.
const STRIP: usize = 512;

/// Elements per outer strip where several masks are applied to one
/// range, strip-outer and mask-inner (the client's
/// `MaskedInputCursor::chunk`, the server's `unmask_chunk`): at most
/// 16 KiB of words, so a strip stays in L1 while every mask is added to
/// it.
pub(crate) const OUTER_STRIP: usize = 2048;

/// The pairwise mask stream `PRG(s_{u,v})`, positioned at element
/// `elem_offset` — for callers that walk one mask in several
/// [`expand_and_add`] steps.
#[must_use]
pub(crate) fn pairwise_prg_at(shared_key: &[u8; 32], bit_width: u32, elem_offset: usize) -> Prg {
    Prg::new_at(shared_key, DOMAIN_PAIRWISE, bit_width, elem_offset)
}

/// The self-mask stream `PRG(b_u)`, positioned at element `elem_offset`.
#[must_use]
pub(crate) fn self_mask_prg_at(seed: &Seed, bit_width: u32, elem_offset: usize) -> Prg {
    Prg::new_at(seed, DOMAIN_SELFMASK, bit_width, elem_offset)
}

/// Fused expand-and-accumulate: `acc ± PRG-stream (mod 2^b)`, strip by
/// strip, without materializing the mask vector. `prg` must already be
/// positioned at the stream element corresponding to `acc[0]`. `acc`
/// may be held in any word that holds the ring ([`RingWord`]): the
/// elements are the same.
pub(crate) fn expand_and_add<W: RingWord>(
    prg: &mut Prg,
    acc: &mut [W],
    positive: bool,
    bit_width: u32,
) {
    let mut strip = [W::default(); STRIP];
    let mut rest = acc;
    while !rest.is_empty() {
        let n = rest.len().min(STRIP);
        prg.fill_mod2b(bit_width, &mut strip[..n]);
        add_signed_assign(&mut rest[..n], &strip[..n], positive, bit_width);
        rest = &mut rest[n..];
    }
}

/// `acc ± PRG(s_{u,v})[offset .. offset + acc.len()] (mod 2^b)` — the
/// fused, seekable form of expanding the whole mask `PRG(s_{u,v})` and
/// folding it in with [`add_signed_assign`].
pub fn add_pairwise_mask_assign(
    acc: &mut [u64],
    shared_key: &[u8; 32],
    elem_offset: usize,
    positive: bool,
    bit_width: u32,
) {
    let mut prg = pairwise_prg_at(shared_key, bit_width, elem_offset);
    expand_and_add(&mut prg, acc, positive, bit_width);
}

/// `acc ± PRG(b_u)[offset .. offset + acc.len()] (mod 2^b)` — the
/// fused, seekable form of expanding the whole self-mask `PRG(b_u)` and
/// folding it in with [`add_signed_assign`].
#[cfg(test)]
pub(crate) fn add_self_mask_assign(
    acc: &mut [u64],
    seed: &Seed,
    elem_offset: usize,
    positive: bool,
    bit_width: u32,
) {
    let mut prg = self_mask_prg_at(seed, bit_width, elem_offset);
    expand_and_add(&mut prg, acc, positive, bit_width);
}

/// `acc += sign * mask (mod 2^b)` where `sign` is `+1` or `-1`.
///
/// The sign branch is hoisted out of the loop (negation in `Z_{2^b}` is
/// `wrapping_neg` before the ring mask, so each arm is pure adds), and
/// the hot arms run in 4-element unrolled strips. Bit-equal to the
/// naive branch-in-loop shape, pinned by `matches_reference_shape`.
///
/// # Panics
///
/// Panics if `bit_width` is outside `1..=W::BITS`.
pub fn add_signed_assign<W: RingWord>(acc: &mut [W], mask: &[W], positive: bool, bit_width: u32) {
    debug_assert_eq!(acc.len(), mask.len());
    let ring = W::ring(bit_width);
    let n = acc.len().min(mask.len());
    let (a_strips, a_tail) = acc[..n].split_at_mut(n - n % 4);
    let (m_strips, m_tail) = mask[..n].split_at(n - n % 4);
    if positive {
        for (a, m) in a_strips.chunks_exact_mut(4).zip(m_strips.chunks_exact(4)) {
            a[0] = a[0].wrapping_add(m[0]) & ring;
            a[1] = a[1].wrapping_add(m[1]) & ring;
            a[2] = a[2].wrapping_add(m[2]) & ring;
            a[3] = a[3].wrapping_add(m[3]) & ring;
        }
        for (a, &m) in a_tail.iter_mut().zip(m_tail.iter()) {
            *a = a.wrapping_add(m) & ring;
        }
    } else {
        for (a, m) in a_strips.chunks_exact_mut(4).zip(m_strips.chunks_exact(4)) {
            a[0] = a[0].wrapping_add(m[0].wrapping_neg()) & ring;
            a[1] = a[1].wrapping_add(m[1].wrapping_neg()) & ring;
            a[2] = a[2].wrapping_add(m[2].wrapping_neg()) & ring;
            a[3] = a[3].wrapping_add(m[3].wrapping_neg()) & ring;
        }
        for (a, &m) in a_tail.iter_mut().zip(m_tail.iter()) {
            *a = a.wrapping_add(m.wrapping_neg()) & ring;
        }
    }
}

/// The original branch-in-loop shape of [`add_signed_assign`], kept as
/// the bit-equality reference for the hoisted/unrolled version.
#[cfg(test)]
pub(crate) fn add_signed_assign_reference(
    acc: &mut [u64],
    mask: &[u64],
    positive: bool,
    bit_width: u32,
) {
    debug_assert_eq!(acc.len(), mask.len());
    let ring = ring_mask(bit_width);
    for (a, &m) in acc.iter_mut().zip(mask.iter()) {
        let m = if positive { m } else { m.wrapping_neg() };
        *a = a.wrapping_add(m) & ring;
    }
}

/// The ring mask `2^b - 1`.
#[must_use]
pub fn ring_mask(bit_width: u32) -> u64 {
    if bit_width == 64 {
        u64::MAX
    } else {
        (1u64 << bit_width) - 1
    }
}

/// `value + delta (mod 2^b)` for a signed `delta`, `ring = 2^b - 1`.
///
/// `2^b` divides `2^64`, so reducing the two's-complement wrapping sum
/// is exact for every `b ≤ 64` — no signed division, no `1 << b`.
#[inline]
#[must_use]
pub fn add_signed_ring(value: u64, delta: i64, ring: u64) -> u64 {
    value.wrapping_add(delta as u64) & ring
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle: a whole pairwise mask vector expanded from an agreed
    /// key.
    fn pairwise_mask(shared_key: &[u8; 32], len: usize, bit_width: u32) -> Vec<u64> {
        let mut out = vec![0u64; len];
        Prg::new(shared_key, DOMAIN_PAIRWISE).fill_mod2b(bit_width, &mut out);
        out
    }

    /// The oracle: a client's whole private self-mask `p_u = PRG(b_u)`.
    fn self_mask(seed: &Seed, len: usize, bit_width: u32) -> Vec<u64> {
        let mut out = vec![0u64; len];
        Prg::new(seed, DOMAIN_SELFMASK).fill_mod2b(bit_width, &mut out);
        out
    }

    proptest! {
        #[test]
        fn add_signed_ring_equals_rem_euclid_form(
            bits in 1u32..63,
            value in any::<u64>(),
            delta in any::<i64>(),
        ) {
            let ring = ring_mask(bits);
            let value = value & ring;
            let want = (value + delta.rem_euclid(1i64 << bits) as u64) & ring;
            prop_assert_eq!(add_signed_ring(value, delta, ring), want);
        }

        #[test]
        fn add_signed_ring_is_total_and_invertible_at_63_and_64(
            value in any::<u64>(),
            delta in any::<i64>(),
        ) {
            for bits in [63u32, 64] {
                let ring = ring_mask(bits);
                let value = value & ring;
                let there = add_signed_ring(value, delta, ring);
                prop_assert!(there <= ring);
                prop_assert_eq!(add_signed_ring(there, delta.wrapping_neg(), ring), value);
            }
        }
    }

    #[test]
    fn pairwise_masks_cancel() {
        // The defining property, p_{u,v} + p_{v,u} = 0: u adds the mask,
        // v subtracts it. 32 and 33 bits are the two sides of the PRG's
        // lane boundary.
        let key = [7u8; 32];
        for bits in [20u32, 32, 33] {
            let mut acc = vec![5u64, 10, 15];
            let m = pairwise_mask(&key, 3, bits);
            add_signed_assign(&mut acc, &m, true, bits);
            assert_ne!(acc, vec![5, 10, 15], "bits {bits}");
            add_signed_assign(&mut acc, &m, false, bits);
            assert_eq!(acc, vec![5, 10, 15], "bits {bits}");
        }
    }

    #[test]
    fn masks_are_deterministic_and_domain_separated() {
        let key = [1u8; 32];
        assert_eq!(pairwise_mask(&key, 8, 20), pairwise_mask(&key, 8, 20));
        assert_ne!(pairwise_mask(&key, 8, 20), self_mask(&key, 8, 20));
    }

    #[test]
    fn masks_respect_bit_width() {
        let m = pairwise_mask(&[9u8; 32], 64, 12);
        assert!(m.iter().all(|&x| x < (1 << 12)));
    }

    #[test]
    fn signed_add_wraps() {
        let bits = 8;
        let mut acc = vec![250u64];
        add_signed_assign(&mut acc, &[10], true, bits);
        assert_eq!(acc, vec![4]); // 260 mod 256.
        add_signed_assign(&mut acc, &[10], false, bits);
        assert_eq!(acc, vec![250]);
    }

    #[test]
    fn matches_reference_shape() {
        // The unrolled/hoisted add must be bit-equal to the original
        // branch-in-loop shape across lengths (tail handling), signs,
        // and bit widths including 64.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for bits in [1u32, 8, 20, 63, 64] {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 100] {
                for positive in [true, false] {
                    let ring = ring_mask(bits);
                    let base: Vec<u64> = (0..len).map(|_| next() & ring).collect();
                    let mask: Vec<u64> = (0..len).map(|_| next() & ring).collect();
                    let mut fast = base.clone();
                    let mut slow = base.clone();
                    add_signed_assign(&mut fast, &mask, positive, bits);
                    add_signed_assign_reference(&mut slow, &mask, positive, bits);
                    assert_eq!(fast, slow, "bits {bits}, len {len}, positive {positive}");
                }
            }
        }
    }

    #[test]
    fn fused_expansion_equals_materialized() {
        let key = [3u8; 32];
        let seed = [4u8; 32];
        let bits = 24;
        let len = 1200; // spans multiple strips
        for positive in [true, false] {
            let mut fused = vec![7u64; len];
            let mut materialized = fused.clone();
            add_pairwise_mask_assign(&mut fused, &key, 0, positive, bits);
            let m = pairwise_mask(&key, len, bits);
            add_signed_assign(&mut materialized, &m, positive, bits);
            assert_eq!(fused, materialized, "pairwise, positive {positive}");

            let mut fused = vec![9u64; len];
            let mut materialized = fused.clone();
            add_self_mask_assign(&mut fused, &seed, 0, positive, bits);
            let p = self_mask(&seed, len, bits);
            add_signed_assign(&mut materialized, &p, positive, bits);
            assert_eq!(fused, materialized, "self, positive {positive}");
        }
    }

    #[test]
    fn narrow_expansion_equals_the_wide_one() {
        // Expanding into a `u32` sum adds the elements a `u64` sum gets,
        // with either sign, from any offset, at every ring a `u32`
        // holds.
        let key = [6u8; 32];
        for bits in [1u32, 16, 20, 31, 32] {
            for (offset, positive) in [(0usize, true), (5, false), (4097, true)] {
                let ring = ring_mask(bits);
                let mut wide: Vec<u64> = (0..1500u64).map(|i| (i * 2_654_435_761) & ring).collect();
                let mut narrow: Vec<u32> = wide.iter().map(|&x| x as u32).collect();
                expand_and_add(
                    &mut pairwise_prg_at(&key, bits, offset),
                    &mut wide,
                    positive,
                    bits,
                );
                expand_and_add(
                    &mut pairwise_prg_at(&key, bits, offset),
                    &mut narrow,
                    positive,
                    bits,
                );
                let widened: Vec<u64> = narrow.iter().map(|&x| u64::from(x)).collect();
                assert_eq!(
                    widened, wide,
                    "bits {bits}, offset {offset}, positive {positive}"
                );
            }
        }
    }

    #[test]
    fn offset_expansion_is_a_slice_of_the_whole() {
        // Per-chunk jobs expand [offset, offset + len) of each mask;
        // that must equal the same slice of the whole-vector expansion.
        let key = [5u8; 32];
        for bits in [18u32, 32, 33] {
            let whole = pairwise_mask(&key, 1000, bits);
            for (offset, len) in [
                (0usize, 1000usize),
                (1, 37),
                (15, 2),
                (16, 600),
                (17, 16),
                (512, 488),
                (513, 200),
            ] {
                let mut acc = vec![0u64; len];
                add_pairwise_mask_assign(&mut acc, &key, offset, true, bits);
                assert_eq!(
                    acc,
                    whole[offset..offset + len],
                    "bits {bits}, offset {offset}"
                );
            }
        }
    }
}
