//! Seeded, forkable pseudorandom generator on top of ChaCha20.
//!
//! SecAgg and XNoise both derive long pseudorandom vectors from short seeds:
//! pairwise masks `PRG(s_{u,v})`, self-masks `PRG(b_u)`, and XNoise's
//! per-component noise streams `PRG(g_{u,k})`. A 32-byte seed plus a domain
//! string deterministically identifies each stream, so a server that later
//! learns a seed (directly or via Shamir reconstruction) regenerates exactly
//! the same vector the client used.
//!
//! This module alone knows how a mask lies in the keystream (see
//! [`Prg::fill_mod2b`]): element `i` is word `i` of the narrowest
//! power-of-two width that holds the ring. Power-of-two lanes keep every
//! element inside one block, aligned, so seeking to element `k`
//! ([`Prg::new_at`]) is a shift; packing `⌊64/b⌋` elements per word
//! would save blocks but straddle them and divide on every seek. Both
//! ends of a mask regenerate it from this code and nothing stores one,
//! but two builds on different layouts would produce masks that do not
//! cancel, so the layout is part of what the wire version pins.

use crate::chacha20::{KeyStream, KEY_LEN, NONCE_LEN};
use crate::hmac::hkdf;

/// Seed type for all PRG streams (256 bits).
pub type Seed = [u8; 32];

/// A deterministic pseudorandom stream identified by `(seed, domain)`.
///
/// # Examples
///
/// ```
/// use dordis_crypto::prg::Prg;
///
/// let mut a = Prg::new(&[42u8; 32], b"mask");
/// let mut b = Prg::new(&[42u8; 32], b"mask");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct Prg {
    stream: KeyStream,
}

impl Prg {
    /// Creates a PRG for `seed` in the given domain.
    ///
    /// Distinct domains yield computationally independent streams for the
    /// same seed, which lets one seed safely back several vectors (e.g. a
    /// mask and its consistency check).
    #[must_use]
    pub fn new(seed: &Seed, domain: &[u8]) -> Self {
        // Derive (key, nonce) from the seed so that the raw seed is never
        // used directly as cipher key material across domains.
        let okm: [u8; KEY_LEN + NONCE_LEN] = hkdf(b"dordis.prg", seed, domain);
        let mut key = [0u8; KEY_LEN];
        let mut nonce = [0u8; NONCE_LEN];
        key.copy_from_slice(&okm[..KEY_LEN]);
        nonce.copy_from_slice(&okm[KEY_LEN..]);
        Prg {
            stream: KeyStream::new(key, nonce),
        }
    }

    /// Creates a PRG for `seed` positioned at element `elem_offset` of
    /// its `Z_{2^bits}` mask vector — the state [`Prg::new`] would reach
    /// after a [`Prg::fill_mod2b`] of `elem_offset` elements at the same
    /// `bits`, for the cost of at most one ChaCha20 block.
    ///
    /// This is the entry point for partial mask expansion: expanding
    /// a chunk seeks the mask stream to the chunk's first element
    /// instead of generating (and discarding) the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=64` or the element lies past the
    /// end of the ChaCha20 keystream.
    #[must_use]
    pub fn new_at(seed: &Seed, domain: &[u8], bits: u32, elem_offset: usize) -> Self {
        let byte_offset = (elem_offset as u64)
            .checked_mul(lane_bytes(bits))
            .expect("mask element offset overflows the keystream");
        let mut prg = Prg::new(seed, domain);
        prg.stream.seek(byte_offset);
        prg
    }

    /// Derives a fresh sub-seed; the returned seed is independent of the
    /// stream output consumed so far.
    #[must_use]
    pub fn fork(seed: &Seed, domain: &[u8], index: u64) -> Seed {
        let mut info = Vec::with_capacity(domain.len() + 8);
        info.extend_from_slice(domain);
        info.extend_from_slice(&index.to_le_bytes());
        hkdf(b"dordis.prg.fork", seed, &info)
    }

    /// Fills `out` with pseudorandom bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        self.stream.fill(out);
    }

    /// Returns the next pseudorandom `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.stream.next_u64()
    }

    /// Returns the next pseudorandom `u32`.
    pub fn next_u32(&mut self) -> u32 {
        self.stream.next_u32()
    }

    /// Returns the next pseudorandom `u16`.
    #[inline]
    pub fn next_u16(&mut self) -> u16 {
        self.stream.next_u16()
    }

    /// Returns a uniform value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection sampling: reject the final partial range so the result
        // is exactly uniform.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `out` with uniform values modulo `2^bits` (masks in `Z_{2^b}`).
    ///
    /// This is the mask-expansion primitive of SecAgg: each model-update
    /// coordinate lives in `Z_{2^b}` and pairwise masks must be uniform
    /// there so that `p_{u,v} + p_{v,u} = 0 (mod 2^b)`.
    ///
    /// Each element is one little-endian keystream word of the narrowest
    /// power-of-two width that holds the ring, masked to `bits`: a `u32`
    /// (16 elements per ChaCha20 block) for `bits ≤ 32`, a `u64` (8 per
    /// block) above. A fill consumes exactly that many stream bytes, so
    /// fills at one `bits` compose: any split of a fill equals the
    /// whole.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 64`.
    pub fn fill_mod2b(&mut self, bits: u32, out: &mut [u64]) {
        let lane = lane_bytes(bits);
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        // Batched keystream generation (whole ChaCha20 blocks at a
        // time), then one masking pass.
        if lane == 4 {
            let mut lanes = [0u32; LANE_STRIP];
            for strip in out.chunks_mut(LANE_STRIP) {
                let lanes = &mut lanes[..strip.len()];
                self.stream.fill_u32(lanes);
                for (v, &lane) in strip.iter_mut().zip(lanes.iter()) {
                    *v = u64::from(lane) & mask;
                }
            }
        } else {
            self.stream.fill_u64(out);
            for v in out.iter_mut() {
                *v &= mask;
            }
        }
    }

    /// Returns a fresh random seed drawn from this stream.
    pub fn gen_seed(&mut self) -> Seed {
        let mut s = [0u8; 32];
        self.fill_bytes(&mut s);
        s
    }
}

/// Keystream bytes one element of a `Z_{2^bits}` mask vector occupies —
/// the mask layout rule, shared by [`Prg::fill_mod2b`] (which reads the
/// words) and [`Prg::new_at`] (which seeks to one).
///
/// # Panics
///
/// Panics if `bits == 0` or `bits > 64`.
fn lane_bytes(bits: u32) -> u64 {
    assert!(bits >= 1 && bits <= 64, "bits must be in 1..=64");
    if bits <= 32 {
        4
    } else {
        8
    }
}

/// `u32` keystream words [`Prg::fill_mod2b`] stages per widening pass:
/// 16 blocks, 1 KiB of stack.
const LANE_STRIP: usize = 256;

/// Generates a random seed from an OS-independent entropy source.
///
/// Uses the `rand` crate's thread RNG; suitable for simulation and tests.
/// Deployments with stronger requirements can substitute entropy and use
/// [`Prg::fork`] for everything downstream.
#[must_use]
pub fn random_seed<R: rand::Rng>(rng: &mut R) -> Seed {
    let mut s = [0u8; 32];
    rng.fill(&mut s[..]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed_and_domain() {
        let seed = [1u8; 32];
        let mut a = Prg::new(&seed, b"x");
        let mut b = Prg::new(&seed, b"x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn domains_separate_streams() {
        let seed = [2u8; 32];
        let mut a = Prg::new(&seed, b"mask");
        let mut b = Prg::new(&seed, b"noise");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_deterministic_and_indexed() {
        let seed = [3u8; 32];
        assert_eq!(Prg::fork(&seed, b"d", 0), Prg::fork(&seed, b"d", 0));
        assert_ne!(Prg::fork(&seed, b"d", 0), Prg::fork(&seed, b"d", 1));
        assert_ne!(Prg::fork(&seed, b"d", 0), Prg::fork(&seed, b"e", 0));
    }

    #[test]
    fn below_respects_bound() {
        let mut p = Prg::new(&[4u8; 32], b"t");
        for bound in [1u64, 2, 3, 7, 100, 1 << 20, u64::MAX] {
            for _ in 0..50 {
                assert!(p.next_u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut p = Prg::new(&[5u8; 32], b"t");
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[p.next_u64_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut p = Prg::new(&[6u8; 32], b"t");
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = p.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((0.47..0.53).contains(&mean), "mean {mean} far from 0.5");
    }

    #[test]
    fn mod2b_respects_bit_width() {
        let mut p = Prg::new(&[7u8; 32], b"t");
        let mut out = vec![0u64; 256];
        p.fill_mod2b(20, &mut out);
        assert!(out.iter().all(|&v| v < (1 << 20)));
        // With 256 draws of 20-bit values, the top bits should be exercised.
        assert!(out.iter().any(|&v| v >= (1 << 19)));
        let mut out64 = vec![0u64; 8];
        p.fill_mod2b(64, &mut out64);
    }

    #[test]
    fn new_at_matches_skipped_stream() {
        // `new_at(bits, k)` is the state a `k`-element fill leaves
        // behind, on both sides of the lane boundary (32 / 33) and of
        // block boundaries (16 `u32` lanes, 8 `u64` lanes).
        let seed = [9u8; 32];
        for bits in [20u32, 32, 33, 64] {
            for offset in [0usize, 1, 5, 7, 8, 9, 15, 16, 17, 100] {
                let mut skipped = Prg::new(&seed, b"seek");
                skipped.fill_mod2b(bits, &mut vec![0u64; offset]);
                let mut seeked = Prg::new_at(&seed, b"seek", bits, offset);
                for i in 0..32 {
                    assert_eq!(
                        seeked.next_u64(),
                        skipped.next_u64(),
                        "bits {bits}, offset {offset}, word {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn mod2b_suffix_equals_offset_expansion() {
        // The slice-expansion property the per-chunk unmask jobs rely
        // on: expanding from element k reproduces the tail of the
        // whole-vector expansion exactly.
        let seed = [10u8; 32];
        for bits in [20u32, 32, 33] {
            let mut whole = vec![0u64; 50];
            Prg::new(&seed, b"chunk").fill_mod2b(bits, &mut whole);
            for k in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
                let mut tail = vec![0u64; 50 - k];
                Prg::new_at(&seed, b"chunk", bits, k).fill_mod2b(bits, &mut tail);
                assert_eq!(tail, whole[k..], "bits {bits}, offset {k}");
            }
        }
    }

    #[test]
    fn mixed_reads_stay_byte_exact() {
        // An odd-length fill in a 32-bit lane leaves the stream at
        // 4 mod 8; whatever is read next is still the RFC 8439 byte
        // stream from that byte on.
        let seed = [11u8; 32];
        let mut bytes = [0u8; 7 * 4 + 8 + 3 * 8];
        Prg::new(&seed, b"mixed").fill_bytes(&mut bytes);
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));

        let mut prg = Prg::new(&seed, b"mixed");
        let mut lanes = [0u64; 7];
        prg.fill_mod2b(20, &mut lanes);
        for (i, &lane) in lanes.iter().enumerate() {
            assert_eq!(lane, word(4 * i) & 0xf_ffff, "lane {i}");
        }
        assert_eq!(prg.next_u64(), word(28));
        let mut wide = [0u64; 3];
        prg.fill_mod2b(33, &mut wide);
        for (i, &lane) in wide.iter().enumerate() {
            assert_eq!(lane, word(36 + 8 * i) & 0x1_ffff_ffff, "wide lane {i}");
        }
    }

    #[test]
    fn mask_expansion_block_counts() {
        // The layout's cost as a count: 16 elements per ChaCha20 block
        // up to 32 bits, 8 above — however the fill is split.
        for (bits, blocks) in [
            (16u32, 4096),
            (20, 4096),
            (32, 4096),
            (33, 8192),
            (64, 8192),
        ] {
            for strip in [1 << 16, 500] {
                let mut prg = Prg::new(&[12u8; 32], b"count");
                let mut out = vec![0u64; 1 << 16];
                for part in out.chunks_mut(strip) {
                    prg.fill_mod2b(bits, part);
                }
                assert_eq!(prg.stream.blocks, blocks, "bits {bits}, strip {strip}");
            }
        }
    }

    #[test]
    fn masks_cancel_mod2b() {
        // Two parties expanding the same seed produce identical masks, so
        // (x + m) - m = x in Z_2^b — the core SecAgg cancellation property.
        let seed = [8u8; 32];
        let bits = 24u32;
        let modulus = 1u64 << bits;
        let mut mu = vec![0u64; 100];
        Prg::new(&seed, b"pair").fill_mod2b(bits, &mut mu);
        let mut mv = vec![0u64; 100];
        Prg::new(&seed, b"pair").fill_mod2b(bits, &mut mv);
        for (a, b) in mu.iter().zip(mv.iter()) {
            assert_eq!((a + (modulus - b)) % modulus, 0);
        }
    }
}
