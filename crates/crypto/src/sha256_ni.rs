//! The SHA-256 compression function on the x86 SHA extensions
//! (`sha256rnds2`, `sha256msg1`, `sha256msg2`): the kernel
//! [`crate::sha256::compress`] runs on where the CPU has them.
//!
//! It computes FIPS 180-4's rounds exactly — two per `sha256rnds2`, the
//! message schedule four words per `sha256msg1` / `sha256msg2` pair — so
//! its output is bit-equal to the portable compression function, which
//! stays the fallback on every other host and the oracle of the tests
//! below. Like `x25519_avx512`, this is a module allowed `unsafe`: it
//! holds the intrinsics, the unaligned loads and stores, and the one call
//! from safe code into `#[target_feature]` code, behind a runtime
//! `is_x86_feature_detected!` of `sha` and `sse4.1`. Everything it
//! exports is safe.
//!
//! # Register layout
//!
//! `sha256rnds2` keeps the eight working variables in two vectors, `ABEF`
//! and `CDGH` (named from the highest lane down), and takes two rounds'
//! `W + K` in the low two lanes of its third operand. `load` and `store`
//! shuffle FIPS order `a..h` into and out of that layout once per call,
//! not once per block.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::{BLOCK_LEN, K};

/// Absorbs `blocks` into `state` and returns `true`, or returns `false`
/// with `state` untouched on a host without the SHA extensions.
#[must_use]
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) -> bool {
    if !(std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse4.1"))
    {
        return false;
    }
    // SAFETY: sha and sse4.1 were detected above.
    unsafe { compress_blocks(state, blocks) };
    true
}

#[target_feature(enable = "sha,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    // Message words are big-endian: reverse the bytes of each lane.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let (mut abef, mut cdgh) = load(state);
    for block in blocks {
        let (abef0, cdgh0) = (abef, cdgh);
        let mut w: [__m128i; 4] = core::array::from_fn(|i| {
            // SAFETY: bytes 16·i .. 16·i + 16 of a 64-byte block (i < 4),
            // read with the unaligned load.
            let words = unsafe { _mm_loadu_si128(block[16 * i..].as_ptr().cast()) };
            _mm_shuffle_epi8(words, bswap)
        });
        // Rounds 0..16 on the message itself, 16..64 on its schedule:
        // `w` holds the last sixteen words, oldest first.
        for (i, words) in w.into_iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, words, i);
        }
        for i in 4..16 {
            let next = schedule(w);
            w = [w[1], w[2], w[3], next];
            rounds4(&mut abef, &mut cdgh, next, i);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
    }
    store(state, abef, cdgh);
}

/// Rounds `4·i .. 4·i + 4` on message words `w` (`W[4i]` in lane 0).
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let k = &K[4 * i..4 * i + 4];
    let wk = _mm_add_epi32(
        w,
        _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
    );
    // Two rounds return the new ABEF; the new CDGH is the old ABEF.
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
}

/// `W[t..t + 4]` from `W[t − 16..t]`: `σ0` and `W[t − 16]` from
/// `sha256msg1`, `W[t − 7]` by hand, then `σ1` (which needs the words
/// being computed) from `sha256msg2`.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn schedule([w0, w1, w2, w3]: [__m128i; 4]) -> __m128i {
    let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
    _mm_sha256msg2_epu32(partial, w3)
}

/// `a..h` into `(ABEF, CDGH)`.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn load(state: &[u32; 8]) -> (__m128i, __m128i) {
    // SAFETY: `state` is 32 readable bytes; both loads are the
    // unaligned form.
    let (dcba, hgfe) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state[4..].as_ptr().cast()),
        )
    };
    let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
    (
        _mm_alignr_epi8::<8>(cdab, efgh),
        _mm_blend_epi16::<0xf0>(efgh, cdab),
    )
}

/// `(ABEF, CDGH)` back into `a..h`.
#[inline]
#[target_feature(enable = "sha,sse4.1")]
fn store(state: &mut [u32; 8], abef: __m128i, cdgh: __m128i) {
    let feba = _mm_shuffle_epi32::<0x1b>(abef);
    let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
    let dcba = _mm_blend_epi16::<0xf0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: `state` is 32 writable bytes; both stores are the
    // unaligned form.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), hgfe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::portable;
    use proptest::collection;
    use proptest::prelude::*;

    const SKIPPED: &str = "sha256 sha-ni path: skipped";

    fn words(bytes: [u8; 32]) -> [u32; 8] {
        core::array::from_fn(|i| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()))
    }

    /// The kernel on `blocks` from `state`, or `None` without SHA-NI.
    fn kernel(mut state: [u32; 8], blocks: &[[u8; BLOCK_LEN]]) -> Option<[u32; 8]> {
        compress(&mut state, blocks).then_some(state)
    }

    fn oracle(mut state: [u32; 8], blocks: &[[u8; BLOCK_LEN]]) -> [u32; 8] {
        portable(&mut state, blocks);
        state
    }

    #[test]
    fn edge_states_and_blocks_match_the_portable_rounds() {
        let edges = [0u32, 1, 0x8000_0000, u32::MAX];
        for &s in &edges {
            for &b in &[0u8, 0x80, 0xff] {
                let (state, block) = ([s; 8], [b; BLOCK_LEN]);
                let Some(got) = kernel(state, &[block]) else {
                    println!("{SKIPPED}");
                    return;
                };
                assert_eq!(got, oracle(state, &[block]), "state {s:#x}, block {b:#x}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// One block from an arbitrary state.
        #[test]
        fn kernel_equals_portable_compress(
            state in any::<[u8; 32]>(),
            block in any::<[u8; BLOCK_LEN]>(),
        ) {
            let state = words(state);
            match kernel(state, &[block]) {
                Some(got) => prop_assert_eq!(got, oracle(state, &[block])),
                None => println!("{SKIPPED}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A run of blocks in one call: the state carried between blocks
        /// in registers equals the portable block-by-block chain.
        #[test]
        fn block_runs_equal_portable_chains(
            state in any::<[u8; 32]>(),
            blocks in collection::vec(any::<[u8; BLOCK_LEN]>(), 0..6),
        ) {
            let state = words(state);
            match kernel(state, &blocks) {
                Some(got) => prop_assert_eq!(got, oracle(state, &blocks)),
                None => println!("{SKIPPED}"),
            }
        }
    }
}
