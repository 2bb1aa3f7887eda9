//! Sixteen RFC 8439 ChaCha20 blocks per pass in the sixteen 32-bit lanes
//! of AVX-512 registers: the kernel [`crate::chacha20::KeyStream`]'s
//! open-ended reader refills from where the CPU has AVX-512F.
//!
//! State word `j` of all sixteen blocks shares one `__m512i` (Goll and
//! Gueron, "Vectorization of ChaCha Stream Cipher", ITNG 2014): lane `b`
//! holds block `counter + b`, so the only lanes that differ are those of
//! word 12, the counter. A double round is then the scalar one on whole
//! registers, its rotations one `vprold` each. Each lane computes
//! exactly what [`crate::chacha20::block_words`] computes for its
//! counter, so the pass is bit-equal to sixteen calls of that function,
//! which stays the fallback on every other host and the oracle of the
//! tests below.
//!
//! # Store
//!
//! After the rounds, register `j` holds word `j` of every block, and the
//! byte stream wants block `b`'s sixteen words together. A 16×16
//! transpose of 32-bit elements, in registers, turns the former into the
//! latter: `unpack{lo,hi}_epi32` then `unpack{lo,hi}_epi64` transpose the
//! 4×4 tiles inside each 128-bit lane, and two rounds of
//! `shuffle_i32x4` transpose the 4×4 grid of 128-bit lanes. Each
//! resulting register is one block's 64 keystream bytes, stored as it is
//! (x86 is little-endian, as RFC 8439's byte order is).
//!
//! Like `x25519_avx512` and `sha256_ni`, this is a module allowed
//! `unsafe`: it holds the intrinsics, the unaligned stores, and the one
//! call from safe code into `#[target_feature]` code, behind a runtime
//! `is_x86_feature_detected!` of `avx512f`. Everything it exports is
//! safe.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi32, _mm512_rol_epi32, _mm512_set1_epi32, _mm512_setr_epi32,
    _mm512_shuffle_i32x4, _mm512_storeu_si512, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm512_xor_si512,
};

use crate::chacha20::{initial_state, BLOCK_LEN, KEY_LEN, NONCE_LEN, PASS_BLOCKS, PASS_LEN};

/// Whether this CPU runs the kernel.
pub(crate) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Writes the keystream of blocks `counter..counter + 16` to `out` and
/// returns `true`, or returns `false` with `out` untouched on a host
/// without AVX-512F.
///
/// # Panics
///
/// Panics if the pass would run past block 2^32 − 1, the last block a
/// 32-bit counter addresses (`counter > 2^32 − 16`).
pub fn pass(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    out: &mut [u8; PASS_LEN],
) -> bool {
    assert!(
        counter <= u32::MAX - (PASS_BLOCKS as u32 - 1),
        "a pass from block {counter} runs past the last ChaCha20 block"
    );
    if !detected() {
        return false;
    }
    // SAFETY: avx512f was detected above.
    unsafe { pass16(&initial_state(key, counter, nonce), out) };
    true
}

/// One quarter round on four whole registers: the scalar
/// `quarter_round` in all sixteen lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn quarter_round(x: &mut [__m512i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = _mm512_add_epi32(x[a], x[b]);
    x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
    x[c] = _mm512_add_epi32(x[c], x[d]);
    x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
    x[a] = _mm512_add_epi32(x[a], x[b]);
    x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
    x[c] = _mm512_add_epi32(x[c], x[d]);
    x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
}

/// Transposes the sixteen registers as a 16×16 matrix of 32-bit
/// elements: lane `b` of register `j` goes to lane `j` of register `b`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(x: [__m512i; 16]) -> [__m512i; 16] {
    // Inside each 128-bit lane `k`, rows `4g..4g + 4`: after these two
    // steps `u[4g + m]` holds, in lane `k`, column `4k + m` of those
    // rows.
    let t: [__m512i; 16] = core::array::from_fn(|i| {
        let (lo, hi) = (x[i & !1], x[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_epi32(lo, hi)
        } else {
            _mm512_unpackhi_epi32(lo, hi)
        }
    });
    let u: [__m512i; 16] = core::array::from_fn(|i| {
        let (g, m) = (i / 4, i % 4);
        let (a, b) = (t[4 * g + m / 2], t[4 * g + 2 + m / 2]);
        if m % 2 == 0 {
            _mm512_unpacklo_epi64(a, b)
        } else {
            _mm512_unpackhi_epi64(a, b)
        }
    });
    // Column `4k + m` is lane `k` of `u[m]`, `u[4 + m]`, `u[8 + m]` and
    // `u[12 + m]`, in that order: a 4×4 transpose of 128-bit lanes.
    let mut y = [u[0]; 16];
    for m in 0..4 {
        let (a, b, c, d) = (u[m], u[4 + m], u[8 + m], u[12 + m]);
        let ab01 = _mm512_shuffle_i32x4::<0x44>(a, b);
        let ab23 = _mm512_shuffle_i32x4::<0xee>(a, b);
        let cd01 = _mm512_shuffle_i32x4::<0x44>(c, d);
        let cd23 = _mm512_shuffle_i32x4::<0xee>(c, d);
        y[m] = _mm512_shuffle_i32x4::<0x88>(ab01, cd01);
        y[4 + m] = _mm512_shuffle_i32x4::<0xdd>(ab01, cd01);
        y[8 + m] = _mm512_shuffle_i32x4::<0x88>(ab23, cd23);
        y[12 + m] = _mm512_shuffle_i32x4::<0xdd>(ab23, cd23);
    }
    y
}

#[target_feature(enable = "avx512f")]
fn pass16(state: &[u32; 16], out: &mut [u8; PASS_LEN]) {
    let mut init: [__m512i; 16] = core::array::from_fn(|j| _mm512_set1_epi32(state[j] as i32));
    init[12] = _mm512_add_epi32(
        init[12],
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    );
    let mut x = init;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (s, i) in x.iter_mut().zip(init) {
        *s = _mm512_add_epi32(*s, i);
    }
    for (block, words) in out.chunks_exact_mut(BLOCK_LEN).zip(transpose(x)) {
        // SAFETY: `block` is 64 writable bytes and the store is the
        // unaligned form.
        unsafe { _mm512_storeu_si512(block.as_mut_ptr().cast(), words) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha20::{block, block_words};
    use proptest::prelude::*;

    const SKIPPED: &str = "chacha20 wide path: skipped (no avx512f)";

    /// Sixteen [`block`]s from `counter` on, concatenated: the oracle.
    fn blocks(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> Vec<u8> {
        (0..PASS_BLOCKS as u32)
            .flat_map(|b| block(key, counter + b, nonce))
            .collect()
    }

    /// The pass at `counter`, or `None` (and the skip printed) without
    /// AVX-512F.
    fn wide(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> Option<Vec<u8>> {
        let mut out = [0u8; PASS_LEN];
        if pass(key, counter, nonce, &mut out) {
            Some(out.to_vec())
        } else {
            println!("{SKIPPED}");
            None
        }
    }

    #[test]
    fn rfc8439_block_vector_in_lane_one() {
        // RFC 8439 §2.3.2 (key 00..1f, nonce 000000090000004a00000000,
        // counter 1), the second block of a pass from counter 0.
        let key: [u8; KEY_LEN] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let Some(out) = wide(&key, 0, &nonce) else {
            return;
        };
        let words = block_words(&key, 1, &nonce);
        assert_eq!(words[0], 0xe4e7_f110);
        for (j, w) in words.iter().enumerate() {
            let at = BLOCK_LEN + 4 * j;
            assert_eq!(out[at..at + 4], w.to_le_bytes(), "word {j}");
        }
    }

    #[test]
    #[should_panic(expected = "runs past the last ChaCha20 block")]
    fn a_pass_past_the_last_block_panics() {
        let mut out = [0u8; PASS_LEN];
        let _ = pass(&[1u8; KEY_LEN], u32::MAX - 14, &[2u8; NONCE_LEN], &mut out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Sixteen blocks from a random counter, and the pass whose
        /// blocks end `back` below 2^32 (`back = 0`: the last sixteen
        /// counters), equal sixteen `block_words` blocks.
        #[test]
        fn pass_equals_sixteen_blocks(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            counter in 0..u32::MAX - 15,
            back in 0u32..16,
        ) {
            for counter in [counter, u32::MAX - 15 - back] {
                if let Some(got) = wide(&key, counter, &nonce) {
                    prop_assert_eq!(got, blocks(&key, counter, &nonce));
                }
            }
        }
    }
}
