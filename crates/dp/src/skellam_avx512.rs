//! Eight Skellam table draws per step in the eight 64-bit lanes of
//! AVX-512 registers: the kernel `SkellamSampler` draws its lanes on
//! where the CPU has AVX-512F.
//!
//! A group is eight consecutive 16-bit keystream lanes, zero-extended
//! into one `__m512i`. Each lane then does what
//! `SkellamTable::draw_lane` does for its lane:
//!
//! 1. `lo` and `hi`, the ends of the interval of `u` the lane leaves
//!    open, by two shifts and an or;
//! 2. the guide entry of `hi`'s bucket, by one gather (the `u16` guide
//!    is read as 32-bit words at a 2-byte scale and masked, so the last
//!    bucket's read takes the table's padding entry);
//! 3. the walk up the survival function: gather `survival[m + 1]` and
//!    step the lanes with `hi` below it, until no lane steps.
//!
//! A lane whose magnitude the walk leaves undecided (`lo <
//! survival[m + 1]`) needs the 8 bytes after it as its refinement word,
//! which moves every later lane of the group. So the group's draws
//! before it are committed, that one draw goes to `draw_lane` with its
//! word, and the next group starts at the lane after the word. The
//! stream is read in the scalar order, lane by lane, so the draws are
//! bit-equal to `draw_lane`'s, which stays the fallback on every other
//! host and the oracle of the tests below.
//!
//! Like the kernels of `dordis-crypto`, this is the one module of the
//! crate allowed `unsafe`: it holds the intrinsics, the loads, gathers
//! and stores, and the one call from safe code into
//! `#[target_feature]` code, behind a runtime `is_x86_feature_detected!`
//! of `avx512f`. Everything it exports is safe.

use core::arch::x86_64::{
    __m512i, _mm512_add_epi64, _mm512_and_si512, _mm512_cmpgt_epu64_mask, _mm512_cmplt_epu64_mask,
    _mm512_cvtepu16_epi64, _mm512_cvtepu32_epi64, _mm512_i64gather_epi32, _mm512_i64gather_epi64,
    _mm512_mask_add_epi64, _mm512_mask_i64gather_epi64, _mm512_mask_storeu_epi64, _mm512_or_si512,
    _mm512_set1_epi64, _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64,
    _mm512_srlv_epi64, _mm512_storeu_si512, _mm512_sub_epi64, _mm512_xor_si512, _mm_loadu_si128,
};

use crate::mechanism::{SkellamTable, LOW_BITS};

/// Lanes a group draws.
const GROUP: usize = 8;

/// Whether this CPU runs the kernel.
pub(crate) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Draws the stream `bytes` starts into `out`, in order, while a whole
/// group of eight lanes (16 bytes) is left in `bytes` and eight draws in
/// `out`, and returns `(draws, bytes used)`: `out[..draws]` is what
/// `draw_lane` draws from `bytes[..bytes used]`, refinements included.
/// It stops early where a refinement word would run past `bytes`; the
/// caller draws on from there. `None` on a host without AVX-512F.
pub(crate) fn draw_groups(
    table: &SkellamTable,
    bytes: &[u8],
    out: &mut [u64],
) -> Option<(usize, usize)> {
    if !detected() {
        return None;
    }
    // SAFETY: avx512f was detected above.
    Some(unsafe { groups(table, bytes, out) })
}

/// `(m ^ -s) + s` in each lane for the sign `s = lane & 1`: the
/// two's-complement `±m` `draw_lane` returns.
#[inline]
#[target_feature(enable = "avx512f")]
fn signed(m: __m512i, lanes: __m512i) -> __m512i {
    let negative = _mm512_and_si512(lanes, _mm512_set1_epi64(1));
    let sign = _mm512_sub_epi64(_mm512_setzero_si512(), negative);
    _mm512_add_epi64(_mm512_xor_si512(m, sign), negative)
}

#[target_feature(enable = "avx512f")]
fn groups(table: &SkellamTable, bytes: &[u8], out: &mut [u64]) -> (usize, usize) {
    // Every index the gathers form stays inside the tables: a guide
    // bucket is `hi >> shift < guide.len() - 1` (the padding entry makes
    // its 4-byte read fit); a guide entry is at most `reach` (checked
    // per group below); and a walk from there stops at `reach` at the
    // latest, where `survival[reach + 1] = 0` holds every lane, so
    // `survival[m + 1]` is at most the last entry.
    assert!(table.guide.len() > 1 << (63 - table.shift));
    assert!(table.survival.len() >= 2 && table.survival.last() == Some(&0));
    let guide = table.guide.as_ptr().cast::<i32>();
    let next_survival = table.survival[1..].as_ptr().cast::<i64>();
    let reach = _mm512_set1_epi64(table.survival.len() as i64 - 2);
    let shift = _mm512_set1_epi64(i64::from(table.shift));
    let low_mask = _mm512_set1_epi64((1 << LOW_BITS) - 1);
    let guide_mask = _mm512_set1_epi64(0xffff);
    let one = _mm512_set1_epi64(1);
    let (mut drawn, mut at) = (0, 0);
    while drawn + GROUP <= out.len() && at + 2 * GROUP <= bytes.len() {
        // SAFETY: `at + 16 <= bytes.len()`, and the load is unaligned.
        let packed = unsafe { _mm_loadu_si128(bytes.as_ptr().add(at).cast()) };
        let lanes = _mm512_cvtepu16_epi64(packed);
        let lo = _mm512_slli_epi64::<LOW_BITS>(_mm512_srli_epi64::<1>(lanes));
        let hi = _mm512_or_si512(lo, low_mask);
        let bucket = _mm512_srlv_epi64(hi, shift);
        // SAFETY: `bucket + 1 < guide.len()` (asserted above), so the
        // 4 bytes at `2 · bucket` are inside the guide.
        let pair = unsafe { _mm512_i64gather_epi32::<2>(bucket, guide) };
        let mut m = _mm512_and_si512(_mm512_cvtepu32_epi64(pair), guide_mask);
        assert_eq!(_mm512_cmpgt_epu64_mask(m, reach), 0, "guide past reach");
        // SAFETY: `m <= reach` in every lane (asserted above).
        let mut next = unsafe { _mm512_i64gather_epi64::<8>(m, next_survival) };
        loop {
            let stepping = _mm512_cmplt_epu64_mask(hi, next);
            if stepping == 0 {
                break;
            }
            m = _mm512_mask_add_epi64(m, stepping, m, one);
            // SAFETY: as above; a lane steps only while `hi <
            // survival[m + 1]`, which fails at `m = reach`.
            next = unsafe { _mm512_mask_i64gather_epi64::<8>(next, stepping, m, next_survival) };
        }
        let draws = signed(m, lanes);
        let undecided = _mm512_cmplt_epu64_mask(lo, next);
        let dst = out[drawn..drawn + GROUP].as_mut_ptr();
        if undecided == 0 {
            // SAFETY: `dst` is eight writable `u64`s; the store is
            // unaligned.
            unsafe { _mm512_storeu_si512(dst.cast(), draws) };
            drawn += GROUP;
            at += 2 * GROUP;
            continue;
        }
        // Commit the lanes before the first undecided one; its
        // refinement word sits where the next lane would.
        let first = undecided.trailing_zeros() as usize;
        // SAFETY: as above, writing only the first `first` of the eight.
        unsafe { _mm512_mask_storeu_epi64(dst.cast(), (1 << first) - 1, draws) };
        drawn += first;
        at += 2 * first;
        let Some(draw) = bytes.get(at..at + 2 + 8) else {
            break;
        };
        let lane = u16::from_le_bytes([draw[0], draw[1]]);
        let word = u64::from_le_bytes(draw[2..].try_into().expect("8 bytes"));
        out[drawn] = table.draw_lane(lane, || word) as u64;
        drawn += 1;
        at += 2 + 8;
    }
    (drawn, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{on_both_paths, with_scalar_draws, SkellamSampler};
    use dordis_crypto::prg::Prg;
    use proptest::prelude::*;

    /// The table variances `mechanism`'s tests use: the smallest,
    /// plan-sized ones, and the widest table under the cap.
    const VARIANCES: [f64; 6] = [0.5, 4.0, 86.0, 312.0, 2496.0, 7.44e6];

    fn table(variance: f64) -> SkellamTable {
        SkellamSampler::new(variance).table.expect("under the cap")
    }

    /// `draw_lane` over `bytes` in stream order, one lane (and its word)
    /// at a time, for as long as the stream in `bytes` holds the next
    /// draw: the draws and the byte offset each one ends at.
    fn scalar_draws(table: &SkellamTable, bytes: &[u8]) -> (Vec<u64>, Vec<usize>) {
        let (mut draws, mut ends, mut at) = (Vec::new(), Vec::new(), 0);
        while let Some(lane) = bytes.get(at..at + 2) {
            let lane = u16::from_le_bytes([lane[0], lane[1]]);
            let word = bytes.get(at + 2..at + 2 + 8);
            let (mut used, mut cut) = (2, false);
            let x = table.draw_lane(lane, || {
                used = 2 + 8;
                cut = word.is_none();
                word.map_or(0, |w| u64::from_le_bytes(w.try_into().unwrap()))
            });
            if cut {
                break;
            }
            at += used;
            draws.push(x as u64);
            ends.push(at);
        }
        (draws, ends)
    }

    /// Runs the kernel on `bytes` into `slots` draws and checks it
    /// against [`scalar_draws`]: a prefix of the scalar draws, ending on
    /// the same byte, and stopped only where its contract lets it.
    fn assert_kernel_matches(table: &SkellamTable, bytes: &[u8], slots: usize) -> usize {
        let mut out = vec![0xdead_beef; slots];
        let (drawn, used) = draw_groups(table, bytes, &mut out).expect("avx512f");
        let (want, ends) = scalar_draws(table, bytes);
        assert!(drawn <= want.len().min(slots));
        assert_eq!(out[..drawn], want[..drawn]);
        assert!(out[drawn..].iter().all(|&x| x == 0xdead_beef));
        assert_eq!(used, if drawn == 0 { 0 } else { ends[drawn - 1] });
        // It stops with fewer than eight slots or 16 bytes left, or at
        // a refinement word past the end of `bytes`.
        assert!(
            slots - drawn < GROUP || bytes.len() - used < 2 * GROUP || drawn == want.len(),
            "stopped early: {drawn} of {slots} draws, {used} of {} bytes",
            bytes.len()
        );
        drawn
    }

    /// Lanes of `table` that need a refinement word and lanes that do
    /// not.
    fn lanes_by_refinement(table: &SkellamTable) -> (Vec<u16>, Vec<u16>) {
        (0..=u16::MAX).partition(|&lane| {
            let mut refined = false;
            table.draw_lane(lane, || {
                refined = true;
                0
            });
            refined
        })
    }

    #[test]
    fn groups_agree_with_draw_lane_on_random_keystreams() {
        if !detected() {
            println!("skellam wide path: skipped (no avx512f)");
            return;
        }
        for variance in VARIANCES {
            let table = table(variance);
            let mut prg = Prg::new(&[3u8; 32], b"groups");
            for len in [0, 15, 16, 17, 26, 160, 1024, 1030, 4096] {
                let mut bytes = vec![0u8; len];
                prg.fill_bytes(&mut bytes);
                for slots in [0, 7, 8, 9, 64, 512, 4096] {
                    assert_kernel_matches(&table, &bytes, slots);
                }
            }
        }
    }

    #[test]
    fn a_refinement_at_every_lane_position() {
        if !detected() {
            println!("skellam wide path: skipped (no avx512f)");
            return;
        }
        for variance in VARIANCES {
            let table = table(variance);
            let (refining, decided) = lanes_by_refinement(&table);
            assert!(!refining.is_empty() && !decided.is_empty(), "{variance}");
            let mut prg = Prg::new(&[4u8; 32], b"positions");
            for position in 0..GROUP {
                for trial in 0..16 {
                    // Decided lanes around one refining lane at
                    // `position`, its word, and then random lanes.
                    let pick = |lanes: &[u16], prg: &mut Prg| {
                        lanes[prg.next_u32() as usize % lanes.len()].to_le_bytes()
                    };
                    let mut bytes = Vec::new();
                    for _ in 0..position {
                        bytes.extend(pick(&decided, &mut prg));
                    }
                    bytes.extend(pick(&refining, &mut prg));
                    bytes.extend(prg.next_u64().to_le_bytes());
                    let tail = 2 * GROUP * (trial % 4);
                    bytes.extend((0..tail).map(|_| prg.next_u32() as u8));
                    let drawn = assert_kernel_matches(&table, &bytes, 64);
                    if bytes.len() >= 2 * GROUP {
                        assert!(drawn > position, "{variance}: position {position}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_group_of_refinements() {
        if !detected() {
            println!("skellam wide path: skipped (no avx512f)");
            return;
        }
        let table = table(7.44e6);
        let (refining, _) = lanes_by_refinement(&table);
        let bytes: Vec<u8> = refining
            .iter()
            .take(40)
            .flat_map(|lane| lane.to_le_bytes().into_iter().chain(0x5a_u64.to_le_bytes()))
            .collect();
        // Every group is one refined draw; the last one's 10 bytes are
        // less than a group, so it is left to the caller.
        assert_eq!(assert_kernel_matches(&table, &bytes, 64), 39);
    }

    /// The byte offset (in the stream) of each draw's lane, and whether
    /// it took a refinement word, replayed from the stream by
    /// `draw_lane` one call a lane.
    fn lane_offsets(table: &SkellamTable, seed: u8, n: usize) -> Vec<(usize, bool)> {
        let mut prg = Prg::new(&[seed; 32], b"straddle");
        let mut at = 0;
        (0..n)
            .map(|_| {
                let lane = prg.next_u16();
                let mut refined = false;
                table.draw_lane(lane, || {
                    refined = true;
                    prg.next_u64()
                });
                let start = at;
                at += if refined { 10 } else { 2 };
                (start, refined)
            })
            .collect()
    }

    #[test]
    fn draws_straddling_the_buffer_end_agree_with_the_scalar_path() {
        // At the widest table about a fifth of the draws refine, so over
        // 60 000 draws some refining lane sits in the last 8 bytes of a
        // 1 KiB keystream pass (and so of a 64-byte block): its word, or
        // the lane itself, straddles what `read_buffered` hands out.
        const N: usize = 60_000;
        on_both_paths(|| {
            let sampler = SkellamSampler::new(7.44e6);
            let table = sampler.table.as_ref().unwrap();
            for seed in [1u8, 2] {
                let straddles = lane_offsets(table, seed, N)
                    .iter()
                    .filter(|&&(at, refined)| refined && at % 1024 >= 1024 - 8)
                    .count();
                assert!(straddles > 0, "seed {seed}: no straddling draw");
                let mut prg = Prg::new(&[seed; 32], b"straddle");
                let mut got = Vec::with_capacity(N);
                sampler.for_each_strip(&mut prg, N, |_, strip| got.extend_from_slice(strip));
                let mut scalar_prg = Prg::new(&[seed; 32], b"straddle");
                let mut want = Vec::with_capacity(N);
                with_scalar_draws(|| {
                    sampler.for_each_strip(&mut scalar_prg, N, |_, strip| {
                        want.extend_from_slice(strip);
                    });
                });
                assert_eq!(got, want, "seed {seed}");
                assert_eq!(prg.next_u64(), scalar_prg.next_u64(), "seed {seed}");
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_strip_split_agrees_with_the_scalar_path(
            variance_index in 0usize..VARIANCES.len(),
            seed in any::<u8>(),
            pieces in proptest::collection::vec(0usize..700, 1..12),
        ) {
            let sampler = SkellamSampler::new(VARIANCES[variance_index]);
            let len: usize = pieces.iter().sum();
            let mut want = vec![0u64; len];
            with_scalar_draws(|| sampler.fill_ring(&mut Prg::new(&[seed; 32], b"split"), &mut want));
            let mut prg = Prg::new(&[seed; 32], b"split");
            let mut got = vec![0u64; len];
            let mut at = 0;
            for piece in pieces {
                sampler.fill_ring(&mut prg, &mut got[at..at + piece]);
                at += piece;
            }
            prop_assert_eq!(got, want);
        }
    }
}
