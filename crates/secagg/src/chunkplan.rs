//! The chunk plan: the contract that makes a *chunk* — not a round —
//! the unit of masking, transmission, and aggregation (§4.1).
//!
//! Dordis splits the `d`-coordinate model into `m` contiguous chunks and
//! pipelines the per-chunk aggregation tasks. Every layer consumes the
//! same [`ChunkPlan`]: the client runtime splits its masked vector and
//! streams one frame per chunk, the wire codec carries the chunk id, and
//! the server holds masked-sum/unmasking state per chunk. Aggregation is
//! coordinate-wise, so `reassemble ∘ split == identity` is exactly the
//! property that makes the pipeline *correct* while the schedule makes
//! it *fast*.
//!
//! Chunk boundaries are **byte-aligned** for the round's bit width: a
//! boundary at element `e` is only legal when `e · b ≡ 0 (mod 8)`, so
//! each chunk's bit-packed payload is a whole number of bytes and the
//! concatenation of per-chunk payloads is byte-identical to the
//! single-frame packing (no re-padding anywhere except the final chunk,
//! which carries the stream's own terminal padding). That is what keeps
//! a chunked round's payload bytes equal to the single-frame round's.

use core::fmt;
use core::ops::Range;

/// Errors from chunk-plan construction or use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPlanError {
    /// A vector's length does not match the plan's `vector_len`.
    LengthMismatch {
        /// Bytes/elements the plan covers.
        expected: usize,
        /// What was provided.
        got: usize,
    },
    /// Wrong number of chunk pieces handed to [`ChunkPlan::reassemble`].
    ChunkCountMismatch {
        /// Chunks in the plan.
        expected: usize,
        /// Pieces provided.
        got: usize,
    },
    /// Unsupported bit width (the ring is `Z_{2^b}` with `b ∈ 1..=62`).
    BadBitWidth(u32),
}

impl fmt::Display for ChunkPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkPlanError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: plan covers {expected}, got {got}")
            }
            ChunkPlanError::ChunkCountMismatch { expected, got } => {
                write!(f, "chunk count mismatch: plan has {expected}, got {got}")
            }
            ChunkPlanError::BadBitWidth(b) => write!(f, "bit width {b} out of range 1..=62"),
        }
    }
}

impl std::error::Error for ChunkPlanError {}

/// Per-chunk element ranges for one round, byte-aligned for its bit
/// width. Constructed once (server side), communicated as a chunk count
/// in the Setup broadcast, and re-derived identically by every client —
/// both sides call [`ChunkPlan::aligned`] with the same round
/// parameters, so the plan itself never travels on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    vector_len: usize,
    bit_width: u32,
    /// `chunks() + 1` monotone bounds; `bounds[c]..bounds[c+1]` is chunk
    /// `c`'s element range. Every internal bound is byte-aligned.
    bounds: Vec<usize>,
}

/// Greatest common divisor (tiny inputs only).
fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl ChunkPlan {
    /// The element-granularity at which a boundary lands on a byte
    /// boundary of the `b`-bit packing: `8 / gcd(b, 8)` elements.
    fn align_step(bit_width: u32) -> usize {
        (8 / gcd(bit_width, 8)) as usize
    }

    /// A single-chunk (unchunked) plan — the m = 1 degenerate case every
    /// pre-chunking code path maps onto.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range bit widths.
    pub(crate) fn single(vector_len: usize, bit_width: u32) -> Result<ChunkPlan, ChunkPlanError> {
        ChunkPlan::aligned(vector_len, 1, bit_width)
    }

    /// An `m`-chunk plan over `vector_len` elements with every boundary
    /// byte-aligned for `bit_width`. Targets equal chunk sizes and rounds
    /// each boundary down to the nearest aligned element; when
    /// `vector_len` is too small to yield `m` non-empty aligned chunks,
    /// the plan has fewer chunks (never zero-length ones), so callers
    /// must read the realized count back via [`ChunkPlan::chunks`].
    ///
    /// # Errors
    ///
    /// Rejects out-of-range bit widths (`1..=62`).
    pub fn aligned(
        vector_len: usize,
        chunks: usize,
        bit_width: u32,
    ) -> Result<ChunkPlan, ChunkPlanError> {
        if bit_width == 0 || bit_width > 62 {
            return Err(ChunkPlanError::BadBitWidth(bit_width));
        }
        let m = chunks.max(1);
        let step = ChunkPlan::align_step(bit_width);
        let mut bounds = vec![0usize];
        for c in 1..m {
            let target = c * vector_len / m;
            let al = target / step * step;
            if al > *bounds.last().expect("non-empty") && al < vector_len {
                bounds.push(al);
            }
        }
        bounds.push(vector_len);
        Ok(ChunkPlan {
            vector_len,
            bit_width,
            bounds,
        })
    }

    /// Number of chunks (≥ 1).
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total element count the plan covers.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.vector_len
    }

    /// The bit width the boundaries are aligned for.
    #[must_use]
    pub fn bit_width(&self) -> u32 {
        self.bit_width
    }

    /// Element range of chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= chunks()`.
    #[must_use]
    pub fn range(&self, c: usize) -> Range<usize> {
        self.bounds[c]..self.bounds[c + 1]
    }

    /// Element count of chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= chunks()`.
    #[must_use]
    pub fn chunk_len(&self, c: usize) -> usize {
        self.bounds[c + 1] - self.bounds[c]
    }

    /// Byte range of chunk `c` within the single-frame bit-packed
    /// payload. Alignment guarantees the start is exact; the final chunk
    /// absorbs the stream's terminal padding byte, if any.
    ///
    /// # Panics
    ///
    /// Panics if `c >= chunks()`.
    #[must_use]
    pub fn byte_range(&self, c: usize) -> Range<usize> {
        let b = u64::from(self.bit_width);
        let start = (self.bounds[c] as u64 * b) / 8;
        let end = (self.bounds[c + 1] as u64 * b).div_ceil(8);
        start as usize..end as usize
    }

    /// Splits a full vector into per-chunk slices in schedule order.
    ///
    /// # Errors
    ///
    /// Rejects vectors whose length differs from the plan's.
    pub fn split<'a>(&self, v: &'a [u64]) -> Result<Vec<&'a [u64]>, ChunkPlanError> {
        if v.len() != self.vector_len {
            return Err(ChunkPlanError::LengthMismatch {
                expected: self.vector_len,
                got: v.len(),
            });
        }
        Ok((0..self.chunks()).map(|c| &v[self.range(c)]).collect())
    }

    /// Reassembles per-chunk pieces (in schedule order) into the full
    /// vector — the inverse of [`ChunkPlan::split`].
    ///
    /// # Errors
    ///
    /// Rejects a wrong piece count or a piece whose length disagrees
    /// with its chunk.
    pub fn reassemble(&self, pieces: &[Vec<u64>]) -> Result<Vec<u64>, ChunkPlanError> {
        if pieces.len() != self.chunks() {
            return Err(ChunkPlanError::ChunkCountMismatch {
                expected: self.chunks(),
                got: pieces.len(),
            });
        }
        let mut out = Vec::with_capacity(self.vector_len);
        for (c, piece) in pieces.iter().enumerate() {
            if piece.len() != self.chunk_len(c) {
                return Err(ChunkPlanError::LengthMismatch {
                    expected: self.chunk_len(c),
                    got: piece.len(),
                });
            }
            out.extend_from_slice(piece);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_plan_is_one_chunk() {
        let p = ChunkPlan::single(100, 20).unwrap();
        assert_eq!(p.chunks(), 1);
        assert_eq!(p.range(0), 0..100);
        assert_eq!(p.byte_range(0), 0..250);
    }

    #[test]
    fn aligned_bounds_land_on_byte_boundaries() {
        for bits in [1u32, 7, 8, 16, 20, 33, 62] {
            let p = ChunkPlan::aligned(1000, 7, bits).unwrap();
            for c in 0..p.chunks() - 1 {
                let bound = p.range(c).end;
                assert_eq!(
                    (bound as u64 * u64::from(bits)) % 8,
                    0,
                    "bits={bits} bound={bound}"
                );
            }
            // The ranges tile the vector.
            let total: usize = (0..p.chunks()).map(|c| p.chunk_len(c)).sum();
            assert_eq!(total, 1000);
        }
    }

    #[test]
    fn tiny_vectors_clamp_the_chunk_count() {
        // 3 elements at 20 bits align only every 2 elements: at most 2
        // non-empty chunks.
        let p = ChunkPlan::aligned(3, 8, 20).unwrap();
        assert!(p.chunks() <= 2, "got {} chunks", p.chunks());
        assert_eq!(p.range(p.chunks() - 1).end, 3);
        // Zero-length vectors degrade to one empty chunk.
        let p0 = ChunkPlan::aligned(0, 4, 20).unwrap();
        assert_eq!(p0.chunks(), 1);
        assert_eq!(p0.chunk_len(0), 0);
    }

    #[test]
    fn byte_ranges_partition_the_packed_payload() {
        for bits in [1u32, 7, 8, 16, 20, 33] {
            let d = 517usize;
            let p = ChunkPlan::aligned(d, 5, bits).unwrap();
            let total_bytes = (d as u64 * u64::from(bits)).div_ceil(8) as usize;
            let mut cursor = 0usize;
            for c in 0..p.chunks() {
                let r = p.byte_range(c);
                assert_eq!(r.start, cursor, "bits={bits} chunk={c}");
                cursor = r.end;
            }
            assert_eq!(cursor, total_bytes, "bits={bits}");
        }
    }

    #[test]
    fn split_reassemble_identity() {
        let d = 237usize;
        let v: Vec<u64> = (0..d as u64).map(|i| i * 31 + 5).collect();
        for m in [1usize, 2, 4, 8, 100] {
            let p = ChunkPlan::aligned(d, m, 16).unwrap();
            let parts: Vec<Vec<u64>> = p
                .split(&v)
                .unwrap()
                .into_iter()
                .map(<[u64]>::to_vec)
                .collect();
            assert_eq!(p.reassemble(&parts).unwrap(), v, "m={m}");
        }
    }

    #[test]
    fn mismatches_rejected() {
        let p = ChunkPlan::aligned(16, 2, 16).unwrap();
        assert!(matches!(
            p.split(&[0u64; 15]),
            Err(ChunkPlanError::LengthMismatch { .. })
        ));
        assert!(matches!(
            p.reassemble(&[vec![0u64; 16]]),
            Err(ChunkPlanError::ChunkCountMismatch { .. })
        ));
        assert!(matches!(
            ChunkPlan::aligned(16, 2, 63),
            Err(ChunkPlanError::BadBitWidth(63))
        ));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `reassemble ∘ split == identity` over random dims, chunk
        /// counts, and bit widths — the correctness contract every layer
        /// leans on.
        #[test]
        fn prop_split_reassemble_identity(
            d in 0usize..700,
            m in 1usize..12,
            bits in 1u32..63,
        ) {
            let plan = ChunkPlan::aligned(d, m, bits).unwrap();
            let v: Vec<u64> = (0..d as u64).map(|i| i.wrapping_mul(0x9e37_79b9) & ((1 << bits) - 1)).collect();
            let parts: Vec<Vec<u64>> = plan.split(&v).unwrap().into_iter().map(<[u64]>::to_vec).collect();
            prop_assert_eq!(plan.reassemble(&parts).unwrap(), v);
            // Chunks tile, in order, with aligned internal bounds.
            let mut cursor = 0usize;
            for c in 0..plan.chunks() {
                prop_assert_eq!(plan.range(c).start, cursor);
                cursor = plan.range(c).end;
                if c + 1 < plan.chunks() {
                    prop_assert_eq!((cursor as u64 * u64::from(bits)) % 8, 0);
                }
            }
            prop_assert_eq!(cursor, d);
        }
    }
}
