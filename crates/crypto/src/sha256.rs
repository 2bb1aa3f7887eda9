//! FIPS 180-4 SHA-256.
//!
//! Streaming implementation with an incremental [`Sha256`] context plus the
//! one-shot [`sha256`] convenience function. Every block goes through one
//! compression function, [`compress`]: on x86-64 hosts with the SHA
//! extensions it runs on `crate::sha256_ni`, everywhere else on the
//! portable rounds below, which also stay the oracle the SHA-NI kernel is
//! tested against. Verified against the FIPS/NIST short-message test
//! vectors in the unit tests.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size of SHA-256 in bytes.
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hashing context.
///
/// # Examples
///
/// ```
/// use dordis_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), dordis_crypto::sha256::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// The first `total_len % BLOCK_LEN` bytes are the unabsorbed tail.
    buf: [u8; BLOCK_LEN],
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hashing context.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Finishes hashing and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finish(compress)
    }

    fn buffered(&self) -> usize {
        (self.total_len % BLOCK_LEN as u64) as usize
    }

    /// `update` over a given compression function: whole blocks of
    /// `data` go to `compress` in one call, straight from the slice.
    #[inline(always)]
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[[u8; BLOCK_LEN]])) {
        let buffered = self.buffered();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if buffered > 0 {
            let take = (BLOCK_LEN - buffered).min(rest.len());
            self.buf[buffered..buffered + take].copy_from_slice(&rest[..take]);
            if buffered + take < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, core::slice::from_ref(&self.buf));
            rest = &rest[take..];
        }
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
    }

    /// `finalize` over a given compression function. The padding — 0x80,
    /// zeros, then the 64-bit big-endian message length — is written into
    /// the buffered block in place: one compression, or two when the
    /// length no longer fits behind the tail.
    #[inline(always)]
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[[u8; BLOCK_LEN]])) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        let buffered = self.buffered();
        self.buf[buffered] = 0x80;
        self.buf[buffered + 1..].fill(0);
        if buffered >= BLOCK_LEN - 8 {
            compress(&mut self.state, core::slice::from_ref(&self.buf));
            self.buf = [0u8; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, core::slice::from_ref(&self.buf));
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The SHA-256 compression function over whole blocks: the SHA-NI kernel
/// where the CPU has it, the portable rounds everywhere else. Exposed for
/// the `sha256/compress` microbench row.
#[doc(hidden)]
pub fn compress(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_ni::compress(state, blocks) {
        return;
    }
    portable(state, blocks);
}

/// FIPS 180-4's rounds, one block at a time: the fallback of
/// [`compress`] and the oracle of the SHA-NI kernel's tests.
pub(crate) fn portable(state: &mut [u32; 8], blocks: &[[u8; BLOCK_LEN]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of several byte slices.
///
/// Equivalent to hashing `parts.concat()` but without the allocation.
#[must_use]
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Compress = fn(&mut [u32; 8], &[[u8; BLOCK_LEN]]);

    /// The dispatching compression function (SHA-NI where the CPU has
    /// it) and the portable one: every streaming test runs on both.
    const PATHS: [(&str, Compress); 2] = [("compress", compress), ("portable", portable)];

    /// `data` through one context on `path`, cut at every point in `cuts`.
    fn streamed(path: Compress, data: &[u8], cuts: &[usize]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        let mut from = 0;
        for &cut in cuts {
            let to = cut.clamp(from, data.len());
            h.absorb(&data[from..to], path);
            from = to;
        }
        h.absorb(&data[from..], path);
        h.finish(path)
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        // FIPS 180-4 example: 448-bit message crossing the padding boundary.
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn padding_boundaries_on_both_paths() {
        // All-`a` messages whose tails are 55 bytes (the length fits
        // behind the 0x80), 56 and 63 (it spills into a second padding
        // block) and 0 after one or two whole blocks.
        for (len, want) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ] {
            for (name, path) in PATHS {
                let got = streamed(path, &vec![b'a'; len], &[]);
                assert_eq!(hex(&got), want, "{name}, {len} bytes");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any message, cut anywhere, hashes to the one-shot digest on
        /// both paths.
        #[test]
        fn streaming_splits_agree_on_both_paths(
            data in collection::vec(any::<u8>(), 0..400),
            cuts in collection::vec(0usize..400, 0..6),
        ) {
            let mut cuts = cuts;
            cuts.sort_unstable();
            let want = sha256(&data);
            for (name, path) in PATHS {
                let got = streamed(path, &data, &cuts);
                prop_assert!(got == want, "{} path, cuts {:?}", name, cuts);
            }
        }
    }

    #[test]
    fn concat_matches_manual_concat() {
        let got = sha256_concat(&[b"hello ", b"", b"world"]);
        assert_eq!(got, sha256(b"hello world"));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b"ab"), sha256(b"a\x00b"));
    }
}
