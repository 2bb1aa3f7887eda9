//! RFC 8439 ChaCha20 block function and stream cipher.
//!
//! ChaCha20 serves two roles in Dordis: it is the `PRG` that expands 32-byte
//! seeds into pairwise masks / self-masks / DP noise streams (the dominant
//! computational cost of secure aggregation), and it is the confidentiality
//! half of the crate's encrypt-then-MAC [`crate::aead`].

/// ChaCha20 key size in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce size in bytes (IETF variant, 96 bits).
pub const NONCE_LEN: usize = 12;
/// ChaCha20 block size in bytes.
pub const BLOCK_LEN: usize = 64;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The block function's input: constants, key, `counter` and nonce as
/// the 16 state words every block of a stream starts from.
pub(crate) fn initial_state(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    state
}

/// Computes one keystream block as its 16 little-endian `u32` state
/// words — the allocation-free core that [`block`] and [`KeyStream`]
/// share, and the oracle of the sixteen-block pass.
#[must_use]
pub fn block_words(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = initial_state(key, counter, nonce);
    let initial = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (s, i) in state.iter_mut().zip(initial.iter()) {
        *s = s.wrapping_add(*i);
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block.
#[must_use]
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    words_to_bytes(&block_words(key, counter, nonce))
}

/// Serializes a block's state words to the RFC 8439 byte stream.
fn words_to_bytes(words: &[u32; 16]) -> [u8; BLOCK_LEN] {
    let mut out = [0u8; BLOCK_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XORs the ChaCha20 keystream (starting at `counter`) into `data` in place.
///
/// Applying the function twice with the same parameters recovers the
/// original data, so this serves as both encryption and decryption.
pub(crate) fn xor_stream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
) {
    let mut ctr = counter;
    for chunk in data.chunks_mut(BLOCK_LEN) {
        let ks = block(key, ctr, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        ctr = ctr.wrapping_add(1);
    }
}

/// Blocks a 32-bit counter addresses: the keystream ends after block
/// 2^32 − 1, at byte 2^38.
const END_BLOCK: u64 = 1 << 32;

/// Blocks one pass of the wide kernel computes.
pub const PASS_BLOCKS: usize = 16;
/// Keystream bytes one pass of the wide kernel computes: 1 KiB.
pub const PASS_LEN: usize = PASS_BLOCKS * BLOCK_LEN;

/// Panics for a read or seek at `byte`, at or past the end of the
/// keystream: a 32-bit counter wrapping there would serve keystream
/// already used.
#[cold]
fn past_the_end(what: &str, byte: u64) -> ! {
    panic!("{what} byte {byte} is past the 2^38-byte ChaCha20 keystream")
}

/// A resumable ChaCha20 keystream reader.
///
/// Produces the byte stream determined by `(key, nonce)`, from block 0
/// up to the last block a 32-bit counter addresses; used as the backing
/// generator for [`crate::prg::Prg`]. Every read that would run past
/// that block panics, as a [`KeyStream::seek`] there does.
///
/// Keystream reaches the caller two ways, with the same bytes:
///
/// - the word reader ([`KeyStream::fill`], `next_u16/u32/u64`,
///   [`KeyStream::read_buffered`]) reads a buffer it refills with one
///   sixteen-block pass of
///   `chacha20_avx512` where the CPU has AVX-512F (and sixteen blocks
///   remain), one [`block_words`] block elsewhere. The 1 KiB pass
///   buffer is allocated at the first such refill, so a stream that
///   never refills through the word reader does not hold it;
/// - [`KeyStream::fill_u32`] / [`KeyStream::fill_u64`] generate the
///   whole blocks they consume straight into the caller's buffer, and a
///   partial head or tail through a one-block refill.
#[derive(Clone)]
pub struct KeyStream {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    /// The block the next refill starts at: at most [`END_BLOCK`].
    counter: u64,
    /// The buffered keystream while no pass buffer is allocated.
    block: [u8; BLOCK_LEN],
    /// The pass buffer: once allocated, the buffer of every refill.
    pass: Option<Box<[u8; PASS_LEN]>>,
    /// The unread bytes of the buffer are `pos..end`.
    pos: usize,
    end: usize,
    /// Blocks generated so far — the cost of everything read from this
    /// stream, as a count.
    #[cfg(test)]
    pub(crate) blocks: usize,
}

impl KeyStream {
    /// Creates a keystream for `(key, nonce)` starting at block 0.
    #[must_use]
    pub fn new(key: [u8; KEY_LEN], nonce: [u8; NONCE_LEN]) -> Self {
        KeyStream {
            key,
            nonce,
            counter: 0,
            block: [0u8; BLOCK_LEN],
            pass: None,
            pos: 0,
            end: 0,
            #[cfg(test)]
            blocks: 0,
        }
    }

    /// The buffered keystream not read yet.
    #[inline]
    fn buffered(&self) -> &[u8] {
        let buf = match &self.pass {
            Some(pass) => &pass[..],
            None => &self.block[..],
        };
        &buf[self.pos..self.end]
    }

    /// Generates the block at the current counter and advances past it.
    ///
    /// # Panics
    ///
    /// Panics if the last block has been generated already.
    #[inline]
    fn next_block(&mut self) -> [u32; 16] {
        let Ok(counter) = u32::try_from(self.counter) else {
            past_the_end("read at", END_BLOCK * BLOCK_LEN as u64)
        };
        self.counter += 1;
        #[cfg(test)]
        {
            self.blocks += 1;
        }
        block_words(&self.key, counter, &self.nonce)
    }

    /// Buffers the next block: the refill of a seek and of the partial
    /// head or tail of a `fill_u32` / `fill_u64`.
    fn refill_block(&mut self) {
        let bytes = words_to_bytes(&self.next_block());
        match &mut self.pass {
            Some(pass) => pass[..BLOCK_LEN].copy_from_slice(&bytes),
            None => self.block = bytes,
        }
        self.pos = 0;
        self.end = BLOCK_LEN;
    }

    /// Buffers the word reader's next keystream: one sixteen-block pass
    /// where the CPU runs it and sixteen blocks remain, one block
    /// elsewhere.
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if self.counter + PASS_BLOCKS as u64 <= END_BLOCK && crate::chacha20_avx512::detected() {
            let pass = self.pass.get_or_insert_with(|| Box::new([0u8; PASS_LEN]));
            // The counter is below 2^32 − 15 here.
            if crate::chacha20_avx512::pass(&self.key, self.counter as u32, &self.nonce, pass) {
                self.counter += PASS_BLOCKS as u64;
                self.pos = 0;
                self.end = PASS_LEN;
                #[cfg(test)]
                {
                    self.blocks += PASS_BLOCKS;
                }
                return;
            }
        }
        self.refill_block();
    }

    /// Copies the next `out.len()` keystream bytes to `out`, through
    /// the word reader's refill when `wide`, a one-block refill
    /// otherwise.
    fn read(&mut self, out: &mut [u8], wide: bool) {
        let mut out = out;
        while !out.is_empty() {
            if self.pos == self.end {
                if wide {
                    self.refill();
                } else {
                    self.refill_block();
                }
            }
            let buffered = self.buffered();
            let n = buffered.len().min(out.len());
            out[..n].copy_from_slice(&buffered[..n]);
            self.pos += n;
            out = &mut out[n..];
        }
    }

    /// The next `N` keystream bytes: straight from the buffer when it
    /// holds them all; [`KeyStream::read`] handles refills and
    /// straddles.
    #[inline]
    fn next_bytes<const N: usize>(&mut self, wide: bool) -> [u8; N] {
        let mut b = [0u8; N];
        match self.buffered().get(..N) {
            Some(word) => {
                b.copy_from_slice(word);
                self.pos += N;
            }
            None => self.read(&mut b, wide),
        }
        b
    }

    /// Hands `read` the buffered keystream not read yet — refilled
    /// through the word reader first when it is empty, so never empty —
    /// and advances past the bytes `read` says it used. Those are the
    /// stream's next bytes, as any other read would return them; this is
    /// how a caller reads many short lanes without a call apiece.
    ///
    /// # Panics
    ///
    /// Panics if `read` reports more bytes than it was handed.
    #[inline]
    pub fn read_buffered(&mut self, read: impl FnOnce(&[u8]) -> usize) {
        if self.pos == self.end {
            self.refill();
        }
        let used = read(self.buffered());
        assert!(
            used <= self.end - self.pos,
            "read past the buffered keystream"
        );
        self.pos += used;
    }

    /// Fills `out` with the next keystream bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        self.read(out, true);
    }

    /// Returns the next keystream `u64` (little-endian).
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.next_bytes(true))
    }

    /// Returns the next keystream `u32` (little-endian).
    pub fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.next_bytes(true))
    }

    /// Returns the next keystream `u16` (little-endian): the lane the
    /// Skellam sampler spends per draw.
    #[inline]
    pub fn next_u16(&mut self) -> u16 {
        u16::from_le_bytes(self.next_bytes(true))
    }

    /// Fills `out` with the next keystream `u64`s (little-endian),
    /// generating whole blocks straight into the caller's buffer.
    ///
    /// Bit-identical to calling [`KeyStream::next_u64`] `out.len()`
    /// times — it consumes exactly `8 × out.len()` stream bytes from the
    /// current position — but skips the per-word byte shuffling: aligned
    /// spans are produced 8 words (one block) at a time directly into
    /// `out`, and only the blocks consumed are generated. This is the
    /// word source of mask expansion in rings wider than 32 bits
    /// (`Prg::fill_mod2b`).
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let mut rest = out;
        // Drain the buffer word by word until the stream is
        // block-aligned.
        while !rest.is_empty() && self.pos != self.end {
            rest[0] = u64::from_le_bytes(self.next_bytes(false));
            rest = &mut rest[1..];
        }
        // Whole blocks straight into the caller's buffer: two
        // consecutive state words packed low-then-high are the `u64` the
        // byte stream holds there.
        let mut chunks = rest.chunks_exact_mut(BLOCK_LEN / 8);
        for chunk in &mut chunks {
            let words = self.next_block();
            for (o, pair) in chunk.iter_mut().zip(words.chunks_exact(2)) {
                *o = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
            }
        }
        // Partial final block: read through the buffer, so the unread
        // remainder stays available to later reads.
        for t in chunks.into_remainder() {
            *t = u64::from_le_bytes(self.next_bytes(false));
        }
    }

    /// Fills `out` with the next keystream `u32`s (little-endian): the
    /// twin of [`KeyStream::fill_u64`] at half the word size, 16 words
    /// per block, each block's state words copied out as they are.
    ///
    /// Bit-identical to calling [`KeyStream::next_u32`] `out.len()`
    /// times. This is the mask-expansion fast path for rings of at most
    /// 32 bits (`Prg::fill_mod2b`).
    pub fn fill_u32(&mut self, out: &mut [u32]) {
        let mut rest = out;
        while !rest.is_empty() && self.pos != self.end {
            rest[0] = u32::from_le_bytes(self.next_bytes(false));
            rest = &mut rest[1..];
        }
        let mut chunks = rest.chunks_exact_mut(BLOCK_LEN / 4);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_block());
        }
        for t in chunks.into_remainder() {
            *t = u32::from_le_bytes(self.next_bytes(false));
        }
    }

    /// Repositions the stream to absolute `byte_offset` (from block 0).
    ///
    /// ChaCha20 is seekable by construction — block `i` depends only on
    /// `(key, nonce, i)` — so a reader can start mid-stream for the cost
    /// of at most one block computation. This is what lets the compute
    /// plane expand *one chunk's slice* of a mask without generating the
    /// prefix: `Prg::new_at` turns the slice's first element into the
    /// byte offset of its keystream word.
    ///
    /// # Panics
    ///
    /// Panics if `byte_offset` is at or beyond 2^38, the end of the
    /// keystream a 32-bit block counter addresses — wrapping there would
    /// serve keystream already used.
    pub fn seek(&mut self, byte_offset: u64) {
        let block = byte_offset / BLOCK_LEN as u64;
        if block >= END_BLOCK {
            past_the_end("seek to", byte_offset);
        }
        self.counter = block;
        // Empty: the next read generates the block.
        self.pos = 0;
        self.end = 0;
        let within = (byte_offset % BLOCK_LEN as u64) as usize;
        if within != 0 {
            self.refill_block();
            self.pos = within;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 §2.1.1.
        let mut state = [0u32; 16];
        state[0] = 0x1111_1111;
        state[1] = 0x0102_0304;
        state[2] = 0x9b8d_6f43;
        state[3] = 0x0123_4567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a_92f4);
        assert_eq!(state[1], 0xcb1c_f8ce);
        assert_eq!(state[2], 0x4581_472e);
        assert_eq!(state[3], 0x5881_c4bb);
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, ctr 1.
        let mut key = [0u8; KEY_LEN];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        let expected_head = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03,
        ];
        assert_eq!(&out[..24], &expected_head);
    }

    #[test]
    fn xor_stream_roundtrip() {
        let key = [7u8; KEY_LEN];
        let nonce = [3u8; NONCE_LEN];
        let plain: Vec<u8> = (0..300u16).map(|i| (i * 7 % 256) as u8).collect();
        let mut data = plain.clone();
        xor_stream(&key, &nonce, 0, &mut data);
        assert_ne!(data, plain);
        xor_stream(&key, &nonce, 0, &mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn keystream_matches_block_sequence() {
        let key = [9u8; KEY_LEN];
        let nonce = [1u8; NONCE_LEN];
        let mut ks = KeyStream::new(key, nonce);
        let mut got = vec![0u8; 130];
        ks.fill(&mut got);
        let mut want = Vec::new();
        for c in 0..3u32 {
            want.extend_from_slice(&block(&key, c, &nonce));
        }
        assert_eq!(&got[..], &want[..130]);
    }

    #[test]
    fn keystream_fill_is_split_invariant() {
        let key = [5u8; KEY_LEN];
        let nonce = [2u8; NONCE_LEN];
        let mut a = KeyStream::new(key, nonce);
        let mut whole = vec![0u8; 100];
        a.fill(&mut whole);
        let mut b = KeyStream::new(key, nonce);
        let mut parts = vec![0u8; 100];
        b.fill(&mut parts[..33]);
        b.fill(&mut parts[33..90]);
        b.fill(&mut parts[90..]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn fill_u64_matches_next_u64_across_alignments() {
        let key = [11u8; KEY_LEN];
        let nonce = [4u8; NONCE_LEN];
        // Misalign by 0..=9 bytes first, then batch-fill across several
        // block boundaries; must equal the word-at-a-time path exactly.
        for misalign in 0..=9usize {
            let mut a = KeyStream::new(key, nonce);
            let mut b = KeyStream::new(key, nonce);
            let mut skip = vec![0u8; misalign];
            a.fill(&mut skip);
            b.fill(&mut skip);
            let mut batched = vec![0u64; 37];
            a.fill_u64(&mut batched);
            let legacy: Vec<u64> = (0..37).map(|_| b.next_u64()).collect();
            assert_eq!(batched, legacy, "misalign {misalign}");
            // And the streams stay in lockstep afterwards.
            assert_eq!(a.next_u64(), b.next_u64(), "misalign {misalign}");
        }
    }

    #[test]
    fn fill_u32_matches_next_u32_across_alignments() {
        let key = [12u8; KEY_LEN];
        let nonce = [5u8; NONCE_LEN];
        // The `u32` twin of the test above; a misalignment of 4 leaves
        // the stream word-aligned for `u32` but not for `u64`.
        for misalign in 0..=9usize {
            let mut a = KeyStream::new(key, nonce);
            let mut b = KeyStream::new(key, nonce);
            let mut skip = vec![0u8; misalign];
            a.fill(&mut skip);
            b.fill(&mut skip);
            let mut batched = vec![0u32; 71];
            a.fill_u32(&mut batched);
            let legacy: Vec<u32> = (0..71).map(|_| b.next_u32()).collect();
            assert_eq!(batched, legacy, "misalign {misalign}");
            assert_eq!(a.next_u64(), b.next_u64(), "misalign {misalign}");
        }
    }

    #[test]
    fn next_u16_matches_byte_stream_across_alignments() {
        let key = [15u8; KEY_LEN];
        let nonce = [9u8; NONCE_LEN];
        // The `u16` twin: odd misalignments make lanes straddle the
        // block boundaries at bytes 64 and 128; an 8-byte read in
        // between (a Skellam refinement) keeps the stream byte-exact.
        for misalign in 0..=9usize {
            let mut a = KeyStream::new(key, nonce);
            let mut b = KeyStream::new(key, nonce);
            let mut skip = vec![0u8; misalign];
            a.fill(&mut skip);
            b.fill(&mut skip);
            let mut bytes = [0u8; 2 * 40 + 8 + 2 * 31];
            b.fill(&mut bytes);
            let lane = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]);
            for i in 0..40 {
                assert_eq!(a.next_u16(), lane(2 * i), "misalign {misalign}, lane {i}");
            }
            let word = u64::from_le_bytes(bytes[80..88].try_into().expect("8 bytes"));
            assert_eq!(a.next_u64(), word, "misalign {misalign}");
            for i in 0..31 {
                assert_eq!(a.next_u16(), lane(88 + 2 * i), "misalign {misalign}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "misalign {misalign}");
        }
    }

    #[test]
    fn seek_reproduces_mid_stream_words() {
        let key = [13u8; KEY_LEN];
        let nonce = [6u8; NONCE_LEN];
        let mut reference = KeyStream::new(key, nonce);
        let mut all = vec![0u64; 64];
        reference.fill_u64(&mut all);
        for offset_words in [0usize, 1, 7, 8, 9, 16, 33] {
            let mut seeked = KeyStream::new(key, nonce);
            seeked.seek(offset_words as u64 * 8);
            let mut got = vec![0u64; all.len() - offset_words];
            seeked.fill_u64(&mut got);
            assert_eq!(got, all[offset_words..], "offset {offset_words}");
        }
        // Byte-granular seek too (mid-word positions).
        let mut bytes = KeyStream::new(key, nonce);
        let mut stream = vec![0u8; 200];
        bytes.fill(&mut stream);
        for off in [1usize, 63, 64, 65, 100] {
            let mut seeked = KeyStream::new(key, nonce);
            seeked.seek(off as u64);
            let mut got = vec![0u8; stream.len() - off];
            seeked.fill(&mut got);
            assert_eq!(got, stream[off..], "byte offset {off}");
        }
    }

    #[test]
    fn seek_reaches_the_last_block() {
        let key = [14u8; KEY_LEN];
        let nonce = [8u8; NONCE_LEN];
        let last = u64::from(u32::MAX) * BLOCK_LEN as u64;
        let want = block(&key, u32::MAX, &nonce);
        let mut ks = KeyStream::new(key, nonce);
        ks.seek(last);
        let mut got = [0u8; BLOCK_LEN];
        ks.fill(&mut got);
        assert_eq!(got, want);
        ks.seek(last + 61);
        let mut got = [0u8; 3];
        ks.fill(&mut got);
        assert_eq!(got, want[61..]);
    }

    #[test]
    #[should_panic(expected = "seek to byte 274877906944 is past")]
    fn seek_past_the_last_block_panics() {
        // Block 2^32 would truncate to counter 0 and re-serve the
        // stream's first bytes.
        KeyStream::new([14u8; KEY_LEN], [8u8; NONCE_LEN]).seek(1 << 38);
    }

    #[test]
    fn every_read_path_stops_at_the_end_of_the_keystream() {
        let key = [16u8; KEY_LEN];
        let nonce = [10u8; NONCE_LEN];
        let end = (u64::from(u32::MAX) + 1) * BLOCK_LEN as u64;
        // The last 20 blocks: the word reader's refills cross the point
        // where fewer than sixteen blocks remain.
        let tail: Vec<u8> = (u32::MAX - 19..=u32::MAX)
            .flat_map(|c| block(&key, c, &nonce))
            .collect();
        type Read = fn(&mut KeyStream);
        let reads: [(&str, Read); 7] = [
            ("fill", |ks| ks.fill(&mut [0u8; 2])),
            ("next_u16", |ks| {
                let _ = ks.next_u16();
            }),
            ("next_u32", |ks| {
                let _ = ks.next_u32();
            }),
            ("next_u64", |ks| {
                let _ = ks.next_u64();
            }),
            ("fill_u32", |ks| ks.fill_u32(&mut [0u32; 1])),
            ("fill_u64", |ks| ks.fill_u64(&mut [0u64; 1])),
            ("read_buffered", |ks| {
                // What is left, then a read that must refill.
                ks.read_buffered(|bytes| bytes.len());
                ks.read_buffered(|bytes| bytes.len());
            }),
        ];
        for (name, read) in reads {
            // Up to the end and up to one byte before it, then a read
            // that needs more: a wrapping counter would serve block 0
            // again there.
            for left in [0, 1] {
                let mut ks = KeyStream::new(key, nonce);
                ks.seek(end - tail.len() as u64);
                let mut got = vec![0u8; tail.len() - left];
                ks.fill(&mut got);
                assert_eq!(got, tail[..got.len()], "{name}, {left} bytes left");
                let panic =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| read(&mut ks)))
                        .expect_err(name);
                let message = panic.downcast_ref::<String>().expect("formatted message");
                assert_eq!(
                    message, "read at byte 274877906944 is past the 2^38-byte ChaCha20 keystream",
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let key = [1u8; KEY_LEN];
        let mut a = KeyStream::new(key, [0u8; NONCE_LEN]);
        let mut b = KeyStream::new(key, [1u8; NONCE_LEN]);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
