//! The keystream reader against a model: random sequences of every read
//! (`fill`, `next_u16/u32/u64`, `fill_u32`, `fill_u64`, `read_buffered`)
//! and of seeks, near the start of the stream and near its end, compared
//! byte for byte with the stream concatenated from `chacha20::block`.
//! Where the CPU has AVX-512F the word reader refills through the
//! sixteen-block pass, elsewhere one block at a time; the expected bytes
//! are the same.

use dordis_crypto::chacha20::{block, KeyStream, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use proptest::collection;
use proptest::prelude::*;

/// The keystream's length in bytes: 2^32 blocks.
const END: u64 = (1 << 32) * BLOCK_LEN as u64;

/// Bytes `at..at + len` of the stream, cut from whole blocks.
fn reference(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], at: u64, len: usize) -> Vec<u8> {
    let (first, last) = (
        at / BLOCK_LEN as u64,
        (at + len as u64).div_ceil(BLOCK_LEN as u64),
    );
    let stream: Vec<u8> = (first..last)
        .flat_map(|c| block(key, u32::try_from(c).expect("inside the stream"), nonce))
        .collect();
    let skip = (at % BLOCK_LEN as u64) as usize;
    stream[skip..skip + len].to_vec()
}

/// One read of `count` items (at most `count` bytes for
/// `read_buffered`, which may return fewer), as the bytes it returned.
fn read(ks: &mut KeyStream, kind: u64, count: usize) -> Vec<u8> {
    match kind {
        0 => {
            let mut out = vec![0u8; count];
            ks.fill(&mut out);
            out
        }
        1 => (0..count)
            .flat_map(|_| ks.next_u16().to_le_bytes())
            .collect(),
        2 => (0..count)
            .flat_map(|_| ks.next_u32().to_le_bytes())
            .collect(),
        3 => (0..count)
            .flat_map(|_| ks.next_u64().to_le_bytes())
            .collect(),
        4 => {
            let mut out = vec![0u32; count];
            ks.fill_u32(&mut out);
            out.iter().flat_map(|w| w.to_le_bytes()).collect()
        }
        5 => {
            let mut out = vec![0u64; count];
            ks.fill_u64(&mut out);
            out.iter().flat_map(|w| w.to_le_bytes()).collect()
        }
        _ => {
            let mut out = Vec::new();
            ks.read_buffered(|bytes| {
                out.extend_from_slice(&bytes[..count.min(bytes.len())]);
                out.len()
            });
            out
        }
    }
}

/// Bytes one item of read `kind` takes.
fn item_len(kind: u64) -> usize {
    [1, 2, 4, 8, 4, 8, 1][kind as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each op is a seek (one in eight), or a read of up to 300 bytes
    /// by one of the seven readers; reads that would run past the end
    /// of the stream are skipped.
    #[test]
    fn reads_and_seeks_follow_the_block_stream(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        ops in collection::vec(any::<u64>(), 1..80),
    ) {
        let mut ks = KeyStream::new(key, nonce);
        let mut at = 0u64;
        for op in ops {
            let arg = op >> 8;
            if op % 8 == 7 {
                let back = (arg >> 1) % 6000;
                at = if arg & 1 == 0 { back } else { END - 1 - back };
                ks.seek(at);
                continue;
            }
            let kind = op % 8;
            let count = (arg % 300) as usize / item_len(kind);
            let len = count * item_len(kind);
            // (`read_buffered` refills first, so it needs a byte left.)
            if at + (len as u64).max(1) > END {
                continue;
            }
            let got = read(&mut ks, kind, count);
            prop_assert_eq!(&got, &reference(&key, &nonce, at, got.len()));
            at += got.len() as u64;
        }
    }
}
