//! Ledger balance of the shared byte pool under arbitrary schedules.
//!
//! The memory plane's core claim is an accounting identity: at every
//! point in time, the pool's live ingress gauge equals the bytes each
//! connection genuinely holds custody of (stream buffer + decoded
//! frames not yet credited back), no matter how reads, frame takes,
//! credits, and disconnects interleave — and a dropped connection
//! settles its whole ledger, so nothing leaks. The
//! `dordis_buffered_bytes` gauges read this ledger, so a drift here
//! silently turns them into fiction.

use dordis_net::pool::BytePool;
use dordis_net::tcp::FrameBuffer;
use proptest::collection;
use proptest::prelude::*;

/// Deterministic payload bytes for frame `i` of length `len`.
fn payload(seed: u64, i: usize, len: usize) -> Vec<u8> {
    let mut x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 56) as u8
        })
        .collect()
}

/// Length-prefixes and concatenates frames into one raw stream.
fn stream_of(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&(f.len() as u32).to_le_bytes());
        out.extend_from_slice(f);
    }
    out
}

/// One simulated connection: a real `FrameBuffer` charged to a real
/// `ChannelAccount`, plus the test's shadow ledger.
struct Conn {
    buf: FrameBuffer,
    /// Scripted wire bytes, read up to `fed`.
    stream: Vec<u8>,
    fed: usize,
    /// Frames taken but not yet credited back (custody still charged).
    held: Vec<Vec<u8>>,
    /// Shadow ledger: what this connection should have charged.
    live: u64,
}

impl Conn {
    fn new(pool: &BytePool, seed: u64, frames: &[Vec<u8>]) -> Conn {
        let mut buf = FrameBuffer::new();
        buf.attach_account(pool.account());
        let _ = seed;
        Conn {
            buf,
            stream: stream_of(frames),
            fed: 0,
            held: Vec::new(),
            live: 0,
        }
    }
}

/// Decodes one schedule step out of a raw u64 (the vendored proptest
/// has no tuple strategies): `(connection index, op, size hint)`.
///
/// op 0..=2: read up to `hint` scripted bytes (the reader stops at the
/// end of the frame being assembled); 3: take one frame; 4: credit back
/// the oldest held frame; 5: disconnect.
fn decode_op(x: u64) -> (usize, u8, usize) {
    let idx = (x & 0xFF) as usize;
    let op = ((x >> 8) % 6) as u8;
    let hint = ((x >> 16) & 0x1FF) as usize + 1;
    (idx, op, hint)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of read / take / credit / disconnect
    /// keep the pool's ledger balanced: live ingress always equals the
    /// surviving connections' shadow ledgers, and dropping every
    /// connection settles to zero.
    #[test]
    fn interleaved_custody_keeps_the_ledger_balanced(
        seed in any::<u64>(),
        per_conn_lens in collection::vec(
            collection::vec(0usize..400, 1..6), 2..5),
        raw_ops in collection::vec(any::<u64>(), 1..120),
    ) {
        let pool = BytePool::new();
        let mut conns: Vec<Option<Conn>> = per_conn_lens
            .iter()
            .enumerate()
            .map(|(c, lens)| {
                let frames: Vec<Vec<u8>> = lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| payload(seed ^ c as u64, i, len))
                    .collect();
                Some(Conn::new(&pool, seed, &frames))
            })
            .collect();

        for (idx, op, hint) in raw_ops.into_iter().map(decode_op) {
            let slot = idx % conns.len();
            let Some(conn) = conns[slot].as_mut() else {
                continue; // already disconnected
            };
            match op {
                0..=2 => {
                    let end = conn.stream.len().min(conn.fed + hint);
                    let mut piece = &conn.stream[conn.fed..end];
                    let n = conn.buf.read_from(&mut piece).expect("in-memory reads");
                    conn.fed += n;
                    conn.live += n as u64;
                }
                3 => {
                    if let Some(frame) = conn.buf.take_frame().expect("valid stream") {
                        // The 4-byte prefix is consumed outright; the
                        // payload's custody moves into the held frame.
                        conn.live -= 4;
                        conn.held.push(frame);
                    }
                }
                4 => {
                    if !conn.held.is_empty() {
                        let frame = conn.held.remove(0);
                        conn.live -= frame.len() as u64;
                        conn.buf.credit_frame(frame);
                    }
                }
                5 => {
                    // Disconnect with frames still held and bytes still
                    // buffered: the account drop must settle it all.
                    conns[slot] = None;
                }
                _ => unreachable!("op range is 0..6"),
            }

            let expected: u64 = conns
                .iter()
                .flatten()
                .map(|c| c.live)
                .sum();
            prop_assert_eq!(pool.live_ingress(), expected);
        }

        // Everything disconnects — even with uncredited frames and
        // half-parsed streams in flight, the ledger settles to zero.
        conns.clear();
        prop_assert_eq!(pool.live_ingress(), 0);
    }
}

/// A taken frame held *after* its producing buffer is gone still
/// settles: the account outlives the `FrameBuffer` only through the
/// test's clone, and dropping both zeroes the ledger even though the
/// held frame never went back.
#[test]
fn late_drop_of_held_frames_settles_ledger() {
    let pool = BytePool::new();
    let acct = pool.account();
    let mut buf = FrameBuffer::new();
    buf.attach_account(acct.clone());

    let frames = vec![payload(7, 0, 100), payload(7, 1, 50)];
    let stream = stream_of(&frames);
    let mut reader = &stream[..];
    while buf.read_from(&mut reader).unwrap() > 0 {}
    let first = buf.take_frame().unwrap().unwrap();
    assert_eq!(first, frames[0]);
    while buf.read_from(&mut reader).unwrap() > 0 {}
    assert!(reader.is_empty(), "both frames read");
    // 158 read, one 4-byte prefix consumed.
    assert_eq!(pool.live_ingress(), 154);

    drop(buf); // second frame still buffered, first still held
    assert_eq!(
        pool.live_ingress(),
        154,
        "the test's account clone keeps the ledger open"
    );
    drop(acct); // last clone: settles buffered and held custody alike
    assert_eq!(pool.live_ingress(), 0, "leak on account drop");
    drop(first);
}
