//! The frame codec path: `FrameBuffer` must reassemble a frame stream
//! byte-equal to the whole-frame read no matter how the bytes are split
//! across reads, and `WriteBuffer` must drain interleaved partial writes
//! into the identical stream no matter how the socket slices (or
//! `WouldBlock`s) the writes. These two buffers are the one reader and
//! the one writer of every `TcpChannel`, blocking or registered with the
//! reactor, so their invariants are the wire correctness of both. Reads
//! land straight in the `FrameBuffer`, which hands its allocation out as
//! the frame.

use std::io::{ErrorKind, Read, Write};

use dordis_net::tcp::{FrameBuffer, WriteBuffer};
use dordis_net::transport::wire_message;
use dordis_net::NetError;
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

/// Feeds a raw stream into a `FrameBuffer` through reads of at most the
/// given byte splits (cycling through `cuts`, all non-zero), popping
/// frames as they complete.
fn reassemble(stream: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut reader = SplitReader {
        stream: stream.to_vec(),
        pos: 0,
        splits: cuts.to_vec(),
        call: 0,
        last_dst: 0,
    };
    let mut buf = FrameBuffer::new();
    let mut out = Vec::new();
    loop {
        while let Some(frame) = buf.take_frame().expect("valid stream") {
            out.push(frame);
        }
        if buf.read_from(&mut reader).expect("in-memory reads") == 0 {
            break;
        }
    }
    assert!(buf.is_empty(), "stream fully consumed");
    out
}

/// A writer that accepts at most `caps[i]` bytes on the `i`-th call
/// (cycling), surfacing `WouldBlock` when the cap is zero — the shape of
/// a socket under backpressure.
struct DribbleWriter {
    written: Vec<u8>,
    caps: Vec<usize>,
    call: usize,
    would_blocks: usize,
}

impl Write for DribbleWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let cap = self.caps[self.call % self.caps.len()];
        self.call += 1;
        if cap == 0 {
            self.would_blocks += 1;
            return Err(std::io::Error::new(ErrorKind::WouldBlock, "backpressure"));
        }
        let n = cap.min(buf.len());
        self.written.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A reader serving `stream` at most `splits[i]` bytes on the `i`-th
/// call (cycling), surfacing `WouldBlock` when the split is zero — a
/// socket under a read timeout — and remembering where in memory it
/// last wrote.
struct SplitReader {
    stream: Vec<u8>,
    pos: usize,
    splits: Vec<usize>,
    call: usize,
    last_dst: usize,
}

impl Read for SplitReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = self.splits[self.call % self.splits.len()];
        self.call += 1;
        if cap == 0 {
            return Err(std::io::Error::new(ErrorKind::WouldBlock, "timed out"));
        }
        let n = cap.min(buf.len()).min(self.stream.len() - self.pos);
        buf[..n].copy_from_slice(&self.stream[self.pos..self.pos + n]);
        self.pos += n;
        if n > 0 {
            self.last_dst = buf.as_ptr() as usize;
        }
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Blocking reads (`FrameBuffer::read_from`) through arbitrary
    /// splits and `WouldBlock`s reassemble byte-equal frames, and every
    /// non-empty frame handed out *is* the buffer the body reads landed
    /// in — no copy into a second allocation.
    #[test]
    fn blocking_reads_hand_out_the_stream_buffer(
        seed in any::<u64>(),
        lens in collection::vec(0usize..200, 1..7),
        splits in collection::vec(0usize..17, 1..32),
    ) {
        let mut splits = splits;
        if splits.iter().all(|&c| c == 0) {
            splits.push(5);
        }
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| payload(seed, i, len))
            .collect();
        let mut reader = SplitReader {
            stream: stream_of(&frames),
            pos: 0,
            splits,
            call: 0,
            last_dst: 0,
        };
        let mut buf = FrameBuffer::new();
        let mut got = Vec::new();
        for _ in 0..100_000 {
            if let Some(frame) = buf.take_frame().expect("valid stream") {
                let at = frame.as_ptr() as usize;
                if lens[got.len()] == 0 {
                    // The prefix has bytes of its own: no body read
                    // lands in a zero-length frame.
                    prop_assert!(frame.is_empty(), "frame {} is not empty", got.len());
                } else {
                    prop_assert!(
                        (at..at + frame.capacity()).contains(&reader.last_dst),
                        "frame {} was copied out of the stream buffer",
                        got.len()
                    );
                }
                got.push(frame);
                continue;
            }
            match buf.read_from(&mut reader) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("{e}"),
            }
        }
        prop_assert_eq!(&got, &frames);
        prop_assert!(buf.is_empty(), "stream fully consumed");
    }

    /// A frame delivered in arbitrary byte-split sequences reassembles
    /// byte-equal to the whole-frame read.
    #[test]
    fn arbitrary_splits_reassemble_byte_equal(
        seed in any::<u64>(),
        lens in collection::vec(0usize..200, 1..7),
        cuts in collection::vec(1usize..17, 1..32),
    ) {
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| payload(seed, i, len))
            .collect();
        let stream = stream_of(&frames);

        // Ground truth: the whole stream on offer at every read.
        let whole = reassemble(&stream, &[stream.len().max(1)]);
        prop_assert_eq!(&whole, &frames);

        // Arbitrary split sequence: identical output.
        let split = reassemble(&stream, &cuts);
        prop_assert_eq!(&split, &frames);
    }

    /// Interleaved partial writes drain into the byte-identical stream
    /// under (simulated) write readiness, regardless of how the socket
    /// slices each write or how often it signals WouldBlock.
    #[test]
    fn interleaved_partial_writes_drain_correctly(
        seed in any::<u64>(),
        lens in collection::vec(0usize..200, 1..7),
        caps in collection::vec(0usize..33, 1..16),
    ) {
        // At least one cap must make progress or draining can't finish.
        let mut caps = caps;
        if caps.iter().all(|&c| c == 0) {
            caps.push(7);
        }
        let frames: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| payload(seed, i, len))
            .collect();

        let mut outbox = WriteBuffer::new();
        let mut sink = DribbleWriter {
            written: Vec::new(),
            caps,
            call: 0,
            would_blocks: 0,
        };
        // Interleave queueing with partial drains: frame k+1 is queued
        // while frame k may still sit half-written in the buffer.
        for f in &frames {
            outbox.queue_shared(&wire_message(f));
            let _ = outbox.write_to(&mut sink).expect("no real I/O error");
        }
        // Drive "write readiness" until fully drained.
        let mut rounds = 0;
        while !outbox.write_to(&mut sink).expect("no real I/O error") {
            rounds += 1;
            prop_assert!(rounds < 100_000, "outbox never drained");
        }
        prop_assert!(outbox.is_empty());
        prop_assert_eq!(&sink.written, &stream_of(&frames));
    }
}

#[test]
fn oversized_frame_poisons_the_stream() {
    let mut buf = FrameBuffer::new();
    let mut stream = u32::MAX.to_le_bytes().to_vec();
    stream.extend_from_slice(&[0u8; 8]);
    let mut reader = &stream[..];
    assert_eq!(buf.read_from(&mut reader).unwrap(), 4, "the prefix alone");
    assert!(matches!(buf.take_frame(), Err(NetError::Codec(_))));
    // The blocking reader refuses to size its buffer from that length.
    let err = buf.read_from(&mut &[0u8; 64][..]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
}

#[test]
fn needed_tracks_header_then_body() {
    let mut buf = FrameBuffer::new();
    assert_eq!(buf.needed(), 4, "nothing buffered: need the prefix");
    buf.read_from(&mut &7u32.to_le_bytes()[..]).unwrap();
    assert_eq!(buf.needed(), 11, "prefix read: need 7 payload bytes");
    buf.read_from(&mut &b"abc"[..]).unwrap();
    assert!(buf.take_frame().unwrap().is_none(), "frame incomplete");
    buf.read_from(&mut &b"defg"[..]).unwrap();
    assert_eq!(buf.take_frame().unwrap().unwrap(), b"abcdefg");
    assert_eq!(buf.needed(), 4, "consumed: back to prefix");
}

#[test]
fn empty_frames_roundtrip() {
    let frames = vec![Vec::new(), b"x".to_vec(), Vec::new()];
    let stream = stream_of(&frames);
    assert_eq!(reassemble(&stream, &[1]), frames);
}
