//! Bit-packing of `Z_{2^b}` vectors at `b` bits per element, LSB first.
//!
//! This is the masked-input wire layout (the body of a `MaskedInput`
//! frame after the sender id): element `i` occupies bits
//! `[i·b, (i+1)·b)` of the byte string, the last byte zero-padded by
//! the packer. The server keeps a chunk in this form from the wire to
//! its sum: an incomplete stream's chunks are parked as the payloads
//! that arrived, and [`unpack_add`] adds a payload straight into the
//! ring-width running sum (`u32` or `u64` words), so no chunk is ever
//! decoded into a vector of its own. The unpackers read exactly
//! `len · b` bits: padding bits a sender set are never read. One
//! kernel serves packing and unpacking, moving 64-bit little-endian
//! words through a `u64` accumulator; the byte-at-a-time loop it
//! replaced is kept under `#[cfg(test)]` as the bit-equality oracle.
//!
//! Every function panics on `bits` outside `1..=62` (the range
//! `RoundParams::validate` admits), and the unpackers on a byte length
//! other than [`packed_len`]`(len, bits)` — callers holding outside
//! input check the length first and report it with their own context
//! (`Server::collect_masked_packed` does, before reading an element).

use dordis_crypto::prg::RingWord;

use crate::mask::ring_mask;

/// Bytes `len` elements occupy at `bits` bits each.
#[must_use]
pub fn packed_len(len: usize, bits: u32) -> usize {
    (len as u64 * u64::from(bits)).div_ceil(8) as usize
}

/// Appends `values` (each reduced to `bits` bits) to `out`.
///
/// # Panics
///
/// Panics if `bits` is outside `1..=62`.
pub fn pack_into(values: &[u64], bits: u32, out: &mut Vec<u8>) {
    assert!((1..=62).contains(&bits), "bit width {bits}");
    let ring = ring_mask(bits);
    out.reserve(packed_len(values.len(), bits));
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in values {
        let v = v & ring;
        acc |= v << nbits;
        nbits += bits;
        if nbits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            nbits -= 64;
            // `v`'s high `nbits` bits did not fit; `nbits < bits` here.
            acc = v >> (bits - nbits);
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8) as usize]);
}

/// Calls `f(i, element i)` for each of the `len` packed elements.
#[inline]
fn unpack_each(packed: &[u8], bits: u32, len: usize, mut f: impl FnMut(usize, u64)) {
    assert!((1..=62).contains(&bits), "bit width {bits}");
    assert_eq!(packed.len(), packed_len(len, bits), "packed length");
    let ring = ring_mask(bits);
    let full = packed.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..full.remainder().len()].copy_from_slice(full.remainder());
    let mut words = full
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        .chain(std::iter::once(u64::from_le_bytes(tail)));
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for i in 0..len {
        if nbits >= bits {
            f(i, acc & ring);
            acc >>= bits;
            nbits -= bits;
        } else {
            let w = words.next().expect("length checked");
            f(i, (acc | (w << nbits)) & ring);
            let taken = bits - nbits;
            acc = w >> taken;
            nbits = 64 - taken;
        }
    }
}

/// Unpacks `len` elements.
///
/// # Panics
///
/// Panics unless `packed.len() == packed_len(len, bits)`.
#[must_use]
pub fn unpack(packed: &[u8], bits: u32, len: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    unpack_each(packed, bits, len, |_, v| out.push(v));
    out
}

/// `acc[i] += element i (mod 2^bits)` without materializing the
/// unpacked vector, in whichever word `acc` holds the ring in.
///
/// # Panics
///
/// Panics unless `packed.len() == packed_len(acc.len(), bits)`, or if
/// `bits` is outside `1..=W::BITS`.
pub fn unpack_add<W: RingWord>(packed: &[u8], bits: u32, acc: &mut [W]) {
    let ring = W::ring(bits);
    unpack_each(packed, bits, acc.len(), |i, v| {
        acc[i] = acc[i].wrapping_add(W::truncate(v)) & ring;
    });
}

/// The byte-at-a-time packer the word-wise kernel replaced.
#[cfg(test)]
pub(crate) fn pack_bytewise(values: &[u64], bits: u32) -> Vec<u8> {
    let mask = (1u64 << bits) - 1;
    let mut out = Vec::new();
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    for &v in values {
        acc |= u128::from(v & mask) << nbits;
        nbits += bits;
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
    out
}

/// The byte-at-a-time unpacker the word-wise kernel replaced.
#[cfg(test)]
pub(crate) fn unpack_bytewise(packed: &[u8], bits: u32, len: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    let mut next = packed.iter();
    for _ in 0..len {
        while nbits < bits {
            acc |= u128::from(*next.next().expect("length checked")) << nbits;
            nbits += 8;
        }
        out.push((acc & ((1u128 << bits) - 1)) as u64);
        acc >>= bits;
        nbits -= bits;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::add_signed_assign;
    use proptest::prelude::*;

    fn values(len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn every_width_and_tail_matches_the_bytewise_oracle() {
        for bits in 1u32..=62 {
            for len in (0usize..70).chain([127, 128, 129, 299]) {
                // Unreduced inputs: the packer must mask them itself.
                let v = values(len, u64::from(bits) << 32 | len as u64);
                let mut packed = vec![0xAA];
                pack_into(&v, bits, &mut packed);
                let oracle = pack_bytewise(&v, bits);
                assert_eq!(packed[0], 0xAA, "appends, bits {bits} len {len}");
                assert_eq!(&packed[1..], &oracle[..], "bits {bits} len {len}");
                assert_eq!(oracle.len(), packed_len(len, bits));
                assert_eq!(
                    unpack(&oracle, bits, len),
                    unpack_bytewise(&oracle, bits, len),
                    "bits {bits} len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed length")]
    fn unpack_refuses_a_wrong_length() {
        let _ = unpack(&[0u8; 5], 20, 3);
    }

    proptest! {
        #[test]
        fn pack_is_byte_equal_to_the_oracle(
            bits in 1u32..63,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            let v = values(len, seed);
            let mut packed = Vec::new();
            pack_into(&v, bits, &mut packed);
            prop_assert_eq!(&packed, &pack_bytewise(&v, bits));
            let ring = ring_mask(bits);
            let reduced: Vec<u64> = v.iter().map(|x| x & ring).collect();
            prop_assert_eq!(&unpack(&packed, bits, len), &reduced);
            prop_assert_eq!(unpack_bytewise(&packed, bits, len), reduced);
        }

        #[test]
        fn unpack_add_equals_decode_then_add(
            bits in 1u32..63,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            let ring = ring_mask(bits);
            let mut packed = Vec::new();
            pack_into(&values(len, seed), bits, &mut packed);
            let base: Vec<u64> = values(len, !seed).iter().map(|x| x & ring).collect();
            let mut fused = base.clone();
            unpack_add(&packed, bits, &mut fused);
            let mut two_step = base;
            add_signed_assign(&mut two_step, &unpack(&packed, bits, len), true, bits);
            prop_assert_eq!(fused, two_step);
        }

        #[test]
        fn narrow_unpack_add_equals_the_wide_one(
            bits in 1u32..33,
            len in 0usize..300,
            seed in any::<u64>(),
        ) {
            // A `u32` sum is the `u64` sum's elements, for every ring a
            // `u32` holds.
            let ring = ring_mask(bits);
            let mut packed = Vec::new();
            pack_into(&values(len, seed), bits, &mut packed);
            let mut wide: Vec<u64> = values(len, !seed).iter().map(|x| x & ring).collect();
            let mut narrow: Vec<u32> = wide.iter().map(|&x| x as u32).collect();
            unpack_add(&packed, bits, &mut wide);
            unpack_add(&packed, bits, &mut narrow);
            let widened: Vec<u64> = narrow.iter().map(|&x| u64::from(x)).collect();
            prop_assert_eq!(widened, wide);
        }
    }
}
