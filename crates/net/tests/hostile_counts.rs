//! Wire-controlled counts are bounded by the bytes that follow them: a
//! `u16`/`u32` item count in a hostile body must not reserve memory for
//! items that cannot be there. A counting allocator measures the peak
//! bytes each decode reserves on the calling thread; every body here is
//! rejected, and none may reserve more than 4 KiB on the way.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dordis_net::codec::{
    decode_advertised_keys, decode_encrypted_shares, decode_id_list, decode_list,
    decode_noise_share_response, decode_params, decode_setup, decode_signature_list,
    decode_unmasking_response,
};
use dordis_net::replication::SessionCheckpoint;

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(n: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + n);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrink(n: usize) {
    LIVE.with(|l| l.set(l.get().saturating_sub(n)));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const LIMIT: usize = 4096;

/// Peak bytes `decode` held above what was live when it started.
fn peak_reserved<T, E>(decode: impl FnOnce() -> Result<T, E>) -> (usize, bool) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    let rejected = decode().is_err();
    (PEAK.with(Cell::get), rejected)
}

fn check<T, E>(name: &str, decode: impl FnOnce() -> Result<T, E>) {
    let (peak, rejected) = peak_reserved(decode);
    assert!(rejected, "{name}: hostile body accepted");
    assert!(
        peak <= LIMIT,
        "{name}: reserved {peak} bytes for a hostile count"
    );
}

#[test]
fn client_side_decoders_bound_their_counts() {
    check("decode_list(advertised_keys)", || {
        decode_list(&[0xff, 0xff], decode_advertised_keys)
    });
    check("decode_signature_list", || {
        decode_signature_list(&[0xff, 0xff])
    });
    // Round id, then a 65 535-client roster and nothing else.
    let mut params = vec![0; 8];
    params.extend_from_slice(&[0xff, 0xff]);
    check("decode_params", || decode_params(&params));
    check("decode_setup", || decode_setup(&params));
}

#[test]
fn coordinator_side_decoders_bound_their_counts() {
    // Client id, then the counts with no items behind them.
    check("decode_noise_share_response", || {
        decode_noise_share_response(&[1, 0, 0, 0, 0xff, 0xff])
    });
    check("decode_unmasking_response", || {
        decode_unmasking_response(&[1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff])
    });
    check("decode_list(encrypted_shares)", || {
        decode_list(&[0xff, 0xff], decode_encrypted_shares)
    });
    check("decode_id_list", || {
        decode_id_list(&[0xff, 0xff, 0xff, 0xff])
    });
    // A standby's checkpoint: round, rounds done, view, then one parked
    // id more than the 40 000 bytes behind the count can hold.
    let mut ckpt = vec![0; 24];
    ckpt.extend_from_slice(&10_001u32.to_le_bytes());
    ckpt.resize(ckpt.len() + 40_000, 0);
    check("SessionCheckpoint::decode", || {
        SessionCheckpoint::decode(&ckpt)
    });
}

#[test]
fn counts_that_fit_still_decode() {
    // The bound rejects only counts the body cannot hold: an empty list
    // and an exact one-id list still decode.
    assert!(decode_list(&[0, 0], decode_encrypted_shares).is_ok_and(|v| v.is_empty()));
    assert!(decode_id_list(&[1, 0, 0, 0, 7, 0, 0, 0]).is_ok_and(|l| l.0 == vec![7]));
    assert!(decode_signature_list(&[0, 0]).is_ok_and(|v| v.is_empty()));
}
