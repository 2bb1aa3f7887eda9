//! Unit costs: the primitives every layer is built from, timed on
//! direct calls at the workload's sizes. Each value is the median of
//! [`CALLS`] calls.

use std::hint::black_box;
use std::time::Instant;

use dordis_crypto::prg::Prg;
use dordis_crypto::shamir::{self, Share};
use dordis_crypto::vrf::VrfSecretKey;
use dordis_crypto::{aead, x25519};
use dordis_dp::mechanism::skellam_vector;
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::{deadline_in, Acceptor as _, Channel as _};
use dordis_secagg::mask::add_pairwise_mask_assign;
use dordis_secagg::messages::ShareBundle;
use rand::{Rng, SeedableRng};

use crate::stats::median;
use crate::Res;

/// Calls per unit cost.
pub const CALLS: usize = 200;

/// The sizes a workload exercises the primitives at.
#[derive(Clone, Copy, Debug)]
pub struct UnitSizes {
    /// Shamir holders per secret: masking-graph degree + 1.
    pub holders: usize,
    /// Effective Shamir threshold.
    pub threshold: usize,
    /// XNoise seed shares per share bundle.
    pub noise_components: usize,
    /// Ring bit width.
    pub bits: u32,
    /// Elements per PRG / mask / Skellam call.
    pub elems: usize,
    /// Bytes of one masked-chunk frame.
    pub chunk_frame_bytes: usize,
    /// Per-coordinate variance of one Skellam draw.
    pub skellam_variance: f64,
}

fn median_seconds(mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Times every unit cost; `(metric, value)` in [`crate::workloads::UNIT_METRICS`]
/// order.
///
/// # Errors
///
/// A primitive rejected its input, or the loopback socket pair failed.
pub fn measure(sizes: &UnitSizes, seed: u64) -> Res<Vec<(&'static str, f64)>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut secret = [0u8; 32];
    rng.fill(&mut secret[..]);
    let mut other = [0u8; 32];
    rng.fill(&mut other[..]);
    let other_public = x25519::public_key(&other);

    let keygen = median_seconds(|| {
        black_box(x25519::public_key(black_box(&secret)));
    });
    let agree = median_seconds(|| {
        black_box(x25519::shared_secret(
            black_box(&secret),
            black_box(&other_public),
        ));
    });

    let share = median_seconds(|| {
        black_box(shamir::share(
            &secret,
            sizes.threshold,
            sizes.holders,
            &mut rng,
        ))
        .ok();
    });
    let shares = shamir::share(&secret, sizes.threshold, sizes.holders, &mut rng)
        .map_err(|e| e.to_string())?;
    let reconstruct = median_seconds(|| {
        black_box(shamir::reconstruct(
            black_box(&shares[..sizes.threshold]),
            sizes.threshold,
        ))
        .ok();
    });
    if shamir::reconstruct(&shares[..sizes.threshold], sizes.threshold)
        .ok()
        .as_deref()
        != Some(&secret[..])
    {
        return Err("shamir reconstruct did not return the secret".into());
    }

    // One share bundle as ShareKeys seals it for a neighbour.
    let piece = |x: u8| Share {
        x,
        y: secret.to_vec(),
    };
    let bundle = ShareBundle {
        from: 1,
        to: 2,
        sk_share: piece(1),
        b_share: piece(1),
        seed_shares: (0..sizes.noise_components).map(|_| piece(1)).collect(),
    }
    .encode();
    let key = x25519::shared_secret(&secret, &other_public);
    let seal = median_seconds(|| {
        black_box(aead::seal(&key, b"aad", black_box(&bundle), &mut rng));
    });
    let sealed = aead::seal(&key, b"aad", &bundle, &mut rng);
    let open = median_seconds(|| {
        black_box(aead::open(&key, b"aad", black_box(&sealed))).ok();
    });
    if aead::open(&key, b"aad", &sealed).ok().as_ref() != Some(&bundle) {
        return Err("aead open did not return the plaintext".into());
    }

    let mut buf = vec![0u64; sizes.elems];
    let fill = median_seconds(|| {
        Prg::new(&secret, b"benchmark.fill").fill_mod2b(sizes.bits, black_box(&mut buf));
    });
    let expand = median_seconds(|| {
        add_pairwise_mask_assign(black_box(&mut buf), &key, 0, true, sizes.bits);
    });
    let skellam = median_seconds(|| {
        black_box(skellam_vector(
            &secret,
            b"benchmark.skellam",
            sizes.elems,
            sizes.skellam_variance,
        ));
    });

    let vrf = VrfSecretKey::from_seed(&secret);
    let vrf_public = vrf.public_key();
    let evaluate = median_seconds(|| {
        black_box(vrf.evaluate(black_box(b"benchmark.round")));
    });
    let (output, proof) = vrf.evaluate(b"benchmark.round");
    let verify = median_seconds(|| {
        black_box(vrf_public.verify(b"benchmark.round", black_box(&proof))).ok();
    });
    if vrf_public.verify(b"benchmark.round", &proof).ok() != Some(output) {
        return Err("vrf verify did not return the evaluated output".into());
    }

    let (roundtrip, bulk_mib_per_s) = tcp_costs(sizes.chunk_frame_bytes)?;
    let per_elem = 1e9 / sizes.elems as f64;
    Ok(vec![
        ("crypto.x25519.keygen_us", keygen * 1e6),
        ("crypto.x25519.agree_us", agree * 1e6),
        ("crypto.shamir.share_us", share * 1e6),
        ("crypto.shamir.reconstruct_us", reconstruct * 1e6),
        ("crypto.aead.seal_us", seal * 1e6),
        ("crypto.aead.open_us", open * 1e6),
        ("crypto.prg.fill_ns_per_elem", fill * per_elem),
        ("secagg.mask.expand_and_add_ns_per_elem", expand * per_elem),
        ("crypto.vrf.evaluate_us", evaluate * 1e6),
        ("crypto.vrf.verify_us", verify * 1e6),
        ("dp.mechanism.skellam_ns_per_sample", skellam * per_elem),
        ("net.tcp.frame_roundtrip_us", roundtrip * 1e6),
        ("net.tcp.bulk_mib_per_s", bulk_mib_per_s),
    ])
}

/// Over one 127.0.0.1 connection: the median round trip of a 64-byte
/// frame, and the one-way throughput of [`CALLS`] chunk-sized frames.
/// The far end is an echo thread, joined before this returns.
fn tcp_costs(chunk_frame_bytes: usize) -> Res<(f64, f64)> {
    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut near =
        TcpChannel::connect(acceptor.local_addr().as_str()).map_err(|e| e.to_string())?;
    let mut far = acceptor
        .accept(deadline_in(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let wait = || deadline_in(std::time::Duration::from_secs(30));
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Res<()> {
            for _ in 0..CALLS {
                let frame = far.recv_deadline(wait()).map_err(|e| e.to_string())?;
                far.send(&frame).map_err(|e| e.to_string())?;
            }
            for _ in 0..CALLS {
                far.recv_deadline(wait()).map_err(|e| e.to_string())?;
            }
            // One short frame back marks the end of the bulk transfer.
            far.send(&[0u8; 1]).map_err(|e| e.to_string())
        });
        let measured = (|| -> Res<(f64, f64)> {
            let ping = [0x5au8; 64];
            let mut failure = None;
            let roundtrip = median_seconds(|| {
                let result = near
                    .send(&ping)
                    .and_then(|()| near.recv_deadline(wait()).map(drop));
                if let Err(e) = result {
                    failure = Some(e.to_string());
                }
            });
            if let Some(e) = failure {
                return Err(format!("ping-pong: {e}"));
            }
            let frame = vec![0xa5u8; chunk_frame_bytes];
            let t = Instant::now();
            for _ in 0..CALLS {
                near.send(&frame).map_err(|e| e.to_string())?;
            }
            near.recv_deadline(wait()).map_err(|e| e.to_string())?;
            let mib = (CALLS * chunk_frame_bytes) as f64 / (1024.0 * 1024.0);
            Ok((roundtrip, mib / t.elapsed().as_secs_f64()))
        })();
        // A failed near end drops its socket, which ends the echo loop.
        let echoed = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        let measured = measured?;
        echoed.map(|()| measured)
    })
}
