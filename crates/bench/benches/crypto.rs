//! Microbenchmarks of the cryptographic substrate: PRG (mask) expansion
//! throughput, key agreement, signatures and the VRF, Shamir, AEAD, and
//! the hash plane under key derivation and AEAD tags.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dordis_crypto::ed25519::{Point, Scalar, SigningKey};
use dordis_crypto::field::Fe;
use dordis_crypto::hmac::hkdf;
use dordis_crypto::ka::KeyPair;
use dordis_crypto::prg::Prg;
use dordis_crypto::sha256::{compress, sha256};
use dordis_crypto::vrf::VrfSecretKey;
use dordis_crypto::{aead, shamir};
use rand::SeedableRng;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256(d));
        });
    }
    // One compression function call, the unit every hash-plane row below
    // is made of: the SHA-NI kernel where the CPU has it, the portable
    // rounds elsewhere.
    let (mut state, block) = ([0x6a09_e667u32; 8], [[0xabu8; 64]]);
    g.throughput(Throughput::Bytes(64)).sample_size(1_000_000);
    g.bench_function("compress", |b| {
        b.iter(|| {
            compress(black_box(&mut state), black_box(&block));
            state[0]
        });
    });
    g.finish();
}

fn bench_hash_plane(c: &mut Criterion) {
    // At the sizes the reference workloads run: the hash half of
    // `KA.agree` (32-byte DH output, both public keys as info, one
    // 32-byte key), a mask PRG's key derivation, and the share bundles
    // sealed and opened in ShareKeys / Unmasking — 110 bytes under
    // `tcp_cohort256`, ≈ 600 under `fl_xnoise32` — with the 16-byte
    // `round || from || to` associated data.
    const ITERS: usize = 100_000;
    let mut g = c.benchmark_group("hkdf");
    g.sample_size(ITERS);
    let (raw, info) = ([0x5au8; 32], [0x33u8; 64]);
    g.bench_function("ka_agree", |b| {
        b.iter(|| hkdf::<32>(b"dordis.ka.agree", black_box(&raw), black_box(&info)));
    });
    g.finish();

    let mut g = c.benchmark_group("prg");
    g.sample_size(ITERS);
    g.bench_function("new", |b| {
        b.iter(|| Prg::new(black_box(&raw), b"secagg.pairwise"));
    });
    g.finish();

    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let (key, aad) = ([5u8; 32], [7u8; 16]);
    let mut g = c.benchmark_group("aead");
    g.sample_size(ITERS);
    let (cohort, xnoise) = (vec![0u8; 110], vec![0u8; 600]);
    let ct = aead::seal(&key, &aad, &cohort, &mut rng);
    g.bench_function("seal_110B", |b| {
        b.iter(|| aead::seal(&key, &aad, black_box(&cohort), &mut rng));
    });
    g.bench_function("open_110B", |b| {
        b.iter(|| aead::open(&key, &aad, black_box(&ct)).expect("authentic"));
    });
    g.bench_function("seal_600B", |b| {
        b.iter(|| aead::seal(&key, &aad, black_box(&xnoise), &mut rng));
    });
    g.finish();
}

fn bench_mask_expansion(c: &mut Criterion) {
    // The dominant SecAgg cost: expanding masks in Z_2^b. One `u32`
    // keystream word per element up to 32 bits, one `u64` above, so 32
    // and 33 sit on the two sides of the lane boundary; 64 is the
    // widest ring.
    const ELEMS: usize = 100_000;
    let mut out = vec![0u64; ELEMS];
    let mut g = c.benchmark_group("prg/fill_mod2b");
    g.throughput(Throughput::Elements(ELEMS as u64));
    for bits in [16u32, 20, 32, 33, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            b.iter(|| {
                Prg::new(&[7u8; 32], b"bench").fill_mod2b(bits, &mut out);
                out[0]
            });
        });
    }
    g.finish();
}

fn bench_field(c: &mut Criterion) {
    // The layer under `x25519_agree`: one ladder is 255 steps of
    // 5 mul + 4 square + 1 mul_small, then one inversion. A single mul
    // is below the timer's resolution, so the mul and square rows time
    // a dependent chain of 1 000 and report elements per second.
    const CHAIN: u64 = 1_000;
    let x = Fe::from_bytes(&[0x5au8; 32]);
    let y = Fe::from_bytes(&[0x33u8; 32]);
    let mut g = c.benchmark_group("field");
    g.throughput(Throughput::Elements(CHAIN));
    g.bench_function("fe_mul", |b| {
        b.iter(|| (0..CHAIN).fold(black_box(x), |acc, _| acc.mul(black_box(y))));
    });
    g.bench_function("fe_square", |b| {
        b.iter(|| (0..CHAIN).fold(black_box(x), |acc, _| acc.square()));
    });
    g.finish();
    c.bench_function("fe_invert", |b| b.iter(|| black_box(x).invert()));

    // The same two rows for the radix-2^51 IFMA arithmetic of the 8-lane
    // ladder, per lane: a chain of 1 000 advances eight elements. Absent
    // on a host without AVX-512IFMA.
    #[cfg(target_arch = "x86_64")]
    {
        use dordis_crypto::x25519_avx512::field_chain8;
        let (f, y) = ([[0x5au8; 32]; 8], [[0x33u8; 32]; 8]);
        if field_chain8(&f, &y, 0, 0).is_some() {
            let mut g = c.benchmark_group("field51x8");
            g.throughput(Throughput::Elements(8 * CHAIN));
            g.bench_function("mul", |b| {
                b.iter(|| field_chain8(black_box(&f), black_box(&y), CHAIN as u32, 0));
            });
            g.bench_function("square", |b| {
                b.iter(|| field_chain8(black_box(&f), &y, 0, CHAIN as u32));
            });
            g.finish();
        }
    }
}

fn bench_x25519(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let a = KeyPair::generate(&mut rng);
    let b_kp = KeyPair::generate(&mut rng);
    c.bench_function("x25519_agree", |b| {
        b.iter(|| a.agree(&b_kp.public));
    });
    c.bench_function("x25519_keygen", |b| {
        b.iter(|| KeyPair::generate(&mut rng).public);
    });
    // One secret against a neighbourhood, per peer: 2 is the smallest
    // wide batch, 3 and 4 mostly padding, 8 a full batch, 16 / 20 / 31
    // the degrees of the reference workloads (2, 3 and 4 batches). On a
    // host without AVX-512IFMA every row reads `x25519_agree`.
    let mut g = c.benchmark_group("x25519_agree_many");
    for peers in [2usize, 3, 4, 8, 16, 20, 31] {
        let pks: Vec<[u8; 32]> = (0..peers)
            .map(|_| KeyPair::generate(&mut rng).public)
            .collect();
        g.throughput(Throughput::Elements(peers as u64));
        g.bench_with_input(BenchmarkId::from_parameter(peers), &pks, |b, pks| {
            b.iter(|| a.agree_many(pks));
        });
    }
    g.finish();
}

fn bench_signatures(c: &mut Criterion) {
    // The three multiplications under everything below: the fixed-base
    // comb (key derivation, nonces), the constant-time windowed one (Γ =
    // x·H) and the variable-time interleaved pair (verification only).
    let s = Scalar::from_bytes_mod_l(&[0x5au8; 32]);
    let t = Scalar::from_bytes_mod_l(&[0x33u8; 32]);
    let p = Point::mul_base(&t);
    c.bench_function("ed25519_mul_base", |b| {
        b.iter(|| Point::mul_base(black_box(&s)));
    });
    c.bench_function("ed25519_mul_scalar", |b| {
        b.iter(|| black_box(&p).mul_scalar(black_box(&s)));
    });
    c.bench_function("ed25519_vartime_double_mul", |b| {
        b.iter(|| Point::vartime_double_mul_base(black_box(&s), black_box(&t), black_box(&p)));
    });

    let sk = SigningKey::from_seed(&[3u8; 32]);
    let vk = sk.verifying_key();
    let msg = b"round 12 consistency check over U3";
    let sig = sk.sign(msg);
    c.bench_function("ed25519_sign", |b| b.iter(|| sk.sign(msg)));
    c.bench_function("ed25519_verify", |b| b.iter(|| vk.verify(msg, &sig)));

    // One client's self-selection and the server's check of its claim.
    let vrf = VrfSecretKey::from_seed(&[4u8; 32]);
    let input = b"dordis.sampling.round\x07\0\0\0\0\0\0\0";
    let (_, proof) = vrf.evaluate(input);
    c.bench_function("vrf_evaluate", |b| b.iter(|| vrf.evaluate(input)));
    c.bench_function("vrf_verify", |b| {
        b.iter(|| vrf.public_key().verify(input, &proof));
    });
}

fn bench_shamir(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let secret = [9u8; 32];
    c.bench_function("shamir_share_32B_t50_n100", |b| {
        b.iter(|| shamir::share(&secret, 50, 100, &mut rng).unwrap());
    });
    // Neighborhood-sized sharing: with neighborhood-scoped x-coordinates
    // a client only evaluates `deg + 1` points — 25 at n = 1024 under
    // the recommended Harary graph — regardless of roster size.
    c.bench_function("shamir_share_32B_t24_n25", |b| {
        b.iter(|| shamir::share(&secret, 24, 25, &mut rng).unwrap());
    });
    let shares = shamir::share(&secret, 50, 100, &mut rng).unwrap();
    c.bench_function("shamir_reconstruct_32B_t50", |b| {
        b.iter(|| shamir::reconstruct(&shares[..50], 50).unwrap());
    });
}

fn bench_aead(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let key = [5u8; 32];
    let bundle = vec![0u8; 2048]; // A realistic share bundle.
    let ct = aead::seal(&key, b"aad", &bundle, &mut rng);
    c.bench_function("aead_seal_2KiB", |b| {
        b.iter(|| aead::seal(&key, b"aad", &bundle, &mut rng));
    });
    c.bench_function("aead_open_2KiB", |b| {
        b.iter(|| aead::open(&key, b"aad", &ct).unwrap());
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hash_plane,
    bench_mask_expansion,
    bench_field,
    bench_x25519,
    bench_signatures,
    bench_shamir,
    bench_aead
);
criterion_main!(benches);
