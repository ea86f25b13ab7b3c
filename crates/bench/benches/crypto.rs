//! Microbenchmarks for the cryptographic substrate.
//!
//! The paper argues that forgoing explicit certification saves the CPU cost
//! of certificate verification; these benches quantify the primitive costs
//! the simulator's CPU model is calibrated against.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mahimahi_crypto::blake2b::blake2b_256;
use mahimahi_crypto::coin::CoinDealer;
use mahimahi_crypto::schnorr::{Keypair, PublicKey, Signature};

fn bench_blake2b(c: &mut Criterion) {
    let mut group = c.benchmark_group("blake2b_256");
    for size in [64usize, 512, 4096, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| blake2b_256(data));
        });
    }
    group.finish();
}

fn bench_schnorr(c: &mut Criterion) {
    let keypair = Keypair::from_seed(1);
    let message = vec![7u8; 64];
    let signature = keypair.sign(&message);

    c.bench_function("schnorr_sign", |b| b.iter(|| keypair.sign(&message)));
    c.bench_function("schnorr_verify", |b| {
        b.iter(|| keypair.public().verify(&message, &signature).unwrap())
    });

    // Serial verification at the admission pipeline's working-set sizes.
    // A combined batch equation lost to this loop at every size, so the
    // verify stage checks each block's signature on its own.
    let mut group = c.benchmark_group("schnorr_batch_verify");
    for count in [8usize, 32, 128] {
        let keypairs: Vec<Keypair> = (0..count as u64).map(Keypair::from_seed).collect();
        let items: Vec<(&[u8], PublicKey, Signature)> = keypairs
            .iter()
            .map(|kp| (message.as_slice(), *kp.public(), kp.sign(&message)))
            .collect();
        group.throughput(Throughput::Elements(count as u64));
        group.bench_with_input(BenchmarkId::new("serial", count), &items, |b, items| {
            b.iter(|| {
                for (message, public, signature) in items {
                    public.verify(message, signature).unwrap();
                }
            });
        });
    }
    group.finish();
}

fn bench_coin(c: &mut Criterion) {
    // The paper's committee sizes: 10 (f = 3, threshold 7) and
    // 50 (f = 16, threshold 33).
    let mut group = c.benchmark_group("coin");
    for (n, threshold) in [(10usize, 7usize), (50, 33)] {
        let (secrets, public) = CoinDealer::deal_seeded(n, threshold, 3);
        group.bench_function(BenchmarkId::new("share", n), |b| {
            b.iter(|| secrets[0].share_for_round(9))
        });
        let shares: Vec<_> = secrets.iter().map(|s| s.share_for_round(9)).collect();
        group.bench_function(BenchmarkId::new("verify_share", n), |b| {
            b.iter(|| public.verify_share(9, &shares[0]).unwrap())
        });
        group.bench_function(BenchmarkId::new("combine", n), |b| {
            b.iter(|| public.combine(9, &shares).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_blake2b, bench_schnorr, bench_coin);
criterion_main!(benches);
