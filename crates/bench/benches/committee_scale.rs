//! Committee-scale microbenchmarks: the per-block admission and quorum-tally
//! hot paths at n ∈ {4, 10, 50}.
//!
//! These quantify the dense-indexing refactor (`AuthoritySet`,
//! `CommitteeMap`, dense round slots, digest-keyed hashing): the per-block
//! cost of both paths must stay near-flat as the committee grows, because
//! every per-message data structure is either O(1) or a fixed-width bitset.
//! With `MAHIMAHI_SCALE_GATE=1` the bench additionally enforces the CI gate
//! — per-block admission at n = 50 within 3× of n = 4, on the median of
//! repeated runs — and exits non-zero on violation (the `committee_scale`
//! binary always enforces it and writes the `bench-results/` baseline).

use bench::scale::{self, ADMISSION_RATIO_BUDGET, SCALE_COMMITTEES};
use criterion::{black_box, BatchSize, Criterion};
use mahimahi_dag::BlockStore;
use mahimahi_types::{AuthorityIndex, AuthoritySet};
use std::sync::Arc;

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_round");
    for n in SCALE_COMMITTEES {
        let blocks = scale::proposal_round(n);
        group.bench_function(format!("n{n}"), |b| {
            b.iter_batched(
                || BlockStore::new(n, scale::quorum(n)),
                |mut store| {
                    for block in &blocks {
                        black_box(store.insert(Arc::clone(block)).unwrap());
                    }
                    store
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_quorum_tally(c: &mut Criterion) {
    let mut group = c.benchmark_group("quorum_tally");
    for n in SCALE_COMMITTEES {
        let threshold = scale::quorum(n);
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                let mut votes = AuthoritySet::new();
                let mut reached = 0usize;
                for voter in 0..n {
                    votes.insert(AuthorityIndex(voter as u32));
                    if votes.len() >= threshold {
                        reached += 1;
                    }
                }
                (votes, reached)
            })
        });
    }
    group.finish();
}

/// Machine-readable per-block costs plus the (opt-in) ≤ 3× CI gate.
fn scale_gate(_c: &mut Criterion) {
    let gated = std::env::var_os("MAHIMAHI_SCALE_GATE").is_some();
    let points = if gated {
        scale::median_gate()
    } else {
        scale::measure_all()
    };
    for point in &points {
        println!(
            "scale-gate: admission_per_block_ns n={} {:.1}",
            point.committee_size, point.admission_per_block_ns
        );
        println!(
            "scale-gate: tally_per_vote_ns n={} {:.1}",
            point.committee_size, point.tally_per_vote_ns
        );
    }
    let ratio = scale::admission_ratio(&points);
    println!("scale-gate: admission_n50_over_n4 {ratio:.2}");
    if gated {
        assert!(
            ratio <= ADMISSION_RATIO_BUDGET,
            "per-block admission cost grew {ratio:.2}× (median) from n=4 to n=50 \
             (budget: {ADMISSION_RATIO_BUDGET:.1}×)"
        );
        println!("scale-gate: PASS (median admission {ratio:.2}x <= {ADMISSION_RATIO_BUDGET:.1}x)");
    }
}

criterion::criterion_group!(benches, bench_admission, bench_quorum_tally, scale_gate);
criterion::criterion_main!(benches);
