//! Algorithm-variant wall-clock benches: the ablation data behind the
//! design choices DESIGN.md calls out (digit encoding, hash-based
//! commitment cost).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field, Goldilocks};
use unintt_fri::{commit_trace, hash_elements, FriConfig, LdeBackend};
use unintt_msm::{msm_signed_with_window, msm_with_window, G1Affine};

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

fn bench_msm_digits(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants/msm_digits/2^9");
    group.sample_size(10);
    let n = 1usize << 9;
    let mut rng = StdRng::seed_from_u64(2);
    let scalars = random_vec::<Bn254Fr>(n, 3);
    let points: Vec<G1Affine> = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
    let window = 8;
    group.bench_function("unsigned", |b| {
        b.iter(|| msm_with_window(&scalars, &points, window))
    });
    group.bench_function("signed", |b| {
        b.iter(|| msm_signed_with_window(&scalars, &points, window + 1))
    });
    group.finish();
}

fn bench_hash_and_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants/fri");
    group.sample_size(10);
    let input = random_vec::<Goldilocks>(1 << 10, 4);
    group.bench_function("sponge_hash_2^10_elems", |b| {
        b.iter(|| hash_elements(&input))
    });

    let config = FriConfig::standard();
    let trace: Vec<Vec<Goldilocks>> = (0..4).map(|i| random_vec(1 << 10, 10 + i)).collect();
    group.bench_function("trace_commit_2^10x4", |b| {
        b.iter(|| commit_trace(&trace, &config, &mut LdeBackend::cpu()))
    });
    group.finish();
}

criterion_group!(variant_benches, bench_msm_digits, bench_hash_and_commit);
criterion_main!(variant_benches);
