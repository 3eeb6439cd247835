//! E10 — wall-clock CPU NTT benchmarks (serial vs multithreaded, both
//! fields), the real-hardware baseline of the reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{Bn254Fr, Field, Goldilocks};
use unintt_ntt::{Ntt, ParallelNtt};

fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random(&mut rng)).collect()
}

fn bench_serial_goldilocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_ntt/serial/goldilocks");
    group.sample_size(10);
    for log_n in [12u32, 14, 16, 18] {
        let n = 1usize << log_n;
        let ntt = Ntt::<Goldilocks>::new(log_n);
        let input = random_vec::<Goldilocks>(n, log_n as u64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{log_n}")),
            &n,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| ntt.forward(&mut data),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_serial_bn254(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_ntt/serial/bn254_fr");
    group.sample_size(10);
    for log_n in [12u32, 14, 16] {
        let n = 1usize << log_n;
        let ntt = Ntt::<Bn254Fr>::new(log_n);
        let input = random_vec::<Bn254Fr>(n, log_n as u64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{log_n}")),
            &n,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| ntt.forward(&mut data),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_ntt/parallel/goldilocks_2^18");
    group.sample_size(10);
    let log_n = 18u32;
    let input = random_vec::<Goldilocks>(1 << log_n, 1);
    for threads in [1usize, 2, 4, 8] {
        let ntt = ParallelNtt::<Goldilocks>::new(log_n, threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}t")),
            &threads,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| ntt.forward(&mut data),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_bitrev(c: &mut Criterion) {
    // The table-driven bit-reversal permutation on its own: the dominant
    // non-arithmetic cost of the legacy path at large sizes.
    let mut group = c.benchmark_group("cpu_ntt/bitrev/goldilocks");
    group.sample_size(10);
    for log_n in [12u32, 16, 20] {
        let n = 1usize << log_n;
        let input = random_vec::<Goldilocks>(n, 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("2^{log_n}")),
            &n,
            |b, _| {
                b.iter_batched(
                    || input.clone(),
                    |mut data| unintt_ntt::bit_reverse_permute(&mut data),
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn bench_legacy_vs_vector(c: &mut Criterion) {
    // The radix-2 reference vs the host path on the same size — the
    // ratio the `bench-host` harness gate tracks, as a criterion entry.
    let mut group = c.benchmark_group("cpu_ntt/legacy_vs_vector/goldilocks_2^18");
    group.sample_size(10);
    let log_n = 18u32;
    let ntt = Ntt::<Goldilocks>::new(log_n);
    let input = random_vec::<Goldilocks>(1 << log_n, 4);
    group.bench_function("legacy", |b| {
        b.iter_batched(
            || input.clone(),
            |mut data| {
                unintt_ntt::bit_reverse_permute(&mut data);
                ntt.dit_in_place(&mut data);
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.bench_function("vector", |b| {
        b.iter_batched(
            || input.clone(),
            |mut data| ntt.forward(&mut data),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_goldilocks,
    bench_serial_bn254,
    bench_parallel,
    bench_bitrev,
    bench_legacy_vs_vector
);
criterion_main!(benches);
