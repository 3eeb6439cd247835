//! Multi-GPU MSM on the simulator.
//!
//! MSM splits across GPUs with no all-to-all and no permutation — the
//! paper's starting observation: cut the `(scalar, point)` pairs into `G`
//! contiguous chunks, run Pippenger independently on each GPU, and
//! combine the `G` partial sums with one log-depth reduction. That split
//! pays only once the MSM is large. A small one fills a few SMs per GPU
//! and then waits on `ceil(log2 G)` fabric hops, so one GPU running the
//! whole MSM finishes sooner.
//!
//! [`plan_msm`] makes that choice per MSM from the cost model alone: it
//! charges both candidates, [`multi_gpu_msm`]'s split and one device
//! running [`msm_kernel_profile`]`(n)`, and picks the cheaper.
//! [`planned_msm`] and its cost-only twin [`simulate_planned_msm`] both
//! follow it. On `a100_nvlink(8)` one GPU wins from about a thousand
//! pairs to about 43 000, and the split wins on either side.

use std::ops::Range;

use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{CostModel, KernelProfile, Machine};

use crate::{msm_parallel, optimal_window_bits, pippenger_group_ops, G1Affine, G1Projective};

/// Field multiplications per Jacobian group operation (mixed adds and
/// doublings average out around this; the exact mix barely moves it).
const FIELD_MULS_PER_GROUP_OP: u64 = 12;

/// Wire size of an uncompressed G1 point (two 254-bit coordinates).
const G1_BYTES: usize = 64;

/// Where one simulated MSM runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsmPlacement {
    /// Contiguous chunks on every GPU, then a reduction to GPU 0
    /// ([`multi_gpu_msm`]).
    Split,
    /// The whole MSM on GPU 0, starting at the machine's makespan.
    OneDevice,
}

/// Places an `n`-pair MSM on the machine `model` describes: whichever of
/// the split and the one-device run the cost model charges less. Ties go
/// to the split, so on one GPU the plan is the split path exactly. The
/// split needs at least one pair per GPU; below that, one device runs it.
pub fn plan_msm(model: &CostModel, n: u64) -> MsmPlacement {
    let g = model.num_gpus() as u64;
    if n < g {
        return MsmPlacement::OneDevice;
    }
    let kernel_ns = |pairs| model.kernel_cost(&msm_kernel_profile(pairs)).total_ns;
    // The largest shard finishes last; the reduction waits for it.
    let split_ns = kernel_ns(n.div_ceil(g)) + model.barrier_ns() + model.tree_ns(G1_BYTES as u64);
    if split_ns <= kernel_ns(n) {
        MsmPlacement::Split
    } else {
        MsmPlacement::OneDevice
    }
}

/// Runs an MSM on the simulated machine, placed by [`plan_msm`].
///
/// Functionally exact (bit-identical to [`crate::msm`]); charges the
/// planned placement's kernels (and, when split, the reduction) to the
/// simulated clock.
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn planned_msm(
    machine: &mut Machine,
    scalars: &[Bn254Fr],
    points: &[G1Affine],
) -> G1Projective {
    assert_eq!(scalars.len(), points.len(), "scalar/point length mismatch");
    let n = scalars.len();
    match plan_msm(machine.model(), n as u64) {
        MsmPlacement::Split => multi_gpu_msm(machine, scalars, points),
        MsmPlacement::OneDevice => {
            charge_one_device(machine, n as u64);
            msm_parallel(scalars, points)
        }
    }
}

/// Cost-only twin of [`planned_msm`] for large-size sweeps: charges
/// exactly what it would for `n` pairs, clocks and stats alike, without
/// computing.
pub fn simulate_planned_msm(machine: &mut Machine, n: u64) {
    match plan_msm(machine.model(), n) {
        MsmPlacement::Split => charge_split(machine, n),
        MsmPlacement::OneDevice => charge_one_device(machine, n),
    }
}

/// Runs an MSM split over every GPU of the simulated machine: the split
/// candidate of [`plan_msm`].
///
/// Functionally exact (bit-identical to [`crate::msm`]); charges per-GPU
/// Pippenger kernels plus the final reduction to the simulated clock.
///
/// # Panics
///
/// Panics if lengths mismatch or there are fewer pairs than GPUs.
pub fn multi_gpu_msm(
    machine: &mut Machine,
    scalars: &[Bn254Fr],
    points: &[G1Affine],
) -> G1Projective {
    assert_eq!(scalars.len(), points.len(), "scalar/point length mismatch");
    let g = machine.num_devices();
    let n = scalars.len();
    assert!(
        n >= g,
        "need at least one pair per GPU ({n} pairs, {g} GPUs)"
    );

    let mut shards: Vec<(Vec<Bn254Fr>, Vec<G1Affine>, G1Projective)> = (0..g)
        .map(|dev| {
            let r = shard_range(n, g, dev);
            (
                scalars[r.clone()].to_vec(),
                points[r].to_vec(),
                G1Projective::identity(),
            )
        })
        .collect();

    // Window-parallel Pippenger per device: nested scopes on the shared
    // worker pool (device tasks spawn window tasks) are supported and
    // bit-identical to the serial kernel.
    machine.parallel_phase(&mut shards, |ctx, _dev, (ks, ps, out)| {
        *out = msm_parallel(ks, ps);
        if !ks.is_empty() {
            ctx.launch(&msm_kernel_profile(ks.len() as u64));
        }
    });

    let partials: Vec<G1Projective> = shards.iter().map(|(_, _, p)| *p).collect();
    machine
        .reduce_to_root(&partials, G1_BYTES, |a, b| *a + *b)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Device `dev`'s contiguous chunk of `n` pairs split over `g` GPUs: the
/// first chunks take `ceil(n / g)` pairs each, the tail takes what is
/// left (possibly nothing).
fn shard_range(n: usize, g: usize, dev: usize) -> Range<usize> {
    let chunk = n.div_ceil(g);
    (dev * chunk).min(n)..((dev + 1) * chunk).min(n)
}

/// Charges what [`multi_gpu_msm`] would for `n` pairs, without computing.
fn charge_split(machine: &mut Machine, n: u64) {
    let g = machine.num_devices();
    let mut dummy: Vec<()> = vec![(); g];
    machine.parallel_phase(&mut dummy, |ctx, dev, _| {
        let len = shard_range(n as usize, g, dev).len() as u64;
        if len > 0 {
            ctx.launch(&msm_kernel_profile(len));
        }
    });
    let dummies = vec![G1Projective::identity(); g];
    machine
        .reduce_to_root(&dummies, G1_BYTES, |a, _| *a)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Charges GPU 0 one Pippenger kernel over all `n` pairs, starting at
/// the machine's makespan: the one-device candidate of [`plan_msm`].
fn charge_one_device(machine: &mut Machine, n: u64) {
    machine.on_device_at_makespan(0, &mut (), |ctx, _| {
        ctx.launch(&msm_kernel_profile(n));
    });
}

/// Cost profile of one GPU's Pippenger kernel over `n` pairs.
pub fn msm_kernel_profile(n: u64) -> KernelProfile {
    let c = optimal_window_bits(n as usize);
    let group_ops = pippenger_group_ops(n, c);
    let mut p = KernelProfile::named("pippenger-msm");
    p.blocks = n.div_ceil(256).max(1);
    p.field_muls = group_ops * FIELD_MULS_PER_GROUP_OP;
    p.field_adds = group_ops * FIELD_MULS_PER_GROUP_OP / 2;
    // Each pair is read once (scalar + point); buckets live in
    // global memory and are touched once per pair per window.
    let windows = 254u64.div_ceil(c as u64);
    p.global_bytes_read = n * (32 + G1_BYTES as u64);
    p.global_bytes_written = windows * ((1u64 << c) - 1) * G1_BYTES as u64;
    p.coalescing_efficiency = 0.6; // bucket scatter is irregular by nature
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{msm, msm_naive};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use unintt_ff::{Field, PrimeField};
    use unintt_gpu_sim::{presets, FieldSpec, Stats};

    fn random_pairs(n: usize, seed: u64) -> (Vec<Bn254Fr>, Vec<G1Affine>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars = (0..n).map(|_| Bn254Fr::random(&mut rng)).collect();
        let points = (0..n).map(|_| G1Affine::random(&mut rng)).collect();
        (scalars, points)
    }

    /// Pairs cheap enough to build and sum at 2^20: 32-bit scalars on the
    /// multiples `G, 2G, …, 4096·G` of the generator, repeated.
    fn cheap_pairs(n: usize, seed: u64) -> (Vec<Bn254Fr>, Vec<G1Affine>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars = (0..n)
            .map(|_| Bn254Fr::from_u64(rng.gen::<u32>().into()))
            .collect();
        let g = G1Affine::generator();
        let mut acc = G1Projective::identity();
        let distinct: Vec<G1Affine> = (0..n.min(4096))
            .map(|_| {
                acc = acc.add_affine(&g);
                acc.to_affine()
            })
            .collect();
        let points = distinct.iter().copied().cycle().take(n).collect();
        (scalars, points)
    }

    fn machine(gpus: usize) -> Machine {
        Machine::new(presets::a100_nvlink(gpus), FieldSpec::bn254_fr())
    }

    /// Makespan and merged stats after charging `charge` on a fresh machine.
    fn charged(gpus: usize, charge: impl FnOnce(&mut Machine)) -> (f64, Stats) {
        let mut m = machine(gpus);
        charge(&mut m);
        (m.max_clock_ns(), m.stats())
    }

    #[test]
    fn plan_charges_the_cheaper_candidate_and_stays_exact() {
        let sizes = [
            1usize,
            7,
            64,
            511,
            4095,
            4096,
            12285,
            1 << 16,
            1 << 18,
            1 << 20,
        ];
        for n in sizes {
            let (scalars, points) = cheap_pairs(n, n as u64);
            let expected = if n <= 64 {
                msm_naive(&scalars, &points)
            } else {
                msm(&scalars, &points)
            };
            for gpus in [1usize, 2, 4, 8] {
                let (planned_ns, _) = charged(gpus, |m| simulate_planned_msm(m, n as u64));
                let (one_ns, _) = charged(gpus, |m| charge_one_device(m, n as u64));
                let cheaper = if n >= gpus {
                    let (split_ns, _) = charged(gpus, |m| charge_split(m, n as u64));
                    split_ns.min(one_ns)
                } else {
                    one_ns
                };
                assert_eq!(planned_ns, cheaper, "n={n} gpus={gpus}");

                let mut m = machine(gpus);
                let result = planned_msm(&mut m, &scalars, &points);
                assert_eq!(result, expected, "n={n} gpus={gpus}");
                // The functional entry and its cost-only twin charge the
                // same clocks and stats, bit for bit.
                let (twin_ns, twin_stats) = charged(gpus, |m| simulate_planned_msm(m, n as u64));
                assert_eq!(m.max_clock_ns(), twin_ns, "n={n} gpus={gpus}");
                assert_eq!(m.stats(), twin_stats, "n={n} gpus={gpus}");
            }
        }
    }

    #[test]
    fn one_gpu_plan_is_the_split_path() {
        for n in [1usize, 64, 4095, 4096] {
            let (scalars, points) = random_pairs(n, 3);
            let mut planned = machine(1);
            let mut split = machine(1);
            let a = planned_msm(&mut planned, &scalars, &points);
            let b = multi_gpu_msm(&mut split, &scalars, &points);
            assert_eq!(a, b);
            assert_eq!(
                planned.max_clock_ns().to_bits(),
                split.max_clock_ns().to_bits()
            );
            assert_eq!(planned.stats(), split.stats());
            assert_eq!(planned.timeline(0).events(), split.timeline(0).events());
        }
    }

    #[test]
    fn small_msms_run_on_one_device_and_large_ones_split() {
        let m = machine(8);
        // Every MSM of a 2^12-gate PLONK proof fits one device.
        for n in [4095u64, 4096, 12284, 12285] {
            assert_eq!(plan_msm(m.model(), n), MsmPlacement::OneDevice, "n={n}");
        }
        for log_n in 18..=24 {
            assert_eq!(
                plan_msm(m.model(), 1 << log_n),
                MsmPlacement::Split,
                "2^{log_n}"
            );
        }
    }

    #[test]
    fn one_device_msm_starts_at_the_makespan() {
        let n = 4096u64;
        let (alone_ns, _) = charged(8, |m| simulate_planned_msm(m, n));
        let (split_ns, _) = charged(8, |m| simulate_planned_msm(m, 1 << 20));
        let mut m = machine(8);
        simulate_planned_msm(&mut m, 1 << 20);
        simulate_planned_msm(&mut m, n);
        simulate_planned_msm(&mut m, n);
        // Back to back, with no fabric latency between the calls.
        assert_eq!(m.max_clock_ns(), split_ns + alone_ns + alone_ns);
        assert_eq!(
            m.stats().collectives,
            8,
            "one reduction, counted on each GPU"
        );
    }

    #[test]
    fn multi_gpu_matches_naive() {
        for gpus in [1usize, 2, 4] {
            let (scalars, points) = random_pairs(50, gpus as u64);
            let mut machine = machine(gpus);
            let result = multi_gpu_msm(&mut machine, &scalars, &points);
            assert_eq!(result, msm_naive(&scalars, &points), "gpus={gpus}");
            assert!(machine.max_clock_ns() > 0.0);
        }
    }

    #[test]
    fn uneven_split_still_exact() {
        // 50 pairs over 8 GPUs: chunks of 7 with a short tail; 9 pairs
        // leave the last three GPUs without any.
        for n in [50, 9] {
            let (scalars, points) = random_pairs(n, 7);
            let mut machine = machine(8);
            let result = multi_gpu_msm(&mut machine, &scalars, &points);
            assert_eq!(result, msm_naive(&scalars, &points));
        }
    }

    #[test]
    fn msm_scales_with_gpus_in_simulated_time() {
        let n = 1u64 << 20;
        let (t1, _) = charged(1, |m| simulate_planned_msm(m, n));
        let (t8, _) = charged(8, |m| simulate_planned_msm(m, n));
        let speedup = t1 / t8;
        assert!(
            speedup > 4.0,
            "MSM should scale nearly linearly: got {speedup:.2}x"
        );
    }

    #[test]
    fn grid_covers_every_pair() {
        assert_eq!(msm_kernel_profile(511).blocks, 2);
        assert_eq!(msm_kernel_profile(512).blocks, 2);
        assert_eq!(msm_kernel_profile(513).blocks, 3);
        assert_eq!(msm_kernel_profile(1).blocks, 1);
    }

    #[test]
    #[should_panic(expected = "at least one pair per GPU")]
    fn too_few_pairs_panics() {
        let (scalars, points) = random_pairs(3, 1);
        let mut machine = machine(8);
        let _ = multi_gpu_msm(&mut machine, &scalars, &points);
    }
}
