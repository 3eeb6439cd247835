//! Property tests: the vectorized host NTT is **bit-identical** to the
//! legacy radix-2 reference on both lane backends — the one the CPU
//! reports at runtime and the portable lanes — on both fields and in both
//! directions.
//!
//! The legacy reference is composed here from the public raw kernels
//! (`bit_reverse_permute` + `dit_in_place`, plus the `1/n` scale for the
//! inverse), and each backend is picked by an explicit argument to
//! `Ntt::forward_with_backend` / `Ntt::inverse_with_backend`. No test
//! touches process-wide state, so concurrently running tests cannot
//! change what another test compares.

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{BabyBear, Field, Goldilocks, TwoAdicField};
use unintt_ntt::{bit_reverse_permute, Ntt, VectorBackend};

const BACKENDS: [VectorBackend; 2] = [VectorBackend::Native, VectorBackend::Portable];

fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
}

/// Forward transform through the legacy radix-2 DIT kernels only.
fn legacy_forward<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
    bit_reverse_permute(values);
    ntt.dit_in_place(values);
}

/// Inverse transform (including the `1/n` scale) through the legacy
/// kernels only.
fn legacy_inverse<F: TwoAdicField>(ntt: &Ntt<F>, values: &mut [F]) {
    bit_reverse_permute(values);
    ntt.inverse_dit_in_place(values);
    ntt.scale_by_n_inv(values);
}

/// One bit-identity check of one backend against the legacy reference
/// at a given size/seed, both directions. Where no native kernel exists
/// (non-x86_64, AVX2 absent, or a size below the native tails) the
/// `Native` request runs the portable lanes, and the check still holds.
fn check_backend<F: TwoAdicField>(
    backend: VectorBackend,
    log_n: u32,
    seed: u64,
) -> Result<(), String> {
    let ntt = Ntt::<F>::new(log_n);
    let input = random_vec::<F>(log_n, seed);

    let mut got = input.clone();
    ntt.forward_with_backend(&mut got, backend);
    let mut legacy = input.clone();
    legacy_forward(&ntt, &mut legacy);
    if got != legacy {
        return Err(format!(
            "forward {backend:?} mismatch at log_n={log_n} seed={seed}"
        ));
    }

    let mut got = input.clone();
    ntt.inverse_with_backend(&mut got, backend);
    let mut legacy = input;
    legacy_inverse(&ntt, &mut legacy);
    if got != legacy {
        return Err(format!(
            "inverse {backend:?} mismatch at log_n={log_n} seed={seed}"
        ));
    }
    Ok(())
}

/// Both backends against the legacy reference (and so against each
/// other), both directions.
fn check_bitwise_match<F: TwoAdicField>(log_n: u32, seed: u64) -> Result<(), String> {
    BACKENDS
        .iter()
        .try_for_each(|&backend| check_backend::<F>(backend, log_n, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn goldilocks_vector_matches_legacy(log_n in 1u32..=16, seed in any::<u64>()) {
        prop_assert_eq!(check_bitwise_match::<Goldilocks>(log_n, seed), Ok(()));
    }

    #[test]
    fn babybear_vector_matches_legacy(log_n in 1u32..=16, seed in any::<u64>()) {
        prop_assert_eq!(check_bitwise_match::<BabyBear>(log_n, seed), Ok(()));
    }

    #[test]
    fn goldilocks_roundtrip_vector_then_legacy_inverse(log_n in 1u32..=12, seed in any::<u64>()) {
        // Mixed-path round-trip: forward on the vector path, inverse on
        // the legacy path. Only works because outputs are bit-identical.
        let ntt = Ntt::<Goldilocks>::new(log_n);
        let input = random_vec::<Goldilocks>(log_n, seed);
        let mut data = input.clone();
        ntt.forward(&mut data);
        legacy_inverse(&ntt, &mut data);
        prop_assert_eq!(data, input);
    }
}

/// Deterministic sweep guaranteeing **every** `log_n` in `1..=16` is
/// exercised for both fields, both backends and both directions (the
/// proptests above sample sizes randomly).
#[test]
fn every_size_1_to_16_matches_bitwise() {
    for log_n in 1..=16u32 {
        for seed in [0u64, 0x5eed + u64::from(log_n)] {
            check_bitwise_match::<Goldilocks>(log_n, seed).unwrap();
            check_bitwise_match::<BabyBear>(log_n, seed).unwrap();
        }
    }
}

/// Tail sizes below and around the lane widths (Goldilocks packs 4
/// lanes, BabyBear 8): every size where a fused pass's column count `q`
/// is not a lane multiple must fall through to the scalar remainder
/// loops and still match the reference bit-for-bit, on both backends.
#[test]
fn non_power_of_lane_tail_sizes_match_bitwise() {
    for log_n in 1..=6u32 {
        for seed in [1u64, 0x7a11 + u64::from(log_n)] {
            check_bitwise_match::<Goldilocks>(log_n, seed).unwrap();
            check_bitwise_match::<BabyBear>(log_n, seed).unwrap();
        }
    }
}
