//! **E8 — end-to-end proof generation**: the PLONK-style prover with
//! (a) the status quo — multi-GPU MSM but single-GPU NTT — versus
//! (b) the UniNTT system — both multi-GPU. This is the paper's motivating
//! scenario: without multi-GPU NTT, Amdahl's law caps the end-to-end win.
//!
//! Two sections:
//! * **functional** rows (small circuits): real proofs are generated on
//!   both configurations, checked bit-identical, and verified;
//! * **projected** rows (production-scale circuits): the same prover
//!   operation mix — 4 iNTT(n), 13 coset NTT(4n), 1 iNTT(4n), 7 MSMs —
//!   charged through the cost-only simulation paths (which tests keep in
//!   lock-step with the functional paths). Both sections place each MSM
//!   by the same plan ([`unintt_msm::plan_msm`]): split over the GPUs or
//!   run on one, whichever the cost model charges less.

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{single_gpu, UniNttEngine, UniNttOptions};
use unintt_ff::Bn254Fr;
use unintt_gpu_sim::{presets, FieldSpec, Machine, MachineConfig};
use unintt_msm::simulate_planned_msm;
use unintt_zkp::{prove, random_circuit, setup, verify, Backend};

use crate::report::{fmt_ns, Table};

/// Projected prover time: `(ntt_ns, msm_ns)` for a circuit of `2^log_rows`
/// gates with NTT on `ntt_cfg` and MSM on `msm_cfg`.
fn projected(log_rows: u32, ntt_cfg: &MachineConfig, msm_cfg: &MachineConfig) -> (f64, f64) {
    let fs = FieldSpec::bn254_fr();
    let opts = {
        let mut o = UniNttOptions::tuned_for(&fs);
        o.natural_output = true; // the prover chains mixed-size domains
        o
    };
    // The PLONK prover's operation mix (see `unintt_zkp::prover` docs):
    // 4 iNTT(n) for wires + grand product, 13 coset NTT(4n), 1 iNTT(4n).
    let mut ntt_machine = Machine::new(ntt_cfg.clone(), fs);
    let small = UniNttEngine::<Bn254Fr>::new(log_rows, ntt_cfg, opts, fs);
    let big = UniNttEngine::<Bn254Fr>::new(log_rows + 2, ntt_cfg, opts, fs);
    small.simulate_inverse(&mut ntt_machine, 4); // wires + z interpolation
    big.simulate_coset_forward(&mut ntt_machine, 13); // coset LDEs
    big.simulate_inverse(&mut ntt_machine, 1); // quotient interpolation

    // MSMs: 3 wires + z (size n), quotient (3n), batched opening (3n),
    // shifted opening (n).
    let mut msm_machine = Machine::new(msm_cfg.clone(), fs);
    let n = 1u64 << log_rows;
    for size in [n, n, n, n, 3 * n, 3 * n, n] {
        simulate_planned_msm(&mut msm_machine, size);
    }
    (ntt_machine.max_clock_ns(), msm_machine.max_clock_ns())
}

/// Runs E8 and renders the table.
pub fn run(quick: bool) -> Table {
    let gpus = 8;
    let functional_sizes: &[usize] = if quick {
        &[1 << 8]
    } else {
        &[1 << 8, 1 << 10, 1 << 12]
    };
    let projected_sizes: &[u32] = if quick { &[20] } else { &[16, 18, 20, 22, 24] };

    let mut table = Table::new(
        format!("E8: end-to-end proof generation ({gpus}×A100, BN254)"),
        &[
            "gates",
            "mode",
            "status-quo (1-GPU NTT)",
            "NTT share",
            "UniNTT (8-GPU NTT)",
            "NTT share",
            "gain",
        ],
    );

    // Functional section: real proofs, bit-identical across backends.
    let mut rng = StdRng::seed_from_u64(2025);
    for &rows in functional_sizes {
        let (circuit, witness) = random_circuit(rows, &mut rng);
        let (pk, vk) = setup(&circuit, &mut rng);

        let mut status_quo =
            Backend::simulated(presets::a100_nvlink(1), presets::a100_nvlink(gpus));
        let proof_sq = prove(&pk, &witness, &[], &mut status_quo);
        assert!(verify(&vk, &proof_sq, &[]), "status-quo proof must verify");
        let r_sq = status_quo.report();

        let mut unintt = Backend::simulated(presets::a100_nvlink(gpus), presets::a100_nvlink(gpus));
        let proof_u = prove(&pk, &witness, &[], &mut unintt);
        assert_eq!(proof_sq, proof_u, "backends must agree bit-for-bit");
        let r_u = unintt.report();

        table.row(vec![
            format!("2^{}", rows.trailing_zeros()),
            "functional".into(),
            fmt_ns(r_sq.total_ns()),
            format!("{:.0}%", 100.0 * r_sq.ntt_fraction()),
            fmt_ns(r_u.total_ns()),
            format!("{:.0}%", 100.0 * r_u.ntt_fraction()),
            format!("{:.2}x", r_sq.total_ns() / r_u.total_ns()),
        ]);
    }

    // Projected section: production-scale circuits, cost-only paths.
    for &log_rows in projected_sizes {
        let one = single_gpu::config(&presets::a100_nvlink(gpus));
        let eight = presets::a100_nvlink(gpus);
        let (ntt_sq, msm_sq) = projected(log_rows, &one, &eight);
        let (ntt_u, msm_u) = projected(log_rows, &eight, &eight);
        let (total_sq, total_u) = (ntt_sq + msm_sq, ntt_u + msm_u);
        table.row(vec![
            format!("2^{log_rows}"),
            "projected".into(),
            fmt_ns(total_sq),
            format!("{:.0}%", 100.0 * ntt_sq / total_sq),
            fmt_ns(total_u),
            format!("{:.0}%", 100.0 * ntt_u / total_u),
            format!("{:.2}x", total_sq / total_u),
        ]);
    }

    table.note("functional rows: identical, verified proofs on both configurations");
    table.note("projected rows: same operation mix through the cost-only simulation paths");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_gpu_ntt_pays_off_at_scale() {
        let one = single_gpu::config(&presets::a100_nvlink(8));
        let eight = presets::a100_nvlink(8);
        for log_rows in [20u32, 24] {
            let (ntt_sq, msm) = projected(log_rows, &one, &eight);
            let (ntt_u, _) = projected(log_rows, &eight, &eight);
            let gain = (ntt_sq + msm) / (ntt_u + msm);
            assert!(
                gain > 1.2,
                "end-to-end gain at 2^{log_rows} should be material: {gain:.2}x"
            );
        }
    }

    #[test]
    fn ntt_dominates_status_quo_at_scale() {
        let one = single_gpu::config(&presets::a100_nvlink(8));
        let eight = presets::a100_nvlink(8);
        let (ntt_sq, msm) = projected(24, &one, &eight);
        assert!(
            ntt_sq / (ntt_sq + msm) > 0.4,
            "with single-GPU NTT and multi-GPU MSM, NTT should be a major share: {:.0}%",
            100.0 * ntt_sq / (ntt_sq + msm)
        );
    }

    #[test]
    fn functional_rows_verify_and_match() {
        // run(quick) already asserts proof equality + verification inside.
        let rendered = run(true).render();
        assert!(rendered.contains("functional"));
        assert!(rendered.contains("projected"));
    }
}
