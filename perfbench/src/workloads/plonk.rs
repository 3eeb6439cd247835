//! `plonk-2e12`: one operation is a BN254 PLONK proof of a seeded 2^12-gate
//! random circuit, with NTTs and MSMs on eight simulated A100s each. MSM
//! dominates; the NTTs take the BN254 natural-order path.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{single_gpu, RecoveryPolicy};
use unintt_gpu_sim::{presets, MachineConfig};
use unintt_zkp::{
    plonk_stage_descs, prove, random_circuit, setup, verify, Backend, BackendReport, Proof,
    ProvingKey, StagedProver, VerifyingKey, Witness,
};

use crate::bench::{gpusim_metrics, Ctx, Repeat, Window};
use crate::trace::{OpClock, Tracer, CHECK};

const LOG_GATES: u32 = 12;
const GPUS: usize = 8;
/// Set-ups per run; the median is reported. Key generation takes
/// seconds, so fewer than the other workloads.
const SETUP_REPS: usize = 3;
const DOMAIN: u64 = 0x0070_6c6f_6e6b_3132;

struct Fixture {
    cfg: MachineConfig,
    pk: ProvingKey,
    vk: VerifyingKey,
    witness: Witness,
}

fn circuit_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ DOMAIN)
}

/// The span a stage of kind `kind` is recorded under.
fn stage_metric(kind: &str) -> &'static str {
    match kind {
        "msm" => "msm.host_ms",
        "ntt" => "zkp.ntt_host_ms",
        "pointwise" => "zkp.pointwise_host_ms",
        "barrier" => "zkp.barrier_host_ms",
        _ => "zkp.other_host_ms",
    }
}

/// The proof through the staged prover, one span per stage.
fn prove_staged(fx: &Fixture, backend: Backend, tr: &mut Tracer) -> (Proof, BackendReport) {
    let mut prover = tr.span("zkp.staged_new", || {
        StagedProver::new(&fx.pk, &fx.witness, &[], backend)
    });
    let policy = RecoveryPolicy::none();
    for (idx, desc) in plonk_stage_descs().into_iter().enumerate() {
        tr.span_with(stage_metric(desc.kind), desc.name, || {
            prover
                .run_stage(idx, &policy)
                .expect("no faults are injected")
        });
    }
    let proof = prover.proof().expect("every stage ran").clone();
    let report = prover.backend_mut().report();
    (proof, report)
}

fn layer_values(report: &BackendReport) -> BTreeMap<&'static str, f64> {
    let mut out = gpusim_metrics(&report.ntt_stats);
    for (name, v) in gpusim_metrics(&report.msm_stats) {
        *out.entry(name).or_default() += v;
    }
    out.insert("msm.sim_us", report.msm_time_ns / 1e3);
    out.insert("zkp.ntt_sim_us", report.ntt_time_ns / 1e3);
    out.insert("zkp.msm_calls", report.msm_calls as f64);
    out.insert("zkp.ntt_calls", report.ntt_calls as f64);
    out
}

pub fn run(cx: &mut Ctx) {
    let seed = cx.seed;
    let fx = cx.setup(SETUP_REPS, |tr| {
        tr.span("zkp.setup", || {
            let mut rng = circuit_rng(seed);
            let (circuit, witness) = random_circuit(1 << LOG_GATES, &mut rng);
            let (pk, vk) = setup(&circuit, &mut rng);
            Fixture {
                cfg: presets::a100_nvlink(GPUS),
                pk,
                vk,
                witness,
            }
        })
    });
    let (_, other) = random_circuit(1 << LOG_GATES, &mut circuit_rng(seed.wrapping_add(1)));
    cx.check(
        other != fx.witness,
        "a different seed must give different inputs",
    );

    let mut first: Option<Vec<u8>> = None;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut sim = Repeat::default();
    let mut layer = Repeat::default();
    let mut window = Window::open(cx.seconds, if cx.traced { 2 } else { 1 });
    while let Some(op) = window.next_op() {
        let traced = cx.traced_op(op);
        let tr = &mut cx.tracer;
        tr.set_enabled(traced);
        let mut problems = Vec::new();

        let mut clock = OpClock::start();
        tr.begin_op(op);
        let backend = Backend::simulated(fx.cfg.clone(), fx.cfg.clone());
        let (proof, report) = if traced {
            prove_staged(&fx, backend, tr)
        } else {
            let mut backend = backend;
            let proof = prove(&fx.pk, &fx.witness, &[], &mut backend);
            (proof, backend.report())
        };
        let (ok, bytes) =
            clock.exclude(|| tr.span(CHECK, || (verify(&fx.vk, &proof, &[]), proof.to_bytes())));
        tr.end_op();
        let ms = clock.elapsed_ms();
        tr.set_enabled(false);

        if !ok {
            problems.push("proof does not verify".into());
        }
        // Operation 0 is never traced, so in a traced run each staged
        // proof is compared with the monolithic one.
        match &first {
            None => first = Some(bytes),
            Some(f) if *f == bytes => {}
            Some(_) => problems.push(format!(
                "{} proof differs from the first proof",
                if traced { "staged" } else { "monolithic" }
            )),
        }
        if traced {
            problems.extend(layer.check(layer_values(&report)));
            traced_ms.push(ms);
        } else {
            problems.extend(sim.check(BTreeMap::from([("sim_ns", report.total_ns())])));
            plain_ms.push(ms);
        }
        cx.op_done(op, problems);
    }
    let first = first.expect("at least one operation");

    cx.host_latency(&plain_ms, 1.0);
    if cx.traced {
        cx.trace_summary(&plain_ms, &traced_ms);
        cx.layer_medians();
        for (&name, &v) in layer.first().into_iter().flatten() {
            cx.set(name, v);
        }
        return;
    }
    let sim_ns = sim.first().expect("at least one operation")["sim_ns"];
    cx.set("sim_latency_us_p50", sim_ns / 1e3);
    cx.set("sim_latency_us_tail", sim_ns / 1e3);
    cx.set("sim_capacity_jobs_per_s", 1e9 / sim_ns);

    // Whole-proof speedup: the same proof with NTTs and MSMs on one GPU.
    let one = single_gpu::config(&fx.cfg);
    let mut backend = Backend::simulated(one.clone(), one);
    let proof = prove(&fx.pk, &fx.witness, &[], &mut backend);
    cx.check(
        proof.to_bytes() == first,
        "single-GPU proof differs from the eight-GPU proof",
    );
    cx.set("sim_speedup_x", backend.report().total_ns() / sim_ns);
}
