//! `stark-2e14`: one operation commits a seeded 2^14-row × 8-column
//! Goldilocks trace (batched coset LDE, Merkle tree, FRI) with the LDE on
//! eight simulated A100s. Hashing and FRI dominate the host clock, the
//! LDE the simulated one.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{single_gpu, RecoveryPolicy};
use unintt_ff::{Field, Goldilocks};
use unintt_fri::{
    commit_trace, verify_trace, FriConfig, LdeBackend, StagedCommit, TraceCommitment,
};
use unintt_gpu_sim::{presets, MachineConfig};

use crate::bench::{gpusim_metrics, Ctx, Repeat, Window};
use crate::trace::{OpClock, Tracer, CHECK};

const LOG_ROWS: u32 = 14;
const COLUMNS: usize = 8;
const GPUS: usize = 8;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;
const DOMAIN: u64 = 0x0073_7461_726b_3134;

fn trace_columns(seed: u64, rows: usize) -> Vec<Vec<Goldilocks>> {
    let mut rng = StdRng::seed_from_u64(seed ^ DOMAIN);
    (0..COLUMNS)
        .map(|_| (0..rows).map(|_| Goldilocks::random(&mut rng)).collect())
        .collect()
}

struct Fixture {
    cfg: MachineConfig,
    fri: FriConfig,
    columns: Vec<Vec<Goldilocks>>,
    /// The commitment made on the host backend: the oracle.
    oracle: TraceCommitment,
}

/// The stage's span name: `fri.<stage>`, without the fold stage's round
/// count suffix.
fn stage_metrics(name: &str) -> (&'static str, &'static str) {
    match name {
        "trace-interp" => ("fri.trace-interp_host_ms", "fri.trace-interp_sim_us"),
        "trace-coset" => ("fri.trace-coset_host_ms", "fri.trace-coset_sim_us"),
        "trace-merkle" => ("fri.trace-merkle_host_ms", "fri.trace-merkle_sim_us"),
        "alpha-combine" => ("fri.alpha-combine_host_ms", "fri.alpha-combine_sim_us"),
        "fri-finalize" => ("fri.fri-finalize_host_ms", "fri.fri-finalize_sim_us"),
        n if n.starts_with("fri-fold") => ("fri.fri-fold_host_ms", "fri.fri-fold_sim_us"),
        _ => ("fri.other_host_ms", "fri.other_sim_us"),
    }
}

/// The commitment through the staged committer, one span per stage.
/// Returns the commitment and the exact per-layer values.
fn commit_staged(
    fx: &Fixture,
    backend: LdeBackend,
    tr: &mut Tracer,
) -> (TraceCommitment, BTreeMap<&'static str, f64>) {
    let mut staged = tr.span("fri.staged_new", || {
        StagedCommit::new(fx.columns.clone(), fx.fri, backend)
    });
    let policy = RecoveryPolicy::none();
    let mut values = BTreeMap::new();
    for (idx, desc) in staged.stage_descs().into_iter().enumerate() {
        let (host, sim) = stage_metrics(&desc.name);
        let sim_ns = tr.span_with(host, desc.name, || {
            staged
                .run_stage(idx, &policy)
                .expect("no faults are injected")
        });
        *values.entry(sim).or_default() += sim_ns / 1e3;
    }
    if let Some(machine) = staged.backend_mut().machine_mut() {
        values.extend(gpusim_metrics(&machine.stats()));
    }
    let commitment = staged.commitment().expect("every stage ran").clone();
    (commitment, values)
}

/// Checks a commitment against the oracle and the verifier.
fn commitment_problems(c: &TraceCommitment, fx: &Fixture) -> Vec<String> {
    let mut problems = Vec::new();
    if !verify_trace(c, &fx.fri) {
        problems.push("commitment does not verify".into());
    }
    if c.trace_root != fx.oracle.trace_root || c.content_digest() != fx.oracle.content_digest() {
        problems.push("commitment differs from the host-backend oracle".into());
    }
    problems
}

pub fn run(cx: &mut Ctx) {
    let seed = cx.seed;
    let fx = cx.setup(SETUP_REPS, |tr| {
        let columns = trace_columns(seed, 1 << LOG_ROWS);
        let fri = FriConfig::standard();
        let oracle = tr.span("fri.oracle_commit", || {
            commit_trace(&columns, &fri, &mut LdeBackend::cpu())
        });
        Fixture {
            cfg: presets::a100_nvlink(GPUS),
            fri,
            columns,
            oracle,
        }
    });
    cx.check(
        trace_columns(seed.wrapping_add(1), 16)[0] != fx.columns[0][..16],
        "a different seed must give different inputs",
    );

    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut sim = Repeat::default();
    let mut layer = Repeat::default();
    let mut window = Window::open(cx.seconds, if cx.traced { 2 } else { 1 });
    while let Some(op) = window.next_op() {
        let traced = cx.traced_op(op);
        let tr = &mut cx.tracer;
        tr.set_enabled(traced);

        let mut clock = OpClock::start();
        tr.begin_op(op);
        let backend = LdeBackend::simulated(fx.cfg.clone());
        let (commitment, values) = if traced {
            commit_staged(&fx, backend, tr)
        } else {
            let mut backend = backend;
            let c = commit_trace(&fx.columns, &fx.fri, &mut backend);
            (c, BTreeMap::from([("sim_ns", backend.sim_time_ns())]))
        };
        let mut problems =
            clock.exclude(|| tr.span(CHECK, || commitment_problems(&commitment, &fx)));
        tr.end_op();
        let ms = clock.elapsed_ms();
        tr.set_enabled(false);

        if traced {
            problems.extend(layer.check(values));
            traced_ms.push(ms);
        } else {
            problems.extend(sim.check(values));
            plain_ms.push(ms);
        }
        cx.op_done(op, problems);
    }

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

    // Whole-commit speedup: the same commitment with the LDE on one GPU.
    let mut one = LdeBackend::simulated(single_gpu::config(&fx.cfg));
    let c = commit_trace(&fx.columns, &fx.fri, &mut one);
    let problems = commitment_problems(&c, &fx);
    cx.check(
        problems.is_empty(),
        format!("single-GPU commitment: {problems:?}"),
    );
    cx.set("sim_speedup_x", one.sim_time_ns() / sim_ns);
}
