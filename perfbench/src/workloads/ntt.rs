//! `ntt-2e22`: the paper's own object. One operation is a forward and an
//! inverse UniNTT of 2^22 Goldilocks elements on eight simulated A100s:
//! distribute, forward, inverse, collect.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, SeedableRng};
use unintt_core::{single_gpu, ShardLayout, Sharded, UniNttEngine, UniNttOptions};
use unintt_ff::{Field, Goldilocks};
use unintt_gpu_sim::{presets, FieldSpec, Machine, MachineConfig};
use unintt_ntt::Ntt;

use crate::bench::{gpusim_metrics, Ctx, Repeat, Window};
use crate::trace::{OpClock, CHECK};

const LOG_N: u32 = 22;
const GPUS: usize = 8;
/// Seed domain, so workloads given one seed still draw different inputs.
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;
const DOMAIN: u64 = 0x6e74_7432_3232;

fn input(seed: u64, len: usize) -> Vec<Goldilocks> {
    let mut rng = StdRng::seed_from_u64(seed ^ DOMAIN);
    (0..len).map(|_| Goldilocks::random(&mut rng)).collect()
}

struct Fixture {
    cfg: MachineConfig,
    fs: FieldSpec,
    engine: UniNttEngine<Goldilocks>,
    input: Vec<Goldilocks>,
    /// `Ntt::forward` of the input: the oracle.
    oracle: Vec<Goldilocks>,
    /// The oracle in the engine's forward-output layout, so an output
    /// can be compared shard by shard without collecting it.
    expected: Sharded<Goldilocks>,
}

pub fn run(cx: &mut Ctx) {
    let seed = cx.seed;
    let fx = cx.setup(SETUP_REPS, |tr| {
        let cfg = presets::a100_nvlink(GPUS);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::new(LOG_N, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let input = input(seed, 1 << LOG_N);
        let oracle = tr.span("ntt.oracle_forward_ms", || {
            let mut v = input.clone();
            Ntt::<Goldilocks>::new(LOG_N).forward(&mut v);
            v
        });
        let expected = Sharded::distribute(&oracle, GPUS, ShardLayout::BlockCyclic);
        Fixture {
            cfg,
            fs,
            engine,
            input,
            oracle,
            expected,
        }
    });
    let oracle_ms = cx.tracer.setup_ms("ntt.oracle_forward_ms");
    if !oracle_ms.is_empty() {
        cx.set("ntt.oracle_forward_ms", crate::stats::median(&oracle_ms));
    }
    cx.check(
        input(seed.wrapping_add(1), 16) != fx.input[..16],
        "a different seed must give different inputs",
    );

    let mut machine = Machine::new(fx.cfg.clone(), fx.fs);
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
        machine.reset();
        let mut data = tr.span("core.distribute_ms", || {
            Sharded::distribute(&fx.input, GPUS, ShardLayout::Cyclic)
        });
        tr.span("core.forward_ms", || {
            fx.engine.forward(&mut machine, &mut data)
        });
        let forward_ok = clock.exclude(|| {
            tr.span(CHECK, || {
                if data.layout() == fx.expected.layout() {
                    data.shards() == fx.expected.shards()
                } else {
                    data.collect() == fx.oracle
                }
            })
        });
        tr.span("core.inverse_ms", || {
            fx.engine.inverse(&mut machine, &mut data)
        });
        let back = tr.span("core.collect_ms", || data.collect());
        tr.end_op();
        let ms = clock.elapsed_ms();
        tr.set_enabled(false);

        if !forward_ok {
            problems.push("forward output differs from the Ntt::forward oracle".into());
        }
        if back != fx.input {
            problems.push("inverse(forward(x)) differs from x".into());
        }
        let sim_us = machine.max_clock_ns() / 1e3;
        problems.extend(sim.check(BTreeMap::from([("sim_latency_us_p50", sim_us)])));
        if traced {
            problems.extend(layer.check(gpusim_metrics(&machine.stats())));
            traced_ms.push(ms);
        } else {
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
    let sim_us = sim.first().expect("at least one operation")["sim_latency_us_p50"];
    cx.set("sim_latency_us_p50", sim_us);
    // Every operation charges the same simulated time (checked above).
    cx.set("sim_latency_us_tail", sim_us);
    cx.set("sim_capacity_jobs_per_s", 1e6 / sim_us);

    // The paper's headline: the strong single-GPU engine on the same
    // transform, cost-only.
    let one = single_gpu::engine::<Goldilocks>(LOG_N, &fx.cfg, fx.fs);
    let mut m1 = single_gpu::machine(&fx.cfg, fx.fs);
    one.simulate_forward(&mut m1, 1);
    one.simulate_inverse(&mut m1, 1);
    cx.set("sim_speedup_x", m1.max_clock_ns() / (sim_us * 1e3));
}
