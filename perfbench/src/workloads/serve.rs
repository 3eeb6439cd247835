//! `serve-dag`: an open loop on the simulated clock through the proving
//! service. Half the jobs are raw NTTs of 2^8–2^10 over Goldilocks and
//! BabyBear, a quarter PLONK and a quarter STARK proofs submitted as stage
//! DAGs, served with two streams per lease. Operations cycle through
//! a latency phase at 5k jobs/s (about half the service's capacity),
//! [`WINDOWS`] independent 300-job windows, and a saturation phase at
//! 80k jobs/s. Latencies are sojourn times from each job's scheduled
//! arrival, pooled over the windows.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use unintt_serve::{
    DagKind, JobClass, JobSpec, LeaseShape, ProofService, ServiceConfig, ServiceReport,
    WorkloadSpec,
};

use crate::bench::{tail_note, Ctx, Repeat, Window};
use crate::stats::{self, TAIL_BEYOND};
use crate::trace::OpClock;

/// Jobs per latency window and in the saturation phase.
const JOBS: usize = 300;
/// Latency windows of an untraced run. One window's tail (10 of its 300
/// sojourns beyond) spreads by about 15% between seeds, which the
/// stratification below cannot remove: it comes from where the proof
/// jobs fall among the short gaps. The pooled windows keep 10 sojourns
/// per window beyond the tail, so it stays p96.7, and spread about 5%.
/// A traced run serves only the first window.
const WINDOWS: usize = 8;
const LATENCY_LOAD: f64 = 5_000.0;
const SATURATION_LOAD: f64 = 80_000.0;
/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 5;
const DOMAIN: u64 = 0x7365_7276_6564_6167;
/// Jobs of each class in the warm-up run that ends set-up: the first
/// ones of the latency stream, so every seed warms up on the same mix.
const WARMUP_PER_CLASS: usize = 4;

/// The seeded stream of one phase or latency window, `JOBS` jobs at
/// `load` jobs/s.
///
/// Job attributes (raw-NTT field, size and direction, priority, tenant)
/// come from the service's own workload generator. Two things are
/// stratified so that seeds differ in order, not in composition:
/// exactly a quarter of the jobs become PLONK (2^6 gates) and a quarter
/// STARK (2^8 × 4) proofs, submitted as DAGs, and the interarrival gaps
/// are the `JOBS` quantiles of the exponential distribution with mean
/// `1/load`, in seeded order. Run to run, a seed's sojourn statistics
/// then vary far less than with independent Poisson draws.
fn stream(seed: u64, load: f64, window: u64) -> Vec<JobSpec> {
    let seed =
        (seed ^ DOMAIN ^ load.to_bits()).wrapping_add(window.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut jobs = WorkloadSpec::raw_only(seed, JOBS, load).generate();
    let mut rng = StdRng::seed_from_u64(seed.rotate_left(17));
    let shuffled = |rng: &mut StdRng| {
        let mut order: Vec<usize> = (0..JOBS).collect();
        for i in (1..JOBS).rev() {
            let j = rng.gen_range(0..i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    };
    let proofs = shuffled(&mut rng);
    for (k, &i) in proofs[..JOBS / 2].iter().enumerate() {
        let class = if k % 2 == 0 {
            JobClass::PlonkProve { log_gates: 6 }
        } else {
            JobClass::StarkCommit {
                log_trace: 8,
                columns: 4,
            }
        };
        jobs[i].class = class.pipelined();
    }
    let mean_gap_ns = 1e9 / load;
    let mut now = 0.0;
    for (job, q) in jobs.iter_mut().zip(shuffled(&mut rng)) {
        now += -mean_gap_ns * (1.0 - (q as f64 + 0.5) / JOBS as f64).ln();
        job.arrival_ns = now;
    }
    jobs
}

/// The per-class latency metric a job of `class` feeds.
fn class_metric(class: &JobClass) -> &'static str {
    match class {
        JobClass::RawNtt { .. } => "serve.raw-ntt_sim_p50_us",
        JobClass::ProveDag {
            kind: DagKind::Plonk { .. },
        } => "serve.plonk-dag_sim_p50_us",
        JobClass::ProveDag {
            kind: DagKind::Stark { .. },
        } => "serve.stark-dag_sim_p50_us",
        _ => "serve.other_sim_p50_us",
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        streams_per_lease: 2,
        verify_outputs: true,
        ..ServiceConfig::default()
    }
}

fn serve(cfg: &ServiceConfig, jobs: &[JobSpec]) -> ServiceReport {
    let mut service = ProofService::new(cfg.clone());
    service.submit_all(jobs.iter().cloned());
    service.run()
}

/// Jobs that did not complete, and any outcome that does not line up
/// with its submission.
fn job_problems(report: &ServiceReport, jobs: &[JobSpec]) -> (u64, Vec<String>) {
    let mut problems = Vec::new();
    if report.outcomes.len() != jobs.len() {
        problems.push(format!(
            "{} outcomes for {} jobs",
            report.outcomes.len(),
            jobs.len()
        ));
    }
    let failed = report.outcomes.iter().filter(|o| !o.completed()).count() as u64;
    if failed > 0 {
        problems.push(format!(
            "{failed} jobs shed, rejected, failed or past deadline"
        ));
    }
    for (o, j) in report.outcomes.iter().zip(jobs) {
        if o.arrival_ns.to_bits() != j.arrival_ns.to_bits() || o.output_digest == 0 {
            problems.push(format!("outcome {} does not match its submission", o.id));
            break;
        }
    }
    (failed, problems)
}

/// Each job's sojourn (µs) with the per-class metric it feeds.
fn sojourns(report: &ServiceReport, jobs: &[JobSpec]) -> Vec<(&'static str, f64)> {
    report
        .outcomes
        .iter()
        .zip(jobs)
        .map(|(o, j)| (class_metric(&j.class), o.latency_ns() / 1e3))
        .collect()
}

/// Simulated figures of latency-phase sojourns from `windows` windows:
/// overall and per class, the tail with [`TAIL_BEYOND`] sojourns per
/// window beyond it.
fn latency_values(sojourns: &[(&'static str, f64)], windows: usize) -> BTreeMap<&'static str, f64> {
    let all: Vec<f64> = sojourns.iter().map(|&(_, us)| us).collect();
    let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(name, us) in sojourns {
        by_class.entry(name).or_default().push(us);
    }
    let mut out: BTreeMap<&'static str, f64> = by_class
        .iter()
        .map(|(&name, v)| (name, stats::median(v)))
        .collect();
    let tail = stats::tail_beyond(&all, TAIL_BEYOND * windows);
    out.insert("sim_latency_us_p50", stats::median(&all));
    out.insert("sim_latency_us_tail", tail.value);
    out.insert("tail_percentile", tail.percentile);
    out
}

/// Simulated figures and counts of a saturation-phase run.
fn saturation_values(report: &ServiceReport) -> BTreeMap<&'static str, f64> {
    let m = &report.metrics;
    let mut out = BTreeMap::from([
        ("sim_capacity_jobs_per_s", m.throughput_jobs_per_s()),
        ("horizon_ns", m.horizon_ns),
        ("serve.dispatches", m.dispatches as f64),
        ("serve.peak_queue_depth", m.peak_queue_depth as f64),
        ("serve.occupancy_mean", m.mean_occupancy()),
        ("serve.batch_mean", m.mean_batch_size()),
        (
            "serve.retries",
            m.classes.values().map(|c| c.retries).sum::<u64>() as f64,
        ),
    ]);
    for (kind, name) in [
        ("ntt", "pipeline.ntt_sim_us"),
        ("msm", "pipeline.msm_sim_us"),
        ("hash", "pipeline.hash_sim_us"),
        ("pointwise", "pipeline.pointwise_sim_us"),
        ("fold", "pipeline.fold_sim_us"),
        ("barrier", "pipeline.barrier_sim_us"),
    ] {
        out.insert(
            name,
            report.stage_ns.get(kind).copied().unwrap_or(0.0) / 1e3,
        );
    }
    out
}

/// The first [`WARMUP_PER_CLASS`] jobs of each class, in arrival order.
fn warmup_jobs(jobs: &[JobSpec]) -> Vec<JobSpec> {
    let mut taken: BTreeMap<&'static str, usize> = BTreeMap::new();
    jobs.iter()
        .filter(|j| {
            let n = taken.entry(class_metric(&j.class)).or_default();
            *n += 1;
            *n <= WARMUP_PER_CLASS
        })
        .cloned()
        .collect()
}

struct Fixture {
    cfg: ServiceConfig,
    /// Phase streams: the latency windows, then saturation.
    phases: Vec<Vec<JobSpec>>,
}

impl Fixture {
    fn windows(&self) -> usize {
        self.phases.len() - 1
    }

    fn saturation(&self) -> &[JobSpec] {
        &self.phases[self.windows()]
    }
}

pub fn run(cx: &mut Ctx) {
    let seed = cx.seed;
    let windows = if cx.traced { 1 } else { WINDOWS };
    let mut warmup = Vec::new();
    let fx = cx.setup(SETUP_REPS, |_| {
        let mut phases: Vec<Vec<JobSpec>> = (0..windows as u64)
            .map(|w| stream(seed, LATENCY_LOAD, w))
            .collect();
        phases.push(stream(seed, SATURATION_LOAD, 0));
        let cfg = service_config();
        warmup.push(serve(&cfg, &warmup_jobs(&phases[0])).all_completed());
        Fixture { cfg, phases }
    });
    cx.check(warmup.iter().all(|&ok| ok), "warm-up run did not complete");
    cx.check(
        stream(seed.wrapping_add(1), LATENCY_LOAD, 0) != fx.phases[0],
        "a different seed must give different inputs",
    );

    // Operations cycle through the phases; a traced run alternates
    // untraced and traced cycles.
    let cycle = fx.phases.len();
    let sat_phase = fx.windows();
    let mut sat_ms = Vec::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut sims: Vec<Repeat> = (0..cycle).map(|_| Repeat::default()).collect();
    let mut digests: Vec<Option<Vec<u64>>> = vec![None; cycle];
    let mut latency_sojourns = vec![Vec::new(); windows];
    let mut window = Window::open(cx.seconds, cycle * (1 + usize::from(cx.traced)));
    while let Some(op) = window.next_op() {
        let phase = op % cycle;
        let traced = cx.traced && (op / cycle) % 2 == 1;
        let jobs = &fx.phases[phase];
        let tr = &mut cx.tracer;
        tr.set_enabled(traced);

        let clock = OpClock::start();
        tr.begin_op(op);
        let mut service = ProofService::new(fx.cfg.clone());
        service.submit_all(jobs.iter().cloned());
        let report = tr.span("serve.run_ms", || service.run());
        tr.end_op();
        let ms = clock.elapsed_ms();
        tr.set_enabled(false);

        let (failed_jobs, mut problems) = job_problems(&report, jobs);
        let outputs: Vec<u64> = report.outcomes.iter().map(|o| o.output_digest).collect();
        match &digests[phase] {
            None => digests[phase] = Some(outputs),
            Some(d) if *d == outputs => {}
            Some(_) => problems.push("outputs differ from the first run of this phase".into()),
        }
        let values = if phase == sat_phase {
            sat_ms.push(ms);
            saturation_values(&report)
        } else {
            let soj = sojourns(&report, jobs);
            let mut values = latency_values(&soj, 1);
            values.insert("horizon_ns", report.metrics.horizon_ns);
            if latency_sojourns[phase].is_empty() {
                latency_sojourns[phase] = soj;
            }
            values
        };
        problems.extend(sims[phase].check(values));
        if traced {
            traced_ms.push(ms);
        } else {
            plain_ms.push(ms);
        }
        cx.attempted += JOBS as u64;
        cx.failed += failed_jobs.max(u64::from(!problems.is_empty()));
        cx.failures
            .extend(problems.into_iter().map(|p| format!("op {op}: {p}")));
    }
    let lat = latency_values(&latency_sojourns.concat(), windows);
    let sat = sims[sat_phase]
        .first()
        .cloned()
        .expect("the saturation phase ran");

    cx.host_latency(&plain_ms, JOBS as f64);
    if cx.traced {
        cx.trace_summary(&plain_ms, &traced_ms);
        cx.layer_medians();
        for (&name, &v) in lat.iter().chain(&sat) {
            if name.starts_with("serve.") || name.starts_with("pipeline.") {
                cx.set(name, v);
            }
        }
        telemetry_pass(cx, &fx, &sat_ms);
        return;
    }

    cx.set("sim_latency_us_p50", lat["sim_latency_us_p50"]);
    let tail = stats::Tail {
        value: lat["sim_latency_us_tail"],
        percentile: lat["tail_percentile"],
        samples: JOBS * windows,
    };
    cx.set("sim_latency_us_tail", tail.value);
    cx.note(format!(
        "{}, {windows} windows of {JOBS} jobs",
        tail_note("sim_latency_us_tail", &tail)
    ));
    cx.set("sim_capacity_jobs_per_s", sat["sim_capacity_jobs_per_s"]);

    // Serving speedup: the saturation stream on one single-GPU lease
    // against the default two four-GPU leases.
    let one = ServiceConfig {
        num_leases: 1,
        lease: LeaseShape {
            nodes: 1,
            gpus_per_node: 1,
        },
        ..fx.cfg.clone()
    };
    let report = serve(&one, fx.saturation());
    let (failed_jobs, problems) = job_problems(&report, fx.saturation());
    let outputs: Vec<u64> = report.outcomes.iter().map(|o| o.output_digest).collect();
    cx.check(
        failed_jobs == 0 && problems.is_empty() && Some(&outputs) == digests[sat_phase].as_ref(),
        format!("single-GPU lease run: {problems:?}"),
    );
    cx.set(
        "sim_speedup_x",
        report.metrics.horizon_ns / sat["horizon_ns"],
    );
}

/// Runs the saturation stream twice with a program telemetry session
/// open: the cost of recording, against the same stream with telemetry
/// off, and which program counters repeat between the two runs.
fn telemetry_pass(cx: &mut Ctx, fx: &Fixture, off_ms: &[f64]) {
    let mut on_ms = Vec::new();
    let mut records = Vec::new();
    let mut counters = Vec::new();
    for _ in 0..2 {
        let guard = unintt_telemetry::start_session();
        let t = Instant::now();
        let report = serve(&fx.cfg, fx.saturation());
        on_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let session = unintt_telemetry::take_session();
        records.push((session.spans.len() + session.instants.len()) as f64);
        counters.push(unintt_telemetry::registry_snapshot().counters);
        drop(guard);
        let (failed, problems) = job_problems(&report, fx.saturation());
        cx.check(
            failed == 0 && problems.is_empty(),
            format!("telemetry run: {problems:?}"),
        );
    }
    cx.set(
        "telemetry.on_overhead_pct",
        100.0 * (stats::median(&on_ms) / stats::median(off_ms) - 1.0),
    );
    cx.check(
        records[0] == records[1],
        format!("telemetry records differ between two runs: {records:?}"),
    );
    cx.set("telemetry.records", records[0]);
    let (a, b) = (&counters[0], &counters[1]);
    let names: BTreeSet<&str> = a.keys().chain(b.keys()).copied().collect();
    let (stable, unstable): (Vec<&str>, Vec<&str>) =
        names.into_iter().partition(|k| a.get(k) == b.get(k));
    for name in stable {
        cx.note(format!("telemetry counter {name} = {}", a[name]));
    }
    cx.note(format!(
        "telemetry counters left out, not repeating between two runs: {unstable:?}"
    ));
}
