//! What every workload shares: the metric tables, the failure tally, the
//! measurement window, set-up timing and the end-of-run summary.

use std::collections::BTreeMap;
use std::time::Instant;

use unintt_gpu_sim::Stats;

use crate::stats::{self, Tail};
use crate::trace::Tracer;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
/// The `sim_` ones are on the simulated clock and repeat exactly for one
/// seed; the rest are measured on the host. Host operation latency and
/// throughput drift with the load on a shared machine by more than any
/// bound the gate allows, so they are per-layer metrics (`host.*`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_latency_us_p50", "sim_us"),
    ("sim_latency_us_tail", "sim_us"),
    ("sim_capacity_jobs_per_s", "1/sim_s"),
    ("sim_speedup_x", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// How a per-layer metric behaves from run to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A host measurement: varies with the machine and its load.
    Host,
    /// A simulated time or a count: must repeat exactly for one seed.
    Exact,
}

use Kind::{Exact, Host};

/// Per-layer metrics, printed by every traced run: `(name, unit, kind)`.
/// A workload reports 0 for a layer it does not call.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("host.throughput_ops_per_s", "1/s", Host),
    ("host.latency_ms_p50", "ms", Host),
    ("host.latency_ms_tail", "ms", Host),
    ("core.distribute_ms", "ms", Host),
    ("core.forward_ms", "ms", Host),
    ("core.inverse_ms", "ms", Host),
    ("core.collect_ms", "ms", Host),
    ("ntt.oracle_forward_ms", "ms", Host),
    ("gpusim.sim_compute_us", "sim_us", Exact),
    ("gpusim.sim_global_mem_us", "sim_us", Exact),
    ("gpusim.sim_interconnect_us", "sim_us", Exact),
    ("gpusim.comm_hidden_us", "sim_us", Exact),
    ("gpusim.interconnect_bytes", "bytes", Exact),
    ("gpusim.collectives", "count", Exact),
    ("gpusim.kernels_launched", "count", Exact),
    ("msm.host_ms", "ms", Host),
    ("zkp.ntt_host_ms", "ms", Host),
    ("zkp.pointwise_host_ms", "ms", Host),
    ("zkp.barrier_host_ms", "ms", Host),
    ("msm.sim_us", "sim_us", Exact),
    ("zkp.ntt_sim_us", "sim_us", Exact),
    ("zkp.msm_calls", "count", Exact),
    ("zkp.ntt_calls", "count", Exact),
    ("fri.trace-interp_host_ms", "ms", Host),
    ("fri.trace-coset_host_ms", "ms", Host),
    ("fri.trace-merkle_host_ms", "ms", Host),
    ("fri.alpha-combine_host_ms", "ms", Host),
    ("fri.fri-fold_host_ms", "ms", Host),
    ("fri.fri-finalize_host_ms", "ms", Host),
    ("fri.trace-interp_sim_us", "sim_us", Exact),
    ("fri.trace-coset_sim_us", "sim_us", Exact),
    ("fri.trace-merkle_sim_us", "sim_us", Exact),
    ("fri.alpha-combine_sim_us", "sim_us", Exact),
    ("fri.fri-fold_sim_us", "sim_us", Exact),
    ("fri.fri-finalize_sim_us", "sim_us", Exact),
    ("serve.run_ms", "ms", Host),
    ("serve.dispatches", "count", Exact),
    ("serve.peak_queue_depth", "count", Exact),
    ("serve.occupancy_mean", "ratio", Exact),
    ("serve.batch_mean", "jobs", Exact),
    ("serve.retries", "count", Exact),
    ("serve.raw-ntt_sim_p50_us", "sim_us", Exact),
    ("serve.plonk-dag_sim_p50_us", "sim_us", Exact),
    ("serve.stark-dag_sim_p50_us", "sim_us", Exact),
    ("pipeline.ntt_sim_us", "sim_us", Exact),
    ("pipeline.msm_sim_us", "sim_us", Exact),
    ("pipeline.hash_sim_us", "sim_us", Exact),
    ("pipeline.pointwise_sim_us", "sim_us", Exact),
    ("pipeline.fold_sim_us", "sim_us", Exact),
    ("pipeline.barrier_sim_us", "sim_us", Exact),
    ("telemetry.on_overhead_pct", "%", Host),
    ("telemetry.records", "count", Exact),
    ("bench.residual_pct", "%", Host),
    ("bench.trace_overhead_pct", "%", Host),
];

/// One run's state: settings, failure tally, metrics and report lines.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            seed,
            seconds,
            traced,
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one attempted operation, failed if `problems` is non-empty.
    pub fn op_done(&mut self, op: usize, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.failures.push(format!("op {op}: {p}"));
            }
        }
    }

    /// Counts one stand-alone check as an attempt.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.into());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|&(n, _)| n == name)
                || PER_LAYER.iter().any(|&(n, _, _)| n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Runs `make` `reps` times, records the median as `setup_s` and
    /// returns the last result. In a traced run every repetition is
    /// traced, so set-up spans can be read back.
    pub fn setup<T>(&mut self, reps: usize, mut make: impl FnMut(&mut Tracer) -> T) -> T {
        self.tracer.set_enabled(self.traced);
        let mut secs = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            // Free the previous fixture first, so peak memory holds one.
            drop(last.take());
            let t = Instant::now();
            last = Some(make(&mut self.tracer));
            secs.push(t.elapsed().as_secs_f64());
        }
        self.tracer.set_enabled(false);
        self.set("setup_s", stats::median(&secs));
        last.expect("at least one set-up repetition")
    }

    /// Whether operation `op` runs traced: in a traced run, every other
    /// operation, so traced and untraced timings interleave.
    pub fn traced_op(&self, op: usize) -> bool {
        self.traced && op % 2 == 1
    }

    /// Records the host latency metrics from untraced operations' wall
    /// times (ms), and notes them with the tail's percentile and sample
    /// count so untraced runs show them too.
    pub fn host_latency(&mut self, ms: &[f64], ops_per_sample: f64) {
        let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
        let throughput = ms.len() as f64 * ops_per_sample / total_s;
        let p50 = stats::median(ms);
        let t = stats::tail(ms);
        self.set("host.throughput_ops_per_s", throughput);
        self.set("host.latency_ms_p50", p50);
        self.set("host.latency_ms_tail", t.value);
        let v = stats::sorted(ms);
        self.note(format!(
            "host: throughput {throughput} 1/s, latency p50 {p50} ms, min {} ms, max {} ms",
            v[0],
            v[v.len() - 1]
        ));
        self.note(tail_note("host.latency_ms_tail", &t));
    }

    /// Records the traced-run summary metrics from `plain` and `traced`
    /// operation times (ms): the residual and the tracing overhead.
    pub fn trace_summary(&mut self, plain: &[f64], traced: &[f64]) {
        let residual = self.tracer.residual_pct_by_op();
        self.set("bench.residual_pct", stats::median(&residual));
        let overhead = if plain.is_empty() || traced.is_empty() {
            0.0
        } else {
            100.0 * (stats::median(traced) / stats::median(plain) - 1.0)
        };
        self.set("bench.trace_overhead_pct", overhead);
        self.note(format!(
            "trace: {} untraced and {} traced operations",
            plain.len(),
            traced.len()
        ));
    }

    /// Medians over traced operations of each layer's self time.
    pub fn layer_medians(&mut self) {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for per_op in self.tracer.layer_ms_by_op().values() {
            for (&name, &ms) in per_op {
                by_name.entry(name).or_default().push(ms);
            }
        }
        for (name, ms) in by_name {
            if PER_LAYER.iter().any(|&(n, _, _)| n == name) {
                self.set(name, stats::median(&ms));
            }
        }
    }
}

pub fn tail_note(metric: &str, t: &Tail) -> String {
    let why = if t.percentile == 50.0 {
        " (fewer than 21 samples: no higher percentile has 10 beyond it)"
    } else {
        ""
    };
    format!(
        "{metric}: p{:.1} of {} samples{why}",
        t.percentile, t.samples
    )
}

/// The measurement window: operations start while it is open, and at
/// least `min_ops` always run.
pub struct Window {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    ops: usize,
}

impl Window {
    pub fn open(seconds: f64, min_ops: usize) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            min_ops,
            ops: 0,
        }
    }

    /// The next operation's index, or `None` once the window has closed.
    pub fn next_op(&mut self) -> Option<usize> {
        if self.ops >= self.min_ops && self.start.elapsed().as_secs_f64() >= self.seconds {
            return None;
        }
        self.ops += 1;
        Some(self.ops - 1)
    }
}

/// Values that must repeat exactly from one operation to the next (of
/// one kind), compared by bit pattern against the first operation's.
#[derive(Default)]
pub struct Repeat {
    first: Option<BTreeMap<&'static str, f64>>,
}

impl Repeat {
    /// The first call stores `now`; later calls list what drifted.
    pub fn check(&mut self, now: BTreeMap<&'static str, f64>) -> Vec<String> {
        let Some(first) = &self.first else {
            self.first = Some(now);
            return Vec::new();
        };
        let mut out = Vec::new();
        for (name, v) in &now {
            match first.get(name) {
                Some(f) if f.to_bits() == v.to_bits() => {}
                Some(f) => out.push(format!("{name} drifted: {f} then {v}")),
                None => out.push(format!("{name} appeared")),
            }
        }
        for name in first.keys() {
            if !now.contains_key(name) {
                out.push(format!("{name} disappeared"));
            }
        }
        out
    }

    /// The first operation's values.
    pub fn first(&self) -> Option<&BTreeMap<&'static str, f64>> {
        self.first.as_ref()
    }
}

/// The gpu-sim layer's per-operation figures from a machine's stats.
pub fn gpusim_metrics(stats: &Stats) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("gpusim.sim_compute_us", stats.time_ns.compute / 1e3),
        ("gpusim.sim_global_mem_us", stats.time_ns.global_mem / 1e3),
        (
            "gpusim.sim_interconnect_us",
            stats.time_ns.interconnect / 1e3,
        ),
        ("gpusim.comm_hidden_us", stats.comm_hidden_ns / 1e3),
        (
            "gpusim.interconnect_bytes",
            stats.interconnect_bytes_sent as f64,
        ),
        ("gpusim.collectives", stats.collectives as f64),
        ("gpusim.kernels_launched", stats.kernels_launched as f64),
    ])
}
