//! `bench-host`: wall-clock benchmark of the host-side NTT hot path.
//!
//! Measures batched forward NTTs over **Goldilocks and BabyBear** across
//! sizes and thread counts on the host path ([`Ntt::forward`], the
//! vectorized lane-packed kernels) and on the radix-2 reference it is
//! gated against (bit-reverse + DIT), prints the comparison tables, and
//! writes
//! machine-readable results to `BENCH_ntt.json` in the current
//! directory. The JSON also carries a per-stage time breakdown
//! (`twiddle_build` / `bitrev` / `passes`) for each size and the E18
//! acceptance gates: vector-vs-legacy speedup at `2^18`–`2^20` and
//! `2^22`, 8 threads. See EXPERIMENTS.md (E18) for how to reproduce.

use std::fmt::Write as _;
use std::time::Instant;

use unintt_exec::Executor;
use unintt_ff::{BabyBear, Field, Goldilocks, TwoAdicField};
use unintt_ntt::{
    active_vector_backend, batch_transform_parallel, bit_reverse_permute, Direction, Ntt,
    TwiddleTable, VectorBackend, VECTOR_DIRECT_MAX_LOG_N,
};

use crate::report::{fmt_ns, Table};

/// Where the machine-readable results land.
pub const JSON_PATH: &str = "BENCH_ntt.json";

/// The size/thread grid: full runs sweep `2^12 .. 2^22`; `--quick` trims to
/// three sizes. Thread counts are chunking knobs for
/// [`batch_transform_parallel`] — deterministic regardless of pool size.
fn grid(quick: bool) -> (Vec<u32>, Vec<usize>) {
    let sizes = if quick {
        vec![12, 16, 20]
    } else {
        vec![12, 14, 16, 18, 20, 22]
    };
    (sizes, vec![1, 4, 8])
}

/// Total elements per measurement, shared across sizes so every cell does
/// comparable work (a 2^12 run transforms 1024 rows, a 2^22 run one row).
const TOTAL_LOG: u32 = 22;

/// Vector-vs-legacy speedup the E18 gate demands at `2^18`–`2^20`
/// (8 threads), by backend.
fn gate_mid(backend: VectorBackend) -> f64 {
    match backend {
        VectorBackend::Native => 2.0,
        VectorBackend::Portable => 1.5,
    }
}

/// Vector-vs-legacy speedup the E18 gate demands at `2^22` (8 threads).
fn gate_top(backend: VectorBackend) -> f64 {
    match backend {
        VectorBackend::Native => 3.0,
        VectorBackend::Portable => 2.5,
    }
}

#[derive(Clone, Copy)]
struct Cell {
    field: &'static str,
    log_n: u32,
    rows: usize,
    threads: usize,
    legacy_ns: f64,
    vector_ns: f64,
}

/// Per-stage wall-clock decomposition of one vector-mode transform.
#[derive(Clone, Copy)]
struct Breakdown {
    field: &'static str,
    log_n: u32,
    /// Cold [`TwiddleTable`] construction (amortized across the process
    /// by the shared caches; reported here as the one-time cost).
    twiddle_build_ns: f64,
    /// The bit-reversal permutation alone at this size.
    bitrev_ns: f64,
    /// Butterfly passes: transform total minus the permutation (equal to
    /// the total where the six-step path never permutes).
    passes_ns: f64,
    /// One full forward transform, vector kernels.
    total_ns: f64,
}

fn pseudo_random_input<F: Field>(len: usize) -> Vec<F> {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x005e_ed17);
    (0..len).map(|_| F::random(&mut rng)).collect()
}

/// The radix-2 reference (bit-reverse + DIT) over every row, chunked
/// exactly like [`batch_transform_parallel`] so the two timings differ
/// only in the kernels.
fn legacy_batch<F: TwoAdicField>(ntt: &Ntt<F>, data: &mut [F], threads: usize) {
    let n = ntt.n();
    let rows_per_thread = (data.len() / n).div_ceil(threads);
    Executor::global().scope(|scope| {
        for chunk in data.chunks_mut(rows_per_thread * n) {
            scope.spawn(move || {
                for row in chunk.chunks_mut(n) {
                    bit_reverse_permute(row);
                    ntt.dit_in_place(row);
                }
            });
        }
    });
}

/// Best-of-`iters` wall-clock time of `transform` over a fresh copy of
/// `pristine`.
fn time_batch<F: Field>(pristine: &[F], iters: u32, transform: impl Fn(&mut [F])) -> f64 {
    let mut buf = pristine.to_vec();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        buf.copy_from_slice(pristine);
        let t0 = Instant::now();
        transform(&mut buf);
        best = best.min(t0.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// [`time_batch`] of the host path: batched forward NTTs chunked over
/// `threads`.
fn time_vector<F: TwoAdicField>(ntt: &Ntt<F>, pristine: &[F], threads: usize, iters: u32) -> f64 {
    time_batch(pristine, iters, |buf| {
        batch_transform_parallel(ntt, buf, Direction::Forward, threads)
    })
}

/// Wall-clock of the bit-reversal permutation alone (table-driven at these
/// sizes), per buffer — context for where the legacy path's time goes and
/// the `bitrev` line of the stage breakdown.
fn time_bitrev<F: Field>(pristine: &[F], iters: u32) -> f64 {
    time_batch(pristine, iters, bit_reverse_permute)
}

/// Stage breakdown for one `(field, log_n)`: cold twiddle build, the
/// permutation, and the butterfly passes of a single vector transform.
fn measure_breakdown<F: TwoAdicField>(field: &'static str, log_n: u32, iters: u32) -> Breakdown {
    let t0 = Instant::now();
    let table = TwiddleTable::<F>::new(log_n);
    let twiddle_build_ns = t0.elapsed().as_secs_f64() * 1e9;
    drop(table);

    let pristine = pseudo_random_input::<F>(1 << log_n);
    let bitrev_ns = time_bitrev(&pristine, iters);

    let ntt = Ntt::<F>::new(log_n);
    let total_ns = time_vector(&ntt, &pristine, 1, iters);
    // The direct vector kernel ends with the permutation; the six-step
    // decomposition above the threshold never bit-reverses.
    let passes_ns = if log_n <= VECTOR_DIRECT_MAX_LOG_N {
        (total_ns - bitrev_ns).max(0.0)
    } else {
        total_ns
    };
    Breakdown {
        field,
        log_n,
        twiddle_build_ns,
        bitrev_ns,
        passes_ns,
        total_ns,
    }
}

/// Sweeps one field over the grid, filling `cells` and the printable table.
fn sweep_field<F: TwoAdicField>(
    field: &'static str,
    sizes: &[u32],
    thread_counts: &[usize],
    iters: u32,
    cells: &mut Vec<Cell>,
    table: &mut Table,
) {
    for &log_n in sizes {
        let rows = 1usize.max(1usize << (TOTAL_LOG.saturating_sub(log_n)));
        let pristine = pseudo_random_input::<F>(rows << log_n);
        let ntt = Ntt::<F>::new(log_n);
        for &threads in thread_counts {
            let legacy_ns = time_batch(&pristine, iters, |buf| legacy_batch(&ntt, buf, threads));
            let vector_ns = time_vector(&ntt, &pristine, threads, iters);
            let cell = Cell {
                field,
                log_n,
                rows,
                threads,
                legacy_ns,
                vector_ns,
            };
            cells.push(cell);
            table.row(vec![
                field.to_string(),
                format!("2^{log_n}"),
                rows.to_string(),
                threads.to_string(),
                fmt_ns(legacy_ns),
                fmt_ns(vector_ns),
                format!("{:.2}x", legacy_ns / vector_ns),
            ]);
        }
    }
}

/// The gate cells: Goldilocks, 8 threads, at the sizes present in `cells`.
fn gate_speedups(cells: &[Cell]) -> Vec<(u32, f64)> {
    [18u32, 20, 22]
        .iter()
        .filter_map(|&log_n| {
            cells
                .iter()
                .find(|c| c.field == "Goldilocks" && c.log_n == log_n && c.threads == 8)
                .map(|c| (log_n, c.legacy_ns / c.vector_ns))
        })
        .collect()
}

fn render_json(
    cells: &[Cell],
    breakdowns: &[Breakdown],
    headline: Option<&Cell>,
    bitrev_ns: f64,
    quick: bool,
    backend: VectorBackend,
) -> String {
    let backend_name = match backend {
        VectorBackend::Native => unintt_ntt::active_backend_label::<Goldilocks>(),
        VectorBackend::Portable => "portable",
    };
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"host-ntt\",");
    let _ = writeln!(out, "  \"fields\": [\"Goldilocks\", \"BabyBear\"],");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"total_elements_log2\": {TOTAL_LOG},");
    let _ = writeln!(out, "  \"vector_backend\": \"{backend_name}\",");
    let _ = writeln!(out, "  \"bitrev_2^20_ns\": {:.0},", bitrev_ns);
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"field\": \"{}\", \"log_n\": {}, \"rows\": {}, \"threads\": {}, \
             \"legacy_ns\": {:.0}, \"vector_ns\": {:.0}, \"vector_speedup\": {:.3}}}",
            c.field,
            c.log_n,
            c.rows,
            c.threads,
            c.legacy_ns,
            c.vector_ns,
            c.legacy_ns / c.vector_ns
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"breakdown\": [\n");
    for (i, b) in breakdowns.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"field\": \"{}\", \"log_n\": {}, \"twiddle_build_ns\": {:.0}, \
             \"bitrev_ns\": {:.0}, \"passes_ns\": {:.0}, \"total_ns\": {:.0}}}",
            b.field, b.log_n, b.twiddle_build_ns, b.bitrev_ns, b.passes_ns, b.total_ns
        );
        out.push_str(if i + 1 < breakdowns.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let gates = gate_speedups(cells);
    if gates.is_empty() {
        out.push_str("  \"gates\": null,\n");
    } else {
        let mid = gate_mid(backend);
        let top = gate_top(backend);
        let pass = gates
            .iter()
            .all(|&(log_n, s)| s >= if log_n == 22 { top } else { mid });
        out.push_str("  \"gates\": {");
        for &(log_n, s) in &gates {
            let _ = write!(out, "\"vector_speedup_2^{log_n}\": {s:.3}, ");
        }
        let _ = writeln!(
            out,
            "\"target_18_20\": {mid:.1}, \"target_22\": {top:.1}, \"pass\": {pass}}},"
        );
    }
    match headline {
        Some(c) => {
            let _ = writeln!(
                out,
                "  \"headline\": {{\"log_n\": {}, \"threads\": {}, \"legacy_ns\": {:.0}, \
                 \"vector_ns\": {:.0}, \"vector_speedup\": {:.3}}}",
                c.log_n,
                c.threads,
                c.legacy_ns,
                c.vector_ns,
                c.legacy_ns / c.vector_ns
            );
        }
        None => {
            let _ = writeln!(out, "  \"headline\": null");
        }
    }
    out.push_str("}\n");
    out
}

/// Runs the host-path benchmark, writes [`JSON_PATH`], and returns the
/// printable table.
pub fn run(quick: bool) -> Table {
    let (sizes, thread_counts) = grid(quick);
    let iters = if quick { 2 } else { 3 };
    let backend = active_vector_backend::<Goldilocks>();

    let mut table = Table::new(
        "bench-host: batched forward NTT, legacy reference vs vector kernels",
        &[
            "field",
            "size",
            "rows",
            "threads",
            "legacy",
            "vector",
            "vec-speedup",
        ],
    );

    let mut cells = Vec::new();
    sweep_field::<Goldilocks>(
        "Goldilocks",
        &sizes,
        &thread_counts,
        iters,
        &mut cells,
        &mut table,
    );
    sweep_field::<BabyBear>(
        "BabyBear",
        &sizes,
        &thread_counts,
        iters,
        &mut cells,
        &mut table,
    );

    let mut breakdowns = Vec::new();
    for &log_n in &sizes {
        breakdowns.push(measure_breakdown::<Goldilocks>("Goldilocks", log_n, iters));
        breakdowns.push(measure_breakdown::<BabyBear>("BabyBear", log_n, iters));
    }

    let bitrev_input = pseudo_random_input::<Goldilocks>(1 << 20);
    let bitrev_ns = time_bitrev(&bitrev_input, iters);
    table.note(format!(
        "vector backend: {}",
        match backend {
            VectorBackend::Native => {
                // Per-field labels: Goldilocks can sit a SIMD tier above
                // BabyBear (AVX-512 vs AVX2) on the same CPU.
                format!(
                    "{} Goldilocks / {} BabyBear (runtime-detected)",
                    unintt_ntt::active_backend_label::<Goldilocks>(),
                    unintt_ntt::active_backend_label::<BabyBear>(),
                )
            }
            VectorBackend::Portable => "portable lanes".to_string(),
        }
    ));
    table.note(format!(
        "bit-reversal of 2^20 elements (table-driven): {}",
        fmt_ns(bitrev_ns)
    ));

    let headline = cells
        .iter()
        .find(|c| c.field == "Goldilocks" && c.log_n == 20 && c.threads == 8)
        .copied();
    if let Some(c) = headline {
        table.note(format!(
            "headline (Goldilocks 2^20, 8 threads): {:.2}x vector over legacy",
            c.legacy_ns / c.vector_ns
        ));
    }
    for (log_n, s) in gate_speedups(&cells) {
        let target = if log_n == 22 {
            gate_top(backend)
        } else {
            gate_mid(backend)
        };
        table.note(format!(
            "gate 2^{log_n} (8 threads): vector {s:.2}x over legacy (target ≥{target:.1}x) — {}",
            if s >= target { "PASS" } else { "FAIL" }
        ));
    }

    let json = render_json(
        &cells,
        &breakdowns,
        headline.as_ref(),
        bitrev_ns,
        quick,
        backend,
    );
    match std::fs::write(JSON_PATH, &json) {
        Ok(()) => table.note(format!("machine-readable results written to {JSON_PATH}")),
        Err(e) => table.note(format!("could not write {JSON_PATH}: {e}")),
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shapes() {
        let (sizes, threads) = grid(true);
        assert_eq!(sizes, vec![12, 16, 20]);
        assert_eq!(threads, vec![1, 4, 8]);
        let (full, _) = grid(false);
        assert!(full.contains(&18) && full.contains(&20) && full.contains(&22));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cells = [Cell {
            field: "Goldilocks",
            log_n: 20,
            rows: 4,
            threads: 8,
            legacy_ns: 2e6,
            vector_ns: 5e5,
        }];
        let breakdowns = [Breakdown {
            field: "Goldilocks",
            log_n: 20,
            twiddle_build_ns: 3e5,
            bitrev_ns: 1e5,
            passes_ns: 4e5,
            total_ns: 5e5,
        }];
        let s = render_json(
            &cells,
            &breakdowns,
            Some(&cells[0]),
            1e5,
            true,
            VectorBackend::Portable,
        );
        assert!(s.starts_with("{\n") && s.ends_with("}\n"));
        assert!(!s.contains("shoup_ns") && !s.contains("\"speedup\""));
        assert!(s.contains("\"vector_speedup\": 4.000"));
        assert!(s.contains("\"breakdown\""));
        assert!(s.contains("\"passes_ns\": 400000"));
        assert!(s.contains("\"vector_speedup_2^20\": 4.000"));
        assert!(s.contains("\"headline\""));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn gates_require_all_targets() {
        let mk = |log_n: u32, vector_ns: f64| Cell {
            field: "Goldilocks",
            log_n,
            rows: 1,
            threads: 8,
            legacy_ns: 6e6,
            vector_ns,
        };
        // 2^18 and 2^20 clear 2.0x, 2^22 clears 3.0x → pass.
        let cells = [mk(18, 2.9e6), mk(20, 2.9e6), mk(22, 1.9e6)];
        let s = render_json(&cells, &[], None, 0.0, false, VectorBackend::Native);
        assert!(s.contains("\"pass\": true"), "{s}");
        // 2^22 at only 2.0x misses its 3.0x target → fail.
        let cells = [mk(18, 2.9e6), mk(20, 2.9e6), mk(22, 3.0e6)];
        let s = render_json(&cells, &[], None, 0.0, false, VectorBackend::Native);
        assert!(s.contains("\"pass\": false"), "{s}");
    }

    #[test]
    fn timing_helpers_return_positive() {
        let pristine = pseudo_random_input::<Goldilocks>(1 << 8);
        let ntt = Ntt::<Goldilocks>::new(8);
        let legacy = time_batch(&pristine, 1, |buf| legacy_batch(&ntt, buf, 2));
        for t in [legacy, time_vector(&ntt, &pristine, 2, 1)] {
            assert!(t > 0.0 && t.is_finite());
        }
        assert!(time_bitrev(&pristine, 1) > 0.0);
    }

    #[test]
    fn legacy_batch_matches_host_path() {
        let ntt = Ntt::<BabyBear>::new(6);
        let pristine = pseudo_random_input::<BabyBear>(5 << 6);
        let mut legacy = pristine.clone();
        legacy_batch(&ntt, &mut legacy, 2);
        let mut vector = pristine;
        batch_transform_parallel(&ntt, &mut vector, Direction::Forward, 2);
        assert_eq!(legacy, vector);
    }

    #[test]
    fn breakdown_decomposes_direct_sizes() {
        let b = measure_breakdown::<Goldilocks>("Goldilocks", 10, 1);
        assert!(b.twiddle_build_ns > 0.0);
        assert!(b.bitrev_ns > 0.0);
        assert!(b.total_ns > 0.0);
        assert!(b.passes_ns <= b.total_ns);
    }
}
