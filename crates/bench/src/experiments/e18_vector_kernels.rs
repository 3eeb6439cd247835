//! E18 — vectorized host kernels: lane-packed Shoup butterflies,
//! radix-4/8 stage fusion, and the per-`(field, log_n)` specialized plan
//! cache, measured wall-clock against the legacy radix-2 reference.
//!
//! This is the capture wrapper around `bench-host`: it runs the full
//! two-field sweep (writing `BENCH_ntt.json` with the stage breakdown
//! and the acceptance gates) and then demonstrates the dispatch counter
//! end-to-end: one transform under a telemetry session must produce
//! exactly one increment of `ntt_dispatch_vector`.

use unintt_ff::{Field, Goldilocks};
use unintt_ntt::Ntt;

use crate::host_bench;
use crate::report::Table;

/// Runs the host-kernel sweep plus the dispatch-counter demonstration.
pub fn run(quick: bool) -> Table {
    let mut table = host_bench::run(quick);

    let log_n = 10u32;
    let ntt = Ntt::<Goldilocks>::new(log_n);
    let mut buf: Vec<Goldilocks> = {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xe18);
        (0..1usize << log_n)
            .map(|_| Goldilocks::random(&mut rng))
            .collect()
    };
    let guard = unintt_telemetry::start_session();
    ntt.forward(&mut buf);
    let registry = unintt_telemetry::registry_snapshot();
    drop(guard);
    table.note(format!(
        "dispatch counter after one transform: vector={}",
        registry
            .counters
            .get("ntt_dispatch_vector")
            .copied()
            .unwrap_or(0),
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_counter_counts_each_transform() {
        let ntt = Ntt::<Goldilocks>::new(6);
        let input: Vec<Goldilocks> = (0..64u64).map(unintt_ff::PrimeField::from_u64).collect();
        let guard = unintt_telemetry::start_session();
        for _ in 0..2 {
            let mut buf = input.clone();
            ntt.forward(&mut buf);
        }
        let registry = unintt_telemetry::registry_snapshot();
        drop(guard);
        assert_eq!(registry.counters.get("ntt_dispatch_vector"), Some(&2));
    }
}
