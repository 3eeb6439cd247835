//! Checksum-failure coverage for the gather/reduce collectives: injected
//! corruption must be detected, repaired, and billed — never silently
//! delivered — when the checked variants are used.

use unintt_gpu_sim::{presets, Category, FaultEvent, FaultKind, FaultPlan, FieldSpec, Machine};

fn machine(gpus: usize) -> Machine {
    Machine::new(presets::a100_nvlink(gpus), FieldSpec::goldilocks())
}

fn scripted(machine: &mut Machine, seq: u64, kind: FaultKind) {
    machine.set_fault_plan(FaultPlan::scripted(vec![FaultEvent { seq, kind }]));
}

fn shards(d: usize, len: usize) -> Vec<Vec<u64>> {
    (0..d)
        .map(|dev| (0..len).map(|j| (dev * 10_000 + j) as u64).collect())
        .collect()
}

#[test]
fn all_gather_corruption_is_silent_without_checksums() {
    let d = 4;
    let clean = machine(d).all_gather(&shards(d, 16), 8).unwrap();

    let mut m = machine(d);
    scripted(&mut m, 0, FaultKind::Corrupt { src: 2, dst: 1 });
    let damaged = m.all_gather(&shards(d, 16), 8).unwrap();
    assert_ne!(damaged, clean, "plain gather must deliver silently");
    assert_eq!(m.stats().interconnect_bytes_retransmitted, 0);
}

#[test]
fn all_gather_checked_detects_and_repairs_corruption() {
    let d = 4;
    let clean = machine(d).all_gather(&shards(d, 16), 8).unwrap();

    let mut m = machine(d);
    scripted(&mut m, 0, FaultKind::Corrupt { src: 2, dst: 1 });
    let (out, report) = m.all_gather_checked(&shards(d, 16), 8).unwrap();
    assert_eq!(out, clean, "checksum repair must restore the gather");
    assert_eq!(report.retransmitted_chunks, 1);
    assert_eq!(report.retransmitted_bytes, 16 * 8);
    assert_eq!(report.injected, Some(FaultKind::Corrupt { src: 2, dst: 1 }));
    assert!(m.stats().interconnect_bytes_retransmitted > 0);
    assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
}

#[test]
fn all_gather_checked_clean_run_repairs_nothing() {
    let d = 4;
    let mut m = machine(d);
    let (out, report) = m.all_gather_checked(&shards(d, 16), 8).unwrap();
    assert_eq!(out, machine(d).all_gather(&shards(d, 16), 8).unwrap());
    assert_eq!(report.retransmitted_chunks, 0);
    assert_eq!(report.injected, None);
    assert_eq!(m.stats().time_ns.get(Category::Fault), 0.0);
}

#[test]
fn all_gather_checked_propagates_drop() {
    let mut m = machine(4);
    scripted(&mut m, 0, FaultKind::Drop);
    let err = m.all_gather_checked(&shards(4, 16), 8).unwrap_err();
    assert!(err.is_transient(), "drop must stay retryable: {err}");
    // Retry (seq 1) is clean.
    let (_, report) = m.all_gather_checked(&shards(4, 16), 8).unwrap();
    assert_eq!(report.retransmitted_chunks, 0);
}

#[test]
fn reduce_checked_detects_corrupted_contribution() {
    let values = vec![1u64, 10, 100, 1000];

    let mut m = machine(4);
    scripted(&mut m, 0, FaultKind::Corrupt { src: 3, dst: 0 });
    let (sum, report) = m.reduce_to_root_checked(&values, 8, |a, b| a + b).unwrap();
    assert_eq!(sum, 1111, "reduction must use pristine inputs");
    assert_eq!(report.retransmitted_chunks, 1);
    assert_eq!(report.retransmitted_bytes, 8);
    assert!(m.stats().interconnect_bytes_retransmitted > 0);
    assert!(m.stats().time_ns.get(Category::Fault) > 0.0);
}

#[test]
fn reduce_checked_clean_run_is_free_of_fault_time() {
    let mut m = machine(4);
    let (sum, report) = m
        .reduce_to_root_checked(&[1u64, 2, 3, 4], 8, |a, b| a + b)
        .unwrap();
    assert_eq!(sum, 10);
    assert_eq!(report.retransmitted_chunks, 0);
    assert_eq!(m.stats().time_ns.get(Category::Fault), 0.0);
}

#[test]
fn checked_variants_cost_no_extra_time_when_clean() {
    let d = 4;
    let mut plain = machine(d);
    plain.all_gather(&shards(d, 64), 8).unwrap();
    plain
        .reduce_to_root(&[1u64, 2, 3, 4], 8, |a, b| a + b)
        .unwrap();

    let mut checked = machine(d);
    checked.all_gather_checked(&shards(d, 64), 8).unwrap();
    checked
        .reduce_to_root_checked(&[1u64, 2, 3, 4], 8, |a, b| a + b)
        .unwrap();

    let (p, c) = (plain.max_clock_ns(), checked.max_clock_ns());
    assert!((p - c).abs() < 1e-9, "plain {p} vs checked {c}");
}
