# Every check CI runs, one target each: .github/workflows/ci.yml calls
# these targets, so each command list exists only here.

# Whole workspace except the vendored offline stubs under vendor/.
EXCLUDE_VENDOR := --exclude criterion --exclude proptest --exclude rand

.PHONY: verify fmt clippy build bench-check test e13 e14 e15 serve-smoke trace-smoke chaos-smoke kernel-smoke pipeline-smoke stream-smoke slo-smoke perf-gate

verify: fmt clippy build bench-check test kernel-smoke e13 serve-smoke e15 trace-smoke chaos-smoke pipeline-smoke stream-smoke slo-smoke perf-gate

fmt:
	cargo fmt --all --check

# Perf lints are warnings-as-errors on the hot paths.
clippy:
	cargo clippy --release --workspace $(EXCLUDE_VENDOR) --all-targets -- -D warnings -D clippy::perf

build:
	cargo build --release --workspace

# Also compile the benches with the host's full ISA so the explicit
# AVX2/AVX-512 kernel paths stay buildable under -Ctarget-cpu=native.
bench-check:
	cargo bench --no-run
	RUSTFLAGS="-Ctarget-cpu=native" cargo bench --no-run

test:
	cargo test -q --release --workspace

e13:
	cargo run --release -p unintt-bench --bin harness -- --quick e13

e14:
	cargo run --release -p unintt-bench --bin harness -- --quick e14

# Communication-overlap smoke: E15 sweeps the blocking and overlapped
# exchange schedules side by side and checks the outputs agree.
e15:
	cargo run --release -p unintt-bench --bin harness -- --quick e15

# Proving-service smoke: run the example and the E14 quick sweep.
serve-smoke:
	cargo run --release --example proof_service
	cargo run --release -p unintt-bench --bin harness -- --quick e14

# Telemetry smoke: E16 writes trace.json/trace.folded/BENCH_obs.json and
# validates the Chrome/Perfetto JSON before writing, so this fails on
# any malformed trace; the trace subcommand exercises the generic
# per-experiment capture path.
trace-smoke:
	cargo run --release -p unintt-bench --bin harness -- --quick e16
	test -s target/traces/trace.json && test -s target/traces/trace.folded
	test -s BENCH_obs.json
	cargo run --release -p unintt-bench --bin harness -- --quick trace e12
	test -s target/traces/trace_e12.json

# Kernel smoke: the bit-identity property suite (the vector kernels on
# the detected backend and on portable lanes, each against the legacy
# radix-2 reference, both fields, both directions, log_n 1..=16), then
# the quick E18 sweep of the vector kernels against that reference.
kernel-smoke:
	cargo test --release -p unintt-ntt --test shoup_properties
	cargo run --release -p unintt-bench --bin harness -- --quick e18
	test -s BENCH_ntt.json

# Pipeline smoke: the DAG bit-identity proptests (DAG-scheduled proofs
# vs monolithic across seeds, sizes and injected stage faults), then the
# quick E19 cell — which itself asserts per-job digest identity between
# the DAG and monolithic runs and that pipelining wins at high load.
pipeline-smoke:
	cargo test --release -p unintt-pipeline
	cargo run --release -p unintt-bench --bin harness -- --quick e19
	test -s BENCH_pipeline.json

# Stream smoke: the intra-lease overlap suite (bit-identity across queue
# counts, fault injection and the forced one-queue clock-identity check),
# then the quick E20 cell, which sweeps k = 1..=4 queues per lease and
# asserts per-job digest identity against the monolithic reference in
# every cell. Rerunning E19 around it and comparing proves the
# multi-queue scheduler leaves the serialized experiment byte-identical.
stream-smoke:
	cargo test --release -p unintt-serve --test stream_overlap
	cargo run --release -p unintt-bench --bin harness -- --quick e19
	mkdir -p target && cp BENCH_pipeline.json target/BENCH_pipeline.before.json
	cargo run --release -p unintt-bench --bin harness -- --quick e20
	test -s BENCH_streams.json
	cargo run --release -p unintt-bench --bin harness -- --quick e19
	cmp BENCH_pipeline.json target/BENCH_pipeline.before.json

# Chaos smoke: the fleet example plus the E17 quick sweep. E17 asserts
# zero accepted-job failures and bit-identical outputs vs the fault-free
# baseline in every cell, so this target fails if resilience regresses.
chaos-smoke:
	cargo run --release --example fleet_chaos
	cargo run --release -p unintt-bench --bin harness -- --quick e17
	test -s BENCH_resilience.json

# SLO smoke: the quick E21 cell — burn-rate alerts must fire inside
# every injected degradation window and never on the clean baseline
# (asserted inside the experiment), streaming quantiles must track the
# exact percentiles, and the attribution verdicts must match the known
# workload classes. Also prints the attribution report.
slo-smoke:
	cargo run --release -p unintt-bench --bin harness -- --quick e21
	test -s BENCH_slo.json
	cargo run --release -p unintt-bench --bin harness -- attribute all

# Perf-regression gate: rerun the experiment behind every committed
# BENCH_*.json in its committed mode and byte-compare (the wall-clock
# BENCH_ntt.json is shape-checked and warn-only). Fails on any diff in
# a deterministic artifact.
perf-gate:
	cargo run --release -p unintt-bench --bin harness -- perf-gate
