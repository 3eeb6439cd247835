//! End-to-end and per-layer benchmark of the UniNTT workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ntt-2e22 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one seeded workload, checks every output, and prints report lines
//! followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones. Exits non-zero if any check failed. See README.md.

mod bench;
mod host;
mod record;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use bench::{Ctx, Kind, END_TO_END, PER_LAYER};

const USAGE: &str =
    "usage: unintt-perfbench --workload <ntt-2e22|plonk-2e12|stark-2e14|serve-dag> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(run) = workloads::find(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    let fingerprint = host::fingerprint();
    let mut cx = Ctx::new(args.seed, args.seconds, args.trace);
    run(&mut cx);
    if !args.trace {
        cx.set("peak_rss_mb", host::peak_rss_mb());
    }

    // The metrics this run prints, in table order; a layer the workload
    // does not call reads 0.
    let table: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut values = Vec::with_capacity(table.len());
    for &(name, unit) in &table {
        let v = match cx.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                cx.check(false, format!("{name} was not measured"));
                0.0
            }
        };
        if !v.is_finite() {
            cx.check(false, format!("{name} is not finite: {v}"));
        }
        values.push((name, unit, if v.is_finite() { v } else { 0.0 }));
    }

    // Simulated times and counts must repeat exactly across runs of one
    // seed.
    let exact: BTreeMap<&'static str, f64> = values
        .iter()
        .filter(|(name, _, _)| {
            if args.trace {
                PER_LAYER
                    .iter()
                    .any(|&(n, _, k)| n == *name && k == Kind::Exact)
            } else {
                name.starts_with("sim_")
            }
        })
        .map(|&(n, _, v)| (n, v))
        .collect();
    let run_id = format!(
        "{}-trace{}-seed{}",
        args.workload,
        u8::from(args.trace),
        args.seed
    );
    match record::guard(&run_id, &fingerprint, &exact) {
        Ok(drifted) => {
            let ok = drifted.is_empty();
            cx.check(
                ok,
                format!("determinism: drift against an earlier run: {drifted:?}"),
            );
        }
        Err(e) => cx.check(false, format!("determinism record: {e}")),
    }

    if args.trace {
        let path = record::out_dir().join(format!("trace-{run_id}.json"));
        match std::fs::write(&path, cx.tracer.chrome_json(&fingerprint)) {
            Ok(()) => cx.note(format!(
                "spans: {} written to {}",
                cx.tracer.spans().len(),
                path.display()
            )),
            Err(e) => cx.check(false, format!("writing {}: {e}", path.display())),
        }
    }

    // Report lines, then the result line.
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("fingerprint {}", fp.join(" "));
    for note in &cx.notes {
        println!("note {note}");
    }
    for &(name, unit, v) in &values {
        let clock = match unit {
            "ms" | "s" | "1/s" | "MB" | "%" => "host",
            "count" | "bytes" | "jobs" => "count",
            _ => "sim",
        };
        println!("metric {name} = {v} {unit} [{clock}]");
    }
    println!("fail_ratio = {}/{}", cx.failed, cx.attempted);
    for f in &cx.failures {
        println!("FAILED {f}");
    }

    let correct = cx.failed == 0 && cx.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        cx.attempted, cx.failed
    );
    for (i, &(name, unit, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");

    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unintt_telemetry::{parse_json, JsonValue};

    fn metric_list(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let JsonValue::Array(items) = doc.get(key).expect("key present") else {
            panic!("{key} is not an array");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(JsonValue::String(s)) => s.clone(),
                    other => panic!("{key}.{k}: {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// BENCHMARK.json and the tables this program prints stay in step.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_json(&text).expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(metric_list(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.into(), u.into()))
            .collect();
        assert_eq!(metric_list(&doc, "per_layer"), layer);
        let JsonValue::Array(workloads) = doc.get("workloads").expect("workloads") else {
            panic!("workloads is not an array");
        };
        for w in workloads {
            let Some(JsonValue::String(name)) = w.get("name") else {
                panic!("workload without a name");
            };
            assert!(workloads::find(name).is_some(), "{name} is not runnable");
        }
    }
}
