//! Cross-run determinism guard and the run's output files.
//!
//! Simulated times and counts must repeat exactly for one seed. The first
//! run of a seed stores them; every later run of the same binary, on the
//! same host fingerprint, compares against that record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where run artifacts go: under the cargo target directory, so they stay
/// inside the checkout and out of version control.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perfbench")
}

fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Identifies this binary build and host: a record from another build or
/// fingerprint is never compared.
fn build_key(fingerprint: &[(&str, String)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (k, v) in fingerprint {
        h = fnv(k.as_bytes(), h);
        h = fnv(v.as_bytes(), h);
    }
    if let Some(meta) = std::env::current_exe().ok().and_then(|p| p.metadata().ok()) {
        h = fnv(&meta.len().to_le_bytes(), h);
        if let Some(mtime) = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        {
            h = fnv(&mtime.as_nanos().to_le_bytes(), h);
        }
    }
    h
}

/// Compares `values` with the stored record for this run's identity, or
/// stores them if there is none. Returns the names that drifted.
pub fn guard(
    run_id: &str,
    fingerprint: &[(&str, String)],
    values: &BTreeMap<&'static str, f64>,
) -> std::io::Result<Vec<String>> {
    let dir = out_dir().join("determinism");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{run_id}-{:016x}.txt", build_key(fingerprint)));
    let mut text = String::new();
    for (name, v) in values {
        let _ = writeln!(text, "{name} {:016x} {v}", v.to_bits());
    }
    match std::fs::read_to_string(&path) {
        Ok(stored) => {
            let mut drifted = Vec::new();
            let old: BTreeMap<&str, &str> = stored
                .lines()
                .filter_map(|l| {
                    let mut it = l.split(' ');
                    Some((it.next()?, it.next()?))
                })
                .collect();
            for (name, v) in values {
                let bits = format!("{:016x}", v.to_bits());
                if old.get(name) != Some(&bits.as_str()) {
                    drifted.push(format!("{name}: now {v}, recorded {:?}", old.get(name)));
                }
            }
            for name in old.keys() {
                if !values.contains_key(name) {
                    drifted.push(format!("{name}: recorded but not produced"));
                }
            }
            Ok(drifted)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // Write then rename, so an interrupted run leaves no partial
            // record behind.
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, text)?;
            std::fs::rename(&tmp, &path)?;
            Ok(Vec::new())
        }
        Err(e) => Err(e),
    }
}
