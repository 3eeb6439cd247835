//! The host fingerprint printed with every run, and peak memory.
//!
//! Numbers taken under different fingerprints are not like for like:
//! core count, SIMD tier and pool size all move the host clock.

use unintt_exec::Executor;
use unintt_ff::{BabyBear, Goldilocks};
use unintt_ntt::active_vector_backend;

/// `(key, value)` pairs describing the host and the build.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu_model()),
        (
            "vector_backend_goldilocks",
            format!("{:?}", active_vector_backend::<Goldilocks>()),
        ),
        (
            "vector_backend_babybear",
            format!("{:?}", active_vector_backend::<BabyBear>()),
        ),
        ("exec_threads", Executor::global().threads().to_string()),
        (
            "UNINTT_THREADS",
            std::env::var("UNINTT_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}

/// The CPU brand string from `cpuid`, or `"unknown"` off x86-64.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // SAFETY: `cpuid` exists on every x86-64 CPU, and leaf 0x8000_0000
        // reports which extended leaves may be queried after it.
        #[allow(unused_unsafe)]
        let max_ext = unsafe { __cpuid(0x8000_0000) }.eax;
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                // SAFETY: the leaf is within the range checked above.
                #[allow(unused_unsafe)]
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let name = String::from_utf8_lossy(&bytes);
            return name
                .trim_matches(|c: char| c == '\0' || c.is_whitespace())
                .to_string();
        }
    }
    "unknown".into()
}

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux: two `timeval`s
/// followed by fourteen `long`s, the first of which is `ru_maxrss`.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss_kb as f64 / 1024.0
}
