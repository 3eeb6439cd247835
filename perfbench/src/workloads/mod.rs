//! The four workloads. Each builds its inputs from the seed, times its
//! operations from outside the program, and checks every output.

mod ntt;
mod plonk;
mod serve;
mod stark;

use crate::bench::Ctx;

/// The workload called `name`.
pub fn find(name: &str) -> Option<fn(&mut Ctx)> {
    match name {
        "ntt-2e22" => Some(ntt::run),
        "plonk-2e12" => Some(plonk::run),
        "stark-2e14" => Some(stark::run),
        "serve-dag" => Some(serve::run),
        _ => None,
    }
}
