//! # unintt-msm — multi-scalar multiplication substrate
//!
//! The MSM half of ZKP proof generation (the half the paper notes was
//! already multi-GPU friendly):
//!
//! * [`G1Affine`] / [`G1Projective`] — BN254 G1 curve arithmetic
//!   (`y² = x³ + 3` over Fq, group order = Fr modulus);
//! * [`msm`] / [`msm_with_window`] — Pippenger's bucket method, plus the
//!   [`msm_naive`] oracle;
//! * [`planned_msm`] — MSM on the [`unintt_gpu_sim::Machine`] simulator,
//!   split over every GPU ([`multi_gpu_msm`]) or run on one, whichever
//!   [`plan_msm`] finds the cost model charges less.
//!
//! ```
//! use unintt_ff::{Bn254Fr, Field, PrimeField};
//! use unintt_msm::{msm, G1Affine, G1Projective};
//!
//! // 3·G + 4·G = 7·G
//! let g = G1Affine::generator();
//! let result = msm(
//!     &[Bn254Fr::from_u64(3), Bn254Fr::from_u64(4)],
//!     &[g, g],
//! );
//! assert_eq!(result, G1Projective::generator().mul_scalar(&Bn254Fr::from_u64(7)));
//! ```

#![warn(missing_docs)]

mod curve;
mod multi_gpu;
mod pippenger;

pub use curve::{curve_b, G1Affine, G1Projective};
pub use multi_gpu::{
    msm_kernel_profile, multi_gpu_msm, plan_msm, planned_msm, simulate_planned_msm, MsmPlacement,
};
pub use pippenger::{
    msm, msm_naive, msm_parallel, msm_parallel_with_window, msm_signed, msm_signed_with_window,
    msm_with_window, optimal_window_bits, pippenger_group_ops, pippenger_signed_group_ops,
};
