//! # unintt-ntt — CPU Number Theoretic Transform library
//!
//! The reference NTT implementations for the UniNTT reproduction:
//!
//! * [`Ntt`] — one host transform path (the vectorized kernels, on the
//!   lane backend the CPU reports at runtime) plus the radix-2 DIT/DIF
//!   kernels that serve as its reference, with shared twiddle tables;
//! * [`FourStepNtt`] — the Bailey `N = N1·N2` decomposition with explicit
//!   transposes: the algebra the multi-GPU engines build on, and the
//!   "overhead-ful" formulation UniNTT improves;
//! * [`coset_ntt`] / [`low_degree_extension`] — coset evaluation and LDE
//!   as used by ZKP provers;
//! * [`NegacyclicNtt`] — transforms modulo `xⁿ + 1`;
//! * [`poly_mul_ntt`] / [`cyclic_convolution`] — convolution helpers;
//! * [`batch_transform`] / [`ParallelNtt`] — batched and multithreaded
//!   execution;
//! * [`naive_dft`] — the O(n²) oracle everything is tested against.
//!
//! Every transform here is *bit-exact*: fast paths are validated against
//! [`naive_dft`] in the test suites of each module.
//!
//! ```
//! use unintt_ff::{Goldilocks, PrimeField};
//! use unintt_ntt::poly_mul_ntt;
//!
//! let a = vec![Goldilocks::from_u64(2), Goldilocks::from_u64(1)]; // 2 + x
//! let b = vec![Goldilocks::from_u64(3), Goldilocks::from_u64(1)]; // 3 + x
//! let product = poly_mul_ntt(&a, &b); // 6 + 5x + x²
//! assert_eq!(product[1], Goldilocks::from_u64(5));
//! ```

#![warn(missing_docs)]

mod batch;
mod bitrev;
mod cache;
mod coset;
mod fast;
mod negacyclic;
mod parallel;
mod poly;
mod radix2;
mod six_step;
mod twiddle;
mod vector;

pub use batch::{batch_transform, batch_transform_parallel};
pub use bitrev::{bit_reverse_permute, bit_reversed, reverse_bits};
pub use cache::{cache_capacity, set_cache_capacity, shared_table, DEFAULT_CACHE_CAPACITY};
pub use coset::{coset_intt, coset_ntt, low_degree_extension, standard_shift};
pub use negacyclic::{negacyclic_mul_naive, NegacyclicNtt};
pub use parallel::ParallelNtt;
pub use poly::{cyclic_convolution, poly_mul_naive, poly_mul_ntt};
pub use radix2::{naive_dft, Direction, Ntt};
pub use six_step::{transpose, FourStepNtt};
pub use twiddle::TwiddleTable;
pub use vector::{
    active_backend_label, active_vector_backend, VectorBackend, VECTOR_DIRECT_MAX_LOG_N,
};
