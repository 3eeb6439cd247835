//! The six-step surround of the host NTT: per-stage twiddle packing, the
//! cache-blocked Bailey decomposition, and its tiled transposes.
//!
//! [`crate::Ntt::forward`]/[`crate::Ntt::inverse`] always run the
//! vectorized kernels of [`crate::vector`]. Sizes up to
//! [`crate::VECTOR_DIRECT_MAX_LOG_N`] take one direct lane-packed pass;
//! larger sizes decompose here as `N = N1·N2`: all row transforms run
//! over contiguous, cache-resident rows on the vector plans, and the
//! step-② twiddle multiplication is fused right after the inner
//! transforms while each row is still hot. The bit-reversal of a
//! multi-MiB array — pure random access — never happens.
//!
//! The radix-2 bit-reverse + DIT kernels on [`crate::Ntt`]
//! ([`crate::bit_reverse_permute`] then [`crate::Ntt::dit_in_place`])
//! are the explicit reference every path here is tested against. Every
//! kernel computes the exact DFT over the field and canonicalizes its
//! lanes before returning, and canonical representations are unique, so
//! outputs are bit-identical to that reference.

use std::any::TypeId;
use std::sync::Arc;

use unintt_ff::{Goldilocks, ShoupTwiddle, TwoAdicField};

use crate::twiddle::TwiddleTable;
use crate::{cache, vector, VectorBackend};

/// Packs a twiddle lane into per-stage tables: `stages[s-1][j]` is the
/// stage-`s` DIF twiddle `ω^{j·2^(log_n−s)}`, contiguous so stage loops
/// read sequentially instead of gathering `j << stride`.
pub(crate) fn pack_stages<F: TwoAdicField>(
    lane: &[ShoupTwiddle<F>],
    log_n: u32,
) -> Vec<Vec<ShoupTwiddle<F>>> {
    (1..=log_n)
        .map(|s| {
            let half = 1usize << (s - 1);
            let stride = log_n - s;
            (0..half).map(|j| lane[j << stride]).collect()
        })
        .collect()
}

/// Transpose tile edge: 32×32 Goldilocks elements = 8 KiB, comfortably two
/// L1-resident tiles (source and destination).
const TILE: usize = 32;

/// Blocked out-of-place transpose: `dst[c·rows + r] = src[r·cols + c]`
/// (same semantics as [`crate::transpose`], without the allocation).
fn transpose_blocked<F: Copy>(src: &[F], dst: &mut [F], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for rb in (0..rows).step_by(TILE) {
        let r_end = (rb + TILE).min(rows);
        for cb in (0..cols).step_by(TILE) {
            let c_end = (cb + TILE).min(cols);
            for r in rb..r_end {
                for c in cb..c_end {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// In-place blocked transpose of an `n × n` matrix: swaps each
/// above-diagonal tile with its mirror and transposes diagonal tiles where
/// they sit. Same tiling as [`transpose_blocked`] but no second buffer and
/// half the memory passes of a transpose-then-copy sequence. 8-byte
/// fields on AVX2 hardware run 4×4 register micro-tiles instead of
/// element swaps (pure data movement, so the specialization is exact).
fn transpose_in_place_square<F: Copy + 'static>(a: &mut [F], n: usize) {
    debug_assert_eq!(a.len(), n * n);
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<F>() == TypeId::of::<Goldilocks>()
        && n.is_multiple_of(4)
        && n >= 4
        && std::arch::is_x86_feature_detected!("avx2")
    {
        // SAFETY: F is Goldilocks (checked above), a transparent u64;
        // AVX2 presence was just verified.
        unsafe {
            let words = core::slice::from_raw_parts_mut(a.as_mut_ptr().cast::<u64>(), a.len());
            x86::transpose_in_place_square_u64(words, n);
        }
        return;
    }
    for rb in (0..n).step_by(TILE) {
        let r_end = (rb + TILE).min(n);
        for r in rb..r_end {
            for c in (r + 1)..r_end {
                a.swap(r * n + c, c * n + r);
            }
        }
        for cb in ((rb + TILE)..n).step_by(TILE) {
            let c_end = (cb + TILE).min(n);
            for r in rb..r_end {
                for c in cb..c_end {
                    a.swap(r * n + c, c * n + r);
                }
            }
        }
    }
}

/// Multiplies `row[k]` by `ω^{±i2·k}` (step ② of six-step). Uses a pair of
/// interleaved running products restarted every `CHUNK` elements: no
/// strided table gathers, no per-element `pow`, and the two chains hide
/// multiplication latency. The chain update multiplies by the *fixed*
/// `step²`, so it runs as a Shoup product off one prepared constant.
fn twiddle_row<F: TwoAdicField>(row: &mut [F], table: &TwiddleTable<F>, i2: usize, inverse: bool) {
    if i2 == 0 {
        return;
    }
    const CHUNK: usize = 256;
    let root = |e: usize| {
        if inverse {
            table.root_pow_inv(e)
        } else {
            table.root_pow(e)
        }
    };
    let step = root(i2);

    // Goldilocks + AVX-512: 32 running-product lanes (four 8-lane
    // vectors) instead of two. The powers `step^0..step^31` are built
    // once per row and every vector advances by `step^32`, so the
    // serial multiply chain is a quarter as deep and no mid-row
    // `root_pow` table lookups remain. Every lane value is the exact
    // canonical power `base·step^j` the scalar chains produce, and the
    // element product is the same exact field multiplication, so
    // outputs stay bit-identical.
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<F>() == TypeId::of::<Goldilocks>()
        && row.len() >= 32
        && row.len().is_multiple_of(32)
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
    {
        // SAFETY: F is Goldilocks (checked above), transparent over u64.
        let words =
            unsafe { core::slice::from_raw_parts_mut(row.as_mut_ptr().cast::<u64>(), row.len()) };
        let gl = |x: F| -> Goldilocks {
            // SAFETY: same-type transmute, size checked by TypeId above.
            unsafe { *(&x as *const F).cast::<Goldilocks>() }
        };
        let step = gl(step);
        let mut cur = gl(root(0));
        let mut lanes = [0u64; 32];
        for l in lanes.iter_mut() {
            *l = unintt_ff::packed::gl_word(cur);
            cur *= step;
        }
        // `cur` has advanced 32 times: it is now `step^32`.
        // SAFETY: AVX-512F/DQ presence verified above; row length is a
        // multiple of 32.
        unsafe { x86::gl_twiddle_row(words, &lanes, unintt_ff::packed::gl_word(cur)) };
        return;
    }

    let step2 = F::shoup_prepare(step * step);
    for (ci, chunk) in row.chunks_mut(CHUNK).enumerate() {
        let mut cur0 = root(i2 * ci * CHUNK);
        let mut cur1 = cur0 * step;
        for pair in chunk.chunks_exact_mut(2) {
            pair[0] *= cur0;
            pair[1] *= cur1;
            cur0 = F::reduce_lane(F::shoup_mul(cur0, &step2));
            cur1 = F::reduce_lane(F::shoup_mul(cur1, &step2));
        }
    }
}

/// Explicit-SIMD helpers for the six-step surround (transposes and the
/// step-② twiddle pass). Pure data movement plus exact canonical field
/// products: bit-identical to the generic code they replace.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use unintt_ff::packed::avx512 as w8;

    /// Loads a 4×4 `u64` tile at `p` (row stride `n`), transposed.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must be valid for the 4 stride-`n` rows.
    #[inline(always)]
    unsafe fn load_transposed(p: *const u64, n: usize) -> [__m256i; 4] {
        let r0 = _mm256_loadu_si256(p.cast());
        let r1 = _mm256_loadu_si256(p.add(n).cast());
        let r2 = _mm256_loadu_si256(p.add(2 * n).cast());
        let r3 = _mm256_loadu_si256(p.add(3 * n).cast());
        let t0 = _mm256_unpacklo_epi64(r0, r1);
        let t1 = _mm256_unpackhi_epi64(r0, r1);
        let t2 = _mm256_unpacklo_epi64(r2, r3);
        let t3 = _mm256_unpackhi_epi64(r2, r3);
        [
            _mm256_permute2x128_si256::<0x20>(t0, t2),
            _mm256_permute2x128_si256::<0x20>(t1, t3),
            _mm256_permute2x128_si256::<0x31>(t0, t2),
            _mm256_permute2x128_si256::<0x31>(t1, t3),
        ]
    }

    /// Stores four row registers at `p` (row stride `n`).
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p` must be valid for the 4 stride-`n` rows.
    #[inline(always)]
    unsafe fn store_tile(p: *mut u64, n: usize, t: [__m256i; 4]) {
        _mm256_storeu_si256(p.cast(), t[0]);
        _mm256_storeu_si256(p.add(n).cast(), t[1]);
        _mm256_storeu_si256(p.add(2 * n).cast(), t[2]);
        _mm256_storeu_si256(p.add(3 * n).cast(), t[3]);
    }

    /// In-place transpose of an `n × n` row-major `u64` matrix: the same
    /// macro-tiling as the generic path, with 4×4 register micro-tiles
    /// (unpack + 128-bit permute) instead of element swaps.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `a.len() == n·n` and `n % 4 == 0`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn transpose_in_place_square_u64(a: &mut [u64], n: usize) {
        debug_assert_eq!(a.len(), n * n);
        debug_assert!(n.is_multiple_of(4));
        let p = a.as_mut_ptr();
        for rb in (0..n).step_by(super::TILE) {
            let r_end = (rb + super::TILE).min(n);
            for cb in (rb..n).step_by(super::TILE) {
                let c_end = (cb + super::TILE).min(n);
                for r in (rb..r_end).step_by(4) {
                    let c_start = if cb == rb { r } else { cb };
                    for c in (c_start..c_end).step_by(4) {
                        if r == c {
                            let t = load_transposed(p.add(r * n + c), n);
                            store_tile(p.add(r * n + c), n, t);
                        } else {
                            let upper = load_transposed(p.add(r * n + c), n);
                            let lower = load_transposed(p.add(c * n + r), n);
                            store_tile(p.add(c * n + r), n, upper);
                            store_tile(p.add(r * n + c), n, lower);
                        }
                    }
                }
            }
        }
    }

    /// One full step-② twiddle row over Goldilocks words: `row[j] *=
    /// lanes[j mod 32]·step32^⌊j/32⌋` lane-wise, i.e. 32 running
    /// product chains — four 8-lane vectors seeded with
    /// `base·step^0..31` and each advanced by `step^32` — so four
    /// independent chains hide the multiply latency a single chain
    /// would serialize on.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and AVX-512DQ; `row.len() % 32 == 0`; all
    /// inputs canonical.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) unsafe fn gl_twiddle_row(row: &mut [u64], lanes: &[u64; 32], step32: u64) {
        debug_assert_eq!(row.len() % 32, 0);
        let lp = lanes.as_ptr();
        let mut cur0 = _mm512_loadu_si512(lp.cast());
        let mut cur1 = _mm512_loadu_si512(lp.add(8).cast());
        let mut cur2 = _mm512_loadu_si512(lp.add(16).cast());
        let mut cur3 = _mm512_loadu_si512(lp.add(24).cast());
        let s32 = _mm512_set1_epi64(step32 as i64);
        let mut j = 0usize;
        while j < row.len() {
            let p = row.as_mut_ptr().add(j);
            let v0 = _mm512_loadu_si512(p.cast());
            let v1 = _mm512_loadu_si512(p.add(8).cast());
            let v2 = _mm512_loadu_si512(p.add(16).cast());
            let v3 = _mm512_loadu_si512(p.add(24).cast());
            _mm512_storeu_si512(p.cast(), w8::gl_mul(v0, cur0));
            _mm512_storeu_si512(p.add(8).cast(), w8::gl_mul(v1, cur1));
            _mm512_storeu_si512(p.add(16).cast(), w8::gl_mul(v2, cur2));
            _mm512_storeu_si512(p.add(24).cast(), w8::gl_mul(v3, cur3));
            cur0 = w8::gl_mul(cur0, s32);
            cur1 = w8::gl_mul(cur1, s32);
            cur2 = w8::gl_mul(cur2, s32);
            cur3 = w8::gl_mul(cur3, s32);
            j += 32;
        }
    }
}

/// Row transforms for six-step sub-problems on the vector plans (recurses
/// back through the size check, so `log_n > 2·VECTOR_DIRECT_MAX_LOG_N`
/// still works).
fn rows_with<F: TwoAdicField>(data: &mut [F], row_log: u32, inverse: bool, backend: VectorBackend) {
    let row_len = 1usize << row_log;
    if row_log <= vector::VECTOR_DIRECT_MAX_LOG_N {
        let plan = cache::shared_vector_plan::<F>(row_log);
        for row in data.chunks_exact_mut(row_len) {
            if inverse {
                plan.inverse(row, backend);
            } else {
                plan.forward(row, backend);
            }
        }
    } else {
        let table = cache::shared_table::<F>(row_log);
        for row in data.chunks_exact_mut(row_len) {
            if inverse {
                vector::inverse_vector(&table, row, backend);
            } else {
                vector::forward_vector(&table, row, backend);
            }
        }
    }
}

/// Cache-blocked six-step NTT for `N = N1·N2` (`N1 = 2^⌊log_n/2⌋`).
///
/// Forward: transpose → N2 inner NTTs (length N1) fused with step-②
/// twiddles → transpose → N1 outer NTTs (length N2) → transpose. The
/// inverse retraces the same structure with inverse roots; the `1/N1` and
/// `1/N2` scales inside the row inverses compose to the full `1/N`.
pub(crate) fn six_step<F: TwoAdicField>(
    table: &Arc<TwiddleTable<F>>,
    values: &mut [F],
    inverse: bool,
    backend: VectorBackend,
) {
    let log_n = table.log_n();
    let l1 = log_n / 2;
    let l2 = log_n - l1;
    let n1 = 1usize << l1;
    let n2 = 1usize << l2;

    // Even log_n: the matrix is square, so every transpose runs in place —
    // no scratch buffer, and the transpose-then-copy tail collapses into a
    // single pass.
    if n1 == n2 {
        if !inverse {
            transpose_in_place_square(values, n1);
            for (i2, row) in values.chunks_exact_mut(n1).enumerate() {
                rows_with::<F>(row, l1, false, backend);
                twiddle_row(row, table, i2, false);
            }
            transpose_in_place_square(values, n1);
            rows_with::<F>(values, l2, false, backend);
            transpose_in_place_square(values, n1);
        } else {
            transpose_in_place_square(values, n1);
            rows_with::<F>(values, l2, true, backend);
            transpose_in_place_square(values, n1);
            for (i2, row) in values.chunks_exact_mut(n1).enumerate() {
                twiddle_row(row, table, i2, true);
                rows_with::<F>(row, l1, true, backend);
            }
            transpose_in_place_square(values, n1);
        }
        return;
    }

    let mut scratch = vec![F::ZERO; values.len()];
    if !inverse {
        // values[i1·n2 + i2] → scratch[i2·n1 + i1]: columns become rows.
        transpose_blocked(values, &mut scratch, n1, n2);
        for (i2, row) in scratch.chunks_exact_mut(n1).enumerate() {
            rows_with::<F>(row, l1, false, backend);
            twiddle_row(row, table, i2, false);
        }
        transpose_blocked(&scratch, values, n2, n1);
        rows_with::<F>(values, l2, false, backend);
        transpose_blocked(values, &mut scratch, n1, n2);
        values.copy_from_slice(&scratch);
    } else {
        // Exact mirror: undo the final transpose, outer inverses, undo the
        // middle transpose, un-twiddle + inner inverses, undo the first.
        transpose_blocked(values, &mut scratch, n2, n1);
        rows_with::<F>(&mut scratch, l2, true, backend);
        transpose_blocked(&scratch, values, n1, n2);
        for (i2, row) in values.chunks_exact_mut(n1).enumerate() {
            twiddle_row(row, table, i2, true);
            rows_with::<F>(row, l1, true, backend);
        }
        transpose_blocked(values, &mut scratch, n2, n1);
        values.copy_from_slice(&scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::Field;

    fn random_vec<F: Field>(log_n: u32, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..1usize << log_n).map(|_| F::random(&mut rng)).collect()
    }

    /// Dev profiling aid, not a correctness check: prints the per-phase
    /// split of one six-step at 2^22. Run with
    /// `cargo test -p unintt-ntt --release six_step_phase_profile -- --ignored --nocapture`.
    #[test]
    #[ignore = "profiling aid; wall-clock printout only"]
    fn six_step_phase_profile() {
        use std::time::Instant;
        let log_n = 22u32;
        let n1 = 1usize << (log_n / 2);
        let table = cache::shared_table::<Goldilocks>(log_n);
        let mut values = random_vec::<Goldilocks>(log_n, 7);

        let t = Instant::now();
        six_step(&table, &mut values, false, VectorBackend::Native);
        println!("full six-step forward: {:?}", t.elapsed());

        let t = Instant::now();
        transpose_in_place_square(&mut values, n1);
        let one_transpose = t.elapsed();
        println!("one in-place transpose ({n1}x{n1}): {one_transpose:?}");

        let t = Instant::now();
        rows_with::<Goldilocks>(&mut values, log_n / 2, false, VectorBackend::Native);
        println!(
            "one row pass ({n1} rows of 2^{}): {:?}",
            log_n / 2,
            t.elapsed()
        );

        let t = Instant::now();
        for (i2, row) in values.chunks_exact_mut(n1).enumerate() {
            twiddle_row(row, &table, i2, false);
        }
        println!("one twiddle pass: {:?}", t.elapsed());
    }

    #[test]
    fn transpose_blocked_matches_reference() {
        for (rows, cols) in [(1usize, 64usize), (64, 1), (8, 8), (33, 70), (128, 32)] {
            let src: Vec<u32> = (0..rows * cols).map(|x| x as u32).collect();
            let mut dst = vec![0u32; rows * cols];
            transpose_blocked(&src, &mut dst, rows, cols);
            assert_eq!(dst, crate::transpose(&src, rows, cols), "{rows}x{cols}");
        }
    }

    #[test]
    fn transpose_in_place_square_matches_reference() {
        for n in [1usize, 8, 32, 33, 64, 100] {
            let src: Vec<u32> = (0..n * n).map(|x| x as u32).collect();
            let mut inplace = src.clone();
            transpose_in_place_square(&mut inplace, n);
            assert_eq!(inplace, crate::transpose(&src, n, n), "n={n}");
        }
    }
}
