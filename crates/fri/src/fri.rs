//! The FRI low-degree test (commit + query phases), with extension-field
//! soundness.
//!
//! Proves that a committed codeword of length `N = n·2^log_blowup` on the
//! coset `s·H_N` is (close to) the evaluation of a polynomial of degree
//! `< n`. Each round commits the current codeword in a Merkle tree,
//! derives a fold challenge `β` from the transcript, and halves:
//!
//! ```text
//! f'(x²) = (f(x) + f(−x))/2 + β · (f(x) − f(−x))/(2x)
//! ```
//!
//! so the domain squares (`s ← s²`, `H_N ← H_{N/2}`) and the degree bound
//! halves. After `r` rounds the tail codeword is sent in the clear and the
//! verifier interpolates it. Spot-check queries then enforce consistency
//! of every fold at random positions.
//!
//! **Why the extension field.** A 64-bit base field gives a cheating
//! prover ~2⁻⁶⁴ odds per challenge — not enough. As in production systems
//! (Plonky2, Plonky3), all codeword values and fold challenges live in
//! [`GoldilocksExt2`] (~128-bit challenges); the evaluation *points*
//! remain in the base field, so domain arithmetic and twiddles stay
//! 64-bit, and interpolation works component-wise by `F_p`-linearity.

use unintt_ff::{batch_inverse, Field, Goldilocks, GoldilocksExt2, PrimeField, TwoAdicField};
use unintt_ntt::{coset_intt, Ntt};

use crate::hash::{compress, hash_elements, Digest};
use crate::merkle::{MerklePath, MerkleTree};

/// FRI parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FriConfig {
    /// Rate: the codeword is `2^log_blowup` times longer than the degree
    /// bound.
    pub log_blowup: u32,
    /// Number of spot-check queries (soundness ≈ `(1/2^log_blowup)^q`-ish).
    pub num_queries: usize,
    /// Folding stops when the codeword reaches `2^log_final_len`.
    pub log_final_len: u32,
}

impl FriConfig {
    /// A sensible test configuration: blowup 4, 24 queries.
    pub fn standard() -> Self {
        Self {
            log_blowup: 2,
            num_queries: 24,
            log_final_len: 3,
        }
    }
}

/// One query's openings in one layer: the two points folded together.
#[derive(Clone, Debug, PartialEq)]
pub struct FriQueryRound {
    /// Opening at position `j` (`j < L/2`).
    pub low: MerklePath,
    /// Opening at position `j + L/2`.
    pub high: MerklePath,
}

/// One query: a chain of paired openings through every layer.
#[derive(Clone, Debug, PartialEq)]
pub struct FriQueryProof {
    /// Per-layer openings, outermost layer first.
    pub rounds: Vec<FriQueryRound>,
}

/// A complete FRI proof.
#[derive(Clone, Debug, PartialEq)]
pub struct FriProof {
    /// Merkle roots of each committed layer (layer 0 = input codeword).
    pub layer_roots: Vec<Digest>,
    /// The final (unfolded) codeword, sent in the clear.
    pub final_codeword: Vec<GoldilocksExt2>,
    /// Spot-check queries.
    pub queries: Vec<FriQueryProof>,
}

/// Embeds a base-field codeword into the extension (the usual entry point
/// when a single column, rather than a combination, is tested).
pub fn embed(values: &[Goldilocks]) -> Vec<GoldilocksExt2> {
    values
        .iter()
        .map(|&v| GoldilocksExt2::from_base(v))
        .collect()
}

/// A Merkle row for one extension element: its two base coefficients.
fn ext_row(v: &GoldilocksExt2) -> Vec<Goldilocks> {
    vec![v.a, v.b]
}

fn row_to_ext(row: &[Goldilocks]) -> Option<GoldilocksExt2> {
    if row.len() != 2 {
        return None;
    }
    Some(GoldilocksExt2::new(row[0], row[1]))
}

/// Coset interpolation of an extension vector: component-wise iNTT (the
/// transform is `F_p`-linear and the domain is base-field).
fn coset_intt_ext(values: &[GoldilocksExt2], shift: Goldilocks) -> Vec<GoldilocksExt2> {
    let ntt = Ntt::<Goldilocks>::new(values.len().trailing_zeros());
    let mut re: Vec<Goldilocks> = values.iter().map(|v| v.a).collect();
    let mut im: Vec<Goldilocks> = values.iter().map(|v| v.b).collect();
    coset_intt(&ntt, &mut re, shift);
    coset_intt(&ntt, &mut im, shift);
    re.into_iter()
        .zip(im)
        .map(|(a, b)| GoldilocksExt2::new(a, b))
        .collect()
}

/// Minimal transcript over digests (deterministic Fiat–Shamir).
#[derive(Clone, Debug)]
struct FriTranscript {
    state: Digest,
}

impl FriTranscript {
    fn new(seed: &Digest) -> Self {
        let domain = hash_elements(&[Goldilocks::from_u64(0x4652_4921)]); // "FRI!"
        Self {
            state: compress(&domain, seed),
        }
    }

    fn absorb_digest(&mut self, d: &Digest) {
        self.state = compress(&self.state, d);
    }

    fn absorb_ext_elements(&mut self, v: &[GoldilocksExt2]) {
        let flat: Vec<Goldilocks> = v.iter().flat_map(|e| [e.a, e.b]).collect();
        let h = hash_elements(&flat);
        self.absorb_digest(&h);
    }

    fn challenge_base(&mut self) -> Goldilocks {
        self.state = compress(&self.state, &Digest::zero());
        self.state.0[0]
    }

    /// An extension-field challenge (~128 bits of entropy).
    fn challenge_ext(&mut self) -> GoldilocksExt2 {
        let a = self.challenge_base();
        let b = self.challenge_base();
        GoldilocksExt2::new(a, b)
    }

    fn challenge_index(&mut self, bound: usize) -> usize {
        debug_assert!(bound.is_power_of_two());
        (self.challenge_base().to_canonical_u64() as usize) & (bound - 1)
    }
}

/// The coset shift of layer `i` (`s^{2^i}` for initial shift `s`).
fn layer_shift(initial: Goldilocks, layer: usize) -> Goldilocks {
    let mut s = initial;
    for _ in 0..layer {
        s = s.square();
    }
    s
}

/// Folds a codeword once with challenge `beta`.
///
/// `codeword` lives on `shift·H_L`; the result lives on `shift²·H_{L/2}`.
fn fold(
    codeword: &[GoldilocksExt2],
    shift: Goldilocks,
    beta: GoldilocksExt2,
) -> Vec<GoldilocksExt2> {
    let l = codeword.len();
    debug_assert!(l.is_power_of_two() && l >= 2);
    let half = l / 2;
    let omega = Goldilocks::two_adic_generator(l.trailing_zeros());
    let two_inv = Goldilocks::TWO.inverse().expect("2 is invertible");

    // 1/(2·x_j) for j < half, batch-inverted in the base field.
    let mut denom: Vec<Goldilocks> = Vec::with_capacity(half);
    let mut x = shift;
    for _ in 0..half {
        denom.push(x.double());
        x *= omega;
    }
    batch_inverse(&mut denom);

    (0..half)
        .map(|j| {
            let even = (codeword[j] + codeword[j + half]) * two_inv;
            let odd = (codeword[j] - codeword[j + half]) * denom[j];
            even + beta * odd
        })
        .collect()
}

/// Proves that `codeword` (on the coset `shift·H_N`) has degree
/// `< N / 2^log_blowup`.
///
/// # Panics
///
/// Panics if the codeword length is not a power of two at least
/// `2^(log_final_len + 1)`.
pub fn prove(config: &FriConfig, codeword: Vec<GoldilocksExt2>, shift: Goldilocks) -> FriProof {
    prove_seeded(config, codeword, shift, &Digest::zero())
}

/// [`prove`] with a transcript seed, binding the FRI challenges to prior
/// protocol messages (commitment roots, evaluation claims).
pub fn prove_seeded(
    config: &FriConfig,
    codeword: Vec<GoldilocksExt2>,
    shift: Goldilocks,
    seed: &Digest,
) -> FriProof {
    let n = codeword.len();
    assert!(
        n.is_power_of_two(),
        "codeword length must be a power of two"
    );
    assert!(
        n >= 1 << (config.log_final_len + 1),
        "codeword of length {n} is already at or below the final length"
    );

    let mut transcript = FriTranscript::new(seed);
    let mut layers: Vec<Vec<GoldilocksExt2>> = vec![codeword];
    let mut trees: Vec<MerkleTree> = Vec::new();
    let mut layer_roots = Vec::new();

    // Commit phase.
    let mut layer = 0usize;
    while layers[layer].len() > 1 << config.log_final_len {
        let rows: Vec<Vec<Goldilocks>> = layers[layer].iter().map(ext_row).collect();
        let tree = MerkleTree::commit(&rows);
        transcript.absorb_digest(&tree.root());
        layer_roots.push(tree.root());
        trees.push(tree);

        let beta = transcript.challenge_ext();
        let next = fold(&layers[layer], layer_shift(shift, layer), beta);
        layers.push(next);
        layer += 1;
    }
    let final_codeword = layers.last().expect("at least one layer").clone();
    transcript.absorb_ext_elements(&final_codeword);

    // Query phase. Row matrices are materialized once per layer.
    let rows_per_layer: Vec<Vec<Vec<Goldilocks>>> = layers[..trees.len()]
        .iter()
        .map(|layer| layer.iter().map(ext_row).collect())
        .collect();
    let outer_len = layers[0].len();
    let mut queries = Vec::with_capacity(config.num_queries);
    for _ in 0..config.num_queries {
        let mut index = transcript.challenge_index(outer_len);
        let mut rounds = Vec::with_capacity(trees.len());
        for (i, tree) in trees.iter().enumerate() {
            let half = layers[i].len() / 2;
            let low_idx = index % half;
            rounds.push(FriQueryRound {
                low: tree.open(&rows_per_layer[i], low_idx),
                high: tree.open(&rows_per_layer[i], low_idx + half),
            });
            index = low_idx;
        }
        queries.push(FriQueryProof { rounds });
    }

    FriProof {
        layer_roots,
        final_codeword,
        queries,
    }
}

/// Verifies a FRI proof for a codeword of length `n` on `shift·H_n`.
pub fn verify(config: &FriConfig, proof: &FriProof, n: usize, shift: Goldilocks) -> bool {
    verify_seeded(config, proof, n, shift, &Digest::zero())
}

/// [`verify`] with a transcript seed (must match the prover's).
pub fn verify_seeded(
    config: &FriConfig,
    proof: &FriProof,
    n: usize,
    shift: Goldilocks,
    seed: &Digest,
) -> bool {
    if !n.is_power_of_two() || n < 1 << (config.log_final_len + 1) {
        return false;
    }
    let expected_layers = (n.trailing_zeros() - config.log_final_len) as usize;
    if proof.layer_roots.len() != expected_layers
        || proof.final_codeword.len() != 1 << config.log_final_len
        || proof.queries.len() != config.num_queries
    {
        return false;
    }

    // Replay the transcript.
    let mut transcript = FriTranscript::new(seed);
    let mut betas = Vec::with_capacity(expected_layers);
    for root in &proof.layer_roots {
        transcript.absorb_digest(root);
        betas.push(transcript.challenge_ext());
    }
    transcript.absorb_ext_elements(&proof.final_codeword);

    // Final codeword must be low-degree: interpolate (component-wise) on
    // its coset and check that coefficients above the bound vanish.
    let final_len = proof.final_codeword.len();
    let final_shift = layer_shift(shift, expected_layers);
    let coeffs = coset_intt_ext(&proof.final_codeword, final_shift);
    let degree_bound = final_len >> config.log_blowup;
    if coeffs[degree_bound..].iter().any(|c| !c.is_zero()) {
        return false;
    }

    // Spot checks.
    let two_inv = Goldilocks::TWO.inverse().expect("2 invertible");
    for query in &proof.queries {
        if query.rounds.len() != expected_layers {
            return false;
        }
        let mut index = transcript.challenge_index(n);
        let mut len = n;
        let mut expected_next: Option<GoldilocksExt2> = None;

        for (i, round) in query.rounds.iter().enumerate() {
            let half = len / 2;
            let low_idx = index % half;
            // Structural checks.
            if round.low.index != low_idx || round.high.index != low_idx + half {
                return false;
            }
            if !round.low.verify(&proof.layer_roots[i]) || !round.high.verify(&proof.layer_roots[i])
            {
                return false;
            }
            let (Some(lo), Some(hi)) = (row_to_ext(&round.low.row), row_to_ext(&round.high.row))
            else {
                return false;
            };
            // The opened value must match the previous round's fold.
            if let Some(expected) = expected_next {
                let opened = if index < half { lo } else { hi };
                if opened != expected {
                    return false;
                }
            }
            // Compute this round's fold.
            let omega = Goldilocks::two_adic_generator(len.trailing_zeros());
            let x = layer_shift(shift, i) * omega.pow(low_idx as u64);
            let even = (lo + hi) * two_inv;
            let odd = (lo - hi) * (x.double()).inverse().expect("x nonzero");
            expected_next = Some(even + betas[i] * odd);

            index = low_idx;
            len = half;
        }

        if proof.final_codeword[index] != expected_next.expect("at least one layer") {
            return false;
        }
    }
    true
}

/// Hash permutations performed by [`prove`] (for simulator cost charging):
/// leaf hashing plus interior compressions for each committed layer.
pub fn prove_hash_permutations(config: &FriConfig, n: usize) -> u64 {
    let mut total = 0u64;
    let mut len = n;
    while len > 1 << config.log_final_len {
        total += len as u64; // leaf hashes (1 permutation per 2-element row)
        total += len as u64 - 1; // interior compress nodes
        len /= 2;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ntt::coset_ntt;

    fn low_degree_codeword(
        log_degree: u32,
        log_blowup: u32,
        shift: Goldilocks,
        seed: u64,
    ) -> Vec<GoldilocksExt2> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coeffs: Vec<Goldilocks> = (0..1usize << log_degree)
            .map(|_| Goldilocks::random(&mut rng))
            .collect();
        coeffs.resize(1 << (log_degree + log_blowup), Goldilocks::ZERO);
        let ntt = Ntt::<Goldilocks>::new(log_degree + log_blowup);
        coset_ntt(&ntt, &mut coeffs, shift);
        embed(&coeffs)
    }

    fn shift() -> Goldilocks {
        Goldilocks::GENERATOR
    }

    #[test]
    fn honest_proof_verifies() {
        let config = FriConfig::standard();
        for log_degree in [4u32, 6, 8] {
            let codeword = low_degree_codeword(log_degree, config.log_blowup, shift(), 1);
            let n = codeword.len();
            let proof = prove(&config, codeword, shift());
            assert!(
                verify(&config, &proof, n, shift()),
                "log_degree={log_degree}"
            );
        }
    }

    #[test]
    fn honest_ext_codeword_verifies() {
        // A genuinely extension-valued low-degree codeword (as produced by
        // the pipeline's α-combination) also passes.
        let config = FriConfig::standard();
        let mut rng = StdRng::seed_from_u64(9);
        let log_degree = 6u32;
        let coeffs: Vec<GoldilocksExt2> = (0..1usize << log_degree)
            .map(|_| GoldilocksExt2::random(&mut rng))
            .collect();
        let mut padded = coeffs;
        padded.resize(1 << (log_degree + config.log_blowup), GoldilocksExt2::ZERO);
        // Evaluate component-wise on the coset.
        let ntt = Ntt::<Goldilocks>::new(log_degree + config.log_blowup);
        let mut re: Vec<Goldilocks> = padded.iter().map(|v| v.a).collect();
        let mut im: Vec<Goldilocks> = padded.iter().map(|v| v.b).collect();
        coset_ntt(&ntt, &mut re, shift());
        coset_ntt(&ntt, &mut im, shift());
        let codeword: Vec<GoldilocksExt2> = re
            .into_iter()
            .zip(im)
            .map(|(a, b)| GoldilocksExt2::new(a, b))
            .collect();
        let n = codeword.len();
        let proof = prove(&config, codeword, shift());
        assert!(verify(&config, &proof, n, shift()));
    }

    #[test]
    fn fold_preserves_low_degree_evaluations() {
        // Folding the codeword of f with β must give the codeword of
        // f_e + β·f_o (even/odd split) on the squared domain.
        let mut rng = StdRng::seed_from_u64(2);
        let log_n = 6u32;
        let coeffs: Vec<Goldilocks> = (0..1usize << log_n)
            .map(|_| Goldilocks::random(&mut rng))
            .collect();
        let s = shift();
        let mut codeword_base = coeffs.clone();
        let ntt = Ntt::<Goldilocks>::new(log_n);
        coset_ntt(&ntt, &mut codeword_base, s);

        let beta = GoldilocksExt2::random(&mut rng);
        let folded = fold(&embed(&codeword_base), s, beta);

        // Expected: g(y) with g coeffs g_i = c_{2i} + β·c_{2i+1}, on s²·H.
        let g: Vec<GoldilocksExt2> = (0..1 << (log_n - 1))
            .map(|i| {
                GoldilocksExt2::from_base(coeffs[2 * i])
                    + beta * GoldilocksExt2::from_base(coeffs[2 * i + 1])
            })
            .collect();
        // Evaluate g on s²·H component-wise.
        let half_ntt = Ntt::<Goldilocks>::new(log_n - 1);
        let mut re: Vec<Goldilocks> = g.iter().map(|v| v.a).collect();
        let mut im: Vec<Goldilocks> = g.iter().map(|v| v.b).collect();
        coset_ntt(&half_ntt, &mut re, s.square());
        coset_ntt(&half_ntt, &mut im, s.square());
        let expected: Vec<GoldilocksExt2> = re
            .into_iter()
            .zip(im)
            .map(|(a, b)| GoldilocksExt2::new(a, b))
            .collect();
        assert_eq!(folded, expected);
    }

    #[test]
    fn high_degree_codeword_rejected() {
        let config = FriConfig::standard();
        let mut rng = StdRng::seed_from_u64(3);
        // A random codeword is (whp) far from every low-degree codeword.
        let n = 1usize << 8;
        let codeword: Vec<GoldilocksExt2> =
            (0..n).map(|_| GoldilocksExt2::random(&mut rng)).collect();
        let proof = prove(&config, codeword, shift());
        assert!(!verify(&config, &proof, n, shift()));
    }

    #[test]
    fn degree_just_over_bound_rejected() {
        let config = FriConfig::standard();
        let log_degree = 6u32;
        let s = shift();
        let mut coeffs: Vec<Goldilocks> = {
            let mut rng = StdRng::seed_from_u64(4);
            (0..1usize << log_degree)
                .map(|_| Goldilocks::random(&mut rng))
                .collect()
        };
        coeffs.resize(1 << (log_degree + config.log_blowup), Goldilocks::ZERO);
        // Plant a coefficient above the bound.
        let idx = (1 << log_degree) + 5;
        coeffs[idx] = Goldilocks::ONE;
        let ntt = Ntt::<Goldilocks>::new(log_degree + config.log_blowup);
        let mut codeword = coeffs;
        coset_ntt(&ntt, &mut codeword, s);
        let n = codeword.len();
        let proof = prove(&config, embed(&codeword), s);
        assert!(!verify(&config, &proof, n, s));
    }

    #[test]
    fn tampered_proof_rejected() {
        let config = FriConfig::standard();
        let codeword = low_degree_codeword(6, config.log_blowup, shift(), 5);
        let n = codeword.len();
        let proof = prove(&config, codeword, shift());
        assert!(verify(&config, &proof, n, shift()));

        let mut bad = proof.clone();
        bad.final_codeword[0] += GoldilocksExt2::ONE;
        assert!(!verify(&config, &bad, n, shift()));

        let mut bad = proof.clone();
        bad.queries[0].rounds[0].low.row[0] += Goldilocks::ONE;
        assert!(!verify(&config, &bad, n, shift()));

        let mut bad = proof.clone();
        bad.layer_roots[0] = Digest::zero();
        assert!(!verify(&config, &bad, n, shift()));

        let mut bad = proof;
        bad.queries.pop();
        assert!(!verify(&config, &bad, n, shift()));
    }

    #[test]
    fn hash_permutation_count_positive_and_monotone() {
        let config = FriConfig::standard();
        let small = prove_hash_permutations(&config, 1 << 8);
        let big = prove_hash_permutations(&config, 1 << 10);
        assert!(small > 0);
        assert!(big > small);
    }
}
