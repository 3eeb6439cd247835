//! An algebraic sponge hash over Goldilocks.
//!
//! A Rescue/Poseidon-*shaped* permutation: width-8 state, seven rounds of
//! power S-box (`x ↦ x⁷`, a bijection since `gcd(7, p−1) = 1`), round
//! constants, and a circulant mixing matrix. Rate 4, capacity 4, digests
//! of 4 field elements (~256 bits).
//!
//! **Not cryptographically hardened** — it stands in for Poseidon2/RPO in
//! this performance reproduction. What the pipeline needs from it —
//! determinism, full diffusion, fixed cost per permutation for the
//! simulator to charge — it provides.

use unintt_ff::{Field, Goldilocks, PrimeField};

/// Sponge width in field elements.
pub const WIDTH: usize = 8;
/// Sponge rate (elements absorbed per permutation).
pub const RATE: usize = 4;
/// Number of permutation rounds.
pub const ROUNDS: usize = 7;

/// A 4-element (~256-bit) digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Digest(pub [Goldilocks; 4]);

impl Digest {
    /// The all-zero digest.
    pub fn zero() -> Self {
        Self([Goldilocks::ZERO; 4])
    }

    /// Interprets the digest as a `u64` seed (for challenge derivation).
    pub fn as_u64(&self) -> u64 {
        self.0[0].to_canonical_u64()
    }
}

/// Round constants: distinct small pseudo-random values (fixed nothing-up-
/// my-sleeve: digits of π scaled into the field).
const ROUND_CONSTANTS: [u64; ROUNDS * WIDTH] = [
    0x3141592653589793,
    0x2384626433832795,
    0x0288419716939937,
    0x5105820974944592,
    0x3078164062862089,
    0x9862803482534211,
    0x7067982148086513,
    0x2823066470938446,
    0x0955058223172535,
    0x9408128481117450,
    0x2841027019385211,
    0x0555964462294895,
    0x4930381964428810,
    0x9756659334461284,
    0x7564823378678316,
    0x5271201909145648,
    0x5669234603486104,
    0x5432664821339360,
    0x7260249141273724,
    0x5870066063155881,
    0x7488152092096282,
    0x9254091715364367,
    0x8925903600113305,
    0x3054882046652138,
    0x4146951941511609,
    0x4330572703657595,
    0x9195309218611738,
    0x1932611793105118,
    0x5480744623799627,
    0x4956735188575272,
    0x4891227938183011,
    0x9491298336733624,
    0x4065664308602139,
    0x4946395224737190,
    0x7021798609437027,
    0x7053921717629317,
    0x6759859050244594,
    0x5534690830264252,
    0x2308253344685035,
    0x2619311881710100,
    0x0313783875288658,
    0x7533208381420617,
    0x1771309960518707,
    0x2113499999983729,
    0x7804995105973173,
    0x2816096318595024,
    0x4594553469083026,
    0x4252230825334468,
    0x5035261931188171,
    0x0100313783875288,
    0x6587533208381420,
    0x6171771309960518,
    0x7072113499999983,
    0x7297804995105973,
    0x1732816096318595,
    0x0244594553469083,
];

/// The permutation: `ROUNDS` of add-constants → S-box → mix.
pub fn permute(state: &mut [Goldilocks; WIDTH]) {
    for r in 0..ROUNDS {
        // Round constants.
        for (i, s) in state.iter_mut().enumerate() {
            *s += Goldilocks::from_u64(ROUND_CONSTANTS[r * WIDTH + i]);
        }
        // S-box x^7.
        for s in state.iter_mut() {
            let x = *s;
            let x2 = x.square();
            let x4 = x2.square();
            *s = x4 * x2 * x;
        }
        // Circulant mix: out[i] = Σ_j C[(j - i) mod W] · state[j], with
        // small coefficient vector C chosen to be invertible.
        const C: [u64; WIDTH] = [2, 1, 1, 3, 1, 5, 1, 7];
        let old = *state;
        for i in 0..WIDTH {
            let mut acc = Goldilocks::ZERO;
            for (j, &o) in old.iter().enumerate() {
                acc += o * Goldilocks::from_u64(C[(j + WIDTH - i) % WIDTH]);
            }
            state[i] = acc;
        }
    }
}

/// Hashes a slice of field elements (sponge with simple length padding).
pub fn hash_elements(input: &[Goldilocks]) -> Digest {
    let mut state = [Goldilocks::ZERO; WIDTH];
    // Length in the capacity to domain-separate different lengths.
    state[WIDTH - 1] = Goldilocks::from_u64(input.len() as u64);
    for chunk in input.chunks(RATE) {
        for (s, &v) in state.iter_mut().zip(chunk) {
            *s += v;
        }
        permute(&mut state);
    }
    Digest([state[0], state[1], state[2], state[3]])
}

/// Compresses two digests into one (Merkle interior node).
pub fn compress(left: &Digest, right: &Digest) -> Digest {
    let mut state = [Goldilocks::ZERO; WIDTH];
    state[..4].copy_from_slice(&left.0);
    state[4..].copy_from_slice(&right.0);
    permute(&mut state);
    Digest([state[0], state[1], state[2], state[3]])
}

/// Number of permutations needed to hash `len` elements (for cost models).
pub fn permutations_for(len: usize) -> u64 {
    (len.div_ceil(RATE)).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    #[test]
    fn deterministic() {
        let input = random_vec(10, 1);
        assert_eq!(hash_elements(&input), hash_elements(&input));
    }

    #[test]
    fn sensitive_to_every_element() {
        let input = random_vec(9, 2);
        let base = hash_elements(&input);
        for i in 0..input.len() {
            let mut changed = input.clone();
            changed[i] += Goldilocks::ONE;
            assert_ne!(hash_elements(&changed), base, "i={i}");
        }
    }

    #[test]
    fn length_domain_separation() {
        // A vector and its zero-extension must hash differently.
        let input = random_vec(4, 3);
        let mut padded = input.clone();
        padded.push(Goldilocks::ZERO);
        assert_ne!(hash_elements(&input), hash_elements(&padded));
        assert_ne!(hash_elements(&[]), hash_elements(&[Goldilocks::ZERO]));
    }

    #[test]
    fn compress_is_order_sensitive() {
        let a = hash_elements(&random_vec(4, 4));
        let b = hash_elements(&random_vec(4, 5));
        assert_ne!(compress(&a, &b), compress(&b, &a));
        assert_ne!(compress(&a, &b), a);
    }

    #[test]
    fn permutation_diffuses_single_bit() {
        let mut s1 = [Goldilocks::ZERO; WIDTH];
        let mut s2 = [Goldilocks::ZERO; WIDTH];
        s2[0] = Goldilocks::ONE;
        permute(&mut s1);
        permute(&mut s2);
        let differing = s1.iter().zip(&s2).filter(|(a, b)| a != b).count();
        assert_eq!(
            differing, WIDTH,
            "one-element change must diffuse everywhere"
        );
    }

    #[test]
    fn permutation_count_helper() {
        assert_eq!(permutations_for(0), 1);
        assert_eq!(permutations_for(4), 1);
        assert_eq!(permutations_for(5), 2);
        assert_eq!(permutations_for(17), 5);
    }
}
