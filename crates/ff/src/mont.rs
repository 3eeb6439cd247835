//! Generic 256-bit Montgomery-form prime fields.
//!
//! [`Mont<P>`] implements a prime field for any modulus described by a
//! [`MontParams`] instance. The Montgomery constants (`R mod p`, `R² mod p`,
//! `-p⁻¹ mod 2^64`) are derived from the modulus at compile time, so adding
//! a new 256-bit field is a matter of writing one small params struct.
//!
//! Multiplication uses the CIOS (coarsely integrated operand scanning)
//! algorithm. Since every modulus used here is below `2^254`, the CIOS
//! intermediate fits in four limbs plus one carry and a single conditional
//! subtraction canonicalizes the result.

use core::iter::{Product, Sum};
use core::marker::PhantomData;
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::{Field, PrimeField, U256};

/// Compile-time description of a 256-bit prime field.
pub trait MontParams:
    Copy + Clone + Send + Sync + Eq + core::hash::Hash + core::fmt::Debug + Default + 'static
{
    /// The field modulus. Must be odd and below `2^254`.
    const MODULUS: U256;
    /// Number of significant bits of the modulus.
    const MODULUS_BITS: u32;
    /// A small integer generating the full multiplicative group.
    const GENERATOR_U64: u64;
    /// Human-readable field name.
    const NAME: &'static str;
}

/// Computes `-p⁻¹ mod 2^64` by Newton iteration (valid for odd `p`).
const fn neg_inv64(p0: u64) -> u64 {
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Computes `2^k mod p` by `k` modular doublings.
const fn pow2_mod(k: u32, modulus: &U256) -> U256 {
    let mut r = U256::ONE;
    let mut i = 0;
    while i < k {
        r = r.double_mod(modulus);
        i += 1;
    }
    r
}

/// An element of the field described by `P`, stored in Montgomery form.
pub struct Mont<P: MontParams> {
    repr: U256,
    _marker: PhantomData<P>,
}

// Manual impls: derive would put unnecessary bounds on `P`.
impl<P: MontParams> Clone for Mont<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: MontParams> Copy for Mont<P> {}
impl<P: MontParams> PartialEq for Mont<P> {
    fn eq(&self, other: &Self) -> bool {
        self.repr == other.repr
    }
}
impl<P: MontParams> Eq for Mont<P> {}
impl<P: MontParams> core::hash::Hash for Mont<P> {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.repr.hash(state);
    }
}
impl<P: MontParams> Default for Mont<P> {
    fn default() -> Self {
        Self::ZERO
    }
}
impl<P: MontParams> core::fmt::Debug for Mont<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}({})", P::NAME, self.to_canonical_u256())
    }
}
impl<P: MontParams> core::fmt::Display for Mont<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_canonical_u256())
    }
}

impl<P: MontParams> Mont<P> {
    /// `-p⁻¹ mod 2^64`.
    const NEG_INV: u64 = neg_inv64(P::MODULUS.limbs()[0]);
    /// `R mod p`, i.e. the Montgomery form of 1.
    const R: U256 = pow2_mod(256, &P::MODULUS);
    /// `R² mod p`, used to enter Montgomery form.
    const R2: U256 = pow2_mod(512, &P::MODULUS);

    /// Builds an element directly from a Montgomery-form representation.
    pub(crate) const fn from_repr(repr: U256) -> Self {
        Self {
            repr,
            _marker: PhantomData,
        }
    }

    /// The raw Montgomery representation (for tests and serialization).
    pub const fn repr(&self) -> U256 {
        self.repr
    }

    /// CIOS Montgomery multiplication: returns `a · b · R⁻¹ mod p`.
    fn mont_mul(a: &U256, b: &U256) -> U256 {
        let p = P::MODULUS.limbs();
        let a = a.limbs();
        let b = b.limbs();
        let mut t = [0u64; 6];

        for &ai in a.iter() {
            // t += ai * b
            let mut carry = 0u64;
            for j in 0..4 {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
                t[j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[4] as u128 + carry as u128;
            t[4] = s as u64;
            t[5] = (s >> 64) as u64; // 0 or 1

            // Reduce one limb: m chosen so t + m*p ≡ 0 (mod 2^64).
            let m = t[0].wrapping_mul(Self::NEG_INV);
            let s = t[0] as u128 + m as u128 * p[0] as u128;
            let mut carry = (s >> 64) as u64;
            for j in 1..4 {
                let s = t[j] as u128 + m as u128 * p[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[4] as u128 + carry as u128;
            t[3] = s as u64;
            t[4] = t[5] + ((s >> 64) as u64); // each term ≤ 1, no overflow
            t[5] = 0;
        }

        debug_assert!(t[4] == 0, "CIOS overflow: modulus must be < 2^254");
        let r = U256::from_limbs([t[0], t[1], t[2], t[3]]);
        let (sub, borrow) = r.sbb(&P::MODULUS);
        if borrow {
            r
        } else {
            sub
        }
    }
}

impl<P: MontParams> Add for Mont<P> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_repr(self.repr.add_mod(&rhs.repr, &P::MODULUS))
    }
}
impl<P: MontParams> Sub for Mont<P> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_repr(self.repr.sub_mod(&rhs.repr, &P::MODULUS))
    }
}
impl<P: MontParams> Mul for Mont<P> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_repr(Self::mont_mul(&self.repr, &rhs.repr))
    }
}
impl<P: MontParams> Neg for Mont<P> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.repr.is_zero() {
            self
        } else {
            Self::from_repr(P::MODULUS.sbb(&self.repr).0)
        }
    }
}
impl<P: MontParams> AddAssign for Mont<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<P: MontParams> SubAssign for Mont<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<P: MontParams> MulAssign for Mont<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<P: MontParams> Sum for Mont<P> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}
impl<P: MontParams> Product for Mont<P> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

/// Generic Montgomery fields use the canonical [`crate::ShoupField`]
/// fallback: 256-bit operands do not fit the word-level Shoup scheme, and
/// the NTT kernels remain exact (just unaccelerated) through the defaults.
impl<P: MontParams> crate::ShoupField for Mont<P> {}

impl<P: MontParams> Field for Mont<P> {
    const ZERO: Self = Self::from_repr(U256::ZERO);
    const ONE: Self = Self::from_repr(Self::R);
    const TWO: Self = Self::from_repr(Self::R.double_mod(&P::MODULUS));

    fn inverse(&self) -> Option<Self> {
        if self.repr.is_zero() {
            return None;
        }
        // Fermat: a^(p-2).
        let exp = P::MODULUS.sbb(&U256::from_u64(2)).0;
        let inv = self.pow_u256(&exp);
        debug_assert!((*self * inv).is_one());
        Some(inv)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Sample 256 random bits and rejection-sample below the modulus.
        loop {
            let mut limbs = [0u64; 4];
            for l in &mut limbs {
                *l = rng.gen();
            }
            // Mask the top limb down to the modulus bit-width to make
            // acceptance likely.
            let top_bits = P::MODULUS_BITS.saturating_sub(192).min(64);
            if top_bits < 64 {
                limbs[3] &= (1u64 << top_bits) - 1;
            }
            let v = U256::from_limbs(limbs);
            if v.lt(&P::MODULUS) {
                // `v` is uniform in [0, p); interpret as Montgomery form,
                // which is a bijection, so the field element is uniform too.
                return Self::from_repr(v);
            }
        }
    }
}

impl<P: MontParams> PrimeField for Mont<P> {
    const MODULUS: U256 = P::MODULUS;
    const MODULUS_BITS: u32 = P::MODULUS_BITS;
    const GENERATOR: Self = {
        // GENERATOR_U64 · R mod p == GENERATOR_U64 doublings-free product;
        // computed as pow2_mod-based multiply would need runtime, so store
        // g·R by repeated modular addition at compile time.
        let mut acc = U256::ZERO;
        let mut i = 0;
        while i < P::GENERATOR_U64 {
            acc = acc.add_mod(&Self::R, &P::MODULUS);
            i += 1;
        }
        Self::from_repr(acc)
    };
    const NAME: &'static str = P::NAME;
    const BYTES: usize = 32;

    fn from_u64(v: u64) -> Self {
        Self::from_u256(U256::from_u64(v))
    }

    fn from_u256(v: U256) -> Self {
        let reduced = v.reduce(&P::MODULUS);
        // Enter Montgomery form: v · R = mont_mul(v, R²).
        Self::from_repr(Self::mont_mul(&reduced, &Self::R2))
    }

    fn to_canonical_u256(&self) -> U256 {
        // Leave Montgomery form: mont_mul(a·R, 1) = a.
        Self::mont_mul(&self.repr, &U256::ONE)
    }
}

/// Parameters of the BN254 (alt_bn128) scalar field.
///
/// `r = 21888242871839275222246405745257275088548364400416034343698204186575808495617`,
/// the group order of the BN254 G1/G2 groups. Its two-adicity of 28 makes it
/// the classic NTT field of SNARK provers (Groth16, PLONK on BN254).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Bn254FrParams;

impl MontParams for Bn254FrParams {
    const MODULUS: U256 = U256::from_limbs([
        0x43e1_f593_f000_0001,
        0x2833_e848_79b9_7091,
        0xb850_45b6_8181_585d,
        0x3064_4e72_e131_a029,
    ]);
    const MODULUS_BITS: u32 = 254;
    const GENERATOR_U64: u64 = 5;
    const NAME: &'static str = "BN254-Fr";
}

/// The BN254 scalar field.
pub type Bn254Fr = Mont<Bn254FrParams>;

impl crate::TwoAdicField for Bn254Fr {
    const TWO_ADICITY: u32 = 28;
}

/// Parameters of the BN254 (alt_bn128) base field.
///
/// `q = 21888242871839275222246405745257275088696311157297823662689037894645226208583`.
/// `q - 1` is only divisible by 2 once, so this field supports no radix-2
/// NTT; it exists here as the coordinate field of the BN254 G1 curve used
/// by the MSM substrate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Bn254FqParams;

impl MontParams for Bn254FqParams {
    const MODULUS: U256 = U256::from_limbs([
        0x3c20_8c16_d87c_fd47,
        0x9781_6a91_6871_ca8d,
        0xb850_45b6_8181_585d,
        0x3064_4e72_e131_a029,
    ]);
    const MODULUS_BITS: u32 = 254;
    const GENERATOR_U64: u64 = 3;
    const NAME: &'static str = "BN254-Fq";
}

/// The BN254 base field.
pub type Bn254Fq = Mont<Bn254FqParams>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoAdicField;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn montgomery_constants_fr() {
        // NEG_INV: p0 * (-NEG_INV) ≡ 1 (mod 2^64)
        let p0 = Bn254FrParams::MODULUS.limbs()[0];
        assert_eq!(p0.wrapping_mul(Bn254Fr::NEG_INV.wrapping_neg()), 1);
        // R and R² are reduced.
        assert!(Bn254Fr::R.lt(&Bn254FrParams::MODULUS));
        assert!(Bn254Fr::R2.lt(&Bn254FrParams::MODULUS));
    }

    #[test]
    fn one_times_one() {
        assert_eq!(Bn254Fr::ONE * Bn254Fr::ONE, Bn254Fr::ONE);
        assert_eq!(Bn254Fq::ONE * Bn254Fq::ONE, Bn254Fq::ONE);
    }

    #[test]
    fn canonical_roundtrip() {
        for v in [0u64, 1, 2, 5, u64::MAX] {
            assert_eq!(Bn254Fr::from_u64(v).to_canonical_u256(), U256::from_u64(v),);
        }
    }

    #[test]
    fn small_integer_arithmetic() {
        let a = Bn254Fr::from_u64(123456789);
        let b = Bn254Fr::from_u64(987654321);
        assert_eq!(
            (a * b).to_canonical_u256(),
            U256::from_u128(123456789u128 * 987654321u128)
        );
        assert_eq!(
            (a + b).to_canonical_u256(),
            U256::from_u64(123456789 + 987654321)
        );
    }

    #[test]
    fn mul_matches_schoolbook_mod() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..500 {
            let a = Bn254Fr::random(&mut rng);
            let b = Bn254Fr::random(&mut rng);
            let prod = (a * b).to_canonical_u256();

            // Reference: widening multiply then slow 512-bit reduction done
            // as (hi·(2^256 mod p) + lo) mod p.
            let (lo, hi) = a.to_canonical_u256().widening_mul(&b.to_canonical_u256());
            let r_mod_p = pow2_mod(256, &Bn254FrParams::MODULUS);
            // hi * R mod p via from_u256 arithmetic in the field itself
            // would be circular; instead reduce via double-and-add.
            let mut acc = U256::ZERO;
            let hi_red = hi.reduce(&Bn254FrParams::MODULUS);
            let nbits = hi_red.bits();
            for i in (0..nbits).rev() {
                acc = acc.double_mod(&Bn254FrParams::MODULUS);
                if hi_red.bit(i as usize) {
                    acc = acc.add_mod(&r_mod_p, &Bn254FrParams::MODULUS);
                }
            }
            let expected =
                acc.add_mod(&lo.reduce(&Bn254FrParams::MODULUS), &Bn254FrParams::MODULUS);
            assert_eq!(prod, expected);
        }
    }

    #[test]
    fn fr_generator_is_nonresidue() {
        let g = Bn254Fr::GENERATOR;
        let mut exp = Bn254FrParams::MODULUS.sbb(&U256::ONE).0;
        exp = exp.shr1();
        assert_eq!(g.pow_u256(&exp), -Bn254Fr::ONE);
    }

    #[test]
    fn fq_generator_is_nonresidue() {
        let g = Bn254Fq::GENERATOR;
        let mut exp = Bn254FqParams::MODULUS.sbb(&U256::ONE).0;
        exp = exp.shr1();
        assert_eq!(g.pow_u256(&exp), -Bn254Fq::ONE);
    }

    #[test]
    fn fr_two_adic_generator_orders() {
        for bits in [0u32, 1, 2, 8, 16, 28] {
            let w = Bn254Fr::two_adic_generator(bits);
            let mut x = w;
            // x^(2^bits) by repeated squaring
            for _ in 0..bits {
                x = x.square();
            }
            assert!(x.is_one(), "bits={bits}");
            if bits > 0 {
                let mut y = w;
                for _ in 0..bits - 1 {
                    y = y.square();
                }
                assert!(!y.is_one(), "order too small at bits={bits}");
                assert_eq!(y, -Bn254Fr::ONE, "2^(bits-1) power must be -1");
            }
        }
    }

    #[test]
    fn inverse_random_fr_fq() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let a = Bn254Fr::random(&mut rng);
            assert!((a * a.inverse().unwrap()).is_one());
            let b = Bn254Fq::random(&mut rng);
            assert!((b * b.inverse().unwrap()).is_one());
        }
        assert!(Bn254Fr::ZERO.inverse().is_none());
    }

    #[test]
    fn negation_and_subtraction_agree() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..100 {
            let a = Bn254Fr::random(&mut rng);
            let b = Bn254Fr::random(&mut rng);
            assert_eq!(a - b, a + (-b));
            assert_eq!(a + (-a), Bn254Fr::ZERO);
        }
    }
}
