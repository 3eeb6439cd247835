//! The quadratic extension of Goldilocks, `F_{p²} = F_p[X]/(X² − 7)`.
//!
//! A 64-bit base field gives FRI and DEEP-style protocols only ~64 bits of
//! challenge entropy — not enough. Production systems (Plonky2, Miden)
//! sample their challenges from a degree-2 extension instead. `X² − 7` is
//! irreducible over Goldilocks because 7 is a quadratic non-residue
//! (it is the multiplicative generator of a group of even order, verified
//! in tests).
//!
//! Elements are `a + b·φ` with `φ² = 7`. The extension is a [`Field`] in
//! its own right, so generic code (polynomial evaluation, batch inversion)
//! works unchanged over it.

use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::{Field, Goldilocks, PrimeField};

/// The non-residue `W = 7` defining the extension `X² − W`.
pub fn extension_w() -> Goldilocks {
    Goldilocks::from_u64(7)
}

/// An element `a + b·φ` of `F_{p²}` with `φ² = 7`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct GoldilocksExt2 {
    /// The base-field coefficient.
    pub a: Goldilocks,
    /// The φ coefficient.
    pub b: Goldilocks,
}

impl GoldilocksExt2 {
    /// Builds an element from its two coefficients.
    pub const fn new(a: Goldilocks, b: Goldilocks) -> Self {
        Self { a, b }
    }

    /// Embeds a base-field element.
    pub fn from_base(a: Goldilocks) -> Self {
        Self {
            a,
            b: Goldilocks::ZERO,
        }
    }

    /// The extension generator `φ`.
    pub fn phi() -> Self {
        Self {
            a: Goldilocks::ZERO,
            b: Goldilocks::ONE,
        }
    }

    /// True if the element lies in the base field.
    pub fn is_in_base_field(&self) -> bool {
        self.b.is_zero()
    }

    /// The Frobenius conjugate `a − b·φ` (the image under `x ↦ x^p`).
    pub fn conjugate(&self) -> Self {
        Self {
            a: self.a,
            b: -self.b,
        }
    }

    /// The field norm `N(x) = x·x̄ = a² − 7b²`, an element of the base
    /// field.
    pub fn norm(&self) -> Goldilocks {
        self.a.square() - extension_w() * self.b.square()
    }
}

impl Add for GoldilocksExt2 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self {
            a: self.a + rhs.a,
            b: self.b + rhs.b,
        }
    }
}
impl Sub for GoldilocksExt2 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self {
            a: self.a - rhs.a,
            b: self.b - rhs.b,
        }
    }
}
impl Mul for GoldilocksExt2 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        // (a + bφ)(c + dφ) = ac + 7bd + (ad + bc)φ
        let ac = self.a * rhs.a;
        let bd = self.b * rhs.b;
        let ad = self.a * rhs.b;
        let bc = self.b * rhs.a;
        Self {
            a: ac + extension_w() * bd,
            b: ad + bc,
        }
    }
}
impl Neg for GoldilocksExt2 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self {
            a: -self.a,
            b: -self.b,
        }
    }
}
impl AddAssign for GoldilocksExt2 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for GoldilocksExt2 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for GoldilocksExt2 {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl Sum for GoldilocksExt2 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |x, y| x + y)
    }
}
impl Product for GoldilocksExt2 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |x, y| x * y)
    }
}

impl Mul<Goldilocks> for GoldilocksExt2 {
    type Output = Self;
    /// Scalar multiplication by a base-field element (2 base muls instead
    /// of a full extension product).
    #[inline]
    fn mul(self, rhs: Goldilocks) -> Self {
        Self {
            a: self.a * rhs,
            b: self.b * rhs,
        }
    }
}

impl core::fmt::Display for GoldilocksExt2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} + {}·φ", self.a, self.b)
    }
}

impl Field for GoldilocksExt2 {
    const ZERO: Self = Self::new(Goldilocks::new_unchecked(0), Goldilocks::new_unchecked(0));
    const ONE: Self = Self::new(Goldilocks::new_unchecked(1), Goldilocks::new_unchecked(0));
    const TWO: Self = Self::new(Goldilocks::new_unchecked(2), Goldilocks::new_unchecked(0));

    fn inverse(&self) -> Option<Self> {
        // 1/(a + bφ) = (a − bφ) / (a² − 7b²).
        let norm_inv = self.norm().inverse()?;
        Some(Self {
            a: self.a * norm_inv,
            b: -self.b * norm_inv,
        })
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            a: Goldilocks::random(rng),
            b: Goldilocks::random(rng),
        }
    }
}

impl From<Goldilocks> for GoldilocksExt2 {
    fn from(a: Goldilocks) -> Self {
        Self::from_base(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GOLDILOCKS_MODULUS;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn w_is_a_nonresidue_so_the_extension_is_a_field() {
        // 7^((p-1)/2) == -1 means X² − 7 is irreducible.
        let e = (GOLDILOCKS_MODULUS - 1) / 2;
        assert_eq!(extension_w().pow(e), -Goldilocks::ONE);
    }

    #[test]
    fn phi_squared_is_w() {
        let phi = GoldilocksExt2::phi();
        assert_eq!(phi * phi, GoldilocksExt2::from_base(extension_w()));
    }

    #[test]
    fn field_laws_random() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let x = GoldilocksExt2::random(&mut rng);
            let y = GoldilocksExt2::random(&mut rng);
            let z = GoldilocksExt2::random(&mut rng);
            assert_eq!(x + y, y + x);
            assert_eq!(x * y, y * x);
            assert_eq!((x + y) + z, x + (y + z));
            assert_eq!((x * y) * z, x * (y * z));
            assert_eq!(x * (y + z), x * y + x * z);
            assert_eq!(x + (-x), GoldilocksExt2::ZERO);
            if !x.is_zero() {
                assert_eq!(x * x.inverse().unwrap(), GoldilocksExt2::ONE);
            }
        }
        assert!(GoldilocksExt2::ZERO.inverse().is_none());
    }

    #[test]
    fn embedding_is_a_homomorphism() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let x = Goldilocks::random(&mut rng);
            let y = Goldilocks::random(&mut rng);
            let ex = GoldilocksExt2::from_base(x);
            let ey = GoldilocksExt2::from_base(y);
            assert_eq!(ex + ey, GoldilocksExt2::from_base(x + y));
            assert_eq!(ex * ey, GoldilocksExt2::from_base(x * y));
            assert!(ex.is_in_base_field());
        }
    }

    #[test]
    fn norm_is_multiplicative() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let x = GoldilocksExt2::random(&mut rng);
            let y = GoldilocksExt2::random(&mut rng);
            assert_eq!((x * y).norm(), x.norm() * y.norm());
        }
    }

    #[test]
    fn conjugation_is_an_automorphism_fixing_the_base() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let x = GoldilocksExt2::random(&mut rng);
            let y = GoldilocksExt2::random(&mut rng);
            assert_eq!((x * y).conjugate(), x.conjugate() * y.conjugate());
            assert_eq!((x + y).conjugate(), x.conjugate() + y.conjugate());
            assert_eq!(x.conjugate().conjugate(), x);
        }
        let base = GoldilocksExt2::from_base(Goldilocks::from_u64(42));
        assert_eq!(base.conjugate(), base);
    }

    #[test]
    fn frobenius_matches_pth_power() {
        // x^p must equal the conjugate (the defining Frobenius property).
        let mut rng = StdRng::seed_from_u64(5);
        let x = GoldilocksExt2::random(&mut rng);
        // x^p via square-and-multiply over the 64-bit exponent p.
        let mut acc = GoldilocksExt2::ONE;
        let p = GOLDILOCKS_MODULUS;
        for i in (0..64).rev() {
            acc = acc.square();
            if (p >> i) & 1 == 1 {
                acc *= x;
            }
        }
        assert_eq!(acc, x.conjugate());
    }

    #[test]
    fn base_scalar_mul_matches_embedded_mul() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let x = GoldilocksExt2::random(&mut rng);
            let s = Goldilocks::random(&mut rng);
            assert_eq!(x * s, x * GoldilocksExt2::from_base(s));
        }
    }

    #[test]
    fn pow_and_halve() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = GoldilocksExt2::random(&mut rng);
        assert_eq!(x.pow(5), x * x * x * x * x);
        assert_eq!(x.double().halve(), x);
    }
}
