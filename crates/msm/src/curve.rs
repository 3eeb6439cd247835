//! BN254 (alt_bn128) G1 curve arithmetic.
//!
//! The curve is `y² = x³ + 3` over [`Bn254Fq`], with group order equal to
//! the [`Bn254Fr`] modulus. Points are represented in affine form
//! ([`G1Affine`]) for storage and in Jacobian form ([`G1Projective`],
//! `x = X/Z²`, `y = Y/Z³`) for arithmetic. Formulas are the standard
//! `a = 0` short-Weierstrass ones (dbl-2009-l, add-2007-bl style).

use core::ops::{Add, AddAssign, Neg};

use rand::Rng;
use unintt_ff::{Bn254Fq, Bn254Fr, Field, PrimeField, U256};

/// The curve coefficient `b = 3` (`a` is 0).
pub fn curve_b() -> Bn254Fq {
    Bn254Fq::from_u64(3)
}

/// A point on BN254 G1 in affine coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct G1Affine {
    /// x-coordinate (meaningless when `infinity` is set).
    pub x: Bn254Fq,
    /// y-coordinate (meaningless when `infinity` is set).
    pub y: Bn254Fq,
    /// Point-at-infinity flag.
    pub infinity: bool,
}

impl G1Affine {
    /// The group identity (point at infinity).
    pub fn identity() -> Self {
        Self {
            x: Bn254Fq::ZERO,
            y: Bn254Fq::ZERO,
            infinity: true,
        }
    }

    /// The standard generator `(1, 2)`.
    pub fn generator() -> Self {
        Self {
            x: Bn254Fq::ONE,
            y: Bn254Fq::from_u64(2),
            infinity: false,
        }
    }

    /// Checks the curve equation `y² = x³ + 3` (identity passes).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + curve_b()
    }

    /// Samples a random group element as `k·G` for uniform `k`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let k = Bn254Fr::random(rng);
        (G1Projective::generator() * k).to_affine()
    }

    /// Converts to Jacobian coordinates.
    pub fn to_projective(&self) -> G1Projective {
        if self.infinity {
            G1Projective::identity()
        } else {
            G1Projective {
                x: self.x,
                y: self.y,
                z: Bn254Fq::ONE,
            }
        }
    }
}

impl Neg for G1Affine {
    type Output = Self;
    fn neg(self) -> Self {
        if self.infinity {
            self
        } else {
            Self {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }
}

impl core::fmt::Display for G1Affine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.infinity {
            write!(f, "G1(∞)")
        } else {
            write!(f, "G1({}, {})", self.x, self.y)
        }
    }
}

/// A point on BN254 G1 in Jacobian coordinates (`x = X/Z²`, `y = Y/Z³`;
/// `Z = 0` encodes the identity).
#[derive(Clone, Copy, Debug)]
pub struct G1Projective {
    /// Jacobian X.
    pub x: Bn254Fq,
    /// Jacobian Y.
    pub y: Bn254Fq,
    /// Jacobian Z.
    pub z: Bn254Fq,
}

impl G1Projective {
    /// The group identity.
    pub fn identity() -> Self {
        Self {
            x: Bn254Fq::ONE,
            y: Bn254Fq::ONE,
            z: Bn254Fq::ZERO,
        }
    }

    /// The standard generator.
    pub fn generator() -> Self {
        G1Affine::generator().to_projective()
    }

    /// True if this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`a = 0` Jacobian formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let mut d = (self.x + b).square() - a - c;
        d = d.double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let y3 = e * (d - x3) - c.double().double().double();
        let z3 = (self.y * self.z).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Adds an affine point (mixed addition — the hot path of Pippenger's
    /// bucket accumulation).
    pub fn add_affine(&self, rhs: &G1Affine) -> Self {
        if rhs.infinity {
            return *self;
        }
        if self.is_identity() {
            return rhs.to_projective();
        }
        // Z2 = 1 specialization of the general addition below.
        let z1z1 = self.z.square();
        let u2 = rhs.x * z1z1;
        let s2 = rhs.y * z1z1 * self.z;
        if u2 == self.x {
            return if s2 == self.y {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let r = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication by a [`Bn254Fr`] scalar (double-and-add).
    pub fn mul_scalar(&self, k: &Bn254Fr) -> Self {
        self.mul_u256(&k.to_canonical_u256())
    }

    /// Scalar multiplication by a raw 256-bit integer.
    pub fn mul_u256(&self, k: &U256) -> Self {
        let mut acc = Self::identity();
        let bits = k.bits();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.bit(i as usize) {
                acc += *self;
            }
        }
        acc
    }

    /// Converts to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> G1Affine {
        if self.is_identity() {
            return G1Affine::identity();
        }
        let z_inv = self.z.inverse().expect("nonzero z");
        let z_inv2 = z_inv.square();
        G1Affine {
            x: self.x * z_inv2,
            y: self.y * z_inv2 * z_inv,
            infinity: false,
        }
    }
}

impl Default for G1Projective {
    fn default() -> Self {
        Self::identity()
    }
}

impl PartialEq for G1Projective {
    /// Equality in the group (coordinate-system independent).
    fn eq(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            _ => {
                // X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³
                let z1z1 = self.z.square();
                let z2z2 = other.z.square();
                self.x * z2z2 == other.x * z1z1
                    && self.y * z2z2 * other.z == other.y * z1z1 * self.z
            }
        }
    }
}
impl Eq for G1Projective {}

impl Add for G1Projective {
    type Output = Self;

    /// General Jacobian addition.
    fn add(self, rhs: Self) -> Self {
        if self.is_identity() {
            return rhs;
        }
        if rhs.is_identity() {
            return self;
        }
        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x * z2z2;
        let u2 = rhs.x * z1z1;
        let s1 = self.y * z2z2 * rhs.z;
        let s2 = rhs.y * z1z1 * self.z;
        if u1 == u2 {
            return if s1 == s2 {
                self.double()
            } else {
                Self::identity()
            };
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let r = (s2 - s1).double();
        let v = u1 * i;
        let x3 = r.square() - j - v.double();
        let y3 = r * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + rhs.z).square() - z1z1 - z2z2) * h;
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

impl AddAssign for G1Projective {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Neg for G1Projective {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }
}

impl core::ops::Mul<Bn254Fr> for G1Projective {
    type Output = Self;
    fn mul(self, k: Bn254Fr) -> Self {
        self.mul_scalar(&k)
    }
}

impl From<G1Affine> for G1Projective {
    fn from(p: G1Affine) -> Self {
        p.to_projective()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generator_is_on_curve() {
        assert!(G1Affine::generator().is_on_curve());
        assert!(G1Affine::identity().is_on_curve());
    }

    #[test]
    fn double_equals_add_self() {
        let g = G1Projective::generator();
        assert_eq!(g.double(), g + g);
        let g4 = g.double().double();
        assert_eq!(g4, g + g + g + g);
        assert!(g4.to_affine().is_on_curve());
    }

    #[test]
    fn identity_laws() {
        let g = G1Projective::generator();
        let id = G1Projective::identity();
        assert_eq!(g + id, g);
        assert_eq!(id + g, g);
        assert_eq!(id + id, id);
        assert_eq!(g + (-g), id);
        assert_eq!(id.double(), id);
    }

    #[test]
    fn add_is_commutative_and_associative() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let a = G1Affine::random(&mut rng).to_projective();
            let b = G1Affine::random(&mut rng).to_projective();
            let c = G1Affine::random(&mut rng).to_projective();
            assert_eq!(a + b, b + a);
            assert_eq!((a + b) + c, a + (b + c));
        }
    }

    #[test]
    fn mixed_add_matches_general() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = G1Affine::random(&mut rng).to_projective();
            let b = G1Affine::random(&mut rng);
            assert_eq!(a.add_affine(&b), a + b.to_projective());
        }
        // Edge cases: adding identity, adding the same point, adding the
        // negation.
        let g = G1Projective::generator();
        assert_eq!(g.add_affine(&G1Affine::identity()), g);
        assert_eq!(g.add_affine(&g.to_affine()), g.double());
        assert_eq!(g.add_affine(&(-g.to_affine())), G1Projective::identity());
        assert_eq!(G1Projective::identity().add_affine(&g.to_affine()), g);
    }

    #[test]
    fn scalar_mul_small_values() {
        let g = G1Projective::generator();
        assert_eq!(g.mul_scalar(&Bn254Fr::ZERO), G1Projective::identity());
        assert_eq!(g.mul_scalar(&Bn254Fr::ONE), g);
        assert_eq!(g.mul_scalar(&Bn254Fr::from_u64(2)), g.double());
        assert_eq!(g.mul_scalar(&Bn254Fr::from_u64(5)), g + g + g + g + g);
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = G1Projective::generator();
        for _ in 0..5 {
            let a = Bn254Fr::random(&mut rng);
            let b = Bn254Fr::random(&mut rng);
            assert_eq!(g.mul_scalar(&(a + b)), g.mul_scalar(&a) + g.mul_scalar(&b));
        }
    }

    #[test]
    fn group_order_annihilates() {
        // r·G = identity: the group order is the Fr modulus.
        let g = G1Projective::generator();
        let r = Bn254Fr::MODULUS;
        assert_eq!(g.mul_u256(&r), G1Projective::identity());
        // (r-1)·G = -G
        let r_minus_1 = r.sbb(&U256::ONE).0;
        assert_eq!(g.mul_u256(&r_minus_1), -g);
    }

    #[test]
    fn affine_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let p = G1Affine::random(&mut rng);
            assert!(p.is_on_curve());
            assert_eq!(p.to_projective().to_affine(), p);
        }
        assert_eq!(G1Projective::identity().to_affine(), G1Affine::identity());
    }

    #[test]
    fn projective_eq_ignores_scaling() {
        let g = G1Projective::generator();
        let two = Bn254Fq::from_u64(2);
        let scaled = G1Projective {
            x: g.x * two.square(),
            y: g.y * two.square() * two,
            z: g.z * two,
        };
        assert_eq!(g, scaled);
    }
}
