//! The BabyBear field `F_p` with `p = 2^31 - 2^27 + 1 = 2013265921`.
//!
//! BabyBear is the 31-bit field used by RISC Zero and Plonky3: four
//! elements pack into a 128-bit vector lane, and the two-adicity of 27
//! supports NTTs up to length `2^27`. Elements are kept in Montgomery form
//! (`R = 2^32`) internally; the representation is an implementation detail
//! invisible through the [`Field`]/[`PrimeField`] API.

use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::{Field, PrimeField, ShoupField, ShoupTwiddle, TwoAdicField, U256};

/// The BabyBear prime `2^31 - 2^27 + 1`.
pub const BABYBEAR_MODULUS: u32 = 0x7800_0001;

/// `-p^{-1} mod 2^32`, computed by Newton iteration at compile time.
const MONT_NEG_INV: u32 = {
    // Five Newton steps double the valid bits each time: 2^32 needs 5.
    let p = BABYBEAR_MODULUS;
    let mut inv = 1u32;
    let mut i = 0;
    while i < 5 {
        inv = inv.wrapping_mul(2u32.wrapping_sub(p.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
};

/// `R^2 mod p` where `R = 2^32`, for converting into Montgomery form.
const MONT_R2: u32 = {
    // 2^64 mod p by 64 modular doublings of 1.
    let p = BABYBEAR_MODULUS as u64;
    let mut r = 1u64;
    let mut i = 0;
    while i < 64 {
        r <<= 1;
        if r >= p {
            r -= p;
        }
        i += 1;
    }
    r as u32
};

/// `R mod p`, the Montgomery form of 1.
const MONT_R: u32 = {
    let p = BABYBEAR_MODULUS as u64;
    ((1u64 << 32) % p) as u32
};

/// An element of the BabyBear field (Montgomery form internally).
///
/// `#[repr(transparent)]` is a guarantee, not an accident: the packed
/// SIMD kernels (see [`crate::packed`]) reinterpret `&mut [BabyBear]`
/// as `&mut [u32]` lane buffers, which is only sound with a pinned layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct BabyBear(u32);

impl BabyBear {
    /// Montgomery reduction of a 64-bit value: returns `x · R^{-1} mod p`.
    #[inline]
    fn mont_reduce(x: u64) -> u32 {
        let m = (x as u32).wrapping_mul(MONT_NEG_INV);
        let t = ((x as u128 + m as u128 * BABYBEAR_MODULUS as u128) >> 32) as u32;
        if t >= BABYBEAR_MODULUS {
            t - BABYBEAR_MODULUS
        } else {
            t
        }
    }

    #[inline]
    fn mont_mul(a: u32, b: u32) -> u32 {
        Self::mont_reduce(a as u64 * b as u64)
    }

    /// The canonical `u32` value in `[0, p)`.
    #[inline]
    pub fn value(&self) -> u32 {
        Self::mont_reduce(self.0 as u64)
    }

    /// The raw Montgomery lane word (no conversion). Used by the packed
    /// kernels, which operate on Montgomery words directly.
    #[inline]
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }
}

impl Add for BabyBear {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut s = self.0 + rhs.0; // both < p < 2^31, no overflow
        if s >= BABYBEAR_MODULUS {
            s -= BABYBEAR_MODULUS;
        }
        Self(s)
    }
}

impl Sub for BabyBear {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow {
            d.wrapping_add(BABYBEAR_MODULUS)
        } else {
            d
        })
    }
}

impl Mul for BabyBear {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self(Self::mont_mul(self.0, rhs.0))
    }
}

impl Neg for BabyBear {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self(BABYBEAR_MODULUS - self.0)
        }
    }
}

impl AddAssign for BabyBear {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl SubAssign for BabyBear {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl MulAssign for BabyBear {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Sum for BabyBear {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}
impl Product for BabyBear {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl core::fmt::Display for BabyBear {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.value())
    }
}

impl Field for BabyBear {
    const ZERO: Self = Self(0);
    const ONE: Self = Self(MONT_R);
    const TWO: Self = Self({
        let two = 2 * MONT_R as u64;
        (if two >= BABYBEAR_MODULUS as u64 {
            two - BABYBEAR_MODULUS as u64
        } else {
            two
        }) as u32
    });

    fn inverse(&self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        let inv = self.pow(BABYBEAR_MODULUS as u64 - 2);
        debug_assert!((*self * inv).is_one());
        Some(inv)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let v = rng.gen::<u32>() & 0x7fff_ffff;
            if v < BABYBEAR_MODULUS {
                return Self::from_u64(v as u64);
            }
        }
    }
}

impl PrimeField for BabyBear {
    const MODULUS: U256 = U256::from_u64(BABYBEAR_MODULUS as u64);
    const MODULUS_BITS: u32 = 31;
    // 31 generates F_p^*: p - 1 = 2^27 · 3 · 5 (checked in tests).
    const GENERATOR: Self = Self({
        // 31 in Montgomery form: 31 * R mod p, computed at compile time.
        let p = BABYBEAR_MODULUS as u64;
        ((31u64 << 32) % p) as u32
    });
    const NAME: &'static str = "BabyBear";
    const BYTES: usize = 4;

    #[inline]
    fn from_u64(v: u64) -> Self {
        let reduced = (v % BABYBEAR_MODULUS as u64) as u32;
        Self(Self::mont_mul(reduced, MONT_R2))
    }

    fn from_u256(v: U256) -> Self {
        let r = v.reduce(&Self::MODULUS);
        Self::from_u64(r.limbs()[0])
    }

    fn to_canonical_u256(&self) -> U256 {
        U256::from_u64(self.value() as u64)
    }
}

impl TwoAdicField for BabyBear {
    const TWO_ADICITY: u32 = 27;
}

/// Twice the modulus: the upper bound of a lazy BabyBear lane.
const TWO_P: u64 = 2 * BABYBEAR_MODULUS as u64;

/// Harvey/Shoup kernels. Lanes are raw `u32` values in `[0, 2p)` — the
/// redundant range fits the word comfortably (`2p < 2^32`), so butterflies
/// skip the final canonicalization and a whole conditional subtraction per
/// add/sub until [`ShoupField::reduce_lane`] runs at the end of a kernel.
///
/// Twiddle companions are stored in **plain** (non-Montgomery) form:
/// multiplying a Montgomery lane `x·R` by a plain constant `w` yields
/// `(x·w)·R`, i.e. the product stays in Montgomery form without a
/// Montgomery reduction — this is what makes Shoup multiplication
/// compatible with the internal representation.
impl ShoupField for BabyBear {
    const SHOUP_ACCELERATED: bool = true;
    /// Eight 32-bit lanes fill a 256-bit vector register.
    const LANES: usize = 8;

    #[inline]
    fn shoup_prepare(w: Self) -> ShoupTwiddle<Self> {
        let plain = w.value() as u64; // out of Montgomery form
        let quot = (plain << 32) / BABYBEAR_MODULUS as u64; // ⌊w·2^32/p⌋
        ShoupTwiddle {
            w,
            aux: (quot << 32) | plain,
        }
    }

    #[inline]
    fn shoup_mul(a: Self, t: &ShoupTwiddle<Self>) -> Self {
        let plain = t.aux & 0xffff_ffff;
        let quot = t.aux >> 32;
        let q = (a.0 as u64 * quot) >> 32;
        // a·w − q·p ∈ [0, 2p) for any 32-bit lane `a`: exact in u64.
        Self((a.0 as u64 * plain - q * BABYBEAR_MODULUS as u64) as u32)
    }

    #[inline]
    fn dit_butterfly(u: Self, v: Self, t: &ShoupTwiddle<Self>) -> (Self, Self) {
        let x = Self::shoup_mul(v, t).0 as u64; // [0, 2p)
        let s = u.0 as u64 + x; // [0, 4p): one conditional step back to [0, 2p)
        let s = if s >= TWO_P { s - TWO_P } else { s };
        let d = u.0 as u64 + TWO_P - x; // (0, 4p)
        let d = if d >= TWO_P { d - TWO_P } else { d };
        (Self(s as u32), Self(d as u32))
    }

    #[inline]
    fn dif_butterfly(u: Self, v: Self, t: &ShoupTwiddle<Self>) -> (Self, Self) {
        let s = u.0 as u64 + v.0 as u64;
        let s = if s >= TWO_P { s - TWO_P } else { s };
        let d = u.0 as u64 + TWO_P - v.0 as u64;
        let d = if d >= TWO_P { d - TWO_P } else { d };
        (Self(s as u32), Self::shoup_mul(Self(d as u32), t))
    }

    #[inline]
    fn reduce_lane(x: Self) -> Self {
        Self(if x.0 >= BABYBEAR_MODULUS {
            x.0 - BABYBEAR_MODULUS
        } else {
            x.0
        })
    }
}

impl From<u32> for BabyBear {
    fn from(v: u32) -> Self {
        Self::from_u64(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn montgomery_constants() {
        // R * R^{-1} ≡ 1: reducing R should give 1.
        assert_eq!(BabyBear::mont_reduce(MONT_R as u64), 1);
        // -p * p^{-1} ≡ 1 (mod 2^32)
        assert_eq!(BABYBEAR_MODULUS.wrapping_mul(MONT_NEG_INV), u32::MAX);
        assert_eq!(
            BABYBEAR_MODULUS.wrapping_mul(MONT_NEG_INV.wrapping_neg()),
            1
        );
    }

    #[test]
    fn roundtrip_values() {
        for v in [0u64, 1, 2, 31, 12345, BABYBEAR_MODULUS as u64 - 1] {
            assert_eq!(BabyBear::from_u64(v).value(), v as u32);
        }
        assert_eq!(BabyBear::from_u64(BABYBEAR_MODULUS as u64).value(), 0);
    }

    #[test]
    fn mul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let a = BabyBear::random(&mut rng);
            let b = BabyBear::random(&mut rng);
            let expected = (a.value() as u64 * b.value() as u64 % BABYBEAR_MODULUS as u64) as u32;
            assert_eq!((a * b).value(), expected);
        }
    }

    #[test]
    fn generator_properties() {
        let g = BabyBear::GENERATOR;
        let p1 = BABYBEAR_MODULUS as u64 - 1;
        // p - 1 = 2^27 * 3 * 5
        assert_eq!(p1, (1 << 27) * 15);
        assert_eq!(g.pow(p1 / 2), -BabyBear::ONE);
        assert!(!g.pow(p1 / 3).is_one());
        assert!(!g.pow(p1 / 5).is_one());
        assert!(g.pow(p1).is_one());
    }

    #[test]
    fn two_adic_generator_orders() {
        for bits in [0u32, 1, 4, 10, 27] {
            let w = BabyBear::two_adic_generator(bits);
            assert!(w.pow(1u64 << bits).is_one());
            if bits > 0 {
                assert!(!w.pow(1u64 << (bits - 1)).is_one());
            }
        }
    }

    #[test]
    #[should_panic(expected = "two-adicity")]
    fn two_adic_generator_beyond_adicity_panics() {
        let _ = BabyBear::two_adic_generator(28);
    }

    #[test]
    fn inverse_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let a = BabyBear::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert!((a * a.inverse().unwrap()).is_one());
        }
        assert!(BabyBear::ZERO.inverse().is_none());
    }
}
