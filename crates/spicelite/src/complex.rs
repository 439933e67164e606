//! Minimal complex arithmetic used by the AC (small-signal, frequency-domain)
//! analysis engine.
//!
//! The crate deliberately avoids external numerics dependencies, so a small
//! `Complex` type with the handful of operations needed by an MNA solver
//! (add, sub, mul, div, magnitude, argument) is provided here.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Examples
///
/// ```
/// use spicelite::complex::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// let c = a * b;
/// assert!((c.re - 5.0).abs() < 1e-12);
/// assert!((c.im - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The complex zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The complex one.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a purely imaginary complex number.
    pub const fn from_imag(im: f64) -> Self {
        Self { re: 0.0, im }
    }

    /// Magnitude (modulus).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::abs`] when only ordering matters.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-pi, pi]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Argument (phase) in degrees.
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// Returns `true` if either component is NaN.
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` if both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    fn div(self, rhs: Complex) -> Complex {
        // Smith's algorithm to avoid overflow for large components.
        if rhs.re.abs() >= rhs.im.abs() {
            if rhs.re == 0.0 && rhs.im == 0.0 {
                return Complex::new(f64::NAN, f64::NAN);
            }
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::from_real(2.5), Complex::new(2.5, 0.0));
        assert_eq!(Complex::from_imag(-1.5), Complex::new(0.0, -1.5));
        assert_eq!(Complex::from(3.0), Complex::new(3.0, 0.0));
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 4.0);
        let s = a + b;
        assert!(close(s.re, 0.5) && close(s.im, 6.0));
        let d = a - b;
        assert!(close(d.re, 1.5) && close(d.im, -2.0));
        let mut c = a;
        c += b;
        assert_eq!(c, s);
        c -= b;
        assert!(close(c.re, a.re) && close(c.im, a.im));
    }

    #[test]
    fn multiplication() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let p = a * b;
        assert!(close(p.re, 5.0) && close(p.im, 5.0));
        let scaled = a * 2.0;
        assert!(close(scaled.re, 2.0) && close(scaled.im, 4.0));
    }

    #[test]
    fn division_round_trips() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        let q = (a * b) / b;
        assert!(close(q.re, a.re) && close(q.im, a.im));
        let q2 = a / 2.0;
        assert!(close(q2.re, 0.5) && close(q2.im, 1.0));
    }

    #[test]
    fn division_by_zero_is_nan() {
        let a = Complex::new(1.0, 1.0);
        assert!((a / Complex::ZERO).is_nan());
    }

    #[test]
    fn magnitude_and_phase() {
        let a = Complex::new(3.0, 4.0);
        assert!(close(a.abs(), 5.0));
        assert!(close(a.norm_sqr(), 25.0));
        let j = Complex::from_imag(1.0);
        assert!(close(j.arg_deg(), 90.0));
        assert!(close(Complex::new(-1.0, 0.0).arg_deg(), 180.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1+2j");
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1-2j");
    }

    #[test]
    fn finite_checks() {
        assert!(Complex::new(1.0, 1.0).is_finite());
        assert!(!Complex::new(f64::INFINITY, 0.0).is_finite());
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
    }
}
