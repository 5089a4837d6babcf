//! Exact integer arithmetic helpers shared by the interpreter and the
//! index-recovery machinery.
//!
//! The paper's index-recovery formulas are stated with mathematical
//! (floor/ceiling) division, which differs from Rust's truncating `/` for
//! negative operands. Everything in this crate — and in `lc-xform`'s
//! recovery code — goes through these helpers so the semantics are pinned
//! down in exactly one place.

use crate::error::{Error, Result};

/// Floor division: largest `q` with `q * b <= a`. Errors on `b == 0`, and
/// with [`Error::Overflow`] on `i64::MIN / -1`, whose quotient `2^63` has no
/// `i64` representation.
pub fn floor_div(a: i64, b: i64) -> Result<i64> {
    if b == 0 {
        return Err(Error::DivisionByZero);
    }
    if a == i64::MIN && b == -1 {
        return Err(Error::Overflow);
    }
    Ok(floor_div_unchecked(a, b))
}

/// Floor division without the checks (callers guarantee `b != 0` and not
/// `(i64::MIN, -1)`; either panics).
#[inline]
pub fn floor_div_unchecked(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division: smallest `q` with `q * b >= a`. Errors on `b == 0`, and
/// with [`Error::Overflow`] on `i64::MIN / -1`.
pub fn ceil_div(a: i64, b: i64) -> Result<i64> {
    if b == 0 {
        return Err(Error::DivisionByZero);
    }
    if a == i64::MIN && b == -1 {
        return Err(Error::Overflow);
    }
    Ok(ceil_div_unchecked(a, b))
}

/// Ceiling division without the checks (callers guarantee `b != 0` and not
/// `(i64::MIN, -1)`; either panics).
#[inline]
pub fn ceil_div_unchecked(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Mathematical modulus with the sign of the divisor's magnitude:
/// `a - floor_div(a, b) * b`, always in `0..|b|` for positive `b`. Never
/// overflows: the remainder always fits, so `i64::MIN % -1` is `0` even
/// though the matching quotient does not exist.
pub fn floor_mod(a: i64, b: i64) -> Result<i64> {
    if b == 0 {
        return Err(Error::DivisionByZero);
    }
    let r = a.wrapping_rem(b);
    Ok(if r != 0 && (r < 0) != (b < 0) {
        r + b
    } else {
        r
    })
}

/// Greatest common divisor (non-negative; `gcd(0, 0) == 0`).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i64
}

/// Checked product of a slice of trip counts, guarding against overflow
/// when computing `N = N1 * N2 * ... * Nm`.
pub fn checked_product(dims: &[u64]) -> Option<u64> {
    dims.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_div_matches_mathematical_definition() {
        for a in -20..=20 {
            for b in [-7, -3, -1, 1, 2, 5] {
                let q = floor_div(a, b).unwrap();
                // Definitive check: q == floor(a/b) in rationals.
                let expected = (a as f64 / b as f64).floor() as i64;
                assert_eq!(q, expected, "floor_div({a},{b})");
            }
        }
    }

    #[test]
    fn ceil_div_matches_mathematical_definition() {
        for a in -20..=20 {
            for b in [-7, -3, -1, 1, 2, 5] {
                let q = ceil_div(a, b).unwrap();
                let expected = (a as f64 / b as f64).ceil() as i64;
                assert_eq!(q, expected, "ceil_div({a},{b})");
            }
        }
    }

    #[test]
    fn floor_mod_in_range_for_positive_divisor() {
        for a in -20..=20 {
            for b in [1, 2, 3, 7] {
                let r = floor_mod(a, b).unwrap();
                assert!((0..b).contains(&r), "floor_mod({a},{b})={r}");
                assert_eq!(floor_div_unchecked(a, b) * b + r, a);
            }
        }
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(floor_div(5, 0).is_err());
        assert!(ceil_div(5, 0).is_err());
        assert!(floor_mod(5, 0).is_err());
    }

    #[test]
    fn min_over_minus_one_is_an_overflow_not_a_panic() {
        assert_eq!(floor_div(i64::MIN, -1), Err(Error::Overflow));
        assert_eq!(ceil_div(i64::MIN, -1), Err(Error::Overflow));
        assert_eq!(floor_mod(i64::MIN, -1), Ok(0));
        // The neighbours still divide exactly.
        assert_eq!(floor_div(i64::MIN + 1, -1), Ok(i64::MAX));
        assert_eq!(floor_div(i64::MIN, 1), Ok(i64::MIN));
    }

    #[test]
    fn floor_mod_matches_its_definition_at_the_extremes() {
        // `a - floor(a / b) * b`, computed where nothing can overflow.
        let wide = |a: i64, b: i64| {
            let (a, b) = (a as i128, b as i128);
            let q = a / b - i128::from(a % b != 0 && (a < 0) != (b < 0));
            (a - q * b) as i64
        };
        for a in [i64::MIN, i64::MIN + 1, -7, -1, 0, 1, 7, i64::MAX] {
            for b in [i64::MIN, -7, -2, -1, 2, 7, i64::MAX] {
                assert_eq!(floor_mod(a, b), Ok(wide(a, b)), "floor_mod({a},{b})");
            }
        }
    }

    #[test]
    fn ceil_floor_duality() {
        // ceil(a/b) == -floor(-a/b) for b > 0.
        for a in -30..=30 {
            for b in 1..=9 {
                assert_eq!(
                    ceil_div_unchecked(a, b),
                    -floor_div_unchecked(-a, b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn checked_product_detects_overflow() {
        assert_eq!(checked_product(&[3, 4, 5]), Some(60));
        assert_eq!(checked_product(&[]), Some(1));
        assert_eq!(checked_product(&[u64::MAX, 2]), None);
    }
}
