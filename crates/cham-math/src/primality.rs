//! Primality testing and root-of-unity search.
//!
//! CHAM's NTT units need a primitive `2N`-th root of unity `ψ` modulo each
//! ciphertext modulus; the negacyclic transform evaluates polynomials at odd
//! powers of `ψ`. This module provides a deterministic Miller–Rabin test for
//! `u64` and a deterministic search for the smallest primitive root, both
//! of which the parameter validator in `cham-he` uses to reject unusable
//! moduli early.

use crate::modulus::Modulus;
use crate::{MathError, Result};

/// Deterministic Miller–Rabin for all 64-bit integers.
///
/// Uses the first twelve primes as witnesses, which is known to be
/// deterministic for `n < 3.3 * 10^24` — comfortably covering `u64`.
///
/// # Example
/// ```
/// use cham_math::primality::is_prime;
/// use cham_math::modulus::{Q0, Q1, SPECIAL_P};
/// assert!(is_prime(Q0) && is_prime(Q1) && is_prime(SPECIAL_P));
/// assert!(!is_prime(Q0 + 2));
/// ```
pub fn is_prime(n: u64) -> bool {
    const WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    if n < 2 {
        return false;
    }
    for &p in &WITNESSES {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let d = n - 1;
    let r = d.trailing_zeros();
    let d = d >> r;
    let m = match Modulus::new(n) {
        Ok(m) => m,
        // Values >= 2^62 are outside Modulus range; use slow u128 path.
        Err(_) => return is_prime_u128_path(n, d, r, &WITNESSES),
    };
    'next: for &a in &WITNESSES {
        let mut x = m.pow(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = m.mul(x, x);
            if x == n - 1 {
                continue 'next;
            }
        }
        return false;
    }
    true
}

fn is_prime_u128_path(n: u64, d: u64, r: u32, witnesses: &[u64]) -> bool {
    let pow = |mut b: u128, mut e: u64, n: u128| {
        let mut acc = 1u128;
        b %= n;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * b % n;
            }
            b = b * b % n;
            e >>= 1;
        }
        acc
    };
    let n128 = n as u128;
    'next: for &a in witnesses {
        let mut x = pow(a as u128, d, n128);
        if x == 1 || x == n128 - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = x * x % n128;
            if x == n128 - 1 {
                continue 'next;
            }
        }
        return false;
    }
    true
}

/// Finds the *smallest* primitive `order`-th root of unity, deterministically.
///
/// Useful for reproducible twiddle tables (the CHAM twiddle ROMs are baked at
/// synthesis time, so determinism matters for comparing against golden
/// vectors).
///
/// `order` must be a power of two dividing `q - 1`. Each candidate `x`
/// maps to `c = x^((q-1)/order)`, which has exact order when
/// `c^(order/2) == -1`.
///
/// # Errors
/// Returns [`MathError::NoNttSupport`] when `order ∤ q - 1`,
/// [`MathError::InvalidParameter`] when `order` is not a power of two
/// `>= 2`, or when no small candidate maps to a root — which for prime `q`
/// indicates the modulus is not actually prime.
pub fn min_primitive_root_of_unity(q: &Modulus, order: u64) -> Result<u64> {
    if !order.is_power_of_two() || order < 2 {
        return Err(MathError::InvalidParameter(
            "order must be a power of two >= 2",
        ));
    }
    if !(q.value() - 1).is_multiple_of(order) {
        return Err(MathError::NoNttSupport {
            modulus: q.value(),
            degree: (order / 2) as usize,
        });
    }
    let exp = (q.value() - 1) / order;
    let mut best: Option<u64> = None;
    // Scan small candidates; any generator-ish base maps to a root.
    for x in 2..q.value().min(10_000) {
        let c = q.pow(x, exp);
        if q.pow(c, order / 2) == q.value() - 1 {
            best = Some(match best {
                Some(b) => b.min(c),
                None => c,
            });
        }
    }
    best.ok_or(MathError::InvalidParameter(
        "no primitive root found among small candidates; modulus is likely not prime",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::{Q0, Q1, SPECIAL_P};

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 257, 65537];
        for p in primes {
            assert!(is_prime(p), "{p}");
        }
        let composites = [0u64, 1, 4, 9, 15, 21, 25, 91, 561, 1105, 6601];
        for c in composites {
            assert!(!is_prime(c), "{c}");
        }
    }

    #[test]
    fn cham_moduli_are_prime() {
        assert!(is_prime(Q0));
        assert!(is_prime(Q1));
        assert!(is_prime(SPECIAL_P));
    }

    #[test]
    fn large_values_u128_path() {
        // Mersenne prime 2^61 - 1 and a neighbour.
        assert!(is_prime((1 << 61) - 1));
        assert!(!is_prime((1 << 61) + 1));
        // > 2^62 to exercise the u128 fallback.
        assert!(is_prime(u64::MAX - 58)); // 2^64 - 59 is prime
        assert!(!is_prime(u64::MAX));
    }

    #[test]
    fn roots_have_exact_order() {
        for qv in [Q0, Q1, SPECIAL_P] {
            let q = Modulus::new(qv).unwrap();
            for log_order in [1u32, 5, 13] {
                let order = 1u64 << log_order;
                let c = min_primitive_root_of_unity(&q, order).unwrap();
                assert_eq!(q.pow(c, order), 1);
                assert_eq!(q.pow(c, order / 2), qv - 1);
            }
        }
    }

    #[test]
    fn min_root_is_deterministic_and_valid() {
        let q = Modulus::new(Q0).unwrap();
        let a = min_primitive_root_of_unity(&q, 8192).unwrap();
        let b = min_primitive_root_of_unity(&q, 8192).unwrap();
        assert_eq!(a, b);
        assert_eq!(q.pow(a, 8192), 1);
        assert_eq!(q.pow(a, 4096), Q0 - 1);
    }

    #[test]
    fn rejects_unsupported_order() {
        let q = Modulus::new(97).unwrap(); // 97 - 1 = 96 = 2^5 * 3
        assert!(min_primitive_root_of_unity(&q, 32).is_ok());
        assert!(min_primitive_root_of_unity(&q, 64).is_err());
        assert!(min_primitive_root_of_unity(&q, 3).is_err());
    }
}
