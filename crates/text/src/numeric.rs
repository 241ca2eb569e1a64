//! Numeric attribute handling (prices, years, capacities).

use crate::with_scratch;
use std::cell::RefCell;

thread_local! {
    /// This thread's buffer for the text [`parse_number`] parses.
    static SCRATCH: RefCell<String> = RefCell::default();
}

/// Try to parse a string as a single number, tolerating currency symbols,
/// thousands separators and surrounding whitespace (`"$1,299.00"` → 1299.0).
/// The symbols are stripped in a buffer the thread reuses: a warm call
/// allocates nothing.
///
/// Returns `None` for empty strings or strings with non-numeric content.
pub fn parse_number(s: &str) -> Option<f64> {
    with_scratch(&SCRATCH, |cleaned| {
        cleaned.clear();
        cleaned.extend(
            s.trim()
                .chars()
                .filter(|c| !matches!(c, '$' | '€' | '£' | ',')),
        );
        if cleaned.is_empty() {
            return None;
        }
        cleaned.trim().parse::<f64>().ok().filter(|v| v.is_finite())
    })
}

/// Similarity of two numbers based on relative difference:
/// `1 − |x−y| / max(|x|, |y|)`, clamped to `[0, 1]`; equal values give 1.0.
pub fn numeric_sim(x: f64, y: f64) -> f64 {
    if x == y {
        return 1.0;
    }
    let denom = x.abs().max(y.abs());
    if denom == 0.0 {
        return 1.0;
    }
    (1.0 - (x - y).abs() / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_variants() {
        assert_eq!(parse_number("379.72"), Some(379.72));
        assert_eq!(parse_number("$1,299.00"), Some(1299.0));
        assert_eq!(parse_number("  42 "), Some(42.0));
        assert_eq!(parse_number("-3.5"), Some(-3.5));
        assert_eq!(parse_number(""), None);
        assert_eq!(parse_number("NaN-ish text"), None);
        assert_eq!(parse_number("sony"), None);
        assert_eq!(parse_number("inf"), None, "non-finite rejected");
    }

    #[test]
    fn sim_known_values() {
        assert_eq!(numeric_sim(100.0, 100.0), 1.0);
        assert_eq!(numeric_sim(0.0, 0.0), 1.0);
        assert!((numeric_sim(100.0, 110.0) - (1.0 - 10.0 / 110.0)).abs() < 1e-12);
        assert_eq!(numeric_sim(1.0, -1.0), 0.0); // |x−y| = 2, denom = 1 → clamp
        assert_eq!(numeric_sim(0.0, 5.0), 0.0);
    }

    proptest! {
        #[test]
        fn sim_bounded_symmetric(x in -1e6f64..1e6, y in -1e6f64..1e6) {
            let s = numeric_sim(x, y);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - numeric_sim(y, x)).abs() < 1e-12);
        }

        #[test]
        fn closer_is_more_similar(x in 1.0f64..1e4, d1 in 0.0f64..100.0, d2 in 100.0f64..1e4) {
            prop_assert!(numeric_sim(x, x + d1) >= numeric_sim(x, x + d2));
        }

        #[test]
        fn parse_roundtrip(v in -1e6f64..1e6) {
            let s = format!("{v}");
            let parsed = parse_number(&s).unwrap();
            prop_assert!((parsed - v).abs() < 1e-9 * v.abs().max(1.0));
        }
    }
}
