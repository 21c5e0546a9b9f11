//! The day-count writer prints exactly what the `fmt` machinery prints.
//!
//! Reference: `WorkDays`'s original `Display` — `{}d` of the rounded
//! count within 1e-9 of a whole day, `{:.2}d` otherwise — and `{:+.2}d`
//! for signed slips. Cases: every milliday value from 0 to 10^7
//! (0–10 000 days, the database's resolution), both signs for the signed
//! path; values on and next to every `x.xx5` tie up to 2 000 days;
//! values around the magnitude bound; seeded random floats of every
//! magnitude and bit pattern.

use std::fmt::Write as _;

use schedule::text::{write_signed_days, EXACT_LIMIT};
use schedule::WorkDays;

/// The text `WorkDays`'s `Display` printed before the writer existed,
/// for any `f64` (a `WorkDays` difference can be negative).
fn reference(x: f64, out: &mut String) {
    if (x - x.round()).abs() < 1e-9 {
        write!(out, "{}d", x.round() as i64).unwrap();
    } else {
        write!(out, "{x:.2}d").unwrap();
    }
}

/// `WorkDays` for any `f64`: `WorkDays::new` refuses negative and
/// non-finite values, but differences and sums of counts reach them.
fn days(x: f64) -> WorkDays {
    let inf = WorkDays::new(f64::MAX) + WorkDays::new(f64::MAX);
    if x.is_finite() && x >= 0.0 {
        WorkDays::new(x)
    } else if x.is_nan() {
        inf + (WorkDays::ZERO - inf)
    } else if x == f64::INFINITY {
        inf
    } else if x == f64::NEG_INFINITY {
        WorkDays::ZERO - inf
    } else {
        WorkDays::ZERO - WorkDays::new(-x)
    }
}

struct Checker {
    ours: String,
    std: String,
    checked: u64,
}

impl Checker {
    fn new() -> Self {
        Checker {
            ours: String::new(),
            std: String::new(),
            checked: 0,
        }
    }

    /// Checks both paths for `x`: the unsigned `Display` text (for the
    /// count `x` stands for) and the signed text.
    fn check(&mut self, x: f64) {
        let count = days(x);
        assert!(
            count.days().to_bits() == x.to_bits() || (x.is_nan() && count.days().is_nan()),
            "{x:e} did not round-trip through WorkDays"
        );
        self.ours.clear();
        self.std.clear();
        count.write_to(&mut self.ours).unwrap();
        reference(count.days(), &mut self.std);
        assert_eq!(self.ours, self.std, "Display of {x:e} ({:#x})", x.to_bits());
        self.check_signed(x);
    }

    /// Checks the signed text for `x`.
    fn check_signed(&mut self, x: f64) {
        self.ours.clear();
        self.std.clear();
        write_signed_days(&mut self.ours, x).unwrap();
        write!(self.std, "{x:+.2}d").unwrap();
        assert_eq!(self.ours, self.std, "signed {x:e} ({:#x})", x.to_bits());
        self.checked += 1;
    }

    /// `x`, its negation, and both float neighbours of each.
    fn check_around(&mut self, x: f64) {
        for v in [x, -x] {
            self.check(v);
            self.check(v.next_up());
            self.check(v.next_down());
        }
    }
}

/// SplitMix64, so the random cases are the same on every run.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Every milliday value 0..=10^7, split across two threads (the test
/// also runs unoptimized).
#[test]
fn every_milliday_matches_fmt() {
    const LAST: i64 = 10_000_000;
    let half = LAST / 2;
    let checked: u64 = std::thread::scope(|s| {
        let parts = [(0, half), (half + 1, LAST)].map(|(from, to)| {
            s.spawn(move || {
                let mut c = Checker::new();
                for md in from..=to {
                    let x = md as f64 / 1000.0;
                    c.check(x);
                    c.check_signed(-x);
                }
                c.checked
            })
        });
        parts.into_iter().map(|p| p.join().unwrap()).sum()
    });
    assert_eq!(checked, 2 * (LAST as u64 + 1));
}

#[test]
fn ties_and_their_neighbours_match_fmt() {
    let mut c = Checker::new();
    // Every x.xx5 up to 2 000 days, as the nearest float to the decimal
    // and as the decimal built by arithmetic.
    for k in 0..200_000u64 {
        let decimal = format!("{}.{:02}5", k / 100, k % 100);
        c.check_around(decimal.parse().unwrap());
        c.check_around((k * 10 + 5) as f64 / 1000.0);
    }
    // Exact binary ties: odd multiples of 1/8 (0.125, 0.375, ...).
    for k in 0..100_000u64 {
        c.check_around((2 * k + 1) as f64 / 8.0);
    }
    // Around whole days, where the 1e-9 test decides.
    for k in 0..10_000u64 {
        for eps in [0.0, 1e-9, 9.99e-10, 1.01e-9, 1e-7, 0.004, 0.005] {
            c.check_around(k as f64 + eps);
            c.check_around(k as f64 - eps);
        }
    }
    assert!(c.checked > 3_000_000);
}

#[test]
fn the_magnitude_bound_and_odd_values_match_fmt() {
    let mut c = Checker::new();
    let mut x = EXACT_LIMIT;
    for _ in 0..64 {
        c.check_around(x);
        x = x.next_down();
    }
    for base in [
        EXACT_LIMIT,
        EXACT_LIMIT / 2.0,
        1.0 / 256.0,
        0.005,
        1e9,
        1e12,
    ] {
        for offset in [0.0, 0.005, 0.125, 0.5, 0.995] {
            c.check_around(base + offset);
            c.check_around(base - offset);
        }
    }
    for v in [
        0.0,
        -0.0,
        1e-12,
        -1e-12,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e300,
        -1e300,
        9.2e18,
        -9.2e18,
    ] {
        c.check(v);
    }
    // `Display` is the writer.
    for v in [0.0, 2.5, 3.0, 0.125, 1e300] {
        assert_eq!(WorkDays::new(v).to_string(), c_text(v));
    }
}

fn c_text(x: f64) -> String {
    let mut out = String::new();
    reference(x, &mut out);
    out
}

#[test]
fn seeded_random_values_match_fmt() {
    let mut rng = SplitMix(0x5eed_da75);
    let mut c = Checker::new();
    for _ in 0..300_000 {
        // Uniform over the working range of a project.
        c.check(rng.unit() * 20_000.0);
        // Log-uniform from 1e-12 to 1e12 days, either sign.
        let v = 10f64.powf(rng.unit() * 24.0 - 12.0);
        c.check(if rng.next() & 1 == 0 { v } else { -v });
        // Any bit pattern: subnormals, huge values, NaNs, infinities.
        c.check(f64::from_bits(rng.next()));
    }
}
