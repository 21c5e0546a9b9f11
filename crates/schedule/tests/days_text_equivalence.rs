//! The day-count writer prints what the `fmt` machinery prints.
//!
//! A count is a whole number of milli-days. Reference for its `Display`:
//! `{}d` of a whole number of days; otherwise `{:.2}d` of the count in
//! days after a half (`x.xx5`) is moved one milli-day away from zero, so
//! that the decimal half goes away from zero and no other value is near
//! a tie. Cases: every milli-day value from 0 to 10^7 (0–10 000 days)
//! with both signs, values around the slip magnitude bound and the ends
//! of the range, and seeded random counts. Reference for signed slips,
//! which are floats: `{:+.2}d`. Cases: values on and next to every
//! `x.xx5` tie up to 2 000 days, values around the magnitude bound, and
//! seeded random floats of every magnitude and bit pattern.

use std::fmt::Write as _;

use schedule::text::{write_signed_days, EXACT_LIMIT};
use schedule::WorkDays;

/// Counts up to this many milli-days (10^12 days) are exact enough as
/// floats for `{:.2}` to round them away from a tie.
const REFERENCE_LIMIT: i64 = 1_000_000_000_000_000;

/// The text of a count of `md` milli-days, `|md| <= REFERENCE_LIMIT`
/// (a `WorkDays` difference can be negative).
fn reference(md: i64, out: &mut String) {
    if md % 1000 == 0 {
        write!(out, "{}d", md / 1000).unwrap();
    } else {
        let nudged = if md % 10 == 5 || md % 10 == -5 {
            md + md.signum()
        } else {
            md
        };
        write!(out, "{:.2}d", nudged as f64 / 1000.0).unwrap();
    }
}

/// The count of `md` milli-days, of either sign: `WorkDays::new`
/// refuses negative values, but differences of counts reach them.
fn count(md: i64) -> WorkDays {
    if md >= 0 {
        WorkDays::from_millidays(md)
    } else {
        WorkDays::ZERO - WorkDays::from_millidays(-(md + 1)) - WorkDays::from_millidays(1)
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

    /// Checks the unsigned `Display` text of the count of `md`
    /// milli-days.
    fn check_count(&mut self, md: i64) {
        let count = count(md);
        assert_eq!(count.millidays(), md);
        self.ours.clear();
        self.std.clear();
        count.write_to(&mut self.ours).unwrap();
        reference(md, &mut self.std);
        assert_eq!(self.ours, self.std, "Display of {md} milli-days");
        self.checked += 1;
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
            self.check_signed(v);
            self.check_signed(v.next_up());
            self.check_signed(v.next_down());
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

/// Every milli-day value 0..=10^7, of both signs, split across two
/// threads (the test also runs unoptimized).
#[test]
fn every_milliday_matches_fmt() {
    const LAST: i64 = 10_000_000;
    let half = LAST / 2;
    let checked: u64 = std::thread::scope(|s| {
        let parts = [(0, half), (half + 1, LAST)].map(|(from, to)| {
            s.spawn(move || {
                let mut c = Checker::new();
                for md in from..=to {
                    c.check_count(md);
                    c.check_count(-md);
                    c.check_signed(md as f64 / 1000.0);
                    c.check_signed(-(md as f64) / 1000.0);
                }
                c.checked
            })
        });
        parts.into_iter().map(|p| p.join().unwrap()).sum()
    });
    assert_eq!(checked, 4 * (LAST as u64 + 1));
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
    let bound = (EXACT_LIMIT * 1000.0) as i64;
    for md in [
        0,
        bound / 2,
        bound,
        1_000_000_000_000,
        REFERENCE_LIMIT - 1005,
    ] {
        for offset in -1005..=1005 {
            c.check_count(md + offset);
            c.check_count(-(md + offset));
        }
    }
    // The ends of the range, past the reference's.
    assert_eq!(count(i64::MAX).to_string(), "9223372036854775.81d");
    assert_eq!(count(i64::MIN).to_string(), "-9223372036854775.81d");
    assert_eq!(
        count(i64::MAX / 1000 * 1000).to_string(),
        "9223372036854775d"
    );
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
        c.check_signed(v);
    }
    // `Display` is the writer; `new` rounds to the milli-day first.
    for (v, md) in [
        (0.0, 0),
        (2.5, 2500),
        (3.0, 3000),
        (0.125, 125),
        (2.0004, 2000),
    ] {
        assert_eq!(WorkDays::new(v).to_string(), c_text(md));
    }
}

fn c_text(md: i64) -> String {
    let mut out = String::new();
    reference(md, &mut out);
    out
}

#[test]
fn seeded_random_values_match_fmt() {
    let mut rng = SplitMix(0x5eed_da75);
    let mut c = Checker::new();
    for _ in 0..300_000 {
        // Uniform over the working range of a project.
        c.check_signed(rng.unit() * 20_000.0);
        // Log-uniform from 1e-12 to 1e12 days, either sign.
        let v = 10f64.powf(rng.unit() * 24.0 - 12.0);
        c.check_signed(if rng.next() & 1 == 0 { v } else { -v });
        // Any bit pattern: subnormals, huge values, NaNs, infinities.
        c.check_signed(f64::from_bits(rng.next()));
        // Any count of milli-days the reference covers.
        let md = (rng.next() % (2 * REFERENCE_LIMIT as u64 + 1)) as i64 - REFERENCE_LIMIT;
        c.check_count(md);
    }
}
