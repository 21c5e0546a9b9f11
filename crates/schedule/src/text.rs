//! Schedule tables as text, without the `fmt` machinery.
//!
//! Every date a status table or a plan body prints goes through here:
//! [`WorkDays`]'s `Display` (`3d`, `2.50d`) and signed slips (`+0.03d`,
//! `-0.55d`). The text is built with integer arithmetic into a stack
//! buffer and written with one `write_str`. [`write_padded`] is the
//! `{:<N}` of a table column.
//!
//! A [`WorkDays`] is a whole number of milli-days, an exact decimal:
//! whole days print as `{}` prints them, and any other count is rounded
//! to hundredths as a decimal, a half (say 0.125) away from zero.
//!
//! A slip is a float. Its text is exactly what `{:+.2}` prints: rounding
//! to hundredths is decided from the float's bits, so a value is rounded
//! as its true binary value, and a value lying exactly on a tie goes to
//! the even hundredth. Past [`EXACT_LIMIT`] days, and for NaN and the
//! infinities, the writer hands over to `{:+.2}`.

use std::fmt;

use crate::network::WorkDays;

/// Slip magnitudes from here up are formatted by `{:+.2}`: below it, a value
/// times 100 fits the 64-bit integer path (2^32 days is about 16 million
/// years of working days).
pub const EXACT_LIMIT: f64 = 4_294_967_296.0;

/// Longest text the integer path writes: a sign, ten integer digits
/// (2^63 for a whole count), a point, two decimals and the `d`, with
/// room to spare.
const BUF: usize = 32;

/// Digits written right to left into a stack buffer.
struct Digits {
    buf: [u8; BUF],
    start: usize,
}

impl Digits {
    fn new() -> Self {
        Digits {
            buf: [0; BUF],
            start: BUF,
        }
    }

    fn push(&mut self, byte: u8) {
        self.start -= 1;
        self.buf[self.start] = byte;
    }

    /// Writes `n` in decimal, at least `min_digits` digits.
    fn number(&mut self, mut n: u64, min_digits: usize) {
        let end = self.start;
        while n > 0 || end - self.start < min_digits {
            self.push(b'0' + (n % 10) as u8);
            n /= 10;
        }
    }

    fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str(std::str::from_utf8(&self.buf[self.start..]).expect("ASCII digits"))
    }
}

/// `x` rounded to hundredths, for finite `0 <= x < EXACT_LIMIT`:
/// `x * 100` rounded half to even on the exact binary value of `x`.
fn hundredths(x: f64) -> u64 {
    // Below 1/256 (< 0.005) everything rounds to 0, including zero and
    // subnormals, which have no implicit leading bit.
    if x < 1.0 / 256.0 {
        return 0;
    }
    let bits = x.to_bits();
    // x = mantissa * 2^-shift, with shift in 21..=60 on this range.
    let shift = 1075 - ((bits >> 52) & 0x7ff);
    let scaled = ((bits & ((1 << 52) - 1)) | (1 << 52)) * 100;
    let whole = scaled >> shift;
    let rest = scaled & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    whole + u64::from(rest > half || (rest == half && whole & 1 == 1))
}

/// Writes `{sign}{|x| rounded to hundredths}d` for finite
/// `|x| < EXACT_LIMIT`.
fn write_fixed2<W: fmt::Write>(out: &mut W, sign: Option<u8>, magnitude: f64) -> fmt::Result {
    let h = hundredths(magnitude);
    let mut d = Digits::new();
    d.push(b'd');
    d.number(h % 100, 2);
    d.push(b'.');
    d.number(h / 100, 1);
    if let Some(sign) = sign {
        d.push(sign);
    }
    d.write_to(out)
}

impl WorkDays {
    /// Writes this count as its `Display` text — `3d` for a whole
    /// number of days, `2.50d` otherwise, rounded to hundredths with a
    /// half away from zero — to `out`, for example a `String` a response
    /// body is built in.
    ///
    /// ```
    /// use schedule::WorkDays;
    ///
    /// let mut out = String::new();
    /// WorkDays::new(3.0).write_to(&mut out).unwrap();
    /// out.push(' ');
    /// WorkDays::new(2.125).write_to(&mut out).unwrap();
    /// assert_eq!(out, "3d 2.13d");
    /// ```
    ///
    /// # Errors
    ///
    /// Only what `out` returns; writing to a `String` cannot fail.
    pub fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        let md = self.0.unsigned_abs();
        let mut d = Digits::new();
        d.push(b'd');
        if md.is_multiple_of(1000) {
            d.number(md / 1000, 1);
        } else {
            // Hundredths of the exact decimal value, halves away from
            // zero.
            let h = (md + 5) / 10;
            d.number(h % 100, 2);
            d.push(b'.');
            d.number(h / 100, 1);
        }
        if self.0 < 0 {
            d.push(b'-');
        }
        d.write_to(out)
    }
}

/// Writes `days` as a signed count with two decimals, the text of
/// `{:+.2}d`: `+0.03d`, `-0.55d`, `+0.00d` for zero and `-0.00d` for
/// negative zero and tiny negative values. Slips print this way.
///
/// ```
/// let mut out = String::new();
/// schedule::text::write_signed_days(&mut out, -0.554).unwrap();
/// assert_eq!(out, "-0.55d");
/// ```
///
/// # Errors
///
/// Only what `out` returns; writing to a `String` cannot fail.
pub fn write_signed_days<W: fmt::Write>(out: &mut W, days: f64) -> fmt::Result {
    if days.abs() < EXACT_LIMIT {
        let sign = if days.is_sign_negative() { b'-' } else { b'+' };
        write_fixed2(out, Some(sign), days.abs())
    } else {
        write!(out, "{days:+.2}d")
    }
}

/// Writes `text` left-aligned in a column `width` characters wide, the
/// text of `{:<width}`: padded with spaces, never cut.
///
/// ```
/// let mut out = String::new();
/// schedule::text::write_padded(&mut out, "Create", 8).unwrap();
/// out.push('|');
/// assert_eq!(out, "Create  |");
/// ```
///
/// # Errors
///
/// Only what `out` returns; writing to a `String` cannot fail.
pub fn write_padded<W: fmt::Write>(out: &mut W, text: &str, width: usize) -> fmt::Result {
    const SPACES: &str = "                                ";
    out.write_str(text)?;
    let mut pad = width.saturating_sub(text.chars().count());
    while pad > 0 {
        let n = pad.min(SPACES.len());
        out.write_str(&SPACES[..n])?;
        pad -= n;
    }
    Ok(())
}

impl fmt::Display for WorkDays {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text of the count nearest `x` days, of either sign.
    fn text(x: f64) -> String {
        let mut out = String::new();
        WorkDays((x * 1000.0).round() as i64)
            .write_to(&mut out)
            .unwrap();
        out
    }

    fn signed(x: f64) -> String {
        let mut out = String::new();
        write_signed_days(&mut out, x).unwrap();
        out
    }

    #[test]
    fn whole_and_fractional_counts() {
        assert_eq!(text(0.0), "0d");
        assert_eq!(text(-0.0), "0d");
        assert_eq!(text(12.0), "12d");
        assert_eq!(text(3.0 + 1e-12), "3d");
        assert_eq!(text(2.5), "2.50d");
        assert_eq!(text(0.004), "0.00d");
        assert_eq!(text(0.005), "0.01d");
        assert_eq!(text(-1.25), "-1.25d");
        assert_eq!(text(-4.0), "-4d");
    }

    #[test]
    fn halves_go_away_from_zero() {
        assert_eq!(text(0.125), "0.13d");
        assert_eq!(text(0.375), "0.38d");
        assert_eq!(text(2.625), "2.63d");
        assert_eq!(text(1.005), "1.01d");
        assert_eq!(text(-0.125), "-0.13d");
    }

    #[test]
    fn huge_counts_and_non_finite_slips() {
        assert_eq!(text(1e12), "1000000000000d");
        assert_eq!(text(EXACT_LIMIT + 0.5), "4294967296.50d");
        assert_eq!(text(1e300), "9223372036854775.81d");
        assert_eq!(signed(-1e12), "-1000000000000.00d");
        assert_eq!(signed(f64::NAN), "NaNd");
    }

    #[test]
    fn signed_ties_go_to_even() {
        assert_eq!(signed(0.125), "+0.12d");
        assert_eq!(signed(-2.625), "-2.62d");
    }

    #[test]
    fn padding_matches_fmt() {
        for (text, width) in [("Create", 16), ("", 3), ("exactly-16-chars", 16), ("é∂", 4)] {
            let mut out = String::new();
            write_padded(&mut out, text, width).unwrap();
            assert_eq!(out, format!("{text:<width$}"));
        }
        let mut out = String::new();
        write_padded(&mut out, "x", 70).unwrap();
        assert_eq!(out, format!("{:<70}", "x"));
        let mut out = String::new();
        write_padded(&mut out, "a-name-longer-than-its-column", 4).unwrap();
        assert_eq!(out, "a-name-longer-than-its-column");
    }

    #[test]
    fn signed_counts() {
        assert_eq!(signed(0.0), "+0.00d");
        assert_eq!(signed(-0.0), "-0.00d");
        assert_eq!(signed(-1e-12), "-0.00d");
        assert_eq!(signed(3.0), "+3.00d");
        assert_eq!(signed(0.03), "+0.03d");
    }
}
