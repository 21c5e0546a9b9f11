//! The one field reader behind both line parsers: the snapshot loader
//! ([`MetadataDb::load_at`](crate::MetadataDb::load_at)) and the
//! journal record parser behind [`Journal::parse`](crate::Journal::parse)
//! and every tail record.
//!
//! A line's fields are what `str::split_whitespace` yields: maximal
//! runs of characters that are not Unicode white space. [`Fields`]
//! hands them out one at a time instead of collecting them. On an
//! ASCII line, which is every line a writer here emits, it finds them
//! in one walk over the bytes, where only the six ASCII white-space
//! bytes separate; a line with any other character is left to
//! `split_whitespace` itself.
//! [`parse_int`] reads a field of digits straight from its bytes and
//! leaves every other field to `str::parse`, so both accept, refuse
//! and describe exactly what `split_whitespace` and `str::parse` do.
//!
//! Both parsers decode each kind of field through one typed reader:
//! [`days`] a time into a [`WorkDays`], [`index`] an index into a
//! `u32`, [`indices`] an index list. No stored byte skips the check.

use std::str::FromStr;

use schedule::WorkDays;

/// Whether `b` is an ASCII white-space character, as
/// `char::is_whitespace` decides it: `\t`, `\n`, `\x0B`, `\x0C`, `\r`
/// and the space.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The whitespace-separated fields of one line, in order.
#[derive(Debug, Clone)]
pub(crate) enum Fields<'a> {
    /// An ASCII line, split by bytes; the walk resumes at `at`.
    Ascii { line: &'a str, at: usize },
    /// A line with a non-ASCII character, where Unicode white space
    /// also separates: `split_whitespace` itself.
    Wide(std::str::SplitWhitespace<'a>),
}

impl<'a> Fields<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        match line.is_ascii() {
            true => Fields::ascii(line),
            false => Fields::Wide(line.split_whitespace()),
        }
    }

    /// The fields of `line`, which the caller knows is ASCII (say, from
    /// one test of the whole text it comes from).
    pub(crate) fn ascii(line: &'a str) -> Self {
        debug_assert!(line.is_ascii());
        Fields::Ascii { line, at: 0 }
    }

    /// The next `N` fields when exactly `N` remain; `None` when fewer or
    /// more do. Reads at most `N + 1` fields.
    pub(crate) fn exactly<const N: usize>(&mut self) -> Option<[&'a str; N]> {
        let mut out = [""; N];
        for slot in &mut out {
            *slot = self.next()?;
        }
        self.next().is_none().then_some(out)
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (line, at) = match self {
            Fields::Ascii { line, at } => (*line, at),
            Fields::Wide(words) => return words.next(),
        };
        let bytes = line.as_bytes();
        let mut start = *at;
        while bytes.get(start).copied().is_some_and(is_ascii_space) {
            start += 1;
        }
        if start == bytes.len() {
            *at = start;
            return None;
        }
        let end = space_from(bytes, start + 1);
        *at = end;
        Some(&line[start..end])
    }
}

/// The position of the first ASCII white-space byte of `bytes` at or
/// after `i`, or `bytes.len()`. Eight bytes are tested at a time: the
/// word's lowest byte below `0x21`, a white-space candidate, is found
/// without a branch per byte (a borrow can flag bytes above it, never
/// below), and a candidate that is a control character continues the
/// search.
fn space_from(bytes: &[u8], mut i: usize) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    while let Some(chunk) = bytes.get(i..i + 8) {
        let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let below = word.wrapping_sub(ONES * 0x21) & !word & HIGH;
        if below == 0 {
            i += 8;
            continue;
        }
        let candidate = i + (below.trailing_zeros() / 8) as usize;
        if is_ascii_space(bytes[candidate]) {
            return candidate;
        }
        i = candidate + 1;
    }
    bytes[i..]
        .iter()
        .position(|&b| is_ascii_space(b))
        .map_or(bytes.len(), |len| i + len)
}

/// The comma-separated items of a list field, as `str::split(',')`
/// yields them.
pub(crate) fn items(list: &str) -> impl Iterator<Item = &str> + '_ {
    let mut rest = Some(list);
    std::iter::from_fn(move || {
        let text = rest?;
        match text.bytes().position(|b| b == b',') {
            Some(comma) => {
                rest = Some(&text[comma + 1..]);
                Some(&text[..comma])
            }
            None => rest.take(),
        }
    })
}

/// Reads a time or duration field: any non-negative `i64` of
/// milli-days, what [`WorkDays::try_from_millidays`] accepts and every
/// writer can emit. A refusal says why.
pub(crate) fn days(field: &str) -> Result<WorkDays, String> {
    let md = parse_int::<i64>(field).map_err(|e| e.to_string())?;
    WorkDays::try_from_millidays(md).map_err(|_| format!("{md} is negative"))
}

/// Reads an index (or a count) field as the `u32` every id's slot is.
pub(crate) fn index(field: &str) -> Option<u32> {
    parse_int(field).ok()
}

/// Reads an index list: `-` for none, else comma-separated indices.
/// An item that is not an index is handed back as the error.
pub(crate) fn indices(list: &str) -> impl Iterator<Item = Result<u32, &str>> {
    (list != "-")
        .then(|| items(list))
        .into_iter()
        .flatten()
        .map(|item| index(item).ok_or(item))
}

/// Parses `field` as `str::parse::<T>` does. A field of 1 to 18 ASCII
/// digits, the form every writer uses, is read straight from its bytes;
/// any other field (a sign, more digits, anything else) goes to
/// `str::parse`, so what is accepted and how a refusal reads are
/// `str::parse`'s own.
pub(crate) fn parse_int<T>(field: &str) -> Result<T, T::Err>
where
    T: FromStr + TryFrom<u64>,
{
    match digits(field.as_bytes()).and_then(|v| T::try_from(v).ok()) {
        Some(v) => Ok(v),
        None => field.parse(),
    }
}

/// The value of 1 to 18 ASCII digits; `None` for anything else. Eighteen
/// digits stay below 10^18, so the sum cannot overflow; [`parse_int`]
/// checks that the value fits its target type.
fn digits(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() || bytes.len() > 18 {
        return None;
    }
    let mut value = 0u64;
    for &b in bytes {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        value = value * 10 + u64::from(d);
    }
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_split_whitespace() {
        let lines = [
            "",
            " ",
            "a",
            "a b",
            "  a  b  ",
            "a\tb\x0Bc\x0Cd\re\nf",
            "a\u{a0}b\u{85}c\u{2003}d\u{3000}e\u{2028}f",
            "a\u{1C}b\u{200B}c\0d",
            "ä ö\u{a0}ü",
            "\u{a0}\u{a0}x\u{a0}",
            "日本 語",
        ];
        for line in lines {
            let ours: Vec<&str> = Fields::new(line).collect();
            let std: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(ours, std, "{line:?}");
        }
    }

    #[test]
    fn ascii_fields_cross_word_boundaries() {
        // Fields and separators at every offset of the eight-byte words,
        // with control characters that separate nothing.
        let alphabet = [
            " ",
            "a",
            "bc",
            "\t",
            "\x1C",
            "\r\n",
            "x\x7Fy",
            "\0",
            "0123456789",
        ];
        let mut rng = simtools::rng::SplitMix64::new(0xF1E1D);
        for _ in 0..2000 {
            let len = (rng.next_u64() % 24) as usize;
            let line: String = (0..len)
                .map(|_| alphabet[(rng.next_u64() % alphabet.len() as u64) as usize])
                .collect();
            let ours: Vec<&str> = Fields::new(&line).collect();
            let std: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(ours, std, "{line:?}");
        }
    }

    #[test]
    fn items_are_split_comma() {
        for list in ["", ",", "a", "a,b", ",a,", "1,,2", "ä,ö"] {
            let ours: Vec<&str> = items(list).collect();
            let std: Vec<&str> = list.split(',').collect();
            assert_eq!(ours, std, "{list:?}");
        }
    }

    #[test]
    fn exactly_counts_every_field() {
        assert_eq!(Fields::new("a b").exactly::<2>(), Some(["a", "b"]));
        assert_eq!(Fields::new("a").exactly::<2>(), None);
        assert_eq!(Fields::new("a b c").exactly::<2>(), None);
        assert_eq!(Fields::new("").exactly::<0>(), Some([]));
    }

    #[test]
    fn days_take_every_non_negative_count() {
        for md in [0, 1, 1585, 1_000_000_000_000_001, i64::MAX] {
            let read = days(&md.to_string()).unwrap();
            assert_eq!(read.millidays(), md);
        }
        let refusals = [
            ("-5", "-5 is negative"),
            ("-9223372036854775808", "-9223372036854775808 is negative"),
            (
                "9223372036854775808",
                "number too large to fit in target type",
            ),
            ("x", "invalid digit found in string"),
            ("", "cannot parse integer from empty string"),
        ];
        for (field, message) in refusals {
            assert_eq!(days(field).unwrap_err(), message, "{field:?}");
        }
        assert_eq!(days("+5").unwrap().millidays(), 5);
        assert_eq!(days("-0").unwrap(), WorkDays::ZERO);
    }

    #[test]
    fn indices_are_u32_items_or_none() {
        assert_eq!(index("4294967295"), Some(u32::MAX));
        assert_eq!(index("4294967296"), None);
        assert_eq!(index("+1"), Some(1));
        assert_eq!(index("-1"), None);
        let read = |list| indices(list).collect::<Vec<_>>();
        assert_eq!(read("-"), []);
        assert_eq!(read("0,7"), [Ok(0), Ok(7)]);
        assert_eq!(read("1,,2"), [Ok(1), Err(""), Ok(2)]);
        assert_eq!(read("4294967296"), [Err("4294967296")]);
        assert_eq!(read(""), [Err("")]);
    }

    #[test]
    fn parse_int_is_str_parse() {
        let fields = [
            "0",
            "7",
            "+7",
            "-7",
            "-0",
            "",
            "+",
            "-",
            "x",
            "1x",
            "4294967295",
            "4294967296",
            "999999999999999999",
            "1000000000000000000",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "18446744073709551615",
            "18446744073709551616",
            "000000000000000000000042",
            "٣",
        ];
        for f in fields {
            assert_eq!(parse_int::<u32>(f), f.parse::<u32>(), "{f:?}");
            assert_eq!(parse_int::<usize>(f), f.parse::<usize>(), "{f:?}");
            assert_eq!(parse_int::<i64>(f), f.parse::<i64>(), "{f:?}");
            assert_eq!(parse_int::<u64>(f), f.parse::<u64>(), "{f:?}");
        }
    }
}
