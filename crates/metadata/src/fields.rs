//! The one field reader behind both line parsers, and the one field
//! writer behind both line writers.
//!
//! The reader serves the snapshot loader
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
//!
//! The writer is the reader's twin: the dump writer behind snapshots
//! and the logical export, and the journal record encoder behind every
//! tail record, write each line through one [`Line`]. It pushes decimal
//! integers, milli-days, names, lists and hex straight into the output
//! without `core::fmt`, byte for byte what `Display` and `{:08x}` print.

use std::str::FromStr;
use std::sync::Arc;

use schedule::WorkDays;

use crate::segment::Extent;

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

// ----------------------------------------------------------------------
// The writer
// ----------------------------------------------------------------------

/// Lowercase hex digits, indexed by nibble.
pub(crate) const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends the decimal digits of `value`, as `Display` prints it,
/// staged on the stack and pushed at once.
fn push_decimal(mut value: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[at..]).expect("decimal digits are ASCII"));
}

/// Writes the lowercase hex digits of `bytes` into the first
/// `2 * bytes.len()` bytes of `dst`.
pub(crate) fn hex_digits(bytes: &[u8], dst: &mut [u8]) {
    for (&b, pair) in bytes.iter().zip(dst.chunks_exact_mut(2)) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
    }
}

/// Appends `bytes` to `out` as lowercase hex, or the explicit empty
/// marker `-` for an empty payload (keeps the line format fixed).
pub(crate) fn hex_encode_into(bytes: &[u8], out: &mut String) {
    if bytes.is_empty() {
        out.push('-');
        return;
    }
    out.reserve(bytes.len() * 2);
    // Digits are staged on the stack so `out` takes one checked
    // `push_str` per 128 input bytes instead of one `push` per digit.
    let mut buf = [0u8; 256];
    for chunk in bytes.chunks(buf.len() / 2) {
        let digits = &mut buf[..2 * chunk.len()];
        hex_digits(chunk, digits);
        out.push_str(std::str::from_utf8(digits).expect("hex digits are ASCII"));
    }
}

/// A value one field holds, written as `Display` writes it.
pub(crate) trait Field {
    /// Appends the value's text to `out`.
    fn push_to(&self, out: &mut String);
}

impl Field for u64 {
    fn push_to(&self, out: &mut String) {
        push_decimal(*self, out);
    }
}

impl Field for u32 {
    fn push_to(&self, out: &mut String) {
        push_decimal(u64::from(*self), out);
    }
}

impl Field for usize {
    fn push_to(&self, out: &mut String) {
        push_decimal(*self as u64, out);
    }
}

/// A time or duration: its whole milli-days, what [`days`] reads back
/// (a difference below zero, which no reader accepts, keeps its sign,
/// as `Display` writes it).
impl Field for WorkDays {
    fn push_to(&self, out: &mut String) {
        let md = self.millidays();
        if md < 0 {
            out.push('-');
        }
        push_decimal(md.unsigned_abs(), out);
    }
}

impl Field for str {
    fn push_to(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl Field for Arc<str> {
    fn push_to(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl<T: Field + ?Sized> Field for &T {
    fn push_to(&self, out: &mut String) {
        (**self).push_to(out);
    }
}

/// One line being written: its record kind, then each field after one
/// space. [`end`](Line::end) closes it with a newline; a tail record,
/// whose framing closes it, is left open.
pub(crate) struct Line<'a>(&'a mut String);

/// Starts a line of record kind `kind` at the end of `out`.
pub(crate) fn line<'a>(out: &'a mut String, kind: &str) -> Line<'a> {
    out.push_str(kind);
    Line(out)
}

impl Line<'_> {
    /// Writes ` <value>`.
    pub(crate) fn field(&mut self, value: impl Field) -> &mut Self {
        self.0.push(' ');
        value.push_to(self.0);
        self
    }

    /// Writes ` <items>`, comma-separated; nothing after the space when
    /// there are none.
    pub(crate) fn joined<T: Field>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        self.0.push(' ');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            item.push_to(self.0);
        }
        self
    }

    /// Writes ` <items>`, comma-separated, or ` -` when there are none:
    /// every index and name list the journal and the dump write, what
    /// [`indices`] and [`items`] read back.
    pub(crate) fn list<T: Field>(&mut self, items: impl IntoIterator<Item = T>) -> &mut Self {
        let mut items = items.into_iter().peekable();
        if items.peek().is_none() {
            self.0.push_str(" -");
            return self;
        }
        self.joined(items)
    }

    /// Writes ` <hex>`: `bytes` as lowercase hex, `-` when empty.
    pub(crate) fn hex(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.push(' ');
        hex_encode_into(bytes, self.0);
        self
    }

    /// Writes ` <offset> <len> <crc08x>`: an extent's fields as the
    /// journal and the dump write them.
    pub(crate) fn extent(&mut self, extent: &Extent) -> &mut Self {
        let mut crc = [0u8; 8];
        hex_digits(&extent.crc.to_be_bytes(), &mut crc);
        let crc = std::str::from_utf8(&crc).expect("hex digits are ASCII");
        self.field(extent.offset).field(extent.len).field(crc)
    }

    /// Closes the line with a newline.
    pub(crate) fn end(&mut self) {
        self.0.push('\n');
    }
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

    #[test]
    fn written_numbers_are_display() {
        let mut rng = simtools::rng::SplitMix64::new(0xD1617);
        let mut values: Vec<u64> = vec![0, 1, 9, 10, 99, 100, 101, 999, 1000, u64::MAX];
        values.extend((0..20).map(|k| 10u64.pow(k) - 1));
        values.extend((0..20).map(|k| 10u64.pow(k)));
        values.extend((0..2000).map(|_| rng.next_u64() >> (rng.next_u64() % 64)));
        for v in values {
            let mut out = String::new();
            v.push_to(&mut out);
            (v as u32).push_to(&mut out);
            (v as usize).push_to(&mut out);
            let md = v as i64 & i64::MAX;
            let days = WorkDays::try_from_millidays(md).unwrap();
            days.push_to(&mut out);
            (WorkDays::ZERO - days).push_to(&mut out);
            let extent = Extent {
                offset: v,
                len: v >> 7,
                crc: v as u32,
            };
            line(&mut out, "").extent(&extent);
            let want = format!(
                "{v}{}{}{md}{} {v} {} {:08x}",
                v as u32,
                v as usize,
                -md,
                v >> 7,
                v as u32
            );
            assert_eq!(out, want);
        }
    }

    #[test]
    fn written_lines_are_what_the_reader_splits() {
        let mut out = String::new();
        line(&mut out, "sched")
            .field("Create")
            .field(3u32)
            .field(WorkDays::try_from_millidays(1500).unwrap())
            .field("assignees")
            .list(["alice", "bob"])
            .field("deps")
            .list(Vec::<u32>::new())
            .hex(b"\x00\xff")
            .hex(b"")
            .joined(Vec::<u32>::new())
            .extent(&Extent {
                offset: 7,
                len: 42,
                crc: 0xab,
            })
            .end();
        assert_eq!(
            out,
            "sched Create 3 1500 assignees alice,bob deps - 00ff -  7 42 000000ab\n"
        );
    }
}
