//! Trace exporters: JSONL event logs and Chrome `trace_event` JSON
//! (loadable in `chrome://tracing` and Perfetto), plus the atomic
//! file-write primitive shared with the bench harness.
//!
//! Two timestamp policies ([`Timebase`]):
//!
//! * [`Wall`](Timebase::Wall) — real `mono_ns` values, for profiling.
//! * [`Logical`](Timebase::Logical) — each item gets a per-thread DFS
//!   tick (1 tick = 1000 µs in the Chrome export). Wall time is
//!   excluded entirely, so a deterministic run exports
//!   **byte-identical** JSON — this is what the golden-file test pins.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::trace::{Arg, ArgValue, Trace, TraceItem};

/// Which timestamp domain an export uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timebase {
    /// Real monotonic nanoseconds since the collector epoch.
    Wall,
    /// Per-thread logical ticks (recording order), excluding wall
    /// time: byte-deterministic for golden pinning.
    Logical,
}

/// Escapes `s` as the body of a JSON string literal (appended to
/// `out`, without the surrounding quotes). The one JSON string escaper
/// in the workspace: exporters, the access log and bench reports all
/// write through it.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an f64 as JSON (no NaN/Inf — mapped to null).
fn json_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn write_value(v: &ArgValue, out: &mut String) {
    match v {
        ArgValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::I64(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::F64(x) => json_f64(*x, out),
        ArgValue::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        ArgValue::Str(x) => {
            out.push('"');
            escape_json(x, out);
            out.push('"');
        }
    }
}

fn write_args_object(args: &[Arg], out: &mut String) {
    out.push('{');
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(a.key, out);
        out.push_str("\":");
        write_value(&a.value, out);
    }
    out.push('}');
}

fn item_fields(item: &TraceItem) -> (&'static str, Option<&'static str>, u64, Option<i64>, &[Arg]) {
    match item {
        TraceItem::Enter {
            name,
            mono_ns,
            sim_md,
            args,
        } => ("enter", Some(name), *mono_ns, *sim_md, args),
        TraceItem::Exit {
            mono_ns,
            sim_md,
            args,
        } => ("exit", None, *mono_ns, *sim_md, args),
        TraceItem::Event {
            name,
            mono_ns,
            sim_md,
            args,
        } => ("event", Some(name), *mono_ns, *sim_md, args),
    }
}

/// Serializes the trace as JSONL: one JSON object per item, threads in
/// merge order. Fields: `kind` (`enter`/`exit`/`event`), `name`
/// (except exits), `lane`, `t` (per [`Timebase`]), `sim_md` when
/// published, `args` when non-empty.
pub fn to_jsonl(trace: &Trace, timebase: Timebase) -> String {
    let mut out = String::new();
    for thread in &trace.threads {
        for (tick, item) in thread.items.iter().enumerate() {
            let (kind, name, mono_ns, sim_md, args) = item_fields(item);
            let t = match timebase {
                Timebase::Wall => mono_ns,
                Timebase::Logical => tick as u64,
            };
            out.push_str("{\"kind\":\"");
            out.push_str(kind);
            out.push('"');
            if let Some(n) = name {
                out.push_str(",\"name\":\"");
                escape_json(n, &mut out);
                out.push('"');
            }
            let _ = write!(out, ",\"lane\":{},\"t\":{t}", thread.lane);
            if let Some(md) = sim_md {
                let _ = write!(out, ",\"sim_md\":{md}");
            }
            if !args.is_empty() {
                out.push_str(",\"args\":");
                write_args_object(args, &mut out);
            }
            out.push_str("}\n");
        }
    }
    out
}

/// Serializes the trace in Chrome `trace_event` format (JSON object
/// with a `traceEvents` array), loadable in `chrome://tracing` and
/// Perfetto:
///
/// * matched spans → `ph:"X"` complete events (`ts`/`dur` in µs),
/// * point events → `ph:"i"` thread-scoped instants,
/// * one `ph:"M"` `thread_name` metadata record per lane.
///
/// `pid` is always 1; `tid` is the lane. Under
/// [`Timebase::Logical`] every item advances its thread's clock by
/// 1000 µs, so nesting renders visibly and output is deterministic.
/// Simulated timestamps ride along as `args.sim_md` — real and
/// simulated domains are never mixed in `ts`.
pub fn to_chrome(trace: &Trace, timebase: Timebase) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let emit = |line: &str, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    for thread in &trace.threads {
        let line = format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"lane {}\"}}}}",
            thread.lane, thread.lane
        );
        emit(&line, &mut out, &mut first);
    }

    const TICK_US: u64 = 1000;
    for thread in &trace.threads {
        // Open spans: (name, start_us, enter args, enter sim_md).
        let mut open: Vec<(&'static str, u64, Vec<Arg>, Option<i64>)> = Vec::new();
        for (tick, item) in thread.items.iter().enumerate() {
            let (_, _, mono_ns, _, _) = item_fields(item);
            let t_us = match timebase {
                Timebase::Wall => mono_ns / 1000,
                Timebase::Logical => tick as u64 * TICK_US,
            };
            match item {
                TraceItem::Enter {
                    name, sim_md, args, ..
                } => {
                    open.push((name, t_us, args.clone(), *sim_md));
                }
                TraceItem::Exit { sim_md, args, .. } => {
                    let Some((name, start_us, mut all_args, enter_md)) = open.pop() else {
                        continue; // invalid trace; validate() reports it
                    };
                    all_args.extend(args.iter().cloned());
                    let mut line = String::new();
                    let _ = write!(
                        line,
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"",
                        thread.lane
                    );
                    escape_json(name, &mut line);
                    let _ = write!(
                        line,
                        "\",\"ts\":{start_us},\"dur\":{},\"args\":",
                        t_us.saturating_sub(start_us).max(1)
                    );
                    let mut args_with_sim = all_args;
                    if let Some(md) = enter_md {
                        args_with_sim.insert(0, Arg::new("sim_md", md));
                    }
                    if let Some(md) = sim_md {
                        args_with_sim.push(Arg::new("sim_md_end", *md));
                    }
                    write_args_object(&args_with_sim, &mut line);
                    line.push('}');
                    emit(&line, &mut out, &mut first);
                }
                TraceItem::Event {
                    name, sim_md, args, ..
                } => {
                    let mut line = String::new();
                    let _ = write!(line, "{{\"ph\":\"i\",\"pid\":1,\"tid\":{}", thread.lane);
                    line.push_str(",\"s\":\"t\",\"name\":\"");
                    escape_json(name, &mut line);
                    let _ = write!(line, "\",\"ts\":{t_us},\"args\":");
                    let mut args_with_sim = args.clone();
                    if let Some(md) = sim_md {
                        args_with_sim.insert(0, Arg::new("sim_md", *md));
                    }
                    write_args_object(&args_with_sim, &mut line);
                    line.push('}');
                    emit(&line, &mut out, &mut first);
                }
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Writes `contents` to `path` **atomically and durably**: parent
/// directories are created, the bytes go to a `.tmp` sibling which is
/// fsynced, a rename publishes the file, and the parent directory is
/// fsynced so the rename itself survives a power cut — readers never
/// observe a torn write, and a crash never rolls the file back to
/// nothing. This is the single atomic-write primitive for the
/// workspace (the bench harness's `write_report` delegates here).
///
/// # Errors
///
/// Any I/O failure from directory creation, the write, the syncs, or
/// the rename. The temp file is removed on any failure.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "target path has no file name")
    })?;
    // Pid-suffixed temp name: concurrent writers never clobber each
    // other's staging file, and a failed rename cleans up after itself.
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        std::fs::write(&tmp, contents)?;
        // Contents must be durable *before* the rename publishes the
        // name, or a crash can publish an empty file.
        std::fs::File::open(&tmp)?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Fsyncs `path`'s parent directory so a just-completed rename is
/// durable. Best-effort: directory handles cannot be opened for sync
/// on all platforms (notably Windows), and the rename's *atomicity*
/// holds regardless — only its durability needs this.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        let dir = if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        };
        if let Ok(handle) = std::fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// Validates that `text` is one well-formed JSON value (trailing
/// whitespace allowed): [`parse_json`] with the tree discarded, so CI
/// can gate exporter output without external tooling.
///
/// # Errors
///
/// A byte offset and description of the first syntax error.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text).map(drop)
}

/// Validates JSONL: every non-empty line is a JSON value.
///
/// # Errors
///
/// The first offending line number and its error.
pub fn validate_jsonl(text: &str) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(())
}

/// Validates Prometheus text exposition format (v0): every line is a
/// comment (`# TYPE` lines are checked structurally) or a sample of
/// the form `name[{label="value",…}] value [timestamp]`. The same
/// offline-gate role [`validate_json`] plays for the JSON exporters.
///
/// # Errors
///
/// The first offending line number and a description.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        validate_prom_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(())
}

fn is_prom_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_prom_name_char(c: char) -> bool {
    is_prom_name_start(c) || c.is_ascii_digit()
}

fn parse_prom_name(s: &str) -> Result<(&str, &str), String> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, c)) if is_prom_name_start(c) => {}
        _ => return Err(format!("expected metric name at {s:?}")),
    }
    let end = s
        .char_indices()
        .find(|(_, c)| !is_prom_name_char(*c))
        .map_or(s.len(), |(i, _)| i);
    Ok((&s[..end], &s[end..]))
}

fn validate_prom_line(line: &str) -> Result<(), String> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(comment) = line.strip_prefix('#') {
        let comment = comment.trim_start();
        if let Some(ty) = comment.strip_prefix("TYPE ") {
            let mut parts = ty.split_whitespace();
            let name = parts.next().ok_or("TYPE line missing metric name")?;
            parse_prom_name(name)
                .ok()
                .filter(|(_, rest)| rest.is_empty())
                .ok_or_else(|| format!("bad metric name {name:?} in TYPE line"))?;
            let kind = parts.next().ok_or("TYPE line missing metric type")?;
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("unknown metric type {kind:?}"));
            }
            if parts.next().is_some() {
                return Err("trailing tokens on TYPE line".to_owned());
            }
        }
        return Ok(());
    }
    let (_, mut rest) = parse_prom_name(line)?;
    if let Some(labels) = rest.strip_prefix('{') {
        rest = validate_prom_labels(labels)?;
    }
    let rest = rest.trim_start();
    let mut parts = rest.split_whitespace();
    let value = parts.next().ok_or("sample line missing value")?;
    let is_special = matches!(value, "+Inf" | "-Inf" | "NaN" | "Inf");
    if !is_special && value.parse::<f64>().is_err() {
        return Err(format!("bad sample value {value:?}"));
    }
    if let Some(ts) = parts.next() {
        if ts.parse::<i64>().is_err() {
            return Err(format!("bad timestamp {ts:?}"));
        }
    }
    if parts.next().is_some() {
        return Err("trailing tokens on sample line".to_owned());
    }
    Ok(())
}

/// Validates `k="v",…}` (the leading `{` already consumed); returns
/// the remainder after the closing brace.
fn validate_prom_labels(mut s: &str) -> Result<&str, String> {
    loop {
        if let Some(rest) = s.strip_prefix('}') {
            return Ok(rest);
        }
        let (_, rest) = parse_prom_name(s).map_err(|_| format!("expected label name at {s:?}"))?;
        let rest = rest
            .strip_prefix("=\"")
            .ok_or_else(|| format!("expected =\" after label name at {s:?}"))?;
        // Scan the quoted value, honoring \\, \", \n escapes.
        let bytes = rest.as_bytes();
        let mut i = 0;
        loop {
            match bytes.get(i) {
                None => return Err("unterminated label value".to_owned()),
                Some(b'\\') => {
                    if !matches!(bytes.get(i + 1), Some(b'\\' | b'"' | b'n')) {
                        return Err(format!("bad escape in label value at byte {i}"));
                    }
                    i += 2;
                }
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        s = &rest[i + 1..];
        if let Some(rest) = s.strip_prefix(',') {
            s = rest;
        } else if !s.starts_with('}') {
            return Err(format!("expected ',' or '}}' after label at {s:?}"));
        }
    }
}

// ----------------------------------------------------------------------
// JSON tree parsing — the workspace's one JSON reader: `validate_json`
// discards the tree, and tools that read exporter output back (`herc
// top` polling `/metrics`, `bench_compare` reading reports, e2e tests
// asserting on access-log lines) consume it.
// ----------------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos} (expected {lit})"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while matches!(b.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("invalid number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("invalid number at byte {start}"));
        }
    }
    Ok(())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*pos + k).is_some_and(|d| d.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

/// A parsed JSON value. Objects keep their key order (the exporters
/// emit deterministically ordered objects, and consumers may pin it).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered `(key, value)` pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member by key (first match), if this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's `(key, value)` pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The array's elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses `text` as one JSON value (trailing whitespace allowed) into
/// a [`JsonValue`] tree.
///
/// # Errors
///
/// A byte offset and description of the first syntax error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = tree_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn tree_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err(format!("unexpected end of input at byte {pos}"));
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}"));
                }
                let key = tree_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, tree_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(tree_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => Ok(JsonValue::String(tree_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true").map(|()| JsonValue::Bool(true)),
        b'f' => parse_lit(b, pos, "false").map(|()| JsonValue::Bool(false)),
        b'n' => parse_lit(b, pos, "null").map(|()| JsonValue::Null),
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            parse_number(b, pos)?;
            let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        c => Err(format!("unexpected byte {:?} at {pos}", c as char)),
    }
}

/// Parses and unescapes a JSON string literal starting at `b[*pos]`.
fn tree_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    parse_string(b, pos)?; // validates; [start+1, *pos-1] is the body
    let body = std::str::from_utf8(&b[start + 1..*pos - 1])
        .map_err(|_| format!("non-UTF-8 string at byte {start}"))?;
    if !body.contains('\\') {
        return Ok(body.to_owned());
    }
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
                // Lone surrogates are well-formed JSON; they map to the
                // replacement character rather than failing.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err("bad escape".to_owned()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ThreadTrace;

    fn sample() -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                lane: 0,
                items: vec![
                    TraceItem::Enter {
                        name: "plan",
                        mono_ns: 1_000,
                        sim_md: Some(0),
                        args: vec![Arg::new("target", "signoff")],
                    },
                    TraceItem::Event {
                        name: "cache.hit",
                        mono_ns: 1_500,
                        sim_md: None,
                        args: Vec::new(),
                    },
                    TraceItem::Exit {
                        mono_ns: 9_000,
                        sim_md: Some(2_000),
                        args: vec![Arg::new("dirty", 3u64)],
                    },
                ],
            }],
        }
    }

    #[test]
    fn jsonl_is_valid_and_logical_is_deterministic() {
        let t = sample();
        let wall = to_jsonl(&t, Timebase::Wall);
        validate_jsonl(&wall).unwrap();
        assert!(wall.contains("\"t\":1000"));
        let a = to_jsonl(&t, Timebase::Logical);
        let b = to_jsonl(&t, Timebase::Logical);
        assert_eq!(a, b);
        assert!(a.contains("\"t\":0"));
        assert!(!a.contains("1000")); // wall time fully excluded
    }

    #[test]
    fn chrome_export_is_valid_json_with_complete_and_instant_events() {
        let t = sample();
        for tb in [Timebase::Wall, Timebase::Logical] {
            let json = to_chrome(&t, tb);
            validate_json(&json).unwrap();
            assert!(json.contains("\"ph\":\"X\""), "{json}");
            assert!(json.contains("\"ph\":\"i\""), "{json}");
            assert!(json.contains("\"ph\":\"M\""), "{json}");
            assert!(json.contains("\"sim_md\":0"), "{json}");
        }
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let t = Trace {
            threads: vec![ThreadTrace {
                lane: 0,
                items: vec![
                    TraceItem::Enter {
                        name: "s",
                        mono_ns: 0,
                        sim_md: None,
                        args: vec![Arg::new("msg", "quote\" slash\\ newline\n tab\t ctrl\u{1}")],
                    },
                    TraceItem::Exit {
                        mono_ns: 1,
                        sim_md: None,
                        args: Vec::new(),
                    },
                ],
            }],
        };
        validate_jsonl(&to_jsonl(&t, Timebase::Wall)).unwrap();
        validate_json(&to_chrome(&t, Timebase::Wall)).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_json("{\"a\":1}").is_ok());
        assert!(validate_json("[1,2,3]").is_ok());
        assert!(validate_json("{\"a\":}").is_err());
        assert!(validate_json("{]").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("12.").is_err());
        assert!(validate_json("{} extra").is_err());
        assert!(validate_jsonl("{\"a\":1}\nnot json\n").is_err());
    }

    #[test]
    fn json_tree_parser_round_trips_metrics_shapes() {
        let text = r#"{"serve.requests{endpoint=\"plan\"}":3,"lat":{"count":2,"sum":2.5,"p50":0.4,"buckets":[[0.25,0],[null,2]]},"ok":true,"none":null,"s":"a\"b\\c\nd"}"#;
        let v = parse_json(text).unwrap();
        assert_eq!(
            v.get("serve.requests{endpoint=\"plan\"}")
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        let lat = v.get("lat").unwrap();
        assert_eq!(lat.get("sum").and_then(JsonValue::as_f64), Some(2.5));
        let buckets = lat.get("buckets").and_then(JsonValue::as_array).unwrap();
        assert_eq!(buckets[1].as_array().unwrap()[0], JsonValue::Null);
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\"b\\c\nd"));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
        // The exporters' own output parses.
        parse_json(&crate::Metrics::to_json()).unwrap();
    }

    #[test]
    fn write_atomic_creates_parents_and_replaces() {
        let dir = std::env::temp_dir().join(format!("obs_export_test_{}", std::process::id()));
        let path = dir.join("nested/report.json");
        write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
