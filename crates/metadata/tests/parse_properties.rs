//! Seeded properties of the two line parsers: the snapshot loader
//! ([`MetadataDb::load`]) and the journal record parser
//! ([`Journal::parse`]), and of the open and scrub that read a store
//! through them.
//!
//! * Databases built by random op sequences round-trip dump → load →
//!   dump byte for byte.
//! * Random single-byte edits of a snapshot and of a journal read the
//!   same through the parsers as through [`parent`], the readers as
//!   they were before the one field reader: `split_whitespace`, a
//!   collected field vector and `str::parse`, kept here as the oracle.
//!   The oracle accepts what the typed field readers accept: a time is
//!   a non-negative `i64` in both parsers, a snapshot index is a
//!   `u32`, and a `run` line's iteration is a `u32` that the loader
//!   checks against the one it derives.
//!   The oracle does not build a database (that needs crate-private
//!   constructors); it reads each line into the canonical line the
//!   writer would emit for the same values, and stops at the first line
//!   it refuses. A snapshot's expected result is then the loader's
//!   result on the canonical lines before that one (an inconsistency
//!   there comes first), else the oracle's refusal, else the loader's
//!   result on all canonical lines; a journal's is the canonical text
//!   or the refusal.
//! * Random byte edits of a store's live snapshot, live tail and data
//!   segment never make [`PersistentStore::open_on`] or
//!   [`fsck::scrub`] panic, and open (plus a read of every datum)
//!   serves the store exactly when the scrub calls it healthy. Half the
//!   edits of a snapshot or tail are checksummed again, so they reach
//!   the parsers instead of stopping at the checksum. Seeds
//!   `0x5EED_0033`..`0x5EED_0035`, 120 random edits per file; on top,
//!   every field of the snapshot and the tail is given a leading `-`
//!   and checksummed again (a negative time or index must be refused).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use metadata::framing::crc32;
use metadata::{fsck, Framing, Journal, LoadError, MetadataDb, PersistentStore, Store};
use schedule::WorkDays;
use simtools::rng::SplitMix64;
use simtools::vfs::{MemVfs, Vfs};

/// The readers before the one field reader, reading into canonical
/// lines. Each function keeps the original's checks, in its order, and
/// its messages, with the typed readers' ranges.
mod parent {
    use metadata::LoadError;
    use std::fmt::Write as _;

    pub fn hex(bytes: &[u8]) -> String {
        if bytes.is_empty() {
            return "-".to_owned();
        }
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
        if s == "-" {
            return Ok(Vec::new());
        }
        let hex = s.as_bytes();
        if !hex.len().is_multiple_of(2) {
            return Err("odd-length hex payload".to_owned());
        }
        let value = |d: u8| (d as char).to_digit(16).map(|v| v as u8);
        let mut out = Vec::with_capacity(hex.len() / 2);
        for pair in hex.chunks_exact(2) {
            match (value(pair[0]), value(pair[1])) {
                (Some(hi), Some(lo)) => out.push(hi << 4 | lo),
                _ => {
                    let pair = String::from_utf8_lossy(pair);
                    return Err(format!("invalid hex pair {pair:?}"));
                }
            }
        }
        Ok(out)
    }

    pub fn hex_decode_name(s: &str) -> Result<String, String> {
        String::from_utf8(hex_decode(s)?).map_err(|_| "data name is not UTF-8".to_owned())
    }

    /// ` <offset> <len> <crc08x>`, canonical.
    pub fn parse_extent(offset: &str, len: &str, crc: &str) -> Result<String, String> {
        let number = |s: &str| match s.bytes().all(|b| b.is_ascii_digit()) {
            true => s
                .parse::<u64>()
                .map_err(|_| format!("bad extent field {s:?}")),
            false => Err(format!("bad extent field {s:?}")),
        };
        if crc.len() != 8 || !crc.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("bad extent checksum {crc:?}"));
        }
        let (offset, len) = (number(offset)?, number(len)?);
        let crc =
            u32::from_str_radix(crc, 16).map_err(|_| format!("bad extent checksum {crc:?}"))?;
        Ok(format!(" {offset} {len} {crc:08x}"))
    }

    pub fn parse_slot_ranges(list: &str) -> Result<String, String> {
        let slot = |s: &str| match !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
            true => s.parse::<u32>().map_err(|_| format!("bad slot {s:?}")),
            false => Err(format!("bad slot {s:?}")),
        };
        let runs = list
            .split(',')
            .map(|part| match part.split_once('-') {
                None => slot(part).map(|first| first.to_string()),
                Some((first, last)) => match (slot(first)?, slot(last)?) {
                    (first, last) if first < last => Ok(format!("{first}-{last}")),
                    _ => Err(format!("bad slot range {part:?}")),
                },
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(runs.join(","))
    }

    fn bad(line: usize, message: &str) -> LoadError {
        LoadError::BadLine {
            line: line + 1,
            message: message.to_owned(),
        }
    }

    /// One journal op line, canonical; `None` for a blank line.
    pub fn parse_op_line(lineno: usize, line: &str) -> Result<Option<String>, LoadError> {
        let md = |s: &str| -> Result<i64, LoadError> {
            match s.parse() {
                Ok(md) if md >= 0 => Ok(md),
                _ => Err(bad(lineno, &format!("bad milli-day timestamp {s:?}"))),
            }
        };
        let idx = |s: &str| -> Result<u32, LoadError> {
            s.parse()
                .map_err(|_| bad(lineno, &format!("bad index {s:?}")))
        };
        let mut fields = line.split_whitespace();
        let Some(kind) = fields.next() else {
            return Ok(None);
        };
        let rest: Vec<&str> = fields.collect();
        let malformed = || bad(lineno, &format!("malformed {kind} line"));
        let text = match kind {
            "declare-entity" => match rest.as_slice() {
                [class] => format!("declare-entity {class}"),
                _ => return Err(malformed()),
            },
            "declare-schedule" => match rest.as_slice() {
                [a, o] => format!("declare-schedule {a} {o}"),
                _ => return Err(malformed()),
            },
            "store-data" => match rest.as_slice() {
                [name, content] => {
                    let name = hex_decode_name(name).map_err(|m| bad(lineno, &m))?;
                    let content = hex_decode(content).map_err(|m| bad(lineno, &m))?;
                    format!("store-data {} {}", hex(name.as_bytes()), hex(&content))
                }
                _ => return Err(malformed()),
            },
            "store-data-ref" => match rest.as_slice() {
                [name, offset, len, crc] => {
                    let name = hex_decode_name(name).map_err(|m| bad(lineno, &m))?;
                    let extent = parse_extent(offset, len, crc).map_err(|m| bad(lineno, &m))?;
                    format!("store-data-ref {}{extent}", hex(name.as_bytes()))
                }
                _ => return Err(malformed()),
            },
            "begin-run" => match rest.as_slice() {
                [a, o, started] => format!("begin-run {a} {o} {}", md(started)?),
                _ => return Err(malformed()),
            },
            "finish-run" => match rest.as_slice() {
                [run, class, data, finished, "inputs", list] => {
                    let mut inputs = Vec::new();
                    if *list != "-" {
                        for part in list.split(',') {
                            inputs.push(idx(part)?.to_string());
                        }
                    }
                    let (run, data, finished) = (idx(run)?, idx(data)?, md(finished)?);
                    let inputs = match inputs.is_empty() {
                        true => "-".to_owned(),
                        false => inputs.join(","),
                    };
                    format!("finish-run {run} {class} {data} {finished} inputs {inputs}")
                }
                _ => return Err(malformed()),
            },
            "supply-input" => match rest.as_slice() {
                [class, creator, created, data] => {
                    let created = md(created)?;
                    format!("supply-input {class} {creator} {created} {}", idx(data)?)
                }
                _ => return Err(malformed()),
            },
            "begin-planning" => match rest.as_slice() {
                [at] => format!("begin-planning {}", md(at)?),
                _ => return Err(malformed()),
            },
            "plan-activity" => match rest.as_slice() {
                [session, activity, start, duration] => {
                    let session = idx(session)?;
                    let (start, duration) = (md(start)?, md(duration)?);
                    format!("plan-activity {session} {activity} {start} {duration}")
                }
                _ => return Err(malformed()),
            },
            "carry-plan" => match rest.as_slice() {
                [session, list] => {
                    let session = idx(session)?;
                    let runs = parse_slot_ranges(list).map_err(|m| bad(lineno, &m))?;
                    format!("carry-plan {session} {runs}")
                }
                _ => return Err(malformed()),
            },
            "assign" => match rest.as_slice() {
                [schedule, designer] => format!("assign {} {designer}", idx(schedule)?),
                _ => return Err(malformed()),
            },
            "link" => match rest.as_slice() {
                [schedule, entity] => format!("link {} {}", idx(schedule)?, idx(entity)?),
                _ => return Err(malformed()),
            },
            other => return Err(bad(lineno, &format!("unknown op kind {other:?}"))),
        };
        Ok(Some(text))
    }

    /// A journal's canonical text (header and one line per op).
    pub fn parse_journal(text: &str) -> Result<String, LoadError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "metadata-journal v1")) => {}
            _ => return Err(LoadError::BadHeader),
        }
        let mut out = String::from("metadata-journal v1\n");
        for (lineno, line) in lines {
            if let Some(op) = parse_op_line(lineno, line)? {
                out.push_str(&op);
                out.push('\n');
            }
        }
        Ok(out)
    }

    fn parse_days(s: &str) -> Result<i64, String> {
        let md: i64 = s.parse().map_err(|e| format!("bad timestamp: {e}"))?;
        if md < 0 {
            return Err(format!("bad timestamp: {md} is negative"));
        }
        Ok(md)
    }

    /// A snapshot read line by line: the canonical lines, one per input
    /// line (blank for a blank one), up to the first line refused, and
    /// that refusal. A `run` line refused at its finish keeps its
    /// canonical start: the original began the run before it read the
    /// finish.
    pub struct Snapshot {
        pub lines: Vec<String>,
        pub refused: Option<LoadError>,
    }

    pub fn read_snapshot(text: &str) -> Result<Snapshot, LoadError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "metadata-db v1")) => {}
            _ => return Err(LoadError::BadHeader),
        }
        let mut out = Snapshot {
            lines: vec!["metadata-db v1".to_owned()],
            refused: None,
        };
        for (lineno, line) in lines {
            match snapshot_line(lineno, line) {
                Ok(canonical) => out.lines.push(canonical),
                Err((partial, e)) => {
                    out.lines.extend(partial);
                    out.refused = Some(e);
                    break;
                }
            }
        }
        Ok(out)
    }

    type LineError = (Option<String>, LoadError);

    fn snapshot_line(lineno: usize, line: &str) -> Result<String, LineError> {
        let bad = |message: &str| (None, bad(lineno, message));
        let days = |s: &str| parse_days(s).map_err(|m| bad(&m));
        let index = |s: &str, what: &str| -> Result<u32, LineError> {
            s.parse::<u32>().map_err(|_| bad(what))
        };
        let mut fields = line.split_whitespace();
        let Some(kind) = fields.next() else {
            return Ok(String::new());
        };
        let rest: Vec<&str> = fields.collect();
        let mut out = String::new();
        match kind {
            "container" => match rest.as_slice() {
                ["entity", class] => write!(out, "container entity {class}").unwrap(),
                ["schedule", a, o] => write!(out, "container schedule {a} {o}").unwrap(),
                _ => return Err(bad("malformed container line")),
            },
            "data" => {
                let [name, content] = rest.as_slice() else {
                    return Err(bad("malformed data line"));
                };
                let name = hex_decode_name(name).map_err(|m| bad(&m))?;
                let content = hex_decode(content).map_err(|m| bad(&m))?;
                write!(out, "data {} {}", hex(name.as_bytes()), hex(&content)).unwrap();
            }
            "data-ref" => {
                let [name, offset, len, crc] = rest.as_slice() else {
                    return Err(bad("malformed data-ref line"));
                };
                let name = hex_decode_name(name).map_err(|m| bad(&m))?;
                let extent = parse_extent(offset, len, crc).map_err(|m| bad(&m))?;
                write!(out, "data-ref {}{extent}", hex(name.as_bytes())).unwrap();
            }
            "session" => {
                let [at] = rest.as_slice() else {
                    return Err(bad("malformed session line"));
                };
                write!(out, "session {}", days(at)?).unwrap();
            }
            "run" => {
                let (activity, operator, iteration, started, finished) = match rest.as_slice() {
                    [a, o, i, s] => (a, o, i, s, None),
                    [a, o, i, s, f] => (a, o, i, s, Some(*f)),
                    _ => return Err(bad("malformed run line")),
                };
                let iteration = index(iteration, "bad run iteration")?;
                let started = days(started)?;
                write!(out, "run {activity} {operator} {iteration} {started}").unwrap();
                if let Some(f) = finished {
                    match days(f) {
                        Ok(f) => write!(out, " {f}").unwrap(),
                        Err((_, e)) => return Err((Some(out), e)),
                    }
                }
            }
            "entity" => {
                let mut it = rest.iter();
                let (Some(class), Some(created), Some(creator)) = (it.next(), it.next(), it.next())
                else {
                    return Err(bad("malformed entity line"));
                };
                let created = days(created)?;
                let mut produced_by = None;
                let mut deps = Vec::new();
                let mut data = None;
                while let Some(word) = it.next() {
                    match *word {
                        "run" => {
                            let idx = it.next().ok_or_else(|| bad("run needs an index"))?;
                            produced_by = Some(index(idx, "bad run index")?);
                        }
                        "deps" => {
                            let list = it.next().ok_or_else(|| bad("deps needs a list"))?;
                            if *list != "-" {
                                for part in list.split(',') {
                                    deps.push(index(part, "bad dep index")?.to_string());
                                }
                            }
                        }
                        "data" => {
                            let idx = it.next().ok_or_else(|| bad("data needs an index"))?;
                            data = Some(index(idx, "bad data index")?);
                        }
                        other => return Err(bad(&format!("unknown entity field {other:?}"))),
                    }
                }
                let data = data.ok_or_else(|| bad("entity without data"))?;
                write!(out, "entity {class} {created} {creator}").unwrap();
                if let Some(run) = produced_by {
                    write!(out, " run {run}").unwrap();
                }
                let deps = match deps.is_empty() {
                    true => "-".to_owned(),
                    false => deps.join(","),
                };
                write!(out, " deps {deps} data {data}").unwrap();
            }
            "sched" => {
                let mut it = rest.iter();
                let (Some(activity), Some(session), Some(start), Some(duration)) =
                    (it.next(), it.next(), it.next(), it.next())
                else {
                    return Err(bad("malformed sched line"));
                };
                let session = index(session, "bad session index")?;
                let (start, duration) = (days(start)?, days(duration)?);
                let mut assignees: Vec<&str> = Vec::new();
                let mut links = Vec::new();
                while let Some(word) = it.next() {
                    match *word {
                        "assignees" => {
                            let list = it.next().ok_or_else(|| bad("assignees needs a list"))?;
                            if *list != "-" {
                                assignees.extend(list.split(','));
                            }
                        }
                        "link" => {
                            let idx = it.next().ok_or_else(|| bad("link needs an index"))?;
                            links.push(index(idx, "bad link index")?);
                        }
                        other => return Err(bad(&format!("unknown sched field {other:?}"))),
                    }
                }
                // A list is one field: an empty name can only stand
                // between commas, and the loader reads it back as one.
                let assignees = match assignees.is_empty() {
                    true => "-".to_owned(),
                    false => assignees.join(","),
                };
                write!(out, "sched {activity} {session} {start} {duration}").unwrap();
                write!(out, " assignees {assignees}").unwrap();
                for link in links {
                    write!(out, " link {link}").unwrap();
                }
            }
            other => return Err(bad(&format!("unknown record kind {other:?}"))),
        }
        Ok(out)
    }
}

/// A loaded database as canonical text: its compacted journal, which
/// covers every record and reads no design data (a `data-ref` datum has
/// no segment here).
fn state(result: Result<MetadataDb, LoadError>) -> Result<String, LoadError> {
    result.map(|db| Journal::compacted_from(&db).to_text())
}

/// What the snapshot reader before the field reader gives for `text`.
fn expected_snapshot(text: &str) -> Result<String, LoadError> {
    let read = parent::read_snapshot(text)?;
    let canonical = read.lines.join("\n");
    let loaded = state(MetadataDb::load(&canonical));
    match read.refused {
        Some(refusal) => loaded.and(Err(refusal)),
        None => loaded,
    }
}

const DESIGNERS: [&str; 4] = ["alice", "bob", "carol", "dave"];

fn designer(rng: &mut SplitMix64) -> &'static str {
    DESIGNERS[(rng.next_u64() % DESIGNERS.len() as u64) as usize]
}

fn pick<'a, T>(rng: &mut SplitMix64, items: &'a [T]) -> &'a T {
    &items[(rng.next_u64() % items.len() as u64) as usize]
}

/// A database built by `ops` random operations on the circuit schema,
/// with every op journaled.
fn random_db(rng: &mut SplitMix64, ops: usize) -> MetadataDb {
    let schema = schema::examples::circuit_design();
    let mut db = MetadataDb::for_schema(&schema);
    db.enable_journal();
    let activities = ["Create", "Simulate"];
    let mut clock = 0i64;
    let mut session = None;
    for _ in 0..ops {
        clock += (rng.next_u64() % 3000) as i64;
        let md = |md: i64| WorkDays::try_from_millidays(md).unwrap();
        let at = md(clock);
        match rng.next_u64() % 7 {
            0 => session = Some(db.begin_planning(at)),
            1 => {
                let Some(s) = session else { continue };
                let activity = *pick(rng, &activities);
                let start = md(clock + (rng.next_u64() % 500) as i64);
                let duration = md((rng.next_u64() % 4000) as i64);
                let sc = db.plan_activity(s, activity, start, duration).unwrap();
                for _ in 0..rng.next_u64() % 3 {
                    db.assign(sc, designer(rng)).unwrap();
                }
            }
            2 => {
                let Some(s) = session else { continue };
                let latest: Vec<_> = activities
                    .iter()
                    .filter_map(|a| db.current_plan(a).map(|sc| sc.id()))
                    .collect();
                db.carry_plan(s, &latest).unwrap();
            }
            3 => {
                let len = (rng.next_u64() % 6) as usize;
                let content: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let name = *pick(rng, &["stim.dat", "v", "ä b", ""]);
                let data = db.store_data(name, content);
                db.supply_input("stimuli", designer(rng), at, data).unwrap();
            }
            4 | 5 => {
                let (activity, output) =
                    *pick(rng, &[("Create", "netlist"), ("Simulate", "performance")]);
                let run = db.begin_run(activity, designer(rng), at).unwrap();
                if rng.next_u64().is_multiple_of(4) {
                    continue; // left unfinished
                }
                let data = db.store_data("out", vec![rng.next_u64() as u8]);
                let n = db.entity_count() as u64;
                let inputs: Vec<_> = db
                    .runs()
                    .iter()
                    .filter_map(|r| r.output())
                    .filter(|_| n > 0 && rng.next_u64().is_multiple_of(3))
                    .collect();
                let finished = md(clock + (rng.next_u64() % 2000) as i64);
                let e = db.finish_run(run, output, data, finished, &inputs).unwrap();
                if let Some(plan) = db.current_plan(activity).filter(|p| !p.is_complete()) {
                    if rng.next_u64().is_multiple_of(2) {
                        db.link_completion(plan.id(), e).unwrap();
                    }
                }
            }
            _ => {}
        }
    }
    db
}

/// `text` with its `data` lines turned into `data-ref` lines, as a
/// storage-v3 snapshot holds them.
fn by_reference(text: &str, rng: &mut SplitMix64) -> String {
    let mut out = String::new();
    for line in text.lines() {
        match line.strip_prefix("data ") {
            Some(rest) => {
                let name = rest.split(' ').next().unwrap_or("-");
                let crc = rng.next_u64() as u32;
                let offset = rng.next_u64() % 10_000;
                out.push_str(&format!("data-ref {name} {offset} 3 {crc:08x}\n"));
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

/// Characters an edit writes: separators of every kind, list and sign
/// characters, digits, hex and letters.
const EDITS: [&str; 24] = [
    " ", "\t", "\x0B", "\x0C", "\r", "\n", "\u{a0}", "\u{3000}", "\u{85}", "\x1C", ",", "-", "+",
    "0", "1", "9", "a", "f", "g", "x", "e", "A", "", "  ",
];

/// `text` with one edit: a character replaced, inserted or deleted.
fn edited(text: &str, rng: &mut SplitMix64) -> String {
    let bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
    if bounds.is_empty() {
        return text.to_owned();
    }
    let at = *pick(rng, &bounds);
    let end = at + text[at..].chars().next().map_or(0, char::len_utf8);
    let with = *pick(rng, &EDITS);
    match rng.next_u64() % 3 {
        0 => format!("{}{with}{}", &text[..at], &text[end..]),
        1 => format!("{}{with}{}", &text[..at], &text[at..]),
        _ => format!("{}{}", &text[..at], &text[end..]),
    }
}

#[test]
fn random_databases_round_trip_dump_load_byte_for_byte() {
    let mut rng = SplitMix64::new(0x5EED_0030);
    for case in 0..200 {
        let ops = (rng.next_u64() % 60) as usize;
        let db = random_db(&mut rng, ops);
        let dump = db.dump();
        let loaded = MetadataDb::load(&dump).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(loaded.dump(), dump, "case {case}");
        // The journal round-trips through its text too.
        let journal = db.journal().expect("journaled");
        let text = journal.to_text();
        assert_eq!(
            Journal::parse(&text).unwrap().to_text(),
            text,
            "case {case}"
        );
        assert_eq!(MetadataDb::recover(journal).unwrap().dump(), dump);
    }
}

#[test]
fn edited_snapshots_read_as_the_parent_reader_reads_them() {
    let mut rng = SplitMix64::new(0x5EED_0031);
    for case in 0..150 {
        let ops = 5 + (rng.next_u64() % 40) as usize;
        let db = random_db(&mut rng, ops);
        let mut snapshot = db.dump();
        if rng.next_u64().is_multiple_of(2) {
            snapshot = by_reference(&snapshot, &mut rng);
        }
        assert_eq!(
            state(MetadataDb::load(&snapshot)),
            expected_snapshot(&snapshot)
        );
        for edit in 0..40 {
            let text = edited(&snapshot, &mut rng);
            assert_eq!(
                state(MetadataDb::load(&text)),
                expected_snapshot(&text),
                "case {case}, edit {edit}: {text:?}"
            );
        }
    }
}

#[test]
fn edited_journals_parse_as_the_parent_reader_parses_them() {
    let mut rng = SplitMix64::new(0x5EED_0032);
    for case in 0..150 {
        let ops = 5 + (rng.next_u64() % 40) as usize;
        let db = random_db(&mut rng, ops);
        let journal = db.journal().expect("journaled").to_text();
        let parse = |text: &str| Journal::parse(text).map(|j| j.to_text());
        assert_eq!(parse(&journal), parent::parse_journal(&journal));
        for edit in 0..40 {
            let text = edited(&journal, &mut rng);
            assert_eq!(
                parse(&text),
                parent::parse_journal(&text),
                "case {case}, edit {edit}: {text:?}"
            );
        }
    }
}

/// The files of a store on `MemVfs` whose live generation has a
/// snapshot with history in it, a tail with more, and a data segment
/// that both reference.
fn store_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mem = MemVfs::new();
    let db = MetadataDb::for_schema(&schema::examples::circuit_design());
    let mut store = PersistentStore::create_on(mem.clone() as Arc<dyn Vfs>, dir, db).unwrap();
    let payload = |seed: usize, len: usize| -> Vec<u8> {
        (0..len).map(|i| (i * 31 + seed * 7 + 0x80) as u8).collect()
    };
    for round in 0..2 {
        let t = |days: f64| WorkDays::new(10.0 * round as f64 + days);
        let session = store.begin_planning(t(0.0));
        let sc = store
            .plan_activity(session, "Create", t(0.0), t(2.0))
            .unwrap();
        store.assign(sc, "alice").unwrap();
        let input = store.store_data(&format!("in{round}.stim"), payload(round, 300));
        store.supply_input("stimuli", "bob", t(0.0), input).unwrap();
        let run = store.begin_run("Create", "alice", t(0.5)).unwrap();
        let data = store.store_data(&format!("v{round}.net"), payload(round + 2, 1024));
        let e = store.finish_run(run, "netlist", data, t(1.5), &[]).unwrap();
        store.link_completion(sc, e).unwrap();
        if round == 0 {
            store.compact().unwrap();
        }
    }
    drop(store);
    let mut paths = mem.list_dir(dir).unwrap();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let bytes = mem.read(&path).unwrap();
            (path, bytes)
        })
        .collect()
}

/// Bytes an edit writes: separators, signs, digits, a list comma and
/// bytes that are not UTF-8 on their own.
const EDIT_BYTES: [u8; 12] = [
    b' ', b'\n', b'\t', b'-', b'+', b',', b'0', b'9', b'x', 0x00, 0xA0, 0xFF,
];

/// `bytes` with one byte replaced, inserted or deleted.
fn byte_edited(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let at = (rng.next_u64() % (bytes.len() as u64 + 1)) as usize;
    let with = *pick(rng, &EDIT_BYTES);
    let mut out = bytes.to_vec();
    match (rng.next_u64() % 3, at < bytes.len()) {
        (0, true) => out[at] = with,
        (1, true) => {
            out.remove(at);
        }
        _ => out.insert(at, with),
    }
    out
}

/// A snapshot or tail checksummed again after an edit, so the edit
/// reaches the parser: the snapshot's framing line over its body, and
/// each tail record's checksum field over its op. Bytes that are not
/// UTF-8 are left as they are.
fn rechecksummed(name: &str, bytes: Vec<u8>) -> Vec<u8> {
    let Ok(text) = String::from_utf8(bytes.clone()) else {
        return bytes;
    };
    if name.starts_with("snapshot-") {
        let framed = Framing::V2.encode_snapshot("");
        let magic = &framed[..framed.len() - "00000000\n".len()];
        return match text
            .strip_prefix(magic)
            .and_then(|rest| rest.split_once('\n'))
        {
            Some((_, body)) => Framing::V2.encode_snapshot(body).into_bytes(),
            None => bytes,
        };
    }
    let mut out = String::new();
    for (i, line) in text.split_inclusive('\n').enumerate() {
        let (record, end) = match line.strip_suffix('\n') {
            Some(record) => (record, "\n"),
            None => (line, ""),
        };
        match record.split_once(' ') {
            Some((crc, op)) if i > 0 && crc.len() == 8 => {
                out.push_str(&format!("{:08x} {op}{end}", crc32(op.as_bytes())));
            }
            _ => out.push_str(line),
        }
    }
    out.into_bytes()
}

/// Scrubs, then opens and reads every datum of, `files` on a fresh
/// `MemVfs`: the scrub's health and whether the store served. Scrub
/// goes first because open heals a torn tail.
fn scrub_then_open(dir: &Path, files: &[(PathBuf, Vec<u8>)]) -> (bool, Result<(), String>) {
    let mem = MemVfs::new();
    mem.create_dir_all(dir).unwrap();
    for (path, bytes) in files {
        mem.write(path, bytes).unwrap();
    }
    let vfs: Arc<dyn Vfs> = mem;
    let healthy = fsck::scrub(&*vfs, dir).is_ok_and(|scrub| scrub.healthy);
    let served = PersistentStore::open_on(Arc::clone(&vfs), dir)
        .and_then(|store| store.db().try_dump().map(drop))
        .map_err(|e| e.to_string());
    (healthy, served)
}

#[test]
fn byte_edits_of_a_store_never_panic_and_open_agrees_with_scrub() {
    let dir = Path::new("/proj");
    let files = store_files(dir);
    let (healthy, served) = scrub_then_open(dir, &files);
    assert!(healthy && served.is_ok(), "the unedited store: {served:?}");
    let current = files
        .iter()
        .find(|(path, _)| path.ends_with("CURRENT"))
        .map(|(_, bytes)| String::from_utf8_lossy(bytes).trim().to_owned())
        .expect("a CURRENT file");
    let targets = [
        (format!("snapshot-{current}.txt"), 0x5EED_0033),
        (format!("tail-{current}.journal"), 0x5EED_0034),
        ("data.seg".to_owned(), 0x5EED_0035),
    ];
    for (name, seed) in targets {
        let slot = files
            .iter()
            .position(|(path, _)| path.ends_with(&name))
            .unwrap_or_else(|| panic!("no {name} among {files:?}"));
        let original = &files[slot].1;
        let mut rng = SplitMix64::new(seed);
        let random = (0..120).map(|_| {
            let edited = byte_edited(original, &mut rng);
            match name != "data.seg" && rng.next_u64().is_multiple_of(2) {
                true => rechecksummed(&name, edited),
                false => edited,
            }
        });
        let field_starts = (0..original.len())
            .filter(|&i| original[i] != b' ' && (i == 0 || original[i - 1] == b' '))
            .filter(|_| name != "data.seg");
        let negated = field_starts.map(|at| {
            let mut edited = original.clone();
            edited.insert(at, b'-');
            rechecksummed(&name, edited)
        });
        for (edit, edited) in random
            .collect::<Vec<_>>()
            .into_iter()
            .chain(negated)
            .enumerate()
        {
            let mut case = files.clone();
            case[slot].1 = edited;
            let outcome = catch_unwind(AssertUnwindSafe(|| scrub_then_open(dir, &case)));
            let (healthy, served) = outcome.unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()));
                panic!("{name}, edit {edit}: open or scrub panicked: {message:?}")
            });
            assert_eq!(
                healthy,
                served.is_ok(),
                "{name}, edit {edit}: scrub and open disagree: {served:?}"
            );
        }
    }
}

/// A time past one duration's cap (10^12 days) is a sum of durations —
/// a planned start, a run's finish, the clock — that the store writes,
/// so every reader takes it back: a store whose run finishes past
/// 10^15 milli-days reopens from its tail, reloads from its dump (as
/// gc does) and reopens from the snapshot compaction writes, and the
/// scrub calls it healthy.
#[test]
fn times_past_one_durations_cap_reopen_reload_and_compact() {
    let long = WorkDays::new(1e12);
    let finish = long + long;
    assert!(finish.millidays() > 1_000_000_000_000_000);
    let dir = Path::new("/late");
    let vfs: Arc<dyn Vfs> = MemVfs::new();
    let db = MetadataDb::for_schema(&schema::examples::circuit_design());
    let mut store = PersistentStore::create_on(Arc::clone(&vfs), dir, db).unwrap();
    let session = store.begin_planning(long);
    let sc = store.plan_activity(session, "Create", long, long).unwrap();
    store.assign(sc, "alice").unwrap();
    let run = store.begin_run("Create", "alice", long).unwrap();
    let data = store.store_data("v.net", b"netlist".to_vec());
    let e = store.finish_run(run, "netlist", data, finish, &[]).unwrap();
    store.link_completion(sc, e).unwrap();
    store.begin_planning(finish);
    let dump = store.db().try_dump().unwrap();
    drop(store);

    let mut reopened = PersistentStore::open_on(Arc::clone(&vfs), dir).unwrap();
    assert_eq!(reopened.db().try_dump().unwrap(), dump);
    assert_eq!(MetadataDb::load(&dump).unwrap().try_dump().unwrap(), dump);
    reopened.compact().unwrap();
    drop(reopened);
    let compacted = PersistentStore::open_on(Arc::clone(&vfs), dir).unwrap();
    assert_eq!(compacted.db().try_dump().unwrap(), dump);
    assert!(fsck::scrub(&*vfs, dir).unwrap().healthy);
}
