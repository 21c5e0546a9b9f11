//! Seeded properties of the two line parsers: the snapshot loader
//! ([`MetadataDb::load`]) and the journal record parser
//! ([`Journal::parse`]).
//!
//! * Databases built by random op sequences round-trip dump → load →
//!   dump byte for byte.
//! * Random single-byte edits of a snapshot and of a journal read the
//!   same through the parsers as through [`parent`], the readers as
//!   they were before the one field reader: `split_whitespace`, a
//!   collected field vector and `str::parse`, kept here as the oracle.
//!   The oracle does not build a database (that needs crate-private
//!   constructors); it reads each line into the canonical line the
//!   writer would emit for the same values, and stops at the first line
//!   it refuses. A snapshot's expected result is then the loader's
//!   result on the canonical lines before that one (an inconsistency
//!   there comes first), else the oracle's refusal, else the loader's
//!   result on all canonical lines; a journal's is the canonical text
//!   or the refusal.

use metadata::{Journal, LoadError, MetadataDb};
use schedule::WorkDays;
use simtools::rng::SplitMix64;

/// The readers before the one field reader, reading into canonical
/// lines. Each function keeps the original's checks, in its order, and
/// its messages.
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
            s.parse()
                .map_err(|_| bad(lineno, &format!("bad milli-day timestamp {s:?}")))
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
            s.parse::<usize>().map(|i| i as u32).map_err(|_| bad(what))
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
                let (activity, operator, started, finished) = match rest.as_slice() {
                    [a, o, _iter, s] => (a, o, s, None),
                    [a, o, _iter, s, f] => (a, o, s, Some(*f)),
                    _ => return Err(bad("malformed run line")),
                };
                write!(out, "run {activity} {operator} 1 {}", days(started)?).unwrap();
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
        let at = WorkDays::from_millidays(clock);
        match rng.next_u64() % 7 {
            0 => session = Some(db.begin_planning(at)),
            1 => {
                let Some(s) = session else { continue };
                let activity = *pick(rng, &activities);
                let start = WorkDays::from_millidays(clock + (rng.next_u64() % 500) as i64);
                let duration = WorkDays::from_millidays((rng.next_u64() % 4000) as i64);
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
                let finished = WorkDays::from_millidays(clock + (rng.next_u64() % 2000) as i64);
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
