//! Persistence: a line-oriented text dump of the metadata database and
//! its loader.
//!
//! The original Hercules persisted its task database in the Odyssey
//! framework's object store; this module provides the equivalent so a
//! project survives process restarts. The format is deliberately plain
//! (one object per line, hex-encoded payloads) so diffs of two database
//! states are human-readable — handy for the Fig. 5–7 style snapshots.
//!
//! ```text
//! metadata-db v1
//! container entity <class>
//! container schedule <activity> <output-class>
//! data <name-hex> <content-hex>
//! data-ref <name-hex> <offset> <len> <crc08x>
//! session <millidays>
//! run <activity> <operator> <iteration> <started> [<finished>]
//! entity <class> <created> <creator> [run <idx>] deps <i,j,...> data <idx>
//! sched <activity> <session> <start> <duration> assignees <a,b> [link <idx>]
//! ```
//!
//! Objects are dumped in allocation order, so indices in the file are
//! exactly the dense ids, and loading re-allocates identical ids.
//!
//! One writer emits Level-4 data two ways. The logical export
//! ([`MetadataDb::dump`]) writes every datum's bytes inline as a
//! `data` line, reading stored ones from the data segment. A storage-v3
//! snapshot writes a stored datum as a `data-ref` line instead: its
//! [`Extent`](crate::segment::Extent) in the segment, never its bytes.
//! The loader accepts both.

use std::fmt::Write as _;

use schedule::WorkDays;

use crate::database::MetadataDb;
use crate::ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId};
use crate::journal::{parse_extent, write_extent};
use crate::objects::DataBody;
use crate::store::StoreError;

/// Errors produced while loading a database dump.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// The header line was missing or had the wrong version.
    BadHeader,
    /// A line could not be parsed; carries the 1-based line number and
    /// a description.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The dump was internally inconsistent (e.g. a link to an object
    /// that does not exist).
    Inconsistent(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadHeader => write!(f, "missing or unsupported dump header"),
            LoadError::BadLine { line, message } => write!(f, "line {line}: {message}"),
            LoadError::Inconsistent(m) => write!(f, "inconsistent dump: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

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

/// Hex digit values (either case) by byte; `0xff` marks a non-digit.
/// A lookup, not a `match` on digit ranges: payload digits are
/// effectively random, and the range branches mispredict.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decodes a payload written by [`hex_encode_into`]: `-` is empty,
/// anything else must be pairs of `[0-9a-fA-F]`.
pub(crate) fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    let hex = s.as_bytes();
    if !hex.len().is_multiple_of(2) {
        return Err("odd-length hex payload".to_owned());
    }
    let mut out = Vec::with_capacity(hex.len() / 2);
    for pair in hex.chunks_exact(2) {
        let (hi, lo) = (
            HEX_VALUES[usize::from(pair[0])],
            HEX_VALUES[usize::from(pair[1])],
        );
        if (hi | lo) > 0xf {
            let pair = String::from_utf8_lossy(pair);
            return Err(format!("invalid hex pair {pair:?}"));
        }
        out.push(hi << 4 | lo);
    }
    Ok(out)
}

/// Decodes a hex-encoded datum name, which must be UTF-8.
pub(crate) fn hex_decode_name(s: &str) -> Result<String, String> {
    String::from_utf8(hex_decode(s)?).map_err(|_| "data name is not UTF-8".to_owned())
}

fn fmt_days(t: WorkDays) -> String {
    t.millidays().to_string()
}

fn parse_days(s: &str) -> Result<WorkDays, String> {
    let md: i64 = s.parse().map_err(|e| format!("bad timestamp: {e}"))?;
    if md < 0 {
        return Err(format!("bad timestamp: {md} is negative"));
    }
    Ok(WorkDays::from_millidays(md))
}

/// How [`MetadataDb::write_dump`] writes stored Level-4 data.
enum DataLines {
    /// Every datum's bytes, as `data` lines; stored ones are resolved
    /// in the data segment, read once.
    Inline(Option<Vec<u8>>),
    /// Stored data as `data-ref` lines (a storage-v3 snapshot).
    ByRef,
}

impl MetadataDb {
    /// Serialises the whole database to the dump format — the logical
    /// export, with every datum's bytes inline.
    ///
    /// # Panics
    ///
    /// Panics if stored design data cannot be read back or fails its
    /// checksum; [`try_dump`](Self::try_dump) reports that instead.
    pub fn dump(&self) -> String {
        self.try_dump()
            .unwrap_or_else(|e| panic!("cannot dump the metadata database: {e}"))
    }

    /// [`dump`](Self::dump), reporting unreadable design data as an
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corruption`] when a stored datum fails its
    /// checksum or lies past the segment's end; [`StoreError::Io`] when
    /// the segment cannot be read.
    pub fn try_dump(&self) -> Result<String, StoreError> {
        let stored = self
            .data
            .iter()
            .any(|d| matches!(d.body, DataBody::Stored(_)));
        let segment = match stored {
            true => Some(self.segment_source()?.read()?),
            false => None,
        };
        self.write_dump(DataLines::Inline(segment))
    }

    /// The storage-v3 snapshot body: the dump with each stored datum as
    /// a `data-ref` line. Reads no design data.
    pub(crate) fn dump_by_ref(&self) -> String {
        self.write_dump(DataLines::ByRef)
            .expect("a by-reference dump reads nothing")
    }

    /// The one dump writer behind [`try_dump`](Self::try_dump) and
    /// [`dump_by_ref`](Self::dump_by_ref).
    fn write_dump(&self, data: DataLines) -> Result<String, StoreError> {
        let mut out = String::from("metadata-db v1\n");
        for class in self.entity_classes() {
            let _ = writeln!(out, "container entity {class}");
        }
        for activity in self.activities() {
            let output = self.output_class_of(activity).unwrap_or("-");
            let _ = writeln!(out, "container schedule {activity} {output}");
        }
        for d in &self.data {
            let content = match (&d.body, &data) {
                (DataBody::Stored(extent), DataLines::ByRef) => {
                    out.push_str("data-ref ");
                    hex_encode_into(d.name().as_bytes(), &mut out);
                    let _ = write_extent(extent, &mut out);
                    out.push('\n');
                    continue;
                }
                (DataBody::Stored(extent), DataLines::Inline(segment)) => {
                    let segment = segment.as_deref().unwrap_or_default();
                    self.segment_source()?.resolve(segment, d.name(), extent)?
                }
                (DataBody::Inline(bytes), _) => &bytes[..],
            };
            out.push_str("data ");
            hex_encode_into(d.name().as_bytes(), &mut out);
            out.push(' ');
            hex_encode_into(content, &mut out);
            out.push('\n');
        }
        for session in self.planning_sessions() {
            let _ = writeln!(out, "session {}", fmt_days(session.created_at()));
        }
        for run in self.runs() {
            let _ = write!(
                out,
                "run {} {} {} {}",
                run.activity(),
                run.operator(),
                run.iteration(),
                fmt_days(run.started_at())
            );
            if let Some(f) = run.finished_at() {
                let _ = write!(out, " {}", fmt_days(f));
            }
            out.push('\n');
        }
        for idx in 0..self.entity_count() {
            let e = self.entity_instance(EntityInstanceId::new(idx as u32, self.generation));
            let _ = write!(
                out,
                "entity {} {} {}",
                e.class(),
                fmt_days(e.created_at()),
                e.creator()
            );
            if let Some(run) = e.produced_by() {
                let _ = write!(out, " run {}", run.index());
            }
            let deps: Vec<String> = e
                .depends_on()
                .iter()
                .map(|d| d.index().to_string())
                .collect();
            let _ = write!(
                out,
                " deps {} data {}",
                if deps.is_empty() {
                    "-".to_owned()
                } else {
                    deps.join(",")
                },
                e.data().index()
            );
            out.push('\n');
        }
        for idx in 0..self.schedule_count() {
            let sc = self.schedule_instance(crate::ids::ScheduleInstanceId::new(
                idx as u32,
                self.generation,
            ));
            let assignees = if sc.assignees().is_empty() {
                "-".to_owned()
            } else {
                sc.assignees().join(",")
            };
            let _ = write!(
                out,
                "sched {} {} {} {} assignees {}",
                sc.activity(),
                sc.session().index(),
                fmt_days(sc.planned_start()),
                fmt_days(sc.planned_duration()),
                assignees
            );
            if let Some(link) = sc.linked_entity() {
                let _ = write!(out, " link {}", link.index());
            }
            out.push('\n');
        }
        Ok(out)
    }

    /// Loads a database from a dump produced by
    /// [`dump`](MetadataDb::dump).
    ///
    /// # Errors
    ///
    /// [`LoadError`] on malformed or inconsistent input. Loading a dump
    /// of database `A` always yields a database whose own dump equals
    /// `A`'s (round-trip property, tested).
    pub fn load(text: &str) -> Result<MetadataDb, LoadError> {
        Self::load_at(text, 0)
    }

    /// Like [`load`](MetadataDb::load), but the loaded database — and
    /// every handle it subsequently mints — is stamped at store
    /// `generation`. Compaction reloads the database from its own dump
    /// at a bumped generation so handles minted before the compaction
    /// are detected as stale
    /// ([`MetadataError::StaleHandle`](crate::MetadataError)) instead
    /// of silently resolving against the renumbered slot space.
    ///
    /// # Errors
    ///
    /// [`LoadError`] on malformed or inconsistent input.
    pub fn load_at(text: &str, generation: u32) -> Result<MetadataDb, LoadError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "metadata-db v1")) => {}
            _ => return Err(LoadError::BadHeader),
        }
        let mut db = MetadataDb::new();
        db.generation = generation;
        let bad = |line: usize, message: &str| LoadError::BadLine {
            line: line + 1,
            message: message.to_owned(),
        };
        for (lineno, line) in lines {
            let mut fields = line.split_whitespace();
            let Some(kind) = fields.next() else {
                continue; // blank line
            };
            let rest: Vec<&str> = fields.collect();
            match kind {
                "container" => match rest.as_slice() {
                    ["entity", class] => db.declare_entity_container(class),
                    ["schedule", activity, output] => {
                        db.declare_schedule_container(activity, output)
                    }
                    _ => return Err(bad(lineno, "malformed container line")),
                },
                "data" => {
                    let [name, content] = rest.as_slice() else {
                        return Err(bad(lineno, "malformed data line"));
                    };
                    let name = hex_decode_name(name).map_err(|m| bad(lineno, &m))?;
                    let content = hex_decode(content).map_err(|m| bad(lineno, &m))?;
                    db.store_data(name, content);
                }
                "data-ref" => {
                    let [name, offset, len, crc] = rest.as_slice() else {
                        return Err(bad(lineno, "malformed data-ref line"));
                    };
                    let name = hex_decode_name(name).map_err(|m| bad(lineno, &m))?;
                    let extent =
                        parse_extent(offset, len, crc).map_err(|m: String| bad(lineno, &m))?;
                    db.attach_data(name, extent);
                }
                "session" => {
                    let [at] = rest.as_slice() else {
                        return Err(bad(lineno, "malformed session line"));
                    };
                    db.begin_planning(parse_days(at).map_err(|m| bad(lineno, &m))?);
                }
                "run" => {
                    let (activity, operator, started, finished) = match rest.as_slice() {
                        [a, o, _iter, s] => (a, o, s, None),
                        [a, o, _iter, s, f] => (a, o, s, Some(*f)),
                        _ => return Err(bad(lineno, "malformed run line")),
                    };
                    let started = parse_days(started).map_err(|m| bad(lineno, &m))?;
                    let run = db
                        .begin_run(activity, operator, started)
                        .map_err(|e| LoadError::Inconsistent(e.to_string()))?;
                    if let Some(f) = finished {
                        let finished = parse_days(f).map_err(|m| bad(lineno, &m))?;
                        db.restore_run_finish(run, finished);
                    }
                }
                "entity" => {
                    // entity <class> <created> <creator> [run <idx>]
                    //        deps <list> data <idx>
                    let mut it = rest.iter();
                    let (Some(class), Some(created), Some(creator)) =
                        (it.next(), it.next(), it.next())
                    else {
                        return Err(bad(lineno, "malformed entity line"));
                    };
                    let created = parse_days(created).map_err(|m| bad(lineno, &m))?;
                    let mut produced_by = None;
                    let mut deps = Vec::new();
                    let mut data = None;
                    let mut next = it.next();
                    while let Some(word) = next {
                        match *word {
                            "run" => {
                                let idx: usize = it
                                    .next()
                                    .ok_or_else(|| bad(lineno, "run needs an index"))?
                                    .parse()
                                    .map_err(|_| bad(lineno, "bad run index"))?;
                                produced_by = Some(RunId::new(idx as u32, db.generation));
                            }
                            "deps" => {
                                let list =
                                    it.next().ok_or_else(|| bad(lineno, "deps needs a list"))?;
                                if *list != "-" {
                                    for part in list.split(',') {
                                        let idx: usize = part
                                            .parse()
                                            .map_err(|_| bad(lineno, "bad dep index"))?;
                                        deps.push(EntityInstanceId::new(idx as u32, db.generation));
                                    }
                                }
                            }
                            "data" => {
                                let idx: usize = it
                                    .next()
                                    .ok_or_else(|| bad(lineno, "data needs an index"))?
                                    .parse()
                                    .map_err(|_| bad(lineno, "bad data index"))?;
                                data = Some(DataObjectId::new(idx as u32, db.generation));
                            }
                            other => {
                                return Err(bad(lineno, &format!("unknown entity field {other:?}")))
                            }
                        }
                        next = it.next();
                    }
                    let data = data.ok_or_else(|| bad(lineno, "entity without data"))?;
                    db.restore_entity(class, created, creator, produced_by, deps, data)
                        .map_err(|e| LoadError::Inconsistent(e.to_string()))?;
                }
                "sched" => {
                    // sched <activity> <session> <start> <duration>
                    //       assignees <list> [link <idx>]
                    let mut it = rest.iter();
                    let (Some(activity), Some(session), Some(start), Some(duration)) =
                        (it.next(), it.next(), it.next(), it.next())
                    else {
                        return Err(bad(lineno, "malformed sched line"));
                    };
                    let session_idx: usize = session
                        .parse()
                        .map_err(|_| bad(lineno, "bad session index"))?;
                    let start = parse_days(start).map_err(|m| bad(lineno, &m))?;
                    let duration = parse_days(duration).map_err(|m| bad(lineno, &m))?;
                    let mut assignees: Vec<&str> = Vec::new();
                    let mut links: Vec<usize> = Vec::new();
                    let mut next = it.next();
                    while let Some(word) = next {
                        match *word {
                            "assignees" => {
                                let list = it
                                    .next()
                                    .ok_or_else(|| bad(lineno, "assignees needs a list"))?;
                                if *list != "-" {
                                    assignees.extend(list.split(','));
                                }
                            }
                            "link" => links.push(
                                it.next()
                                    .ok_or_else(|| bad(lineno, "link needs an index"))?
                                    .parse()
                                    .map_err(|_| bad(lineno, "bad link index"))?,
                            ),
                            other => {
                                return Err(bad(lineno, &format!("unknown sched field {other:?}")))
                            }
                        }
                        next = it.next();
                    }
                    let inconsistent =
                        |e: crate::MetadataError| LoadError::Inconsistent(e.to_string());
                    let session = PlanningSessionId::new(session_idx as u32, db.generation);
                    let sc = db
                        .restore_schedule(session, activity, start, duration, &assignees)
                        .map_err(inconsistent)?;
                    for idx in links {
                        db.link_completion(sc, EntityInstanceId::new(idx as u32, db.generation))
                            .map_err(inconsistent)?;
                    }
                }
                other => return Err(bad(lineno, &format!("unknown record kind {other:?}"))),
            }
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ArenaStore, Store};
    use schema::examples;
    use std::sync::Arc;

    fn populated() -> MetadataDb {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        let session = db.begin_planning(WorkDays::ZERO);
        let sc = db
            .plan_activity(session, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        db.assign(sc, "alice").unwrap();
        let sim = db
            .plan_activity(session, "Simulate", WorkDays::new(2.0), WorkDays::new(3.0))
            .unwrap();
        // Two assignees, and a repeated one: the spilled layout.
        for designer in ["bob", "carol", "bob"] {
            db.assign(sim, designer).unwrap();
        }
        let stim = db.store_data("vec.stim", b"0101".to_vec());
        db.supply_input("stimuli", "bob", WorkDays::ZERO, stim)
            .unwrap();
        let run = db.begin_run("Create", "alice", WorkDays::new(0.5)).unwrap();
        let data = db.store_data("v1.net", b"module".to_vec());
        let e = db
            .finish_run(run, "netlist", data, WorkDays::new(1.5), &[])
            .unwrap();
        db.link_completion(sc, e).unwrap();
        // An unfinished run, to exercise the optional finish field.
        db.begin_run("Simulate", "bob", WorkDays::new(1.5)).unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = populated();
        let dump = db.dump();
        assert!(dump.contains("assignees bob,carol\n"), "{dump}");
        let loaded = MetadataDb::load(&dump).unwrap();
        assert_eq!(loaded.dump(), dump);
        assert_eq!(
            loaded.current_plan("Simulate").unwrap().assignees(),
            [Arc::from("bob"), Arc::from("carol")]
        );
        // Journal replay and compaction reproduce the same bytes.
        let replayed = MetadataDb::recover(db.journal().unwrap()).unwrap();
        assert_eq!(replayed.dump(), dump);
        let mut store = ArenaStore::new(db.clone());
        store.compact().unwrap();
        assert_eq!(store.db().dump(), dump);
        let compacted = store.db().journal().unwrap();
        assert_eq!(MetadataDb::recover(compacted).unwrap().dump(), dump);
        // Spot checks beyond the textual identity.
        assert_eq!(loaded.entity_count(), db.entity_count());
        assert_eq!(loaded.schedule_count(), db.schedule_count());
        assert_eq!(loaded.runs().len(), db.runs().len());
        assert_eq!(
            loaded.current_plan("Create").unwrap().linked_entity(),
            db.current_plan("Create").unwrap().linked_entity()
        );
        assert_eq!(loaded.actual_start("Create"), db.actual_start("Create"));
        assert_eq!(
            loaded.data_content(DataObjectId::new(1, 0)).unwrap(),
            db.data_content(DataObjectId::new(1, 0)).unwrap()
        );
    }

    #[test]
    fn reload_shares_exactly_the_versions_equal_to_their_predecessor() {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        let (start, duration) = (WorkDays::new(1.0), WorkDays::new(2.0));
        for designer in ["alice", "bob"] {
            let s = db.begin_planning(WorkDays::ZERO);
            let sc = db.plan_activity(s, "Create", start, duration).unwrap();
            db.assign(sc, designer).unwrap();
        }
        let s = db.begin_planning(WorkDays::ZERO);
        let latest = db.current_plan("Create").unwrap().id();
        db.carry_plan(s, &[latest]).unwrap();
        let s = db.begin_planning(WorkDays::ZERO);
        let sc = db.plan_activity(s, "Create", start, duration).unwrap();
        db.assign(sc, "bob").unwrap();
        let loaded = MetadataDb::load(&db.dump()).unwrap();
        assert_eq!(loaded.dump(), db.dump());
        // Live, the last version was planned in full although it equals
        // its predecessor (planning carries such versions instead);
        // reloaded, it shares: alice's body, then one bob body.
        assert_eq!((db.plan_body_count(), loaded.plan_body_count()), (3, 2));
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = MetadataDb::for_schema(&examples::circuit_design());
        let loaded = MetadataDb::load(&db.dump()).unwrap();
        assert_eq!(loaded.dump(), db.dump());
    }

    #[test]
    fn bad_header_rejected() {
        assert_eq!(MetadataDb::load("").unwrap_err(), LoadError::BadHeader);
        assert_eq!(
            MetadataDb::load("metadata-db v9\n").unwrap_err(),
            LoadError::BadHeader
        );
    }

    #[test]
    fn bad_lines_reported_with_numbers() {
        let err = MetadataDb::load("metadata-db v1\nnonsense here\n").unwrap_err();
        match err {
            LoadError::BadLine { line, .. } => assert_eq!(line, 2),
            other => panic!("expected BadLine, got {other}"),
        }
    }

    #[test]
    fn inconsistent_reference_rejected() {
        // A sched line pointing at a session that does not exist.
        let text = "metadata-db v1\ncontainer schedule Create netlist\nsched Create 5 0 1000 assignees -\n";
        assert!(matches!(
            MetadataDb::load(text),
            Err(LoadError::Inconsistent(_))
        ));
    }

    #[test]
    fn hex_roundtrip() {
        for payload in [&b""[..], b"\x00\xff", b"hello world"] {
            assert_eq!(hex_decode(&hex(payload)).unwrap(), payload);
        }
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        let mut out = String::new();
        hex_encode_into(bytes, &mut out);
        out
    }

    #[test]
    fn hex_decode_accepts_exactly_hex_pairs() {
        // `u8::from_str_radix` would take a leading sign: a damaged v1
        // payload must fail, not load as a wrong byte.
        for bad in ["+f", "-f", "zz", "0g", " 0", "abc", "a", "--"] {
            assert!(hex_decode(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(hex_decode("0F").unwrap(), [0x0f]);
        assert_eq!(hex_decode("aB09").unwrap(), [0xab, 0x09]);
        assert_eq!(hex_decode("-").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn hex_encode_is_lowercase_pairs_with_empty_marker() {
        assert_eq!(hex(b""), "-");
        assert_eq!(hex(&[0x00, 0x0f, 0xa0, 0xff]), "000fa0ff");
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&all), expected);
        // Appends after existing text.
        let mut out = String::from("x ");
        hex_encode_into(b"\x01", &mut out);
        assert_eq!(out, "x 01");
    }

    #[test]
    fn hex_roundtrips_seeded_random_payloads() {
        let mut rng = simtools::rng::SplitMix64::new(0x4E58);
        // Lengths straddle the encoder's 128-byte chunk boundary.
        for len in [0, 1, 2, 127, 128, 129, 1000, 4096] {
            for _ in 0..8 {
                let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let text = hex(&payload);
                let expected: String = payload.iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(text, if len == 0 { "-".to_owned() } else { expected });
                assert_eq!(hex_decode(&text).unwrap(), payload, "len {len}");
                assert_eq!(hex_decode(&text.to_uppercase()).unwrap(), payload);
            }
        }
    }

    #[test]
    fn dump_is_humane() {
        let db = populated();
        let dump = db.dump();
        assert!(dump.contains("container schedule Create netlist"));
        assert!(dump.contains("run Create alice 1"));
        assert!(dump.lines().count() > 8);
    }
}
