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

use crate::database::MetadataDb;
use crate::fields::{days, index, indices, items, line, Fields, HEX_DIGITS};
use crate::framing;
use crate::ids::{DataObjectId, EntityInstanceId, PlanningSessionId, RunId};
use crate::journal::parse_extent;
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

/// The value of eight hex digits (either case), most significant
/// first; `None` when one is not a hex digit.
pub(crate) fn hex_u32(digits: [u8; 8]) -> Option<u32> {
    digits.iter().try_fold(0u32, |value, &digit| {
        let nibble = HEX_VALUES[usize::from(digit)];
        (nibble <= 0xf).then_some(value << 4 | u32::from(nibble))
    })
}

/// Decodes a payload written by
/// [`hex_encode_into`](crate::fields::hex_encode_into): `-` is empty,
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
        let mut out = String::new();
        self.write_dump(DataLines::Inline(segment), &mut out)?;
        Ok(out)
    }

    /// The storage-v3 snapshot file: the v2 framing line, then the dump
    /// with each stored datum as a `data-ref` line, written into one
    /// buffer of at least `capacity` bytes (the framing's checksum is
    /// back-filled, so the body is never copied). Reads no design data.
    pub(crate) fn snapshot_by_ref(&self, capacity: usize) -> String {
        let mut out = String::with_capacity(capacity);
        framing::frame_snapshot_v2(&mut out, |out| self.write_dump(DataLines::ByRef, out))
            .expect("a by-reference dump reads nothing");
        out
    }

    /// The one dump writer behind [`try_dump`](Self::try_dump) and
    /// [`snapshot_by_ref`](Self::snapshot_by_ref): appends the dump to
    /// `out`, each line through the one field writer
    /// ([`crate::fields::Line`]).
    fn write_dump(&self, data: DataLines, out: &mut String) -> Result<(), StoreError> {
        out.push_str("metadata-db v1\n");
        for class in self.entity_classes() {
            line(out, "container").field("entity").field(class).end();
        }
        for activity in self.activities() {
            let output = self.output_class_of(activity).unwrap_or("-");
            line(out, "container")
                .field("schedule")
                .field(activity)
                .field(output)
                .end();
        }
        for d in &self.data {
            let name = d.name().as_bytes();
            let content = match (&d.body, &data) {
                (DataBody::Stored(extent), DataLines::ByRef) => {
                    line(out, "data-ref").hex(name).extent(extent).end();
                    continue;
                }
                (DataBody::Stored(extent), DataLines::Inline(segment)) => {
                    let segment = segment.as_deref().unwrap_or_default();
                    self.segment_source()?.resolve(segment, d.name(), extent)?
                }
                (DataBody::Inline(bytes), _) => &bytes[..],
            };
            line(out, "data").hex(name).hex(content).end();
        }
        for session in self.planning_sessions() {
            line(out, "session").field(session.created_at()).end();
        }
        for run in self.runs() {
            let mut run_line = line(out, "run");
            run_line
                .field(run.activity())
                .field(run.operator())
                .field(run.iteration())
                .field(run.started_at());
            if let Some(finished) = run.finished_at() {
                run_line.field(finished);
            }
            run_line.end();
        }
        for e in &self.entities {
            let mut entity = line(out, "entity");
            entity
                .field(e.class())
                .field(e.created_at())
                .field(e.creator());
            if let Some(run) = e.produced_by() {
                entity.field("run").field(run.index());
            }
            entity
                .field("deps")
                .list(e.depends_on().iter().map(|d| d.index()))
                .field("data")
                .field(e.data().index())
                .end();
        }
        for sc in &self.schedules {
            let mut sched = line(out, "sched");
            sched
                .field(sc.activity())
                .field(sc.session().index())
                .field(sc.planned_start())
                .field(sc.planned_duration())
                .field("assignees")
                .list(sc.assignees());
            if let Some(link) = sc.linked_entity() {
                sched.field("link").field(link.index());
            }
            sched.end();
        }
        Ok(())
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
    /// `generation`: how a store opens the snapshot of generation
    /// `generation`. Handles minted under any other generation are
    /// refused as stale
    /// ([`MetadataError::StaleHandle`](crate::MetadataError)); a
    /// compaction restamps its live database to match this load of its
    /// snapshot.
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
        let mut scratch = LineScratch::default();
        // A dump is ASCII unless a name is not: one test for all lines.
        let ascii = text.is_ascii();
        for (lineno, line) in lines {
            let fields = match ascii {
                true => Fields::ascii(line),
                false => Fields::new(line),
            };
            db.load_line(lineno, fields, &mut scratch)?;
        }
        Ok(db)
    }

    /// Loads line `lineno` (0-based) of a dump, read through `fields`,
    /// into this database: one field walk, names resolved once, in the
    /// database's tables. A blank line loads nothing.
    fn load_line<'a>(
        &mut self,
        lineno: usize,
        mut fields: Fields<'a>,
        scratch: &mut LineScratch<'a>,
    ) -> Result<(), LoadError> {
        let bad = |message: &str| LoadError::BadLine {
            line: lineno + 1,
            message: message.to_owned(),
        };
        let inconsistent = |e: crate::MetadataError| LoadError::Inconsistent(e.to_string());
        let time = |s: &str| days(s).map_err(|e| bad(&format!("bad timestamp: {e}")));
        let slot = |s: &str, what: &str| index(s).ok_or_else(|| bad(what));
        let g = self.generation;
        let Some(kind) = fields.next() else {
            return Ok(()); // blank line
        };
        match kind {
            "container" => {
                let malformed = || bad("malformed container line");
                match fields.next() {
                    Some("entity") => {
                        let [class] = fields.exactly().ok_or_else(malformed)?;
                        self.declare_entity_container(class);
                    }
                    Some("schedule") => {
                        let [activity, output] = fields.exactly().ok_or_else(malformed)?;
                        self.declare_schedule_container(activity, output);
                    }
                    _ => return Err(malformed()),
                }
            }
            "data" => {
                let [name, content] = fields.exactly().ok_or_else(|| bad("malformed data line"))?;
                let name = hex_decode_name(name).map_err(|m| bad(&m))?;
                let content = hex_decode(content).map_err(|m| bad(&m))?;
                self.store_data(name, content);
            }
            "data-ref" => {
                let [name, offset, len, crc] = fields
                    .exactly()
                    .ok_or_else(|| bad("malformed data-ref line"))?;
                let name = hex_decode_name(name).map_err(|m| bad(&m))?;
                let extent = parse_extent(offset, len, crc).map_err(|m| bad(&m))?;
                self.attach_data(name, extent);
            }
            "session" => {
                let [at] = fields
                    .exactly()
                    .ok_or_else(|| bad("malformed session line"))?;
                self.begin_planning(time(at)?);
            }
            "run" => {
                // run <activity> <operator> <iteration> <started> [<finished>]
                let (Some(activity), Some(operator), Some(iteration), Some(started)) =
                    (fields.next(), fields.next(), fields.next(), fields.next())
                else {
                    return Err(bad("malformed run line"));
                };
                let finished = fields.next();
                if fields.next().is_some() {
                    return Err(bad("malformed run line"));
                }
                let iteration = slot(iteration, "bad run iteration")?;
                let run = self
                    .begin_run(activity, operator, time(started)?)
                    .map_err(inconsistent)?;
                // The iteration is the run's count in its activity's
                // history, which loading derives again.
                let derived = self.run(run).iteration();
                if iteration != derived {
                    return Err(bad(&format!(
                        "run iteration {iteration} disagrees with the derived {derived}"
                    )));
                }
                if let Some(finished) = finished {
                    self.restore_run_finish(run, time(finished)?);
                }
            }
            "entity" => {
                // entity <class> <created> <creator> [run <idx>]
                //        deps <list> data <idx>
                let (Some(class), Some(created), Some(creator)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return Err(bad("malformed entity line"));
                };
                let created = time(created)?;
                let mut produced_by = None;
                let mut deps = Vec::new();
                let mut data = None;
                while let Some(word) = fields.next() {
                    match word {
                        "run" => {
                            let idx = fields.next().ok_or_else(|| bad("run needs an index"))?;
                            produced_by = Some(RunId::new(slot(idx, "bad run index")?, g));
                        }
                        "deps" => {
                            let list = fields.next().ok_or_else(|| bad("deps needs a list"))?;
                            for idx in indices(list) {
                                let idx = idx.map_err(|_| bad("bad dep index"))?;
                                deps.push(EntityInstanceId::new(idx, g));
                            }
                        }
                        "data" => {
                            let idx = fields.next().ok_or_else(|| bad("data needs an index"))?;
                            data = Some(DataObjectId::new(slot(idx, "bad data index")?, g));
                        }
                        other => return Err(bad(&format!("unknown entity field {other:?}"))),
                    }
                }
                let data = data.ok_or_else(|| bad("entity without data"))?;
                self.restore_entity(class, created, creator, produced_by, deps, data)
                    .map_err(inconsistent)?;
            }
            "sched" => {
                // sched <activity> <session> <start> <duration>
                //       assignees <list> [link <idx>]
                let (Some(activity), Some(session), Some(start), Some(duration)) =
                    (fields.next(), fields.next(), fields.next(), fields.next())
                else {
                    return Err(bad("malformed sched line"));
                };
                let session = PlanningSessionId::new(slot(session, "bad session index")?, g);
                let start = time(start)?;
                let duration = time(duration)?;
                let LineScratch { assignees, links } = scratch;
                assignees.clear();
                links.clear();
                while let Some(word) = fields.next() {
                    match word {
                        "assignees" => {
                            let list =
                                fields.next().ok_or_else(|| bad("assignees needs a list"))?;
                            if list != "-" {
                                assignees.extend(items(list));
                            }
                        }
                        "link" => {
                            let idx = fields.next().ok_or_else(|| bad("link needs an index"))?;
                            links.push(slot(idx, "bad link index")?);
                        }
                        other => return Err(bad(&format!("unknown sched field {other:?}"))),
                    }
                }
                let sc = self
                    .restore_schedule(session, activity, start, duration, assignees)
                    .map_err(inconsistent)?;
                for &idx in links.iter() {
                    self.link_completion(sc, EntityInstanceId::new(idx, g))
                        .map_err(inconsistent)?;
                }
            }
            other => return Err(bad(&format!("unknown record kind {other:?}"))),
        }
        Ok(())
    }
}

/// Buffers [`MetadataDb::load_line`] reuses from one `sched` line to
/// the next.
#[derive(Default)]
struct LineScratch<'a> {
    assignees: Vec<&'a str>,
    links: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::hex_encode_into;
    use crate::store::{ArenaStore, Store};
    use schedule::WorkDays;
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
