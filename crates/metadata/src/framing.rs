//! Checksummed record framing for the persistent store's on-disk
//! files — the layer that turns "the file parsed" into "the file is
//! intact".
//!
//! Two wire versions coexist:
//!
//! * **v1** — the original un-checksummed text forms: a tail file is
//!   `metadata-journal v1` plus one op per line; a snapshot is a bare
//!   [`MetadataDb::dump`](crate::MetadataDb::dump). Roots written
//!   before checksumming exist in the wild, so v1 is read forever.
//! * **v2** — every tail record line is prefixed with the CRC32 (IEEE)
//!   of its op text (`<crc08x> <op-line>`) under the header
//!   `metadata-journal v2`; a snapshot carries one framing line
//!   (`metadata-snapshot v2 <crc08x>`) whose checksum covers the
//!   verbatim v1 dump that follows.
//!
//! New stores write v2; a v1 root keeps appending v1 records to its
//! existing tail (mixing framings within one file is never valid) and
//! upgrades wholesale on its next `compact()`, which rewrites every
//! file.
//!
//! The payoff is in [`decode_tail`]: a record that fails its checksum
//! or does not parse is classified as **torn** (it is the last line of
//! the file — a process died mid-append; recovery truncates it, as
//! ever) or **corrupt interior** (valid data follows it — bit-rot or a
//! silent short write spliced two records; recovery must *not* guess,
//! it surfaces a typed corruption report and lets `fsck` rebuild from
//! the longest valid prefix).

use crate::export::LoadError;
use crate::fields::hex_digits;
use crate::journal::{parse_op_line, Journal, JournalOp};
use crate::names::NameCache;

/// CRC32 (IEEE 802.3, reflected) lookup tables for slicing-by-8,
/// built at compile time. Table 0 is the classic byte-at-a-time
/// table; table `t` advances a byte `t` positions further through the
/// polynomial, letting [`crc32`] fold eight input bytes per step —
/// snapshot bodies run to tens of kilobytes and design data to
/// megabytes, so checksumming is worth keeping off the byte loop (the
/// B15 gate holds it to 1.2× of the un-checksummed read).
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// Bytes per lane of [`crc32`]'s interleaved kernel.
const LANE: usize = 512;
/// Lanes the kernel runs side by side: one block is `LANES * LANE`
/// bytes, the shortest input that takes the lane path.
const LANES: usize = 4;

/// The CRC register advanced through [`LANE`] zero bytes, one table
/// per register byte: [`shift_lane`] moves a lane's partial CRC past
/// the lane that follows it.
const SHIFT_TABLES: [[u32; 256]; 4] = build_shift_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Advancing the register through zero bytes is linear over GF(2), so
/// the shift of any register is the XOR of the shifts of its set bits:
/// the 32 single-bit images are computed first, then each table entry
/// is assembled from them.
const fn build_shift_tables() -> [[u32; 256]; 4] {
    let table = CRC_TABLES;
    let mut bit_images = [0u32; 32];
    let mut bit = 0;
    while bit < 32 {
        let mut c = 1u32 << bit;
        let mut n = 0;
        while n < LANE {
            c = table[0][(c & 0xFF) as usize] ^ (c >> 8);
            n += 1;
        }
        bit_images[bit] = c;
        bit += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut byte = 0;
    while byte < 4 {
        let mut v = 0;
        while v < 256 {
            let mut image = 0u32;
            let mut b = 0;
            while b < 8 {
                if v & (1 << b) != 0 {
                    image ^= bit_images[byte * 8 + b];
                }
                b += 1;
            }
            tables[byte][v] = image;
            v += 1;
        }
        byte += 1;
    }
    tables
}

/// Folds eight bytes into register `c` (slicing-by-8).
#[inline(always)]
fn fold8(c: u32, chunk: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
    let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
    CRC_TABLES[7][(lo & 0xFF) as usize]
        ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[4][(lo >> 24) as usize]
        ^ CRC_TABLES[3][(hi & 0xFF) as usize]
        ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[0][(hi >> 24) as usize]
}

/// Register `c` advanced through one lane of zero bytes.
#[inline(always)]
fn shift_lane(c: u32) -> u32 {
    SHIFT_TABLES[0][(c & 0xFF) as usize]
        ^ SHIFT_TABLES[1][((c >> 8) & 0xFF) as usize]
        ^ SHIFT_TABLES[2][((c >> 16) & 0xFF) as usize]
        ^ SHIFT_TABLES[3][(c >> 24) as usize]
}

/// The CRC32 (IEEE) of `bytes` — the checksum v2 framing stores per
/// record and per snapshot, and the data segment per datum.
///
/// Inputs of at least `LANES * LANE` bytes go through four lanes of
/// slicing-by-8 at once. Lane 0 carries the running register; lanes 1
/// to 3 start from zero. The register is linear in its start value, so
/// each lane's result moves past the lanes after it through
/// `SHIFT_TABLES` and the four combine by XOR. The four independent
/// table-lookup chains keep the CPU's load units busy where one chain
/// waits on its own result.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(LANES * LANE);
    for block in &mut blocks {
        let (l0, rest) = block.split_at(LANE);
        let (l1, rest) = rest.split_at(LANE);
        let (l2, l3) = rest.split_at(LANE);
        let (mut c0, mut c1, mut c2, mut c3) = (c, 0u32, 0u32, 0u32);
        for (((a, b), d), e) in l0
            .chunks_exact(8)
            .zip(l1.chunks_exact(8))
            .zip(l2.chunks_exact(8))
            .zip(l3.chunks_exact(8))
        {
            c0 = fold8(c0, a);
            c1 = fold8(c1, b);
            c2 = fold8(c2, d);
            c3 = fold8(c3, e);
        }
        c = shift_lane(shift_lane(shift_lane(c0) ^ c1) ^ c2) ^ c3;
    }
    let mut chunks = blocks.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        c = fold8(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The v1 tail-file header line.
pub const TAIL_HEADER_V1: &str = "metadata-journal v1";
/// The v2 tail-file header line.
pub const TAIL_HEADER_V2: &str = "metadata-journal v2";
/// The v2 snapshot framing-line prefix; the CRC32 of the body follows.
pub const SNAPSHOT_MAGIC_V2: &str = "metadata-snapshot v2 ";

/// Which wire version a store file uses. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Un-checksummed records (pre-durability roots). Read-only compat:
    /// only a store opened from a v1 root still appends v1.
    V1,
    /// CRC32-per-record framing — what every new write uses.
    V2,
}

impl Framing {
    /// The tail-file header line (without trailing newline).
    pub fn tail_header(self) -> &'static str {
        match self {
            Framing::V1 => TAIL_HEADER_V1,
            Framing::V2 => TAIL_HEADER_V2,
        }
    }

    /// A fresh, empty tail file's full contents.
    pub fn empty_tail(self) -> String {
        format!("{}\n", self.tail_header())
    }

    /// Appends `op` to `buf` as one tail record (newline included),
    /// framed in place: v2 reserves the checksum field, writes the op
    /// text after it, then back-fills the CRC32 of that text.
    pub fn encode_tail_record_into(self, op: &JournalOp, buf: &mut String) {
        match self {
            Framing::V1 => op.write_line(buf),
            Framing::V2 => {
                let field = buf.len();
                buf.push_str("00000000 ");
                op.write_line(buf);
                backfill_crc(buf, field, field + 9);
            }
        }
        buf.push('\n');
    }

    /// A whole tail file (header included) holding `journal`'s ops.
    pub fn encode_tail(self, journal: &Journal) -> String {
        let mut text = self.empty_tail();
        for op in journal.ops() {
            self.encode_tail_record_into(op, &mut text);
        }
        text
    }

    /// Frames a database dump as a snapshot file.
    pub fn encode_snapshot(self, dump: &str) -> String {
        match self {
            Framing::V1 => dump.to_owned(),
            Framing::V2 => {
                let mut out = String::with_capacity(SNAPSHOT_MAGIC_V2.len() + 9 + dump.len());
                let Ok(()) = frame_snapshot_v2(&mut out, |out| {
                    out.push_str(dump);
                    Ok::<(), std::convert::Infallible>(())
                });
                out
            }
        }
    }
}

/// Overwrites the eight `0` digits at `field` in `buf` with the CRC32
/// of `buf[body..]`, in lowercase hex: how both v2 framings checksum
/// what was written after the field without copying it.
fn backfill_crc(buf: &mut String, field: usize, body: usize) {
    let crc = crc32(&buf.as_bytes()[body..]);
    let mut digits = [0u8; 8];
    hex_digits(&crc.to_be_bytes(), &mut digits);
    buf.replace_range(
        field..field + digits.len(),
        std::str::from_utf8(&digits).expect("hex digits are ASCII"),
    );
}

/// Appends a v2 snapshot file to `out`: the framing line with its
/// checksum field reserved, the dump `write_body` appends, then the
/// body's CRC32 back-filled, so the body is never copied: the one v2
/// snapshot framing, behind [`Framing::encode_snapshot`] and every
/// snapshot a store commits.
///
/// # Errors
///
/// Whatever `write_body` returns; `out` then holds a partial file.
pub(crate) fn frame_snapshot_v2<E>(
    out: &mut String,
    write_body: impl FnOnce(&mut String) -> Result<(), E>,
) -> Result<(), E> {
    let field = out.len() + SNAPSHOT_MAGIC_V2.len();
    out.push_str(SNAPSHOT_MAGIC_V2);
    out.push_str("00000000\n");
    write_body(out)?;
    backfill_crc(out, field, field + 9);
    Ok(())
}

/// Why a snapshot file failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotIssue {
    /// Neither a v2 framing line nor a v1 dump header.
    BadHeader,
    /// The v2 framing line's checksum does not match the body.
    ChecksumMismatch {
        /// The checksum stored in the framing line.
        stored: u32,
        /// The checksum of the body as found.
        computed: u32,
    },
}

impl std::fmt::Display for SnapshotIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotIssue::BadHeader => write!(f, "unrecognized snapshot header"),
            SnapshotIssue::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: framing line says {stored:08x}, body is {computed:08x}"
            ),
        }
    }
}

/// Unwraps a snapshot file into its framing version and the verbatim
/// dump body, verifying the v2 checksum.
///
/// # Errors
///
/// [`SnapshotIssue`] on an unknown header or a checksum mismatch.
pub fn decode_snapshot(text: &str) -> Result<(Framing, &str), SnapshotIssue> {
    if let Some(rest) = text.strip_prefix(SNAPSHOT_MAGIC_V2) {
        let (crc_line, body) = rest.split_once('\n').ok_or(SnapshotIssue::BadHeader)?;
        let stored =
            u32::from_str_radix(crc_line.trim(), 16).map_err(|_| SnapshotIssue::BadHeader)?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(SnapshotIssue::ChecksumMismatch { stored, computed });
        }
        Ok((Framing::V2, body))
    } else if text.starts_with("metadata-db v1") {
        Ok((Framing::V1, text))
    } else {
        Err(SnapshotIssue::BadHeader)
    }
}

/// What stopped a tail scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailIssue {
    /// The header line is neither v1 nor v2.
    BadHeader,
    /// The *last* line is invalid — a process died mid-append. Safe to
    /// truncate; the op was never acknowledged as durable.
    Torn {
        /// 1-based line number of the torn record.
        line: usize,
        /// Why the record failed.
        message: String,
    },
    /// An *interior* record is invalid while later data exists —
    /// bit-rot or a silent short write. Truncating here would discard
    /// acknowledged history, so recovery must report, not guess.
    Corrupt {
        /// 1-based line number of the corrupt record.
        line: usize,
        /// Why the record failed.
        message: String,
    },
    /// A record whose checksum verifies but whose op does not parse: the
    /// store wrote it so, wherever it stands; report, never truncate.
    Unparsable {
        /// 1-based line number of the record.
        line: usize,
        /// Why the op does not parse.
        message: String,
    },
}

impl std::fmt::Display for TailIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TailIssue::BadHeader => write!(f, "unrecognized tail header"),
            TailIssue::Torn { line, message } => {
                write!(f, "torn trailing record at line {line}: {message}")
            }
            TailIssue::Corrupt { line, message } => {
                write!(f, "corrupt interior record at line {line}: {message}")
            }
            TailIssue::Unparsable { line, message } => {
                write!(f, "unparsable checksummed record at line {line}: {message}")
            }
        }
    }
}

/// The result of scanning a tail file: the longest valid record
/// prefix, the framing found, and what (if anything) stopped the scan.
#[derive(Debug, Clone, PartialEq)]
pub struct TailScan {
    /// The framing declared by the header (v2 if the header itself was
    /// unreadable).
    pub framing: Framing,
    /// The ops of every valid record before the first failure.
    pub journal: Journal,
    /// Total non-blank record lines in the file (valid or not).
    pub records: usize,
    /// `None` when every record decoded.
    pub issue: Option<TailIssue>,
}

/// Scans a tail file, collecting the longest valid prefix of records
/// and classifying the first failure (torn vs corrupt interior) — the
/// recovery policy's decision input. Never fails: a completely
/// unreadable file yields an empty journal plus an issue.
pub fn decode_tail(text: &str) -> TailScan {
    let mut lines = text.lines().enumerate();
    let framing = match lines.next() {
        Some((_, l)) if l.trim_end() == TAIL_HEADER_V1 => Framing::V1,
        Some((_, l)) if l.trim_end() == TAIL_HEADER_V2 => Framing::V2,
        _ => {
            return TailScan {
                framing: Framing::V2,
                journal: Journal::new(),
                records: 0,
                issue: Some(TailIssue::BadHeader),
            }
        }
    };
    let total_lines = text.lines().count();
    let mut ops = Vec::new();
    let mut names = NameCache::default();
    let mut records = 0usize;
    let mut issue = None;
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        records += 1;
        match decode_record(framing, idx, line, &mut names) {
            Ok(op) => ops.push(op),
            Err((message, checksummed)) => {
                let line = idx + 1;
                issue = Some(match (checksummed, line == total_lines) {
                    (true, _) => TailIssue::Unparsable { line, message },
                    (false, true) => TailIssue::Torn { line, message },
                    (false, false) => TailIssue::Corrupt { line, message },
                });
                break;
            }
        }
    }
    TailScan {
        framing,
        journal: Journal::from_ops(ops),
        records,
        issue,
    }
}

/// Decodes one record line under `framing` (v2: checksum first, then
/// parse). A refusal says why and whether the record's checksum
/// verified: a checksum pass with a parse failure means the store wrote
/// garbage, never that an append was torn.
fn decode_record<'a>(
    framing: Framing,
    lineno0: usize,
    line: &'a str,
    names: &mut NameCache<'a>,
) -> Result<JournalOp, (String, bool)> {
    let op_text = match framing {
        Framing::V1 => line,
        Framing::V2 => {
            let unframed = |message: String| (message, false);
            let (crc_hex, rest) = line
                .split_once(' ')
                .ok_or_else(|| unframed("missing checksum field".to_owned()))?;
            let stored = u32::from_str_radix(crc_hex, 16)
                .map_err(|_| unframed(format!("bad checksum field {crc_hex:?}")))?;
            if crc_hex.len() != 8 {
                return Err(unframed(format!("bad checksum field {crc_hex:?}")));
            }
            let computed = crc32(rest.as_bytes());
            if stored != computed {
                return Err(unframed(format!(
                    "checksum mismatch: record says {stored:08x}, content is {computed:08x}"
                )));
            }
            rest
        }
    };
    let checksummed = framing == Framing::V2;
    match parse_op_line(lineno0, op_text, names) {
        Ok(Some(op)) => Ok(op),
        Ok(None) => Err(("blank op after checksum".to_owned(), checksummed)),
        Err(LoadError::BadLine { message, .. }) => Err((message, checksummed)),
        Err(e) => Err((e.to_string(), checksummed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetadataDb;
    use schedule::WorkDays;
    use schema::examples;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The CRC32 register after `bytes`, one bit at a time from the
    /// polynomial: no tables, no lanes.
    fn crc_register_bitwise(mut c: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    (c >> 1) ^ 0xEDB8_8320
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    #[test]
    fn crc32_equals_the_bitwise_reference_at_every_length() {
        assert_eq!(
            crc_register_bitwise(!0, b"123456789") ^ !0,
            crc32(b"123456789")
        );
        // Every length up to three blocks and a remainder, so each
        // multiple of the block (2048 bytes) is met with one byte less
        // and one more. The reference advances one byte per length.
        const MAX: usize = 3 * LANES * LANE + 17;
        let mut g = simtools::rng::SplitMix64::new(0x00C3_C32A);
        let bytes: Vec<u8> = (0..MAX).map(|_| g.next_u64() as u8).collect();
        let mut register = !0u32;
        for len in 0..=MAX {
            assert_eq!(crc32(&bytes[..len]), register ^ !0, "length {len}");
            if len < MAX {
                register = crc_register_bitwise(register, &bytes[len..=len]);
            }
        }
        // Lanes start anywhere in a buffer.
        for skip in 1..9 {
            let tail = &bytes[skip..];
            assert_eq!(
                crc32(tail),
                crc_register_bitwise(!0, tail) ^ !0,
                "skip {skip}"
            );
        }
    }

    fn sample_journal() -> Journal {
        let mut db = MetadataDb::for_schema(&examples::circuit_design());
        db.enable_journal();
        let s = db.begin_planning(WorkDays::ZERO);
        db.plan_activity(s, "Create", WorkDays::ZERO, WorkDays::new(2.0))
            .unwrap();
        let run = db.begin_run("Create", "alice", WorkDays::ZERO).unwrap();
        let data = db.store_data("v1.net", b"module top".to_vec());
        db.finish_run(run, "netlist", data, WorkDays::new(1.0), &[])
            .unwrap();
        db.journal().unwrap().clone()
    }

    #[test]
    fn tail_roundtrip_both_framings() {
        let journal = sample_journal();
        for framing in [Framing::V1, Framing::V2] {
            let text = framing.encode_tail(&journal);
            let scan = decode_tail(&text);
            assert_eq!(scan.framing, framing);
            assert_eq!(scan.journal, journal);
            assert_eq!(scan.records, journal.len());
            assert_eq!(scan.issue, None);
        }
    }

    /// The op-line text form as written before records were framed in
    /// place (`format!` per op, `{:02x}` per payload byte), kept here
    /// as the byte-identity oracle.
    fn reference_line(op: &JournalOp) -> String {
        let hex = |bytes: &[u8]| {
            if bytes.is_empty() {
                "-".to_owned()
            } else {
                bytes.iter().map(|b| format!("{b:02x}")).collect()
            }
        };
        match op {
            JournalOp::DeclareEntityContainer { class } => format!("declare-entity {class}"),
            JournalOp::DeclareScheduleContainer {
                activity,
                output_class,
            } => format!("declare-schedule {activity} {output_class}"),
            JournalOp::StoreData { name, content } => {
                format!("store-data {} {}", hex(name.as_bytes()), hex(content))
            }
            JournalOp::StoreDataRef { name, extent } => format!(
                "store-data-ref {} {} {} {:08x}",
                hex(name.as_bytes()),
                extent.offset,
                extent.len,
                extent.crc
            ),
            JournalOp::BeginRun {
                activity,
                operator,
                started,
            } => format!("begin-run {activity} {operator} {}", started.millidays()),
            JournalOp::FinishRun {
                run,
                output_class,
                data,
                finished,
                inputs,
            } => {
                let inputs = if inputs.is_empty() {
                    "-".to_owned()
                } else {
                    let ids: Vec<String> = inputs.iter().map(|i| i.index().to_string()).collect();
                    ids.join(",")
                };
                format!(
                    "finish-run {} {output_class} {} {} inputs {inputs}",
                    run.index(),
                    data.index(),
                    finished.millidays()
                )
            }
            JournalOp::SupplyInput {
                class,
                creator,
                created,
                data,
            } => format!(
                "supply-input {class} {creator} {} {}",
                created.millidays(),
                data.index()
            ),
            JournalOp::BeginPlanning { at } => format!("begin-planning {}", at.millidays()),
            JournalOp::PlanActivity {
                session,
                activity,
                start,
                duration,
            } => format!(
                "plan-activity {} {activity} {} {}",
                session.index(),
                start.millidays(),
                duration.millidays()
            ),
            JournalOp::CarryPlan { session, from } => {
                let runs: Vec<String> = from
                    .iter()
                    .map(|run| match run.last > run.first {
                        true => format!("{}-{}", run.first, run.last),
                        false => run.first.to_string(),
                    })
                    .collect();
                format!("carry-plan {} {}", session.index(), runs.join(","))
            }
            JournalOp::Assign { schedule, designer } => {
                format!("assign {} {designer}", schedule.index())
            }
            JournalOp::LinkCompletion { schedule, entity } => {
                format!("link {} {}", schedule.index(), entity.index())
            }
        }
    }

    /// Every op variant, with the payload edge cases: empty content, a
    /// non-ASCII name, a 64 KiB payload, empty and multi-entry lists,
    /// and the largest time a record can carry (`i64::MAX` milli-days).
    fn every_op_variant() -> Vec<JournalOp> {
        use crate::ids::{
            DataObjectId, EntityInstanceId, PlanningSessionId, RunId, ScheduleInstanceId,
        };
        let md = |md| schedule::WorkDays::try_from_millidays(md).expect("in range");
        let big: Vec<u8> = (0..64 * 1024).map(|i| (i * 7 + i / 251) as u8).collect();
        vec![
            JournalOp::DeclareEntityContainer {
                class: "netlist".into(),
            },
            JournalOp::DeclareScheduleContainer {
                activity: "Synthesize".into(),
                output_class: "netlist".into(),
            },
            JournalOp::StoreData {
                name: "empty.dat".into(),
                content: Vec::new(),
            },
            JournalOp::StoreData {
                name: String::new(),
                content: b"x".to_vec(),
            },
            JournalOp::StoreData {
                name: "résumé-€-設計.v".into(),
                content: b"\x00\xff module top;".to_vec(),
            },
            JournalOp::StoreData {
                name: "big.bin".into(),
                content: big,
            },
            JournalOp::StoreDataRef {
                name: "résumé.v".into(),
                extent: crate::segment::Extent {
                    offset: 0,
                    len: 0,
                    crc: 0,
                },
            },
            JournalOp::StoreDataRef {
                name: "big.bin".into(),
                extent: crate::segment::Extent {
                    offset: 1 << 40,
                    len: 64 * 1024,
                    crc: 0x0bad_c0de,
                },
            },
            JournalOp::BeginRun {
                activity: "Simulate".into(),
                operator: "bob".into(),
                started: md(i64::MAX),
            },
            JournalOp::FinishRun {
                run: RunId::new(3, 0),
                output_class: "performance".into(),
                data: DataObjectId::new(9, 0),
                finished: md(4250),
                inputs: Vec::new(),
            },
            JournalOp::FinishRun {
                run: RunId::new(12, 0),
                output_class: "performance".into(),
                data: DataObjectId::new(40, 0),
                finished: md(7000),
                inputs: vec![EntityInstanceId::new(1, 0), EntityInstanceId::new(22, 0)],
            },
            JournalOp::SupplyInput {
                class: "stimuli".into(),
                creator: "carol".into(),
                created: md(0),
                data: DataObjectId::new(0, 0),
            },
            JournalOp::BeginPlanning { at: md(12_345) },
            JournalOp::PlanActivity {
                session: PlanningSessionId::new(2, 0),
                activity: "Place".into(),
                start: md(1000),
                duration: md(2500),
            },
            JournalOp::CarryPlan {
                session: PlanningSessionId::new(3, 0),
                from: vec![crate::journal::SlotRange { first: 7, last: 7 }],
            },
            JournalOp::CarryPlan {
                session: PlanningSessionId::new(4, 0),
                from: vec![
                    crate::journal::SlotRange {
                        first: 100,
                        last: 1100,
                    },
                    crate::journal::SlotRange { first: 3, last: 3 },
                    crate::journal::SlotRange {
                        first: 4_000_000_000,
                        last: u32::MAX,
                    },
                ],
            },
            JournalOp::Assign {
                schedule: ScheduleInstanceId::new(5, 0),
                designer: "dana".into(),
            },
            JournalOp::LinkCompletion {
                schedule: ScheduleInstanceId::new(5, 0),
                entity: EntityInstanceId::new(17, 0),
            },
        ]
    }

    #[test]
    fn records_framed_in_place_match_the_reference_bytes() {
        let ops = every_op_variant();
        let mut kinds: Vec<&str> = ops.iter().map(JournalOp::kind).collect();
        kinds.dedup();
        assert_eq!(kinds.len(), 12, "every JournalOp variant is covered");
        for framing in [Framing::V1, Framing::V2] {
            let mut expected_tail = framing.empty_tail();
            for op in &ops {
                let line = reference_line(op);
                let expected = match framing {
                    Framing::V1 => format!("{line}\n"),
                    Framing::V2 => format!("{:08x} {}\n", crc32(line.as_bytes()), line),
                };
                // Framed onto a buffer that already holds text, as the
                // store's batched append does.
                let mut buf = String::from("prefix\n");
                framing.encode_tail_record_into(op, &mut buf);
                assert_eq!(
                    &buf["prefix\n".len()..],
                    expected,
                    "{framing:?} {}",
                    op.kind()
                );
                expected_tail.push_str(&expected);
            }
            let journal = Journal::from_ops(ops.clone());
            assert_eq!(framing.encode_tail(&journal), expected_tail);
            let scan = decode_tail(&expected_tail);
            assert_eq!(scan.issue, None);
            assert_eq!(scan.journal, journal, "{framing:?} round-trips");
        }
        let journal = Journal::from_ops(ops);
        assert_eq!(journal.to_text(), Framing::V1.encode_tail(&journal));
    }

    #[test]
    fn torn_last_record_is_classified_torn() {
        let journal = sample_journal();
        for framing in [Framing::V1, Framing::V2] {
            let mut text = framing.encode_tail(&journal);
            text.push_str("deadbeef begin-run Create al"); // partial, no newline
            let scan = decode_tail(&text);
            assert_eq!(scan.journal, journal, "valid prefix survives");
            assert!(
                matches!(scan.issue, Some(TailIssue::Torn { .. })),
                "{framing:?}: {:?}",
                scan.issue
            );
        }
    }

    #[test]
    fn interior_damage_is_classified_corrupt() {
        let journal = sample_journal();
        assert!(journal.len() >= 3);
        let text = Framing::V2.encode_tail(&journal);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        // Flip a byte inside the second record (header is line 0).
        let victim = 2;
        lines[victim] = lines[victim].replace(' ', "_");
        let damaged = lines.join("\n") + "\n";
        let scan = decode_tail(&damaged);
        assert!(
            matches!(scan.issue, Some(TailIssue::Corrupt { line, .. }) if line == victim + 1),
            "{:?}",
            scan.issue
        );
        assert_eq!(scan.journal.len(), victim - 1, "prefix stops at damage");
    }

    #[test]
    fn v2_checksum_catches_spliced_records() {
        // A silent short write splices two records onto one line: the
        // crc of the splice matches neither record.
        let journal = sample_journal();
        let mut text = Framing::V2.empty_tail();
        Framing::V2.encode_tail_record_into(&journal.ops()[0], &mut text);
        text.pop(); // the newline between the two records is lost
        Framing::V2.encode_tail_record_into(&journal.ops()[1], &mut text);
        let scan = decode_tail(&text);
        assert!(scan.issue.is_some(), "splice must not decode");
    }

    #[test]
    fn tail_bad_header_reported() {
        let scan = decode_tail("metadata-journal v9\n");
        assert_eq!(scan.issue, Some(TailIssue::BadHeader));
        assert!(scan.journal.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_and_compat() {
        let db = MetadataDb::for_schema(&examples::circuit_design());
        let dump = db.dump();
        // v2 wraps and unwraps.
        let v2 = Framing::V2.encode_snapshot(&dump);
        // Framing in place appends the same bytes after what is there.
        let mut framed = String::from("x");
        frame_snapshot_v2(&mut framed, |out| {
            out.push_str(&dump);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(framed[1..], v2);
        let (framing, body) = decode_snapshot(&v2).unwrap();
        assert_eq!(framing, Framing::V2);
        assert_eq!(body, dump);
        // a bare v1 dump passes through.
        let (framing, body) = decode_snapshot(&dump).unwrap();
        assert_eq!(framing, Framing::V1);
        assert_eq!(body, dump);
    }

    #[test]
    fn snapshot_bitrot_is_caught() {
        let db = MetadataDb::for_schema(&examples::circuit_design());
        let dump = db.dump();
        let v2 = Framing::V2.encode_snapshot(&dump);
        assert!(v2.contains("netlist"), "fixture must contain the word");
        let rotted = v2.replace("netlist", "netlisX");
        assert!(matches!(
            decode_snapshot(&rotted),
            Err(SnapshotIssue::ChecksumMismatch { .. })
        ));
        assert_eq!(decode_snapshot("garbage\n"), Err(SnapshotIssue::BadHeader));
    }
}
