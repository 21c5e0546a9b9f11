//! Pins the metadata dump after a real execution: the `circuit_design`
//! and `asic_flow` examples, planned and executed once with fixed
//! seeds, must dump to exactly the bytes recorded below (length and
//! CRC32; the `asic_flow` dump is over a megabyte of hex, too large to
//! commit as text). The dump is the snapshot body the persistent store
//! writes, and its `data` lines carry every tool output as hex — so any
//! drift in the payload codec would strand snapshots already on disk.
//! A deliberate format change re-pins with
//!
//! ```text
//! cargo test -p hercules --test dump_golden -- --ignored --nocapture print_pins
//! ```

use hercules::Hercules;
use metadata::framing::crc32;
use metadata::MetadataDb;
use schema::{examples, TaskSchema};
use simtools::workload::Team;
use simtools::ToolLibrary;

/// One pinned flow: its name, schema, target, and the dump's length
/// and CRC32.
struct Pin {
    name: &'static str,
    schema: fn() -> TaskSchema,
    target: &'static str,
    bytes: usize,
    crc: u32,
}

const PINS: [Pin; 2] = [
    Pin {
        name: "circuit_design",
        schema: examples::circuit_design,
        target: "performance",
        bytes: 55_939,
        crc: 0x905f_c0e1,
    },
    Pin {
        name: "asic_flow",
        schema: examples::asic_flow,
        target: "signoff_report",
        bytes: 1_130_576,
        crc: 0xee71_d68a,
    },
];

fn executed_dump(pin: &Pin) -> String {
    let mut h = Hercules::new((pin.schema)(), ToolLibrary::standard(), Team::of_size(2), 7);
    h.plan(pin.target).expect("example plans");
    h.execute(pin.target).expect("example executes");
    h.db().dump()
}

#[test]
fn executed_dumps_match_pinned_bytes() {
    for pin in &PINS {
        let dump = executed_dump(pin);
        assert!(
            dump.lines().any(|l| l.starts_with("data ")),
            "{}: the fixture must carry data payloads",
            pin.name
        );
        assert_eq!(
            (dump.len(), crc32(dump.as_bytes())),
            (pin.bytes, pin.crc),
            "{}: dump bytes drifted from the pinned form",
            pin.name
        );
    }
}

#[test]
fn executed_dumps_load_back_byte_identical() {
    for pin in &PINS {
        let dump = executed_dump(pin);
        let db = MetadataDb::load(&dump).expect("dump loads");
        assert_eq!(db.dump(), dump, "{}", pin.name);
    }
}

/// Prints the current pins. Ignored by default; run explicitly after a
/// deliberate format change and copy the values into `PINS`.
#[test]
#[ignore = "prints fresh pins; run explicitly after deliberate format changes"]
fn print_pins() {
    for pin in &PINS {
        let dump = executed_dump(pin);
        println!(
            "{}: bytes {} crc {:#010x}",
            pin.name,
            dump.len(),
            crc32(dump.as_bytes())
        );
    }
}
