//! What the two line parsers accept and refuse, pinned case by case:
//! the snapshot loader ([`MetadataDb::load`]) and the journal record
//! parser ([`Journal::parse`], the one the tail decoder runs on every
//! record). Each case is a whole input; its expected result, `Ok` with
//! the loaded state in canonical text or the exact [`LoadError`], is
//! in `artifacts/parse_corpus.txt`.
//!
//! Both parsers decode a field of each kind through the same typed
//! reader, so they agree on what a value may be: a time or duration is
//! a non-negative `i64` of milli-days (cases at `i64::MAX`, one past
//! it and below zero), an index is a `u32` (a wider one is refused,
//! never wrapped), and a snapshot `run` line's iteration must be the
//! one loading derives.
//!
//! The cases cover every error message of both parsers and every
//! separator `str::split_whitespace` accepts (tab, doubled space,
//! `\x0B`, `\x0C`, U+0085, U+00A0, U+2003, U+3000, a trailing `\r`,
//! blank and space-only lines), next to characters that separate
//! nothing (`\x1C`, U+200B). Regenerate (deliberately, and review the
//! diff) with
//!
//! ```text
//! cargo test -p metadata --test parse_corpus -- --ignored regenerate
//! ```

use std::path::PathBuf;

use metadata::{Journal, MetadataDb};

/// A small valid snapshot: every record kind, a run without a finish,
/// a supplied input and a completion link.
const SNAPSHOT: &str = "metadata-db v1
container entity netlist
container entity stimuli
container schedule Create netlist
data 762e6e6574 6d6f64
data-ref 732e646174 0 4 8a9136aa
session 0
run Create alice 1 500 1500
run Create bob 2 1600
entity stimuli 0 bob deps - data 1
entity netlist 1500 alice run 0 deps 0 data 0
sched Create 0 0 2000 assignees alice,bob link 1
";

/// A small valid journal: every op kind.
const JOURNAL: &str = "metadata-journal v1
declare-entity netlist
declare-entity stimuli
declare-schedule Create netlist
store-data 762e6e6574 6d6f64
store-data-ref 732e646174 0 4 8a9136aa
supply-input stimuli bob 0 1
begin-planning 0
plan-activity 0 Create 0 2000
assign 0 alice
begin-run Create alice 500
finish-run 0 netlist 0 1500 inputs 0
link 0 1
begin-planning 100
carry-plan 0 0
";

/// `text` with every space between fields replaced by `sep`.
fn separated(text: &str, sep: &str) -> String {
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        // Keep the header intact: its exact form is checked apart.
        match i {
            0 => out.push_str(line),
            _ => out.push_str(&line.replace(' ', sep)),
        }
        out.push('\n');
    }
    out
}

/// `text` with every line ending `\r\n`.
fn crlf(text: &str) -> String {
    text.replace('\n', "\r\n")
}

/// `text` with a blank line and a whitespace-only line after each line.
fn spaced_out(text: &str) -> String {
    text.replace('\n', "\n\n \t\u{a0}\n")
}

/// `text` with each body line indented and trailed by whitespace.
fn padded(text: &str) -> String {
    let mut lines = text.lines();
    let mut out = format!("{}\n", lines.next().unwrap_or_default());
    for line in lines {
        out.push_str(&format!(" \t{line}\u{3000}\n"));
    }
    out
}

/// The whitespace variants of a valid input, by name.
fn whitespace_cases(base: &str) -> Vec<(String, String)> {
    let mut cases = vec![
        ("valid".to_owned(), base.to_owned()),
        ("tab".to_owned(), separated(base, "\t")),
        ("double_space".to_owned(), separated(base, "  ")),
        ("vertical_tab".to_owned(), separated(base, "\x0B")),
        ("form_feed".to_owned(), separated(base, "\x0C")),
        ("next_line".to_owned(), separated(base, "\u{85}")),
        ("no_break_space".to_owned(), separated(base, "\u{a0}")),
        ("em_space".to_owned(), separated(base, "\u{2003}")),
        ("ideographic_space".to_owned(), separated(base, "\u{3000}")),
        ("mixed".to_owned(), separated(base, " \t\u{a0}\x0B ")),
        ("crlf".to_owned(), crlf(base)),
        ("blank_lines".to_owned(), spaced_out(base)),
        ("padded".to_owned(), padded(base)),
        (
            "no_final_newline".to_owned(),
            base.trim_end_matches('\n').to_owned(),
        ),
        (
            "final_cr_without_newline".to_owned(),
            format!("{}\r", base.trim_end_matches('\n')),
        ),
        // Not white space: these stay inside the field they touch.
        ("unit_separator".to_owned(), separated(base, "\x1C")),
        ("zero_width_space".to_owned(), separated(base, "\u{200B}")),
        ("nul".to_owned(), separated(base, "\0")),
    ];
    // The whole input's lines one separator at a time would repeat the
    // cases above; one line per separator inside a name is enough.
    for (name, sep) in [("nbsp_in_name", "\u{a0}"), ("tab_in_name", "\t")] {
        cases.push((
            name.to_owned(),
            base.replace("alice", &format!("ali{sep}ce")),
        ));
    }
    cases
}

/// Snapshot cases: the valid one in every whitespace variant, then one
/// line added to or changed in it per case.
fn snapshot_cases() -> Vec<(String, String)> {
    let mut cases = whitespace_cases(SNAPSHOT);
    let header_cases = [
        ("empty", ""),
        ("header_only", "metadata-db v1"),
        ("header_v2", "metadata-db v2\n"),
        ("header_trailing_space", "metadata-db v1 \n"),
        ("header_leading_blank", "\nmetadata-db v1\n"),
        ("header_crlf_only", "metadata-db v1\r\n"),
        ("header_tab", "metadata-db\tv1\n"),
    ];
    for (name, text) in header_cases {
        cases.push((name.to_owned(), text.to_owned()));
    }
    let appended = [
        ("container_bare", "container"),
        ("container_entity_no_class", "container entity"),
        ("container_entity_extra", "container entity a b"),
        ("container_schedule_no_output", "container schedule A"),
        ("container_schedule_extra", "container schedule A b c"),
        ("container_other_space", "container other x"),
        ("container_entity_redeclared", "container entity netlist"),
        ("container_schedule_new", "container schedule Place layout"),
        ("container_schedule_dash", "container schedule Place -"),
        ("data_bare", "data"),
        ("data_one_field", "data 61"),
        ("data_extra", "data 61 62 63"),
        ("data_odd_name", "data 616 62"),
        ("data_bad_name_pair", "data zz 62"),
        ("data_name_not_utf8", "data ff 62"),
        ("data_sign_content", "data 61 +f"),
        ("data_empty_both", "data - -"),
        ("data_uppercase", "data 4A 0F"),
        ("data_double_dash", "data -- 62"),
        ("data_ref_short", "data-ref 61 0 4"),
        ("data_ref_extra", "data-ref 61 0 4 00000000 9"),
        ("data_ref_plus_offset", "data-ref 61 +0 4 00000000"),
        ("data_ref_minus_len", "data-ref 61 0 -4 00000000"),
        ("data_ref_short_crc", "data-ref 61 0 4 0000000"),
        ("data_ref_long_crc", "data-ref 61 0 4 000000000"),
        ("data_ref_bad_crc", "data-ref 61 0 4 0000000g"),
        ("data_ref_upper_crc", "data-ref 61 0 4 ABCDEF01"),
        (
            "data_ref_overflow",
            "data-ref 61 18446744073709551616 4 00000000",
        ),
        (
            "data_ref_max",
            "data-ref 61 18446744073709551615 0 00000000",
        ),
        ("data_ref_bad_name", "data-ref 6 0 4 00000000"),
        ("session_bare", "session"),
        ("session_extra", "session 1 2"),
        ("session_negative", "session -1"),
        ("session_minus_zero", "session -0"),
        ("session_plus", "session +5"),
        ("session_word", "session x"),
        ("session_overflow", "session 99999999999999999999"),
        ("session_max", "session 9223372036854775807"),
        ("session_leading_zeros", "session 000000000000000000000042"),
        ("session_plus_minus", "session +-1"),
        ("session_only_plus", "session +"),
        ("session_only_minus", "session -"),
        ("run_short", "run Create alice 1"),
        ("run_long", "run Create alice 1 5 6 7"),
        ("run_word_iteration", "run Create alice x 5"),
        ("run_negative_start", "run Create alice 3 -5"),
        ("run_plus_start", "run Create alice 3 +5"),
        ("run_bad_finish", "run Create alice 3 5 x"),
        ("run_finish_before_start", "run Create alice 3 5 4"),
        ("run_iteration_disagrees", "run Create alice 1 5"),
        ("run_iteration_wraps", "run Create alice 4294967299 5"),
        ("run_unknown_activity", "run Ghost alice 1 5"),
        ("run_unknown_activity_bad_finish", "run Ghost alice 1 5 x"),
        ("run_bad_start_unknown_activity", "run Ghost alice 1 x"),
        ("entity_short", "entity netlist 5"),
        ("entity_bad_created", "entity netlist x alice data 0"),
        ("entity_negative_created", "entity netlist -1 alice data 0"),
        ("entity_no_data", "entity netlist 5 alice"),
        ("entity_run_no_index", "entity netlist 5 alice run"),
        ("entity_bad_run", "entity netlist 5 alice run x data 0"),
        ("entity_plus_run", "entity netlist 5 alice run +1 data 0"),
        ("entity_deps_no_list", "entity netlist 5 alice deps"),
        (
            "entity_empty_dep",
            "entity netlist 5 alice deps 0,,1 data 0",
        ),
        (
            "entity_trailing_comma",
            "entity netlist 5 alice deps 0, data 0",
        ),
        ("entity_data_no_index", "entity netlist 5 alice deps - data"),
        ("entity_bad_data", "entity netlist 5 alice data x"),
        (
            "entity_unknown_field",
            "entity netlist 5 alice foo 1 data 0",
        ),
        ("entity_unknown_class", "entity ghost 5 alice data 0"),
        ("entity_unknown_data", "entity netlist 5 alice data 9"),
        ("entity_unknown_run", "entity netlist 5 alice run 7 data 0"),
        ("entity_unknown_dep", "entity netlist 5 alice deps 5 data 0"),
        ("entity_data_twice", "entity netlist 5 alice data 0 data 1"),
        (
            "entity_deps_twice",
            "entity netlist 5 alice deps 0 deps 1 data 0",
        ),
        (
            "entity_dep_wraps",
            "entity netlist 5 alice deps 4294967296 data 0",
        ),
        (
            "entity_dep_overflow",
            "entity netlist 5 alice deps 18446744073709551616 data 0",
        ),
        (
            "entity_fields_reordered",
            "entity netlist 5 alice data 0 deps 1 run 1",
        ),
        ("entity_creator_dash", "entity stimuli 5 - deps - data 1"),
        ("sched_short", "sched Create 0 0"),
        ("sched_bad_session", "sched Create x 0 1 assignees -"),
        ("sched_negative_session", "sched Create -1 0 1 assignees -"),
        ("sched_bad_start", "sched Create 0 x 1 assignees -"),
        ("sched_negative_duration", "sched Create 0 0 -1"),
        ("sched_no_assignees", "sched Create 0 0 1"),
        ("sched_assignees_no_list", "sched Create 0 0 1 assignees"),
        ("sched_link_no_index", "sched Create 0 0 1 link"),
        ("sched_bad_link", "sched Create 0 0 1 link x"),
        ("sched_unknown_field", "sched Create 0 0 1 bogus"),
        ("sched_unknown_activity", "sched Ghost 0 0 1 assignees -"),
        ("sched_unknown_session", "sched Create 9 0 1 assignees -"),
        ("sched_empty_assignee", "sched Create 0 0 1 assignees a,,b"),
        (
            "sched_repeated_assignee",
            "sched Create 0 0 1 assignees a,b,a",
        ),
        ("sched_mismatched_link", "sched Create 0 0 1 link 0"),
        ("sched_unknown_link", "sched Create 0 0 1 link 9"),
        ("sched_link_twice", "sched Create 0 0 1 link 1 link 1"),
        (
            "sched_session_wraps",
            "sched Create 4294967296 0 1 assignees -",
        ),
        ("sched_carried", "sched Create 0 0 2000 assignees alice,bob"),
        (
            "sched_assignees_twice",
            "sched Create 0 0 1 assignees a assignees b",
        ),
        ("unknown_kind", "bogus 1"),
        ("kind_case", "Container entity x"),
        ("kind_only_unknown", "x"),
        ("kind_with_nbsp", "session\u{a0}5"),
        ("kind_glued", "session5"),
    ];
    for (name, line) in appended {
        cases.push((name.to_owned(), format!("{SNAPSHOT}{line}\n")));
    }
    // A bad line after a blank one still reports its own line number.
    cases.push((
        "line_number_after_blanks".to_owned(),
        format!("{SNAPSHOT}\n\n\t\nsession x\n"),
    ));
    cases
}

/// Journal cases: the valid one in every whitespace variant, then one
/// record per case.
fn journal_cases() -> Vec<(String, String)> {
    let mut cases = whitespace_cases(JOURNAL);
    for (name, text) in [
        ("empty", ""),
        ("header_v2", "metadata-journal v2\n"),
        ("header_trailing_space", "metadata-journal v1 \n"),
        ("header_crlf_only", "metadata-journal v1\r\n"),
    ] {
        cases.push((name.to_owned(), text.to_owned()));
    }
    let records = [
        ("declare_entity_bare", "declare-entity"),
        ("declare_entity_extra", "declare-entity a b"),
        ("declare_schedule_short", "declare-schedule A"),
        ("declare_schedule_extra", "declare-schedule A b c"),
        ("store_data_short", "store-data 61"),
        ("store_data_extra", "store-data 61 62 63"),
        ("store_data_bad_name", "store-data zz 62"),
        ("store_data_name_not_utf8", "store-data c3 62"),
        ("store_data_odd_content", "store-data 61 626"),
        ("store_data_empty", "store-data - -"),
        ("store_data_ref_short", "store-data-ref 61 0 4"),
        ("store_data_ref_plus", "store-data-ref 61 0 +4 00000000"),
        ("store_data_ref_bad_crc", "store-data-ref 61 0 4 xyz"),
        ("store_data_ref_bad_name", "store-data-ref 6 0 4 00000000"),
        ("begin_run_short", "begin-run Create alice"),
        ("begin_run_extra", "begin-run Create alice 5 6"),
        ("begin_run_bad_md", "begin-run Create alice x"),
        ("begin_run_negative_md", "begin-run Create alice -5"),
        ("begin_run_plus_md", "begin-run Create alice +5"),
        (
            "begin_run_overflow_md",
            "begin-run Create alice 9223372036854775808",
        ),
        (
            "begin_run_min_md",
            "begin-run Create alice -9223372036854775808",
        ),
        (
            "begin_run_max_md",
            "begin-run Create alice 9223372036854775807",
        ),
        ("finish_run_short", "finish-run 0 netlist 0 5 inputs"),
        (
            "finish_run_no_inputs_word",
            "finish-run 0 netlist 0 5 input -",
        ),
        ("finish_run_extra", "finish-run 0 netlist 0 5 inputs - x"),
        ("finish_run_bad_run", "finish-run x netlist 0 5 inputs -"),
        ("finish_run_bad_data", "finish-run 0 netlist x 5 inputs -"),
        ("finish_run_bad_md", "finish-run 0 netlist 0 x inputs -"),
        (
            "finish_run_empty_input",
            "finish-run 0 netlist 0 5 inputs 1,,2",
        ),
        (
            "finish_run_bad_input_and_run",
            "finish-run x netlist 0 5 inputs y",
        ),
        ("finish_run_inputs", "finish-run 0 netlist 0 5 inputs 0,1,2"),
        (
            "finish_run_index_overflow",
            "finish-run 4294967296 netlist 0 5 inputs -",
        ),
        (
            "finish_run_index_max",
            "finish-run 4294967295 netlist 0 5 inputs -",
        ),
        (
            "finish_run_plus_index",
            "finish-run +0 netlist 0 5 inputs -",
        ),
        ("supply_input_short", "supply-input stimuli bob 0"),
        ("supply_input_bad_md", "supply-input stimuli bob x 1"),
        ("supply_input_bad_data", "supply-input stimuli bob 0 -1"),
        ("begin_planning_bare", "begin-planning"),
        ("begin_planning_extra", "begin-planning 1 2"),
        ("begin_planning_bad", "begin-planning 1.5"),
        ("plan_activity_short", "plan-activity 0 Create 0"),
        ("plan_activity_bad_session", "plan-activity s Create 0 1"),
        ("plan_activity_bad_start", "plan-activity 0 Create s 1"),
        ("plan_activity_bad_duration", "plan-activity 0 Create 0 s"),
        ("carry_plan_short", "carry-plan 0"),
        ("carry_plan_extra", "carry-plan 0 1 2"),
        ("carry_plan_bad_session", "carry-plan x 1"),
        ("carry_plan_range", "carry-plan 0 1-3,5,7-8"),
        ("carry_plan_equal_range", "carry-plan 0 1-1"),
        ("carry_plan_reversed", "carry-plan 0 2-1"),
        ("carry_plan_plus_slot", "carry-plan 0 +1"),
        ("carry_plan_open_range", "carry-plan 0 1-"),
        ("carry_plan_empty_slot", "carry-plan 0 ,"),
        ("carry_plan_three_ends", "carry-plan 0 1-2-3"),
        ("carry_plan_overflow", "carry-plan 0 4294967296"),
        ("assign_short", "assign 0"),
        ("assign_extra", "assign 0 alice bob"),
        ("assign_bad_index", "assign x alice"),
        ("link_short", "link 0"),
        ("link_bad_schedule", "link x 1"),
        ("link_bad_entity", "link 0 x"),
        ("unknown_kind", "bogus 1"),
        ("kind_case", "Assign 0 alice"),
        ("kind_with_nbsp", "begin-planning\u{a0}5"),
        ("kind_glued", "begin-planning5"),
    ];
    for (name, line) in records {
        cases.push((name.to_owned(), format!("{JOURNAL}{line}\n")));
    }
    cases.push((
        "line_number_after_blanks".to_owned(),
        format!("{JOURNAL}\n \n\nassign x alice\n"),
    ));
    cases
}

/// The result of loading `text` as a snapshot: the loaded database as
/// its compacted journal (which reads no design data), or the error.
fn load_result(text: &str) -> String {
    match MetadataDb::load(text) {
        Ok(db) => format!("ok {:?}", Journal::compacted_from(&db).to_text()),
        Err(e) => format!("err {e:?}"),
    }
}

/// The result of parsing `text` as a journal: its canonical text, or
/// the error.
fn parse_result(text: &str) -> String {
    match Journal::parse(text) {
        Ok(journal) => format!("ok {:?}", journal.to_text()),
        Err(e) => format!("err {e:?}"),
    }
}

/// Every case and its result, one line each.
fn corpus() -> String {
    let mut out = String::new();
    for (name, text) in snapshot_cases() {
        out.push_str(&format!("snapshot {name}: {}\n", load_result(&text)));
    }
    for (name, text) in journal_cases() {
        out.push_str(&format!("journal {name}: {}\n", parse_result(&text)));
    }
    out
}

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/parse_corpus.txt")
}

#[test]
fn parsers_accept_and_refuse_exactly_the_corpus() {
    let path = corpus_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with: cargo test -p metadata \
             --test parse_corpus -- --ignored regenerate",
            path.display()
        )
    });
    let actual = corpus();
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(want, got, "a parser's verdict changed");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}

#[test]
fn every_case_name_is_unique() {
    let corpus = corpus();
    let mut names: Vec<&str> = corpus
        .lines()
        .map(|l| l.split_once(':').map_or(l, |(name, _)| name))
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}

/// Rewrites the expected results from the parsers as they are. Ignored
/// by default; run explicitly when a verdict changes deliberately.
#[test]
#[ignore = "writes the corpus artifact; run explicitly after a deliberate change"]
fn regenerate() {
    std::fs::write(corpus_path(), corpus()).expect("write the corpus artifact");
}
