//! Structured access log: one JSON object per request, appended to a
//! file the operator names with `--access-log`.
//!
//! The line format is deliberately flat — every value a dashboard or
//! `jq` query needs sits at the top level:
//!
//! ```json
//! {"ts_ms":1722945600123,"trace":"7f3a9c2b11d04e58","tenant":"alice",
//!  "endpoint":"replan","status":200,"latency_ms":3.21,"coalesced":false}
//! ```
//!
//! `tenant` is `null` for requests rejected before authentication, and
//! `coalesced` is true when a replan rode a concurrent leader's kernel
//! pass instead of running its own. The `trace` value matches the
//! `x-herc-trace` response header, so one grep correlates the log line
//! with the client's copy of the id and with
//! `GET /debug/flight?trace=<id>`.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use obs::export::escape_json;

/// One request's worth of access-log fields, filled by the router.
#[derive(Debug, Clone)]
pub struct AccessEntry {
    /// Request trace id (the `x-herc-trace` value), 0 = none assigned.
    pub trace_id: u64,
    /// Authenticated tenant, `None` before/without auth.
    pub tenant: Option<String>,
    /// Stable endpoint class (`plan`, `replan`, `status`, …).
    pub endpoint: &'static str,
    /// Response status code.
    pub status: u16,
    /// Wall-clock handling latency in milliseconds.
    pub latency_ms: f64,
    /// Whether a replan was answered from a concurrent leader's pass.
    pub coalesced: bool,
}

/// Append-only JSONL access log, shared by every worker thread. Each
/// request becomes exactly one `write_all` of one line, so concurrent
/// workers never interleave bytes within a line.
#[derive(Debug)]
pub struct AccessLog {
    file: Mutex<File>,
}

impl AccessLog {
    /// Opens (creating or appending to) the log at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying `File::open` failure.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<AccessLog> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        Ok(AccessLog {
            file: Mutex::new(file),
        })
    }

    /// Appends one request's line. Logging is best-effort: an I/O
    /// failure here must not fail the request that triggered it.
    pub fn record(&self, entry: &AccessEntry) {
        let line = render_line(entry);
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = file.write_all(line.as_bytes());
    }
}

/// Renders one entry as a JSON line (trailing `\n` included).
fn render_line(entry: &AccessEntry) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let mut out = String::with_capacity(128);
    let _ = write!(out, "{{\"ts_ms\":{ts_ms},\"trace\":");
    if entry.trace_id == 0 {
        out.push_str("null");
    } else {
        let _ = write!(out, "\"{:016x}\"", entry.trace_id);
    }
    out.push_str(",\"tenant\":");
    match &entry.tenant {
        Some(tenant) => {
            // Tenant names are operator-chosen: escape them so quotes
            // and control characters cannot break the line format.
            out.push('"');
            escape_json(tenant, &mut out);
            out.push('"');
        }
        None => out.push_str("null"),
    }
    let _ = writeln!(
        out,
        ",\"endpoint\":\"{}\",\"status\":{},\"latency_ms\":{:.3},\"coalesced\":{}}}",
        entry.endpoint, entry.status, entry.latency_ms, entry.coalesced
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_valid_jsonl_and_carry_every_field() {
        let dir = std::env::temp_dir().join(format!(
            "schedflow-access-log-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        let log = AccessLog::open(&path).unwrap();
        log.record(&AccessEntry {
            trace_id: 0x7f3a_9c2b_11d0_4e58,
            tenant: Some("ali\"ce".into()),
            endpoint: "replan",
            status: 200,
            latency_ms: 3.21,
            coalesced: true,
        });
        log.record(&AccessEntry {
            trace_id: 0,
            tenant: None,
            endpoint: "other",
            status: 401,
            latency_ms: 0.05,
            coalesced: false,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        obs::export::validate_jsonl(&text).expect("every line must be valid JSON");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = obs::export::parse_json(lines[0]).unwrap();
        assert_eq!(
            first.get("trace").and_then(|v| v.as_str()),
            Some("7f3a9c2b11d04e58")
        );
        assert_eq!(
            first.get("tenant").and_then(|v| v.as_str()),
            Some("ali\"ce")
        );
        assert_eq!(
            first.get("endpoint").and_then(|v| v.as_str()),
            Some("replan")
        );
        assert_eq!(first.get("status").and_then(|v| v.as_f64()), Some(200.0));
        assert!(matches!(
            first.get("coalesced"),
            Some(obs::export::JsonValue::Bool(true))
        ));
        let second = obs::export::parse_json(lines[1]).unwrap();
        assert!(matches!(
            second.get("trace"),
            Some(obs::export::JsonValue::Null)
        ));
        assert!(matches!(
            second.get("tenant"),
            Some(obs::export::JsonValue::Null)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
