//! The flight recorder: a lossy, always-on ring of recent spans and
//! events that coexists with exclusive tracing sessions.
//!
//! Sessions are exclusive and lossless — exactly what a CLI trace run
//! wants, and exactly what a live server cannot use. The flight
//! recorder is the complement: every thread owns a fixed-capacity ring
//! of [`FlightRecord`]s that the `span!`/`event!` macros feed whenever
//! the recorder is enabled, whether or not the thread is also in a
//! session. Both are written by the collector's one recording path, so
//! a session member's ring sees exactly the stream its session does.
//! When a ring is full the oldest record is overwritten (and counted),
//! so memory is bounded no matter how long the process lives. A dump
//! ([`crate::Collector::flight_dump`]) merges the rings on demand —
//! typically microseconds before an operator reads them from
//! `GET /debug/flight`.
//!
//! Cost model: recording appends into a preallocated buffer behind the
//! thread's own (uncontended) mutex — no allocation after the ring
//! warms up, and no argument vectors are ever built on the
//! flight-only path. The only cross-thread traffic is the shared
//! `obs.flight.dropped` counter, bumped once per overwritten record.
//! The B16 `obs_live` kernel holds the end-to-end overhead on plan
//! and serve bodies to ≤1.15× the disabled baseline.
//!
//! Records deliberately carry no args and no simulated clock: the
//! recorder answers "what was the process doing just now", not "what
//! exactly happened" — that remains the session's job.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::metrics::{Counter, Metrics};

/// Ring capacity per thread; 0 = recorder disabled.
static FLIGHT_CAP: AtomicUsize = AtomicUsize::new(0);

/// The shared overwrite counter, visible live in `/metrics` as
/// `obs.flight.dropped`.
fn dropped_counter() -> &'static Counter {
    static DROPPED: OnceLock<Counter> = OnceLock::new();
    DROPPED.get_or_init(|| Metrics::counter("obs.flight.dropped"))
}

pub(crate) fn cap() -> usize {
    FLIGHT_CAP.load(Ordering::Relaxed)
}

pub(crate) fn set_cap(cap: usize) {
    FLIGHT_CAP.store(cap, Ordering::Relaxed);
}

/// What a flight record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened.
    Enter,
    /// A span closed.
    Exit,
    /// A point event.
    Event,
}

impl FlightKind {
    fn as_str(self) -> &'static str {
        match self {
            FlightKind::Enter => "enter",
            FlightKind::Exit => "exit",
            FlightKind::Event => "event",
        }
    }
}

/// One entry in a thread's flight ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Enter / exit / event.
    pub kind: FlightKind,
    /// The span or event name.
    pub name: &'static str,
    /// Monotonic nanoseconds since the collector epoch.
    pub mono_ns: u64,
    /// The request trace id active on the recording thread (0 = none).
    pub trace_id: u64,
}

/// One thread's ring. Owned by the thread slot, locked only by the
/// owning thread and a dump.
#[derive(Default)]
pub(crate) struct FlightRing {
    cap: usize,
    buf: Vec<FlightRecord>,
    /// Records ever written; position of record `i` is `i % cap`.
    head: u64,
    /// Records overwritten before anyone dumped them.
    dropped: u64,
}

impl FlightRing {
    /// Appends one record under the current capacity. Re-arms the ring
    /// if the capacity changed since the last write (rare: only on
    /// enable/disable transitions).
    pub(crate) fn record(&mut self, cap: usize, rec: FlightRecord) {
        if self.cap != cap {
            self.cap = cap;
            self.buf.clear();
            self.buf.reserve_exact(cap);
            self.head = 0;
            self.dropped = 0;
        }
        if self.buf.len() < cap {
            self.buf.push(rec);
        } else {
            let idx = (self.head % cap as u64) as usize;
            self.buf[idx] = rec;
            self.dropped += 1;
            dropped_counter().inc();
        }
        self.head += 1;
    }

    /// Records in write order (oldest surviving first) plus the
    /// overwrite count.
    pub(crate) fn drain_ordered(&self) -> (Vec<FlightRecord>, u64) {
        if self.buf.len() < self.cap || self.cap == 0 {
            return (self.buf.clone(), self.dropped);
        }
        let start = (self.head % self.cap as u64) as usize;
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[start..]);
        out.extend_from_slice(&self.buf[..start]);
        (out, self.dropped)
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

/// One thread's contribution to a flight dump.
#[derive(Debug, Clone)]
pub struct FlightThread {
    /// The thread's lane (`u64::MAX` = never assigned).
    pub lane: u64,
    /// Records overwritten in this thread's ring since enable.
    pub dropped: u64,
    /// Surviving records, oldest first.
    pub records: Vec<FlightRecord>,
}

/// A merged snapshot of every thread's flight ring, ordered by
/// `(lane, registration)` like a session drain.
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Per-thread rings with at least one record or drop.
    pub threads: Vec<FlightThread>,
}

impl FlightDump {
    /// Total surviving records across all threads.
    pub fn total_records(&self) -> usize {
        self.threads.iter().map(|t| t.records.len()).sum()
    }

    /// Total overwritten records across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// The dump restricted to one request: only records stamped with
    /// `trace_id`, threads with no match removed. Drop counters are
    /// carried over unchanged — a dropped record *might* have belonged
    /// to this trace, and the reader should know the window was lossy.
    pub fn filter_trace(&self, trace_id: u64) -> FlightDump {
        FlightDump {
            threads: self
                .threads
                .iter()
                .filter_map(|t| {
                    let records: Vec<FlightRecord> = t
                        .records
                        .iter()
                        .filter(|r| r.trace_id == trace_id)
                        .copied()
                        .collect();
                    (!records.is_empty()).then_some(FlightThread {
                        lane: t.lane,
                        dropped: t.dropped,
                        records,
                    })
                })
                .collect(),
        }
    }

    /// Renders the dump as one JSON object. Each record carries its
    /// kind, name, timestamp, nesting depth (enters minus exits seen
    /// so far on that thread), and the trace id as 16 hex digits when
    /// present.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"threads\":[");
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if t.lane == u64::MAX {
                out.push_str("{\"lane\":null");
            } else {
                let _ = write!(out, "{{\"lane\":{}", t.lane);
            }
            let _ = write!(out, ",\"dropped\":{},\"records\":[", t.dropped);
            let mut depth: u64 = 0;
            for (j, r) in t.records.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                if r.kind == FlightKind::Exit {
                    depth = depth.saturating_sub(1);
                }
                let _ = write!(out, "{{\"kind\":\"{}\",\"name\":\"", r.kind.as_str());
                crate::export::escape_json(r.name, &mut out);
                let _ = write!(out, "\",\"t_ns\":{},\"depth\":{depth}", r.mono_ns);
                if r.trace_id != 0 {
                    let _ = write!(out, ",\"trace\":\"{:016x}\"", r.trace_id);
                }
                out.push('}');
                if r.kind == FlightKind::Enter {
                    depth += 1;
                }
            }
            out.push_str("]}");
        }
        let _ = write!(
            out,
            "],\"total_records\":{},\"total_dropped\":{}}}",
            self.total_records(),
            self.total_dropped()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, kind: FlightKind, t: u64) -> FlightRecord {
        FlightRecord {
            kind,
            name,
            mono_ns: t,
            trace_id: 0,
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = FlightRing::default();
        for t in 0..6 {
            ring.record(4, rec("a", FlightKind::Event, t));
        }
        let (records, dropped) = ring.drain_ordered();
        assert_eq!(dropped, 2);
        let times: Vec<u64> = records.iter().map(|r| r.mono_ns).collect();
        assert_eq!(times, vec![2, 3, 4, 5], "oldest two overwritten");
    }

    #[test]
    fn capacity_change_rearms_the_ring() {
        let mut ring = FlightRing::default();
        ring.record(2, rec("a", FlightKind::Event, 0));
        ring.record(2, rec("a", FlightKind::Event, 1));
        ring.record(8, rec("a", FlightKind::Event, 2));
        let (records, dropped) = ring.drain_ordered();
        assert_eq!(records.len(), 1);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn dump_json_filters_by_trace_and_is_valid() {
        let dump = FlightDump {
            threads: vec![FlightThread {
                lane: 0,
                dropped: 3,
                records: vec![
                    FlightRecord {
                        kind: FlightKind::Enter,
                        name: "serve.request",
                        mono_ns: 10,
                        trace_id: 0xabcd,
                    },
                    FlightRecord {
                        kind: FlightKind::Event,
                        name: "other",
                        mono_ns: 11,
                        trace_id: 0x9999,
                    },
                    FlightRecord {
                        kind: FlightKind::Exit,
                        name: "serve.request",
                        mono_ns: 12,
                        trace_id: 0xabcd,
                    },
                ],
            }],
        };
        crate::export::validate_json(&dump.to_json()).unwrap();
        let one = dump.filter_trace(0xabcd);
        assert_eq!(one.total_records(), 2);
        assert_eq!(one.total_dropped(), 3, "drop counts survive filtering");
        let json = one.to_json();
        assert!(json.contains("000000000000abcd"), "{json}");
        assert!(!json.contains("other"), "{json}");
    }
}
