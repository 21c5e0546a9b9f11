//! # obs — span tracing and metrics for the schedflow workspace
//!
//! The paper's fourth pillar is *status examination*: queries into
//! schedule data and schedule **metadata** — how a plan came to be and
//! how the system behaved while executing it. This crate is the
//! workspace's answer at the systems level: a zero-dependency,
//! offline observability layer that turns the plan → execute → replan
//! lifecycle into queryable telemetry.
//!
//! Three pieces:
//!
//! * **Tracing** ([`Collector`], [`span!`], [`event!`]) — RAII span
//!   guards and point events recorded into per-thread buffers, merged
//!   deterministically by lane (see [`Collector::set_lane`]). Every
//!   item carries two timestamp domains: real monotonic nanoseconds
//!   and the simulated WorkDay clock (milli-days, when published via
//!   [`Collector::set_sim_md`]). Tracing is **off by default**: with
//!   no session open and the flight recorder off, the macros cost one
//!   relaxed atomic load each. One recording path feeds two readers:
//!   exclusive lossless **sessions** ([`Collector::session`]), which
//!   record only their members — the opening thread and workers that
//!   entered its [`TraceContext`] ([`Collector::context`]) — and the
//!   lossy always-on **flight recorder**
//!   ([`Collector::enable_flight`], [`flight::FlightDump`]): bounded
//!   per-thread rings a live server keeps running permanently and
//!   dumps on demand, with per-request correlation via
//!   [`Collector::trace_scope`].
//! * **Metrics** ([`Metrics`], [`Counter`], [`Gauge`], [`Histogram`])
//!   — an always-on registry of named (optionally labeled) counters,
//!   gauges, and fixed-bucket histograms replacing ad-hoc stats
//!   structs, with interpolated percentiles and Prometheus text
//!   exposition ([`Metrics::to_prometheus`]).
//! * **Exporters** ([`export::to_jsonl`], [`export::to_chrome`]) —
//!   JSONL event logs and Chrome `trace_event` JSON loadable in
//!   `chrome://tracing`/Perfetto, written atomically via
//!   [`export::write_atomic`]. The [`export::Timebase::Logical`]
//!   timebase substitutes per-thread ticks for wall time so
//!   deterministic runs export byte-identical files (golden-pinnable).
//!
//! ## Example
//!
//! ```
//! use obs::{span, event, Collector};
//!
//! let session = Collector::session(); // exclusive; this thread records
//! {
//!     let mut g = span!("hercules.plan", target = "signoff_report");
//!     event!("plan.cache_hit", dirty = 3usize);
//!     g.record("cpm_recomputed", 12usize);
//! }
//! let trace = session.finish();
//! trace.validate().unwrap();
//! assert!(trace.has_span("hercules.plan"));
//! let json = obs::export::to_chrome(&trace, obs::export::Timebase::Wall);
//! assert!(json.contains("traceEvents"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
pub mod export;
pub mod flight;
mod metrics;
mod trace;

pub use collector::{flight_event, Collector, Session, SpanGuard, TraceContext, TraceScope};
pub use flight::{FlightDump, FlightKind, FlightRecord, FlightThread};
pub use metrics::{Counter, Gauge, Histogram, MetricSnapshot, Metrics};
pub use trace::{Arg, ArgValue, SpanView, ThreadTrace, Trace, TraceItem};

/// Opens a span: returns a [`SpanGuard`] that records entry now and
/// exit when dropped. Arguments are `key = value` pairs (values:
/// integers, floats, bools, strings). Outside a session **no argument
/// expressions are evaluated**: the span goes to the flight ring, if
/// the recorder is on, and nowhere otherwise.
///
/// ```
/// # let _session = obs::Collector::session();
/// let _g = obs::span!("core.execute", target = "placed_db", open = 5usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::Collector::is_enabled() {
            $crate::SpanGuard::enter(
                $name,
                ::std::vec![$($crate::Arg::new(stringify!($key), $value)),*],
            )
        } else {
            // Not in a session: no argument vector built.
            $crate::SpanGuard::enter_flight($name)
        }
    };
}

/// Records a point event inside the current span. Same `key = value`
/// argument form as [`span!`]; evaluates nothing outside a session.
///
/// ```
/// # let _session = obs::Collector::session();
/// obs::event!("execute.retry", activity = "simulate", attempt = 2u64);
/// ```
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::Collector::is_enabled() {
            $crate::Collector::event(
                $name,
                ::std::vec![$($crate::Arg::new(stringify!($key), $value)),*],
            );
        } else {
            $crate::flight_event($name);
        }
    };
}

#[cfg(test)]
mod macro_tests {
    use crate::Collector;

    #[test]
    fn macros_record_when_enabled_and_skip_eval_when_disabled() {
        // Disabled: the argument expression must not run.
        let mut evaluated = false;
        {
            let _g = span!(
                "test.span",
                flag = {
                    evaluated = true;
                    1u64
                }
            );
        }
        assert!(!evaluated, "span! evaluated args while disabled");

        let session = Collector::session();
        {
            let mut g = span!("test.span", flag = 1u64);
            assert!(g.is_active());
            event!("test.event", n = 2u64);
            g.record("done", true);
        }
        let trace = session.finish();
        trace.validate().unwrap();
        assert!(trace.has_span("test.span"));
        assert_eq!(trace.events_named("test.event"), 1);
    }

    #[test]
    fn macros_feed_the_flight_recorder_without_a_session() {
        Collector::enable_flight(64);
        let _scope = Collector::trace_scope(0xabc123);
        let mut evaluated = false;
        {
            let _g = span!(
                "macro.flight.span",
                x = {
                    evaluated = true;
                    1u64
                }
            );
            event!(
                "macro.flight.event",
                y = {
                    evaluated = true;
                    2u64
                }
            );
        }
        assert!(!evaluated, "flight-only path must not build args");
        let dump = Collector::flight_dump().filter_trace(0xabc123);
        assert_eq!(dump.total_records(), 3, "{dump:?}");
        assert!(dump.to_json().contains("macro.flight.span"));
    }
}
