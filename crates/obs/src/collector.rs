//! The global collector: per-thread recording slots, explicit session
//! membership, RAII span guards, and exclusive tracing sessions.
//!
//! Design constraints (see DESIGN.md §9):
//!
//! * **Free when off.** While no session is open and the flight
//!   recorder is off, [`Collector::is_enabled`] and
//!   [`Collector::flight_enabled`] are one relaxed atomic load each;
//!   the `span!`/`event!` macros check them *before* building any
//!   argument vectors or touching thread-local state, so disabled
//!   instrumentation costs a predictable branch.
//! * **Membership, not a switch.** A session records only the threads
//!   that are in it: the thread that opened it, and workers that
//!   entered its [`TraceContext`]. Every other thread — another
//!   tenant's request, a parallel test — records nothing into it, even
//!   under the same request trace id.
//! * **One recording path.** Every enter, exit and event goes through
//!   one function that writes the thread's flight ring and, for
//!   session members, its session buffer, under one lock with one
//!   timestamp. A session drain and a flight dump are two readers of
//!   the same slots, walked in the same merge order.
//! * **No contention when on.** Each thread records into its own slot
//!   (a `thread_local` registered once with the global registry); the
//!   only synchronization on the hot path is the slot's own
//!   uncontended mutex.
//! * **Deterministic merge.** Drains and dumps order thread slots by
//!   `(lane, registration index)`. Threads doing deterministic work
//!   under explicit lanes (e.g. Monte Carlo chunk workers calling
//!   [`Collector::set_lane`]) therefore produce the same [`Trace`]
//!   regardless of OS scheduling or thread count.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::flight::{self, FlightDump, FlightKind, FlightRecord, FlightRing, FlightThread};
use crate::metrics::{Counter, Metrics};
use crate::trace::{Arg, ThreadTrace, Trace, TraceItem};

/// The open session's id (0 = none). Relaxed is sufficient: opening
/// and closing only need to become visible eventually, and a drain
/// locks every slot, which orders buffered items with it.
static OPEN_SESSION: AtomicU64 = AtomicU64::new(0);

/// Serializes tracing sessions (see [`Collector::session`]) and holds
/// the last session id handed out.
static SESSION: Mutex<u64> = Mutex::new(0);

/// Epoch for the monotonic timestamp domain, fixed at first use so all
/// `mono_ns` values share one origin.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// All thread slots ever registered, in registration order. Slots are
/// kept alive by the `Arc` even after their thread exits so a drain
/// never loses items recorded by short-lived worker threads.
static REGISTRY: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());

/// Lane value meaning "never explicitly assigned": such threads merge
/// after all explicitly-laned threads, in registration order.
const UNASSIGNED_LANE: u64 = u64::MAX;

const NO_SIM: i64 = i64::MIN;

/// One thread's recording state.
struct ThreadSlot {
    /// Deterministic merge key ([`Collector::set_lane`]).
    lane: AtomicU64,
    /// Simulated clock last published on this thread (milli-days;
    /// `i64::MIN` = none).
    sim_md: AtomicI64,
    /// Request trace id active on this thread (0 = none). Stamped into
    /// flight records; set via [`Collector::trace_scope`].
    trace_id: AtomicU64,
    /// The session this thread records into (0 = none). Kept apart
    /// from `trace_id`: a client chooses its own `x-herc-trace`, so an
    /// id match proves nothing about membership.
    session: AtomicU64,
    /// The session buffer and the flight ring. Uncontended in steady
    /// state — only the owning thread, drains and dumps lock it.
    buffers: Mutex<Buffers>,
}

#[derive(Default)]
struct Buffers {
    items: Vec<TraceItem>,
    flight: FlightRing,
}

impl ThreadSlot {
    fn in_open_session(&self) -> bool {
        let open = OPEN_SESSION.load(Ordering::Relaxed);
        open != 0 && self.session.load(Ordering::Relaxed) == open
    }
}

thread_local! {
    static SLOT: Arc<ThreadSlot> = register_slot();
}

fn register_slot() -> Arc<ThreadSlot> {
    let slot = Arc::new(ThreadSlot {
        lane: AtomicU64::new(UNASSIGNED_LANE),
        sim_md: AtomicI64::new(NO_SIM),
        trace_id: AtomicU64::new(0),
        session: AtomicU64::new(0),
        buffers: Mutex::new(Buffers::default()),
    });
    lock(&REGISTRY).push(Arc::clone(&slot));
    slot
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn with_slot<R>(f: impl FnOnce(&ThreadSlot) -> R) -> R {
    SLOT.with(|s| f(s))
}

/// The one recording path. Writes a flight record when `flight` is set
/// and the recorder is on, and a session item when `args` is given and
/// this thread is in the open session — both under the slot's lock,
/// with one timestamp. Returns whether the session item was written.
///
/// With neither to write it returns before touching the clock or the
/// thread-local slot; after warmup the flight-only path allocates
/// nothing.
fn record(kind: FlightKind, name: &'static str, flight: bool, args: Option<Vec<Arg>>) -> bool {
    let cap = if flight { flight::cap() } else { 0 };
    if cap == 0 && args.is_none() {
        return false;
    }
    let mono_ns = now_ns();
    with_slot(|slot| {
        let mut buffers = lock(&slot.buffers);
        if cap > 0 {
            let trace_id = slot.trace_id.load(Ordering::Relaxed);
            buffers.flight.record(
                cap,
                FlightRecord {
                    kind,
                    name,
                    mono_ns,
                    trace_id,
                },
            );
        }
        let Some(args) = args.filter(|_| slot.in_open_session()) else {
            return false;
        };
        let md = slot.sim_md.load(Ordering::Relaxed);
        let sim_md = (md != NO_SIM).then_some(md);
        buffers.items.push(match kind {
            FlightKind::Enter => TraceItem::Enter {
                name,
                mono_ns,
                sim_md,
                args,
            },
            FlightKind::Exit => TraceItem::Exit {
                mono_ns,
                sim_md,
                args,
            },
            FlightKind::Event => TraceItem::Event {
                name,
                mono_ns,
                sim_md,
                args,
            },
        });
        true
    })
}

/// Applies `f` to every registered slot's buffers and returns the
/// `Some` results with their lanes, in merge order: by lane, then by
/// registration (the sort is stable over the registry's order).
fn merge_walk<T>(mut f: impl FnMut(&mut Buffers) -> Option<T>) -> Vec<(u64, T)> {
    let mut out: Vec<(u64, T)> = lock(&REGISTRY)
        .iter()
        .filter_map(|slot| {
            let value = f(&mut lock(&slot.buffers))?;
            Some((slot.lane.load(Ordering::Relaxed), value))
        })
        .collect();
    out.sort_by_key(|(lane, _)| *lane);
    out
}

/// Removes every buffered session item, merged by lane.
fn drain_items() -> Trace {
    let threads = merge_walk(|b| {
        let items = std::mem::take(&mut b.items);
        (!items.is_empty()).then_some(items)
    });
    Trace {
        threads: threads
            .into_iter()
            .map(|(lane, items)| ThreadTrace { lane, items })
            .collect(),
    }
}

/// Items discarded at session start because a predecessor never
/// drained (see `Collector::session`).
fn discarded_counter() -> &'static Counter {
    static DISCARDED: OnceLock<Counter> = OnceLock::new();
    DISCARDED.get_or_init(|| Metrics::counter("obs.session.discarded"))
}

/// The process-wide trace collector. All methods are associated
/// functions — there is exactly one collector per process.
pub struct Collector;

impl Collector {
    /// Whether this thread is recording into the open session. One
    /// relaxed atomic load while no session is open anywhere; the
    /// macros call this before doing any other work.
    #[inline]
    pub fn is_enabled() -> bool {
        OPEN_SESSION.load(Ordering::Relaxed) != 0 && with_slot(ThreadSlot::in_open_session)
    }

    /// Begins an **exclusive** tracing session with the calling thread
    /// as its first member, and returns a guard whose
    /// [`finish`](Session::finish) closes it and drains the trace.
    /// Other threads join only by entering this thread's
    /// [`context`](Collector::context). Sessions serialize on a
    /// process-wide lock; any items left over from a predecessor that
    /// never drained are discarded at session start.
    pub fn session() -> Session {
        let mut id = lock(&SESSION);
        // Discard leftovers from sessions that never drained — counted
        // into `obs.session.discarded` so leakage is visible, not
        // silent.
        let discarded: usize = drain_items().threads.iter().map(|t| t.items.len()).sum();
        if discarded > 0 {
            discarded_counter().add(discarded as u64);
        }
        *id += 1;
        // The thread opening the session is the orchestrator: lane 0
        // by convention (workers take 1+; see `set_lane`).
        Self::set_lane(0);
        let scope = TraceContext {
            session: *id,
            ..Self::context()
        }
        .enter();
        OPEN_SESSION.store(*id, Ordering::Relaxed);
        Session {
            _scope: scope,
            _id: id,
        }
    }

    /// Assigns this thread's **lane** — its deterministic merge key.
    /// Worker pools should set a lane derived from the work partition
    /// (e.g. the Monte Carlo chunk index), not the OS thread, so the
    /// merged trace is invariant to scheduling and thread count.
    pub fn set_lane(lane: u64) {
        with_slot(|slot| slot.lane.store(lane, Ordering::Relaxed));
    }

    /// Publishes the simulated clock (milli-days) for this thread.
    /// Subsequent items carry it as their `sim_md` timestamp.
    pub fn set_sim_md(md: i64) {
        with_slot(|slot| slot.sim_md.store(md, Ordering::Relaxed));
    }

    /// Records a point event: into the session if this thread is in
    /// it, and into the flight ring if the recorder is on. Prefer the
    /// [`event!`](crate::event) macro, which skips argument
    /// construction outside a session.
    pub fn event(name: &'static str, args: Vec<Arg>) {
        record(FlightKind::Event, name, true, Some(args));
    }

    // --- flight recorder -------------------------------------------

    /// Whether the flight recorder is on. Like
    /// [`is_enabled`](Collector::is_enabled) when no session is open:
    /// one relaxed load.
    #[inline]
    pub fn flight_enabled() -> bool {
        flight::cap() > 0
    }

    /// Turns the flight recorder on with `cap` records per thread
    /// (clamped to ≥ 16). Unlike sessions this is not exclusive: it
    /// simply starts retaining the most recent spans/events on every
    /// thread until [`disable_flight`](Collector::disable_flight).
    pub fn enable_flight(cap: usize) {
        flight::set_cap(cap.max(16));
    }

    /// Turns the recorder off. Rings keep their contents (a dump after
    /// disable still shows the final window) until re-enable re-arms
    /// them.
    pub fn disable_flight() {
        flight::set_cap(0);
    }

    /// Empties every thread's flight ring and drop counter. For tests
    /// and benchmarks that need a clean window.
    pub fn flight_clear() {
        merge_walk(|b| {
            b.flight.clear();
            None::<()>
        });
    }

    /// Merges every thread's flight ring into one snapshot, in the
    /// same `(lane, registration)` order as a session drain. Rings are
    /// *copied*, not drained — recording continues, and a second dump
    /// sees the same (plus newer) records.
    pub fn flight_dump() -> FlightDump {
        let threads = merge_walk(|b| {
            let (records, dropped) = b.flight.drain_ordered();
            (!records.is_empty() || dropped > 0).then_some((records, dropped))
        });
        FlightDump {
            threads: threads
                .into_iter()
                .map(|(lane, (records, dropped))| FlightThread {
                    lane,
                    dropped,
                    records,
                })
                .collect(),
        }
    }

    // --- request trace ids and membership --------------------------

    /// This thread's trace membership — its request trace id and the
    /// session it records into — for handing to worker threads (see
    /// [`TraceContext::enter`]).
    pub fn context() -> TraceContext {
        with_slot(|slot| TraceContext {
            trace_id: slot.trace_id.load(Ordering::Relaxed),
            session: slot.session.load(Ordering::Relaxed),
        })
    }

    /// Installs `trace_id` as this thread's current request id for the
    /// returned guard's lifetime, keeping its session membership;
    /// flight records written meanwhile are stamped with it. Nested
    /// scopes restore the outer id on drop. Id 0 means "no trace" and
    /// is never stamped.
    pub fn trace_scope(trace_id: u64) -> TraceScope {
        TraceContext {
            trace_id,
            ..Self::context()
        }
        .enter()
    }

    /// This thread's current request trace id (0 = none).
    pub fn current_trace_id() -> u64 {
        Self::context().trace_id
    }
}

/// Records a flight-only event: no argument vector is ever built. Used
/// by `event!` outside a session.
pub fn flight_event(name: &'static str) {
    record(FlightKind::Event, name, true, None);
}

/// A thread's trace membership: its request trace id and the session
/// it records into. Captured with [`Collector::context`] and installed
/// on a worker with [`enter`](TraceContext::enter), so work fanned out
/// to other threads stays in the caller's trace — and only there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    trace_id: u64,
    session: u64,
}

impl TraceContext {
    /// Installs this context on the current thread until the returned
    /// guard drops, which restores the thread's previous context.
    pub fn enter(self) -> TraceScope {
        TraceScope {
            previous: self.install(),
        }
    }

    /// Makes this the thread's context, returning the one it replaces.
    fn install(self) -> TraceContext {
        with_slot(|slot| TraceContext {
            trace_id: slot.trace_id.swap(self.trace_id, Ordering::Relaxed),
            session: slot.session.swap(self.session, Ordering::Relaxed),
        })
    }
}

/// RAII guard restoring the thread's previous [`TraceContext`] (see
/// [`TraceContext::enter`] and [`Collector::trace_scope`]).
#[must_use = "the trace context is restored when this guard drops"]
pub struct TraceScope {
    previous: TraceContext,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        self.previous.install();
    }
}

/// An exclusive tracing session (see [`Collector::session`]).
///
/// Dropping the session without calling [`finish`](Session::finish)
/// closes it but leaves buffered items for the next session to discard
/// — fine for panicking tests.
pub struct Session {
    _scope: TraceScope,
    _id: MutexGuard<'static, u64>,
}

impl Session {
    /// Ends the session and returns the merged trace. The drain happens
    /// while the session lock is still held, so a successor session can
    /// never observe this session's items.
    pub fn finish(self) -> Trace {
        OPEN_SESSION.store(0, Ordering::Relaxed);
        drain_items()
    }

    /// Drains the trace **without** ending the session — used by
    /// overhead benches that measure export cost in a loop. Recording
    /// continues.
    pub fn drain_partial(&self) -> Trace {
        drain_items()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        OPEN_SESSION.store(0, Ordering::Relaxed);
    }
}

/// RAII guard for one span: records the enter on creation and the
/// matching exit on drop, into the session when this thread is in it
/// and into the flight ring when the recorder is on. Create via the
/// [`span!`](crate::span) macro.
#[must_use = "a span guard measures the scope it lives in; dropping it immediately closes the span"]
pub struct SpanGuard {
    /// Whether the enter went to the flight ring, so the exit must too.
    flight: bool,
    /// The span name, kept for the flight exit record.
    name: &'static str,
    /// `Some` when the enter went to the session: annotations recorded
    /// during the span, attached to the exit.
    exit_args: Option<Vec<Arg>>,
}

impl SpanGuard {
    /// Opens a span now, with `args` on its session enter. Outside a
    /// session the arguments are dropped unrecorded; the
    /// [`span!`](crate::span) macro avoids building them there.
    pub fn enter(name: &'static str, args: Vec<Arg>) -> Self {
        Self::open(name, Some(args))
    }

    /// Opens a span with no session item and no argument vector — the
    /// path the `span!` macro takes outside a session. Records into
    /// the flight ring if the recorder is on, and nothing otherwise.
    pub fn enter_flight(name: &'static str) -> Self {
        Self::open(name, None)
    }

    fn open(name: &'static str, args: Option<Vec<Arg>>) -> Self {
        let flight = Collector::flight_enabled();
        let in_session = record(FlightKind::Enter, name, flight, args);
        SpanGuard {
            flight,
            name,
            exit_args: in_session.then(Vec::new),
        }
    }

    /// Whether this guard records into a session.
    pub fn is_active(&self) -> bool {
        self.exit_args.is_some()
    }

    /// Attaches an annotation to the span's exit — for results only
    /// known at the end (e.g. a dirty-set size computed inside the
    /// span). No-op outside a session.
    pub fn record(&mut self, key: &'static str, value: impl Into<crate::trace::ArgValue>) {
        if let Some(args) = &mut self.exit_args {
            args.push(Arg::new(key, value));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        record(
            FlightKind::Exit,
            self.name,
            self.flight,
            self.exit_args.take(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_records_spans_events_and_sim_time() {
        let session = Collector::session();
        Collector::set_lane(0);
        Collector::set_sim_md(1500);
        {
            let mut g = SpanGuard::enter("outer", vec![Arg::new("k", 7u64)]);
            Collector::event("ping", Vec::new());
            g.record("result", true);
        }
        let trace = session.finish();
        trace.validate().unwrap();
        assert_eq!(trace.span_count(), 1);
        assert_eq!(trace.event_count(), 1);
        let s = trace.first_span("outer").unwrap();
        assert_eq!(s.sim_start_md, Some(1500));
        assert_eq!(s.arg("k"), Some(&crate::trace::ArgValue::U64(7)));
        assert_eq!(s.arg("result"), Some(&crate::trace::ArgValue::Bool(true)));
        assert!(trace.has_event("ping"));
        // Recording is off again and the buffers are empty.
        assert!(!Collector::is_enabled());
        let empty = Collector::session().finish();
        assert!(empty.is_empty());
    }

    #[test]
    fn disabled_records_nothing() {
        // No session: is_enabled is false, guards are inert.
        assert!(!Collector::is_enabled());
        Collector::event("dropped", Vec::new());
        let g = SpanGuard::enter("dropped", Vec::new());
        assert!(!g.is_active());
        drop(g);
        let trace = Collector::session().finish();
        assert!(trace.is_empty(), "leftovers: {trace:?}");
    }

    #[test]
    fn a_session_records_only_its_members() {
        const SESSION_TRACE: u64 = 0x5e55_1011;
        let session = Collector::session();
        let _scope = Collector::trace_scope(SESSION_TRACE);
        let root = SpanGuard::enter("member.root", Vec::new());
        let context = Collector::context();
        std::thread::scope(|scope| {
            // Not a member: records nothing into the session, even under
            // the session's own trace id.
            scope.spawn(|| {
                for id in [0, SESSION_TRACE, 0xf0f0] {
                    let _t = Collector::trace_scope(id);
                    assert!(!Collector::is_enabled());
                    let _g = crate::span!("foreign.span", id = id);
                    crate::event!("foreign.event", id = id);
                    let _d = SpanGuard::enter("foreign.direct", Vec::new());
                    Collector::event("foreign.direct_event", Vec::new());
                }
            });
            // A worker that entered the context is recorded.
            scope.spawn(move || {
                let _context = context.enter();
                Collector::set_lane(1);
                assert!(Collector::is_enabled());
                let _g = crate::span!("member.worker");
                crate::event!("member.event");
            });
        });
        drop(root);
        let trace = session.finish();
        trace.validate().unwrap();
        let names: Vec<&str> = trace
            .threads
            .iter()
            .flat_map(|t| &t.items)
            .filter_map(|item| match item {
                TraceItem::Enter { name, .. } | TraceItem::Event { name, .. } => Some(*name),
                TraceItem::Exit { .. } => None,
            })
            .collect();
        assert_eq!(
            names,
            vec!["member.root", "member.worker", "member.event"],
            "foreign items leaked into the session"
        );
    }

    #[test]
    fn trace_scope_nests_and_restores() {
        std::thread::spawn(|| {
            assert_eq!(Collector::current_trace_id(), 0);
            let outer = Collector::trace_scope(7);
            assert_eq!(Collector::current_trace_id(), 7);
            {
                let inner = Collector::trace_scope(9);
                assert_eq!(Collector::current_trace_id(), 9);
                drop(inner);
            }
            assert_eq!(Collector::current_trace_id(), 7);
            drop(outer);
            assert_eq!(Collector::current_trace_id(), 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn flight_recorder_captures_without_a_session() {
        Collector::enable_flight(64);
        {
            let _scope = Collector::trace_scope(0xf11f);
            let _g = SpanGuard::enter_flight("flight.test.span");
            flight_event("flight.test.event");
        }
        // No session needed: the flight ring holds the stamped window.
        let dump = Collector::flight_dump().filter_trace(0xf11f);
        assert_eq!(dump.total_records(), 3, "{dump:?}");
        let kinds: Vec<FlightKind> = dump.threads[0].records.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![FlightKind::Enter, FlightKind::Event, FlightKind::Exit]
        );
        assert_eq!(dump.threads[0].records[0].name, "flight.test.span");
        // Dumps copy, not drain: the window is still there.
        assert_eq!(
            Collector::flight_dump()
                .filter_trace(0xf11f)
                .total_records(),
            3
        );
    }

    #[test]
    fn session_discarded_leftovers_are_counted() {
        let counter = Metrics::counter("obs.session.discarded");
        let before = counter.get();
        {
            let session = Collector::session();
            Collector::event("leak.one", Vec::new());
            Collector::event("leak.two", Vec::new());
            drop(session); // never drained: items stay buffered
        }
        let session = Collector::session(); // discards and counts them
        drop(session.finish());
        assert!(
            counter.get() >= before + 2,
            "discards went uncounted: {} -> {}",
            before,
            counter.get()
        );
    }

    #[test]
    fn threads_merge_by_lane_not_schedule() {
        let session = Collector::session();
        Collector::set_lane(100); // main thread merges last
        let context = Collector::context();
        std::thread::scope(|scope| {
            for lane in (0..4u64).rev() {
                scope.spawn(move || {
                    let _context = context.enter();
                    Collector::set_lane(lane);
                    let _g = SpanGuard::enter("work", vec![Arg::new("lane", lane)]);
                    Collector::event("tick", Vec::new());
                });
            }
        });
        let trace = session.finish();
        trace.validate().unwrap();
        let lanes: Vec<u64> = trace.threads.iter().map(|t| t.lane).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3]);
        assert_eq!(trace.span_count(), 4);
    }
}
