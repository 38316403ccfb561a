//! Multi-tenant detection sessions over a shared solver worker pool.
//!
//! The building blocks of the `rvserved` daemon: a [`SessionManager`] owns
//! one pool of solver workers for the whole process, and each concurrent
//! trace stream gets a [`Session`] — its own incremental parser, window
//! cursor, confirmed-signature state and private [`Metrics`] registry. The
//! failure domain is the session, never the process:
//!
//! * **Isolation** — a window solve that panics degrades to a
//!   [`FailedWindow`](crate::report::FailedWindow) record in *its* session's
//!   report (the PR 2 path); a session torn down mid-stream (disconnect,
//!   idle timeout, client kill) retires its queued work and leaves a
//!   deterministic [`SessionError`] record, without touching neighbors.
//! * **Fairness** — the scheduler round-robins over sessions with pending
//!   windows, so one firehose tenant cannot starve the others.
//! * **Backpressure** — a session may keep at most
//!   [`SessionConfig::max_resident_windows`] windows in flight; past that,
//!   *its own* ingest blocks until a result merges. Slow solving stalls
//!   only the stream that caused it.
//! * **Degradation** — when the pool's total backlog exceeds the shed
//!   threshold, newly submitted windows are shed: solved with an
//!   already-expired window deadline, so every COP degrades to
//!   `Undecided(Timeout)` through exactly the `--timeout-ms` verdict path,
//!   and the session's report says so instead of the queue growing
//!   unboundedly.
//!
//! # Determinism
//!
//! A session's merged report is byte-identical (summary and count-type
//! metrics) to running the same trace through the standalone drivers, at
//! any worker count and any co-tenant mix: windows are solved as pure
//! functions of their view via [`RaceDetector::solve_window_result`] and
//! merged in window order via [`RaceDetector::merge_window_result`], with
//! a per-session published-signature set — the same solve-then-merge
//! protocol as `detect`/`detect_pipelined`/`detect_stream`. (Shedding and
//! real wall-clock window budgets are by nature load-dependent; the
//! contract holds whenever they do not fire.)
//!
//! # Examples
//!
//! ```
//! use rvcore::{SessionConfig, SessionManager};
//! use rvtrace::{to_ndjson, ThreadId, TraceBuilder};
//!
//! let mut b = TraceBuilder::new();
//! let x = b.var("x");
//! let t2 = b.fork(ThreadId::MAIN);
//! b.write(ThreadId::MAIN, x, 1);
//! b.read(t2, x, 1);
//! let trace = b.finish();
//!
//! let manager = SessionManager::new(2);
//! let mut session = manager.open_session(SessionConfig::default());
//! session.feed(to_ndjson(&trace).as_bytes()).unwrap();
//! let outcome = session.finish().unwrap();
//! assert_eq!(outcome.report.n_races(), 1);
//! ```

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rvtrace::{
    salvage_trace, validate_wait_links, BoundaryTracker, IngestStats, JsonError, RaceSignature,
    SalvageReport, StraddlePlan, StreamParser, Trace, WindowBoundary,
};

use crate::config::{DetectorConfig, WindowMode};
use crate::detector::{panic_reason, PublishedSet, RaceDetector, WindowResult};
use crate::metrics::Metrics;
use crate::report::DetectionReport;

/// Per-tenant configuration: the detector settings this stream runs under
/// (window size, budgets, slicing/tier toggles, fault plan — exactly the
/// standalone CLI's knobs) plus the session-level budgets.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The detector configuration for this stream. `parallelism` is
    /// ignored — the pool is the manager's.
    pub detector: DetectorConfig,
    /// Salvage a damaged trace instead of failing the parse. Lenient
    /// sessions buffer the whole stream, salvage at end-of-input, and then
    /// dispatch every window through the shared pool (mirroring the CLI's
    /// `--lenient` semantics, which need the full trace before repair).
    pub lenient: bool,
    /// Backpressure: the most windows this session may have submitted but
    /// not yet merged. Ingest blocks (stalling only this stream) once the
    /// cap is reached.
    pub max_resident_windows: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            detector: DetectorConfig::default(),
            lenient: false,
            max_resident_windows: 32,
        }
    }
}

/// The deterministic record of a torn-down session: which session died and
/// why (a panic message, an idle timeout, a mid-stream disconnect). The
/// record depends only on the failure itself, never on co-tenant timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionError {
    /// The session's id within its manager.
    pub session: u64,
    /// Human-readable teardown reason.
    pub reason: String,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session {} torn down: {}", self.session, self.reason)
    }
}

impl std::error::Error for SessionError {}

/// Everything a completed session hands back: the reconstructed trace, the
/// merged report, ingestion counters, the salvage report (lenient mode
/// only) and the session's private metrics registry.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The complete trace, as reconstructed from the stream.
    pub trace: Trace,
    /// The merged detection report — byte-identical (summary and
    /// count-type metrics) to the standalone drivers on the same trace.
    pub report: DetectionReport,
    /// Bytes, events and parse time of the ingestion.
    pub ingest: IngestStats,
    /// The salvage diagnostics, for lenient sessions.
    pub salvage: Option<SalvageReport>,
    /// Windows shed to `Undecided(Timeout)` under pool saturation.
    pub shed_windows: u64,
    /// The session's private metrics registry (`session.*` family).
    pub metrics: Metrics,
}

/// One queued window solve. Carries everything the worker needs, so
/// workers never reach into session state: a retired session simply stops
/// receiving results (the sender errors are ignored).
struct SessionJob {
    session: u64,
    index: usize,
    range: Range<usize>,
    boundary: WindowBoundary,
    /// The window's straddle plan (cone mode only) — computed by the
    /// session's sequential tracker, so it is identical to the standalone
    /// drivers' plans regardless of pool size or co-tenant mix.
    plan: Option<StraddlePlan>,
    trace: Arc<Trace>,
    detector: Arc<RaceDetector>,
    shed_detector: Arc<RaceDetector>,
    published: Arc<PublishedSet>,
    out: mpsc::Sender<WindowResult>,
    shed: bool,
}

/// The scheduler: per-session FIFO queues plus a round-robin rotation of
/// sessions that currently have work. Invariant: a session id is in `rr`
/// exactly when its queue is non-empty.
#[derive(Default)]
struct Sched {
    queues: HashMap<u64, VecDeque<SessionJob>>,
    rr: VecDeque<u64>,
    total_pending: usize,
    shutdown: bool,
}

impl Sched {
    fn push_job(&mut self, job: SessionJob) {
        let q = self.queues.entry(job.session).or_default();
        if q.is_empty() {
            self.rr.push_back(job.session);
        }
        q.push_back(job);
        self.total_pending += 1;
    }

    /// Pops the next job fairly: the head-of-rotation session gives up one
    /// window and, if it still has more, goes to the back of the line.
    fn pop_job(&mut self) -> Option<SessionJob> {
        let id = self.rr.pop_front()?;
        let q = self.queues.get_mut(&id)?;
        let job = q.pop_front()?;
        if q.is_empty() {
            self.queues.remove(&id);
        } else {
            self.rr.push_back(id);
        }
        self.total_pending -= 1;
        Some(job)
    }

    /// Drops every queued job of a torn-down session.
    fn retire(&mut self, id: u64) {
        if let Some(q) = self.queues.remove(&id) {
            self.total_pending -= q.len();
        }
        self.rr.retain(|&x| x != id);
    }
}

/// State shared between the manager handle, its sessions and the workers.
struct PoolShared {
    sched: Mutex<Sched>,
    ready: Condvar,
    shed_threshold: usize,
    next_id: AtomicU64,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Sched> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One shared solver worker pool plus the session factory. Dropping the
/// manager shuts the pool down (any still-open session's in-flight windows
/// then merge as failed — don't do that outside of teardown tests).
pub struct SessionManager {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("workers", &self.workers.len())
            .field("shed_threshold", &self.shared.shed_threshold)
            .finish()
    }
}

impl SessionManager {
    /// A pool of `workers` solver threads with a generous shed threshold
    /// (`workers * 64` pending windows) that healthy workloads never hit.
    pub fn new(workers: usize) -> Self {
        SessionManager::with_shed_threshold(workers, workers.max(1) * 64)
    }

    /// A pool with an explicit saturation threshold: once the pool-wide
    /// backlog reaches `shed_threshold` queued windows, newly submitted
    /// windows are shed to `Undecided(Timeout)` instead of queueing.
    pub fn with_shed_threshold(workers: usize, shed_threshold: usize) -> Self {
        let shared = Arc::new(PoolShared {
            sched: Mutex::new(Sched::default()),
            ready: Condvar::new(),
            shed_threshold,
            next_id: AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        SessionManager { shared, workers }
    }

    /// The number of solver workers in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Opens a session: a fresh parser, window cursor, published set and
    /// metrics registry, multiplexed onto the shared pool.
    pub fn open_session(&self, config: SessionConfig) -> Session {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut detector_cfg = config.detector.clone();
        // The pool is the parallelism; a session never spawns workers.
        detector_cfg.parallelism = 1;
        let shed_cfg = DetectorConfig {
            // An already-expired window deadline: every COP takes the
            // `--timeout-ms` path without a single solver call.
            window_timeout: Some(Duration::ZERO),
            ..detector_cfg.clone()
        };
        let (out_tx, out_rx) = mpsc::channel();
        let mut metrics = Metrics::new();
        // Session bookkeeping lives in the *gauges* section: a daemon
        // response merges this registry into the CLI-identical metrics
        // document, and the count-type sections (counters, histograms)
        // must stay byte-identical to a solo run's.
        metrics.gauge_max("session.opened", 1);
        Session {
            id,
            shared: self.shared.clone(),
            detector: Arc::new(RaceDetector::with_config(detector_cfg)),
            shed_detector: Arc::new(RaceDetector::with_config(shed_cfg)),
            config,
            parser: StreamParser::new(),
            boundary: None,
            tracker: None,
            next_start: 0,
            next_index: 0,
            submitted: 0,
            received: 0,
            merge_cursor: 0,
            peak_resident: 0,
            shed_windows: 0,
            published: Arc::new(PublishedSet::new()),
            out_tx,
            out_rx,
            report: DetectionReport::default(),
            confirmed: HashSet::new(),
            pending: BTreeMap::new(),
            metrics,
            start: Instant::now(),
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        {
            let mut s = self.shared.lock();
            s.shutdown = true;
            // Queued work of sessions that outlive the manager is dropped;
            // their receivers see the results never arrive and fail the
            // windows at drain time.
            s.queues.clear();
            s.rr.clear();
            s.total_pending = 0;
        }
        self.ready_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl SessionManager {
    fn ready_all(&self) {
        self.shared.ready.notify_all();
    }
}

/// The pool worker: pop fairly, solve under panic isolation, post the
/// result to the owning session. A panic anywhere — view construction
/// included — becomes that window's `Failed` record; the worker and its
/// neighbors keep running.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut s = shared.lock();
            loop {
                if let Some(job) = s.pop_job() {
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = shared.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let SessionJob {
            index,
            range,
            boundary,
            plan,
            trace,
            detector,
            shed_detector,
            published,
            out,
            shed,
            ..
        } = job;
        let fallback_range = range.clone();
        let solve = std::panic::AssertUnwindSafe(|| {
            let det = if shed { &shed_detector } else { &detector };
            let view = boundary.view(&trace, range);
            det.solve_window_result(index, &view, plan.as_ref(), Some(&published))
        });
        let result = std::panic::catch_unwind(solve).unwrap_or_else(|payload| {
            WindowResult::failed(index, fallback_range, panic_reason(payload.as_ref()))
        });
        // A retired session dropped its receiver; nobody wants the result.
        let _ = out.send(result);
    }
}

/// One tenant's detection stream: feed it chunks as they arrive, then
/// [`finish`](Session::finish) for the merged outcome — or
/// [`abort`](Session::abort) to tear it down. Dropping a session retires
/// its queued work from the scheduler either way.
pub struct Session {
    id: u64,
    shared: Arc<PoolShared>,
    detector: Arc<RaceDetector>,
    shed_detector: Arc<RaceDetector>,
    config: SessionConfig,
    parser: StreamParser,
    boundary: Option<WindowBoundary>,
    /// The straddle tracker (cone mode only), advanced in lockstep with
    /// `boundary` as windows are dispatched.
    tracker: Option<BoundaryTracker>,
    next_start: usize,
    next_index: usize,
    submitted: usize,
    received: usize,
    merge_cursor: usize,
    peak_resident: usize,
    shed_windows: u64,
    published: Arc<PublishedSet>,
    out_tx: mpsc::Sender<WindowResult>,
    out_rx: mpsc::Receiver<WindowResult>,
    report: DetectionReport,
    confirmed: HashSet<RaceSignature>,
    pending: BTreeMap<usize, WindowResult>,
    metrics: Metrics,
    start: Instant,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("id", &self.id)
            .field("submitted", &self.submitted)
            .field("merged", &self.merge_cursor)
            .finish()
    }
}

impl Session {
    /// The session's id within its manager (stable teardown identity).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Windows submitted but not yet merged.
    fn in_flight(&self) -> usize {
        self.submitted - self.received
    }

    /// Feeds the next chunk of the stream. Strict sessions dispatch every
    /// newly completed window to the pool before returning; lenient
    /// sessions buffer (salvage needs the whole trace). A parse error is
    /// fatal to the session — same message, offset and snippet as a
    /// whole-file read.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), JsonError> {
        self.parser.feed(chunk)?;
        if !self.config.lenient {
            self.dispatch_ready();
        }
        Ok(())
    }

    /// Dispatches every complete window the parser has accumulated,
    /// mirroring `detect_stream`: gated on the metadata (boundary state
    /// needs the initial values), solving against prefix snapshots.
    fn dispatch_ready(&mut self) {
        let size = self.detector.config().window_size.max(1);
        if !self.parser.metadata_complete() || self.parser.events().len() < self.next_start + size {
            return;
        }
        let snapshot = Arc::new(Trace::from_data(self.parser.data().clone()));
        let mut boundary = self.boundary.take().unwrap_or_else(|| {
            WindowBoundary::from_initial_values(&snapshot.data().initial_values)
        });
        if self.cone_mode() && self.tracker.is_none() {
            self.tracker = Some(BoundaryTracker::new(
                WindowBoundary::from_initial_values(&snapshot.data().initial_values),
                self.detector.config().spill_events(),
            ));
        }
        while self.next_start + size <= snapshot.len() {
            let range = self.next_start..self.next_start + size;
            let job_boundary = boundary.clone();
            let plan = self.tracker.as_ref().and_then(|t| {
                t.plan(snapshot.events(), range.clone(), |v| {
                    snapshot.is_volatile(v)
                })
            });
            if let Some(t) = self.tracker.as_mut() {
                t.advance(snapshot.events(), range.clone());
            }
            boundary.advance(snapshot.events(), range.clone());
            self.next_start += size;
            self.submit(range, job_boundary, plan, snapshot.clone());
        }
        self.boundary = Some(boundary);
    }

    /// True when cross-boundary prediction (`--window-mode cone`) is on
    /// for this session's detector.
    fn cone_mode(&self) -> bool {
        self.detector.config().window_mode == WindowMode::Cone
    }

    /// Submits one window to the pool, applying backpressure first: while
    /// this session is at its residency cap, block merging its own results
    /// (stalling only this stream's ingest).
    fn submit(
        &mut self,
        range: Range<usize>,
        boundary: WindowBoundary,
        plan: Option<StraddlePlan>,
        trace: Arc<Trace>,
    ) {
        while self.in_flight() >= self.config.max_resident_windows.max(1) {
            let result = self
                .out_rx
                .recv()
                .expect("solver pool shut down with windows in flight");
            self.absorb(result);
        }
        let shed = {
            let mut s = self.shared.lock();
            let shed = s.total_pending >= self.shared.shed_threshold;
            s.push_job(SessionJob {
                session: self.id,
                index: self.next_index,
                range,
                boundary,
                plan,
                trace,
                detector: self.detector.clone(),
                shed_detector: self.shed_detector.clone(),
                published: self.published.clone(),
                out: self.out_tx.clone(),
                shed,
            });
            self.shared.ready.notify_one();
            shed
        };
        if shed {
            self.shed_windows += 1;
        }
        self.next_index += 1;
        self.submitted += 1;
        self.peak_resident = self.peak_resident.max(self.in_flight());
    }

    /// Buffers one result and merges everything now contiguous, in window
    /// order — the replay that keeps reports deterministic.
    fn absorb(&mut self, result: WindowResult) {
        self.received += 1;
        self.pending.insert(result.window_index(), result);
        while let Some(result) = self.pending.remove(&self.merge_cursor) {
            self.detector.merge_window_result(
                result,
                &mut self.report,
                &mut self.confirmed,
                Some(&self.published),
            );
            self.merge_cursor += 1;
        }
        if self.report.stats.time_to_first_race.is_none() && !self.report.races.is_empty() {
            self.report.stats.time_to_first_race = Some(self.start.elapsed());
        }
    }

    /// Blocks until every submitted window has merged.
    fn drain(&mut self) {
        while self.received < self.submitted {
            let result = self
                .out_rx
                .recv()
                .expect("solver pool shut down with windows in flight");
            self.absorb(result);
        }
        debug_assert!(self.pending.is_empty(), "every window outcome merged");
    }

    /// Ends the stream: completes the parse, dispatches the tail window,
    /// waits for every in-flight window and returns the merged outcome.
    /// Strict sessions validate wait links exactly like the whole-file
    /// reader; lenient sessions salvage the damaged trace first and then
    /// solve the repaired one through the same pool.
    pub fn finish(mut self) -> Result<SessionOutcome, JsonError> {
        self.parser.finish()?;
        let ingest = self.parser.stats();
        let parser = std::mem::take(&mut self.parser);
        let (trace, salvage) = if self.config.lenient {
            let (trace, report) = salvage_trace(parser.into_data());
            (Arc::new(trace), Some(report))
        } else {
            validate_wait_links(parser.data())?;
            (Arc::new(Trace::from_data(parser.into_data())), None)
        };
        let size = self.detector.config().window_size.max(1);
        let mut boundary = self
            .boundary
            .take()
            .unwrap_or_else(|| WindowBoundary::from_initial_values(&trace.data().initial_values));
        if self.cone_mode() && self.tracker.is_none() {
            self.tracker = Some(BoundaryTracker::new(
                WindowBoundary::from_initial_values(&trace.data().initial_values),
                self.detector.config().spill_events(),
            ));
        }
        while self.next_start < trace.len() {
            let end = (self.next_start + size).min(trace.len());
            let range = self.next_start..end;
            let job_boundary = boundary.clone();
            let plan = self
                .tracker
                .as_ref()
                .and_then(|t| t.plan(trace.events(), range.clone(), |v| trace.is_volatile(v)));
            if let Some(t) = self.tracker.as_mut() {
                t.advance(trace.events(), range.clone());
            }
            boundary.advance(trace.events(), range.clone());
            self.next_start = end;
            self.submit(range, job_boundary, plan, trace.clone());
        }
        self.drain();
        let mut report = std::mem::take(&mut self.report);
        report.stats.peak_window_residency = self.peak_resident;
        report.stats.wall_time = self.start.elapsed();
        self.metrics
            .gauge_max("session.windows", self.submitted as u64);
        self.metrics
            .gauge_max("session.shed_windows", self.shed_windows);
        // Spill residency: the deepest any window's straddle pass reached
        // back, in events. Counted against the session, not the pool —
        // extended views are rebuilt per solve, never kept resident.
        if report.stats.spill_peak_events > 0 {
            self.metrics.gauge_max(
                "session.spill_peak_events",
                report.stats.spill_peak_events as u64,
            );
        }
        self.metrics
            .gauge_max("session.peak_resident_windows", self.peak_resident as u64);
        let metrics = std::mem::take(&mut self.metrics);
        // Workers hold no snapshot past their solve; after the drain this
        // session's Arcs are the last ones standing.
        let trace = Arc::try_unwrap(trace).unwrap_or_else(|a| (*a).clone());
        Ok(SessionOutcome {
            trace,
            report,
            ingest,
            salvage,
            shed_windows: self.shed_windows,
            metrics,
        })
    }

    /// Tears the session down mid-stream (disconnect, idle timeout, client
    /// kill): retires its queued windows from the scheduler and returns
    /// the deterministic teardown record. In-flight results are dropped on
    /// the floor; neighbors never notice.
    pub fn abort(self, reason: impl Into<String>) -> SessionError {
        SessionError {
            session: self.id,
            reason: reason.into(),
        }
        // Drop retires the scheduler queue.
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.lock().retire(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{to_ndjson, ThreadId, TraceBuilder};

    /// A multi-window trace with exactly one racy COP near the head.
    fn racy_trace(iters: usize) -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t2 = b.fork(ThreadId::MAIN);
        b.write(ThreadId::MAIN, x, 1);
        b.read(t2, x, 1);
        for i in 0..iters {
            b.acquire(ThreadId::MAIN, l);
            b.write(ThreadId::MAIN, x, i as i64);
            b.release(ThreadId::MAIN, l);
            b.acquire(t2, l);
            b.read(t2, x, i as i64);
            b.release(t2, l);
        }
        b.finish()
    }

    fn config(window: usize) -> SessionConfig {
        SessionConfig {
            detector: DetectorConfig {
                window_size: window,
                ..DetectorConfig::default()
            },
            ..SessionConfig::default()
        }
    }

    #[test]
    fn session_report_matches_standalone_detect() {
        let trace = racy_trace(120);
        let bytes = to_ndjson(&trace);
        let manager = SessionManager::new(3);
        let mut session = manager.open_session(config(50));
        for chunk in bytes.as_bytes().chunks(97) {
            session.feed(chunk).unwrap();
        }
        let outcome = session.finish().unwrap();
        let mut cfg = DetectorConfig {
            window_size: 50,
            ..DetectorConfig::default()
        };
        cfg.parallelism = 1;
        let solo = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(
            outcome.report.deterministic_summary(),
            solo.deterministic_summary()
        );
        assert_eq!(outcome.trace.len(), trace.len());
    }

    #[test]
    fn sessions_are_isolated_from_neighbor_aborts() {
        let trace = racy_trace(60);
        let bytes = to_ndjson(&trace);
        let manager = SessionManager::new(2);
        let mut keep = manager.open_session(config(40));
        let mut kill = manager.open_session(config(40));
        let half = bytes.len() / 2;
        keep.feed(&bytes.as_bytes()[..half]).unwrap();
        kill.feed(&bytes.as_bytes()[..half]).unwrap();
        let err = kill.abort("client disconnected");
        assert_eq!(err.reason, "client disconnected");
        keep.feed(&bytes.as_bytes()[half..]).unwrap();
        let outcome = keep.finish().unwrap();
        let mut cfg = DetectorConfig {
            window_size: 40,
            ..DetectorConfig::default()
        };
        cfg.parallelism = 1;
        let solo = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(
            outcome.report.deterministic_summary(),
            solo.deterministic_summary()
        );
    }

    #[test]
    fn saturation_sheds_to_undecided_instead_of_queueing() {
        let trace = racy_trace(200);
        let bytes = to_ndjson(&trace);
        // Threshold 0: every submitted window is shed.
        let manager = SessionManager::with_shed_threshold(2, 0);
        let mut session = manager.open_session(config(50));
        session.feed(bytes.as_bytes()).unwrap();
        let outcome = session.finish().unwrap();
        assert!(outcome.shed_windows > 0, "every window shed");
        assert_eq!(outcome.report.n_races(), 0, "no solving under shed");
        assert!(outcome.report.is_degraded());
        assert_eq!(
            outcome.report.stats.undecided, outcome.report.stats.cops_solved,
            "every COP degraded to Undecided(Timeout)"
        );
    }

    #[test]
    fn round_robin_pops_alternate_between_sessions() {
        let mut sched = Sched::default();
        let (tx, _rx) = mpsc::channel();
        let trace = Arc::new(racy_trace(1));
        let boundary = WindowBoundary::from_initial_values(&trace.data().initial_values);
        let det = Arc::new(RaceDetector::new());
        let mut push = |session: u64, index: usize| {
            sched.push_job(SessionJob {
                session,
                index,
                range: 0..1,
                boundary: boundary.clone(),
                plan: None,
                trace: trace.clone(),
                detector: det.clone(),
                shed_detector: det.clone(),
                published: Arc::new(PublishedSet::new()),
                out: tx.clone(),
                shed: false,
            });
        };
        // Session 0 floods; session 1 trickles.
        for i in 0..3 {
            push(0, i);
        }
        push(1, 0);
        let order: Vec<(u64, usize)> = std::iter::from_fn(|| sched.pop_job())
            .map(|j| (j.session, j.index))
            .collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (0, 2)]);
        assert_eq!(sched.total_pending, 0);
    }

    #[test]
    fn parse_error_matches_whole_file_reader() {
        let manager = SessionManager::new(1);
        let mut session = manager.open_session(config(10));
        let bad = b"{\"events\": [nope";
        let session_err = session
            .feed(bad)
            .err()
            .or_else(|| session.finish().err())
            .expect("bad stream fails");
        let whole_err = rvtrace::read_trace(&bad[..]).unwrap_err();
        assert_eq!(session_err, whole_err);
    }
}
