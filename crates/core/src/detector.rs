//! The windowed detection driver (paper §4–5).
//!
//! For each fixed-size window: enumerate COPs, quick-check them, encode the
//! survivors, solve with a per-COP budget, extract and validate a witness on
//! SAT, and deduplicate by signature across the whole run.
//!
//! # Solve paths
//!
//! A window's COPs take one of two paths, chosen by
//! [`DetectorConfig::batch_windows`]: the *batched* window session (the
//! default — one shared encoding, one selector query per COP, learnt
//! clauses retained unless `incremental` is off) or *per-COP fresh* (one
//! encoding and one solver per COP, the reference configuration). The
//! per-COP pass, the cone-mode straddle pass, the split-window retry and
//! the canonical witness all encode and solve through one function, and
//! every solver result becomes a verdict through one function, so the
//! paths differ only in how the formula is built and queried.
//!
//! # One window driver
//!
//! Windows are independent solving problems (each gets its own encoder and
//! solver), so every driver runs the same schedule. One
//! [`WindowCursor`] walks the windows in order — carrying the boundary
//! state, and in cone mode the straddle tracker — over a complete trace
//! ([`RaceDetector::detect`]) or over the growing prefix a streaming
//! parser has decoded ([`RaceDetector::detect_stream`]). One scoped
//! scheduler hands each window job to [`DetectorConfig::parallelism`]
//! workers through a bounded queue; the workers build the job's view and
//! solve it, so window state stays bounded by the pool and the queue.
//! Determinism is preserved by splitting the work into a *solve* phase and
//! a *merge* phase:
//!
//! * each worker produces a [`WindowOutcome`]: an ordered list of per-COP
//!   records whose content depends only on the window itself (workers never
//!   consult cross-window state when deciding verdicts);
//! * one in-order merge replays outcomes **in window order** against the
//!   authoritative set of confirmed signatures — a record whose signature
//!   was already confirmed (in an earlier window, or earlier in the same
//!   window) is discarded wholesale, exactly as a serial run would have
//!   skipped it before solving.
//!
//! The session layer's shared pool (`crate::session`) is the one other
//! scheduler: its threads outlive a call and serve many tenants. It runs
//! the same cursor, window solve and in-order merge.
//!
//! Speculative work (a worker solving a COP whose signature an earlier,
//! still-unmerged window will confirm) costs time but never changes output.
//! As an optimization, merged signatures are also published through a shared
//! `RwLock<HashSet<_>>` so workers can skip work that is already known
//! redundant. To keep output bit-identical across thread counts the skip is
//! only taken where it cannot perturb any surviving verdict: per COP in
//! per-COP mode (every COP gets a fresh solver), and only for a whole
//! window in batch mode (selector solves share learnt clauses, so dropping
//! one mid-window could change a later model and thus a reported schedule).
//!
//! # Fault tolerance
//!
//! Every window solve — view construction included — runs under
//! [`std::panic::catch_unwind`]: a worker panic (a solver bug, a poisoned
//! window, an injected fault) is converted into a
//! [`WindowOutcome::Failed`] record that merges in window order like any
//! other outcome, so one bad window degrades the report instead of
//! tearing down the whole `std::thread::scope` run. Per-COP budget
//! exhaustion is three-valued: `Undecided(Timeout | ConflictBudget |
//! WorkerPanic | EncodeError)` is tallied in [`DetectionStats`] rather
//! than silently reading as "no race". The shared published-signature set
//! is accessed poison-tolerantly throughout. A deterministic
//! [`FaultPlan`](crate::config::FaultPlan) can inject panics, forced
//! timeouts, and encode errors at chosen (window, COP) coordinates so the
//! robustness suite can prove the merge stays byte-identical across
//! thread counts *under faults*.
//!
//! [`DetectionStats`]: crate::report::DetectionStats

use std::collections::{BTreeMap, HashSet};
use std::io::Read;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use rvsmt::{Budget, SmtResult, Solver, StopReason};
use rvtrace::{
    validate_wait_links, Cop, IngestStats, JsonError, RaceSignature, Schedule, StraddlePlan,
    StreamParser, Trace, View, WindowCursor, WindowJob,
};

use crate::config::{DetectorConfig, Fault, WindowMode};
use crate::cop::enumerate_cops;
use crate::encoder::{encode, encode_window, encode_with_skeleton, EncoderOptions};
use crate::report::{DetectionReport, FailedWindow, RaceReport, SolverTotals, UndecidedReason};
use crate::slice::WindowSkeleton;
use crate::tiers::{Tier, TierAnalysis, TierDecision};
use crate::witness::extract_witness;

/// How one COP fared inside a worker. `Skipped` records mark COPs the
/// worker never solved because their signature was locally confirmed
/// earlier in the window or already published by the merge loop; the merge
/// replay discards them (their signature is always confirmed by then).
#[derive(Debug)]
enum CopVerdict {
    Skipped,
    Unsat,
    /// No verdict: the budget ran out, encoding failed, or a fault was
    /// injected. The reason is tallied honestly in the report.
    Undecided(UndecidedReason),
    WitnessFailed,
    /// SAT with a certified (or trivially assembled, when validation is
    /// off) witness schedule.
    Race(Schedule),
}

/// One solved (or skipped) COP, in the window's solve order.
///
/// `profile` and `retried` ride along with the verdict so the merge loop
/// can tally solver effort for *surviving* records only — a speculative
/// solve whose record the dedup replay discards contributes nothing, which
/// is what keeps the count-type metrics byte-identical across thread
/// counts.
#[derive(Debug)]
struct CopRecord {
    cop: Cop,
    signature: RaceSignature,
    verdict: CopVerdict,
    /// SAT-core effort spent on this COP (all its solver invocations;
    /// zero for skipped and fault-forced records).
    profile: SolverTotals,
    /// Whether the split-window retry policy re-solved this COP.
    retried: bool,
    /// Events the COP's encoding actually constrained (its cone of
    /// influence; the whole window with slicing off). Zero for skipped
    /// and fault-forced records, which encode nothing.
    cone_events: usize,
    /// Events in the window the COP was encoded against (zero when
    /// nothing was encoded). Tallied at merge for surviving records
    /// only, like `profile`.
    window_events: usize,
    /// Asserted constraints in the COP's formula (zero when nothing was
    /// encoded).
    constraints: usize,
    /// Which cascade stage decided this COP: `Tier::A`/`Tier::B` for the
    /// pre-solver screens, `Tier::Solver` for the residue (and for
    /// fault-forced verdicts, which bypass the screens so planned fault
    /// coordinates always take effect). `None` for skipped records and
    /// whenever the cascade is disabled.
    decided_by: Option<Tier>,
    /// For boundary-straddling COPs (`--window-mode cone`): the extended
    /// view range the verdict was solved on, reported as the race's
    /// window. `None` for every in-window record.
    ext_range: Option<std::ops::Range<usize>>,
}

impl CopRecord {
    /// A record that encoded nothing and spent no solver effort.
    fn new(
        cop: Cop,
        signature: RaceSignature,
        verdict: CopVerdict,
        decided_by: Option<Tier>,
    ) -> Self {
        CopRecord {
            cop,
            signature,
            verdict,
            profile: SolverTotals::default(),
            retried: false,
            cone_events: 0,
            window_events: 0,
            constraints: 0,
            decided_by,
            ext_range: None,
        }
    }
}

/// Everything a worker learned about one window; merged in window order.
#[derive(Debug, Default)]
struct SolvedWindow {
    window_index: usize,
    range: std::ops::Range<usize>,
    pairs_considered: usize,
    qc_signatures: usize,
    records: Vec<CopRecord>,
    /// Encode + solve time inside this window.
    solver_time: Duration,
    /// Total worker time on this window (enumerate + encode + solve).
    window_time: Duration,
    /// Time inside the Tier A confirmation screen.
    tier_a_time: Duration,
    /// Time inside the Tier B refutation screen (including the base
    /// entailment graph construction).
    tier_b_time: Duration,
    /// Events this window's straddle pass reached back beyond the window
    /// start (zero without a straddle plan). Deterministic: a pure
    /// function of the trace prefix and the spill budget.
    spill_events: usize,
}

/// One window's solve state, shared by its passes: the window pass, the
/// split-window retry and the straddle pass.
struct WindowPass {
    opts: EncoderOptions,
    /// The per-COP solver budget.
    budget: Budget,
    /// The per-window wall-clock deadline (`--timeout-ms`, or a daemon
    /// tenant budget). COPs reached after it are recorded as
    /// `Undecided(Timeout)` — same verdict path in per-COP and batched
    /// mode — and per-COP solver budgets are clamped to the remainder.
    deadline: Option<Instant>,
    /// Snapshot of merge-confirmed signatures. Only ever used to *skip*
    /// solves whose records the merge replay is guaranteed to discard.
    known_racy: HashSet<RaceSignature>,
    /// Signatures confirmed inside this window, shared by the normal pass
    /// and the straddle pass, so a straddling COP whose signature an
    /// in-window COP already confirmed dedups exactly like any same-window
    /// duplicate — deterministically, at every thread count (the set is
    /// window-local; the merge replay re-checks everything cross-window).
    local_confirmed: HashSet<RaceSignature>,
    out: SolvedWindow,
}

impl WindowPass {
    /// Appends a record; a race confirms its signature for the rest of
    /// the window.
    fn push(&mut self, record: CopRecord) {
        if matches!(record.verdict, CopVerdict::Race(_)) {
            self.local_confirmed.insert(record.signature);
        }
        self.out.records.push(record);
    }
}

/// What a worker hands to the merge loop: the window's records, or — when
/// the solve panicked — a failure record. Both merge in window order, so a
/// poisoned window degrades the report deterministically instead of
/// aborting the run.
#[derive(Debug)]
enum WindowOutcome {
    Solved(SolvedWindow),
    Failed(FailedWindow),
}

/// An opaque solved-window result: produced by
/// [`RaceDetector::solve_window_result`], consumed (in window order) by
/// [`RaceDetector::merge_window_result`]. These are the two halves of the
/// solve-then-merge protocol every built-in driver runs; exposing them
/// lets an external driver — the multi-tenant session layer — schedule
/// the solves on its own worker pool while keeping the merged report
/// byte-identical to the built-in drivers.
#[derive(Debug)]
pub struct WindowResult(WindowOutcome);

impl WindowResult {
    /// The window index this result belongs to (the merge-order key).
    pub fn window_index(&self) -> usize {
        match &self.0 {
            WindowOutcome::Solved(s) => s.window_index,
            WindowOutcome::Failed(f) => f.window_index,
        }
    }
}

/// Runs one window's solve under panic isolation: a panic anywhere in
/// `solve` (including injected `Fault::Panic`s) becomes a failed-window
/// result instead of unwinding into the worker loop, so one bad window
/// degrades the report instead of tearing down the run.
fn isolated(
    window_index: usize,
    range: std::ops::Range<usize>,
    solve: impl FnOnce() -> SolvedWindow,
) -> WindowResult {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve)) {
        Ok(solved) => WindowResult(WindowOutcome::Solved(solved)),
        Err(payload) => {
            let reason = (payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            WindowResult(WindowOutcome::Failed(FailedWindow {
                window_index,
                range,
                reason,
            }))
        }
    }
}

/// True once the window's wall-clock deadline (if any) has passed.
fn past_deadline(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// The per-COP solver budget under a window deadline: the configured
/// budget clamped to the window's remaining wall-clock, so a COP started
/// near the deadline cannot overshoot the window budget by a whole
/// per-COP budget.
fn clamp_budget(budget: &Budget, deadline: Option<Instant>) -> Budget {
    let Some(d) = deadline else { return *budget };
    let remaining = d.saturating_duration_since(Instant::now());
    Budget {
        timeout: Some(budget.timeout.map_or(remaining, |t| t.min(remaining))),
        ..*budget
    }
}

/// Signatures confirmed by a merge loop, readable by in-flight workers.
///
/// Internal to the built-in drivers historically; public so external
/// drivers (the multi-tenant session layer) can run the same
/// solve-then-merge protocol with the same early-skip optimization. The
/// set is only ever used to *skip* solves whose records the merge replay
/// is guaranteed to discard, so sharing it never changes merged output.
#[derive(Debug, Default)]
pub struct PublishedSet(RwLock<HashSet<RaceSignature>>);

impl PublishedSet {
    /// An empty set.
    pub fn new() -> Self {
        PublishedSet::default()
    }
}

/// The result of [`RaceDetector::detect_stream`]: the fully ingested
/// trace, the detection report, and the ingestion counters.
#[derive(Debug)]
pub struct StreamDetection {
    /// The complete trace, as reconstructed from the stream.
    pub trace: Trace,
    /// The detection report — byte-identical (summary and count-type
    /// metrics) to `detect` on the same trace, at every worker count.
    pub report: DetectionReport,
    /// Bytes, events and parse time of the ingestion.
    pub ingest: IngestStats,
}

/// Bytes read from the input per pump round.
const STREAM_CHUNK: usize = 64 * 1024;

/// Converts an I/O failure into the ingestion error type.
fn io_error(bytes_fed: usize, e: std::io::Error) -> JsonError {
    JsonError {
        message: format!("read error: {e}"),
        offset: bytes_fed,
        snippet: String::new(),
    }
}

/// The one in-order merge: buffers window results that arrive in
/// completion order and replays them in window order against the run's
/// confirmed-signature set, so dedup decisions are reproducible at any
/// scheduling. Serves the built-in scheduler and the session layer alike.
#[derive(Debug)]
pub(crate) struct InOrderMerge {
    pending: BTreeMap<usize, WindowResult>,
    next: usize,
    report: DetectionReport,
    confirmed: HashSet<RaceSignature>,
    /// The first-race clock's zero.
    start: Instant,
}

impl InOrderMerge {
    /// An empty merge whose first-race clock started at `start`.
    pub(crate) fn new(start: Instant) -> Self {
        InOrderMerge {
            pending: BTreeMap::new(),
            next: 0,
            report: DetectionReport::default(),
            confirmed: HashSet::new(),
            start,
        }
    }

    /// Buffers one result and merges every window now contiguous; newly
    /// confirmed signatures are published for in-flight workers.
    pub(crate) fn push(
        &mut self,
        detector: &RaceDetector,
        result: WindowResult,
        published: &PublishedSet,
    ) {
        self.pending.insert(result.window_index(), result);
        while let Some(result) = self.pending.remove(&self.next) {
            detector.merge_window_result(
                result,
                &mut self.report,
                &mut self.confirmed,
                Some(published),
            );
            self.next += 1;
        }
        if self.report.stats.time_to_first_race.is_none() && !self.report.races.is_empty() {
            self.report.stats.time_to_first_race = Some(self.start.elapsed());
        }
    }

    /// Windows merged so far.
    pub(crate) fn merged(&self) -> usize {
        self.next
    }

    /// Takes the merged report; every pushed result must have merged.
    pub(crate) fn take_report(&mut self) -> DetectionReport {
        debug_assert!(self.pending.is_empty(), "every window outcome merged");
        std::mem::take(&mut self.report)
    }
}

/// The maximal sound predictive race detector.
///
/// # Examples
///
/// Detect the paper's Figure 1 race:
///
/// ```
/// use rvcore::RaceDetector;
/// use rvtrace::{ThreadId, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let x = b.var("x");
/// let t2 = b.fork(ThreadId::MAIN);
/// b.write(ThreadId::MAIN, x, 1);
/// b.read(t2, x, 1);
/// let trace = b.finish();
///
/// let report = RaceDetector::new().detect(&trace);
/// assert_eq!(report.n_races(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RaceDetector {
    config: DetectorConfig,
}

impl RaceDetector {
    /// A detector with the paper's default configuration.
    pub fn new() -> Self {
        RaceDetector {
            config: DetectorConfig::default(),
        }
    }

    /// A detector with an explicit configuration.
    pub fn with_config(config: DetectorConfig) -> Self {
        RaceDetector { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// The window walk this configuration runs: fixed or cone mode, at
    /// the configured window size.
    ///
    /// # Panics
    ///
    /// Panics if `window_size == 0`.
    pub(crate) fn cursor(&self) -> WindowCursor {
        let cone = self.config.window_mode == WindowMode::Cone;
        WindowCursor::new(
            self.config.window_size,
            cone.then(|| self.config.spill_events()),
        )
    }

    /// Runs detection over the whole trace, window by window.
    ///
    /// Windows are solved by [`DetectorConfig::parallelism`] scoped
    /// workers and merged in window order, so races, signatures and
    /// verdict counters are identical for every worker count (wall-clock
    /// timings, of course, are not). Views are built lazily by the
    /// workers, so window state stays bounded by the worker pool plus its
    /// dispatch queue (the `peak_window_residency` gauge).
    ///
    /// # Panics
    ///
    /// Panics if the configured window size is zero.
    pub fn detect(&self, trace: &Trace) -> DetectionReport {
        let start = Instant::now();
        let mut cursor = self.cursor();
        // No more workers than windows: a one-window trace needs one.
        let windows = trace.len().div_ceil(self.config.window_size);
        let (report, ()) = self.schedule(start, windows, |dispatch| {
            while let Some(job) = cursor.next(trace, true) {
                dispatch(job, trace);
            }
        });
        report
    }

    /// Streaming detection: ingests the trace from `reader` (format
    /// auto-detected, see [`StreamParser`]) and solves windows while the
    /// tail of the input is still being read. A window is dispatched as
    /// soon as its events *and* the trace metadata have arrived — with the
    /// NDJSON layout (metadata header first) solving overlaps ingestion
    /// from the first complete window; with the whole-document layout
    /// (metadata after the events) dispatch starts when the metadata
    /// completes near the end of the document.
    ///
    /// Workers solve against [`Arc`] snapshots of the trace *prefix*
    /// ingested so far; a window's verdicts are a pure function of its
    /// events and its boundary state, so the merged report is
    /// byte-identical to [`RaceDetector::detect`] on the whole file, at
    /// every worker count. The first race can be reported while ingestion
    /// is still running (`detector.time_to_first_race`).
    ///
    /// The input is validated exactly like the whole-file strict path:
    /// syntax and shape errors surface with the same message and byte
    /// offset, and wait-link validation runs once ingestion completes
    /// (speculatively solved windows are discarded on failure).
    ///
    /// # Panics
    ///
    /// Panics if the configured window size is zero.
    pub fn detect_stream<R: Read>(&self, mut reader: R) -> Result<StreamDetection, JsonError> {
        let start = Instant::now();
        let mut cursor = self.cursor();
        let (mut report, ingested) = self.schedule(
            start,
            usize::MAX,
            |dispatch| -> Result<(Arc<Trace>, IngestStats, Duration), JsonError> {
                let mut parser = StreamParser::new();
                let mut chunk = vec![0u8; STREAM_CHUNK];
                let mut first_dispatch: Option<Duration> = None;
                loop {
                    let n = reader
                        .read(&mut chunk)
                        .map_err(|e| io_error(parser.bytes_fed(), e))?;
                    if n == 0 {
                        break;
                    }
                    parser.feed(&chunk[..n])?;
                    // Gated on the metadata: boundary state needs the initial
                    // values, and a snapshot without the full metadata would
                    // not be prefix-equivalent to the final trace.
                    let len = parser.events().len();
                    if parser.metadata_complete() && cursor.next_range(len, false).is_some() {
                        let snapshot = Arc::new(Trace::from_data(parser.data().clone()));
                        first_dispatch.get_or_insert_with(|| start.elapsed());
                        while let Some(job) = cursor.next(&snapshot, false) {
                            dispatch(job, snapshot.clone());
                        }
                    }
                }
                parser.finish()?;
                // Strict-path parity: the whole-file reader validates wait
                // links after parsing; so does the stream. On failure every
                // speculative verdict is discarded.
                validate_wait_links(parser.data())?;
                let ingest = parser.stats();
                let ingest_done = start.elapsed();
                let trace = Arc::new(Trace::from_data(parser.into_data()));
                while let Some(job) = cursor.next(&trace, true) {
                    dispatch(job, trace.clone());
                }
                let overlap =
                    first_dispatch.map_or(Duration::ZERO, |t| ingest_done.saturating_sub(t));
                Ok((trace, ingest, overlap))
            },
        );
        let (trace, ingest, overlap) = ingested?;
        report.stats.ingest_overlap = Some(overlap);
        // Every worker has exited, so the final Arc is the last one
        // standing.
        let trace = Arc::try_unwrap(trace).unwrap_or_else(|a| (*a).clone());
        Ok(StreamDetection {
            trace,
            report,
            ingest,
        })
    }

    /// The one window scheduler, behind [`detect`](RaceDetector::detect)
    /// and [`detect_stream`](RaceDetector::detect_stream). `produce` runs
    /// on the calling thread and hands each window job, with a trace that
    /// covers it, to `dispatch` in window order. `parallelism` scoped
    /// workers (never more than `max_windows`) build each job's view and
    /// solve it under panic isolation; a merger thread merges the results
    /// in window order as they arrive. The bounded job queue is the
    /// backpressure: once every worker is busy and the queue is full,
    /// `dispatch` blocks, so at most `2 · workers + 3` jobs are in flight
    /// — queued, solving, or being dispatched (the `peak_window_residency`
    /// gauge).
    fn schedule<T, R>(
        &self,
        start: Instant,
        max_windows: usize,
        produce: impl FnOnce(&mut dyn FnMut(WindowJob, T)) -> R,
    ) -> (DetectionReport, R)
    where
        T: Deref<Target = Trace> + Send,
    {
        let workers = self.config.parallelism.clamp(1, max_windows.max(1));
        let published = PublishedSet::new();
        let residency = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (job_tx, job_rx) = mpsc::sync_channel::<(WindowJob, T)>(workers + 2);
        let job_rx = Mutex::new(job_rx);
        let (out_tx, out_rx) = mpsc::channel::<WindowResult>();
        let (mut report, produced) = std::thread::scope(|scope| {
            let (published, residency, peak, job_rx) = (&published, &residency, &peak, &job_rx);
            for _ in 0..workers {
                let out_tx = out_tx.clone();
                scope.spawn(move || loop {
                    let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok((job, trace)) = job else { break };
                    let result = self.solve_job(&job, &trace, published);
                    // Release the job's state before it leaves the count.
                    drop((job, trace));
                    residency.fetch_sub(1, Ordering::Relaxed);
                    if out_tx.send(result).is_err() {
                        break;
                    }
                });
            }
            drop(out_tx);
            let merger = scope.spawn(move || {
                let mut merge = InOrderMerge::new(start);
                for result in out_rx {
                    merge.push(self, result, published);
                }
                merge.take_report()
            });
            let mut dispatch = move |job: WindowJob, trace: T| {
                let live = residency.fetch_add(1, Ordering::Relaxed) + 1;
                peak.fetch_max(live, Ordering::Relaxed);
                // Send fails only if every worker died; worker panics are
                // caught per window, so in practice the queue outlives the
                // producer.
                let _ = job_tx.send((job, trace));
            };
            let produced = produce(&mut dispatch);
            // Closing the queue lets the workers drain and exit, and then
            // the merger finish.
            drop(dispatch);
            (merger.join().expect("merge thread panicked"), produced)
        });
        report.stats.peak_window_residency = peak.load(Ordering::Relaxed);
        report.stats.wall_time = start.elapsed();
        (report, produced)
    }

    /// Solves one window under panic isolation, as a building block for
    /// external drivers: the result must be handed to
    /// [`RaceDetector::merge_window_result`] in window order. The solve is
    /// a pure function of the window's view (plus the skip-only
    /// `published` set and the window's deterministic straddle `plan`, if
    /// any), so any scheduling of these calls merges to the same report.
    pub fn solve_window_result(
        &self,
        window_index: usize,
        view: &View<'_>,
        plan: Option<&StraddlePlan>,
        published: Option<&PublishedSet>,
    ) -> WindowResult {
        isolated(window_index, view.range(), || {
            self.solve_window(window_index, view, plan, published)
        })
    }

    /// Builds a job's view from `trace` (or any prefix covering it) and
    /// solves it: the window solve of the built-in scheduler and the
    /// session pool, isolated from panics in view construction too.
    pub(crate) fn solve_job(
        &self,
        job: &WindowJob,
        trace: &Trace,
        published: &PublishedSet,
    ) -> WindowResult {
        isolated(job.index, job.range.clone(), || {
            let view = job.view(trace);
            self.solve_window(job.index, &view, job.plan.as_ref(), Some(published))
        })
    }

    /// Solves one window into an outcome record. Pure with respect to
    /// cross-window state: `published` is used only for early skips that
    /// provably cannot change merged output (see the module docs).
    fn solve_window(
        &self,
        window_index: usize,
        view: &View<'_>,
        plan: Option<&StraddlePlan>,
        published: Option<&PublishedSet>,
    ) -> SolvedWindow {
        let window_start = Instant::now();
        let cfg = &self.config;
        let enumeration = enumerate_cops(view, cfg.quick_check, cfg.max_cops_per_signature);
        let mut w = WindowPass {
            opts: EncoderOptions {
                mode: cfg.mode,
                prune_write_sets: cfg.prune_write_sets,
                slice: cfg.slice,
            },
            budget: Budget {
                max_conflicts: cfg.max_conflicts,
                timeout: Some(cfg.solver_timeout),
            },
            // (An unrepresentable deadline — overflowing `Instant` — means
            // the budget can never fire, i.e. unbounded.)
            deadline: cfg.window_timeout.and_then(|t| window_start.checked_add(t)),
            // When a fault plan is active the snapshot is left empty: which
            // signatures have been published when a window starts depends
            // on worker timing, and a timing-dependent skip would shift
            // fault coordinates between runs. (Verdicts never depend on the
            // skip, but fault coordinates index the solve order, which
            // does.)
            known_racy: match (cfg.dedup_signatures && cfg.fault_plan.is_none(), published) {
                (true, Some(p)) => {
                    p.0.read()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .clone()
                }
                _ => HashSet::new(),
            },
            local_confirmed: HashSet::new(),
            out: SolvedWindow {
                window_index,
                range: view.range(),
                pairs_considered: enumeration.pairs_considered,
                qc_signatures: enumeration.qc_signatures,
                records: Vec::with_capacity(enumeration.cops.len()),
                ..SolvedWindow::default()
            },
        };
        // The tiered cascade shares one per-window analysis (base
        // entailment graph + memoized read facts) across all COPs.
        let mut tiers = (cfg.tiers && !enumeration.cops.is_empty())
            .then(|| TierAnalysis::new(view, cfg.mode, cfg.prune_write_sets));
        if cfg.batch_windows {
            self.solve_window_batched(view, enumeration.cops, tiers.as_mut(), &mut w);
        } else {
            self.solve_cops_fresh(view, &enumeration.cops, true, None, tiers.as_mut(), &mut w);
        }
        if let Some(t) = &tiers {
            w.out.tier_a_time = t.tier_a_time();
            w.out.tier_b_time = t.tier_b_time();
        }
        if cfg.retry_split {
            self.retry_timeouts(view, &mut w);
        }
        if let Some(plan) = plan {
            self.solve_straddles(view, plan, &mut w);
        }
        w.out.window_time = window_start.elapsed();
        w.out
    }

    /// One-shot retry for budget exhaustion: each `Undecided(Timeout)` COP
    /// is re-encoded and re-solved against the half-size sub-window that
    /// contains both of its events (half the events ⇒ a much smaller
    /// formula). COPs spanning the midpoint keep their `Undecided`
    /// verdict. Window-local, so it is deterministic under parallelism;
    /// the fault plan is deliberately not consulted (an injected
    /// `Fault::Timeout` may be rescued here, which is itself useful for
    /// testing the policy).
    fn retry_timeouts(&self, view: &View<'_>, w: &mut WindowPass) {
        let needs_retry = w
            .out
            .records
            .iter()
            .any(|r| matches!(r.verdict, CopVerdict::Undecided(UndecidedReason::Timeout)));
        if !needs_retry {
            return;
        }
        let Some((first, second)) = view.split() else {
            return;
        };
        for record in w.out.records.iter_mut() {
            if !matches!(
                record.verdict,
                CopVerdict::Undecided(UndecidedReason::Timeout)
            ) {
                continue;
            }
            let half = if first.contains(record.cop.first) && first.contains(record.cop.second) {
                &first
            } else if second.contains(record.cop.first) && second.contains(record.cop.second) {
                &second
            } else {
                continue; // spans the midpoint: stays Undecided
            };
            // No retries past the window deadline: the budget that killed
            // the first solve has run out for good.
            if past_deadline(w.deadline) {
                continue;
            }
            record.retried = true;
            let solve_start = Instant::now();
            let budget = &clamp_budget(&w.budget, w.deadline);
            let retry = self.solve_fresh(half, None, record.cop, w.opts, budget);
            w.out.solver_time += solve_start.elapsed();
            record.verdict = retry.verdict;
            // The retry is a second solver invocation on the same COP: its
            // effort accumulates into the record's profile (the original
            // timed-out solve is already in there), so the COP is counted
            // once in `cops_solved` but both solves are in the totals.
            record.profile.add(&retry.profile);
        }
    }

    /// The planned fault for this (window, COP) coordinate, if any.
    /// `Fault::Panic` fires here (caught by the window's isolation);
    /// the other faults are returned as forced verdicts.
    fn apply_fault(&self, window: usize, cop_index: usize) -> Option<CopVerdict> {
        let fault = self
            .config
            .fault_plan
            .as_ref()?
            .fault_at(window, cop_index)?;
        match fault {
            Fault::Panic => {
                panic!("injected fault: worker panic at window {window} cop {cop_index}")
            }
            Fault::Timeout => Some(CopVerdict::Undecided(UndecidedReason::Timeout)),
            Fault::EncodeError => Some(CopVerdict::Undecided(UndecidedReason::EncodeError)),
        }
    }

    /// The record of a COP that never reaches a screen or the solver, if
    /// any: a planned fault at `fault_index` (`None` where fault
    /// coordinates do not apply), an expired window deadline, or a `skip`
    /// (its signature is already confirmed). Faults fire before any skip so
    /// a planned coordinate always takes effect, at every thread count; a
    /// COP reached after the deadline gets the exact `Undecided(Timeout)`
    /// record a per-COP budget exhaustion leaves.
    fn preempted(
        &self,
        w: &WindowPass,
        fault_index: Option<usize>,
        cop: Cop,
        signature: RaceSignature,
        skip: bool,
        cascade_on: bool,
    ) -> Option<CopRecord> {
        // With the cascade off every record's stage is `None`, so the
        // tier counters stay zero under `--no-tiers`.
        let stage = cascade_on.then_some(Tier::Solver);
        if let Some(verdict) = fault_index.and_then(|i| self.apply_fault(w.out.window_index, i)) {
            return Some(CopRecord::new(cop, signature, verdict, stage));
        }
        if past_deadline(w.deadline) {
            let verdict = CopVerdict::Undecided(UndecidedReason::Timeout);
            return Some(CopRecord::new(cop, signature, verdict, stage));
        }
        skip.then(|| CopRecord::new(cop, signature, CopVerdict::Skipped, None))
    }

    /// The record of a COP the tier screens decided; `None` for the
    /// residue, which goes on to the solver. A Tier B refutation is
    /// exactly the solver's `Unsat` (`Φ` is entailment-unsatisfiable). A
    /// Tier A confirmation reports the canonical fresh-solve witness — the
    /// exact schedule every solver path reports — so reports are
    /// byte-identical to solver-only mode; a canonical solve that fails at
    /// a budget boundary is reported honestly as a witness failure.
    fn screened(
        &self,
        view: &View<'_>,
        cop: Cop,
        signature: RaceSignature,
        decision: TierDecision,
        w: &mut WindowPass,
    ) -> Option<CopRecord> {
        match decision {
            TierDecision::Confirmed => {
                let budget = &clamp_budget(&w.budget, w.deadline);
                let solve_start = Instant::now();
                let verdict = self.verdict_of(SmtResult::Sat, cop, || {
                    self.canonical_schedule(view, cop, w.opts, budget)
                });
                w.out.solver_time += solve_start.elapsed();
                Some(CopRecord::new(cop, signature, verdict, Some(Tier::A)))
            }
            TierDecision::Refuted => Some(CopRecord::new(
                cop,
                signature,
                CopVerdict::Unsat,
                Some(Tier::B),
            )),
            TierDecision::Residue => None,
        }
    }

    /// Maps a solver result to a verdict: budget exhaustion is
    /// `Undecided`, and SAT is a race whose schedule comes from `witness`
    /// when witnesses are validated (`None` there is a witness failure,
    /// never a silent drop) and is the bare COP pair when they are not.
    fn verdict_of(
        &self,
        result: SmtResult,
        cop: Cop,
        witness: impl FnOnce() -> Option<Schedule>,
    ) -> CopVerdict {
        match result {
            SmtResult::Unsat => CopVerdict::Unsat,
            SmtResult::Unknown(StopReason::Timeout) => {
                CopVerdict::Undecided(UndecidedReason::Timeout)
            }
            SmtResult::Unknown(StopReason::Conflicts) => {
                CopVerdict::Undecided(UndecidedReason::ConflictBudget)
            }
            SmtResult::Sat if !self.config.validate_witnesses => {
                CopVerdict::Race(Schedule(vec![cop.first, cop.second]))
            }
            SmtResult::Sat => witness().map_or(CopVerdict::WitnessFailed, CopVerdict::Race),
        }
    }

    /// Encodes `cop` fresh against `view` — through the view's shared
    /// `skel` when one is given — solves it from scratch with phase hints,
    /// and maps the result to a record (no stage, no extended range; the
    /// caller stamps those). Every fresh solve goes through here: the
    /// per-COP and straddle passes, the split-window retry and the
    /// canonical witness. A sliced model leaves non-cone events unplaced,
    /// so on SAT a sliced solve reports the canonical witness instead of
    /// its own model's.
    fn solve_fresh(
        &self,
        view: &View<'_>,
        skel: Option<&WindowSkeleton<'_, '_>>,
        cop: Cop,
        opts: EncoderOptions,
        budget: &Budget,
    ) -> CopRecord {
        let encoded = match skel {
            Some(s) => encode_with_skeleton(s, cop, opts),
            None => encode(view, cop, opts),
        };
        let mut solver = Solver::new(&encoded.fb);
        if self.config.phase_hints {
            solver.hint_atom_phases(|a| encoded.phase_hint(a));
        }
        let result = solver.solve(budget);
        let verdict = self.verdict_of(result, cop, || {
            if opts.slicing_active() {
                self.canonical_schedule(view, cop, opts, budget)
            } else {
                extract_witness(view, cop, &encoded, &solver, self.config.mode)
                    .ok()
                    .map(|w| w.schedule)
            }
        });
        // Fresh solver: its lifetime stats *are* this solve's delta.
        let mut profile = SolverTotals::default();
        profile.record_solve(&solver.stats().sat);
        CopRecord {
            profile,
            cone_events: encoded.cone_events,
            window_events: encoded.window_events,
            constraints: encoded.n_constraints,
            ..CopRecord::new(cop, RaceSignature::of_cop(view.trace(), cop), verdict, None)
        }
    }

    /// The canonical witness schedule for a SAT verdict: the witness of a
    /// fresh *unsliced* solve of the COP. Used whenever the verdict came
    /// from a sliced or selector-guarded model, so reported schedules are
    /// byte-identical across `slice` on/off, `batch_windows` on/off, and
    /// every `--jobs` value. (A sliced model leaves non-cone events
    /// unplaced, and an incremental batch model depends on the window's
    /// solve history; the fresh solve depends on neither. The verdict
    /// itself is already SAT, so this solve can only fail at a budget
    /// boundary, which is reported honestly as a witness failure.)
    fn canonical_schedule(
        &self,
        view: &View<'_>,
        cop: Cop,
        opts: EncoderOptions,
        budget: &Budget,
    ) -> Option<Schedule> {
        let unsliced = EncoderOptions {
            slice: false,
            ..opts
        };
        match self.solve_fresh(view, None, cop, unsliced, budget).verdict {
            CopVerdict::Race(schedule) => Some(schedule),
            _ => None,
        }
    }

    /// Per-COP mode (`batch_windows` off) and the straddle pass: a fresh
    /// encoding and solver per COP, over one skeleton and one
    /// [`TierAnalysis`] per view. Solves are independent, so skipping a
    /// known-redundant COP cannot perturb any other verdict — the
    /// `known_racy` skip is safe at COP granularity. `faults` says whether
    /// fault coordinates index these COPs: they do in the window pass, and
    /// not in the straddle pass, whose COPs must not shift the window
    /// pass's coordinates between fixed and cone mode. `ext_range` is the
    /// extended view range every straddle record is reported on.
    fn solve_cops_fresh(
        &self,
        view: &View<'_>,
        cops: &[Cop],
        faults: bool,
        ext_range: Option<std::ops::Range<usize>>,
        mut tiers: Option<&mut TierAnalysis<'_>>,
        w: &mut WindowPass,
    ) {
        let cascade_on = tiers.is_some();
        // One skeleton per view: its indexes are shared by every COP's
        // cone computation.
        let skel = w.opts.slicing_active().then(|| WindowSkeleton::new(view));
        for (cop_index, &cop) in cops.iter().enumerate() {
            let signature = RaceSignature::of_cop(view.trace(), cop);
            let skip = self.config.dedup_signatures
                && (w.local_confirmed.contains(&signature) || w.known_racy.contains(&signature));
            let fault_index = faults.then_some(cop_index);
            let record =
                if let Some(r) = self.preempted(w, fault_index, cop, signature, skip, cascade_on) {
                    r
                } else if let Some(r) = tiers.as_deref_mut().and_then(|t| {
                    // The tiered screens decide most COPs without an
                    // encoding; whatever they leave is the residue the solver
                    // sees.
                    let decision = t.decide(&cop);
                    self.screened(view, cop, signature, decision, w)
                }) {
                    r
                } else {
                    let solve_start = Instant::now();
                    let budget = &clamp_budget(&w.budget, w.deadline);
                    let solved = self.solve_fresh(view, skel.as_ref(), cop, w.opts, budget);
                    w.out.solver_time += solve_start.elapsed();
                    CopRecord {
                        decided_by: cascade_on.then_some(Tier::Solver),
                        ..solved
                    }
                };
            w.push(CopRecord {
                ext_range: ext_range.clone(),
                ..record
            });
        }
    }

    /// Batch mode: one shared encoding + incremental solver per window,
    /// per-COP selector assumptions. Selector solves share learnt clauses,
    /// so the `known_racy` skip is only taken when it covers the *whole*
    /// window — a partial skip could change a later COP's model and hence
    /// its reported witness schedule.
    ///
    /// Retaining learnt clauses across COPs is sound because selectors are
    /// only ever *assumed* (first forced decisions), never asserted: every
    /// clause the session learns is implied by the asserted skeleton alone
    /// — possibly ¬sel-guarded — and so stays valid after its COP retires
    /// (see DESIGN.md, "Hot path"). `--no-incremental` keeps the shared
    /// encoding but rebuilds the solver per selector query, as an ablation.
    fn solve_window_batched(
        &self,
        view: &View<'_>,
        cops: Vec<Cop>,
        tiers: Option<&mut TierAnalysis<'_>>,
        w: &mut WindowPass,
    ) {
        if cops.is_empty() {
            return;
        }
        let cfg = &self.config;
        let cascade_on = tiers.is_some();
        let signatures: Vec<RaceSignature> = cops
            .iter()
            .map(|&c| RaceSignature::of_cop(view.trace(), c))
            .collect();
        if cfg.dedup_signatures && signatures.iter().all(|s| w.known_racy.contains(s)) {
            w.out.records.extend(
                cops.into_iter().zip(signatures).map(|(cop, signature)| {
                    CopRecord::new(cop, signature, CopVerdict::Skipped, None)
                }),
            );
            return;
        }
        // Tier pass: decide every COP up front so the shared encoding can
        // cover the residue alone (the screens are pure per-COP functions
        // of the window, so deciding them before the solve loop changes
        // nothing about solve order). A COP with a planned fault is never
        // screened — the fault must fire at its coordinate either way.
        let decisions: Vec<Option<TierDecision>> = match tiers {
            Some(t) => cops
                .iter()
                .enumerate()
                .map(|(i, cop)| {
                    let faulted = cfg
                        .fault_plan
                        .as_ref()
                        .is_some_and(|p| p.fault_at(w.out.window_index, i).is_some());
                    (!faulted).then(|| t.decide(cop))
                })
                .collect(),
            None => vec![None; cops.len()],
        };
        // The residue (plus faulted coordinates, which keep their index
        // semantics) shares one incremental encoding, exactly as the whole
        // window used to.
        let mut residue: Vec<Cop> = Vec::new();
        let mut sel_index: Vec<Option<usize>> = Vec::with_capacity(cops.len());
        for (i, &cop) in cops.iter().enumerate() {
            match decisions[i] {
                Some(TierDecision::Confirmed) | Some(TierDecision::Refuted) => {
                    sel_index.push(None);
                }
                _ => {
                    sel_index.push(Some(residue.len()));
                    residue.push(cop);
                }
            }
        }
        let mut enc_solver = None;
        // An already-expired deadline skips the shared encoding entirely:
        // every residue COP below degrades without ever needing a solver.
        if !residue.is_empty() && !past_deadline(w.deadline) {
            let solve_start = Instant::now();
            // With slicing, the shared base formula covers the union cone
            // of the residue COPs.
            let encoded = encode_window(view, &residue, w.opts);
            let mut solver = Solver::new(&encoded.fb);
            if cfg.phase_hints {
                solver.hint_atom_phases(|a| encoded.phase_hint(a));
            }
            w.out.solver_time += solve_start.elapsed();
            enc_solver = Some((encoded, solver));
        }
        for (i, cop) in cops.into_iter().enumerate() {
            let signature = signatures[i];
            // (Skipping a selector solve perturbs later models only
            // relative to a run *without* the fault; the plan is fixed, so
            // every thread count sees the same sequence of solves. The
            // deadline is monotonic, so a residue COP that is not preempted
            // always finds the shared encoding built above.)
            let skip = cfg.dedup_signatures && w.local_confirmed.contains(&signature);
            let record = if let Some(r) =
                self.preempted(w, Some(i), cop, signature, skip, cascade_on)
            {
                r
            } else if let Some(r) =
                decisions[i].and_then(|d| self.screened(view, cop, signature, d, w))
            {
                r
            } else {
                let (encoded, solver) = enc_solver
                    .as_mut()
                    .expect("residue COP without a shared encoding");
                let sel = sel_index[i].expect("residue COP without a selector");
                let solve_start = Instant::now();
                let budget = &clamp_budget(&w.budget, w.deadline);
                // Shared incremental solver: counters are cumulative over
                // the window, so this COP's effort is the before/after
                // delta. Under `--no-incremental` the solver is rebuilt
                // per selector (the fresh solver's lifetime stats are the
                // delta).
                let mut profile = SolverTotals::default();
                let result = if cfg.incremental {
                    let before = solver.stats().sat;
                    let r = solver.solve_assuming(budget, &[encoded.selectors[sel]]);
                    profile.record_solve(&solver.stats().sat.delta_since(&before));
                    r
                } else {
                    let mut fresh = Solver::new(&encoded.fb);
                    if cfg.phase_hints {
                        fresh.hint_atom_phases(|a| encoded.phase_hint(a));
                    }
                    let r = fresh.solve_assuming(budget, &[encoded.selectors[sel]]);
                    profile.record_solve(&fresh.stats().sat);
                    r
                };
                // The selector model depends on the window's solve
                // history: report the canonical witness instead.
                let verdict = self.verdict_of(result, cop, || {
                    self.canonical_schedule(view, cop, w.opts, budget)
                });
                w.out.solver_time += solve_start.elapsed();
                CopRecord {
                    profile,
                    cone_events: encoded.cone_events,
                    window_events: encoded.window_events,
                    constraints: encoded.n_constraints,
                    ..CopRecord::new(cop, signature, verdict, cascade_on.then_some(Tier::Solver))
                }
            };
            w.push(record);
        }
    }

    /// The straddle pass (`--window-mode cone`): solves this window's
    /// boundary-straddling COPs — pairs whose partner event fell before
    /// the window start, invisible to every per-window enumeration — on an
    /// *extended view* rebuilt from the tracker's checkpointed boundary.
    /// The extended view over `ext_start..end` is byte-identical to the
    /// view a fixed window spanning that range would have had (same
    /// boundary-advance recurrence from the same trace prefix), so no new
    /// view semantics are introduced: every verdict below is an ordinary
    /// windowed verdict over a longer, boundary-correct window, and the
    /// soundness argument (Thm. 1) carries over unchanged.
    ///
    /// The view grows lazily along the COPs' cone of influence: when the
    /// union cone reads a variable whose last in-budget write precedes
    /// the current extension start, the view is rebuilt from that write
    /// (at most three rounds), so cross-boundary control-flow dependences
    /// are carried without re-residenting whole windows. The growth runs
    /// whether or not the *encoding* slices — the extension range (and
    /// with it the reported window and witness) must be identical across
    /// `--no-slice`, or the slice flag would change report bytes. COPs
    /// whose partner fell outside the spill budget are reported honestly
    /// as `Undecided(BoundaryBudget)` — never a silent "no race", never a
    /// solve on a truncated view.
    fn solve_straddles(&self, view: &View<'_>, plan: &StraddlePlan, w: &mut WindowPass) {
        let cfg = &self.config;
        let trace = view.trace();
        for &cop in &plan.over_budget {
            let verdict = CopVerdict::Undecided(UndecidedReason::BoundaryBudget);
            let signature = RaceSignature::of_cop(trace, cop);
            w.out.records.push(CopRecord {
                ext_range: Some(plan.window.clone()),
                ..CopRecord::new(cop, signature, verdict, cfg.tiers.then_some(Tier::Solver))
            });
        }
        if plan.cops.is_empty() {
            return;
        }
        // Lazy cone growth: pull the view start back to the last in-budget
        // write of any variable the union cone reads, until the dependence
        // frontier stabilizes or the budget floor is hit.
        let mut ext_start = plan.ext_start;
        let mut ext = plan.extended_view(trace, ext_start);
        for _ in 0..3 {
            let target = {
                let skel = WindowSkeleton::new(&ext);
                let cone = skel.cone(&plan.cops, cfg.prune_write_sets);
                plan.grow_target(cone.read_vars(&ext), ext_start)
            };
            match target {
                Some(s) if s < ext_start => {
                    ext_start = s;
                    ext = plan.extended_view(trace, ext_start);
                }
                _ => break,
            }
        }
        w.out.spill_events = plan.spill_span(ext_start);
        let mut tiers = cfg
            .tiers
            .then(|| TierAnalysis::new(&ext, cfg.mode, cfg.prune_write_sets));
        self.solve_cops_fresh(
            &ext,
            &plan.cops,
            false,
            Some(ext.range()),
            tiers.as_mut(),
            w,
        );
        if let Some(t) = &tiers {
            w.out.tier_a_time += t.tier_a_time();
            w.out.tier_b_time += t.tier_b_time();
        }
    }

    /// Merges one window's result into `report`. Must be called in window
    /// order with the same `confirmed` set (and `published`, if any)
    /// across the whole run — this is the replay that makes merged output
    /// independent of solve scheduling, and where cross-window
    /// deduplication happens: a record whose signature is already
    /// confirmed is dropped wholesale (its counters included), reproducing
    /// exactly what a serial run would have skipped before solving. Newly
    /// confirmed signatures are pushed to `published` for in-flight
    /// workers.
    pub fn merge_window_result(
        &self,
        result: WindowResult,
        report: &mut DetectionReport,
        confirmed: &mut HashSet<RaceSignature>,
        published: Option<&PublishedSet>,
    ) {
        let cfg = &self.config;
        let stats = &mut report.stats;
        stats.windows += 1;
        let outcome = match result.0 {
            WindowOutcome::Failed(failed) => {
                stats.failed_windows += 1;
                report.failed_windows.push(failed);
                return;
            }
            WindowOutcome::Solved(solved) => solved,
        };
        stats.pairs_considered += outcome.pairs_considered;
        stats.qc_signatures += outcome.qc_signatures;
        stats.solver_time += outcome.solver_time;
        stats.tier_a_time += outcome.tier_a_time;
        stats.tier_b_time += outcome.tier_b_time;
        stats.window_times.push(outcome.window_time);
        stats.spill_peak_events = stats.spill_peak_events.max(outcome.spill_events);
        for record in outcome.records {
            if cfg.dedup_signatures && confirmed.contains(&record.signature) {
                continue;
            }
            // Boundary accounting, surviving records only (same contract
            // as the solver-effort tallies below).
            if record.ext_range.is_some() {
                if matches!(
                    record.verdict,
                    CopVerdict::Undecided(UndecidedReason::BoundaryBudget)
                ) {
                    stats.boundary_over_budget += 1;
                } else {
                    stats.straddle_cops += 1;
                    if matches!(record.verdict, CopVerdict::Race(_)) {
                        stats.straddle_races += 1;
                    }
                }
            }
            // Cascade attribution, surviving records only (same contract
            // as `profile`): with tiers on, every solved COP carries a
            // stage, so confirmed + refuted + residue == cops_solved.
            match record.decided_by {
                Some(Tier::A) => stats.tier_confirmed += 1,
                Some(Tier::B) => stats.tier_refuted += 1,
                Some(Tier::Solver) => stats.tier_residue += 1,
                None => {}
            }
            // Solver effort and retry accounting are tallied here, for
            // surviving records only: a speculative solve whose record the
            // dedup check above discards never reaches the stats, so the
            // count-type metrics are identical at every thread count.
            stats.solver_totals.add(&record.profile);
            if record.profile.solves > 0 {
                stats.conflicts_per_cop.observe(record.profile.conflicts);
                stats.decisions_per_cop.observe(record.profile.decisions);
                stats
                    .propagations_per_cop
                    .observe(record.profile.propagations);
            }
            if record.retried {
                stats.retried_cops += 1;
                if !matches!(record.verdict, CopVerdict::Undecided(_)) {
                    stats.retry_rescued += 1;
                }
            }
            // Encoding-size accounting, surviving records only (same
            // determinism contract as `profile` above). Skipped and
            // fault-forced records encode nothing and carry zeros.
            if record.window_events > 0 {
                stats.cone_events += record.cone_events as u64;
                stats.window_events_encoded += record.window_events as u64;
                stats.sliced_out += (record.window_events - record.cone_events) as u64;
                stats.constraints_encoded += record.constraints as u64;
                stats.cone_events_per_cop.observe(record.cone_events as u64);
                stats.constraints_per_cop.observe(record.constraints as u64);
            }
            match record.verdict {
                CopVerdict::Skipped => {
                    // A worker only skips when the signature was confirmed
                    // by an earlier merged window or earlier in this
                    // window's records — both imply `confirmed` holds it
                    // by the time the replay gets here.
                    debug_assert!(
                        !cfg.dedup_signatures,
                        "skipped record with unconfirmed signature {:?}",
                        record.signature
                    );
                }
                CopVerdict::Unsat => {
                    stats.cops_solved += 1;
                    stats.unsat += 1;
                }
                CopVerdict::Undecided(reason) => {
                    stats.cops_solved += 1;
                    stats.record_undecided(reason);
                }
                CopVerdict::WitnessFailed => {
                    stats.cops_solved += 1;
                    stats.sat += 1;
                    stats.witness_failures += 1;
                }
                CopVerdict::Race(schedule) => {
                    stats.cops_solved += 1;
                    stats.sat += 1;
                    confirmed.insert(record.signature);
                    if let Some(p) = published {
                        p.0.write()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .insert(record.signature);
                    }
                    report.races.push(RaceReport {
                        cop: record.cop,
                        signature: record.signature,
                        // A straddling race is attributed to the extended
                        // view it was actually solved on.
                        window: record
                            .ext_range
                            .clone()
                            .unwrap_or_else(|| outcome.range.clone()),
                        schedule,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConsistencyMode;
    use rvtrace::{ThreadId, TraceBuilder};

    /// Paper Figure 1/4: exactly one race, (3,10) on x.
    fn figure1_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let z = b.var("z");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.write(t1, x, 1);
        b.write(t1, y, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, y, 1);
        b.release(t2, l);
        b.read(t2, x, 1);
        b.branch(t2);
        b.write(t2, z, 1);
        b.join(t1, t2);
        b.read(t1, z, 1);
        b.branch(t1);
        b.finish()
    }

    #[test]
    fn figure1_exactly_one_race() {
        let report = RaceDetector::new().detect(&figure1_trace());
        assert_eq!(report.n_races(), 1, "{report}");
        assert_eq!(report.stats.witness_failures, 0);
        let race = &report.races[0];
        // The race is on x: both events access x.
        let tr = figure1_trace();
        let var = tr.event(race.cop.first).kind.var();
        assert_eq!(var, tr.event(race.cop.second).kind.var());
    }

    #[test]
    fn figure1_said_finds_none() {
        let cfg = DetectorConfig {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&figure1_trace());
        assert_eq!(report.n_races(), 0, "{report}");
        assert!(report.stats.unsat > 0);
    }

    #[test]
    fn race_free_program_clean() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.write(t2, x, 2);
        b.release(t2, l);
        b.join(t1, t2);
        let report = RaceDetector::new().detect(&b.finish());
        assert_eq!(report.n_races(), 0);
    }

    #[test]
    fn dedup_by_signature() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        for i in 0..4 {
            b.write_at(t1, x, i, lw);
        }
        for _ in 0..4 {
            b.read_at(t2, x, 3, lr);
        }
        let trace = b.finish();
        let report = RaceDetector::new().detect(&trace);
        assert_eq!(report.n_races(), 1, "one signature ⇒ one report");
        let cfg = DetectorConfig {
            dedup_signatures: false,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert!(report.n_races() > 1);
    }

    #[test]
    fn windowing_misses_cross_window_races_but_stays_sound() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let w = b.write(t1, x, 1);
        for i in 0..10 {
            b.write(t1, x, i + 2); // filler to push the read far away
        }
        let r = b.read(t2, x, 11);
        let _ = (w, r);
        let trace = b.finish();
        // Tiny windows: the write and read land in different windows, and
        // fixed mode cannot see across the boundary.
        let cfg = DetectorConfig {
            window_size: 3,
            window_mode: WindowMode::Fixed,
            ..Default::default()
        };
        let small = RaceDetector::with_config(cfg).detect(&trace);
        // Full window: the race is found.
        let big = RaceDetector::new().detect(&trace);
        assert!(big.n_races() >= 1);
        assert!(small.n_races() <= big.n_races());
    }

    #[test]
    fn batch_and_per_cop_agree() {
        // Batch (incremental, selector-guarded equality) and per-COP
        // (glued-variable) solving must report identical signatures.
        for seed in [3u64, 17, 99] {
            let trace = {
                // A small racy/locked mix.
                let mut b = TraceBuilder::new();
                let x = b.var("x");
                let y = b.var("y");
                let l = b.new_lock("l");
                let t1 = ThreadId::MAIN;
                let t2 = b.fork(t1);
                let t3 = b.fork(t1);
                b.acquire(t1, l);
                b.write(t1, x, seed as i64);
                b.write(t1, y, 1);
                b.release(t1, l);
                b.acquire(t2, l);
                b.read(t2, y, 1);
                b.release(t2, l);
                b.read(t2, x, seed as i64);
                b.write(t3, y, 2);
                b.join(t1, t2);
                b.join(t1, t3);
                b.finish()
            };
            for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
                let batched = RaceDetector::with_config(DetectorConfig {
                    batch_windows: true,
                    mode,
                    ..Default::default()
                })
                .detect(&trace);
                let per_cop = RaceDetector::with_config(DetectorConfig {
                    batch_windows: false,
                    mode,
                    ..Default::default()
                })
                .detect(&trace);
                assert_eq!(
                    batched.signatures(),
                    per_cop.signatures(),
                    "seed {seed} mode {mode:?}"
                );
                assert_eq!(batched.stats.witness_failures, 0);
                assert_eq!(per_cop.stats.witness_failures, 0);
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let report = RaceDetector::new().detect(&figure1_trace());
        assert_eq!(report.stats.windows, 1);
        assert!(report.stats.cops_solved >= 1);
        assert!(report.stats.qc_signatures >= 1);
        assert!(report.stats.sat >= 1);
    }

    #[test]
    fn injected_panic_fails_window_without_killing_run() {
        use crate::config::{Fault, FaultPlan};
        use std::sync::Arc;
        let cfg = DetectorConfig {
            fault_plan: Some(Arc::new(FaultPlan::new().inject(0, 0, Fault::Panic))),
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&figure1_trace());
        assert_eq!(report.stats.windows, 1);
        assert_eq!(report.stats.failed_windows, 1);
        assert_eq!(report.failed_windows.len(), 1);
        assert!(report.failed_windows[0].reason.contains("injected fault"));
        assert_eq!(report.n_races(), 0, "the only window failed");
        assert!(report.is_degraded());
    }

    #[test]
    fn injected_soft_faults_are_tallied_as_undecided() {
        use crate::config::{Fault, FaultPlan};
        use crate::report::UndecidedReason;
        use std::sync::Arc;
        // Two independent racy pairs (distinct signatures) ⇒ two COPs in
        // the window's solve order, so both fault coordinates fire.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, x, 1);
        b.read(t2, x, 1);
        b.write(t1, y, 1);
        b.read(t2, y, 1);
        let trace = b.finish();
        let plan = FaultPlan::new()
            .inject(0, 0, Fault::Timeout)
            .inject(0, 1, Fault::EncodeError);
        let cfg = DetectorConfig {
            fault_plan: Some(Arc::new(plan)),
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(report.stats.failed_windows, 0);
        assert!(report.stats.undecided >= 2, "{report}");
        assert_eq!(
            report.stats.undecided_by_reason[&UndecidedReason::Timeout],
            1
        );
        assert_eq!(
            report.stats.undecided_by_reason[&UndecidedReason::EncodeError],
            1
        );
        assert!(report.is_degraded());
    }

    #[test]
    fn retry_split_rescues_injected_timeout() {
        use crate::config::{Fault, FaultPlan};
        use std::sync::Arc;
        // Figure 1 has one racy COP; force its solve to "time out", then
        // let the retry policy re-solve it in a half window. The race's
        // two events both land in one half only if the window splits
        // around them — use a trace where the racy pair is adjacent at
        // the front and pad the back half with race-free filler.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.write(t1, x, 1);
        b.read(t2, x, 1);
        for i in 0..8 {
            b.write(t1, y, i); // same-thread filler: no new COPs
        }
        let trace = b.finish();
        let base = RaceDetector::new().detect(&trace);
        assert_eq!(base.n_races(), 1, "sanity: the pair races");

        let plan = Some(Arc::new(FaultPlan::new().inject(0, 0, Fault::Timeout)));
        let without_retry = RaceDetector::with_config(DetectorConfig {
            fault_plan: plan.clone(),
            ..Default::default()
        })
        .detect(&trace);
        assert_eq!(without_retry.n_races(), 0);
        assert_eq!(without_retry.stats.undecided, 1);
        assert_eq!(without_retry.stats.retried_cops, 0);

        let with_retry = RaceDetector::with_config(DetectorConfig {
            fault_plan: plan,
            retry_split: true,
            ..Default::default()
        })
        .detect(&trace);
        assert_eq!(with_retry.stats.retried_cops, 1);
        assert_eq!(with_retry.n_races(), 1, "{with_retry}");
        assert_eq!(with_retry.stats.undecided, 0);
        assert!(!with_retry.is_degraded());
    }

    #[test]
    fn faulted_reports_identical_across_thread_counts() {
        use crate::config::{Fault, FaultPlan};
        use std::sync::Arc;
        // Many small windows + a mixed fault plan: the merged report must
        // render byte-identically at every parallelism level.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for i in 0..12 {
            b.write(t1, x, i);
            b.read(t2, x, i);
            b.write(t2, y, i);
            b.read(t1, y, i);
        }
        let trace = b.finish();
        let plan = Arc::new(
            FaultPlan::new()
                .inject(1, 0, Fault::Panic)
                .inject(2, 0, Fault::Timeout)
                .inject(3, 1, Fault::EncodeError),
        );
        let summaries: Vec<String> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|workers| {
                let cfg = DetectorConfig {
                    window_size: 8,
                    parallelism: workers,
                    fault_plan: Some(plan.clone()),
                    ..Default::default()
                };
                RaceDetector::with_config(cfg)
                    .detect(&trace)
                    .deterministic_summary()
            })
            .collect();
        assert!(summaries[0].contains("failed=1"), "{}", summaries[0]);
        for s in &summaries[1..] {
            assert_eq!(&summaries[0], s);
        }
    }

    /// A multi-window trace with a racy pair in (at least) the first and
    /// last windows under `window_size`.
    fn multi_window_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        for i in 0..16 {
            b.write(t1, x, i);
            b.read(t2, x, i);
            b.write(t2, y, i);
            b.read(t1, y, i);
        }
        b.finish()
    }

    #[test]
    fn detect_is_identical_and_residency_bounded_at_every_worker_count() {
        let trace = multi_window_trace();
        let cfg = |workers| DetectorConfig {
            window_size: 2,
            parallelism: workers,
            ..Default::default()
        };
        let serial = RaceDetector::with_config(cfg(1)).detect(&trace);
        assert!(serial.n_races() >= 1, "sanity: the workload races");
        assert!(serial.stats.windows >= 30, "{}", serial.stats.windows);
        for workers in [1usize, 2, 4, 8] {
            let report = RaceDetector::with_config(cfg(workers)).detect(&trace);
            assert_eq!(
                report.deterministic_summary(),
                serial.deterministic_summary(),
                "workers={workers}"
            );
            // Queue (workers + 2), one job per worker, one being
            // dispatched: never the whole trace's windows at once.
            assert!(
                report.stats.peak_window_residency <= 2 * workers + 3,
                "workers={workers} peak={}",
                report.stats.peak_window_residency
            );
            assert!(report.stats.time_to_first_race.is_some());
        }
    }

    #[test]
    fn stream_detection_matches_whole_file_for_both_formats() {
        let trace = multi_window_trace();
        let cfg = || DetectorConfig {
            window_size: 8,
            parallelism: 2,
            ..Default::default()
        };
        let eager = RaceDetector::with_config(cfg()).detect(&trace);
        for input in [rvtrace::to_json(&trace), rvtrace::to_ndjson(&trace)] {
            let streamed = RaceDetector::with_config(cfg())
                .detect_stream(input.as_bytes())
                .unwrap();
            assert_eq!(
                streamed.report.deterministic_summary(),
                eager.deterministic_summary()
            );
            assert_eq!(streamed.trace.events(), trace.events());
            assert_eq!(streamed.ingest.bytes, input.len());
            assert_eq!(streamed.ingest.events, trace.len());
            assert!(streamed.report.stats.ingest_overlap.is_some());
        }
    }

    #[test]
    fn stream_detection_handles_empty_and_partial_windows() {
        // Shorter than one window, and an exact multiple of the window
        // size: the streamed window count must match the eager one.
        let trace = multi_window_trace(); // 65 events with the fork
        for window_size in [usize::MAX, 65, 13] {
            let cfg = || DetectorConfig {
                window_size,
                parallelism: 2,
                ..Default::default()
            };
            let eager = RaceDetector::with_config(cfg()).detect(&trace);
            let streamed = RaceDetector::with_config(cfg())
                .detect_stream(rvtrace::to_ndjson(&trace).as_bytes())
                .unwrap();
            assert_eq!(
                streamed.report.deterministic_summary(),
                eager.deterministic_summary(),
                "window_size={window_size}"
            );
        }
        // Zero events, valid document.
        let empty = "{\"events\":[],\"initial_values\":{},\"volatiles\":[],\
                     \"wait_links\":[],\"loc_names\":{},\"var_names\":{}}";
        let streamed = RaceDetector::new().detect_stream(empty.as_bytes()).unwrap();
        assert_eq!(streamed.report.stats.windows, 0);
        assert_eq!(streamed.report.n_races(), 0);
        assert!(streamed.trace.is_empty());
    }

    #[test]
    fn stream_detection_propagates_parse_and_validation_errors() {
        let trace = multi_window_trace();
        let json = rvtrace::to_json(&trace);
        let cut = &json[..json.len() / 2];
        let whole = rvtrace::from_json(cut).unwrap_err();
        let streamed = RaceDetector::new()
            .detect_stream(cut.as_bytes())
            .unwrap_err();
        assert_eq!(streamed.message, whole.message);
        assert_eq!(streamed.offset, whole.offset);

        let bad_links = "{\"events\":[{\"thread\":0,\"kind\":\"Branch\",\"loc\":0}],\
             \"initial_values\":{},\"volatiles\":[],\
             \"wait_links\":[{\"release\":0,\"acquire\":99,\"notify\":null}],\
             \"loc_names\":{},\"var_names\":{}}";
        let err = RaceDetector::new()
            .detect_stream(bad_links.as_bytes())
            .unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// A racy pair astride the window-size-3 boundary: the write's last
    /// occurrence and the read land in different windows, with nothing
    /// in the read's window to conflict with.
    fn straddling_pair_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        b.write_at(t1, x, 1, lw);
        for i in 0..10 {
            b.write_at(t1, x, i + 2, lw); // same-thread filler, one signature
        }
        b.read_at(t2, x, 11, lr);
        b.finish()
    }

    #[test]
    fn cone_mode_finds_the_straddling_race_fixed_misses() {
        let trace = straddling_pair_trace();
        let cfg = |mode| DetectorConfig {
            window_size: 3,
            window_mode: mode,
            ..Default::default()
        };
        let fixed = RaceDetector::with_config(cfg(WindowMode::Fixed)).detect(&trace);
        assert_eq!(fixed.n_races(), 0, "fixed windows cannot see the pair");
        let cone = RaceDetector::with_config(cfg(WindowMode::Cone)).detect(&trace);
        assert_eq!(cone.n_races(), 1, "{cone}");
        assert!(cone.stats.straddle_cops >= 1);
        assert_eq!(cone.stats.straddle_races, 1);
        assert!(cone.stats.spill_peak_events > 0);
        // The race is attributed to the extended view, which starts
        // before the final window.
        let race = &cone.races[0];
        assert!(race.window.start < race.window.end);
        assert!(race.window.start < trace.len() - (trace.len() % 3).max(1));
        // The whole-trace verdict agrees: this is a real race, and with
        // one shared location pair, one signature.
        let whole = RaceDetector::new().detect(&trace);
        assert_eq!(whole.n_races(), 1);
        assert_eq!(whole.races[0].signature, cone.races[0].signature);
    }

    /// Every conflicting pair sits inside its own window: var groups of
    /// four events aligned to the window size, with a padded first window.
    fn non_straddling_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let pad = b.var("pad");
        let warm = b.var("warm");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        // t2's implicit Begin fires here, inside window 0; `warm` is
        // private to t2, `pad` to t1, so neither can straddle.
        b.write(t2, warm, 0);
        b.write(t1, pad, 0); // fork + begin + warm + pad fill window 0
        for w in 0..4i64 {
            let v = b.var(&format!("v{w}"));
            b.write(t1, v, w);
            b.read(t2, v, w);
            b.write(t1, v, w + 1);
            b.read(t2, v, w + 1);
        }
        b.finish()
    }

    #[test]
    fn cone_mode_is_byte_identical_to_fixed_on_non_straddling_traces() {
        let trace = non_straddling_trace();
        for workers in [1usize, 4] {
            let cfg = |mode| DetectorConfig {
                window_size: 4,
                parallelism: workers,
                window_mode: mode,
                ..Default::default()
            };
            let fixed = RaceDetector::with_config(cfg(WindowMode::Fixed)).detect(&trace);
            let cone = RaceDetector::with_config(cfg(WindowMode::Cone)).detect(&trace);
            assert!(fixed.n_races() >= 1, "sanity: the workload races");
            assert_eq!(
                cone.deterministic_summary(),
                fixed.deterministic_summary(),
                "workers={workers}"
            );
            assert_eq!(cone.stats.straddle_cops, 0);
            assert_eq!(cone.stats.spill_peak_events, 0);
        }
    }

    #[test]
    fn spill_budget_zero_degrades_straddles_to_boundary_budget() {
        let trace = straddling_pair_trace();
        let cfg = DetectorConfig {
            window_size: 3,
            window_mode: WindowMode::Cone,
            spill_budget: 0,
            ..Default::default()
        };
        let report = RaceDetector::with_config(cfg).detect(&trace);
        assert_eq!(report.n_races(), 0, "no solving past the budget floor");
        assert!(report.stats.boundary_over_budget >= 1, "{report}");
        assert_eq!(report.stats.straddle_cops, 0);
        assert!(report.stats.undecided >= 1, "degradation is not silent");
        assert!(report.is_degraded());
        assert!(
            report.deterministic_summary().contains("boundary:"),
            "{}",
            report.deterministic_summary()
        );
    }

    #[test]
    fn straddle_dedup_is_deterministic_across_worker_counts_and_drivers() {
        // The same signature races in-window (window 0) *and* astride a
        // later boundary: the straddling duplicate must dedup identically
        // whether windows were solved in memory, streamed, or by a session
        // on the shared pool.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let y = b.var("y");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        let lw = b.loc("w");
        let lr = b.loc("r");
        b.write_at(t1, x, 1, lw);
        b.read_at(t2, x, 1, lr); // in-window race, window 0
        for i in 0..6 {
            b.write(t1, y, i); // filler to cross a boundary
        }
        b.write_at(t1, x, 2, lw); // same signature again...
        for i in 0..3 {
            b.write(t1, y, i + 6);
        }
        b.read_at(t2, x, 2, lr); // ...read astride the next boundary
        let trace = b.finish();
        let summaries: Vec<String> = [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|workers| {
                let cfg = || DetectorConfig {
                    window_size: 4,
                    parallelism: workers,
                    ..Default::default()
                };
                let ndjson = rvtrace::to_ndjson(&trace);
                let whole = RaceDetector::with_config(cfg()).detect(&trace);
                let streamed = RaceDetector::with_config(cfg())
                    .detect_stream(ndjson.as_bytes())
                    .unwrap();
                let manager = crate::SessionManager::new(workers);
                let mut session = manager.open_session(crate::SessionConfig {
                    detector: cfg(),
                    ..Default::default()
                });
                session.feed(ndjson.as_bytes()).unwrap();
                let pooled = session.finish().unwrap();
                [
                    whole.deterministic_summary(),
                    streamed.report.deterministic_summary(),
                    pooled.report.deterministic_summary(),
                ]
            })
            .collect();
        for s in &summaries[1..] {
            assert_eq!(&summaries[0], s);
        }
        assert!(summaries[0].contains("races=1"), "{}", summaries[0]);
    }

    #[test]
    fn straddle_pass_respects_tier_and_slice_toggles() {
        let trace = straddling_pair_trace();
        let mut baseline: Option<usize> = None;
        for (tiers, slice) in [(true, true), (true, false), (false, true), (false, false)] {
            let cfg = DetectorConfig {
                window_size: 3,
                tiers,
                slice,
                ..Default::default()
            };
            let report = RaceDetector::with_config(cfg).detect(&trace);
            let races = report.n_races();
            assert_eq!(
                *baseline.get_or_insert(races),
                races,
                "tiers={tiers} slice={slice}"
            );
            assert_eq!(races, 1, "tiers={tiers} slice={slice}");
        }
    }
}
