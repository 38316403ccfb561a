//! Detector configuration, including the deterministic fault-injection
//! plan used by the robustness test suite.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Which read-write consistency discipline the encoder enforces
/// (paper §3.2 vs. the Said et al. baseline of §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// The paper's technique: branch events determine which reads must stay
    /// concretely feasible — only reads with control flow *to the race
    /// events* are constrained, recursively through justifying writes.
    #[default]
    ControlFlow,
    /// Said et al. [30]: every read in the window must return the same value
    /// as in the original trace (whole-trace read-write consistency); branch
    /// events are ignored. Sound but non-maximal.
    WholeTrace,
}

/// How the detector bounds each window's view (CLI `--window-mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowMode {
    /// Fixed `window_size`-event windows: a COP whose partner fell in an
    /// earlier window is silently invisible (the pre-PR 8 behavior,
    /// kept for A/B checks).
    Fixed,
    /// Dependence-bounded windows: boundary-straddling COPs are
    /// enumerated from per-thread last-access summaries and solved on a
    /// lazily grown extended view reaching back along their cone of
    /// influence, capped by [`DetectorConfig::spill_budget`]. On traces
    /// with no straddling conflicting pair this is byte-identical to
    /// [`WindowMode::Fixed`].
    #[default]
    Cone,
}

/// Approximate retained bytes per spill event: the budget → event-count
/// conversion used by [`DetectorConfig::spill_events`]. Chosen as the
/// order of one [`Event`](rvtrace::Event) plus its share of the boundary
/// checkpoints; a semantic constant, deliberately identical across
/// drivers so plans (and therefore reports) never depend on allocator
/// details.
pub const SPILL_EVENT_BYTES: usize = 64;

/// A fault to inject at one (window, COP) coordinate. Test-only: lets the
/// robustness suite prove that detection degrades gracefully — and
/// deterministically, at every thread count — without relying on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the window worker while it processes this COP. The
    /// driver isolates the panic; the whole window becomes a
    /// [`FailedWindow`](crate::report::FailedWindow) record.
    Panic,
    /// Pretend the per-COP wall-clock budget was exhausted: the COP's
    /// verdict becomes `Undecided(Timeout)` without solving.
    Timeout,
    /// Pretend constraint encoding failed: the COP's verdict becomes
    /// `Undecided(EncodeError)` without solving.
    EncodeError,
}

/// A deterministic fault-injection plan: faults keyed by
/// `(window index, COP index in the window's solve order)`.
///
/// Intended for tests only — build one, put it in
/// [`DetectorConfig::fault_plan`], and detection will hit the planned
/// faults at exactly those coordinates on every run and at every
/// `parallelism` setting. When a plan is present the detector disables the
/// cross-window published-signature skip: the *reports* are deterministic
/// with the skip on (merge-order dedup and the straddle pass's shared
/// confirmed set see to that, in both window modes), but *which* COP
/// index gets skipped before solving depends on how far ahead other
/// workers have published, and fault coordinates key on those solve-order
/// indices. With the skip off, coordinates land on the same COPs
/// regardless of worker scheduling; everything else behaves as in
/// production.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize), Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Plans `fault` at `(window, cop)`; builder-style.
    pub fn inject(mut self, window: usize, cop: usize, fault: Fault) -> Self {
        self.faults.insert((window, cop), fault);
        self
    }

    /// The fault planned at `(window, cop)`, if any.
    pub fn fault_at(&self, window: usize, cop: usize) -> Option<Fault> {
        self.faults.get(&(window, cop)).copied()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Configuration of the maximal race detector.
///
/// The defaults mirror the paper's implementation notes (§4–5): 10K-event
/// windows, 60-second per-COP solver budget, hybrid quick check on, race
/// deduplication by signature on.
#[derive(Debug, Clone)]
pub struct DetectorConfig {
    /// Window size in events (paper §4: "typically 10K").
    pub window_size: usize,
    /// Per-COP solver wall-clock budget (paper §4: one minute).
    pub solver_timeout: Duration,
    /// Per-COP solver conflict budget (a deterministic backstop the paper
    /// does not need because it bounds wall-clock time only).
    pub max_conflicts: Option<u64>,
    /// Run the hybrid lockset + weak-HB quick check before building
    /// constraints (paper §4).
    pub quick_check: bool,
    /// Once a COP is reported as a race, prune all other COPs with the same
    /// signature (paper §4).
    pub dedup_signatures: bool,
    /// Apply the MHB-based pruning of read-match write sets (paper §3.2,
    /// last paragraph). Turning this off is only useful for ablation.
    pub prune_write_sets: bool,
    /// Consistency discipline.
    pub mode: ConsistencyMode,
    /// Relevance slicing: encode each COP only over its cone of influence
    /// (the MHB prefix closure of the accesses plus the `cf`-reachable
    /// reads and cone-held lock regions), instead of the whole window.
    /// Verdict-preserving; exposed as CLI `--no-slice` for A/B checks. No
    /// effect under [`ConsistencyMode::WholeTrace`].
    pub slice: bool,
    /// Run the tiered pre-solver screens before encoding (ROADMAP item 1):
    /// Tier A soundly confirms sync-preserving races, Tier B soundly
    /// refutes entailment-ordered COPs, and only the residue reaches the
    /// solver. Verdict-preserving; exposed as CLI `--no-tiers` for A/B
    /// checks.
    pub tiers: bool,
    /// Validate every witness schedule against the trace-consistency checker
    /// before reporting a race (operationalizes Thm. 1/3; cheap).
    pub validate_witnesses: bool,
    /// Seed SAT decision phases from the original trace order (the observed
    /// trace is a near-model of `Φ_mhb ∧ Φ_lock`); off only for ablation.
    pub phase_hints: bool,
    /// Batch all of a window's COPs into one incremental solver with
    /// per-COP selector assumptions, sharing the base encoding and learnt
    /// clauses (instead of re-encoding and re-solving per COP). Same
    /// verdicts, much less work; off only for ablation.
    pub batch_windows: bool,
    /// Keep one incremental solver session resident per window and retain
    /// learnt clauses across COP queries. In batch mode this is the shared
    /// selector-assumption solver; in per-COP mode it switches the driver
    /// to an incremental session that encodes the window's union cone once
    /// and discharges each residue COP as an assumption set instead of
    /// encoding from scratch. Retained clauses are sound to keep because
    /// assumptions are never asserted: every learnt clause is implied by
    /// the shared skeleton alone (see DESIGN.md, "Hot path"). Same
    /// verdicts; exposed as CLI `--no-incremental` for ablation.
    pub incremental: bool,
    /// Race the incremental SMT encoding against the tier screens per COP
    /// on a cloned solver, first verdict wins (CLI `--portfolio`).
    /// Implies per-COP incremental sessions (`batch_windows` off,
    /// `incremental` on). Cancelled solver results are always discarded
    /// and screen verdicts are adopted with zero solver effort, so
    /// reports, count-type metrics and witnesses are byte-identical with
    /// portfolio on or off at any `parallelism`. Off by default.
    pub portfolio: bool,
    /// Upper bound on concrete COPs kept per signature per window: once a
    /// signature has this many, further pairs with that signature are
    /// dropped. It bounds the COPs handed to the tiers and the solver, not
    /// the pairs scanned — enumeration still visits every same-variable
    /// write×write and write×read pair.
    pub max_cops_per_signature: usize,
    /// Number of worker threads solving windows concurrently. `1` runs the
    /// fully serial driver; the default is the machine's available
    /// parallelism. Reports are deterministic regardless of this value:
    /// window outcomes are merged in window order and deduplicated at merge
    /// time (see `RaceDetector::detect`).
    pub parallelism: usize,
    /// One-shot retry policy for budget exhaustion: a COP whose solve came
    /// back `Undecided(Timeout)` is re-encoded and re-solved once against
    /// the half-size sub-window containing both its events (smaller window
    /// ⇒ smaller formula). COPs spanning the midpoint keep their
    /// `Undecided` verdict. Off by default.
    pub retry_split: bool,
    /// Per-*window* wall-clock budget (CLI `--timeout-ms`; the daemon's
    /// per-tenant budget). When the deadline passes mid-window, every COP
    /// not yet decided is recorded as `Undecided(Timeout)` — the PR 2
    /// degradation path — in both the per-COP and batched solve modes, and
    /// the remaining per-COP solver budget is clamped to the window's
    /// remaining time. `None` (the default) means unbounded.
    pub window_timeout: Option<Duration>,
    /// Deterministic fault-injection plan (tests only; `None` in
    /// production). See [`FaultPlan`].
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Window bounding discipline: fixed event-count windows, or
    /// dependence-bounded windows that extend across boundaries along
    /// each straddling COP's cone of influence (CLI
    /// `--window-mode fixed|cone`; `cone` is the default).
    pub window_mode: WindowMode,
    /// Byte budget for cross-boundary lookback in [`WindowMode::Cone`]
    /// (CLI `--spill-budget`). Converted to an event-count cap via
    /// [`SPILL_EVENT_BYTES`]; a straddling COP whose partner lies beyond
    /// the cap degrades to `Undecided(boundary-budget)` instead of being
    /// solved on a truncated view. The default (4 MiB) covers ~65K
    /// events — several default windows of lookback.
    pub spill_budget: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            window_size: 10_000,
            solver_timeout: Duration::from_secs(60),
            max_conflicts: None,
            quick_check: true,
            dedup_signatures: true,
            prune_write_sets: true,
            mode: ConsistencyMode::ControlFlow,
            slice: true,
            tiers: true,
            validate_witnesses: true,
            phase_hints: true,
            batch_windows: true,
            incremental: true,
            portfolio: false,
            max_cops_per_signature: 10,
            parallelism: default_parallelism(),
            retry_split: false,
            window_timeout: None,
            fault_plan: None,
            window_mode: WindowMode::Cone,
            spill_budget: 4 << 20,
        }
    }
}

/// The default worker count: one per available core.
fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl DetectorConfig {
    /// The configuration used for the Said et al. baseline: identical
    /// machinery, whole-trace consistency.
    pub fn said_baseline() -> Self {
        DetectorConfig {
            mode: ConsistencyMode::WholeTrace,
            ..Default::default()
        }
    }

    /// The cross-boundary lookback cap in *events*:
    /// [`spill_budget`](DetectorConfig::spill_budget) bytes divided by
    /// [`SPILL_EVENT_BYTES`]. Zero in [`WindowMode::Fixed`] — fixed
    /// windows never look back.
    pub fn spill_events(&self) -> usize {
        match self.window_mode {
            WindowMode::Fixed => 0,
            WindowMode::Cone => self.spill_budget / SPILL_EVENT_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DetectorConfig::default();
        assert_eq!(c.window_size, 10_000);
        assert_eq!(c.solver_timeout, Duration::from_secs(60));
        assert!(c.quick_check && c.dedup_signatures && c.prune_write_sets);
        assert!(c.slice, "relevance slicing is on by default");
        assert!(c.tiers, "the tiered cascade is on by default");
        assert!(
            c.incremental,
            "incremental solver sessions are on by default"
        );
        assert!(!c.portfolio, "portfolio racing is opt-in");
        assert_eq!(c.mode, ConsistencyMode::ControlFlow);
        assert!(c.parallelism >= 1, "at least one worker");
        assert!(!c.retry_split, "retry policy is opt-in");
        assert!(c.window_timeout.is_none(), "window budget is opt-in");
        assert!(c.fault_plan.is_none(), "no faults in production configs");
        assert_eq!(c.window_mode, WindowMode::Cone, "cross-window on");
        assert_eq!(c.spill_budget, 4 << 20);
        assert_eq!(c.spill_events(), 65_536);
    }

    #[test]
    fn fixed_mode_never_looks_back() {
        let c = DetectorConfig {
            window_mode: WindowMode::Fixed,
            ..Default::default()
        };
        assert_eq!(c.spill_events(), 0);
    }

    #[test]
    fn fault_plan_coordinates() {
        let plan = FaultPlan::new()
            .inject(0, 2, Fault::Panic)
            .inject(3, 0, Fault::Timeout);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.fault_at(0, 2), Some(Fault::Panic));
        assert_eq!(plan.fault_at(3, 0), Some(Fault::Timeout));
        assert_eq!(plan.fault_at(1, 1), None);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn said_baseline_differs_only_in_mode() {
        let c = DetectorConfig::said_baseline();
        assert_eq!(c.mode, ConsistencyMode::WholeTrace);
        assert_eq!(c.window_size, DetectorConfig::default().window_size);
    }
}
