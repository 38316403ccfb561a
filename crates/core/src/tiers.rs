//! Tiered pre-solver screens (ROADMAP item 1): sound near-linear analyses
//! that *decide* COPs before the Φ encoding is ever built.
//!
//! Two screens run per window, per COP, ahead of the SMT core:
//!
//! * **Tier A — sync-preserving confirmation** (after SyncP, Mathur /
//!   Pavlogiannis / Viswanathan): builds the candidate reordering that
//!   schedules exactly the MHB-prefixes of the two accesses and then the
//!   accesses back to back, and *replays* it against the window — thread
//!   projections, fork/join, lock mutual exclusion, wait/notify matching
//!   (including the encoder's cross-link non-overlap constraint, which
//!   [`check_schedule`] alone does not enforce), and read-value
//!   preservation for every read the consistency mode constrains. When the
//!   replay succeeds the schedule *is* a model of `Φ`, so the COP is a
//!   race without a solver call.
//! * **Tier B — entailment refutation** (WCP/weak-HB flavored): computes
//!   the order edges `Φ_mhb ∧ Φ_lock ∧ π_cf` *entails* — program order,
//!   fork/join, wait links, one-sided lock disjunctions, unique-justifier
//!   read matches and their interference edges — and refutes the COP when
//!   the entailed order already contradicts the race adjacency (a path
//!   `second → first`, or any event strictly between the two). Every edge
//!   is a consequence of the formula, so refutation implies the solver
//!   would answer `Unsat`.
//!
//! Whatever neither screen decides is the *residue* that reaches the
//! existing sliced Φ encoding unchanged. Both screens are window-local and
//! deterministic, so reports stay byte-identical to solver-only mode at
//! any worker count; [`decide`](TierAnalysis::decide) runs the refuter
//! first because it is the cheaper screen, but attribution is always
//! `Tier::A` for confirmations and `Tier::B` for refutations.
//!
//! Soundness arguments for each screen are spelled out in DESIGN.md
//! ("Tiered cascade").

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use rvtrace::{
    check_schedule, schedule_read_values, Cop, EventId, EventKind, Schedule, View, WaitLink,
};

use crate::config::ConsistencyMode;
use crate::encoder::write_sets;

#[cfg(test)]
mod reference;

/// Which stage of the detection cascade decided a COP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// The sync-preserving confirmation screen.
    A,
    /// The entailment refutation screen.
    B,
    /// The SMT core (the residue path, and every fault-forced verdict).
    Solver,
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tier::A => write!(f, "tier-a"),
            Tier::B => write!(f, "tier-b"),
            Tier::Solver => write!(f, "solver"),
        }
    }
}

/// The cascade's verdict for one COP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierDecision {
    /// Tier A found a consistent reordering racing the pair: the COP is a
    /// race (the witness still comes from the canonical re-solve path).
    Confirmed,
    /// Tier B proved no sound reordering races the pair: `Φ` is `Unsat`.
    Refuted,
    /// Neither screen decided; the COP goes to the solver.
    Residue,
}

/// Entailed order facts of one read's match constraint: either the
/// disjunction is empty (`refute`), or it has a unique disjunct whose
/// conjuncts become unconditional `edges` and forced-feasible `forces`.
#[derive(Debug, Clone, Default)]
struct ReadFacts {
    refute: bool,
    edges: Vec<(EventId, EventId)>,
    forces: Vec<EventId>,
}

/// A both-disjunct lock-span pair `(r1, a2, r2, a1)` standing for the
/// assertion `O_r1 < O_a2 ∨ O_r2 < O_a1`.
type CsPair = (EventId, EventId, EventId, EventId);

/// A *conditional* lock-span pair, mirroring `encode_lock_conditional`:
/// `d1 ∨ d2 ∨ D < O_h1 ∨ D < O_h2` where `d1 = (r1 < a2)`,
/// `d2 = (r2 < a1)` and `D` is the per-COP cut. Used in the maximal
/// (ControlFlow) mode, where a span acquired past the racing pair needs no
/// serialization — so no span pair may become an unconditional base edge.
#[derive(Debug, Clone, Copy)]
struct CondPair {
    d1: Option<(EventId, EventId)>,
    d2: Option<(EventId, EventId)>,
    h1: Option<EventId>,
    h2: Option<EventId>,
}

/// Upper bound on both-disjunct lock pairs kept as E2 candidates: bounds
/// the quadratic span enumeration on hot locks. Dropping candidates only
/// loses refutation power, never soundness.
const MAX_CS_PAIRS: usize = 256;

/// Bound on per-COP lock-disjunction propagation rounds.
const MAX_E2_ROUNDS: usize = 3;

/// `fact_slot` entry of a read whose facts are not computed yet.
const NO_FACTS: u32 = u32::MAX;

/// The per-window tier state: the entailed base order graph, memoized
/// per-read facts, the wait links and undischarged lock disjunctions, the
/// per-COP scratch every refutation reuses, and the per-tier time
/// accumulators the detector folds into its report.
#[derive(Debug)]
pub struct TierAnalysis<'a> {
    view: &'a View<'a>,
    mode: ConsistencyMode,
    prune: bool,
    start: u32,
    n: usize,
    /// Entailed base edges (dense index), forward and reverse.
    fwd: Vec<Vec<u32>>,
    rev: Vec<Vec<u32>>,
    /// True while every base edge points forward in trace order (checked
    /// per edge as the graph is built). Reachability queries are then
    /// bounded by trace order; see DESIGN.md, "Tiered cascade".
    base_forward: bool,
    /// True when the window formula is `Unsat` regardless of the COP.
    refute_all: bool,
    /// Complete in-view wait links (the exact set the encoder constrains).
    links: Vec<WaitLink>,
    /// Both-disjunct lock pairs left undischarged by the base fixpoint
    /// (whole-trace mode only).
    cs_pairs: Vec<CsPair>,
    /// Conditional lock pairs, discharged per COP against the cut
    /// (ControlFlow mode only).
    cond_pairs: Vec<CondPair>,
    /// Memoized read facts: `facts[fact_slot[i]]` belongs to the read at
    /// dense index `i` (`NO_FACTS` until first asked for).
    fact_slot: Vec<u32>,
    facts: Vec<ReadFacts>,
    tier_a_time: Duration,
    tier_b_time: Duration,
    // Per-window scratch, reused by every COP. Marks are epoch-stamped, so
    // no query clears them.
    mark_fwd: Vec<u32>,
    mark_rev: Vec<u32>,
    mark_seen: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
    /// The current COP's extra edges (dense adjacency, forward and
    /// reverse), empty between COPs; `touched` lists the nodes to clear.
    extra_fwd: Vec<Vec<u32>>,
    extra_rev: Vec<Vec<u32>>,
    touched: Vec<u32>,
    /// True while every extra edge of the current COP points forward in
    /// trace order.
    extra_forward: bool,
    /// Adjacency tests that had to flood the whole window (test-only
    /// coverage probe for the fallback path).
    #[cfg(test)]
    unbounded_tests: usize,
}

impl<'a> TierAnalysis<'a> {
    /// Builds the base entailment graph for `view`: program order, fork →
    /// begin, end → join, wait links, single-disjunct lock orderings,
    /// whole-trace read matches (in [`ConsistencyMode::WholeTrace`]), and
    /// the fixpoint of lock disjunctions already discharged by those edges.
    pub fn new(view: &'a View<'a>, mode: ConsistencyMode, prune: bool) -> Self {
        let n = view.len();
        let start = view.range().start as u32;
        let mut a = TierAnalysis {
            view,
            mode,
            prune,
            start,
            n,
            fwd: vec![Vec::new(); n],
            rev: vec![Vec::new(); n],
            base_forward: true,
            refute_all: false,
            links: Vec::new(),
            cs_pairs: Vec::new(),
            cond_pairs: Vec::new(),
            fact_slot: vec![NO_FACTS; n],
            facts: Vec::new(),
            tier_a_time: Duration::ZERO,
            tier_b_time: Duration::ZERO,
            mark_fwd: vec![0; n],
            mark_rev: vec![0; n],
            mark_seen: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
            extra_fwd: vec![Vec::new(); n],
            extra_rev: vec![Vec::new(); n],
            touched: Vec::new(),
            extra_forward: true,
            #[cfg(test)]
            unbounded_tests: 0,
        };
        let t0 = Instant::now();
        a.build_base();
        a.tier_b_time += t0.elapsed();
        a
    }

    #[inline]
    fn idx(&self, e: EventId) -> u32 {
        e.0 - self.start
    }

    fn add_edge(&mut self, from: EventId, to: EventId) {
        let (f, t) = (self.idx(from), self.idx(to));
        self.base_forward &= f < t;
        self.fwd[f as usize].push(t);
        self.rev[t as usize].push(f);
    }

    fn build_base(&mut self) {
        let view = self.view;
        let trace = view.trace();
        // Program order: adjacent pairs suffice (reachability is
        // transitive, like the encoder's IDL `<`).
        for &t in trace.threads() {
            let evs: Vec<EventId> = view.thread_events(t).to_vec();
            for w in evs.windows(2) {
                self.add_edge(w[0], w[1]);
            }
        }
        // fork→begin and end→join edges within the view.
        let mut fork_of: HashMap<rvtrace::ThreadId, EventId> = HashMap::new();
        let mut end_of: HashMap<rvtrace::ThreadId, EventId> = HashMap::new();
        for id in view.ids() {
            match view.event(id).kind {
                EventKind::Fork { child } => {
                    fork_of.insert(child, id);
                }
                EventKind::End => {
                    end_of.insert(view.event(id).thread, id);
                }
                _ => {}
            }
        }
        for id in view.ids() {
            match view.event(id).kind {
                EventKind::Begin => {
                    if let Some(&f) = fork_of.get(&view.event(id).thread) {
                        self.add_edge(f, id);
                    }
                }
                EventKind::Join { child } => {
                    if let Some(&e) = end_of.get(&child) {
                        self.add_edge(e, id);
                    }
                }
                _ => {}
            }
        }
        // Complete in-view wait links: release < notify < re-acquire.
        let in_view = |e: EventId| view.contains(e);
        self.links = trace
            .wait_links()
            .iter()
            .filter(|wl| {
                in_view(wl.release)
                    && in_view(wl.acquire)
                    && wl.notify.map(in_view).unwrap_or(false)
            })
            .copied()
            .collect();
        for wl in self.links.clone() {
            let n = wl.notify.expect("filtered");
            self.add_edge(wl.release, n);
            self.add_edge(n, wl.acquire);
        }
        // Lock spans. Whole-trace mode matches the unconditional `Φ_lock`:
        // one-sided disjunctions are unconditional edges, the degenerate
        // (both endpoints missing) case is `ff`, and two-sided disjunctions
        // become E2 candidates (deterministic order, capped). The maximal
        // mode matches the *conditional* `Φ_lock` instead: every pair keeps
        // its acquire escape hatches and is discharged per COP, because a
        // span acquired past the racing pair constrains nothing. Pairs past
        // the cap are dropped: that loses refutation power only, never
        // soundness.
        for lock_idx in 0..trace.n_locks() as u32 {
            let spans = view.critical_sections(rvtrace::LockId(lock_idx)).to_vec();
            for i in 0..spans.len() {
                for j in i + 1..spans.len() {
                    let (s1, s2) = (&spans[i], &spans[j]);
                    if s1.thread == s2.thread {
                        continue;
                    }
                    if self.mode == ConsistencyMode::ControlFlow {
                        let p = CondPair {
                            d1: s1.release.zip(s2.acquire),
                            d2: s2.release.zip(s1.acquire),
                            h1: s1.acquire,
                            h2: s2.acquire,
                        };
                        if p.d1.is_none() && p.d2.is_none() && p.h1.is_none() && p.h2.is_none() {
                            self.refute_all = true; // empty disjunction: ff
                        } else if self.cond_pairs.len() < MAX_CS_PAIRS {
                            self.cond_pairs.push(p);
                        }
                        continue;
                    }
                    match (s1.release, s2.acquire, s2.release, s1.acquire) {
                        (Some(r1), Some(a2), Some(r2), Some(a1)) => {
                            if self.cs_pairs.len() < MAX_CS_PAIRS {
                                self.cs_pairs.push((r1, a2, r2, a1));
                            }
                        }
                        (Some(r1), Some(a2), _, _) => self.add_edge(r1, a2),
                        (_, _, Some(r2), Some(a1)) => self.add_edge(r2, a1),
                        _ => self.refute_all = true,
                    }
                }
            }
        }
        // Said et al.: every window read keeps its value, unconditionally,
        // so every read's entailed facts are global edges.
        if self.mode == ConsistencyMode::WholeTrace {
            let reads: Vec<EventId> = view
                .ids()
                .filter(|&id| view.event(id).kind.is_read())
                .collect();
            for r in reads {
                let k = self.read_fact(r);
                self.refute_all |= self.facts[k].refute;
                for i in 0..self.facts[k].edges.len() {
                    let (x, y) = self.facts[k].edges[i];
                    self.add_edge(x, y);
                }
            }
        }
        // Base E2 fixpoint: discharge two-sided lock disjunctions whose
        // losing side the base edges already contradict.
        for _ in 0..MAX_E2_ROUNDS + 1 {
            let mut changed = false;
            let pairs = std::mem::take(&mut self.cs_pairs);
            let mut keep = Vec::with_capacity(pairs.len());
            for (r1, a2, r2, a1) in pairs {
                // `O_r1 < O_a2` is impossible iff a2 already reaches r1.
                let d1_dead = self.reaches(a2, r1);
                let d2_dead = self.reaches(a1, r2);
                match (d1_dead, d2_dead) {
                    (true, true) => self.refute_all = true,
                    (true, false) => {
                        self.add_edge(r2, a1);
                        changed = true;
                    }
                    (false, true) => {
                        self.add_edge(r1, a2);
                        changed = true;
                    }
                    (false, false) => keep.push((r1, a2, r2, a1)),
                }
            }
            self.cs_pairs = keep;
            if !changed {
                break;
            }
        }
    }

    /// The entailed order facts of `read`'s match disjunction, mirroring
    /// exactly the disjuncts `read_match` builds. Memoized per read; returns
    /// the facts' index into `self.facts`.
    fn read_fact(&mut self, read: EventId) -> usize {
        let slot = self.idx(read) as usize;
        if self.fact_slot[slot] != NO_FACTS {
            return self.fact_slot[slot] as usize;
        }
        let view = self.view;
        let (var, value) = match view.event(read).kind {
            EventKind::Read { var, value } => (var, value),
            _ => unreachable!("read_fact on non-read"),
        };
        let (wr, wrv) = write_sets(view, read, self.prune);
        let initial_ok = value == view.initial_value(var);
        let mut f = ReadFacts::default();
        if !initial_ok && wrv.is_empty() {
            // `or_n([])` is `ff`: the read can never observe its value.
            f.refute = true;
        } else if !initial_ok && wrv.len() == 1 {
            // A unique justifying write: its whole conjunct is entailed.
            let w = wrv[0];
            f.edges.push((w, read));
            f.forces.push(w);
            for &w2 in &wr {
                if w2 == w || view.mhb(w2, w) {
                    continue;
                }
                // `Φ_mhb` kills one side of the interference disjunction:
                // w2 ⪯ read forces w2 < w; w ⪯ w2 forces read < w2. (The
                // encoder degenerates these only under `prune`, but the
                // entailment holds either way.)
                if view.mhb(w2, read) {
                    f.edges.push((w2, w));
                } else if view.mhb(w, w2) {
                    f.edges.push((read, w2));
                }
            }
        } else if initial_ok && wrv.is_empty() {
            // Only the virtual initial write can justify the read.
            for &w2 in &wr {
                f.edges.push((read, w2));
            }
        }
        self.fact_slot[slot] = self.facts.len() as u32;
        self.facts.push(f);
        self.facts.len() - 1
    }

    /// True while every edge in play — base plus the current COP's extra
    /// edges — points forward in trace order.
    #[inline]
    fn forward(&self) -> bool {
        self.base_forward && self.extra_forward
    }

    /// The whole window as a flood span.
    #[inline]
    fn full_span(&self) -> (u32, u32) {
        (0, (self.n as u32).saturating_sub(1))
    }

    /// Marks with `epoch` every node that `src` reaches over `base` plus
    /// `extra` edges without leaving the dense-index span `lo..=hi`.
    /// Returns true as soon as a newly marked node satisfies `hit` (the
    /// marks are then partial).
    #[allow(clippy::too_many_arguments)]
    fn flood(
        mark: &mut [u32],
        queue: &mut Vec<u32>,
        base: &[Vec<u32>],
        extra: &[Vec<u32>],
        src: u32,
        epoch: u32,
        (lo, hi): (u32, u32),
        mut hit: impl FnMut(u32) -> bool,
    ) -> bool {
        queue.clear();
        queue.push(src);
        mark[src as usize] = epoch;
        while let Some(x) = queue.pop() {
            for &y in base[x as usize].iter().chain(&extra[x as usize]) {
                if y < lo || y > hi || mark[y as usize] == epoch {
                    continue;
                }
                mark[y as usize] = epoch;
                if hit(y) {
                    return true;
                }
                queue.push(y);
            }
        }
        false
    }

    /// Reachability over the base graph plus the current COP's extra
    /// edges (none outside [`refutes`](Self::refutes)). With every edge
    /// forward in trace order, a path from `from` to `to` only visits
    /// nodes between the two, and none exists when `from` comes later.
    fn reaches(&mut self, from: EventId, to: EventId) -> bool {
        let (src, dst) = (self.idx(from), self.idx(to));
        if src == dst {
            return true;
        }
        let span = if !self.forward() {
            self.full_span()
        } else if src < dst {
            (src, dst)
        } else {
            return false;
        };
        self.epoch += 1;
        Self::flood(
            &mut self.mark_fwd,
            &mut self.queue,
            &self.fwd,
            &self.extra_fwd,
            src,
            self.epoch,
            span,
            |y| y == dst,
        )
    }

    /// True when the base entailment graph already orders `a` before `b`
    /// (exposed for the tier-algebra unit tests).
    pub fn entailed_before(&mut self, a: EventId, b: EventId) -> bool {
        a != b && self.reaches(a, b)
    }

    /// Time spent in the confirmation screen so far.
    pub fn tier_a_time(&self) -> Duration {
        self.tier_a_time
    }

    /// Time spent in the refutation screen so far (including the base
    /// graph construction).
    pub fn tier_b_time(&self) -> Duration {
        self.tier_b_time
    }

    /// Runs the cascade on one COP. The refuter (Tier B) runs first
    /// because it is the cheaper screen; a COP both screens could decide
    /// cannot exist (each is sound), so the order never changes verdicts.
    pub fn decide(&mut self, cop: &Cop) -> TierDecision {
        let t0 = Instant::now();
        let refuted = self.refutes(cop);
        self.tier_b_time += t0.elapsed();
        if refuted {
            return TierDecision::Refuted;
        }
        let t0 = Instant::now();
        let confirmed = self.confirms(cop);
        self.tier_a_time += t0.elapsed();
        if confirmed {
            TierDecision::Confirmed
        } else {
            TierDecision::Residue
        }
    }

    // ----- Tier B: entailment refutation ------------------------------

    /// Adds a per-COP extra edge, noting whether it points backward in
    /// trace order.
    fn add_extra(&mut self, from: EventId, to: EventId) {
        let (x, y) = (self.idx(from), self.idx(to));
        self.extra_forward &= x < y;
        self.extra_fwd[x as usize].push(y);
        self.extra_rev[y as usize].push(x);
        self.touched.extend([x, y]);
    }

    /// Stamps `e` into the current closure; false when already there.
    fn see(&mut self, e: EventId, seen: u32) -> bool {
        let i = self.idx(e) as usize;
        let fresh = self.mark_seen[i] != seen;
        self.mark_seen[i] = seen;
        fresh
    }

    /// The refutation test proper: with the per-COP extra edges in place,
    /// `Φ ∧ Φ_race(cop)` is unsatisfiable iff the entailed order puts
    /// `second` before `first`, or any third event strictly between them
    /// (the race adjacency leaves no room for either).
    fn adjacency_contradicted(&mut self, cop: &Cop) -> bool {
        let (a, b) = (self.idx(cop.first), self.idx(cop.second));
        // With every edge forward, both cones meet only between the
        // accesses, and `second` cannot reach the earlier `first`.
        let bounded = self.forward() && a < b;
        let span = if bounded { (a, b) } else { self.full_span() };
        #[cfg(test)]
        {
            self.unbounded_tests += usize::from(!bounded);
        }
        self.epoch += 1;
        let epoch = self.epoch;
        // Forward cone of `first`, then the reverse cone of `second` until
        // it meets the forward cone at any x ∉ {first, second}.
        Self::flood(
            &mut self.mark_fwd,
            &mut self.queue,
            &self.fwd,
            &self.extra_fwd,
            a,
            epoch,
            span,
            |_| false,
        );
        let fwd_marks = &self.mark_fwd;
        let between = Self::flood(
            &mut self.mark_rev,
            &mut self.queue,
            &self.rev,
            &self.extra_rev,
            b,
            epoch,
            span,
            |x| x != a && x != b && fwd_marks[x as usize] == epoch,
        );
        between || (!bounded && self.reaches(cop.second, cop.first))
    }

    fn refutes(&mut self, cop: &Cop) -> bool {
        if self.refute_all {
            return true;
        }
        if !self.view.contains(cop.first) || !self.view.contains(cop.second) {
            return false;
        }
        let refuted = self.refutes_with_extra(cop);
        for &x in &self.touched {
            self.extra_fwd[x as usize].clear();
            self.extra_rev[x as usize].clear();
        }
        self.touched.clear();
        self.extra_forward = true;
        refuted
    }

    /// [`refutes`](Self::refutes) for an in-view COP: builds the per-COP
    /// extra edges into the scratch adjacency (the caller clears it).
    fn refutes_with_extra(&mut self, cop: &Cop) -> bool {
        let view = self.view;
        // Per-COP forced-feasibility closure (ControlFlow only): the
        // branches `Φ_race` asserts, their thread-prior reads, and each
        // unique justifier's own closure.
        if self.mode == ConsistencyMode::ControlFlow {
            self.epoch += 1;
            let seen = self.epoch;
            let mut work: Vec<EventId> = Vec::new();
            for e in [cop.first, cop.second] {
                for br in view.last_branches_before(e) {
                    if self.see(br, seen) {
                        work.push(br);
                    }
                }
            }
            while let Some(e) = work.pop() {
                match view.event(e).kind {
                    EventKind::Branch | EventKind::Write { .. } => {
                        for &r in view.thread_reads_before(e) {
                            if self.see(r, seen) {
                                work.push(r);
                            }
                        }
                    }
                    EventKind::Read { .. } => {
                        let k = self.read_fact(e);
                        if self.facts[k].refute {
                            return true;
                        }
                        for i in 0..self.facts[k].edges.len() {
                            let (x, y) = self.facts[k].edges[i];
                            self.add_extra(x, y);
                        }
                        for i in 0..self.facts[k].forces.len() {
                            let w = self.facts[k].forces[i];
                            if self.see(w, seen) {
                                work.push(w);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.adjacency_contradicted(cop) {
            return true;
        }
        // Per-COP E2 rounds: with the extra edges in place, more lock
        // disjunctions may discharge; propagate a bounded number of times.
        if self.cs_pairs.is_empty() && self.cond_pairs.is_empty() {
            return false;
        }
        let mut discharged: Vec<bool> = vec![false; self.cs_pairs.len()];
        let mut cond_discharged: Vec<bool> = vec![false; self.cond_pairs.len()];
        for _ in 0..MAX_E2_ROUNDS {
            let mut changed = false;
            for pi in 0..self.cs_pairs.len() {
                if discharged[pi] {
                    continue;
                }
                let (r1, a2, r2, a1) = self.cs_pairs[pi];
                let d1_dead = self.reaches(a2, r1);
                let d2_dead = self.reaches(a1, r2);
                match (d1_dead, d2_dead) {
                    (true, true) => return true,
                    (true, false) => self.add_extra(r2, a1),
                    (false, true) => self.add_extra(r1, a2),
                    (false, false) => continue,
                }
                discharged[pi] = true;
                changed = true;
            }
            // Conditional pairs (maximal mode): a hatch `D < O_a` is dead
            // once the acquire is entailed at-or-before the cut, i.e. it
            // reaches either access of the glued pair. With every disjunct
            // dead the window refutes the COP; with exactly one alive its
            // content becomes entailed extra edges.
            if !self.cond_pairs.is_empty() {
                let cut = self.mark_cut(cop, &cond_discharged);
                for pi in 0..self.cond_pairs.len() {
                    if cond_discharged[pi] {
                        continue;
                    }
                    let p = self.cond_pairs[pi];
                    let hatch_alive = |h: Option<EventId>| {
                        h.is_some_and(|a| self.mark_rev[self.idx(a) as usize] != cut)
                    };
                    let (h1, h2) = (hatch_alive(p.h1), hatch_alive(p.h2));
                    // Two live disjuncts entail nothing, so the order
                    // disjuncts need no flood past that point.
                    let mut alive = usize::from(h1) + usize::from(h2);
                    let d1 = alive < 2 && p.d1.is_some_and(|(r1, a2)| !self.reaches(a2, r1));
                    alive += usize::from(d1);
                    let d2 = alive < 2 && p.d2.is_some_and(|(r2, a1)| !self.reaches(a1, r2));
                    match (d1, d2, h1, h2) {
                        (false, false, false, false) => return true,
                        (true, false, false, false) => {
                            let (r1, a2) = p.d1.expect("alive");
                            self.add_extra(r1, a2);
                        }
                        (false, true, false, false) => {
                            let (r2, a1) = p.d2.expect("alive");
                            self.add_extra(r2, a1);
                        }
                        (false, false, true, false) | (false, false, false, true) => {
                            // Forced hatch: the span must open past the
                            // cut, so both accesses precede its acquire.
                            let a = if h1 { p.h1 } else { p.h2 }.expect("alive");
                            self.add_extra(cop.first, a);
                            self.add_extra(cop.second, a);
                        }
                        _ => continue, // two or more alive: no entailment yet
                    }
                    cond_discharged[pi] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if self.adjacency_contradicted(cop) {
                return true;
            }
        }
        false
    }

    /// Marks in `mark_rev`, under a fresh epoch it returns, every node
    /// that reaches either access of `cop`: the acquires entailed at or
    /// before the cut. Only the hatches of undischarged pairs are read
    /// back, so with every edge forward the flood stays at or after the
    /// earliest of them (a path into the accesses never moves back).
    fn mark_cut(&mut self, cop: &Cop, discharged: &[bool]) -> u32 {
        self.epoch += 1;
        let cut = self.epoch;
        let lowest_hatch = self
            .cond_pairs
            .iter()
            .zip(discharged)
            .filter(|&(_, &done)| !done)
            .flat_map(|(p, _)| [p.h1, p.h2])
            .flatten()
            .map(|h| self.idx(h))
            .min();
        let Some(lo) = lowest_hatch else {
            return cut;
        };
        let span = if self.forward() {
            (lo, (self.n as u32).saturating_sub(1))
        } else {
            self.full_span()
        };
        for access in [cop.first, cop.second] {
            let src = self.idx(access);
            Self::flood(
                &mut self.mark_rev,
                &mut self.queue,
                &self.rev,
                &self.extra_rev,
                src,
                cut,
                span,
                |_| false,
            );
        }
        cut
    }

    // ----- Tier A: sync-preserving confirmation -----------------------

    /// Attempts to confirm the COP by replaying the sync-preserving
    /// candidate schedule: the MHB-prefixes of both accesses in trace
    /// order, then the two accesses back to back, then the remaining
    /// window in trace order. Success means the schedule is a model of
    /// `Φ`, i.e. a real race.
    ///
    /// Only the `first, second` orientation is replayed, because it is the
    /// only one the encoding can express: the glued per-COP mode hardwires
    /// `lt(first, second) = tt` and `lt(second, first) = ff`, and batch
    /// mode asserts `O_second = O_first + 1`. A reordering racing the pair
    /// the other way around (e.g. two same-variable writes whose later
    /// reader needs the *earlier* write last) is `Unsat` under `Φ`, and
    /// Tier A must agree with the solver byte for byte.
    fn confirms(&mut self, cop: &Cop) -> bool {
        let view = self.view;
        let (a, b) = (cop.first, cop.second);
        if !view.contains(a) || !view.contains(b) {
            return false;
        }
        if view.mhb(a, b) || view.mhb(b, a) {
            return false;
        }
        // S: everything MHB-before either access (excluding the accesses).
        let mut prefix: Vec<EventId> = Vec::new();
        let mut rest: Vec<EventId> = Vec::new();
        for e in view.ids() {
            if e == a || e == b {
                continue;
            }
            if view.mhb(e, a) || view.mhb(e, b) {
                prefix.push(e);
            } else {
                rest.push(e);
            }
        }
        let in_prefix: std::collections::HashSet<EventId> = prefix.iter().copied().collect();
        let mut order: Vec<EventId> = Vec::with_capacity(self.n);
        order.extend_from_slice(&prefix);
        order.push(a);
        order.push(b);
        order.extend_from_slice(&rest);
        let schedule = Schedule(order);
        if check_schedule(view, &schedule).is_err() {
            return false;
        }
        if !self.wait_links_non_overlapping(&schedule) {
            return false;
        }
        let values = schedule_read_values(view, &schedule);
        match self.mode {
            // Control-flow abstraction: only the forced reads (all in
            // the MHB prefix) must keep their values; the accesses
            // themselves are data-abstract.
            ConsistencyMode::ControlFlow => schedule.0.iter().all(|&e| {
                !in_prefix.contains(&e)
                    || !view.event(e).kind.is_read()
                    || values.get(&e).copied() == view.event(e).kind.value()
            }),
            // Said et al.: every read in the window keeps its value.
            ConsistencyMode::WholeTrace => schedule.0.iter().all(|&e| {
                !view.event(e).kind.is_read()
                    || values.get(&e).copied() == view.event(e).kind.value()
            }),
        }
    }

    /// The encoder's cross-link constraint, which `check_schedule` does
    /// not enforce: each notify must fall outside every *other* same-lock
    /// wait's release–acquire span.
    fn wait_links_non_overlapping(&self, schedule: &Schedule) -> bool {
        if self.links.len() < 2 {
            return true;
        }
        let mut pos: HashMap<EventId, usize> = HashMap::with_capacity(schedule.len());
        for (i, &e) in schedule.0.iter().enumerate() {
            pos.insert(e, i);
        }
        for wl in &self.links {
            let n = wl.notify.expect("filtered");
            let lock = self.view.event(n).kind.lock();
            for other in &self.links {
                if other.release == wl.release {
                    continue;
                }
                if self.view.event(other.acquire).kind.lock() != lock {
                    continue;
                }
                let (pn, pr, pa) = (pos[&n], pos[&other.release], pos[&other.acquire]);
                if !(pn < pr || pa < pn) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    #[test]
    fn tier_display_names() {
        assert_eq!(Tier::A.to_string(), "tier-a");
        assert_eq!(Tier::B.to_string(), "tier-b");
        assert_eq!(Tier::Solver.to_string(), "solver");
    }

    #[test]
    fn confirms_trivial_race_and_orders_program_order() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        let w = b.write(ThreadId::MAIN, x, 1);
        let r = b.read(t2, x, 1);
        let trace = b.finish();
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, ConsistencyMode::ControlFlow, true);
        let cop = Cop::new(w, r);
        assert_eq!(tiers.decide(&cop), TierDecision::Confirmed);
        // fork → begin is an entailed base edge; accesses stay unordered.
        assert!(!tiers.entailed_before(w, r));
        assert!(!tiers.entailed_before(r, w));
    }

    #[test]
    fn refutes_mhb_ordered_pair() {
        // join orders the child's write before the parent's read.
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t2 = b.fork(ThreadId::MAIN);
        let w = b.write(t2, x, 1);
        b.join(ThreadId::MAIN, t2);
        let r = b.read(ThreadId::MAIN, x, 1);
        let trace = b.finish();
        let view = trace.full_view();
        let mut tiers = TierAnalysis::new(&view, ConsistencyMode::ControlFlow, true);
        assert!(tiers.entailed_before(w, r));
        assert_eq!(tiers.decide(&Cop::new(w, r)), TierDecision::Refuted);
    }
}
