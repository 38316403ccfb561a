//! A plain flood-based Tier B refuter: a fresh closure, hash maps of
//! extra edges and whole-window floods for every COP, with no trace-order
//! bound. It is the reference the differential below holds
//! [`TierAnalysis`] to, COP by COP.

// The reference keeps its original form, lints included.
#![allow(clippy::needless_range_loop, clippy::unnecessary_map_or)]

use std::collections::HashMap;

use rvsim::rng::SmallRng;
use rvsim::stmts::*;
use rvsim::workloads::handoff::{double_flag_workload, flag_handoff_workload, tenant_mix_workload};
use rvsim::{execute, ExecConfig, Expr, GlobalId, Local, LockRef, Outcome, ProcId, Program, Stmt};
use rvtrace::{
    Cop, EventId, EventKind, LockId, ThreadId, Trace, TraceBuilder, Value, View, WaitLink,
    WindowStream,
};

use super::{CondPair, CsPair, ReadFacts, TierAnalysis, TierDecision, MAX_CS_PAIRS, MAX_E2_ROUNDS};
use crate::config::ConsistencyMode;
use crate::cop::enumerate_cops;
use crate::encoder::write_sets;

/// The per-window refuter state: the entailed base order graph, memoized
/// per-read facts, and the undischarged lock disjunctions.
#[derive(Debug)]
struct FloodRefuter<'a> {
    view: &'a View<'a>,
    mode: ConsistencyMode,
    prune: bool,
    start: u32,
    n: usize,
    /// Entailed base edges (dense index), forward and reverse.
    fwd: Vec<Vec<u32>>,
    rev: Vec<Vec<u32>>,
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
    facts: HashMap<EventId, ReadFacts>,
    // BFS scratch (epoch-marked so per-COP queries need no clearing).
    mark_fwd: Vec<u32>,
    mark_rev: Vec<u32>,
    epoch: u32,
}

impl<'a> FloodRefuter<'a> {
    /// Builds the base entailment graph for `view`: program order, fork →
    /// begin, end → join, wait links, single-disjunct lock orderings,
    /// whole-trace read matches (in [`ConsistencyMode::WholeTrace`]), and
    /// the fixpoint of lock disjunctions already discharged by those edges.
    fn new(view: &'a View<'a>, mode: ConsistencyMode, prune: bool) -> Self {
        let n = view.len();
        let start = view.range().start as u32;
        let mut a = FloodRefuter {
            view,
            mode,
            prune,
            start,
            n,
            fwd: vec![Vec::new(); n],
            rev: vec![Vec::new(); n],
            refute_all: false,
            links: Vec::new(),
            cs_pairs: Vec::new(),
            cond_pairs: Vec::new(),
            facts: HashMap::new(),
            mark_fwd: vec![0; n],
            mark_rev: vec![0; n],
            epoch: 0,
        };
        a.build_base();
        a
    }

    #[inline]
    fn idx(&self, e: EventId) -> u32 {
        e.0 - self.start
    }

    fn add_edge(&mut self, from: EventId, to: EventId) {
        let (f, t) = (self.idx(from), self.idx(to));
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
        // span acquired past the racing pair constrains nothing.
        let mut pairs_dropped = 0usize;
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
                        } else {
                            pairs_dropped += 1;
                        }
                        continue;
                    }
                    match (s1.release, s2.acquire, s2.release, s1.acquire) {
                        (Some(r1), Some(a2), Some(r2), Some(a1)) => {
                            if self.cs_pairs.len() < MAX_CS_PAIRS {
                                self.cs_pairs.push((r1, a2, r2, a1));
                            } else {
                                pairs_dropped += 1;
                            }
                        }
                        (Some(r1), Some(a2), _, _) => self.add_edge(r1, a2),
                        (_, _, Some(r2), Some(a1)) => self.add_edge(r2, a1),
                        _ => self.refute_all = true,
                    }
                }
            }
        }
        let _ = pairs_dropped; // refutation power only; soundness unaffected
                               // Said et al.: every window read keeps its value, unconditionally,
                               // so every read's entailed facts are global edges.
        if self.mode == ConsistencyMode::WholeTrace {
            let reads: Vec<EventId> = view
                .ids()
                .filter(|&id| view.event(id).kind.is_read())
                .collect();
            for r in reads {
                let f = self.read_fact(r);
                if f.refute {
                    self.refute_all = true;
                }
                for (x, y) in f.edges {
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
                let d1_dead = self.base_reaches(a2, r1);
                let d2_dead = self.base_reaches(a1, r2);
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
    /// exactly the disjuncts `read_match` builds (memoized).
    fn read_fact(&mut self, read: EventId) -> ReadFacts {
        if let Some(f) = self.facts.get(&read) {
            return f.clone();
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
        self.facts.insert(read, f.clone());
        f
    }

    /// Reachability over the base graph only (no per-COP edges).
    fn base_reaches(&mut self, from: EventId, to: EventId) -> bool {
        self.epoch += 1;
        let (src, dst) = (self.idx(from), self.idx(to));
        let mut queue = vec![src];
        self.mark_fwd[src as usize] = self.epoch;
        while let Some(x) = queue.pop() {
            if x == dst {
                return true;
            }
            for &y in &self.fwd[x as usize] {
                if self.mark_fwd[y as usize] != self.epoch {
                    self.mark_fwd[y as usize] = self.epoch;
                    queue.push(y);
                }
            }
        }
        false
    }

    // ----- Tier B: entailment refutation ------------------------------

    /// Marks everything forward-reachable from `src` through base + extra
    /// edges with a fresh epoch; returns the epoch used.
    fn flood(
        mark: &mut [u32],
        base: &[Vec<u32>],
        extra: &HashMap<u32, Vec<u32>>,
        src: u32,
        epoch: u32,
    ) {
        let mut queue = vec![src];
        mark[src as usize] = epoch;
        while let Some(x) = queue.pop() {
            let neighbors = base[x as usize]
                .iter()
                .chain(extra.get(&x).into_iter().flatten());
            for &y in neighbors {
                if mark[y as usize] != epoch {
                    mark[y as usize] = epoch;
                    queue.push(y);
                }
            }
        }
    }

    /// The refutation test proper: with the per-COP extra edges in place,
    /// `Φ ∧ Φ_race(cop)` is unsatisfiable iff the entailed order puts
    /// `second` before `first`, or any third event strictly between them
    /// (the race adjacency leaves no room for either).
    fn adjacency_contradicted(
        &mut self,
        cop: &Cop,
        extra_fwd: &HashMap<u32, Vec<u32>>,
        extra_rev: &HashMap<u32, Vec<u32>>,
    ) -> bool {
        let (a, b) = (self.idx(cop.first), self.idx(cop.second));
        self.epoch += 1;
        let epoch = self.epoch;
        // Forward cone of `first`, reverse cone of `second`.
        Self::flood(&mut self.mark_fwd, &self.fwd, extra_fwd, a, epoch);
        Self::flood(&mut self.mark_rev, &self.rev, extra_rev, b, epoch);
        // Any x ∉ {first, second} with first → x and x → second.
        for x in 0..self.n as u32 {
            if x == a || x == b {
                continue;
            }
            if self.mark_fwd[x as usize] == epoch && self.mark_rev[x as usize] == epoch {
                return true;
            }
        }
        // second → first: flood forward from `second`.
        self.epoch += 1;
        let epoch = self.epoch;
        Self::flood(&mut self.mark_fwd, &self.fwd, extra_fwd, b, epoch);
        self.mark_fwd[a as usize] == epoch
    }

    fn refutes(&mut self, cop: &Cop) -> bool {
        if self.refute_all {
            return true;
        }
        if !self.view.contains(cop.first) || !self.view.contains(cop.second) {
            return false;
        }
        // Per-COP forced-feasibility closure (ControlFlow only): the
        // branches `Φ_race` asserts, their thread-prior reads, and each
        // unique justifier's own closure.
        let mut extra_fwd: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut extra_rev: HashMap<u32, Vec<u32>> = HashMap::new();
        if self.mode == ConsistencyMode::ControlFlow {
            let mut seen: std::collections::HashSet<EventId> = std::collections::HashSet::new();
            let mut work: Vec<EventId> = Vec::new();
            for e in [cop.first, cop.second] {
                for br in self.view.last_branches_before(e) {
                    if seen.insert(br) {
                        work.push(br);
                    }
                }
            }
            while let Some(e) = work.pop() {
                match self.view.event(e).kind {
                    EventKind::Branch | EventKind::Write { .. } => {
                        for &r in self.view.thread_reads_before(e) {
                            if seen.insert(r) {
                                work.push(r);
                            }
                        }
                    }
                    EventKind::Read { .. } => {
                        let f = self.read_fact(e);
                        if f.refute {
                            return true;
                        }
                        for (x, y) in f.edges {
                            let (xi, yi) = (self.idx(x), self.idx(y));
                            extra_fwd.entry(xi).or_default().push(yi);
                            extra_rev.entry(yi).or_default().push(xi);
                        }
                        for w in f.forces {
                            if seen.insert(w) {
                                work.push(w);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        if self.adjacency_contradicted(cop, &extra_fwd, &extra_rev) {
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
                let d1_dead = self.percop_reaches(a2, r1, &extra_fwd);
                let d2_dead = self.percop_reaches(a1, r2, &extra_fwd);
                match (d1_dead, d2_dead) {
                    (true, true) => return true,
                    (true, false) => {
                        let (x, y) = (self.idx(r2), self.idx(a1));
                        extra_fwd.entry(x).or_default().push(y);
                        extra_rev.entry(y).or_default().push(x);
                        discharged[pi] = true;
                        changed = true;
                    }
                    (false, true) => {
                        let (x, y) = (self.idx(r1), self.idx(a2));
                        extra_fwd.entry(x).or_default().push(y);
                        extra_rev.entry(y).or_default().push(x);
                        discharged[pi] = true;
                        changed = true;
                    }
                    (false, false) => {}
                }
            }
            // Conditional pairs (maximal mode): a hatch `D < O_a` is dead
            // once the acquire is entailed at-or-before the cut, i.e. it
            // reaches either access of the glued pair. With every disjunct
            // dead the window refutes the COP; with exactly one alive its
            // content becomes entailed extra edges.
            if !self.cond_pairs.is_empty() {
                self.epoch += 1;
                let cut = self.epoch;
                let (ci, cj) = (self.idx(cop.first), self.idx(cop.second));
                Self::flood(&mut self.mark_rev, &self.rev, &extra_rev, ci, cut);
                Self::flood(&mut self.mark_rev, &self.rev, &extra_rev, cj, cut);
                for pi in 0..self.cond_pairs.len() {
                    if cond_discharged[pi] {
                        continue;
                    }
                    let p = self.cond_pairs[pi];
                    let hatch_alive = |marks: &[u32], me: &Self, h: Option<EventId>| {
                        h.map_or(false, |a| marks[me.idx(a) as usize] != cut)
                    };
                    let h1 = hatch_alive(&self.mark_rev, self, p.h1);
                    let h2 = hatch_alive(&self.mark_rev, self, p.h2);
                    let d1 = match p.d1 {
                        Some((r1, a2)) => !self.percop_reaches(a2, r1, &extra_fwd),
                        None => false,
                    };
                    let d2 = match p.d2 {
                        Some((r2, a1)) => !self.percop_reaches(a1, r2, &extra_fwd),
                        None => false,
                    };
                    let push = |x: EventId,
                                y: EventId,
                                me: &Self,
                                ef: &mut HashMap<u32, Vec<u32>>,
                                er: &mut HashMap<u32, Vec<u32>>| {
                        let (xi, yi) = (me.idx(x), me.idx(y));
                        ef.entry(xi).or_default().push(yi);
                        er.entry(yi).or_default().push(xi);
                    };
                    match (d1, d2, h1, h2) {
                        (false, false, false, false) => return true,
                        (true, false, false, false) => {
                            let (r1, a2) = p.d1.expect("alive");
                            push(r1, a2, self, &mut extra_fwd, &mut extra_rev);
                            cond_discharged[pi] = true;
                            changed = true;
                        }
                        (false, true, false, false) => {
                            let (r2, a1) = p.d2.expect("alive");
                            push(r2, a1, self, &mut extra_fwd, &mut extra_rev);
                            cond_discharged[pi] = true;
                            changed = true;
                        }
                        (false, false, true, false) | (false, false, false, true) => {
                            // Forced hatch: the span must open past the
                            // cut, so both accesses precede its acquire.
                            let a = if h1 { p.h1 } else { p.h2 }.expect("alive");
                            push(cop.first, a, self, &mut extra_fwd, &mut extra_rev);
                            push(cop.second, a, self, &mut extra_fwd, &mut extra_rev);
                            cond_discharged[pi] = true;
                            changed = true;
                        }
                        _ => {} // two or more alive: no entailment yet
                    }
                }
            }
            if !changed {
                break;
            }
            if self.adjacency_contradicted(cop, &extra_fwd, &extra_rev) {
                return true;
            }
        }
        false
    }

    /// Reachability over base + per-COP extra edges.
    fn percop_reaches(
        &mut self,
        from: EventId,
        to: EventId,
        extra: &HashMap<u32, Vec<u32>>,
    ) -> bool {
        self.epoch += 1;
        let epoch = self.epoch;
        let (src, dst) = (self.idx(from), self.idx(to));
        Self::flood(&mut self.mark_fwd, &self.fwd, extra, src, epoch);
        self.mark_fwd[dst as usize] == epoch
    }
}

// ----- The differential --------------------------------------------------

/// Per-signature cap on the COPs checked per window.
const PER_SIGNATURE: usize = 25;

/// Which COPs of a window the differential decides.
#[derive(Debug, Clone, Copy)]
enum Cops {
    /// Every conflicting pair, so lock-protected pairs (which the quick
    /// check drops) reach the refuter too.
    All,
    /// The quick-check survivors the detector actually decides.
    QuickChecked,
}

/// What one differential run decided, and how often the adjacency test
/// had to flood the whole window.
#[derive(Debug, Default)]
struct Tally {
    confirmed: usize,
    refuted: usize,
    residue: usize,
    unbounded: usize,
}

/// Decides the COPs of every `size`-event window of `trace` with both
/// refuters and asserts the same [`TierDecision`] for each one.
fn assert_same_decisions(
    trace: &Trace,
    size: usize,
    mode: ConsistencyMode,
    prune: bool,
    which: Cops,
    tally: &mut Tally,
) {
    for view in WindowStream::new(trace, size) {
        let quick_check = matches!(which, Cops::QuickChecked);
        let cops = enumerate_cops(&view, quick_check, PER_SIGNATURE).cops;
        if cops.is_empty() {
            continue;
        }
        let mut fast = TierAnalysis::new(&view, mode, prune);
        let mut reference = FloodRefuter::new(&view, mode, prune);
        for cop in &cops {
            let got = fast.decide(cop);
            let want = if reference.refutes(cop) {
                TierDecision::Refuted
            } else if fast.confirms(cop) {
                TierDecision::Confirmed
            } else {
                TierDecision::Residue
            };
            assert_eq!(
                got,
                want,
                "COP {cop} in window {:?} ({mode:?}, window {size}, prune {prune})",
                view.range()
            );
            match got {
                TierDecision::Confirmed => tally.confirmed += 1,
                TierDecision::Refuted => tally.refuted += 1,
                TierDecision::Residue => tally.residue += 1,
            }
        }
        tally.unbounded += fast.unbounded_tests;
    }
}

/// Runs the differential over `traces` in both modes at every size.
fn differential(traces: &[Trace], sizes: &[usize], which: Cops) -> Tally {
    let mut tally = Tally::default();
    for trace in traces {
        for &size in sizes {
            for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
                assert_same_decisions(trace, size, mode, true, which, &mut tally);
            }
        }
    }
    tally
}

/// One worker's step in a random program.
#[derive(Debug, Clone, Copy)]
enum Op {
    LockedRmw(u32, u32),
    RacyWrite(u32, i64),
    RacyRead(u32),
    GuardedRead(u32),
    /// Payload write, then a flag set under a lock.
    Publish(u32, u32),
    /// Flag read under a lock, then a payload read guarded by it.
    Consume(u32, u32),
}

const VARS: u32 = 4;
const LOCKS: u32 = 2;

fn random_program(rng: &mut SmallRng) -> Program {
    let workers: Vec<Vec<Op>> = (0..rng.gen_range(2..5usize))
        .map(|_| {
            (0..rng.gen_range(1..8usize))
                .map(|_| {
                    let v = rng.gen_range(0..VARS);
                    let l = rng.gen_range(0..LOCKS);
                    match rng.gen_range(0..6u32) {
                        0 => Op::LockedRmw(v, l),
                        1 => Op::RacyWrite(v, rng.gen_range(1..3i64)),
                        2 => Op::RacyRead(v),
                        3 => Op::GuardedRead(v),
                        4 => Op::Publish(v, l),
                        _ => Op::Consume(v, l),
                    }
                })
                .collect()
        })
        .collect();
    // Globals: the payloads `v*`, then one flag `f*` per payload.
    let mut globals: Vec<_> = (0..VARS).map(|v| scalar(&format!("v{v}"), 0)).collect();
    globals.extend((0..VARS).map(|v| scalar(&format!("f{v}"), 0)));
    let flag = |v: u32| GlobalId(VARS + v);
    let (r, s) = (Local(0), Local(1));
    let body = |ops: &[Op]| -> Vec<Stmt> {
        let mut body = Vec::new();
        for &op in ops {
            match op {
                Op::LockedRmw(v, l) => body.extend([
                    lock(LockRef(l)),
                    load(r, GlobalId(v)),
                    store(GlobalId(v), Expr::add(r.into(), 1.into())),
                    unlock(LockRef(l)),
                ]),
                Op::RacyWrite(v, value) => body.push(store(GlobalId(v), value.into())),
                Op::RacyRead(v) => body.push(load(r, GlobalId(v))),
                Op::GuardedRead(v) => body.extend([
                    load(r, GlobalId(v)),
                    if_(
                        Expr::eq(r.into(), 0.into()),
                        vec![load(s, GlobalId((v + 1) % VARS))],
                        vec![],
                    ),
                ]),
                Op::Publish(v, l) => body.extend([
                    store(GlobalId(v), 1.into()),
                    lock(LockRef(l)),
                    store(flag(v), 1.into()),
                    unlock(LockRef(l)),
                ]),
                Op::Consume(v, l) => body.extend([
                    lock(LockRef(l)),
                    load(r, flag(v)),
                    unlock(LockRef(l)),
                    if_(
                        Expr::eq(r.into(), 1.into()),
                        vec![load(s, GlobalId(v))],
                        vec![],
                    ),
                ]),
            }
        }
        body
    };
    let procs: Vec<Vec<Stmt>> = workers.iter().map(|w| body(w)).collect();
    let mut main: Vec<Stmt> = (0..procs.len() as u32).map(ProcId).map(fork).collect();
    main.extend((0..procs.len() as u32).map(ProcId).map(join));
    Program::new(globals, LOCKS, main, procs)
}

/// `count` completed executions of random programs, plus for each one a
/// copy whose reads were re-valued at random — an inconsistent trace, so
/// reads may be justified only by later writes and the entailed order
/// runs backward (the refuter's fallback path).
fn random_traces(seed: u64, count: usize) -> Vec<Trace> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    while out.len() < 2 * count {
        let program = random_program(&mut rng);
        let exec = execute(&program, &ExecConfig::seeded(rng.gen_range(0..1000u64))).unwrap();
        if exec.outcome != Outcome::Completed {
            continue;
        }
        let mut data = exec.trace.data().clone();
        for e in &mut data.events {
            if let EventKind::Read { value, .. } = &mut e.kind {
                if rng.gen_range(0..3u32) == 0 {
                    *value = Value(rng.gen_range(0..3i64));
                }
            }
        }
        out.push(exec.trace);
        out.push(Trace::from_data(data));
    }
    out
}

/// Two threads alternating `spans` critical sections on one lock, with a
/// racy payload and a branch-forced flag per round: more cross-thread
/// span pairs than `MAX_CS_PAIRS`, so the cap drops some.
fn hot_lock_trace(spans: usize) -> Trace {
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let t2 = b.fork(main);
    let l = b.new_lock("hot");
    for k in 0..spans {
        let (x, f) = (b.var(&format!("x{k}")), b.var(&format!("f{k}")));
        let (p, c) = if k % 2 == 0 { (main, t2) } else { (t2, main) };
        b.write(p, x, 1);
        b.acquire(p, l);
        b.write(p, f, 1);
        b.release(p, l);
        b.acquire(c, l);
        b.read(c, f, 1);
        b.release(c, l);
        b.branch(c);
        b.read(c, x, 1);
    }
    b.finish()
}

/// A branch-forced read whose only same-value write comes later in the
/// trace: its entailed `write → read` edge points backward.
fn backward_justifier_trace() -> Trace {
    let mut b = TraceBuilder::new();
    let (x, y) = (b.var("x"), b.var("y"));
    let main = ThreadId::MAIN;
    let t2 = b.fork(main);
    b.write(main, y, 1);
    b.read(t2, x, 5);
    b.branch(t2);
    b.read(t2, y, 1);
    b.write(main, x, 5);
    b.finish()
}

/// The shaped generators: flag handoff (Tier B refutes), double flag
/// (residue), tenant mixes and the contest/grande small suite; `heavy`
/// swaps in the bench sizes.
fn shaped_traces(heavy: bool) -> Vec<Trace> {
    let (handoff, residue, tenants) = if heavy {
        ((8, 60), (4, 12), 4..61)
    } else {
        ((4, 20), (2, 6), 4..9)
    };
    let mut out = vec![
        flag_handoff_workload("tier", handoff.0, handoff.1).trace,
        double_flag_workload("residue", residue.0, residue.1).trace,
    ];
    out.extend(
        tenants
            .step_by(4)
            .map(|r| tenant_mix_workload("tenant", r).trace),
    );
    out.extend(rvsim::workloads::small_suite().into_iter().map(|w| w.trace));
    out
}

#[test]
fn random_programs_decide_alike() {
    let tally = differential(&random_traces(0x7B, 60), &[10_000, 500, 13, 5], Cops::All);
    assert!(tally.refuted > 0 && tally.confirmed > 0, "{tally:?}");
    assert!(
        tally.unbounded > 0,
        "the inconsistent copies must reach the fallback"
    );
}

#[test]
fn shaped_generators_decide_alike() {
    let tally = differential(&shaped_traces(false), &[10_000, 500], Cops::All);
    assert!(
        tally.refuted > 0 && tally.confirmed > 0 && tally.residue > 0,
        "{tally:?}"
    );
    // The observed trace is a model of the base formula, so a consistent
    // trace never needs the whole-window fallback.
    assert_eq!(tally.unbounded, 0, "{tally:?}");
}

#[test]
fn capped_lock_pairs_decide_alike() {
    let trace = hot_lock_trace(40);
    let view = rvtrace::ViewExt::full_view(&trace);
    let crossing = view
        .critical_sections(LockId(0))
        .iter()
        .enumerate()
        .flat_map(|(i, s1)| {
            view.critical_sections(LockId(0))[i + 1..]
                .iter()
                .filter(move |s2| s2.thread != s1.thread)
        })
        .count();
    assert!(crossing > MAX_CS_PAIRS, "{crossing} pairs");
    differential(&[trace], &[10_000, 500, 50], Cops::All);
}

#[test]
fn backward_edges_fall_back_and_decide_alike() {
    let trace = backward_justifier_trace();
    // ControlFlow: the branch-forced read's edge is a per-COP extra edge.
    // WholeTrace: every read's edges are base edges.
    for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
        let mut tally = Tally::default();
        assert_same_decisions(&trace, 10_000, mode, true, Cops::All, &mut tally);
        assert!(tally.unbounded > 0, "{mode:?}: {tally:?}");
    }
}

/// The heavier corpus: more random programs, also without write-set
/// pruning, then the bench-size shapes — among them the benchmark's
/// 101K-event handoff — on the COPs the detector decides.
#[test]
#[ignore = "heavy: run with --ignored"]
fn heavy_corpus_decides_alike() {
    let mut random = Tally::default();
    for trace in &random_traces(0x5EED, 300) {
        for size in [10_000, 500, 13, 5] {
            for mode in [ConsistencyMode::ControlFlow, ConsistencyMode::WholeTrace] {
                for prune in [true, false] {
                    assert_same_decisions(trace, size, mode, prune, Cops::All, &mut random);
                }
            }
        }
    }
    assert!(random.unbounded > 0, "{random:?}");
    let mut traces = shaped_traces(true);
    traces.push(flag_handoff_workload("handoff_100k", 40, 280).trace);
    traces.push(double_flag_workload("residue_large", 8, 40).trace);
    let shaped = differential(&traces, &[10_000, 500], Cops::QuickChecked);
    assert!(
        shaped.refuted > 0 && shaped.confirmed > 0 && shaped.residue > 0,
        "{shaped:?}"
    );
    assert_eq!(shaped.unbounded, 0, "{shaped:?}");
}
