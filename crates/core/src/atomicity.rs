//! Predictive atomicity-violation detection on the maximal causal model.
//!
//! Paper §2.5: "In this paper we only focus on races, but the same maximal
//! causal model approach can be used to define other notions" — atomicity
//! being the example named. This module implements the classic
//! single-variable *unserializable interleaving* check (lost updates and
//! friends): given an intended-atomic pair of same-thread accesses
//! `(a₁, a₂)` to a variable and a remote conflicting access `b`, decide
//! whether some feasible reordering serializes `b` strictly *between* them
//! — `Φ_mhb ∧ Φ_lock ∧ O_{a₁} < O_b < O_{a₂} ∧ π_cf(a₁) ∧ π_cf(a₂) ∧ π_cf(b)`.
//!
//! Intended-atomic pairs are inferred as unprotected read-modify-write
//! pairs (a read directly followed by a write of the same variable by the
//! same thread — the shape emitted by `fetch_add`-style updates), or can be
//! supplied explicitly. Soundness carries over from Theorem 1: a satisfying
//! model yields a consistent witness reordering, validated before reporting.

use std::collections::HashSet;

use rvsmt::{Budget, SmtResult, Solver, TermId};
use rvtrace::{EventId, RaceSignature, Schedule, Trace, View, WindowStream};

use crate::config::DetectorConfig;
use crate::encoder::{encode_between, EncoderOptions};
use crate::witness::build_witness_core;

/// An intended-atomic pair of same-thread accesses to one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicPair {
    /// The first access of the block.
    pub first: EventId,
    /// The second access of the block (same thread, same variable).
    pub second: EventId,
}

/// A predicted atomicity violation: `interleaved` can be serialized between
/// the pair's accesses.
#[derive(Debug, Clone)]
pub struct AtomicityViolation {
    /// The broken atomic pair.
    pub pair: AtomicPair,
    /// The remote access serialized in between.
    pub interleaved: EventId,
    /// Static signature (pair location × remote location).
    pub signature: RaceSignature,
    /// A validated witness: a consistent reordering with the remote access
    /// between the pair.
    pub schedule: Schedule,
}

/// Report of an atomicity analysis run.
#[derive(Debug, Default)]
pub struct AtomicityReport {
    /// Validated violations (one per signature).
    pub violations: Vec<AtomicityViolation>,
    /// Candidate (pair, remote) triples examined.
    pub candidates: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub sat: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub unsat: usize,
    /// Solver SAT/UNSAT/unknown counters.
    pub unknown: usize,
}

/// Infers intended-atomic pairs: a read immediately followed (in program
/// order) by a write to the same variable by the same thread, not both
/// under a common lock with… any lock at all — lock-protected RMWs are
/// atomic by construction and skipped.
pub fn infer_rmw_pairs(view: &View<'_>) -> Vec<AtomicPair> {
    let trace = view.trace();
    let mut out = Vec::new();
    for &t in trace.threads() {
        let evs = view.thread_events(t);
        for (i, &r) in evs.iter().enumerate() {
            if !view.event(r).kind.is_read() {
                continue;
            }
            // Skip intervening branch events (part of the RMW idiom, e.g.
            // a guard over the read value before the store).
            let mut j = i + 1;
            while j < evs.len() && view.event(evs[j]).kind.is_branch() {
                j += 1;
            }
            let Some(&wr) = evs.get(j) else { continue };
            let (rk, wk) = (view.event(r).kind, view.event(wr).kind);
            if wk.is_write() && rk.var() == wk.var() {
                // Lock-protected blocks are already atomic w.r.t. same-lock
                // remotes; keep only fully unprotected pairs (the classic
                // lost-update shape).
                if view.lockset(r).is_empty() && view.lockset(wr).is_empty() {
                    out.push(AtomicPair {
                        first: r,
                        second: wr,
                    });
                }
            }
        }
    }
    out
}

/// The predictive atomicity checker (windowed, like the race detector).
#[derive(Debug, Default)]
pub struct AtomicityDetector {
    /// Shared configuration (window size, budgets, mode).
    pub config: DetectorConfig,
}

impl AtomicityDetector {
    /// Runs the analysis over the whole trace with inferred RMW pairs.
    pub fn detect(&self, trace: &Trace) -> AtomicityReport {
        let mut report = AtomicityReport::default();
        for view in WindowStream::new(trace, self.config.window_size) {
            let pairs = infer_rmw_pairs(&view);
            self.detect_in_view(&view, &pairs, &mut report);
        }
        report
    }

    /// Runs the analysis over one window with explicit pairs.
    pub fn detect_in_view(
        &self,
        view: &View<'_>,
        pairs: &[AtomicPair],
        report: &mut AtomicityReport,
    ) {
        let trace = view.trace();
        // Candidate triples: for each pair on x, every remote access to x
        // conflicting with the pair (any remote write; remote reads only if
        // the pair writes — here second is a write, so both qualify).
        let mut triples: Vec<(AtomicPair, EventId)> = Vec::new();
        for &pair in pairs {
            let var = view
                .event(pair.first)
                .kind
                .var()
                .expect("pair accesses a var");
            if trace.is_volatile(var) {
                continue;
            }
            let thread = view.event(pair.first).thread;
            let push = |b: EventId, triples: &mut Vec<_>| {
                if view.event(b).thread != thread {
                    triples.push((pair, b));
                }
            };
            for &wr in view.writes_of(var) {
                push(wr, &mut triples);
            }
            for &r in view.reads_of(var) {
                push(r, &mut triples);
            }
        }
        report.candidates += triples.len();
        if triples.is_empty() {
            return;
        }

        // Share one incremental encoding: base Φ plus one selector per
        // triple guarding O_{a1} < O_b < O_{a2} and, under control flow,
        // the π_cf obligations of all three events.
        // `encode_between` never slices (the serialization obligations are
        // not modeled by the COP cone analysis), so `slice` is left off.
        let opts = EncoderOptions {
            mode: self.config.mode,
            prune_write_sets: self.config.prune_write_sets,
            slice: false,
        };
        let raw: Vec<(EventId, EventId, EventId)> = triples
            .iter()
            .map(|&(p, b)| (p.first, b, p.second))
            .collect();
        let encoded = encode_between(view, &raw, opts);
        let selectors: Vec<TermId> = encoded.selectors.clone();
        let mut solver = Solver::new(&encoded.fb);
        if self.config.phase_hints {
            solver.hint_atom_phases(|a| encoded.phase_hint(a));
        }
        let budget = Budget {
            max_conflicts: self.config.max_conflicts,
            timeout: Some(self.config.solver_timeout),
        };

        let mut seen: HashSet<RaceSignature> = HashSet::new();
        for (i, &(pair, b)) in triples.iter().enumerate() {
            let signature = RaceSignature::new(view.event(pair.first).loc, view.event(b).loc);
            if self.config.dedup_signatures && seen.contains(&signature) {
                continue;
            }
            match solver.solve_assuming(&budget, &[selectors[i]]) {
                SmtResult::Unsat => report.unsat += 1,
                SmtResult::Unknown(_) => report.unknown += 1,
                SmtResult::Sat => {
                    report.sat += 1;
                    let val = |e: EventId| {
                        solver.int_value(encoded.ovars[e.index() - encoded.view_start])
                    };
                    let key = |e: EventId| (val(e), e.index() as u64);
                    let witness = build_witness_core(
                        view,
                        &[pair.first, b, pair.second],
                        &encoded.required_branches[i],
                        self.config.mode,
                        &key,
                    );
                    if let Ok(w) = witness {
                        // The remote access must land strictly between.
                        let pos = |x: EventId| {
                            w.schedule
                                .0
                                .iter()
                                .position(|&e| e == x)
                                .expect("anchor in closure")
                        };
                        if pos(pair.first) < pos(b) && pos(b) < pos(pair.second) {
                            seen.insert(signature);
                            report.violations.push(AtomicityViolation {
                                pair,
                                interleaved: b,
                                signature,
                                schedule: w.schedule,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvtrace::{ThreadId, TraceBuilder, ViewExt};

    /// The canonical lost update: two unprotected increments.
    #[test]
    fn lost_update_detected() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.read(t1, x, 0); // r = x
        b.write(t1, x, 1); // x = r + 1   (intended atomic)
        b.read(t2, x, 1);
        b.write(t2, x, 2);
        b.join(t1, t2);
        let trace = b.finish();
        let report = AtomicityDetector::default().detect(&trace);
        assert!(
            !report.violations.is_empty(),
            "lost update must be predicted"
        );
        let v = &report.violations[0];
        // The witness serializes the remote access between the pair.
        let pos = |e: EventId| v.schedule.0.iter().position(|&x| x == e).unwrap();
        assert!(pos(v.pair.first) < pos(v.interleaved));
        assert!(pos(v.interleaved) < pos(v.pair.second));
    }

    /// Lock-protected RMWs are atomic: no violation, and no inferred pair.
    #[test]
    fn locked_rmw_is_atomic() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.new_lock("l");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.acquire(t1, l);
        b.read(t1, x, 0);
        b.write(t1, x, 1);
        b.release(t1, l);
        b.acquire(t2, l);
        b.read(t2, x, 1);
        b.write(t2, x, 2);
        b.release(t2, l);
        b.join(t1, t2);
        let trace = b.finish();
        let view = trace.full_view();
        assert!(infer_rmw_pairs(&view).is_empty());
        let report = AtomicityDetector::default().detect(&trace);
        assert!(report.violations.is_empty());
    }

    /// MHB separation (join between the block and the remote access) makes
    /// the interleaving infeasible.
    #[test]
    fn join_prevents_interleaving() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let t1 = ThreadId::MAIN;
        let t2 = b.fork(t1);
        b.read(t2, x, 0);
        b.write(t2, x, 1);
        b.join(t1, t2);
        b.write(t1, x, 5); // after the join: cannot be serialized inside
        let trace = b.finish();
        let report = AtomicityDetector::default().detect(&trace);
        assert!(report.violations.is_empty(), "{report:?}");
        assert!(report.unsat >= 1);
    }

    /// Without a branch between the pair's read and write, the read's value
    /// is data-abstract and the lost update is feasible; *with* a branch,
    /// the read is pinned to its original value (written by the remote
    /// write), which forces the remote write before the pair — control
    /// flow limits atomicity prediction exactly as it limits races.
    #[test]
    fn control_flow_respected() {
        let build = |with_branch: bool| {
            let mut b = TraceBuilder::new();
            let x = b.var("x");
            let t1 = ThreadId::MAIN;
            let t2 = b.fork(t1);
            b.write(t1, x, 9); // remote write — the original justifier
            b.read(t2, x, 9); // pair: r = x
            if with_branch {
                b.branch(t2); // e.g. `if (r == 9)` before the store
            }
            b.write(t2, x, 10); // pair: x = r + 1
            b.join(t1, t2);
            b.finish()
        };
        // Data-abstract read: the remote write can slip in between.
        let detector = AtomicityDetector::default();
        let unguarded = detector.detect(&build(false));
        assert_eq!(unguarded.violations.len(), 1, "{unguarded:?}");
        // Pinned read: the remote write must come first — infeasible.
        let guarded = detector.detect(&build(true));
        assert!(guarded.violations.is_empty(), "{guarded:?}");
        assert!(guarded.unsat >= 1);
    }
}
