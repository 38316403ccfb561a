//! The traced run: serial, one input at a time, timing each public call
//! into a layer in pipeline order. The spans are kept in memory and folded
//! into per-round totals when the run ends.
//!
//! `RaceDetector::solve_window_result` is the shipped window solve; the
//! batched incremental solve inside it has no public seam. Each window is
//! therefore solved twice: once as shipped (the `rvcore.detector.*`
//! spans) and once through the public per-COP calls the shipped solve is
//! built from (enumeration, tier screens, cone, encoding, solving, witness
//! re-solve). The difference is reported as
//! `rvcore.detector.breakdown_gap_us`, not hidden.

use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

use rvcore::{
    encode, encode_with_skeleton, enumerate_cops, extract_witness, DetectionReport, DetectorConfig,
    EncoderOptions, PublishedSet, RaceDetector, SessionConfig, SessionManager, TierAnalysis,
    TierDecision, WindowSkeleton,
};
use rvsmt::{Budget, SmtResult, Solver};
use rvtrace::{
    check_consistency, from_json, validate_wait_links, BoundaryTracker, Cop, RaceSignature,
    StreamParser, Trace, View, WindowBoundary,
};

use crate::check::{check_verdict, shipped_config, Answers};
use crate::timed::{render, run_input, set_up, FEED_CHUNK};
use crate::workloads::{Input, Route, Size};
use crate::Outcome;

/// Every per-layer metric with its unit, in pipeline order. A `_us` name
/// is a span total, except the tier split, the window maximum, the
/// breakdown gap, the wall time and `untimed_us`.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("rvtrace.json.decode_us", "us"),
    ("rvtrace.json.mb_per_s", "MB/s"),
    ("rvtrace.stream.decode_us", "us"),
    ("rvtrace.stream.mb_per_s", "MB/s"),
    ("rvtrace.consistency.check_us", "us"),
    ("rvtrace.view.build_us", "us"),
    ("rvtrace.view.plan_us", "us"),
    ("rvtrace.view.straddle_plans", "count"),
    ("rvcore.cop.enumerate_us", "us"),
    ("rvcore.cop.cops", "count"),
    ("rvcore.cop.pairs_scanned", "count"),
    ("rvcore.cop.yield", "ratio"),
    ("rvcore.tiers.build_us", "us"),
    ("rvcore.tiers.decide_us", "us"),
    ("rvcore.tiers.tier_a_us", "us"),
    ("rvcore.tiers.tier_b_us", "us"),
    ("rvcore.tiers.decided_ratio", "ratio"),
    ("rvcore.slice.cone_us", "us"),
    ("rvcore.slice.cone_ratio", "ratio"),
    ("rvcore.encoder.encode_us", "us"),
    ("rvcore.encoder.constraints", "count"),
    ("rvsmt.solve_us", "us"),
    ("rvsmt.solves", "count"),
    ("rvsmt.conflicts", "count"),
    ("rvsmt.propagations", "count"),
    ("rvcore.witness.extract_us", "us"),
    ("rvcore.witness.failures", "count"),
    ("rvcore.detector.window_solve_us", "us"),
    ("rvcore.detector.window_max_us", "us"),
    ("rvcore.detector.merge_us", "us"),
    ("rvcore.detector.breakdown_gap_us", "us"),
    ("rvcore.session.feed_us", "us"),
    ("rvcore.session.finish_wait_us", "us"),
    ("rvcore.session.shed_windows", "count"),
    ("wall_us", "us"),
    ("untimed_us", "us"),
    ("untimed_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
];

/// The spans of the per-COP breakdown of a window solve.
const BREAKDOWN: [&str; 7] = [
    "rvcore.cop.enumerate_us",
    "rvcore.tiers.build_us",
    "rvcore.tiers.decide_us",
    "rvcore.slice.cone_us",
    "rvcore.encoder.encode_us",
    "rvsmt.solve_us",
    "rvcore.witness.extract_us",
];

/// In-memory span totals and counters.
#[derive(Default)]
struct Tracer {
    spans: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, f64>,
    window_max: Duration,
}

impl Tracer {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        *self.spans.entry(name).or_default() += start.elapsed();
        out
    }

    fn add(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn us(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e6)
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn span_total(&self) -> Duration {
        self.spans.values().sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Conflicting-pair candidates `enumerate_cops` scans in a window: per
/// non-volatile variable, every write pair plus every write-read pair,
/// same-thread pairs included (the enumerator rejects those only after
/// reaching them, so `pairs_considered` does not count them).
fn pairs_scanned(view: &View<'_>) -> f64 {
    let trace = view.trace();
    (0..trace.n_vars() as u32)
        .map(rvtrace::VarId)
        .filter(|&v| !trace.is_volatile(v))
        .map(|v| {
            let w = view.writes_of(v).len() as f64;
            let r = view.reads_of(v).len() as f64;
            w * (w - 1.0) / 2.0 + w * r
        })
        .sum()
}

/// The canonical witness the detector reports for a confirmed COP: an
/// unsliced re-encoding, a fresh solve, and witness extraction.
fn witness(view: &View<'_>, cop: Cop, cfg: &DetectorConfig, budget: &Budget) -> bool {
    let opts = EncoderOptions {
        mode: cfg.mode,
        prune_write_sets: cfg.prune_write_sets,
        slice: false,
    };
    let enc = encode(view, cop, opts);
    let mut solver = Solver::new(&enc.fb);
    if cfg.phase_hints {
        solver.hint_atom_phases(|a| enc.phase_hint(a));
    }
    solver.solve(budget) == SmtResult::Sat
        && extract_witness(view, cop, &enc, &solver, cfg.mode).is_ok()
}

/// The per-COP breakdown of one window, deduplicating against the
/// signatures merged from earlier windows as the shipped solve does.
fn breakdown(
    t: &mut Tracer,
    view: &View<'_>,
    cfg: &DetectorConfig,
    confirmed: &HashSet<RaceSignature>,
) {
    let en = t.span("rvcore.cop.enumerate_us", || {
        enumerate_cops(view, cfg.quick_check, cfg.max_cops_per_signature)
    });
    t.add("rvcore.cop.cops", en.cops.len() as f64);
    t.add("rvcore.cop.pairs_scanned", pairs_scanned(view));
    if en.cops.is_empty() {
        return;
    }
    let budget = Budget {
        max_conflicts: cfg.max_conflicts,
        timeout: Some(cfg.solver_timeout),
    };
    let opts = EncoderOptions {
        mode: cfg.mode,
        prune_write_sets: cfg.prune_write_sets,
        slice: cfg.slice,
    };
    let mut tiers = t.span("rvcore.tiers.build_us", || {
        TierAnalysis::new(view, cfg.mode, cfg.prune_write_sets)
    });
    let mut skeleton: Option<WindowSkeleton<'_, '_>> = None;
    let mut local: HashSet<RaceSignature> = HashSet::new();
    for cop in en.cops {
        let sig = RaceSignature::of_cop(view.trace(), cop);
        if cfg.dedup_signatures && (confirmed.contains(&sig) || local.contains(&sig)) {
            continue;
        }
        t.add("decisions", 1.0);
        let raced = match t.span("rvcore.tiers.decide_us", || tiers.decide(&cop)) {
            TierDecision::Refuted => {
                t.add("decided", 1.0);
                false
            }
            TierDecision::Confirmed => {
                t.add("decided", 1.0);
                let ok = t.span("rvcore.witness.extract_us", || {
                    witness(view, cop, cfg, &budget)
                });
                t.add("rvcore.witness.failures", f64::from(u8::from(!ok)));
                ok
            }
            TierDecision::Residue => {
                let skel = match skeleton.as_ref() {
                    Some(s) => s,
                    None => {
                        let s = t.span("rvcore.slice.cone_us", || WindowSkeleton::new(view));
                        skeleton.insert(s)
                    }
                };
                if opts.slicing_active() && !view.has_extended_sync() {
                    let cone = t.span("rvcore.slice.cone_us", || {
                        skel.cone(std::slice::from_ref(&cop), opts.prune_write_sets)
                    });
                    t.add("cone_events", cone.n_events() as f64);
                    t.add("cone_window_events", view.len() as f64);
                }
                // Includes the encoder's own cone computation.
                let enc = t.span("rvcore.encoder.encode_us", || {
                    encode_with_skeleton(skel, cop, opts)
                });
                t.add("rvcore.encoder.constraints", enc.n_constraints as f64);
                let (result, stats) = t.span("rvsmt.solve_us", || {
                    let mut solver = Solver::new(&enc.fb);
                    if cfg.phase_hints {
                        solver.hint_atom_phases(|a| enc.phase_hint(a));
                    }
                    (solver.solve(&budget), solver.stats().sat)
                });
                t.add("rvsmt.solves", 1.0);
                t.add("rvsmt.conflicts", stats.conflicts as f64);
                t.add("rvsmt.propagations", stats.propagations as f64);
                if result == SmtResult::Sat {
                    let ok = t.span("rvcore.witness.extract_us", || {
                        witness(view, cop, cfg, &budget)
                    });
                    t.add("rvcore.witness.failures", f64::from(u8::from(!ok)));
                    ok
                } else {
                    false
                }
            }
        };
        if raced {
            local.insert(sig);
        }
    }
    // The analysis' own timers split the decide span by tier.
    t.add(
        "rvcore.tiers.tier_a_us",
        tiers.tier_a_time().as_secs_f64() * 1e6,
    );
    t.add(
        "rvcore.tiers.tier_b_us",
        tiers.tier_b_time().as_secs_f64() * 1e6,
    );
}

/// Decodes, checks and windows one input, then solves and merges every
/// window as shipped, with the per-COP breakdown beside each solve.
fn decomposed(
    t: &mut Tracer,
    route: Route,
    input: &Input,
    cfg: &DetectorConfig,
) -> Result<(Trace, DetectionReport), String> {
    let size = cfg.window_size.max(1);
    let trace = if route == Route::WholeFile {
        let text = std::str::from_utf8(&input.bytes).map_err(|e| e.to_string())?;
        let trace = t
            .span("rvtrace.json.decode_us", || from_json(text))
            .map_err(|e| e.to_string())?;
        t.add("json_bytes", input.bytes.len() as f64);
        trace
    } else {
        let data = t.span("rvtrace.stream.decode_us", || {
            let mut parser = StreamParser::new();
            for chunk in input.bytes.chunks(FEED_CHUNK) {
                parser.feed(chunk)?;
            }
            parser.finish()?;
            validate_wait_links(parser.data())?;
            Ok::<_, rvtrace::JsonError>(parser.into_data())
        });
        let data = data.map_err(|e| e.to_string())?;
        t.add("stream_bytes", input.bytes.len() as f64);
        Trace::from_data(data)
    };
    if !t
        .span("rvtrace.consistency.check_us", || check_consistency(&trace))
        .is_empty()
    {
        return Err(format!("{}: trace is not consistent", input.name));
    }
    let ranges: Vec<std::ops::Range<usize>> = (0..trace.len())
        .step_by(size)
        .map(|s| s..(s + size).min(trace.len()))
        .collect();
    let views: Vec<View<'_>> = t.span("rvtrace.view.build_us", || {
        let mut boundary = WindowBoundary::initial(&trace);
        ranges
            .iter()
            .map(|r| {
                let view = boundary.view(&trace, r.clone());
                boundary.advance(trace.events(), r.clone());
                view
            })
            .collect()
    });
    let plans = t.span("rvtrace.view.plan_us", || {
        let mut tracker = BoundaryTracker::new(WindowBoundary::initial(&trace), cfg.spill_events());
        ranges
            .iter()
            .map(|r| {
                let plan = tracker.plan(trace.events(), r.clone(), |v| trace.is_volatile(v));
                tracker.advance(trace.events(), r.clone());
                plan
            })
            .collect::<Vec<_>>()
    });
    t.add(
        "rvtrace.view.straddle_plans",
        plans.iter().flatten().count() as f64,
    );
    let detector = RaceDetector::with_config(DetectorConfig {
        parallelism: 1,
        ..cfg.clone()
    });
    let published = PublishedSet::new();
    let mut report = DetectionReport::default();
    let mut confirmed: HashSet<RaceSignature> = HashSet::new();
    for (index, view) in views.iter().enumerate() {
        let start = Instant::now();
        let result =
            detector.solve_window_result(index, view, plans[index].as_ref(), Some(&published));
        let took = start.elapsed();
        *t.spans
            .entry("rvcore.detector.window_solve_us")
            .or_default() += took;
        t.window_max = t.window_max.max(took);
        breakdown(t, view, cfg, &confirmed);
        t.span("rvcore.detector.merge_us", || {
            detector.merge_window_result(result, &mut report, &mut confirmed, Some(&published))
        });
    }
    std::hint::black_box(render(&trace, &report));
    Ok((trace, report))
}

/// The session route as a daemon client drives it: open, chunked feeds,
/// finish.
fn session(
    t: &mut Tracer,
    manager: &SessionManager,
    input: &Input,
    cfg: &DetectorConfig,
) -> Result<(Trace, DetectionReport), String> {
    let mut s = t.span("rvcore.session.feed_us", || {
        manager.open_session(SessionConfig {
            detector: cfg.clone(),
            ..SessionConfig::default()
        })
    });
    for chunk in input.bytes.chunks(FEED_CHUNK) {
        t.span("rvcore.session.feed_us", || s.feed(chunk))
            .map_err(|e| e.to_string())?;
    }
    let outcome = t
        .span("rvcore.session.finish_wait_us", || s.finish())
        .map_err(|e| e.to_string())?;
    t.add("rvcore.session.shed_windows", outcome.shed_windows as f64);
    std::hint::black_box(render(&outcome.trace, &outcome.report));
    Ok((outcome.trace, outcome.report))
}

/// The traced run: whole rounds, serial, until `seconds` have passed.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    answers: &Answers,
) -> Result<Outcome, String> {
    let (workload, manager, _) = set_up(name, seed, size)?;
    let cfg = shipped_config();
    let serial = DetectorConfig {
        parallelism: 1,
        ..cfg.clone()
    };
    let mut t = Tracer::default();
    let mut wall = Duration::ZERO;
    let mut untraced = Duration::ZERO;
    let mut attempted = 0usize;
    let mut errors = Vec::new();
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for index in workload.round(rounds) {
            let input = &workload.inputs[index];
            // The same input untraced and serial, for the tracing overhead.
            // The decomposed path decodes sessions' NDJSON as a stream, so
            // the session route compares against `detect_stream`.
            let route = match workload.route {
                Route::Session => Route::Stream,
                r => r,
            };
            untraced += run_input(route, input, &serial, None)
                .map(|v| v.verdict)
                .unwrap_or_default();
            let traced_start = Instant::now();
            let session = manager.as_ref().map(|m| session(&mut t, m, input, &cfg));
            let decomposed = decomposed(&mut t, workload.route, input, &cfg);
            wall += traced_start.elapsed();
            for outcome in session.into_iter().chain([decomposed]) {
                attempted += 1;
                let checked = outcome
                    .and_then(|(trace, report)| check_verdict(input, &trace, &report, answers));
                errors.extend(checked.err());
            }
        }
        rounds += 1;
    }
    drop(manager);
    Ok(Outcome {
        attempted: attempted.max(1),
        failed: errors.len(),
        errors,
        metrics: layer_metrics(&t, wall, untraced, rounds),
    })
}

/// Folds the spans into per-round values.
fn layer_metrics(
    t: &Tracer,
    wall: Duration,
    untraced: Duration,
    rounds: usize,
) -> Vec<(&'static str, f64)> {
    let per_round = 1.0 / rounds as f64;
    let wall_us = wall.as_secs_f64() * 1e6;
    // Spans never overlap one another, so what they leave of the wall
    // time is the time no layer claims.
    let untimed_us = wall_us - t.span_total().as_secs_f64() * 1e6;
    let breakdown_us: f64 = BREAKDOWN.iter().map(|s| t.us(s)).sum();
    let session_us = t.us("rvcore.session.feed_us") + t.us("rvcore.session.finish_wait_us");
    // The shipped path as traced: everything but the breakdown re-solve
    // and the session path (which the untraced run does not repeat).
    let shipped_traced_us = wall_us - breakdown_us - session_us;
    let untraced_us = untraced.as_secs_f64() * 1e6;
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "rvtrace.json.mb_per_s" => {
                    ratio(t.count("json_bytes"), t.us("rvtrace.json.decode_us"))
                }
                "rvtrace.stream.mb_per_s" => {
                    ratio(t.count("stream_bytes"), t.us("rvtrace.stream.decode_us"))
                }
                "rvcore.cop.yield" => ratio(
                    t.count("rvcore.cop.cops"),
                    t.count("rvcore.cop.pairs_scanned"),
                ),
                "rvcore.tiers.decided_ratio" => ratio(t.count("decided"), t.count("decisions")),
                "rvcore.slice.cone_ratio" => {
                    ratio(t.count("cone_events"), t.count("cone_window_events"))
                }
                "rvcore.detector.window_max_us" => t.window_max.as_secs_f64() * 1e6,
                "rvcore.detector.breakdown_gap_us" => {
                    (t.us("rvcore.detector.window_solve_us") - breakdown_us) * per_round
                }
                "wall_us" => wall_us * per_round,
                "untimed_us" => untimed_us * per_round,
                "untimed_ratio" => ratio(untimed_us, wall_us),
                "trace_overhead_ratio" => ratio(shipped_traced_us, untraced_us) - 1.0,
                _ if unit == "us" && t.spans.contains_key(name) => t.us(name) * per_round,
                _ => t.count(name) * per_round,
            };
            (name, value)
        })
        .collect()
}
