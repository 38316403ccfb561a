//! Raw-speed benchmark: the `BENCH_pr10.json` harness mode.
//!
//! Certifies the trace→solve hot-path overhaul (arena trace storage,
//! batched/incremental window sessions, the tier cascade, relevance
//! slicing) by running every workload under two configurations of the
//! *same* binary:
//!
//! * **baseline** — the PR4-era detection pipeline: fixed windows, no
//!   slicing, no tier screens, no shared window encoding, a fresh
//!   encode-and-solve per COP (`slice`/`tiers`/`batch_windows`/
//!   `incremental` all off);
//! * **optimized** — the shipped defaults: slicing, tiers, the batched
//!   incremental window session.
//!
//! Three workloads cover the three regimes: `stream_large` (the
//! BENCH_pr4 100K-event streaming workload, shared by name so the
//! `bench_schema` trend gate can compare this document's wall clock
//! against the committed PR4 measurement), `handoff_large` (a ~100K-event
//! flag-handoff trace where the screens collapse ~11K solver calls), and
//! `residue_large` (a double-justifier handoff whose COPs survive both
//! screens, exercising the sliced incremental solver core — see
//! [`double_flag_workload`]).
//!
//! A fourth section races the determinism contract: the same residue
//! workload is detected under `--portfolio` on/off × jobs 1/2/4/8 (batch
//! off, incremental on, the only mode portfolio changes), and all eight
//! `deterministic_summary` renderings must be byte-identical; the
//! document records how many matched and a fingerprint of the common
//! summary.
//!
//! ```sh
//! cargo run -p rvbench --release --bin perf_pipeline -- --out BENCH_pr10.json
//! ```
//!
//! # Document schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "pr10",
//!   "mode": "full",
//!   "jobs": 4,
//!   "window_size": 2000,
//!   "warmup_iters": 1,
//!   "workloads": [
//!     {"name": "handoff_large", "events": 100963, "windows": 51,
//!      "baseline":  {"races": 1, "sat": 1, "unsat": 11200, "cops_solved": 11201,
//!                    "tier_confirmed": 0, "tier_refuted": 0, "tier_residue": 0,
//!                    "sliced_out": 0, "solver_solves": 11201, "wall_time_us": 29046776},
//!      "optimized": {"races": 1, "sat": 1, "unsat": 11200, "cops_solved": 11201,
//!                    "tier_confirmed": 1, "tier_refuted": 11200, "tier_residue": 0,
//!                    "sliced_out": 0, "solver_solves": 0, "wall_time_us": 135320}}
//!   ],
//!   "speedup_x100": 21464,
//!   "portfolio": {"name": "residue_small", "configs": 8, "matched": 8,
//!                 "fingerprint": 1234567890}
//! }
//! ```
//!
//! `races`, `sat`, `unsat` and `cops_solved` are count-type and must be
//! equal between the two runs for every workload (the soundness
//! contract: none of the optimizations may change a verdict). The
//! baseline run must report zero tier counters and zero sliced events
//! (it runs with both machines off); the optimized run's tier counters
//! must partition `cops_solved`. `wall_time_us` is run-shape dependent;
//! only `"full"` documents must show the ≥5x end-to-end speedup on the
//! largest workload (`speedup_x100 >= 500`), plus — summed over the
//! optimized runs — non-zero `tier_refuted`, `sliced_out` and
//! `solver_solves` (the screens screened, the slicer sliced, and the
//! incremental core still solved a residue). The portfolio section must
//! report `matched == configs` in every mode: byte-identity across
//! portfolio on/off and worker counts is a hard invariant, not a
//! full-run luxury.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rvcore::{DetectorConfig, RaceDetector, WindowMode};
pub use rvsim::workloads::handoff::double_flag_workload;
use rvsim::workloads::Workload;
use rvtrace::parse_json;

use crate::stream::racy_stream_workload;
use crate::tier::flag_handoff_workload;

/// Version of the `BENCH_pr10.json` document. Bumped on any incompatible
/// change (key renames, section shape).
pub const PERF_BENCH_SCHEMA_VERSION: u64 = 1;

/// The suite tag stamped into every document this harness emits.
pub const PERF_BENCH_SUITE: &str = "pr10";

/// End-to-end speedup floor (×100) enforced on the largest workload of a
/// `"full"` document.
pub const PERF_SPEEDUP_FLOOR_X100: i64 = 500;

/// Detection knobs for a perf-bench run.
#[derive(Debug, Clone, Copy)]
pub struct PerfBenchOptions {
    /// Window size in events for both configurations.
    pub window_size: usize,
    /// Per-COP solver budget.
    pub solver_timeout: Duration,
    /// Worker threads for both configurations.
    pub jobs: usize,
    /// Untimed warmup detections per workload before the timed runs
    /// (allocator growth, cache warming); recorded in the document.
    pub warmup_iters: u64,
}

impl Default for PerfBenchOptions {
    fn default() -> Self {
        PerfBenchOptions {
            window_size: 2_000,
            solver_timeout: Duration::from_secs(5),
            jobs: 4,
            warmup_iters: 1,
        }
    }
}

/// The smoke set: a few-window streaming trace plus a small residue
/// workload, for smoke runs and the schema test.
pub fn smoke_perf_workloads() -> Vec<Workload> {
    vec![
        racy_stream_workload("stream_small", 4_000),
        double_flag_workload("residue_small", 4, 12),
    ]
}

/// The full set: the shared BENCH_pr4 100K-event streaming workload (the
/// trend-gate anchor), a ~100K-event flag handoff (the largest workload,
/// where the speedup floor is enforced), and the residue workload that
/// keeps the sliced incremental solver honest.
pub fn full_perf_workloads() -> Vec<Workload> {
    vec![
        racy_stream_workload("stream_large", 100_000),
        flag_handoff_workload("handoff_large", 40, 280),
        double_flag_workload("residue_large", 8, 40),
    ]
}

/// The workload the portfolio byte-identity matrix runs on, per mode.
/// Residue-heavy (so the racer actually races the screens) but small:
/// the matrix detects it eight times.
pub fn portfolio_workload(mode: &str) -> Workload {
    if mode == "full" {
        double_flag_workload("residue_small", 4, 12)
    } else {
        double_flag_workload("residue_tiny", 2, 6)
    }
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The PR4-era pipeline: fixed windows, everything the later PRs added
/// switched off.
fn baseline_config(opts: &PerfBenchOptions) -> DetectorConfig {
    DetectorConfig {
        window_size: opts.window_size,
        solver_timeout: opts.solver_timeout,
        parallelism: opts.jobs,
        window_mode: WindowMode::Fixed,
        slice: false,
        tiers: false,
        batch_windows: false,
        incremental: false,
        portfolio: false,
        ..Default::default()
    }
}

/// The shipped defaults, pinned to the same window shape as the baseline.
fn optimized_config(opts: &PerfBenchOptions) -> DetectorConfig {
    DetectorConfig {
        slice: true,
        tiers: true,
        batch_windows: true,
        incremental: true,
        ..baseline_config(opts)
    }
}

struct PerfRun {
    races: u64,
    sat: u64,
    unsat: u64,
    cops_solved: u64,
    tier_confirmed: u64,
    tier_refuted: u64,
    tier_residue: u64,
    sliced_out: u64,
    solver_solves: u64,
    wall: Duration,
}

/// One end-to-end run: serialize → parse → detect, so the wall clock is
/// comparable with the whole-file pipeline BENCH_pr4 measured.
fn run_once(json: &str, cfg: DetectorConfig) -> (PerfRun, u64) {
    let t0 = Instant::now();
    let trace = rvtrace::from_json(json).expect("round-trip parse cannot fail");
    let report = RaceDetector::with_config(cfg).detect(&trace);
    let wall = t0.elapsed();
    let run = PerfRun {
        races: report.n_races() as u64,
        sat: report.stats.sat as u64,
        unsat: report.stats.unsat as u64,
        cops_solved: report.stats.cops_solved as u64,
        tier_confirmed: report.stats.tier_confirmed as u64,
        tier_refuted: report.stats.tier_refuted as u64,
        tier_residue: report.stats.tier_residue as u64,
        sliced_out: report.stats.sliced_out,
        solver_solves: report.stats.solver_totals.solves,
        wall,
    };
    (run, report.stats.windows as u64)
}

fn write_run(out: &mut String, key: &str, run: &PerfRun) {
    let _ = write!(
        out,
        "\"{key}\": {{\"races\": {}, \"sat\": {}, \"unsat\": {}, \"cops_solved\": {},\n      \
         \"tier_confirmed\": {}, \"tier_refuted\": {}, \"tier_residue\": {},\n      \
         \"sliced_out\": {}, \"solver_solves\": {}, \"wall_time_us\": {}}}",
        run.races,
        run.sat,
        run.unsat,
        run.cops_solved,
        run.tier_confirmed,
        run.tier_refuted,
        run.tier_residue,
        run.sliced_out,
        run.solver_solves,
        us(run.wall),
    );
}

/// FNV-1a over the summary bytes, masked into the non-negative `i64`
/// range the integer-only JSON schema can carry.
fn fingerprint(s: &str) -> i64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h & 0x7fff_ffff_ffff_ffff) as i64
}

/// Detects `workload` under portfolio on/off × jobs 1/2/4/8 (batch off,
/// incremental on — the per-COP session mode portfolio races in) and
/// returns `(configs, matched, fingerprint)` where `matched` counts the
/// runs whose `deterministic_summary` equals the first one's.
pub fn portfolio_matrix(workload: &Workload, opts: &PerfBenchOptions) -> (u64, u64, i64) {
    let mut first: Option<String> = None;
    let mut configs = 0u64;
    let mut matched = 0u64;
    for portfolio in [false, true] {
        for jobs in [1usize, 2, 4, 8] {
            let cfg = DetectorConfig {
                batch_windows: false,
                portfolio,
                parallelism: jobs,
                ..optimized_config(opts)
            };
            let summary = RaceDetector::with_config(cfg)
                .detect(&workload.trace)
                .deterministic_summary();
            configs += 1;
            match &first {
                None => {
                    first = Some(summary);
                    matched += 1;
                }
                Some(f) if *f == summary => matched += 1,
                Some(_) => {}
            }
        }
    }
    let fp = fingerprint(first.as_deref().unwrap_or(""));
    (configs, matched, fp)
}

/// Runs each workload end-to-end under the baseline and optimized
/// configurations (after `warmup_iters` untimed optimized passes), runs
/// the portfolio byte-identity matrix, and returns the versioned
/// document described in the module docs. `mode` is stamped into the
/// document and selects how much the validator enforces (`"full"` adds
/// the speedup floor and the nonzero-counter invariants).
pub fn run_perf_pipeline(workloads: &[Workload], opts: &PerfBenchOptions, mode: &str) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {PERF_BENCH_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"suite\": \"{PERF_BENCH_SUITE}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"jobs\": {},", opts.jobs);
    let _ = writeln!(out, "  \"window_size\": {},", opts.window_size);
    let _ = writeln!(out, "  \"warmup_iters\": {},", opts.warmup_iters);
    out.push_str("  \"workloads\": [");
    let mut largest: Option<(usize, Duration, Duration)> = None;
    for (i, w) in workloads.iter().enumerate() {
        let json = rvtrace::to_json(&w.trace);
        for _ in 0..opts.warmup_iters {
            run_once(&json, optimized_config(opts));
        }
        let (baseline, windows) = run_once(&json, baseline_config(opts));
        let (optimized, _) = run_once(&json, optimized_config(opts));
        if largest.as_ref().is_none_or(|&(e, ..)| w.trace.len() > e) {
            largest = Some((w.trace.len(), baseline.wall, optimized.wall));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"events\": {}, \"windows\": {},\n     ",
            w.name,
            w.trace.len(),
            windows,
        );
        write_run(&mut out, "baseline", &baseline);
        out.push_str(",\n     ");
        write_run(&mut out, "optimized", &optimized);
        out.push('}');
    }
    out.push_str("\n  ],\n");
    let (_, base_wall, opt_wall) = largest.expect("at least one workload");
    let speedup_x100 = (us(base_wall) as i64 * 100) / (us(opt_wall) as i64).max(1);
    let _ = writeln!(out, "  \"speedup_x100\": {speedup_x100},");
    let pw = portfolio_workload(mode);
    let (configs, matched, fp) = portfolio_matrix(&pw, opts);
    let _ = writeln!(
        out,
        "  \"portfolio\": {{\"name\": \"{}\", \"configs\": {configs}, \"matched\": {matched}, \
         \"fingerprint\": {fp}}}",
        pw.name,
    );
    out.push_str("}\n");
    out
}

/// Integer fields each run sub-object must carry, all non-negative.
const RUN_INT_KEYS: [&str; 10] = [
    "races",
    "sat",
    "unsat",
    "cops_solved",
    "tier_confirmed",
    "tier_refuted",
    "tier_residue",
    "sliced_out",
    "solver_solves",
    "wall_time_us",
];

/// Validates a `BENCH_pr10.json` document: version/suite/mode tags,
/// required keys, non-negative integers, a warmup pass (`warmup_iters ≥
/// 1`), verdict equality (`races`, `sat`, `unsat`, `cops_solved`)
/// between baseline and optimized on every workload, a clean baseline
/// (zero tier counters, zero sliced events), optimized tier counters
/// partitioning `cops_solved`, `speedup_x100` consistent with the
/// largest workload's wall clocks, and portfolio byte-identity
/// (`matched == configs`). `"full"` documents must additionally clear
/// the ≥5x speedup floor on the largest workload and show non-zero
/// optimized `tier_refuted`, `sliced_out` and `solver_solves` summed
/// over the workloads. Returns a description of the first violation.
pub fn validate_perf_bench_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .and_then(|v| v.as_int())
        .map_err(|e| e.to_string())?;
    if version != PERF_BENCH_SCHEMA_VERSION as i64 {
        return Err(format!(
            "schema_version is {version}, expected {PERF_BENCH_SCHEMA_VERSION}"
        ));
    }
    let suite = doc
        .field("suite")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if suite != PERF_BENCH_SUITE {
        return Err(format!("suite is `{suite}`, expected `{PERF_BENCH_SUITE}`"));
    }
    let mode = doc
        .field("mode")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode is `{mode}`, expected `smoke` or `full`"));
    }
    for key in ["jobs", "window_size", "warmup_iters"] {
        let v = doc
            .field(key)
            .and_then(|v| v.as_int())
            .map_err(|e| format!("{key}: {e}"))?;
        if v <= 0 {
            return Err(format!("{key} must be positive, got {v}"));
        }
    }
    let entries = doc
        .field("workloads")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .map_err(|e| format!("workloads: {e}"))?;
    if entries.is_empty() {
        return Err("workloads array is empty".into());
    }
    let mut largest: Option<(i64, String, i64, i64)> = None;
    let mut opt_refuted = 0i64;
    let mut opt_sliced = 0i64;
    let mut opt_solves = 0i64;
    for (i, entry) in entries.iter().enumerate() {
        let name = entry
            .field("name")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| format!("workloads[{i}].name: {e}"))?;
        let top = |key: &str| -> Result<i64, String> {
            let v = entry
                .field(key)
                .and_then(|v| v.as_int())
                .map_err(|e| format!("workload `{name}`: {key}: {e}"))?;
            if v < 0 {
                return Err(format!("workload `{name}`: {key} is negative ({v})"));
            }
            Ok(v)
        };
        let events = top("events")?;
        top("windows")?;
        let mut runs = [0i64; 20];
        for (r, run_key) in ["baseline", "optimized"].into_iter().enumerate() {
            let run = entry
                .field(run_key)
                .map_err(|e| format!("workload `{name}`: {run_key}: {e}"))?;
            for (k, key) in RUN_INT_KEYS.into_iter().enumerate() {
                let v = run
                    .field(key)
                    .and_then(|v| v.as_int())
                    .map_err(|e| format!("workload `{name}`: {run_key}.{key}: {e}"))?;
                if v < 0 {
                    return Err(format!(
                        "workload `{name}`: {run_key}.{key} is negative ({v})"
                    ));
                }
                runs[r * 10 + k] = v;
            }
        }
        let [b_races, b_sat, b_unsat, b_cops, b_conf, b_ref, b_res, b_sliced, _, b_wall, o_races, o_sat, o_unsat, o_cops, o_conf, o_ref, o_res, o_sliced, o_solves, o_wall] =
            runs;
        for (what, b, o) in [
            ("races", b_races, o_races),
            ("sat", b_sat, o_sat),
            ("unsat", b_unsat, o_unsat),
            ("cops_solved", b_cops, o_cops),
        ] {
            if b != o {
                return Err(format!(
                    "workload `{name}`: baseline {what} is {b} but optimized {what} is {o} \
                     — the hot-path overhaul must not change the verdict"
                ));
            }
        }
        if b_conf != 0 || b_ref != 0 || b_res != 0 || b_sliced != 0 {
            return Err(format!(
                "workload `{name}`: the baseline run carries tier or slice activity \
                 ({b_conf}/{b_ref}/{b_res}, sliced {b_sliced}) — it must run the \
                 PR4-era pipeline"
            ));
        }
        if o_conf + o_ref + o_res != o_cops {
            return Err(format!(
                "workload `{name}`: optimized tier counters {o_conf}+{o_ref}+{o_res} do \
                 not partition cops_solved ({o_cops})"
            ));
        }
        opt_refuted += o_ref;
        opt_sliced += o_sliced;
        opt_solves += o_solves;
        if largest.as_ref().is_none_or(|(e, ..)| events > *e) {
            largest = Some((events, name, b_wall, o_wall));
        }
    }
    let (_, largest_name, b_wall, o_wall) = largest.expect("workloads array checked non-empty");
    let speedup = doc
        .field("speedup_x100")
        .and_then(|v| v.as_int())
        .map_err(|e| format!("speedup_x100: {e}"))?;
    let expected = b_wall * 100 / o_wall.max(1);
    if speedup != expected {
        return Err(format!(
            "speedup_x100 is {speedup} but the largest workload's walls \
             ({b_wall}/{o_wall}) give {expected}"
        ));
    }
    let portfolio = doc
        .field("portfolio")
        .map_err(|e| format!("portfolio: {e}"))?;
    let pfield = |key: &str| -> Result<i64, String> {
        portfolio
            .field(key)
            .and_then(|v| v.as_int())
            .map_err(|e| format!("portfolio.{key}: {e}"))
    };
    portfolio
        .field("name")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| format!("portfolio.name: {e}"))?;
    let configs = pfield("configs")?;
    let matched = pfield("matched")?;
    let fp = pfield("fingerprint")?;
    if configs < 2 {
        return Err(format!(
            "portfolio.configs is {configs}; the matrix must cover at least \
             portfolio on and off"
        ));
    }
    if matched != configs {
        return Err(format!(
            "portfolio matched {matched} of {configs} configs — reports must be \
             byte-identical across portfolio on/off and worker counts"
        ));
    }
    if fp < 0 {
        return Err(format!("portfolio.fingerprint is negative ({fp})"));
    }
    if mode == "full" {
        if speedup < PERF_SPEEDUP_FLOOR_X100 {
            return Err(format!(
                "workload `{largest_name}`: speedup_x100 is {speedup}, below the \
                 ≥{PERF_SPEEDUP_FLOOR_X100} floor (≥5x end-to-end)"
            ));
        }
        if opt_refuted == 0 {
            return Err(
                "optimized runs refuted nothing via the tiers — the screens \
                 did not screen"
                    .into(),
            );
        }
        if opt_sliced == 0 {
            return Err("optimized runs sliced nothing — the cone slicer did not run".into());
        }
        if opt_solves == 0 {
            return Err("optimized runs never reached the solver — the incremental \
                 core was never exercised"
                .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_perf_pipeline_emits_valid_document() {
        let json = run_perf_pipeline(
            &smoke_perf_workloads(),
            &PerfBenchOptions::default(),
            "smoke",
        );
        validate_perf_bench_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"suite\": \"pr10\""), "{json}");
        assert!(json.contains("\"name\": \"residue_small\""), "{json}");
        assert!(json.contains("\"warmup_iters\": 1"), "{json}");
    }

    #[test]
    fn double_flag_workload_is_pure_residue() {
        // The workload's reason to exist: its payload COPs must defeat
        // both screens (two same-value justifiers blind Tier B) and land
        // in the residue, where the incremental solver refutes them.
        let w = double_flag_workload("w", 2, 3);
        let report = RaceDetector::with_config(DetectorConfig {
            tiers: true,
            ..Default::default()
        })
        .detect(&w.trace);
        assert_eq!(report.n_races(), 1, "only the head race is real");
        assert_eq!(report.stats.tier_refuted, 0, "Tier B must be blind here");
        assert!(report.stats.tier_residue >= 6, "one residue COP per block");
        assert_eq!(
            report.stats.unsat as usize, report.stats.tier_residue,
            "the solver refutes every residue COP"
        );
    }

    #[test]
    fn validator_rejects_tampered_documents() {
        let json = run_perf_pipeline(
            &smoke_perf_workloads(),
            &PerfBenchOptions::default(),
            "smoke",
        );
        let wrong_version = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(validate_perf_bench_json(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));
        let wrong_suite = json.replace("\"suite\": \"pr10\"", "\"suite\": \"pr9\"");
        assert!(validate_perf_bench_json(&wrong_suite)
            .unwrap_err()
            .contains("suite"));
        assert!(validate_perf_bench_json("not json").is_err());
        assert!(validate_perf_bench_json("{}").is_err());
    }

    #[test]
    fn validator_enforces_verdicts_counters_and_full_mode_floors() {
        // Hand-built document: minimal but internally consistent.
        let good = r#"{
  "schema_version": 1, "suite": "pr10", "mode": "smoke",
  "jobs": 1, "window_size": 50, "warmup_iters": 1,
  "workloads": [
    {"name": "w", "events": 50, "windows": 1,
     "baseline": {"races": 1, "sat": 1, "unsat": 4, "cops_solved": 5,
      "tier_confirmed": 0, "tier_refuted": 0, "tier_residue": 0,
      "sliced_out": 0, "solver_solves": 5, "wall_time_us": 600},
     "optimized": {"races": 1, "sat": 1, "unsat": 4, "cops_solved": 5,
      "tier_confirmed": 1, "tier_refuted": 3, "tier_residue": 1,
      "sliced_out": 7, "solver_solves": 1, "wall_time_us": 100}}
  ],
  "speedup_x100": 600,
  "portfolio": {"name": "p", "configs": 8, "matched": 8, "fingerprint": 42}
}"#;
        validate_perf_bench_json(good).unwrap();
        // Verdict disagreement between the two runs.
        let disagreeing = good.replacen("\"unsat\": 4", "\"unsat\": 3", 1);
        assert!(validate_perf_bench_json(&disagreeing)
            .unwrap_err()
            .contains("must not change the verdict"));
        // The baseline run must not show tier or slice activity.
        let leaky = good.replacen("\"sliced_out\": 0", "\"sliced_out\": 2", 1);
        assert!(validate_perf_bench_json(&leaky)
            .unwrap_err()
            .contains("PR4-era"));
        // Optimized tier counters must partition the COP total.
        let unbalanced = good.replacen("\"tier_refuted\": 3", "\"tier_refuted\": 2", 1);
        assert!(validate_perf_bench_json(&unbalanced)
            .unwrap_err()
            .contains("partition"));
        // The recorded speedup must match the recorded walls.
        let drifted = good.replace("\"speedup_x100\": 600", "\"speedup_x100\": 700");
        assert!(validate_perf_bench_json(&drifted)
            .unwrap_err()
            .contains("speedup_x100"));
        // A warmup pass is mandatory (the no-warmup harness bug).
        let cold = good.replace("\"warmup_iters\": 1", "\"warmup_iters\": 0");
        assert!(validate_perf_bench_json(&cold)
            .unwrap_err()
            .contains("warmup_iters"));
        // Portfolio byte-identity is enforced in every mode.
        let diverged = good.replace("\"matched\": 8", "\"matched\": 7");
        assert!(validate_perf_bench_json(&diverged)
            .unwrap_err()
            .contains("byte-identical"));
        // Full mode: the speedup floor...
        let full = good.replace("\"mode\": \"smoke\"", "\"mode\": \"full\"");
        validate_perf_bench_json(&full).unwrap();
        let slow = full
            .replace("\"wall_time_us\": 600", "\"wall_time_us\": 300")
            .replace("\"speedup_x100\": 600", "\"speedup_x100\": 300");
        assert!(validate_perf_bench_json(&slow)
            .unwrap_err()
            .contains("floor"));
        // ...the screens must have refuted something...
        let no_screens = full.replacen(
            "\"tier_confirmed\": 1, \"tier_refuted\": 3, \"tier_residue\": 1",
            "\"tier_confirmed\": 1, \"tier_refuted\": 0, \"tier_residue\": 4",
            1,
        );
        assert!(validate_perf_bench_json(&no_screens)
            .unwrap_err()
            .contains("screen"));
        // ...the slicer must have sliced...
        let no_slice = full.replacen("\"sliced_out\": 7", "\"sliced_out\": 0", 1);
        assert!(validate_perf_bench_json(&no_slice)
            .unwrap_err()
            .contains("slicer"));
        // ...and the solver core must have been exercised.
        let no_solves = full.replacen("\"solver_solves\": 1", "\"solver_solves\": 0", 1);
        assert!(validate_perf_bench_json(&no_solves)
            .unwrap_err()
            .contains("incremental"));
    }
}
