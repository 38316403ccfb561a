//! Tiered-cascade benchmark: the `BENCH_pr6.json` harness mode.
//!
//! Compares the detector with the tiered pre-solver screens on (the
//! default) against `--no-tiers` on *flag-handoff* workloads: one
//! sync-free racy pair at the head (Tier A confirms it without a solver
//! call), then thousands of lock-protected message-passing blocks whose
//! only QC-surviving COP per block is entailment-ordered through a forced
//! flag read (Tier B refutes each one without a solver call). Without the
//! cascade every one of those COPs is encoded and solved to `Unsat`; with
//! it the solver is never invoked.
//!
//! ```sh
//! cargo run -p rvbench --release --bin tier_pipeline -- --out BENCH_pr6.json
//! ```
//!
//! # Document schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "pr6",
//!   "mode": "full",
//!   "jobs": 4,
//!   "workloads": [
//!     {"name": "tier_large", "events": 99163, "window_size": 10000,
//!      "tiers":    {"races": 1, "sat": 1, "unsat": 11000, "cops_solved": 11001,
//!                   "tier_confirmed": 1, "tier_refuted": 11000, "tier_residue": 0,
//!                   "solver_solves": 0, "wall_time_us": 310521},
//!      "no_tiers": {"races": 1, "sat": 1, "unsat": 11000, "cops_solved": 11001,
//!                   "tier_confirmed": 0, "tier_refuted": 0, "tier_residue": 0,
//!                   "solver_solves": 11001, "wall_time_us": 2471933}}
//!   ]
//! }
//! ```
//!
//! `races`, `sat`, `unsat` and `cops_solved` are count-type and must be
//! equal between the two runs for every workload (the soundness contract:
//! the cascade never changes a verdict). In the `no_tiers` run all three
//! tier counters must be zero; in the `tiers` run they must partition
//! `cops_solved`. `wall_time_us` and `solver_solves` are run-shape
//! dependent; only `"full"` documents must show, on the largest workload,
//! the ≥2x solver-call reduction, the ≥1.3x wall-clock speedup, and the
//! residue strictly below the COP total (the screens actually screened).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rvcore::{DetectorConfig, RaceDetector};
pub use rvsim::workloads::handoff::flag_handoff_workload;
use rvsim::workloads::Workload;
use rvtrace::parse_json;

/// Version of the `BENCH_pr6.json` document. Bumped on any incompatible
/// change (key renames, section shape).
pub const TIER_BENCH_SCHEMA_VERSION: u64 = 1;

/// The suite tag stamped into every document this harness emits.
pub const TIER_BENCH_SUITE: &str = "pr6";

/// Detection knobs for a tier-bench run.
#[derive(Debug, Clone, Copy)]
pub struct TierBenchOptions {
    /// Per-COP solver budget.
    pub solver_timeout: Duration,
    /// Worker threads for both runs.
    pub jobs: usize,
}

impl Default for TierBenchOptions {
    fn default() -> Self {
        TierBenchOptions {
            solver_timeout: Duration::from_secs(10),
            jobs: 4,
        }
    }
}

/// The smallest flag-handoff workload, for smoke runs and the schema test.
pub fn smoke_tier_workloads() -> Vec<Workload> {
    vec![flag_handoff_workload("tier_small", 2, 4)]
}

/// The full set: the smoke size plus a ~100K-event workload where the
/// solver-call collapse dominates everything else.
pub fn full_tier_workloads() -> Vec<Workload> {
    vec![
        flag_handoff_workload("tier_small", 2, 4),
        flag_handoff_workload("tier_medium", 8, 60),
        flag_handoff_workload("tier_large", 40, 275),
    ]
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

struct TierRun {
    races: u64,
    sat: u64,
    unsat: u64,
    cops_solved: u64,
    tier_confirmed: u64,
    tier_refuted: u64,
    tier_residue: u64,
    solver_solves: u64,
    wall: Duration,
}

fn run_once(workload: &Workload, opts: &TierBenchOptions, tiers: bool) -> TierRun {
    let cfg = DetectorConfig {
        solver_timeout: opts.solver_timeout,
        parallelism: opts.jobs,
        tiers,
        ..Default::default()
    };
    let t0 = Instant::now();
    let report = RaceDetector::with_config(cfg).detect(&workload.trace);
    TierRun {
        races: report.n_races() as u64,
        sat: report.stats.sat as u64,
        unsat: report.stats.unsat as u64,
        cops_solved: report.stats.cops_solved as u64,
        tier_confirmed: report.stats.tier_confirmed as u64,
        tier_refuted: report.stats.tier_refuted as u64,
        tier_residue: report.stats.tier_residue as u64,
        solver_solves: report.stats.solver_totals.solves,
        wall: t0.elapsed(),
    }
}

fn write_run(out: &mut String, key: &str, run: &TierRun) {
    let _ = write!(
        out,
        "\"{key}\": {{\"races\": {}, \"sat\": {}, \"unsat\": {}, \"cops_solved\": {},\n      \
         \"tier_confirmed\": {}, \"tier_refuted\": {}, \"tier_residue\": {},\n      \
         \"solver_solves\": {}, \"wall_time_us\": {}}}",
        run.races,
        run.sat,
        run.unsat,
        run.cops_solved,
        run.tier_confirmed,
        run.tier_refuted,
        run.tier_residue,
        run.solver_solves,
        us(run.wall),
    );
}

/// Runs each workload with the cascade on and off and returns the
/// versioned comparison document described in the module docs. `mode` is
/// stamped into the document and selects how much the validator enforces
/// (`"full"` adds the reduction/speedup/residue invariants).
pub fn run_tier_pipeline(workloads: &[Workload], opts: &TierBenchOptions, mode: &str) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {TIER_BENCH_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"suite\": \"{TIER_BENCH_SUITE}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"jobs\": {},", opts.jobs);
    out.push_str("  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        let tiers = run_once(w, opts, true);
        let no_tiers = run_once(w, opts, false);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"events\": {}, \"window_size\": {},\n     ",
            w.name,
            w.trace.len(),
            DetectorConfig::default().window_size,
        );
        write_run(&mut out, "tiers", &tiers);
        out.push_str(",\n     ");
        write_run(&mut out, "no_tiers", &no_tiers);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Integer fields each run sub-object must carry, all non-negative.
const RUN_INT_KEYS: [&str; 9] = [
    "races",
    "sat",
    "unsat",
    "cops_solved",
    "tier_confirmed",
    "tier_refuted",
    "tier_residue",
    "solver_solves",
    "wall_time_us",
];

/// Validates a `BENCH_pr6.json` document: version/suite/mode tags,
/// required keys, non-negative integers, verdict equality (`races`,
/// `sat`, `unsat`, `cops_solved`) between the two runs on every workload,
/// zeroed tier counters in the `no_tiers` run, the tier counters
/// partitioning `cops_solved` in the `tiers` run, and — for `"full"`
/// documents, on the largest workload — a ≥2x solver-call reduction, a
/// ≥1.3x wall-clock speedup, and `tier_residue` strictly below
/// `cops_solved`. Returns a description of the first violation.
pub fn validate_tier_bench_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .and_then(|v| v.as_int())
        .map_err(|e| e.to_string())?;
    if version != TIER_BENCH_SCHEMA_VERSION as i64 {
        return Err(format!(
            "schema_version is {version}, expected {TIER_BENCH_SCHEMA_VERSION}"
        ));
    }
    let suite = doc
        .field("suite")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if suite != TIER_BENCH_SUITE {
        return Err(format!("suite is `{suite}`, expected `{TIER_BENCH_SUITE}`"));
    }
    let mode = doc
        .field("mode")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode is `{mode}`, expected `smoke` or `full`"));
    }
    let jobs = doc
        .field("jobs")
        .and_then(|v| v.as_int())
        .map_err(|e| format!("jobs: {e}"))?;
    if jobs <= 0 {
        return Err(format!("jobs must be positive, got {jobs}"));
    }
    let entries = doc
        .field("workloads")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .map_err(|e| format!("workloads: {e}"))?;
    if entries.is_empty() {
        return Err("workloads array is empty".into());
    }
    let mut largest: Option<(i64, String, [i64; 18])> = None;
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
        top("window_size")?;
        let mut runs = [0i64; 18];
        for (r, run_key) in ["tiers", "no_tiers"].into_iter().enumerate() {
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
                runs[r * 9 + k] = v;
            }
        }
        let [t_races, t_sat, t_unsat, t_cops, t_conf, t_ref, t_res, _, _, n_races, n_sat, n_unsat, n_cops, n_conf, n_ref, n_res, _, _] =
            runs;
        for (what, t, n) in [
            ("races", t_races, n_races),
            ("sat", t_sat, n_sat),
            ("unsat", t_unsat, n_unsat),
            ("cops_solved", t_cops, n_cops),
        ] {
            if t != n {
                return Err(format!(
                    "workload `{name}`: tiers {what} is {t} but no_tiers {what} is {n} \
                     — the cascade must not change the verdict"
                ));
            }
        }
        if n_conf != 0 || n_ref != 0 || n_res != 0 {
            return Err(format!(
                "workload `{name}`: the no_tiers run carries non-zero tier counters \
                 ({n_conf}/{n_ref}/{n_res})"
            ));
        }
        if t_conf + t_ref + t_res != t_cops {
            return Err(format!(
                "workload `{name}`: tier counters {t_conf}+{t_ref}+{t_res} do not \
                 partition cops_solved ({t_cops})"
            ));
        }
        if largest.as_ref().is_none_or(|(e, ..)| events > *e) {
            largest = Some((events, name, runs));
        }
    }
    if mode == "full" {
        let (_, name, runs) = largest.expect("workloads array checked non-empty");
        let [_, _, _, t_cops, _, _, t_res, t_solves, t_wall, _, _, _, _, _, _, _, n_solves, n_wall] =
            runs;
        if t_res >= t_cops {
            return Err(format!(
                "workload `{name}`: tier_residue ({t_res}) is not below cops_solved \
                 ({t_cops}) — the screens decided nothing"
            ));
        }
        if n_solves < 2 * t_solves {
            return Err(format!(
                "workload `{name}`: no_tiers solver_solves ({n_solves}) are not ≥2x \
                 tiers ({t_solves})"
            ));
        }
        if 10 * n_wall < 13 * t_wall {
            return Err(format!(
                "workload `{name}`: no_tiers wall_time_us ({n_wall}) is not ≥1.3x \
                 tiers ({t_wall})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_pipeline_emits_valid_document() {
        let json = run_tier_pipeline(
            &smoke_tier_workloads(),
            &TierBenchOptions::default(),
            "smoke",
        );
        validate_tier_bench_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"suite\": \"pr6\""), "{json}");
        assert!(json.contains("\"name\": \"tier_small\""), "{json}");
    }

    #[test]
    fn validator_rejects_tampered_documents() {
        let json = run_tier_pipeline(
            &smoke_tier_workloads(),
            &TierBenchOptions::default(),
            "smoke",
        );
        let wrong_version = json.replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert!(validate_tier_bench_json(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));
        let wrong_suite = json.replace("\"suite\": \"pr6\"", "\"suite\": \"pr5\"");
        assert!(validate_tier_bench_json(&wrong_suite)
            .unwrap_err()
            .contains("suite"));
        assert!(validate_tier_bench_json("not json").is_err());
        assert!(validate_tier_bench_json("{}").is_err());
    }

    #[test]
    fn validator_enforces_verdicts_counters_and_full_mode_ratios() {
        // Hand-built document: verdicts disagree between the runs.
        let disagreeing = r#"{
  "schema_version": 1, "suite": "pr6", "mode": "smoke",
  "jobs": 1,
  "workloads": [
    {"name": "w", "events": 50, "window_size": 50,
     "tiers": {"races": 1, "sat": 1, "unsat": 4, "cops_solved": 5,
      "tier_confirmed": 1, "tier_refuted": 4, "tier_residue": 0,
      "solver_solves": 0, "wall_time_us": 3},
     "no_tiers": {"races": 2, "sat": 2, "unsat": 3, "cops_solved": 5,
      "tier_confirmed": 0, "tier_refuted": 0, "tier_residue": 0,
      "solver_solves": 5, "wall_time_us": 9}}
  ]
}"#;
        assert!(validate_tier_bench_json(disagreeing)
            .unwrap_err()
            .contains("must not change the verdict"));
        let agreeing = disagreeing
            .replace("\"races\": 2", "\"races\": 1")
            .replace("\"sat\": 2, \"unsat\": 3", "\"sat\": 1, \"unsat\": 4");
        validate_tier_bench_json(&agreeing).unwrap();
        // The no_tiers run must not report tier activity.
        let leaky = agreeing.replacen("\"tier_confirmed\": 0", "\"tier_confirmed\": 1", 1);
        assert!(validate_tier_bench_json(&leaky)
            .unwrap_err()
            .contains("non-zero tier counters"));
        // The tiers run's counters must partition the COP total.
        let unbalanced = agreeing.replacen("\"tier_refuted\": 4", "\"tier_refuted\": 3", 1);
        assert!(validate_tier_bench_json(&unbalanced)
            .unwrap_err()
            .contains("partition"));
        // Full mode: the screens must decide something...
        let all_residue = agreeing
            .replace("\"mode\": \"smoke\"", "\"mode\": \"full\"")
            .replacen(
                "\"tier_confirmed\": 1, \"tier_refuted\": 4, \"tier_residue\": 0",
                "\"tier_confirmed\": 0, \"tier_refuted\": 0, \"tier_residue\": 5",
                1,
            );
        assert!(validate_tier_bench_json(&all_residue)
            .unwrap_err()
            .contains("decided nothing"));
        // ...the solver-call ratio is enforced...
        let weak_solves = agreeing
            .replace("\"mode\": \"smoke\"", "\"mode\": \"full\"")
            .replacen("\"solver_solves\": 0", "\"solver_solves\": 3", 1);
        assert!(validate_tier_bench_json(&weak_solves)
            .unwrap_err()
            .contains("≥2x"));
        // ...and so is the wall-clock ratio.
        let weak_wall = agreeing
            .replace("\"mode\": \"smoke\"", "\"mode\": \"full\"")
            .replacen("\"wall_time_us\": 3", "\"wall_time_us\": 8", 1);
        assert!(validate_tier_bench_json(&weak_wall)
            .unwrap_err()
            .contains("≥1.3x"));
        // The same weak documents pass in smoke mode: ratios not enforced.
        let smoke = weak_wall.replace("\"mode\": \"full\"", "\"mode\": \"smoke\"");
        validate_tier_bench_json(&smoke).unwrap();
    }
}
