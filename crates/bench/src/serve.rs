//! Multi-tenant session benchmark: the `BENCH_pr7.json` harness mode.
//!
//! Runs a mix of tenants concurrently through one [`rvcore::SessionManager`]
//! — the same engine `rvserved` multiplexes socket sessions onto — and
//! checks the daemon determinism contract end to end: every tenant's
//! report must match a solo [`rvcore::RaceDetector`] run over the same
//! trace with the same knobs, a tenant killed mid-stream must be torn
//! down without touching its neighbors, and the cross-session diff count
//! must be zero.
//!
//! ```sh
//! cargo run -p rvbench --release --bin serve_pipeline -- --out BENCH_pr7.json
//! ```
//!
//! # Document schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "suite": "pr7",
//!   "mode": "full",
//!   "workers": 2,
//!   "sessions": [
//!     {"name": "mix_a", "config": "default", "events": 2114, "races": 1,
//!      "shed_windows": 0, "solo_match": true, "wall_time_us": 153002}
//!   ],
//!   "killed_session": {"fed_bytes": 31744, "torn_down": true},
//!   "cross_session_diffs": 0
//! }
//! ```
//!
//! `solo_match` records whether that tenant's deterministic report summary
//! was byte-identical to its solo run; `cross_session_diffs` counts the
//! tenants where it was not. Both are hard invariants — the validator
//! rejects any document where a tenant drifted or the killed tenant was
//! not torn down. `"full"` documents must additionally multiplex: strictly
//! more sessions than workers.

use std::fmt::Write as _;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rvcore::{DetectorConfig, RaceDetector, SessionConfig, SessionManager};
pub use rvsim::workloads::handoff::tenant_mix_workload;
use rvsim::workloads::Workload;
use rvtrace::parse_json;

/// Version of the `BENCH_pr7.json` document. Bumped on any incompatible
/// change (key renames, section shape).
pub const SERVE_BENCH_SCHEMA_VERSION: u64 = 1;

/// The suite tag stamped into every document this harness emits.
pub const SERVE_BENCH_SUITE: &str = "pr7";

/// The per-tenant detector variants the harness cycles through, in order.
/// Each tenant's solo run uses the same variant, so `solo_match` holds
/// regardless of which knobs the tenant picked.
const CONFIG_TAGS: [&str; 3] = ["default", "no_tiers", "no_slice"];

/// Knobs for a serve-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchOptions {
    /// Solver workers shared by all sessions (the daemon's `--jobs`).
    pub workers: usize,
    /// Per-COP solver budget.
    pub solver_timeout: Duration,
    /// Detection window size for every tenant.
    pub window_size: usize,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            workers: 2,
            solver_timeout: Duration::from_secs(10),
            window_size: 300,
        }
    }
}

/// The smallest tenant set: three small tenants, for smoke runs and the
/// schema test.
pub fn smoke_serve_workloads() -> Vec<Workload> {
    vec![
        tenant_mix_workload("mix_a", 30),
        tenant_mix_workload("mix_b", 45),
        tenant_mix_workload("mix_c", 60),
    ]
}

/// The full tenant set: six tenants of mixed size, enough to oversubscribe
/// the default two-worker pool.
pub fn full_serve_workloads() -> Vec<Workload> {
    vec![
        tenant_mix_workload("mix_a", 30),
        tenant_mix_workload("mix_b", 45),
        tenant_mix_workload("mix_c", 60),
        tenant_mix_workload("mix_d", 120),
        tenant_mix_workload("mix_e", 200),
        tenant_mix_workload("mix_f", 300),
    ]
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The detector variant tenant `i` runs with, mirrored by its solo run.
fn tenant_config(i: usize, opts: &ServeBenchOptions) -> (&'static str, DetectorConfig) {
    let mut cfg = DetectorConfig {
        window_size: opts.window_size,
        solver_timeout: opts.solver_timeout,
        parallelism: 1,
        ..Default::default()
    };
    let tag = CONFIG_TAGS[i % CONFIG_TAGS.len()];
    match tag {
        "no_tiers" => cfg.tiers = false,
        "no_slice" => cfg.slice = false,
        _ => {}
    }
    (tag, cfg)
}

struct SessionRun {
    name: String,
    config: &'static str,
    events: u64,
    races: u64,
    shed_windows: u64,
    solo_match: bool,
    wall: Duration,
}

/// Runs every workload as a concurrent tenant on one shared manager (plus
/// one tenant killed mid-stream) and returns the versioned document
/// described in the module docs. `mode` is stamped into the document;
/// `"full"` additionally promises more sessions than workers.
pub fn run_serve_pipeline(workloads: &[Workload], opts: &ServeBenchOptions, mode: &str) -> String {
    assert!(opts.workers >= 1);
    // Solo references first: the same trace, the same knobs, no manager.
    let solo: Vec<String> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let (_, cfg) = tenant_config(i, opts);
            RaceDetector::with_config(cfg)
                .detect(&w.trace)
                .deterministic_summary()
        })
        .collect();

    let manager = SessionManager::new(opts.workers);
    let start = Barrier::new(workloads.len() + 1);
    let kill_bytes = rvtrace::to_ndjson(&workloads[0].trace);
    let kill_fed = kill_bytes.len() / 2;
    let mut torn_down = false;
    let mut sessions: Vec<SessionRun> = Vec::with_capacity(workloads.len());

    std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (tag, cfg) = tenant_config(i, opts);
                let manager = &manager;
                let start = &start;
                scope.spawn(move || {
                    let bytes = rvtrace::to_ndjson(&w.trace);
                    let mut session = manager.open_session(SessionConfig {
                        detector: cfg,
                        ..Default::default()
                    });
                    start.wait();
                    let t0 = Instant::now();
                    for chunk in bytes.as_bytes().chunks(127) {
                        session.feed(chunk).expect("tenant trace is well-formed");
                    }
                    let outcome = session.finish().expect("tenant session completes");
                    (tag, outcome, t0.elapsed())
                })
            })
            .collect();
        // The killed tenant: half a trace, then an abort — concurrent with
        // everyone else.
        let victim = {
            let manager = &manager;
            let start = &start;
            let bytes = &kill_bytes;
            scope.spawn(move || {
                let mut session = manager.open_session(SessionConfig::default());
                start.wait();
                let _ = session.feed(&bytes.as_bytes()[..kill_fed]);
                session.abort("bench kill").to_string()
            })
        };
        for (i, h) in handles.into_iter().enumerate() {
            let (tag, outcome, wall) = h.join().expect("tenant thread survives");
            sessions.push(SessionRun {
                name: workloads[i].name.clone(),
                config: tag,
                events: outcome.trace.len() as u64,
                races: outcome.report.n_races() as u64,
                shed_windows: outcome.shed_windows as u64,
                solo_match: outcome.report.deterministic_summary() == solo[i],
                wall,
            });
        }
        torn_down = victim
            .join()
            .expect("victim thread survives")
            .contains("torn down");
    });

    let diffs = sessions.iter().filter(|s| !s.solo_match).count();
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SERVE_BENCH_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"suite\": \"{SERVE_BENCH_SUITE}\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"workers\": {},", opts.workers);
    out.push_str("  \"sessions\": [");
    for (i, s) in sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"config\": \"{}\", \"events\": {}, \"races\": {},\n     \
             \"shed_windows\": {}, \"solo_match\": {}, \"wall_time_us\": {}}}",
            s.name,
            s.config,
            s.events,
            s.races,
            s.shed_windows,
            s.solo_match,
            us(s.wall),
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"killed_session\": {{\"fed_bytes\": {kill_fed}, \"torn_down\": {torn_down}}},"
    );
    let _ = writeln!(out, "  \"cross_session_diffs\": {diffs}");
    out.push_str("}\n");
    out
}

/// Validates a `BENCH_pr7.json` document: version/suite/mode tags, a
/// positive worker count, per-session key completeness with non-negative
/// integers and a known config tag, every session matching its solo run,
/// `cross_session_diffs` both zero and consistent with the per-session
/// flags, the killed tenant torn down, and — for `"full"` documents —
/// strictly more sessions than workers (the pool was actually
/// multiplexed). Returns a description of the first violation.
pub fn validate_serve_bench_json(json: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .and_then(|v| v.as_int())
        .map_err(|e| e.to_string())?;
    if version != SERVE_BENCH_SCHEMA_VERSION as i64 {
        return Err(format!(
            "schema_version is {version}, expected {SERVE_BENCH_SCHEMA_VERSION}"
        ));
    }
    let suite = doc
        .field("suite")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if suite != SERVE_BENCH_SUITE {
        return Err(format!(
            "suite is `{suite}`, expected `{SERVE_BENCH_SUITE}`"
        ));
    }
    let mode = doc
        .field("mode")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| e.to_string())?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode is `{mode}`, expected `smoke` or `full`"));
    }
    let workers = doc
        .field("workers")
        .and_then(|v| v.as_int())
        .map_err(|e| format!("workers: {e}"))?;
    if workers <= 0 {
        return Err(format!("workers must be positive, got {workers}"));
    }
    let entries = doc
        .field("sessions")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .map_err(|e| format!("sessions: {e}"))?;
    if entries.is_empty() {
        return Err("sessions array is empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        let name = entry
            .field("name")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| format!("sessions[{i}].name: {e}"))?;
        let config = entry
            .field("config")
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| format!("session `{name}`: config: {e}"))?;
        if !CONFIG_TAGS.contains(&config.as_str()) {
            return Err(format!(
                "session `{name}`: unknown config tag `{config}` (one of: {})",
                CONFIG_TAGS.join(", ")
            ));
        }
        for key in ["events", "races", "shed_windows", "wall_time_us"] {
            let v = entry
                .field(key)
                .and_then(|v| v.as_int())
                .map_err(|e| format!("session `{name}`: {key}: {e}"))?;
            if v < 0 {
                return Err(format!("session `{name}`: {key} is negative ({v})"));
            }
        }
        let solo_match = entry
            .field("solo_match")
            .and_then(|v| v.as_bool())
            .map_err(|e| format!("session `{name}`: solo_match: {e}"))?;
        if !solo_match {
            return Err(format!(
                "session `{name}`: solo_match is false — the session's report \
                 drifted from the standalone run"
            ));
        }
    }
    let killed = doc
        .field("killed_session")
        .map_err(|e| format!("killed_session: {e}"))?;
    let fed = killed
        .field("fed_bytes")
        .and_then(|v| v.as_int())
        .map_err(|e| format!("killed_session.fed_bytes: {e}"))?;
    if fed <= 0 {
        return Err(format!(
            "killed_session.fed_bytes must be positive, got {fed}"
        ));
    }
    let torn_down = killed
        .field("torn_down")
        .and_then(|v| v.as_bool())
        .map_err(|e| format!("killed_session.torn_down: {e}"))?;
    if !torn_down {
        return Err(
            "killed_session.torn_down is false — a tenant killed mid-stream \
             must be torn down"
                .into(),
        );
    }
    let diffs = doc
        .field("cross_session_diffs")
        .and_then(|v| v.as_int())
        .map_err(|e| format!("cross_session_diffs: {e}"))?;
    if diffs != 0 {
        return Err(format!(
            "cross_session_diffs is {diffs} — multi-tenant runs must not \
             drift from solo"
        ));
    }
    if mode == "full" && entries.len() as i64 <= workers {
        return Err(format!(
            "full documents must multiplex: {} session(s) over {workers} \
             worker(s)",
            entries.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_serve_pipeline_emits_valid_document() {
        let json = run_serve_pipeline(
            &smoke_serve_workloads(),
            &ServeBenchOptions::default(),
            "smoke",
        );
        validate_serve_bench_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"suite\": \"pr7\""), "{json}");
        assert!(json.contains("\"name\": \"mix_a\""), "{json}");
        assert!(json.contains("\"cross_session_diffs\": 0"), "{json}");
    }

    #[test]
    fn validator_rejects_tampered_documents() {
        let json = run_serve_pipeline(
            &smoke_serve_workloads(),
            &ServeBenchOptions::default(),
            "smoke",
        );
        for (needle, replacement, expect) in [
            (
                "\"schema_version\": 1",
                "\"schema_version\": 9",
                "schema_version",
            ),
            ("\"suite\": \"pr7\"", "\"suite\": \"pr6\"", "suite"),
            ("\"mode\": \"smoke\"", "\"mode\": \"casual\"", "mode"),
            // A drifted session is a determinism violation.
            (
                "\"solo_match\": true",
                "\"solo_match\": false",
                "drifted from the standalone run",
            ),
            // So is a non-zero diff count.
            (
                "\"cross_session_diffs\": 0",
                "\"cross_session_diffs\": 1",
                "must not drift from solo",
            ),
            // And an un-torn-down kill is an isolation violation.
            (
                "\"torn_down\": true",
                "\"torn_down\": false",
                "must be torn down",
            ),
        ] {
            let tampered = json.replacen(needle, replacement, 1);
            assert_ne!(tampered, json, "tamper needle `{needle}` did not hit");
            let err = validate_serve_bench_json(&tampered)
                .expect_err(&format!("tampering `{needle}` must be rejected"));
            assert!(
                err.contains(expect),
                "error for `{needle}` should mention `{expect}`, got: {err}"
            );
        }
        assert!(validate_serve_bench_json("not json").is_err());
        assert!(validate_serve_bench_json("{}").is_err());
    }

    #[test]
    fn full_mode_requires_multiplexing() {
        let json = run_serve_pipeline(
            &smoke_serve_workloads(),
            &ServeBenchOptions {
                workers: 8,
                ..Default::default()
            },
            "full",
        );
        // 3 sessions over 8 workers: nothing was multiplexed.
        let err = validate_serve_bench_json(&json).unwrap_err();
        assert!(err.contains("must multiplex"), "{err}");
        // The same document is fine as a smoke run.
        let smoke = json.replace("\"mode\": \"full\"", "\"mode\": \"smoke\"");
        validate_serve_bench_json(&smoke).unwrap();
    }
}
