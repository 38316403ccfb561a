//! `--self-test`: smoke-size checks that the benchmark measures and gates
//! what it claims to.
//!
//! 1. Every metric `BENCHMARK.json` names is emitted, with its unit, by
//!    the run (`--trace 0` or `--trace 1`) it belongs to.
//! 2. The committed answer files are what `--write-answers` derives, and
//!    a corrupted answer trips the failure count.
//! 3. The traced run's layer spans plus `untimed_us` add up to its wall
//!    time, with no negative remainder (no span counted twice).
//! 4. Daemon sessions and a solo `RaceDetector::detect` reach the same
//!    verdicts (races, witnesses, verdict counts) on every `daemon_mix`
//!    trace.

use rvcore::{RaceDetector, SessionManager};

use crate::check::{derive_answers, load_answers, shipped_config};
use crate::timed::run_input;
use crate::traced::LAYER_METRICS;
use crate::workloads::{build, decode, Route, Size, NAMES};
use crate::{timed, traced, Outcome, END_TO_END, WORKERS};

/// Spans that are not additive: sub-splits, maxima and derived values.
const NOT_SUMMED: [&str; 6] = [
    "rvcore.tiers.tier_a_us",
    "rvcore.tiers.tier_b_us",
    "rvcore.detector.window_max_us",
    "rvcore.detector.breakdown_gap_us",
    "wall_us",
    "untimed_us",
];

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks that `BENCHMARK.json` lists exactly `names` in `section`.
fn check_declared(
    doc: &str,
    section: &str,
    next: Option<&str>,
    names: &[(&str, &str)],
) -> Result<(), String> {
    let start = doc
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?;
    let end = next
        .and_then(|n| doc[start..].find(&format!("\"{n}\"")))
        .map_or(doc.len(), |e| start + e);
    let body = &doc[start..end];
    ensure(body.matches("\"name\":").count() == names.len(), || {
        format!(
            "BENCHMARK.json {section} does not list exactly {} metrics",
            names.len()
        )
    })?;
    for (name, unit) in names {
        ensure(
            body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            || format!("BENCHMARK.json {section} lacks {name} in {unit}"),
        )?;
    }
    Ok(())
}

fn check_emitted(outcome: &Outcome, names: &[(&str, &str)], what: &str) -> Result<(), String> {
    let json = outcome.to_json(names);
    for (name, unit) in names {
        ensure(
            json.contains(&format!("\"{name}\": {{\"value\": "))
                && json.contains(&format!("\"unit\": \"{unit}\"")),
            || format!("{what}: {name} ({unit}) not emitted: {json}"),
        )?;
    }
    ensure(outcome.failed == 0, || {
        format!("{what}: {:?}", outcome.errors)
    })
}

fn check_layer_sums(outcome: &Outcome, what: &str) -> Result<(), String> {
    let get = |n: &str| {
        outcome
            .metrics
            .iter()
            .find(|(m, _)| *m == n)
            .map_or(0.0, |m| m.1)
    };
    let spans: f64 = LAYER_METRICS
        .iter()
        .filter(|(n, unit)| *unit == "us" && !NOT_SUMMED.contains(n))
        .map(|(n, _)| get(n))
        .sum();
    let (wall, untimed) = (get("wall_us"), get("untimed_us"));
    ensure(
        untimed >= 0.0 && (spans + untimed - wall).abs() <= 1e-6 * wall.max(1.0),
        || format!("{what}: layer spans {spans} + untimed {untimed} != wall {wall}"),
    )
}

pub fn run() -> Result<(), String> {
    let doc_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(doc_path).map_err(|e| format!("{doc_path}: {e}"))?;
    check_declared(&doc, "end_to_end", Some("per_layer"), &END_TO_END)?;
    check_declared(&doc, "per_layer", None, &LAYER_METRICS)?;
    for name in NAMES {
        ensure(
            load_answers(name)? == derive_answers(&build(name, 0, Size::Full)?)?,
            || format!("answers/{name}.json is stale: rerun --write-answers"),
        )?;
        let answers = derive_answers(&build(name, 1, Size::Smoke)?)?;
        let t = timed::run(name, 1, 0.0, Size::Smoke, &answers)?;
        check_emitted(&t, &END_TO_END, &format!("{name} timed"))?;
        let tr = traced::run(name, 1, 0.0, Size::Smoke, &answers)?;
        check_emitted(&tr, &LAYER_METRICS, &format!("{name} traced"))?;
        check_layer_sums(&tr, name)?;
        let mut corrupt = answers.clone();
        let first = corrupt
            .values_mut()
            .next()
            .ok_or("a workload with no inputs")?;
        first.insert("⟨corrupted, answer⟩".into());
        let bad = timed::run(name, 1, 0.0, Size::Smoke, &corrupt)?;
        ensure(bad.failed > 0, || {
            format!("{name}: a corrupted answer file did not fail")
        })?;
        eprintln!("self-test: {name} ok");
    }
    let workload = build("daemon_mix", 1, Size::Smoke)?;
    let manager = SessionManager::new(WORKERS);
    let cfg = shipped_config();
    for input in &workload.inputs {
        let session = run_input(Route::Session, input, &cfg, Some(&manager))?;
        let trace = decode(input);
        let solo = RaceDetector::with_config(cfg.clone()).detect(&trace);
        ensure(
            session.report.deterministic_summary() == solo.deterministic_summary(),
            || format!("{}: daemon session and solo detect disagree", input.name),
        )?;
    }
    eprintln!("self-test: daemon sessions agree with solo detect");
    Ok(())
}
