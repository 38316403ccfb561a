//! The correctness gate behind `failed`: answer files, verdict checks and
//! the independent witness and baseline checks.
//!
//! An answer is the set of race signatures a trace must report. Shaped
//! traces (the `rvbench` generators) are built with exactly one race, the
//! sync-free head pair on their first variable, so their answer is derived
//! from the generator: that pair's signature. The `rvsim` traces get the
//! verdicts of the reference configuration (per-COP solving with no
//! tiers, no slicing, no batching, one worker), which shares none of the
//! shipped hot paths' screens or solver sessions.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use rvbaselines::{CpDetector, HbDetector, RaceDetectorTool};
use rvcore::{DetectionReport, DetectorConfig, RaceDetector};
use rvtrace::{check_schedule, Cop, EventId, RaceSignature, Trace, WindowBoundary};

use crate::workloads::{decode, Input, Workload};
use crate::WORKERS;

/// Expected verdicts per input name.
pub type Answers = BTreeMap<String, BTreeSet<String>>;

/// The committed answer file of a workload.
pub fn answer_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("answers")
        .join(format!("{workload}.json"))
}

pub fn load_answers(workload: &str) -> Result<Answers, String> {
    let path = answer_path(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read answer file {}: {e}", path.display()))?;
    parse_answers(&text).map_err(|e| format!("bad answer file {}: {e}", path.display()))
}

fn parse_answers(text: &str) -> Result<Answers, String> {
    let doc = rvtrace::parse_json(text).map_err(|e| e.to_string())?;
    let mut out = Answers::new();
    for (name, entry) in doc.as_object().map_err(|e| e.to_string())? {
        let races = entry
            .field("races")
            .and_then(|r| r.as_int())
            .map_err(|e| format!("{name}: {e}"))?;
        let sigs = entry
            .field("signatures")
            .and_then(|s| s.as_array())
            .map_err(|e| format!("{name}: {e}"))?
            .iter()
            .map(|s| s.as_str().map(str::to_owned))
            .collect::<Result<BTreeSet<_>, _>>()
            .map_err(|e| format!("{name}: {e}"))?;
        if usize::try_from(races).ok() != Some(sigs.len()) {
            return Err(format!(
                "{name}: races {races} but {} signatures",
                sigs.len()
            ));
        }
        out.insert(name.clone(), sigs);
    }
    Ok(out)
}

pub fn render_answers(answers: &Answers) -> String {
    let mut out = String::from("{\n");
    for (i, (name, sigs)) in answers.iter().enumerate() {
        let list: Vec<String> = sigs.iter().map(|s| rvtrace::escape_json(s)).collect();
        out.push_str(&format!(
            "  {}: {{\"races\": {}, \"signatures\": [{}]}}{}\n",
            rvtrace::escape_json(name),
            sigs.len(),
            list.join(", "),
            if i + 1 == answers.len() { "" } else { "," }
        ));
    }
    out.push_str("}\n");
    out
}

fn signature_names(
    trace: &Trace,
    sigs: impl IntoIterator<Item = RaceSignature>,
) -> BTreeSet<String> {
    sigs.into_iter()
        .map(|s| s.display(trace).to_string())
        .collect()
}

/// The shipped configuration with the worker count fixed at [`WORKERS`].
pub fn shipped_config() -> DetectorConfig {
    DetectorConfig {
        parallelism: WORKERS,
        ..Default::default()
    }
}

/// The reference configuration the `rvsim` answers come from.
fn reference_config() -> DetectorConfig {
    DetectorConfig {
        parallelism: 1,
        tiers: false,
        slice: false,
        batch_windows: false,
        incremental: false,
        ..Default::default()
    }
}

/// A shaped generator's one race: the first two accesses to its first
/// variable, by two threads with no synchronization between them.
fn head_signature(trace: &Trace) -> Result<RaceSignature, String> {
    let head: Vec<EventId> = trace
        .events()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind.var().is_some_and(|v| v.index() == 0))
        .map(|(i, _)| EventId(i as u32))
        .take(2)
        .collect();
    match head[..] {
        [a, b] => Ok(RaceSignature::of_cop(trace, Cop::new(a, b))),
        _ => Err("shaped trace has no head pair".into()),
    }
}

/// Derives the answers of a workload's inputs (the `--write-answers` mode).
pub fn derive_answers(workload: &Workload) -> Result<Answers, String> {
    let mut out = Answers::new();
    for input in &workload.inputs {
        let trace = decode(input);
        let sigs = if input.shaped {
            signature_names(&trace, [head_signature(&trace)?])
        } else {
            let report = RaceDetector::with_config(reference_config()).detect(&trace);
            if report.is_degraded() {
                return Err(format!("{}: reference run is degraded", input.name));
            }
            signature_names(&trace, report.signatures())
        };
        out.insert(input.name.clone(), sigs);
    }
    Ok(out)
}

/// The cheap per-verdict check, run on every timed verdict: no degraded
/// verdict, no witness failure, and exactly the answer's race signatures.
pub fn check_verdict(
    input: &Input,
    trace: &Trace,
    report: &DetectionReport,
    answers: &Answers,
) -> Result<(), String> {
    let name = &input.name;
    if report.is_degraded() {
        return Err(format!(
            "{name}: degraded ({} undecided, {} failed windows)",
            report.stats.undecided,
            report.failed_windows.len()
        ));
    }
    if report.stats.witness_failures > 0 {
        return Err(format!(
            "{name}: {} witness failures",
            report.stats.witness_failures
        ));
    }
    let expected = answers
        .get(name)
        .ok_or_else(|| format!("{name}: no answer recorded"))?;
    let got = signature_names(trace, report.signatures());
    if report.n_races() != expected.len() || &got != expected {
        return Err(format!(
            "{name}: {} races {got:?}, answer has {} {expected:?}",
            report.n_races(),
            expected.len()
        ));
    }
    Ok(())
}

/// The independent checks, run once per distinct input after timing:
/// every witness replays under `rvtrace::check_schedule` on its window,
/// and the HB baseline (plus CP, on the `rvsim` traces) finds no race the
/// maximal detector missed. CP is skipped on the shaped traces, whose
/// answers are structural: it takes 17–37 s on a 1K-event tenant trace.
pub fn check_deep(input: &Input, trace: &Trace, report: &DetectionReport) -> Result<(), String> {
    let name = &input.name;
    for race in &report.races {
        let mut boundary = WindowBoundary::initial(trace);
        boundary.advance(trace.events(), 0..race.window.start);
        let view = boundary.view(trace, race.window.clone());
        check_schedule(&view, &race.schedule)
            .map_err(|e| format!("{name}: witness of {} fails replay: {e}", race.signature))?;
    }
    let rv: BTreeSet<RaceSignature> = report.signatures().into_iter().collect();
    let (hb, cp) = (HbDetector::default(), CpDetector::default());
    let mut baselines: Vec<&dyn RaceDetectorTool> = vec![&hb];
    if !input.shaped {
        baselines.push(&cp);
    }
    for tool in baselines {
        let missed: Vec<_> = tool
            .detect_races(trace)
            .signatures
            .difference(&rv)
            .copied()
            .collect();
        if !missed.is_empty() {
            return Err(format!(
                "{name}: {} finds {} race(s) RV does not report",
                tool.name(),
                missed.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_round_trip() {
        let mut a = Answers::new();
        a.insert("t\"1".into(), ["⟨a, b⟩".to_string()].into_iter().collect());
        a.insert("t2".into(), BTreeSet::new());
        assert_eq!(parse_answers(&render_answers(&a)).unwrap(), a);
    }
}
