//! The timed run: each input from its first byte to the rendered report,
//! through the shipped configuration, with no tracing.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rvcore::{DetectionReport, DetectorConfig, RaceDetector, SessionConfig, SessionManager};
use rvpredict::driver::{render_rv_report, trace_line};
use rvtrace::{check_consistency, from_json_with_stats, Trace};

use crate::check::{check_deep, check_verdict, shipped_config, Answers};
use crate::workloads::{build, decode, Input, Route, Size, Workload};
use crate::{Outcome, WORKERS};

/// Chunk size a daemon client feeds.
pub const FEED_CHUNK: usize = 64 * 1024;

/// One input carried from its first byte to the rendered report.
pub struct Verdict {
    pub trace: Trace,
    pub report: DetectionReport,
    pub verdict: Duration,
    /// From the first byte to the first merged race, when there is one.
    pub ttfr: Option<Duration>,
}

/// The rendered stdout of `rvpredict`/`rvserved` for a report.
pub fn render(trace: &Trace, report: &DetectionReport) -> String {
    trace_line(trace) + &render_rv_report(report, trace, false)
}

/// Runs one input along `route`. `manager` is required for
/// [`Route::Session`].
pub fn run_input(
    route: Route,
    input: &Input,
    cfg: &DetectorConfig,
    manager: Option<&SessionManager>,
) -> Result<Verdict, String> {
    let start = Instant::now();
    let (trace, report, ttfr) = match route {
        Route::Stream => {
            let det = RaceDetector::with_config(cfg.clone())
                .detect_stream(&input.bytes[..])
                .map_err(|e| format!("{}: {e}", input.name))?;
            let ttfr = det.report.stats.time_to_first_race;
            (det.trace, det.report, ttfr)
        }
        Route::WholeFile => {
            let text = std::str::from_utf8(&input.bytes).map_err(|e| e.to_string())?;
            let (trace, _) =
                from_json_with_stats(text).map_err(|e| format!("{}: {e}", input.name))?;
            if !check_consistency(&trace).is_empty() {
                return Err(format!("{}: trace is not consistent", input.name));
            }
            let detect_start = start.elapsed();
            let report = RaceDetector::with_config(cfg.clone()).detect(&trace);
            let ttfr = report.stats.time_to_first_race.map(|t| detect_start + t);
            (trace, report, ttfr)
        }
        Route::Session => {
            let manager = manager.expect("the session route needs a manager");
            let mut session = manager.open_session(SessionConfig {
                detector: cfg.clone(),
                ..SessionConfig::default()
            });
            for chunk in input.bytes.chunks(FEED_CHUNK) {
                session
                    .feed(chunk)
                    .map_err(|e| format!("{}: {e}", input.name))?;
            }
            let outcome = session
                .finish()
                .map_err(|e| format!("{}: {e}", input.name))?;
            if outcome.shed_windows > 0 {
                return Err(format!(
                    "{}: {} windows shed",
                    input.name, outcome.shed_windows
                ));
            }
            let ttfr = outcome.report.stats.time_to_first_race;
            (outcome.trace, outcome.report, ttfr)
        }
    };
    // The stream and session routes gate consistency after solving, as
    // `rvpredict --stream` does.
    if route != Route::WholeFile && !check_consistency(&trace).is_empty() {
        return Err(format!("{}: trace is not consistent", input.name));
    }
    black_box(render(&trace, &report));
    Ok(Verdict {
        trace,
        report,
        verdict: start.elapsed(),
        ttfr,
    })
}

/// Set-up: generate and serialize the inputs, start the session pool, and
/// run the warm-up input once.
pub fn set_up(
    name: &str,
    seed: u64,
    size: Size,
) -> Result<(Workload, Option<SessionManager>, Duration), String> {
    let start = Instant::now();
    let workload = build(name, seed, size)?;
    let manager = (workload.route == Route::Session).then(|| SessionManager::new(WORKERS));
    run_input(
        workload.route,
        &workload.warmup,
        &shipped_config(),
        manager.as_ref(),
    )?;
    Ok((workload, manager, start.elapsed()))
}

struct Sample {
    input: usize,
    verdict: Duration,
    ttfr: Option<Duration>,
    /// The report, kept for the first sample of each input only, for the
    /// deep checks after timing.
    report: Option<DetectionReport>,
    error: Option<String>,
}

/// Hands out input indices round by round and stops at the first round
/// boundary after the deadline, so every run times whole rounds.
struct Cursor {
    next: usize,
    stopped: bool,
    first_seen: Vec<bool>,
}

/// Runs whole rounds until `seconds` have passed, with the workload's
/// clients (two on the session route, one otherwise).
fn time_rounds(
    workload: &Workload,
    manager: Option<&SessionManager>,
    answers: &Answers,
    seconds: f64,
) -> (Vec<Sample>, Duration) {
    let n = workload.inputs.len();
    let cfg = shipped_config();
    let clients = if workload.route == Route::Session {
        WORKERS
    } else {
        1
    };
    let cursor = Mutex::new(Cursor {
        next: 0,
        stopped: false,
        first_seen: vec![false; n],
    });
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let client = || {
        let mut samples = Vec::new();
        loop {
            let (input, keep) = {
                let mut c = cursor
                    .lock()
                    .expect("a client panicked while holding the cursor");
                if c.stopped
                    || (c.next.is_multiple_of(n) && c.next > 0 && start.elapsed() >= deadline)
                {
                    c.stopped = true;
                    break;
                }
                let index = workload.round(c.next / n)[c.next % n];
                c.next += 1;
                let keep = !std::mem::replace(&mut c.first_seen[index], true);
                (index, keep)
            };
            let item = &workload.inputs[input];
            let sample = match run_input(workload.route, item, &cfg, manager) {
                Ok(v) => Sample {
                    input,
                    verdict: v.verdict,
                    ttfr: v.ttfr,
                    error: check_verdict(item, &v.trace, &v.report, answers).err(),
                    report: keep.then_some(v.report),
                },
                Err(e) => Sample {
                    input,
                    verdict: Duration::ZERO,
                    ttfr: None,
                    report: None,
                    error: Some(e),
                },
            };
            samples.push(sample);
        }
        samples
    };
    let samples = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (samples, start.elapsed())
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Lowers `slot` to `value` if `value` is smaller.
fn keep_min(slot: &mut Option<f64>, value: f64) {
    *slot = Some(slot.map_or(value, |m| m.min(value)));
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process since the last reset, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark so the peak covers only what runs
/// next. Best effort: where the reset is refused the peak includes set-up,
/// which holds less than the workload does.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Set-ups per timed run; their median is `setup_s`.
const SETUPS: usize = 21;

/// The timed run: [`SETUPS`] set-ups, then whole rounds for `seconds`,
/// then the deep checks.
///
/// A trace's time in a run is the fastest of its repeats, and the
/// percentiles are taken across the workload's traces. On a shared host,
/// contention only ever adds time, and it comes and goes over tens of
/// seconds. Cut into 30-second windows, one 300-second run spread 16%
/// (`stream_100k`) and 24% (`daemon_mix`) on the median of every verdict,
/// but 1% and 9% on the traces' fastest repeats.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    answers: &Answers,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first so the pools never overlap.
        drop(last.take());
        let (workload, manager, took) = set_up(name, seed, size)?;
        setups.push(took.as_secs_f64());
        last = Some((workload, manager));
    }
    let (workload, manager) = last.expect("set-up ran");
    reset_peak_rss();
    let (samples, wall) = time_rounds(&workload, manager.as_ref(), answers, seconds);
    let peak = peak_rss_mb();
    drop(manager);

    let attempted = samples.len().max(1);
    let n = workload.inputs.len();
    let mut failed = 0usize;
    let mut errors = Vec::new();
    let mut all = Vec::new();
    let mut passed_per_input = vec![0usize; n];
    let mut best: Vec<Option<f64>> = vec![None; n];
    let mut best_ttfr: Vec<Option<f64>> = vec![None; n];
    let mut reports: Vec<Option<DetectionReport>> = (0..n).map(|_| None).collect();
    for s in samples {
        match s.error {
            Some(e) => {
                failed += 1;
                errors.push(e);
            }
            None => {
                passed_per_input[s.input] += 1;
                let ms = s.verdict.as_secs_f64() * 1e3;
                all.push(ms);
                keep_min(&mut best[s.input], ms);
                if let Some(t) = s.ttfr {
                    keep_min(&mut best_ttfr[s.input], t.as_secs_f64() * 1e3);
                }
            }
        }
        if s.report.is_some() {
            reports[s.input] = s.report;
        }
    }
    // The deep checks: a failure fails every verdict of that input.
    for (i, report) in reports.iter().enumerate() {
        let Some(report) = report else { continue };
        let input = &workload.inputs[i];
        if let Err(e) = check_deep(input, &decode(input), report) {
            errors.push(e);
            failed += passed_per_input[i];
        }
    }
    let (mut events, mut best_s) = (0usize, 0.0);
    for (input, ms) in workload.inputs.iter().zip(&best) {
        if let Some(ms) = ms {
            events += input.events;
            best_s += ms / 1e3;
        }
    }
    let mut bests: Vec<f64> = best.into_iter().flatten().collect();
    let mut ttfrs: Vec<f64> = best_ttfr.into_iter().flatten().collect();
    // `percentile` needs ascending input.
    bests.sort_by(f64::total_cmp);
    all.sort_by(f64::total_cmp);
    let mut metrics = vec![("setup_s", median(&mut setups))];
    if !bests.is_empty() {
        eprintln!(
            "{name}: {} verdicts over {} traces in {:.1} s, every verdict p50 {:.3} ms p90 {:.3} ms; \
             best of run p50 {:.3} ms p90 {:.3} ms; {} failed",
            all.len(),
            bests.len(),
            wall.as_secs_f64(),
            median(&mut all),
            percentile(&all, 90.0),
            median(&mut bests),
            percentile(&bests, 90.0),
            failed
        );
        metrics.push(("verdict_ms.best.p50", median(&mut bests)));
        metrics.push(("verdict_ms.best.p90", percentile(&bests, 90.0)));
        metrics.push(("events_per_s.best", events as f64 / best_s));
    }
    if !ttfrs.is_empty() {
        metrics.push(("ttfr_ms.best.p50", median(&mut ttfrs)));
    }
    metrics.push(("peak_rss_mb", peak));
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
    })
}
