//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-answers      # regenerate answers/*.json
//! perfbench --self-test          # smoke-size checks of the benchmark itself
//! ```
//!
//! `--trace 0` is the timed run and prints the end-to-end metrics;
//! `--trace 1` is the traced run and prints the per-layer metrics. The last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! verdict passed its checks. See README.md for the workloads and metrics.

mod check;
mod selftest;
mod timed;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::Size;

/// Detector workers (and daemon clients): the benchmark host's core count,
/// fixed so runs compare across hosts.
pub const WORKERS: usize = 2;

/// The end-to-end metrics with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("verdict_ms.best.p50", "ms"),
    ("verdict_ms.best.p90", "ms"),
    ("ttfr_ms.best.p50", "ms"),
    ("events_per_s.best", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// What one run measured and how its verdicts fared.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line: every metric of `names`, in that order.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&(name, unit)| {
                let value = self.metrics.iter().find(|(n, _)| *n == name)?.1;
                Some(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    if value.is_finite() { value } else { 0.0 }
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn write_answers() -> Result<(), String> {
    for name in workloads::NAMES {
        let workload = workloads::build(name, 0, Size::Full)?;
        let answers = check::derive_answers(&workload)?;
        let path = check::answer_path(name);
        std::fs::write(&path, check::render_answers(&answers))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let answers = check::load_answers(&args.workload)?;
    let run = if args.trace { traced::run } else { timed::run };
    run(
        &args.workload,
        args.seed,
        args.seconds,
        Size::Full,
        &answers,
    )
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let result = match argv.peek().map(String::as_str) {
        Some("--write-answers") => write_answers().map(|()| None),
        Some("--self-test") => selftest::run().map(|()| None),
        _ => parse_args(argv).and_then(|args| {
            let names: &[(&str, &str)] = if args.trace {
                &traced::LAYER_METRICS
            } else {
                &END_TO_END
            };
            run(&args).map(|o| Some((o, names)))
        }),
    };
    match result {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some((outcome, names))) => {
            for e in outcome.errors.iter().take(10) {
                eprintln!("failed: {e}");
            }
            println!("{}", outcome.to_json(names));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
