//! The `BENCH_pr10.json` generator: the hot-path overhaul (arena trace
//! storage, batched/incremental window sessions, tiers, slicing) vs the
//! PR4-era baseline pipeline.
//!
//! ```sh
//! cargo run -p rvbench --release --bin perf_pipeline -- [--out BENCH_pr10.json]
//!     [--smoke] [--budget SECS] [--jobs N]
//! ```
//!
//! By default runs the full three-workload set (two at ~100K events;
//! the baseline leg of the handoff workload alone takes ~30s); `--smoke`
//! restricts the run to two small workloads (a few seconds, for CI smoke
//! checks) and relaxes the validator's speedup floor, which is
//! noise-level at that size. The emitted document conforms to
//! [`rvbench::perf`]'s schema and is validated before it is written.

use std::process::ExitCode;
use std::time::Duration;

use rvbench::perf::{
    full_perf_workloads, run_perf_pipeline, smoke_perf_workloads, validate_perf_bench_json,
    PerfBenchOptions,
};

fn main() -> ExitCode {
    let mut out = "BENCH_pr10.json".to_string();
    let mut smoke = false;
    let mut opts = PerfBenchOptions::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Option<&String> { args.get(i + 1) };
        match args[i].as_str() {
            "--out" => {
                let Some(v) = value(i) else {
                    eprintln!("error: --out needs a path");
                    return ExitCode::from(2);
                };
                out = v.clone();
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--budget" => {
                match value(i).and_then(|v| v.parse::<u64>().ok()) {
                    Some(v) => opts.solver_timeout = Duration::from_secs(v),
                    None => {
                        eprintln!("error: --budget needs an integer (seconds)");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            "--jobs" => {
                match value(i).and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => opts.jobs = v,
                    _ => {
                        eprintln!("error: --jobs needs a positive integer");
                        return ExitCode::from(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("usage: perf_pipeline [--out PATH] [--smoke] [--budget SECS] [--jobs N]");
                if other != "--help" && other != "-h" {
                    eprintln!("error: unknown option {other}");
                }
                return ExitCode::from(2);
            }
        }
    }

    let (workloads, mode) = if smoke {
        (smoke_perf_workloads(), "smoke")
    } else {
        (full_perf_workloads(), "full")
    };
    eprintln!(
        "perf_pipeline: {} workload(s), jobs={}, mode={}",
        workloads.len(),
        opts.jobs,
        mode
    );
    let json = run_perf_pipeline(&workloads, &opts, mode);
    if let Err(e) = validate_perf_bench_json(&json) {
        eprintln!("error: generated document violates its own schema: {e}");
        return ExitCode::from(1);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(1);
    }
    eprintln!("perf_pipeline: wrote {out}");
    ExitCode::SUCCESS
}
