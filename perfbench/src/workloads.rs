//! The four benchmark workloads: their inputs (generated in-process from
//! the seed and serialized to the bytes a user would hand the detector),
//! the path each input takes through the public APIs, and the seeded
//! order in which a round visits the inputs.

use rvbench::perf::double_flag_workload;
use rvbench::serve::tenant_mix_workload;
use rvbench::stream::racy_stream_workload;
use rvbench::tier::flag_handoff_workload;
use rvsim::rng::SmallRng;
use rvsim::workloads::{figures, small_suite, systems, Workload as SimWorkload};
use rvtrace::{to_json, to_ndjson, Trace};

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["stream_100k", "handoff_100k", "paper_systems", "daemon_mix"];

/// The `rvsim` system-class rows of `paper_systems`. `ftpserver` (141 s)
/// and `derby` (80 s) are left out for run length.
const PAPER_ROWS: [&str; 3] = ["jigsaw", "sunflow", "xalan"];

/// How an input travels from bytes to the rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `RaceDetector::detect_stream` over the JSON bytes, then the strict
    /// consistency gate (`rvpredict --stream`).
    Stream,
    /// `from_json` → `check_consistency` → `RaceDetector::detect`
    /// (`rvpredict` on a file).
    WholeFile,
    /// One `SessionManager` session per input: chunked `feed`, then
    /// `finish` (the `rvserved` daemon).
    Session,
}

/// Full size is what the benchmark measures; smoke size is the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One serialized trace.
#[derive(Debug)]
pub struct Input {
    pub name: String,
    pub bytes: Vec<u8>,
    pub events: usize,
    /// Built by a shaped generator whose only race is its head pair.
    pub shaped: bool,
}

/// A workload's inputs plus the seed that orders its rounds.
#[derive(Debug)]
pub struct Workload {
    pub route: Route,
    pub inputs: Vec<Input>,
    /// A small input of the same shape, run once before timing so lazy
    /// set-up (thread start, allocator growth) is not timed.
    pub warmup: Input,
    seed: u64,
}

impl Workload {
    /// The input indices of round `round`: every input once, in an order
    /// drawn from the seed. Whole rounds keep each run's sample mix
    /// identical, so percentiles compare across runs.
    pub fn round(&self, round: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.inputs.len()).collect();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (round as u64).wrapping_mul(0x9e37_79b9));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        order
    }
}

fn input(w: SimWorkload, route: Route, shaped: bool) -> Input {
    let text = match route {
        // The daemon's clients stream NDJSON: metadata first, so windows
        // dispatch while the tail is still arriving.
        Route::Session => to_ndjson(&w.trace),
        Route::Stream | Route::WholeFile => to_json(&w.trace),
    };
    Input {
        name: w.name,
        events: w.trace.len(),
        bytes: text.into_bytes(),
        shaped,
    }
}

/// The `daemon_mix` trace pool: tenant traces of 29 sizes, the shaped
/// tier and residue traces, and the contest/grande small suite. A tenant's
/// session latency grows with the square of its rounds, so the sizes step
/// by 2 rounds: consecutive latencies then differ by less than their
/// run-to-run noise and the latency distribution has no gaps. With a few
/// sizes it had gaps, and a percentile that fell in one jumped between two
/// traces from run to run.
fn daemon_pool(size: Size) -> Vec<(SimWorkload, bool)> {
    let tenants: Vec<usize> = match size {
        Size::Full => (4..=60).step_by(2).collect(),
        Size::Smoke => vec![5, 10],
    };
    let mut pool: Vec<SimWorkload> = tenants
        .into_iter()
        .map(|rounds| tenant_mix_workload(&format!("tenant_{rounds}"), rounds))
        .collect();
    pool.extend(match size {
        Size::Full => [
            flag_handoff_workload("tier_medium", 8, 60),
            double_flag_workload("residue_small", 4, 12),
        ],
        Size::Smoke => [
            flag_handoff_workload("tier_small", 2, 4),
            double_flag_workload("residue_tiny", 2, 6),
        ],
    });
    let mut pool: Vec<(SimWorkload, bool)> = pool.into_iter().map(|w| (w, true)).collect();
    let suite = small_suite();
    let take = if size == Size::Full { suite.len() } else { 4 };
    pool.extend(suite.into_iter().take(take).map(|w| (w, false)));
    pool
}

/// The `paper_systems` traces. The schedules are the profiles' own: a
/// schedule drawn from the benchmark seed moves a trace's solve time
/// between 1.5 s and 26 s (see README.md), far past any usable bound.
fn paper_traces(size: Size) -> Vec<SimWorkload> {
    match size {
        Size::Full => systems::profiles()
            .iter()
            .filter(|p| PAPER_ROWS.contains(&p.name))
            .map(systems::generate)
            .collect(),
        Size::Smoke => {
            let mut suite = small_suite();
            suite.truncate(3);
            suite
        }
    }
}

/// Generates and serializes a workload's inputs.
pub fn build(name: &str, seed: u64, size: Size) -> Result<Workload, String> {
    let smoke = size == Size::Smoke;
    let (route, inputs, warmup): (Route, Vec<(SimWorkload, bool)>, SimWorkload) = match name {
        "stream_100k" => (
            Route::Stream,
            vec![(
                racy_stream_workload("stream_100k", if smoke { 25_000 } else { 100_000 }),
                true,
            )],
            racy_stream_workload("warmup", 2_000),
        ),
        "handoff_100k" => (
            Route::WholeFile,
            vec![(
                if smoke {
                    flag_handoff_workload("handoff_100k", 4, 60)
                } else {
                    flag_handoff_workload("handoff_100k", 40, 280)
                },
                true,
            )],
            flag_handoff_workload("warmup", 2, 4),
        ),
        "paper_systems" => (
            Route::WholeFile,
            paper_traces(size).into_iter().map(|w| (w, false)).collect(),
            figures::figure1(),
        ),
        "daemon_mix" => (
            Route::Session,
            daemon_pool(size),
            double_flag_workload("warmup", 2, 6),
        ),
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {NAMES:?})"
            ))
        }
    };
    Ok(Workload {
        route,
        inputs: inputs
            .into_iter()
            .map(|(w, shaped)| input(w, route, shaped))
            .collect(),
        warmup: input(warmup, route, false),
        seed,
    })
}

/// Decodes an input the way the whole-file CLI does (used by the checks,
/// never on a timed path).
pub fn decode(input: &Input) -> Trace {
    match rvtrace::read_trace(&input.bytes[..]) {
        Ok((trace, _)) => trace,
        Err(e) => panic!("generated input {} does not decode: {e}", input.name),
    }
}
