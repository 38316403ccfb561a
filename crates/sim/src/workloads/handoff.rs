//! Lock-protected message-passing generators: the shapes that exercise
//! the tiered cascade. Each has a sync-free racy head (one real race,
//! Tier A's territory) followed by flag handoffs whose payload COP
//! survives the quick check but is ordered through a forced flag read:
//!
//! * [`flag_handoff_workload`] — one flag write per round, so the flag
//!   read has a unique justifier and Tier B refutes the payload COP;
//! * [`double_flag_workload`] — two flag writes per round, so the COP
//!   lands in the residue and reaches the solver;
//! * [`tenant_mix_workload`] — the per-session traffic mix of the daemon
//!   (quick-check, Tier B and race-free filler COPs in every round).

use rvtrace::{ThreadId, TraceBuilder};

use super::Workload;

/// Builds a flag-handoff workload: a sync-free racy pair on `h` at the
/// head, then `pairs` producer/consumer thread pairs each running `blocks`
/// rounds of lock-protected message passing. Per round `k`, the producer
/// writes a payload `y` *outside* its critical section and publishes a
/// fresh flag `f` inside it; the consumer reads the flag inside its own
/// critical section, branches on it, and only then reads the payload:
///
/// ```text
/// producer_j:  w y_jk 1;  acq l_j;  w f_jk 1;  rel l_j
/// consumer_j:  acq l_j;  r f_jk 1;  rel l_j;  branch;  r y_jk 1
/// ```
///
/// The flag COP dies in the quick check (common lock). The payload COP
/// `(w y_jk, r y_jk)` survives it — no common lock, no MHB — but the
/// branch forces the flag read, whose unique same-value justifier is the
/// producer's flag write, entailing `w y_jk → w f_jk → r f_jk → r y_jk`
/// in every sound reordering: Tier B refutes it, and so does the solver.
/// Payload and flag variables are distinct per round so every block is
/// its own COP with its own unique justifier.
pub fn flag_handoff_workload(name: &str, pairs: usize, blocks: usize) -> Workload {
    assert!(pairs >= 1 && blocks >= 1);
    let mut b = TraceBuilder::new();
    let h = b.var("h");
    let main = ThreadId::MAIN;
    let reader = b.fork(main);
    let producers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(main)).collect();
    let consumers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(main)).collect();
    let locks: Vec<_> = (0..pairs).map(|j| b.new_lock(&format!("l{j}"))).collect();

    // The head: the one real race, confirmable by a sync-preserving
    // reordering (Tier A's territory).
    b.write(main, h, 1);
    b.read(reader, h, 1);

    // The handoff tail, round-robin across the pairs so every window
    // carries blocks from every pair.
    for k in 0..blocks {
        for j in 0..pairs {
            let y = b.var(&format!("y{j}_{k}"));
            let f = b.var(&format!("f{j}_{k}"));
            b.write(producers[j], y, 1);
            b.acquire(producers[j], locks[j]);
            b.write(producers[j], f, 1);
            b.release(producers[j], locks[j]);
            b.acquire(consumers[j], locks[j]);
            b.read(consumers[j], f, 1);
            b.release(consumers[j], locks[j]);
            b.branch(consumers[j]);
            b.read(consumers[j], y, 1);
        }
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a *double-justifier* flag-handoff workload: the same shape as
/// [`flag_handoff_workload`] — a sync-free racy head plus `pairs` ×
/// `blocks` lock-protected message-passing rounds — except the producer
/// publishes each flag **twice**, in two separate critical sections:
///
/// ```text
/// producer_j:  w y_jk 1;  acq l_j; w f_jk 1; rel l_j;  acq l_j; w f_jk 1; rel l_j
/// consumer_j:  acq l_j;  r f_jk 1;  rel l_j;  branch;  r y_jk 1
/// ```
///
/// The payload COP `(w y_jk, r y_jk)` still survives the quick check (no
/// common lock) and is still `Unsat` — *every* same-value justifier of
/// the forced flag read sits between the payload write and the payload
/// read — but Tier B's entailment refuter only orders reads with a
/// *unique* justifier, so the COP lands in the residue and reaches the
/// sliced incremental solver. That makes this the workload where the
/// session machinery (shared skeleton, per-COP assumption queries,
/// learnt-clause retention) actually runs.
pub fn double_flag_workload(name: &str, pairs: usize, blocks: usize) -> Workload {
    assert!(pairs >= 1 && blocks >= 1);
    let mut b = TraceBuilder::new();
    let h = b.var("h");
    let main = ThreadId::MAIN;
    let reader = b.fork(main);
    let producers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(main)).collect();
    let consumers: Vec<ThreadId> = (0..pairs).map(|_| b.fork(main)).collect();
    let locks: Vec<_> = (0..pairs).map(|j| b.new_lock(&format!("l{j}"))).collect();

    // The head: one real race (Tier A's territory under the cascade).
    b.write(main, h, 1);
    b.read(reader, h, 1);

    for k in 0..blocks {
        for j in 0..pairs {
            let y = b.var(&format!("y{j}_{k}"));
            let f = b.var(&format!("f{j}_{k}"));
            b.write(producers[j], y, 1);
            b.acquire(producers[j], locks[j]);
            b.write(producers[j], f, 1);
            b.release(producers[j], locks[j]);
            b.acquire(producers[j], locks[j]);
            b.write(producers[j], f, 1);
            b.release(producers[j], locks[j]);
            b.acquire(consumers[j], locks[j]);
            b.read(consumers[j], f, 1);
            b.release(consumers[j], locks[j]);
            b.branch(consumers[j]);
            b.read(consumers[j], y, 1);
        }
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}

/// Builds a tenant-mix workload: the per-session traffic shape the daemon
/// sees in practice, with every COP class represented. A sync-free racy
/// pair on `h` at the head (a real race, found in window 0), then `rounds`
/// rounds across three threads, each mixing a lock-protected shared
/// counter (quick-check territory), a flag handoff whose payload COP
/// survives the quick check but is entailment-refuted through the forced
/// flag read (Tier B / solver territory), and race-free thread-local
/// filler. Variables are distinct per round so every round contributes
/// fresh COPs and windows stay busy.
pub fn tenant_mix_workload(name: &str, rounds: usize) -> Workload {
    assert!(rounds >= 1);
    let mut b = TraceBuilder::new();
    let main = ThreadId::MAIN;
    let t2 = b.fork(main);
    let t3 = b.fork(main);
    let lock = b.new_lock("m");

    // The head: one real race, confirmable by a sync-preserving reordering.
    let h = b.var("h");
    b.write(main, h, 1);
    b.write(t2, h, 2);

    for k in 0..rounds {
        // Lock-protected shared counter: the quick check kills these COPs.
        let g = b.var(&format!("g{k}"));
        b.acquire(main, lock);
        b.write(main, g, 1);
        b.release(main, lock);
        b.acquire(t2, lock);
        b.read(t2, g, 1);
        b.release(t2, lock);
        // Flag handoff: the payload COP survives the quick check but the
        // branch forces the flag read, entailing the handoff order.
        let y = b.var(&format!("y{k}"));
        let f = b.var(&format!("f{k}"));
        b.write(t2, y, 1);
        b.acquire(t2, lock);
        b.write(t2, f, 1);
        b.release(t2, lock);
        b.acquire(t3, lock);
        b.read(t3, f, 1);
        b.release(t3, lock);
        b.branch(t3);
        b.read(t3, y, 1);
        // Race-free thread-local filler.
        let a = b.var(&format!("a{k}"));
        let c = b.var(&format!("c{k}"));
        b.write(main, a, k as i64);
        b.write(t3, c, k as i64);
    }
    Workload {
        name: name.to_string(),
        trace: b.finish(),
    }
}
