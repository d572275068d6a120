//! Batched-vs-unbatched equivalence: the batching window may only delay
//! transactions, never change what they compute.
//!
//! Two families of properties, over arbitrary seeds and window sizes:
//!
//! * **Single client** — with one closed-loop client the total order is
//!   forced, so a batched run must commit *exactly* the same values as
//!   the unbatched run: identical per-server store fingerprints and
//!   identical client-visible responses (reads and commit verdicts).
//!   Only timing (latencies, message counts) may differ.
//! * **Concurrent clients** — with contention the batched order may
//!   legitimately differ from the unbatched one, but the correctness
//!   contract is unchanged: every operation answered, the merged history
//!   one-copy serializable, and all replicas convergent.
//!
//! Both families cover every ABCAST-based technique (active,
//! semi-active, eager UE over ABCAST, certification) under both ABCAST
//! implementations, plus eager primary copy (which batches its
//! backup-update rounds and WAL group commit instead).

use proptest::prelude::*;

use repl_core::protocols::common::AbcastImpl;
use repl_core::{run, BatchConfig, RunConfig, RunReport, Technique};
use repl_sim::SimDuration;
use repl_workload::WorkloadSpec;

/// The techniques whose coordination rounds honour the batching window.
/// `(technique, abcast impls to exercise)` — eager primary copy has no
/// ABCAST layer, so only the default endpoint matters there.
const BATCHED: &[(Technique, &[AbcastImpl])] = &[
    (
        Technique::Active,
        &[AbcastImpl::Sequencer, AbcastImpl::Consensus],
    ),
    (
        Technique::SemiActive,
        &[AbcastImpl::Sequencer, AbcastImpl::Consensus],
    ),
    (
        Technique::EagerUpdateEverywhereAbcast,
        &[AbcastImpl::Sequencer, AbcastImpl::Consensus],
    ),
    (
        Technique::Certification,
        &[AbcastImpl::Sequencer, AbcastImpl::Consensus],
    ),
    (Technique::EagerPrimary, &[AbcastImpl::Sequencer]),
];

fn cfg(
    technique: Technique,
    abcast: AbcastImpl,
    clients: u32,
    seed: u64,
    window: u64,
) -> RunConfig {
    let batching = if window == 0 {
        BatchConfig::disabled()
    } else {
        BatchConfig::window(window)
    };
    RunConfig::new(technique)
        .with_servers(3)
        .with_clients(clients)
        .with_seed(seed)
        .with_trace(false)
        .with_abcast(abcast)
        .with_batching(batching)
        .with_workload(
            WorkloadSpec::default()
                .with_items(16)
                .with_read_ratio(0.25)
                .with_txns_per_client(6)
                .with_think_time(SimDuration::from_ticks(150)),
        )
}

/// One operation's client-visible result: client, op id, and (if
/// answered) the commit verdict with the `(key, value)` pairs read.
type Outcome = (u32, u64, Option<(bool, Vec<(u64, i64)>)>);

/// Client-visible outcome of a run, stripped of all timing: per-client
/// operation ids, commit verdicts and read values, in client order.
fn outcomes(report: &RunReport) -> Vec<Outcome> {
    report
        .records
        .iter()
        .map(|(client, rec)| {
            (
                *client,
                rec.op.0,
                rec.response.as_ref().map(|resp| {
                    (
                        resp.committed,
                        resp.reads.iter().map(|(k, v)| (k.0, v.0)).collect(),
                    )
                }),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One client: any batching window yields bit-identical stores and
    /// client-visible responses — batching may only cost time.
    #[test]
    fn single_client_batched_equals_unbatched(
        seed in 0u64..1_000_000,
        window in 1u64..2_000,
    ) {
        for &(technique, impls) in BATCHED {
            for &ab in impls {
                let base = run(&cfg(technique, ab, 1, seed, 0));
                let batched = run(&cfg(technique, ab, 1, seed, window));
                prop_assert_eq!(
                    &base.fingerprints,
                    &batched.fingerprints,
                    "{technique:?}/{ab:?} seed={seed} w={window}: stores diverged"
                );
                prop_assert_eq!(
                    outcomes(&base),
                    outcomes(&batched),
                    "{technique:?}/{ab:?} seed={seed} w={window}: responses diverged"
                );
                prop_assert_eq!(base.ops_unanswered, 0);
                prop_assert_eq!(batched.ops_unanswered, 0);
            }
        }
    }

    /// Concurrent clients: under any window the run still answers every
    /// operation, stays one-copy serializable and converges.
    #[test]
    fn concurrent_batched_run_is_serializable(
        seed in 0u64..1_000_000,
        window in 1u64..2_000,
        clients in 2u32..5,
    ) {
        for &(technique, impls) in BATCHED {
            for &ab in impls {
                let report = run(&cfg(technique, ab, clients, seed, window));
                prop_assert_eq!(
                    report.ops_unanswered, 0,
                    "{technique:?}/{ab:?} seed={seed} w={window} c={clients}: unanswered ops"
                );
                prop_assert!(
                    report.converged(),
                    "{technique:?}/{ab:?} seed={seed} w={window} c={clients}: replicas diverged"
                );
                prop_assert!(
                    report.check_one_copy_serializable().is_ok(),
                    "{technique:?}/{ab:?} seed={seed} w={window} c={clients}: not 1SR"
                );
            }
        }
    }
}
