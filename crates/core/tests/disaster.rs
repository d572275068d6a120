//! Tiered durability under disaster: every technique survives losing a
//! replica's *entire volume* (WAL + store), restores from the durable
//! object tier, rejoins, and converges — and the run report accounts
//! honestly for whatever the disaster erased.
//!
//! The scenario mirrors the P12 study: three replicas, one tail victim,
//! a volume-loss disaster mid-run, an asynchronous uploader shipping
//! sealed log frames to a simulated object store. Contracts:
//!
//! * **Liveness** — the surviving majority keeps answering and the wiped
//!   replica comes back; no client is left unanswered.
//! * **Restore accounting** — the victim's wipe and its tier restore are
//!   both counted, and the rejoin completes (finite MTTR).
//! * **Convergence** — at quiescence the restored replica's store
//!   fingerprint equals every survivor's.
//! * **No silent loss** — every acknowledged update either survives in
//!   the merged history or is claimed by the data-loss accounting
//!   ([`RunReport::check_no_silent_loss`]).
//! * **Data-loss window** — the number of commits the disaster catches
//!   un-uploaded is zero at upload lag 0 and monotone in the lag.
//! * **Transparency** — with no disaster, the tier at lag 0 is digest-
//!   invisible: byte-identical reports with the tier on and off.

use repl_core::{run, DurabilityConfig, Guarantee, Propagation, RunConfig, Technique};
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, WorkloadSpec};

const SERVERS: u32 = 3;
const CLIENTS: u32 = 3;
const DISASTER_AT: u64 = 5_000;
const DOWNTIME: u64 = 15_000;

fn victim() -> NodeId {
    NodeId::new(SERVERS - 1)
}

/// The P12 scenario: one tail-replica volume loss mid-run, updates
/// flowing before, during and after, the durable tier uploading with
/// the given lag.
fn disaster_cfg(technique: Technique, seed: u64, upload_lag: u64) -> (RunConfig, FaultPlan) {
    let plan = FaultPlan::new().disaster_at(
        SimTime::from_ticks(DISASTER_AT),
        victim(),
        SimDuration::from_ticks(DOWNTIME),
    );
    let mut cfg = RunConfig::new(technique)
        .with_servers(SERVERS)
        .with_clients(CLIENTS)
        .with_seed(seed)
        .with_trace(false)
        .with_durability(DurabilityConfig::with_upload_lag(upload_lag))
        .with_workload(
            WorkloadSpec::default()
                .with_items(64)
                .with_read_ratio(0.0)
                .with_txns_per_client(15)
                .with_think_time(SimDuration::from_ticks(3_000)),
        )
        .with_retry_after(SimDuration::from_ticks(4_000))
        .with_faults(plan.clone());
    if technique.info().propagation == Propagation::Lazy {
        cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
    }
    (cfg, plan)
}

/// The acceptance scenario: volume loss → restore from the tier →
/// rejoin → converge, uniformly for all ten techniques.
#[test]
fn every_technique_restores_a_wiped_replica_and_converges() {
    for technique in Technique::ALL {
        let (cfg, plan) = disaster_cfg(technique, 167, 2_000);
        assert!(plan.fully_healed());
        assert!(plan.wipes(victim()));
        let report = run(&cfg);

        // Liveness: a minority volume loss is tolerated by every technique.
        assert_eq!(
            report.ops_unanswered, 0,
            "{technique}: clients left unanswered across a restored disaster"
        );

        // The disaster really happened and the tier really restored.
        assert!(
            report.durability.enabled,
            "{technique}: durable tier not enabled"
        );
        assert!(
            report.durability.volume_wipes >= 1,
            "{technique}: volume wipe not counted"
        );
        assert!(
            report.durability.restores >= 1,
            "{technique}: no restore from the durable tier"
        );
        assert!(
            report.durability.restore_ticks > 0,
            "{technique}: restore took zero ticks"
        );

        // The rejoin completed: a begun and finished catch-up, finite MTTR.
        let rec = report
            .availability
            .recoveries
            .iter()
            .find(|r| r.site == SERVERS - 1)
            .unwrap_or_else(|| panic!("{technique}: no recovery record for the victim"));
        assert!(rec.recoveries >= 1, "{technique}: rejoin not counted");
        assert!(
            rec.catch_up_ticks.is_some(),
            "{technique}: victim never finished rejoining after the restore"
        );
        assert!(
            report.availability.mttr_ticks().is_some(),
            "{technique}: no MTTR despite a completed restore + rejoin"
        );

        // Convergence: the restored replica matches every survivor.
        let fps = &report.fingerprints;
        assert!(
            fps.windows(2).all(|w| w[0] == w[1]),
            "{technique}: replicas diverged after a volume restore: {fps:?}"
        );

        // The safety oracle: every acknowledged update either survives in
        // the merged history or is claimed by the data-loss accounting.
        report
            .check_no_silent_loss()
            .unwrap_or_else(|v| panic!("{technique}: acknowledged commits silently erased: {v:?}"));
    }
}

/// Strong techniques keep their merged history one-copy serializable
/// across the disaster: the surviving majority holds every acknowledged
/// commit, so the restored replica's catch-up closes the gap the wipe
/// opened without leaking torn state into the history.
#[test]
fn strong_techniques_stay_serializable_across_a_disaster() {
    for technique in Technique::ALL {
        if technique.info().guarantee == Guarantee::Weak {
            continue;
        }
        let (cfg, _) = disaster_cfg(technique, 167, 2_000);
        let report = run(&cfg);
        assert_eq!(report.ops_unanswered, 0, "{technique}");
        report
            .check_one_copy_serializable()
            .unwrap_or_else(|e| panic!("{technique}: 1SR violated across a disaster: {e}"));
    }
}

/// Satellite: with no disaster, the tier is observation-free. A clean
/// run with synchronous uploads (lag 0) must be byte-identical — same
/// digest — to the same run with the tier disabled, for every
/// technique. Uploads ride the existing event stream and their
/// counters stay out of the digest unless a disaster actually struck.
#[test]
fn tier_at_zero_lag_is_digest_invisible_on_clean_runs() {
    for technique in Technique::ALL {
        let base = RunConfig::new(technique)
            .with_servers(SERVERS)
            .with_clients(CLIENTS)
            .with_seed(29)
            .with_trace(true)
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.2)
                    .with_txns_per_client(10)
                    .with_think_time(SimDuration::from_ticks(2_000)),
            );
        let untiered = run(&base);
        let tiered = run(&base
            .clone()
            .with_durability(DurabilityConfig::with_upload_lag(0)));
        assert!(
            tiered.durability.enabled && !tiered.durability.disaster(),
            "{technique}: clean tiered run misreported a disaster"
        );
        assert_eq!(
            untiered.digest(),
            tiered.digest(),
            "{technique}: enabling the tier changed a clean run's digest"
        );
        assert_eq!(
            untiered.trace_hash, tiered.trace_hash,
            "{technique}: enabling the tier changed a clean run's event trace"
        );
    }
}

/// Satellite: the data-loss window is the tail of commits sealed but
/// not yet durable when the volume dies. With synchronous uploads the
/// window is empty; stretching the upload lag can only grow it —
/// pre-wipe execution is lag-independent, so the set of frames whose
/// `seal + lag` postdates the wipe is monotone in the lag.
#[test]
fn data_loss_window_is_zero_at_lag_zero_and_monotone_in_lag() {
    for &technique in &[
        Technique::Active,
        Technique::Passive,
        Technique::EagerPrimary,
        Technique::LazyUpdateEverywhere,
    ] {
        let mut prev = 0u64;
        for (i, &lag) in [0u64, 2_000, 20_000].iter().enumerate() {
            let (cfg, _) = disaster_cfg(technique, 167, lag);
            let report = run(&cfg);
            let lost = report.durability.lost_commits;
            if i == 0 {
                assert_eq!(
                    lost, 0,
                    "{technique}: synchronous uploads still lost commits"
                );
            } else {
                assert!(
                    lost >= prev,
                    "{technique}: data-loss window shrank as upload lag grew \
                     (lag {lag}: {lost} < {prev})"
                );
            }
            // Whatever was lost must be claimed, never silent.
            report
                .check_no_silent_loss()
                .unwrap_or_else(|v| panic!("{technique} lag {lag}: silent loss: {v:?}"));
            prev = lost;
        }
    }
}

/// Satellite nemesis: a volume-loss disaster *composed with* a crash of
/// a second replica and a partition isolating the restored one. Four
/// servers so a majority survives every window and two replicas stay
/// untouched. Liveness, the no-silent-loss oracle and untouched-replica
/// convergence must all hold through the composition.
#[test]
fn volume_loss_composes_with_crash_and_partition_faults() {
    const N: u32 = 4;
    let wiped = NodeId::new(N - 1);
    let plan = FaultPlan::new()
        .disaster_at(
            SimTime::from_ticks(5_000),
            wiped,
            SimDuration::from_ticks(12_000),
        )
        .outage_at(
            SimTime::from_ticks(26_000),
            NodeId::new(N - 2),
            SimDuration::from_ticks(10_000),
        )
        .partition_at(
            SimTime::from_ticks(44_000),
            vec![
                vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
                vec![wiped],
            ],
        )
        .heal_at(SimTime::from_ticks(52_000));
    assert!(plan.fully_healed());

    for &technique in &[
        Technique::Active,
        Technique::Certification,
        Technique::Passive,
        Technique::LazyPrimary,
    ] {
        let mut cfg = RunConfig::new(technique)
            .with_servers(N)
            .with_clients(CLIENTS)
            .with_seed(167)
            .with_trace(false)
            .with_durability(DurabilityConfig::with_upload_lag(2_000))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(15)
                    .with_think_time(SimDuration::from_ticks(3_000)),
            )
            .with_retry_after(SimDuration::from_ticks(4_000))
            .with_faults(plan.clone());
        if technique.info().propagation == Propagation::Lazy {
            cfg = cfg.with_propagation_delay(SimDuration::from_ticks(1_000));
        }
        let report = run(&cfg);

        assert_eq!(
            report.ops_unanswered, 0,
            "{technique}: clients left unanswered under the composed nemesis"
        );
        assert_eq!(
            report.faults_injected(),
            plan.fault_count() as u64,
            "{technique}: not every scheduled fault was applied"
        );
        assert!(
            report.durability.volume_wipes >= 1 && report.durability.restores >= 1,
            "{technique}: the disaster leg of the nemesis did not run"
        );
        report.check_no_silent_loss().unwrap_or_else(|v| {
            panic!("{technique}: silent loss under the composed nemesis: {v:?}")
        });

        // Replicas the plan never disturbed must agree.
        let untouched: Vec<(u32, u64)> = (0..N - 2)
            .map(|s| (s, report.fingerprints[s as usize]))
            .collect();
        assert!(
            untouched.windows(2).all(|w| w[0].1 == w[1].1),
            "{technique}: untouched replicas diverged: {untouched:?}"
        );
        if technique.info().guarantee != Guarantee::Weak {
            report.check_one_copy_serializable().unwrap_or_else(|e| {
                panic!("{technique}: 1SR violated under the composed nemesis: {e}")
            });
        }
    }
}

/// Same seed, same disaster ⇒ identical reports, durability accounting
/// included — the uploader, the wipe and the restore must be as
/// deterministic as the rest of the simulator.
#[test]
fn disaster_runs_are_deterministic() {
    for &technique in &[
        Technique::Active,
        Technique::SemiPassive,
        Technique::EagerUpdateEverywhereLocking,
    ] {
        let (cfg, _) = disaster_cfg(technique, 19, 2_000);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(
            a.digest(),
            b.digest(),
            "{technique}: disaster runs diverged"
        );
        assert_eq!(
            a.durability.lost_commits, b.durability.lost_commits,
            "{technique}: loss accounting diverged"
        );
        assert_eq!(
            a.durability.claimed_lost, b.durability.claimed_lost,
            "{technique}: claimed-loss sets diverged"
        );
    }
}
