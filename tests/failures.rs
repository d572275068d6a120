//! Failure-injection integration tests: the fault-tolerance claims of the
//! paper's Section 3 (and the hot-standby story of Section 4.3), verified
//! end to end across the full protocol stacks.

use replication::core::protocols::common::AbcastImpl;
use replication::sim::{NodeId, SimTime};
use replication::workload::FaultPlan;
use replication::{run, RunConfig, Technique, WorkloadSpec};

fn crash_zero_at(t: u64) -> FaultPlan {
    FaultPlan::new().crash_at(SimTime::from_ticks(t), NodeId::new(0))
}

fn updates(n: u32) -> WorkloadSpec {
    WorkloadSpec::default()
        .with_items(64)
        .with_read_ratio(0.0)
        .with_txns_per_client(n)
}

#[test]
fn active_replication_masks_replica_crash() {
    let cfg = RunConfig::new(Technique::Active)
        .with_servers(5)
        .with_clients(2)
        .with_seed(3)
        .with_abcast(AbcastImpl::Consensus)
        .with_faults(crash_zero_at(15_000))
        .with_workload(updates(8));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "crash must be transparent");
    // Survivors (indices 1..) agree; index 0 is the corpse.
    assert!(
        report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]),
        "survivors diverged: {:?}",
        report.fingerprints
    );
}

#[test]
fn passive_replication_survives_primary_crash_with_view_change() {
    let cfg = RunConfig::new(Technique::Passive)
        .with_servers(4)
        .with_clients(2)
        .with_seed(5)
        .with_faults(crash_zero_at(12_000))
        .with_workload(updates(8));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "failover must complete the run");
    assert!(
        report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]),
        "survivors diverged: {:?}",
        report.fingerprints
    );
}

#[test]
fn semi_passive_survives_coordinator_crash_without_views() {
    let cfg = RunConfig::new(Technique::SemiPassive)
        .with_servers(3)
        .with_clients(2)
        .with_seed(7)
        .with_faults(crash_zero_at(10_000))
        .with_workload(updates(6));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0);
    assert!(report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn eager_primary_hot_standby_takes_over() {
    let cfg = RunConfig::new(Technique::EagerPrimary)
        .with_servers(3)
        .with_clients(2)
        .with_seed(9)
        .with_faults(crash_zero_at(12_000))
        .with_workload(updates(8));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "takeover failed");
    assert!(report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]));
    // Committed history (survivor side) stays one-copy serializable.
    report
        .check_one_copy_serializable()
        .expect("takeover must not break 1SR");
}

#[test]
fn failover_pause_is_visible_in_latency_but_bounded() {
    // The operation in flight during the crash absorbs detection +
    // reconfiguration. It must be slower than the median but the run must
    // still finish well before the deadline.
    let cfg = RunConfig::new(Technique::Passive)
        .with_servers(3)
        .with_clients(1)
        .with_seed(13)
        .with_faults(crash_zero_at(2_000))
        .with_workload(updates(10));
    let report = run(&cfg);
    let mut lat = report.latencies.clone();
    let median = lat.percentile(0.5);
    let worst = lat.percentile(1.0);
    assert!(
        worst.ticks() > 2 * median.ticks(),
        "no visible failover pause? median={median} worst={worst}"
    );
    assert!(report.duration < SimTime::from_ticks(5_000_000));
}

#[test]
fn crash_after_quiescence_changes_nothing() {
    let quiet = RunConfig::new(Technique::Active)
        .with_clients(1)
        .with_seed(21)
        .with_workload(updates(3));
    let baseline = run(&quiet);
    let crashed = run(&quiet.clone().with_faults(crash_zero_at(20_000_000)));
    assert_eq!(baseline.ops_completed, crashed.ops_completed);
}

#[test]
fn multiple_crashes_leave_a_majority_and_still_finish() {
    let cfg = RunConfig::new(Technique::Active)
        .with_servers(5)
        .with_clients(2)
        .with_seed(29)
        .with_abcast(AbcastImpl::Consensus)
        .with_faults(
            FaultPlan::new()
                .crash_at(SimTime::from_ticks(10_000), NodeId::new(0))
                .crash_at(SimTime::from_ticks(40_000), NodeId::new(1)),
        )
        .with_workload(updates(8));
    let report = run(&cfg);
    assert_eq!(report.ops_unanswered, 0, "majority alive must suffice");
    assert!(report.fingerprints[2..].windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn certification_with_consensus_abcast_survives_crash() {
    // Certification's agreement rests entirely on the total order; the
    // order must survive a replica crash when backed by consensus.
    let cfg = RunConfig::new(Technique::Certification)
        .with_servers(5)
        .with_clients(3)
        .with_seed(31)
        .with_abcast(AbcastImpl::Consensus)
        .with_faults(crash_zero_at(10_000))
        .with_workload(updates(6));
    let report = run(&cfg);
    assert_eq!(
        report.ops_unanswered, 0,
        "certification stalled after crash"
    );
    assert!(
        report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]),
        "survivor certifiers diverged: {:?}",
        report.fingerprints
    );
    report
        .check_one_copy_serializable()
        .expect("crash must not corrupt certified history");
}

#[test]
fn eager_ue_abcast_with_consensus_survives_delegate_crash() {
    let cfg = RunConfig::new(Technique::EagerUpdateEverywhereAbcast)
        .with_servers(5)
        .with_clients(3)
        .with_seed(37)
        .with_abcast(AbcastImpl::Consensus)
        .with_faults(crash_zero_at(10_000))
        .with_workload(updates(6));
    let report = run(&cfg);
    assert_eq!(
        report.ops_unanswered, 0,
        "clients of the dead delegate stuck"
    );
    assert!(report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]));
    report
        .check_one_copy_serializable()
        .expect("1SR after crash");
}
