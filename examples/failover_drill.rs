//! Failover drill: crash the primary (or a replica) mid-run and watch how
//! each fault-tolerance strategy recovers — the paper's Figure 5 contrast
//! made measurable.
//!
//! Active replication masks the crash entirely (no reconfiguration);
//! passive replication pays a view change; the database hot-standby pays
//! failure detection plus takeover; semi-passive pays only a consensus
//! round rotation.
//!
//! ```sh
//! cargo run --example failover_drill
//! ```

use repl_core::protocols::common::AbcastImpl;
use repl_sim::NodeId;
use replication::sim::SimTime;
use replication::workload::FaultPlan;
use replication::{run, RunConfig, Technique, WorkloadSpec};

fn main() {
    let crash_at = SimTime::from_ticks(3_000);
    println!("crashing server 0 (the primary/sequencer-rank node) at {crash_at}");
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>10} {:>7}",
        "technique", "completed", "mean lat", "worst lat", "retries", "conv"
    );
    for technique in [
        Technique::Active,
        Technique::SemiPassive,
        Technique::Passive,
        Technique::EagerPrimary,
    ] {
        let cfg = RunConfig::new(technique)
            .with_servers(5)
            .with_clients(3)
            .with_seed(11)
            // Active replication needs the crash-tolerant ABCAST.
            .with_abcast(AbcastImpl::Consensus)
            .with_faults(FaultPlan::new().crash_at(crash_at, NodeId::new(0)))
            .with_workload(
                WorkloadSpec::default()
                    .with_items(64)
                    .with_read_ratio(0.0)
                    .with_txns_per_client(12),
            );
        let report = run(&cfg);
        let mut lat = report.latencies.clone();
        // Convergence among survivors (index 0 is the corpse).
        let survivors_converged = report.fingerprints[1..].windows(2).all(|w| w[0] == w[1]);
        println!(
            "{:<22} {:>10} {:>11}t {:>11}t {:>10} {:>7}",
            technique.name(),
            report.ops_completed,
            report.latencies.mean().ticks(),
            lat.percentile(1.0).ticks(),
            report.client_retries,
            survivors_converged,
        );
    }
    println!();
    println!(
        "The worst-case latency is the operation that straddled the crash: it\n\
         absorbs the failure-detection timeout plus the technique's\n\
         reconfiguration cost (view change, takeover, or — for active\n\
         replication — nothing but consensus re-rotation)."
    );
}
