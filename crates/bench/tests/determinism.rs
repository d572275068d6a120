//! Serial-vs-parallel determinism: the sweep engine must be a pure
//! scheduler.
//!
//! Every replication technique is run at two seeds, once on the serial
//! reference path (`threads = 1`) and once fanned across worker
//! threads. For every cell the two sweeps must produce *identical*
//! reports — compared by the full [`RunReport::digest`] (latency
//! samples, message counters, per-op records, availability) and by the
//! event-level trace hash. Any cross-run state leak (a shared RNG, a
//! global, unordered iteration feeding event order) shows up here as a
//! digest mismatch naming the exact technique/seed cell.

use repl_bench::sweep::{run_sweep, SweepCell};
use repl_bench::update_workload;
use repl_core::{RunConfig, Technique};
use repl_sim::{NodeId, SimDuration, SimTime};
use repl_workload::{FaultPlan, WorkloadSpec};

fn study_cells() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for technique in Technique::ALL {
        for seed in [11u64, 8_675_309] {
            cells.push(SweepCell::new(
                format!("{}/seed={seed}", technique.name()),
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(2)
                    .with_seed(seed)
                    .with_trace(true)
                    .with_workload(update_workload(6)),
            ));
        }
    }
    cells
}

#[test]
fn serial_and_parallel_sweeps_agree_exactly() {
    let cells = study_cells();
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 4);
    assert_eq!(serial.len(), cells.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label, "sweep results out of order");
        let sr = s
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("serial cell `{}` failed: {e}", s.label));
        let pr = p
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("parallel cell `{}` failed: {e}", p.label));
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(
            sr.trace_hash, pr.trace_hash,
            "event trace diverged between serial and parallel for `{}`",
            s.label
        );
        assert_eq!(
            sr.digest(),
            pr.digest(),
            "report digest diverged between serial and parallel for `{}`",
            s.label
        );
    }
}

#[test]
fn sweep_smoke_two_techniques_two_seeds() {
    // The cheap CI gate: a 2×2 matrix through the parallel path must
    // succeed and agree with the serial reference.
    let mut cells = Vec::new();
    for technique in [Technique::Active, Technique::EagerPrimary] {
        for seed in [1u64, 2] {
            cells.push(SweepCell::new(
                format!("{}/seed={seed}", technique.name()),
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(2)
                    .with_seed(seed)
                    .with_trace(true)
                    .with_workload(update_workload(4)),
            ));
        }
    }
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 2);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
    }
}

#[test]
fn batching_cells_are_deterministic() {
    // Batching adds flush timers and staged state to the hot path; none
    // of it may leak across cells or threads. Every ABCAST technique ×
    // implementation × window must agree digest-for-digest and
    // trace-for-trace between the serial reference and a parallel sweep.
    use repl_bench::{batching_cell_label, batching_cells};
    let cells: Vec<SweepCell> = batching_cells(&[2], &[250, 1_000])
        .into_iter()
        .map(|cell| {
            let label = batching_cell_label(&cell);
            SweepCell::new(label, cell.cfg.with_trace(true))
        })
        .collect();
    assert!(!cells.is_empty());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn recovery_cells_are_deterministic() {
    // Crash→recover plans exercise rejoin, state transfer and the MTTR
    // accounting; none of it may depend on sweep scheduling. Every
    // technique under a paired outage must agree digest-for-digest and
    // trace-for-trace between the serial reference and a parallel
    // sweep — and must actually have recovered, or the cell is vacuous.
    use repl_bench::{recovery_cell_label, recovery_cells};
    let cells: Vec<SweepCell> = recovery_cells(&[15_000], &[1.0])
        .into_iter()
        .map(|cell| SweepCell::new(recovery_cell_label(&cell), cell.faulted.with_trace(true)))
        .collect();
    assert_eq!(cells.len(), Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(
            sr.availability.mttr_ticks().is_some(),
            "cell `{}` never completed its recovery",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn disaster_cells_are_deterministic() {
    // Volume-loss plans exercise the durable tier end to end: sealing,
    // asynchronous uploads, the wipe, the tier restore and the loss
    // accounting. None of it may depend on sweep scheduling. Every
    // technique under the P12 disaster must agree digest-for-digest and
    // trace-for-trace between the serial reference and a parallel
    // sweep — and must actually have restored, or the cell is vacuous.
    use repl_bench::{disaster_cell_label, disaster_cells};
    let cells: Vec<SweepCell> = disaster_cells(&[2_000])
        .into_iter()
        .map(|cell| SweepCell::new(disaster_cell_label(&cell), cell.faulted.with_trace(true)))
        .collect();
    assert_eq!(cells.len(), Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(
            sr.durability.restores > 0,
            "cell `{}` never restored from the durable tier",
            s.label
        );
        assert!(
            sr.check_no_silent_loss().is_ok(),
            "cell `{}` silently lost acknowledged commits",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn elasticity_cells_are_deterministic() {
    // Membership plans exercise dormant-actor spawn, the online-join
    // protocol (view change + state transfer), drain handoff and client
    // rerouting; none of it may depend on sweep scheduling. Every
    // technique under the P15 3→7→3 cycle must agree digest-for-digest
    // and trace-for-trace between the serial reference and a parallel
    // sweep — and every joiner must actually have joined, or the cell
    // is vacuous.
    use repl_bench::{elasticity_cell_label, elasticity_cells, joiner_accounting};
    let cells: Vec<SweepCell> = elasticity_cells()
        .into_iter()
        .map(|cell| SweepCell::new(elasticity_cell_label(&cell), cell.elastic.with_trace(true)))
        .collect();
    assert_eq!(cells.len(), Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        let (join_mean, _, joined) = joiner_accounting(sr);
        assert_eq!(joined, 4, "cell `{}`: not every joiner joined", s.label);
        assert!(
            join_mean.is_some(),
            "cell `{}` has no join time despite completed joins",
            s.label
        );
        assert!(
            sr.check_no_silent_loss().is_ok(),
            "cell `{}` silently lost acknowledged updates across a drain",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn open_loop_cells_are_deterministic() {
    // The aggregated open-loop engine replaces per-client actors with
    // per-group arrival streams, streams latencies into a histogram, and
    // runs servers lean; none of it may depend on sweep scheduling.
    // Every technique at a small population must agree
    // digest-for-digest between the serial reference and a parallel
    // sweep, and the digest must cover the histogram (cells with equal
    // counters but different latency distributions must not collide).
    use repl_core::Arrival;
    use repl_workload::ArrivalDist;
    let cells: Vec<SweepCell> = Technique::ALL
        .iter()
        .flat_map(|&technique| {
            [ArrivalDist::Poisson, ArrivalDist::Uniform].map(|dist| {
                SweepCell::new(
                    format!("{}/agg/{dist:?}", technique.name()),
                    RunConfig::new(technique)
                        .with_servers(3)
                        .with_clients(6)
                        .with_seed(23)
                        .with_trace(false)
                        .with_arrival(Arrival::OpenAggregated { mean: 2_000, dist })
                        .with_workload(update_workload(4)),
                )
            })
        })
        .collect();
    assert_eq!(cells.len(), 2 * Technique::ALL.len());
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        let hist = sr
            .latency_hist
            .as_ref()
            .unwrap_or_else(|| panic!("cell `{}` has no streaming histogram", s.label));
        assert_eq!(
            hist.count(),
            sr.ops_completed,
            "cell `{}` histogram lost samples",
            s.label
        );
        assert!(
            sr.records.is_empty(),
            "cell `{}` kept per-op records on the aggregated path",
            s.label
        );
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
    }
    // The two arrival shapes share every config knob except the gap
    // distribution; their digests must differ through the histogram.
    for pair in serial.chunks(2) {
        let (a, b) = (
            pair[0].result.as_ref().unwrap(),
            pair[1].result.as_ref().unwrap(),
        );
        assert_ne!(
            a.digest(),
            b.digest(),
            "Poisson and Uniform arrivals produced identical digests for `{}`",
            pair[0].label
        );
    }
}

#[test]
fn sharded_cells_are_deterministic() {
    // Partial replication splits the keyspace across replica groups that
    // run interleaved in one world: per-group protocol instances, the
    // shard router in the clients, and (at ratio > 0) the cross-shard
    // commit paths — 2PC for the locking technique, genuine atomic
    // multicast for ABCAST. None of it may depend on sweep scheduling.
    // Two techniques × S ∈ {1, 4}, plus cross-shard cells at S=4, must
    // agree digest-for-digest and trace-for-trace between the serial
    // reference and a parallel sweep.
    use repl_bench::sharding_cfg;
    let mut cells = Vec::new();
    for technique in [Technique::Active, Technique::EagerUpdateEverywhereLocking] {
        for shards in [1u32, 4] {
            cells.push(SweepCell::new(
                format!("{}/S={shards}/x=0%", technique.name()),
                sharding_cfg(technique, shards, 0.0).with_trace(true),
            ));
        }
        cells.push(SweepCell::new(
            format!("{}/S=4/x=20%", technique.name()),
            sharding_cfg(technique, 4, 0.20).with_trace(true),
        ));
    }
    let serial = run_sweep(&cells, 1);
    let parallel = run_sweep(&cells, 3);
    for (s, p) in serial.iter().zip(&parallel) {
        let (sr, pr) = (s.result.as_ref().unwrap(), p.result.as_ref().unwrap());
        assert!(sr.ops_completed > 0, "cell `{}` did no work", s.label);
        if s.label.ends_with("x=20%") {
            assert!(
                sr.sharding.cross_shard_ops > 0,
                "cell `{}` routed no cross-shard transactions",
                s.label
            );
        }
        assert!(
            sr.check_one_copy_serializable().is_ok(),
            "cell `{}` violated one-copy serializability",
            s.label
        );
        assert_ne!(sr.trace_hash, 0, "cell `{}` produced no trace", s.label);
        assert_eq!(sr.digest(), pr.digest(), "cell `{}` diverged", s.label);
        assert_eq!(sr.trace_hash, pr.trace_hash, "cell `{}` diverged", s.label);
    }
}

#[test]
fn thread_count_is_not_observable() {
    // Different worker counts (and therefore different cell-to-thread
    // assignments) must still agree cell-for-cell.
    let cells: Vec<SweepCell> = study_cells().into_iter().take(8).collect();
    let a = run_sweep(&cells, 2);
    let b = run_sweep(&cells, 5);
    for (x, y) in a.iter().zip(&b) {
        let (xr, yr) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
        assert_eq!(xr.digest(), yr.digest(), "cell `{}` diverged", x.label);
        assert_eq!(xr.trace_hash, yr.trace_hash, "cell `{}` diverged", x.label);
    }
}

/// The techniques whose protocol messages ship writesets.
const WRITESET_TECHNIQUES: [Technique; 6] = [
    Technique::Passive,
    Technique::SemiPassive,
    Technique::EagerPrimary,
    Technique::LazyPrimary,
    Technique::LazyUpdateEverywhere,
    Technique::Certification,
];

/// One crash→recover outage cell per writeset-shipping technique:
/// replica 2 is down from tick 5 000 to tick 25 000, so the recovering
/// replica rejoins through state transfer while writesets keep flowing.
fn outage_cells() -> Vec<SweepCell> {
    let plan = FaultPlan::new().outage_at(
        SimTime::from_ticks(5_000),
        NodeId::new(2),
        SimDuration::from_ticks(20_000),
    );
    WRITESET_TECHNIQUES
        .iter()
        .map(|&technique| {
            SweepCell::new(
                format!("{}/outage", technique.name()),
                RunConfig::new(technique)
                    .with_servers(3)
                    .with_clients(2)
                    .with_seed(23)
                    .with_trace(true)
                    .with_retry_after(SimDuration::from_ticks(4_000))
                    .with_faults(plan.clone())
                    .with_workload(
                        WorkloadSpec::default()
                            .with_items(16)
                            .with_read_ratio(0.25)
                            .with_txns_per_client(6)
                            .with_think_time(SimDuration::from_ticks(150)),
                    ),
            )
        })
        .collect()
}

/// `(label, digest(), trace_hash)` for every `study_cells` cell and every
/// `outage_cells` cell, as computed by the code before the writeset
/// representation was reduced to one `Arc<WriteSet>` path. A refactor
/// that claims to preserve behaviour must leave every row unchanged.
#[rustfmt::skip]
const PINNED: &[(&str, u64, u64)] = &[
    ("Active/seed=11", 0x704eec45dceb1f1c, 0x37da9284ce3dc92e),
    ("Active/seed=8675309", 0xfb763ead40a1f987, 0x99f6a3caa2580b93),
    ("Passive/seed=11", 0x47d3ffb9693de183, 0x7f7bef35a0c56699),
    ("Passive/seed=8675309", 0xa976d3d809960ee8, 0x31cb16d2f93ed047),
    ("Semi-Active/seed=11", 0x6ada1c57fa9511eb, 0xa8a12cf60e225598),
    ("Semi-Active/seed=8675309", 0xa87a57fb7df47cf2, 0xa55c7c84085ef463),
    ("Semi-Passive/seed=11", 0x3981f7dba129d6c3, 0x9d5c08c68c720f46),
    ("Semi-Passive/seed=8675309", 0xc434ade01030f307, 0xfd9addc0feaa2fe5),
    ("Eager Primary Copy/seed=11", 0xa3e93bfc9f4ed59c, 0xd4be1844a74094f7),
    ("Eager Primary Copy/seed=8675309", 0x2a503f0c08e4b1a2, 0x10ece1ee97ab6e91),
    ("Eager UE (Distributed Locking)/seed=11", 0x18f6f7fe78b4ed6c, 0x75c13defc84ab66e),
    ("Eager UE (Distributed Locking)/seed=8675309", 0x3d7dd36a43417c1f, 0x8aa94f3d9004b24b),
    ("Eager UE (ABCAST)/seed=11", 0xb09634d25489f409, 0x7c43710eeabf1d6c),
    ("Eager UE (ABCAST)/seed=8675309", 0xfe4706a8321e9d77, 0x88afedf1bf36fa72),
    ("Lazy Primary Copy/seed=11", 0x65199f5a9c6fde18, 0x0346f753830c50a6),
    ("Lazy Primary Copy/seed=8675309", 0xf8e60baba94f0a01, 0x15d121cf605a4185),
    ("Lazy Update Everywhere/seed=11", 0xc793e810b66ee9be, 0x8fc926a5579ef9c8),
    ("Lazy Update Everywhere/seed=8675309", 0xf08d2190593d76ed, 0x9898aad37e620820),
    ("Certification Based/seed=11", 0x45d3731bfe69ad88, 0x47b2f2df0a6a0e75),
    ("Certification Based/seed=8675309", 0xc7c966c1a7c85e93, 0x39e5b1c4de48cfe4),
    ("Passive/outage", 0xfb2b73c888e30345, 0x2ff66187994c450c),
    ("Semi-Passive/outage", 0x7526c95e96c88393, 0x8b45ac390d05b519),
    ("Eager Primary Copy/outage", 0x6cfbe9f2c6db4ac6, 0xf06f2d3a5ee4367e),
    ("Lazy Primary Copy/outage", 0x8ceeeb36ee9986ea, 0xc0723584a75410e4),
    ("Lazy Update Everywhere/outage", 0xb398810fe53105ec, 0xd590e8d8831efa2d),
    ("Certification Based/outage", 0x209b5893e9ddee11, 0x7c8b708de83783ae),
];

#[test]
fn digests_and_trace_hashes_match_the_pinned_table() {
    let cells: Vec<SweepCell> = study_cells().into_iter().chain(outage_cells()).collect();
    let got: Vec<(String, u64, u64)> = run_sweep(&cells, 2)
        .into_iter()
        .map(|c| {
            let r = c
                .result
                .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", c.label));
            (c.label, r.digest(), r.trace_hash)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(l, d, t)| format!("    (\"{l}\", {d:#018x}, {t:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = PINNED
        .iter()
        .map(|&(l, d, t)| (l.to_string(), d, t))
        .collect();
    assert_eq!(got, want, "pinned digests moved; computed table:\n{table}");
}
