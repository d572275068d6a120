//! Database-kernel hot paths: the lock acquire→commit microcycle on the
//! dense, sparse and seed-baseline backings across keyspace sizes, plus
//! certification, deadlock detection and the incremental 1SR history
//! check, cold on a hot-key merged history and warm on a flushed one.
//! The P10 table (`perfstudy --p10-only`) reports the end-to-end
//! view; this bench isolates the kernel cycles themselves.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use repl_bench::{kernel_table, microcycle_keys, render, SeedLockManager};
use repl_db::{
    AccessKind, Certifier, DeadlockPolicy, Key, Keyspace, LockManager, LockMode, ReplicatedHistory,
    TxnId, Value, WriteRecord, WriteSet,
};
use repl_workload::Zipf;

const KEYSPACES: [u64; 3] = [64, 1024, 65536];

fn t(ts: u64) -> TxnId {
    TxnId::new(ts, 0)
}

fn bench_lock_microcycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    for &items in &KEYSPACES {
        for (label, dense) in [("dense", true), ("sparse", false)] {
            let ks = if dense {
                Keyspace::dense(items)
            } else {
                Keyspace::sparse(items)
            };
            g.bench_function(format!("lock_microcycle/{label}/k={items}"), |b| {
                let mut lm = LockManager::with_keyspace(DeadlockPolicy::WoundWait, ks);
                let mut round = 0u64;
                b.iter(|| {
                    round += 1;
                    let txn = t(round);
                    for key in microcycle_keys(items, round) {
                        black_box(lm.acquire(txn, key, LockMode::Exclusive));
                    }
                    lm.release_all(txn).len()
                });
            });
        }
        g.bench_function(format!("lock_microcycle/seed_baseline/k={items}"), |b| {
            let mut lm = SeedLockManager::default();
            let mut round = 0u64;
            b.iter(|| {
                round += 1;
                let txn = t(round);
                for key in microcycle_keys(items, round) {
                    black_box(lm.acquire(txn, key, LockMode::Exclusive));
                }
                lm.release_all(txn);
            });
        });
    }
    g.finish();
}

fn bench_certification(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    for &items in &KEYSPACES {
        for (label, dense) in [("dense", true), ("sparse", false)] {
            let ks = if dense {
                Keyspace::dense(items)
            } else {
                Keyspace::sparse(items)
            };
            g.bench_function(format!("certify/{label}/k={items}"), |b| {
                let mut cert = Certifier::with_keyspace(ks);
                let mut round = 0u64;
                b.iter(|| {
                    round += 1;
                    let keys = microcycle_keys(items, round);
                    let reads: Vec<(Key, u64)> =
                        keys.iter().map(|&k| (k, cert.version_of(k))).collect();
                    let ws = WriteSet {
                        txn: t(round),
                        writes: keys
                            .iter()
                            .map(|&k| WriteRecord {
                                key: k,
                                value: Value(round as i64),
                                version: 0,
                            })
                            .collect(),
                    };
                    black_box(cert.certify(&reads, &ws).is_commit())
                });
            });
        }
    }
    g.finish();
}

fn bench_deadlock_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    // A contended Detect-policy table: 16 holders, each with a queued
    // conflicting waiter (no cycle), plus graph queries every iteration.
    g.bench_function("find_deadlock/contended_no_cycle", |b| {
        let mut lm = LockManager::with_keyspace(DeadlockPolicy::Detect, Keyspace::dense(64));
        for i in 0..16u64 {
            lm.acquire(t(i + 1), Key(i), LockMode::Exclusive);
            lm.acquire(t(i + 17), Key(i), LockMode::Exclusive);
        }
        b.iter(|| black_box(lm.find_deadlock().is_none()));
    });
    // The idle fast path: no waiters anywhere, the check must be free.
    g.bench_function("find_deadlock/idle", |b| {
        let mut lm = LockManager::with_keyspace(DeadlockPolicy::Detect, Keyspace::dense(64));
        for i in 0..16u64 {
            lm.acquire(t(i + 1), Key(i), LockMode::Exclusive);
        }
        b.iter(|| black_box(lm.find_deadlock().is_none()));
    });
    g.finish();
}

fn bench_history_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("db_kernel");
    g.sample_size(20);
    // 1000 committed single-site transactions over 64 keys; the check
    // reads the incrementally maintained graph instead of re-scanning
    // the 2000-op history each call.
    g.bench_function("history_1sr_check/1k_txns", |b| {
        let mut h = ReplicatedHistory::new();
        for i in 0..1000u64 {
            let txn = t(i + 1);
            h.record(0, txn, Key(i % 64), AccessKind::Write);
            h.record(0, txn, Key((i + 17) % 64), AccessKind::Read);
            h.mark_committed(txn);
        }
        let mut flushed = ReplicatedHistory::new();
        flushed.merge(&h); // merge integrates the queued ops once
        b.iter(|| black_box(flushed.check_one_copy_serializable().is_ok()));
    });
    // The closed-loop oracle's layer: 3 sites apply 4000 committed
    // 4-op transactions (half reads) over Zipf(0.8)-hot keys in the same
    // order; each iteration merges the per-site histories and checks 1SR,
    // so it pays for building the serialization graph, not just reading it.
    g.bench_function("history_merge_check/hot_key", |b| {
        let zipf = Zipf::new(1024, 0.8);
        let mut rng = SmallRng::seed_from_u64(13);
        let mut sites: Vec<ReplicatedHistory> = (0..3).map(|_| ReplicatedHistory::new()).collect();
        for i in 0..4000u64 {
            let txn = t(i + 1);
            for _ in 0..4 {
                let key = Key(zipf.sample(&mut rng));
                let kind = if rng.gen::<bool>() {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                for (site, h) in sites.iter_mut().enumerate() {
                    h.record(site as u32, txn, key, kind);
                }
            }
            for h in &mut sites {
                h.mark_committed(txn);
            }
        }
        b.iter(|| {
            let mut merged = ReplicatedHistory::new();
            for h in &sites {
                merged.merge(h);
            }
            black_box(merged.check_one_copy_serializable().is_ok())
        });
    });
    g.finish();
}

fn report_p10(c: &mut Criterion) {
    let _ = c;
    println!(
        "{}",
        render(
            "P10 — kernel scaling (3 replicas, technique × keyspace × clients)",
            &kernel_table(&[64, 1024], &[4])
        )
    );
}

criterion_group!(
    benches,
    report_p10,
    bench_lock_microcycle,
    bench_certification,
    bench_deadlock_check,
    bench_history_check
);
criterion_main!(benches);
