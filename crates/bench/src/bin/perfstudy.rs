//! The performance study the paper promised, in one command:
//!
//! ```sh
//! cargo run --release --bin perfstudy -- [--threads N] [--json PATH] [--json-only]
//! ```
//!
//! Prints every table (P1–P7 including the P5b availability study,
//! A2–A5); EXPERIMENTS.md records a reference output with the
//! paper-predicted shapes annotated. Tables are computed through the
//! parallel sweep engine (`repl_bench::sweep`), so `--threads N` (or
//! the `REPL_SWEEP_THREADS` environment variable) fans the run matrix
//! across cores without changing a single printed number — each cell
//! is an isolated, seed-keyed, single-threaded simulation.
//!
//! `--json PATH` additionally writes a machine-readable benchmark
//! summary (the `BENCH_PR10.json` artifact): for every technique, the
//! P1/P2/P3 study cells are re-swept with per-cell wall clocks, and
//! throughput / p50 / p99 / messages-per-txn are reported from the
//! canonical 3-replica, 4-client cell, followed by the P8 batching,
//! P9 recovery, P10 kernel and P12 disaster sections (P10 with
//! wall-clock lock microcycles: dense vs sparse vs the seed baseline),
//! the P13 open-loop scale section (aggregated arrivals up to a
//! million clients, streaming-histogram latencies, events/sec), the
//! P15 elasticity section (every technique scaling 3 → 7 → 3 mid-run:
//! online-join times, transfer volume, traffic disturbance, silent-loss
//! gate) and the P16 sharding section (shards × cross-shard ratio with
//! the weak-scaling gate and the S=1 identity check). `--json-only`
//! skips the tables (CI smoke mode); `--p8-only` / `--p9-only` /
//! `--p10-only` / `--p12-only` / `--p13-only` / `--p15-only` /
//! `--p16-only` print just that study's table.

use std::time::Instant;

use repl_bench::sweep::{run_sweep, CellResult, SweepCell};
use repl_bench::*;
use repl_core::protocols::common::AbcastImpl;
use repl_core::{RunConfig, Technique};

struct Args {
    threads: Option<usize>,
    json: Option<String>,
    json_only: bool,
    p8_only: bool,
    p9_only: bool,
    p10_only: bool,
    p12_only: bool,
    p13_only: bool,
    p15_only: bool,
    p16_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: None,
        json: None,
        json_only: false,
        p8_only: false,
        p9_only: false,
        p10_only: false,
        p12_only: false,
        p13_only: false,
        p15_only: false,
        p16_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
                args.threads = Some(n);
            }
            "--json" => {
                args.json = Some(it.next().unwrap_or_else(|| usage("--json needs a path")));
            }
            "--json-only" => args.json_only = true,
            "--p8-only" => args.p8_only = true,
            "--p9-only" => args.p9_only = true,
            "--p10-only" => args.p10_only = true,
            "--p12-only" => args.p12_only = true,
            "--p13-only" => args.p13_only = true,
            "--p15-only" => args.p15_only = true,
            "--p16-only" => args.p16_only = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: perfstudy [--threads N] [--json PATH] [--json-only] \
         [--p8-only] [--p9-only] [--p10-only] [--p12-only] [--p13-only] \
         [--p15-only] [--p16-only]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// The batching windows (in ticks) swept by the P8 study and the JSON
/// artifact. 0 is the unbatched baseline; 250 is sub-round-trip; 1000
/// spans several LAN round trips.
const P8_WINDOWS: [u64; 3] = [0, 250, 1_000];

/// The closed-loop client counts swept by the P8 study: window
/// amortization scales with how many submissions share a window, so the
/// same window is measured from light load to high concurrency.
const P8_CLIENTS: [u32; 3] = [4, 16, 48];

/// The outage lengths (in ticks) swept by the P9 recovery study. Both
/// land while clients are still active, so the rejoined replica always
/// sees post-recovery traffic; the long outage misses roughly a third
/// of the run.
const P9_DOWNTIMES: [u64; 2] = [15_000, 40_000];

/// The update fractions swept by the P9 study: catch-up volume (and so
/// MTTR and the transfer strategy) scales with how much state churned
/// while the victim was down.
const P9_WRITE_RATIOS: [f64; 2] = [0.2, 1.0];

/// The keyspace sizes swept by the P10 kernel scaling study: small
/// enough to fit a cache line's worth of lock slots, the dense sweet
/// spot, and large enough that hashed tables start paying for resizes.
const P10_KEYSPACES: [u64; 3] = [64, 1024, 65536];

/// The client counts swept by the P10 study (light and heavy load).
const P10_CLIENTS: [u32; 2] = [4, 16];

/// The durable-tier upload lags (in ticks) swept by the P12 disaster
/// study. 0 is the synchronous tier (nothing acknowledged can be lost);
/// 2 000 leaves a couple of rounds of commits in flight when the
/// disaster hits; 20 000 leaves essentially everything since the start
/// of the run exposed.
const P12_UPLOAD_LAGS: [u64; 3] = [0, 2_000, 20_000];

/// The techniques printed by the P13 open-loop scale table: an
/// ABCAST-ordered state machine, the eager primary, and the cheapest
/// lazy protocol — three points on the coordination-cost spectrum.
const P13_TECHNIQUES: [Technique; 3] = [
    Technique::Active,
    Technique::EagerPrimary,
    Technique::LazyUpdateEverywhere,
];

/// The virtual client populations printed by the P13 table.
const P13_CLIENTS: [u32; 2] = [1_000, 100_000];

/// The total offered rates (ops/s across the population) printed by the
/// P13 table.
const P13_RATES: [u64; 2] = [100_000, 200_000];

/// The techniques the P13 JSON section sweeps to the million-client
/// ceiling.
const P13_JSON_TECHNIQUES: [Technique; 2] = [Technique::Active, Technique::LazyUpdateEverywhere];

/// The populations the P13 JSON section sweeps: 10^3, 10^5, 10^6.
const P13_JSON_CLIENTS: [u32; 3] = [1_000, 100_000, 1_000_000];

/// Total offered load of the P13 JSON cells, ops/s.
const P13_JSON_RATE: u64 = 200_000;

/// Microcycle rounds per backing for the P10 JSON wall-clock section.
const P10_MICROCYCLE_ROUNDS: u64 = 20_000;

/// Fewer rounds for the seed baseline at large keyspaces: its
/// `release_all` scans the whole table, so full-round counts would take
/// minutes at 64k keys. Per-transaction times are reported, so the
/// round counts need not match.
const P10_SEED_ROUNDS_LARGE: u64 = 2_000;

fn timed_table(title: &str, f: impl FnOnce() -> Vec<Row>) {
    let start = Instant::now();
    let rows = f();
    let wall = start.elapsed();
    println!("{}[{:.2}s]\n", render(title, &rows), wall.as_secs_f64());
}

/// The per-technique slice of the P1/P2/P3 study matrices, with the
/// exact seeds and workloads the printed tables use.
fn technique_cells(technique: Technique) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for n in [2u32, 4, 8, 16] {
        cells.push(SweepCell::new(
            format!("{}/p1/n={n}", technique.name()),
            RunConfig::new(technique)
                .with_servers(n)
                .with_clients(2)
                .with_seed(101)
                .with_trace(false)
                .with_workload(update_workload(12)),
        ));
    }
    for c in [1u32, 2, 4, 8, 16] {
        cells.push(SweepCell::new(
            format!("{}/p2/c={c}", technique.name()),
            RunConfig::new(technique)
                .with_servers(3)
                .with_clients(c)
                .with_seed(103)
                .with_trace(false)
                .with_workload(update_workload(10)),
        ));
    }
    for n in [2u32, 4, 8, 16] {
        cells.push(SweepCell::new(
            format!("{}/p3/n={n}", technique.name()),
            RunConfig::new(technique)
                .with_servers(n)
                .with_clients(2)
                .with_seed(107)
                .with_trace(false)
                .with_workload(update_workload(80)),
        ));
    }
    cells
}

/// Renders the P8 batching section of the JSON artifact: per
/// (technique, abcast, clients) series over the window axis, with the
/// total-message and coordination-message reduction each series achieves
/// against its own window-0 baseline. Total messages carry the fixed
/// client traffic (one invoke + one reply per answering replica), so the
/// headline amortization claim is made on coordination (server↔server)
/// messages — the share an ordering layer can actually batch.
fn batching_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = batching_cells(&P8_CLIENTS, &P8_WINDOWS);
    let sweep: Vec<SweepCell> = cells
        .iter()
        .map(|c| {
            let impl_name = match c.abcast {
                Some(AbcastImpl::Sequencer) => "seq",
                Some(AbcastImpl::Consensus) => "cons",
                None => "none",
            };
            SweepCell::new(
                format!(
                    "{}/p8/{impl_name}/c={}/w={}",
                    c.technique.name(),
                    c.clients,
                    c.window
                ),
                c.cfg.clone(),
            )
        })
        .collect();
    let results = run_sweep(&sweep, threads);
    let high_clients = *P8_CLIENTS.iter().max().expect("client axis nonempty");

    let mut s = String::new();
    let _ = writeln!(s, "  \"batching\": {{");
    let _ = writeln!(s, "    \"servers\": 3,");
    let _ = writeln!(
        s,
        "    \"clients\": [{}],",
        P8_CLIENTS
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "    \"high_concurrency_clients\": {high_clients},");
    let _ = writeln!(
        s,
        "    \"windows_ticks\": [{}],",
        P8_WINDOWS
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "    \"series\": [");
    // Cells arrive grouped: windows.len() consecutive cells per
    // (technique, abcast, clients) series, the window axis innermost.
    let per_series = P8_WINDOWS.len();
    let n_series = cells.len() / per_series;
    let mut msg_2x_series = 0u32;
    // Techniques with a >=2x coordination-message reduction at the
    // high-concurrency client count (any abcast implementation).
    let mut coord_2x_techniques: Vec<&'static str> = Vec::new();
    for i in 0..n_series {
        let group = &cells[i * per_series..(i + 1) * per_series];
        let reports: Vec<_> = results[i * per_series..(i + 1) * per_series]
            .iter()
            .map(|c| {
                c.result
                    .as_ref()
                    .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", c.label))
            })
            .collect();
        let head = &group[0];
        let impl_json = match head.abcast {
            Some(AbcastImpl::Sequencer) => "\"sequencer\"",
            Some(AbcastImpl::Consensus) => "\"consensus\"",
            None => "null",
        };
        let base_msgs = reports[0].messages_per_op();
        let base_coord = reports[0].coordination_messages_per_op();
        let best = |f: &dyn Fn(&repl_core::RunReport) -> f64, base: f64| {
            reports
                .iter()
                .skip(1)
                .map(|r| base / f(r).max(f64::MIN_POSITIVE))
                .fold(0.0f64, f64::max)
        };
        let msg_reduction = best(&|r| r.messages_per_op(), base_msgs);
        let coord_reduction = best(&|r| r.coordination_messages_per_op(), base_coord);
        if head.abcast.is_some() && msg_reduction >= 2.0 {
            msg_2x_series += 1;
        }
        if head.abcast.is_some()
            && head.clients == high_clients
            && coord_reduction >= 2.0
            && !coord_2x_techniques.contains(&head.technique.name())
        {
            coord_2x_techniques.push(head.technique.name());
        }
        let _ = writeln!(s, "      {{");
        let _ = writeln!(s, "        \"technique\": \"{}\",", head.technique.name());
        let _ = writeln!(s, "        \"abcast\": {impl_json},");
        let _ = writeln!(s, "        \"clients\": {},", head.clients);
        let _ = writeln!(s, "        \"points\": [");
        for (j, (cell, report)) in group.iter().zip(&reports).enumerate() {
            let mut lat = report.latencies.clone();
            let p50 = lat.percentile(0.5).ticks();
            let p99 = lat.percentile(0.99).ticks();
            let _ = writeln!(
                s,
                "          {{\"window\": {}, \"throughput_ops_per_s\": {:.1}, \
                 \"p50_response_ticks\": {p50}, \"p99_response_ticks\": {p99}, \
                 \"messages_per_txn\": {:.2}, \"coord_messages_per_txn\": {:.2}}}{}",
                cell.window,
                report.throughput(),
                report.messages_per_op(),
                report.coordination_messages_per_op(),
                if j + 1 < group.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "        ],");
        let _ = writeln!(s, "        \"msg_reduction_best\": {msg_reduction:.2},");
        let _ = writeln!(s, "        \"coord_reduction_best\": {coord_reduction:.2}");
        let _ = writeln!(s, "      }}{}", if i + 1 < n_series { "," } else { "" });
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"abcast_series_with_2x_msg_reduction\": {msg_2x_series},"
    );
    let _ = writeln!(
        s,
        "    \"abcast_techniques_with_2x_coord_reduction\": [{}]",
        coord_2x_techniques
            .iter()
            .map(|t| format!("\"{t}\""))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  }}");
    s
}

/// Renders the P9 recovery section of the JSON artifact: per
/// (technique, outage, write ratio) cell, the faulted run's MTTR,
/// catch-up bytes, transfer-strategy counts and the throughput dip
/// against the fault-free baseline, plus two summary keys the artifact
/// check gates on: every technique recovered (finite MTTR everywhere)
/// and both transfer strategies were actually selected somewhere.
fn recovery_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = recovery_cells(&P9_DOWNTIMES, &P9_WRITE_RATIOS);
    let mut sweep = Vec::with_capacity(cells.len() * 2);
    for c in &cells {
        let stem = format!(
            "{}/p9/d={}/wr={:.1}",
            c.technique.name(),
            c.downtime,
            c.write_ratio
        );
        sweep.push(SweepCell::new(stem.clone(), c.faulted.clone()));
        sweep.push(SweepCell::new(format!("{stem}/base"), c.baseline.clone()));
    }
    let results = run_sweep(&sweep, threads);
    let report_of = |i: usize| {
        results[i]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", results[i].label))
    };

    let mut techniques_without_mttr: Vec<&'static str> = Vec::new();
    let mut suffix_cells = 0u32;
    let mut snapshot_cells = 0u32;
    let mut s = String::new();
    let _ = writeln!(s, "  \"recovery\": {{");
    let _ = writeln!(s, "    \"servers\": 3,");
    let _ = writeln!(s, "    \"victim\": {RECOVERY_VICTIM},");
    let _ = writeln!(s, "    \"crash_at_ticks\": {RECOVERY_CRASH_AT},");
    let _ = writeln!(
        s,
        "    \"downtimes_ticks\": [{}],",
        P9_DOWNTIMES
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        s,
        "    \"write_ratios\": [{}],",
        P9_WRITE_RATIOS
            .iter()
            .map(|w| format!("{w:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "    \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let faulted = report_of(2 * i);
        let baseline = report_of(2 * i + 1);
        let a = &faulted.availability;
        let mttr = match a.mttr_ticks() {
            Some(t) => t.to_string(),
            None => "null".into(),
        };
        if a.mttr_ticks().is_none() && !techniques_without_mttr.contains(&cell.technique.name()) {
            techniques_without_mttr.push(cell.technique.name());
        }
        let suffix: u64 = a.recoveries.iter().map(|r| r.log_suffix_transfers).sum();
        let snap: u64 = a.recoveries.iter().map(|r| r.snapshot_transfers).sum();
        suffix_cells += (suffix > 0) as u32;
        snapshot_cells += (snap > 0) as u32;
        let dip = baseline.throughput() / faulted.throughput().max(f64::MIN_POSITIVE);
        let _ = writeln!(
            s,
            "      {{\"technique\": \"{}\", \"downtime_ticks\": {}, \"write_ratio\": {:.1}, \
             \"mttr_ticks\": {mttr}, \"transfer_bytes\": {}, \"log_suffix_transfers\": {suffix}, \
             \"snapshot_transfers\": {snap}, \"throughput_ops_per_s\": {:.1}, \
             \"baseline_throughput_ops_per_s\": {:.1}, \"throughput_dip\": {dip:.2}, \
             \"client_retries\": {}, \"unanswered\": {}}}{}",
            cell.technique.name(),
            cell.downtime,
            cell.write_ratio,
            a.transfer_bytes(),
            faulted.throughput(),
            baseline.throughput(),
            faulted.client_retries,
            faulted.ops_unanswered,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"all_techniques_recovered\": {},",
        techniques_without_mttr.is_empty()
    );
    let _ = writeln!(s, "    \"cells_using_log_suffix\": {suffix_cells},");
    let _ = writeln!(s, "    \"cells_using_snapshot\": {snapshot_cells},");
    let _ = writeln!(
        s,
        "    \"both_strategies_selected\": {}",
        suffix_cells > 0 && snapshot_cells > 0
    );
    let _ = writeln!(s, "  }}");
    s
}

/// Renders the P10 kernel section of the JSON artifact: per
/// (technique, keyspace, clients) cell the simulator-deterministic
/// throughput / latency / message-cost numbers, then the wall-clock
/// lock microcycle (dense vs sparse vs the seed baseline) at each
/// keyspace with the dense-over-seed speedup, plus the gate key the
/// artifact check reads: dense at least 1.3x the seed baseline at a
/// keyspace of 1k or more.
fn kernel_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = kernel_cells(&P10_KEYSPACES, &P10_CLIENTS);
    let sweep: Vec<SweepCell> = cells
        .iter()
        .map(|c| {
            SweepCell::new(
                format!(
                    "{}/p10/k={}/c={}",
                    c.technique.name(),
                    c.keyspace,
                    c.clients
                ),
                c.cfg.clone(),
            )
        })
        .collect();
    let results = run_sweep(&sweep, threads);

    let mut s = String::new();
    let _ = writeln!(s, "  \"kernel\": {{");
    let _ = writeln!(s, "    \"servers\": 3,");
    let _ = writeln!(
        s,
        "    \"keyspaces\": [{}],",
        P10_KEYSPACES
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        s,
        "    \"clients\": [{}],",
        P10_CLIENTS
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "    \"cells\": [");
    for (i, (cell, result)) in cells.iter().zip(&results).enumerate() {
        let report = result
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", result.label));
        let mut lat = report.latencies.clone();
        let p50 = lat.percentile(0.5).ticks();
        let p99 = lat.percentile(0.99).ticks();
        let _ = writeln!(
            s,
            "      {{\"technique\": \"{}\", \"keyspace\": {}, \"clients\": {}, \
             \"throughput_ops_per_s\": {:.1}, \"p50_response_ticks\": {p50}, \
             \"p99_response_ticks\": {p99}, \"messages_per_txn\": {:.2}, \
             \"server_aborts\": {}}}{}",
            cell.technique.name(),
            cell.keyspace,
            cell.clients,
            report.throughput(),
            report.messages_per_op(),
            report.server_aborts,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"lock_microcycle\": [");
    let mut gate = true;
    for (i, &items) in P10_KEYSPACES.iter().enumerate() {
        let rounds = P10_MICROCYCLE_ROUNDS;
        let seed_rounds = if items >= 10_000 {
            P10_SEED_ROUNDS_LARGE
        } else {
            rounds
        };
        let per_txn = |secs: f64, rounds: u64| secs / rounds as f64 * 1e9;
        let dense_ns = per_txn(lock_microcycle_secs(items, true, rounds), rounds);
        let sparse_ns = per_txn(lock_microcycle_secs(items, false, rounds), rounds);
        let seed_ns = per_txn(seed_lock_microcycle_secs(items, seed_rounds), seed_rounds);
        let speedup = seed_ns / dense_ns.max(f64::MIN_POSITIVE);
        if items >= 1_000 && speedup < 1.3 {
            gate = false;
        }
        let _ = writeln!(
            s,
            "      {{\"keyspace\": {items}, \"rounds\": {rounds}, \
             \"seed_rounds\": {seed_rounds}, \"dense_ns_per_txn\": {dense_ns:.1}, \
             \"sparse_ns_per_txn\": {sparse_ns:.1}, \"seed_ns_per_txn\": {seed_ns:.1}, \
             \"dense_speedup_vs_seed\": {speedup:.2}}}{}",
            if i + 1 < P10_KEYSPACES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"dense_30pct_faster_than_seed_at_1k\": {gate}");
    let _ = writeln!(s, "  }}");
    s
}

/// Renders the P12 disaster section of the JSON artifact: per
/// (technique, upload lag) cell the realised data-loss window, restore
/// volume/deafness, rejoin MTTR and the no-silent-loss verdict, plus
/// the summary keys the artifact check gates on: every wiped replica
/// restored (finite MTTR everywhere), zero loss at lag 0, the loss
/// monotone in the lag per technique, and no silent loss anywhere.
fn disaster_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = disaster_cells(&P12_UPLOAD_LAGS);
    let mut sweep = Vec::with_capacity(cells.len() * 2);
    for c in &cells {
        let stem = format!("{}/p12/lag={}", c.technique.name(), c.upload_lag);
        sweep.push(SweepCell::new(stem.clone(), c.faulted.clone()));
        sweep.push(SweepCell::new(format!("{stem}/base"), c.baseline.clone()));
    }
    let results = run_sweep(&sweep, threads);
    let report_of = |i: usize| {
        results[i]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", results[i].label))
    };

    let mut all_restored = true;
    let mut loss_zero_at_lag0 = true;
    let mut loss_monotone = true;
    let mut silent_losses = 0u64;
    // Per-technique loss over the lag axis (cells arrive grouped with
    // the lag axis innermost).
    let per_series = P12_UPLOAD_LAGS.len();
    let mut s = String::new();
    let _ = writeln!(s, "  \"disaster\": {{");
    let _ = writeln!(s, "    \"servers\": 3,");
    let _ = writeln!(s, "    \"victim\": {DISASTER_VICTIM},");
    let _ = writeln!(s, "    \"volume_loss_at_ticks\": {DISASTER_AT},");
    let _ = writeln!(s, "    \"downtime_ticks\": {DISASTER_DOWNTIME},");
    let _ = writeln!(
        s,
        "    \"upload_lags_ticks\": [{}],",
        P12_UPLOAD_LAGS
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "    \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let faulted = report_of(2 * i);
        let baseline = report_of(2 * i + 1);
        let d = &faulted.durability;
        let a = &faulted.availability;
        let mttr = match a.mttr_ticks() {
            Some(t) => t.to_string(),
            None => "null".into(),
        };
        if d.restores == 0 || a.mttr_ticks().is_none() {
            all_restored = false;
        }
        if cell.upload_lag == 0 && d.lost_commits > 0 {
            loss_zero_at_lag0 = false;
        }
        if i % per_series > 0 {
            let prev = report_of(2 * (i - 1)).durability.lost_commits;
            if d.lost_commits < prev {
                loss_monotone = false;
            }
        }
        let silent = faulted
            .check_no_silent_loss()
            .map_or_else(|v| v.len(), |()| 0);
        silent_losses += silent as u64;
        let dip = baseline.throughput() / faulted.throughput().max(f64::MIN_POSITIVE);
        let _ = writeln!(
            s,
            "      {{\"technique\": \"{}\", \"upload_lag_ticks\": {}, \
             \"volume_wipes\": {}, \"lost_commits\": {}, \"restores\": {}, \
             \"restore_bytes\": {}, \"restore_deaf_ticks\": {}, \"mttr_ticks\": {mttr}, \
             \"upload_puts\": {}, \"upload_bytes\": {}, \"upload_cost\": {}, \
             \"frames_sealed\": {}, \"silent_losses\": {silent}, \
             \"throughput_dip\": {dip:.2}, \"unanswered\": {}}}{}",
            cell.technique.name(),
            cell.upload_lag,
            d.volume_wipes,
            d.lost_commits,
            d.restores,
            d.restore_bytes,
            d.restore_ticks,
            d.upload_puts,
            d.upload_bytes,
            d.upload_cost,
            d.frames_sealed,
            faulted.ops_unanswered,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"all_replicas_restored\": {all_restored},");
    let _ = writeln!(s, "    \"loss_zero_at_lag0\": {loss_zero_at_lag0},");
    let _ = writeln!(s, "    \"loss_monotone_in_lag\": {loss_monotone},");
    let _ = writeln!(s, "    \"silent_losses\": {silent_losses}");
    let _ = writeln!(s, "  }}");
    s
}

/// The worst throughput dip any P15 cell may show: the 3 → 7 → 3 run
/// must stay within this factor of its static 3-replica baseline —
/// membership churn is allowed to disturb traffic, not to halve it and
/// more.
const P15_DIP_GATE: f64 = 2.0;

/// Renders the P15 elasticity section of the JSON artifact: per
/// technique, the elastic 3 → 7 → 3 run's joiner accounting (mean join
/// time, transfer bytes, joins completed), the traffic disturbance
/// (worst request→response gap vs the static baseline's, throughput
/// dip) and the steady-state peak/initial throughput ratio, plus the
/// gate keys the artifact check reads: every joiner completed its
/// online join, no acked update was silently lost across any drain, no
/// client was left unanswered, and the throughput dip stayed under
/// [`P15_DIP_GATE`].
fn elasticity_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = elasticity_cells();
    let mut sweep = Vec::with_capacity(cells.len() * 3);
    for c in &cells {
        let stem = format!("{}/p15", c.technique.name());
        sweep.push(SweepCell::new(stem.clone(), c.elastic.clone()));
        sweep.push(SweepCell::new(format!("{stem}/base"), c.baseline.clone()));
        sweep.push(SweepCell::new(format!("{stem}/peak"), c.peak.clone()));
    }
    let results = run_sweep(&sweep, threads);
    let report_of = |i: usize| {
        results[i]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", results[i].label))
    };

    let mut all_joined = true;
    let mut silent_losses = 0u64;
    let mut unanswered = 0u64;
    let mut worst_dip = 0.0f64;
    let mut s = String::new();
    let _ = writeln!(s, "  \"elasticity\": {{");
    let _ = writeln!(s, "    \"initial_servers\": {P15_INITIAL},");
    let _ = writeln!(s, "    \"peak_servers\": {P15_PEAK},");
    let _ = writeln!(s, "    \"joins\": 4,");
    let _ = writeln!(s, "    \"drains\": 4,");
    let _ = writeln!(s, "    \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let elastic = report_of(3 * i);
        let baseline = report_of(3 * i + 1);
        let peak = report_of(3 * i + 2);
        let (join_mean, xfer, joined) = joiner_accounting(elastic);
        if joined != 4 {
            all_joined = false;
        }
        let join = match join_mean {
            Some(t) => t.to_string(),
            None => "null".into(),
        };
        let silent = elastic
            .check_no_silent_loss()
            .map_or_else(|v| v.len(), |()| 0);
        silent_losses += silent as u64;
        unanswered += elastic.ops_unanswered;
        let dip = baseline.throughput() / elastic.throughput().max(f64::MIN_POSITIVE);
        worst_dip = worst_dip.max(dip);
        let steady_thru = peak.throughput() / baseline.throughput().max(f64::MIN_POSITIVE);
        let steady_lat = peak.latencies.mean().ticks() as f64
            / (baseline.latencies.mean().ticks() as f64).max(f64::MIN_POSITIVE);
        let _ = writeln!(
            s,
            "      {{\"technique\": \"{}\", \"joins_completed\": {joined}, \
             \"join_ticks_mean\": {join}, \"transfer_bytes\": {xfer}, \
             \"worst_gap_ticks\": {}, \"baseline_worst_gap_ticks\": {}, \
             \"throughput_ops_per_s\": {:.1}, \"baseline_throughput_ops_per_s\": {:.1}, \
             \"throughput_dip\": {dip:.2}, \"steady_throughput_peak_over_initial\": {steady_thru:.2}, \
             \"steady_latency_peak_over_initial\": {steady_lat:.2}, \
             \"silent_losses\": {silent}, \"unanswered\": {}}}{}",
            cell.technique.name(),
            elastic.availability.worst_gap().ticks(),
            baseline.availability.worst_gap().ticks(),
            elastic.throughput(),
            baseline.throughput(),
            elastic.ops_unanswered,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(s, "    \"all_joiners_completed\": {all_joined},");
    let _ = writeln!(s, "    \"silent_losses\": {silent_losses},");
    let _ = writeln!(s, "    \"unanswered\": {unanswered},");
    let _ = writeln!(s, "    \"throughput_dip_gate\": {P15_DIP_GATE:.1},");
    let _ = writeln!(s, "    \"worst_throughput_dip\": {worst_dip:.2},");
    let _ = writeln!(
        s,
        "    \"throughput_dip_bounded\": {}",
        worst_dip <= P15_DIP_GATE
    );
    let _ = writeln!(s, "  }}");
    s
}

/// Aggregate-throughput factor every 16-shard, ratio-0 cell is measured
/// against (its own technique's single-group baseline). Per-group load
/// is constant, so an ideal split reaches 16×; 4× is the floor below
/// which sharding is not buying real horizontal scale.
const P16_SPEEDUP_GATE: f64 = 4.0;

/// How many techniques must clear [`P16_SPEEDUP_GATE`] for the scaling
/// gate to pass.
const P16_GATE_TECHNIQUES: usize = 3;

/// Renders the P16 sharding section of the JSON artifact: per
/// (technique, shard count, cross-shard ratio) cell, aggregate
/// throughput and its ratio to the single-group baseline, shard-local
/// vs cross-shard op counts and latencies, and the oracles. Gate keys:
/// at 16 shards / 0% cross-shard, at least [`P16_GATE_TECHNIQUES`]
/// techniques reach [`P16_SPEEDUP_GATE`]× their S=1 cell; every cell's
/// merged history stays 1SR, converges and answers everything; and an
/// explicit `with_shards(1)` run is byte-identical (digest and trace
/// hash) to one that never mentions sharding.
fn sharding_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = sharding_cells();
    let mut sweep: Vec<SweepCell> = cells
        .iter()
        .map(|c| SweepCell::new(sharding_cell_label(c), c.cfg.clone()))
        .collect();
    // The S=1 identity pair, appended so it rides the same sweep: an
    // explicit one-shard config against one that never touched the
    // sharding knobs, traces on.
    let ident_technique = Technique::EagerUpdateEverywhereLocking;
    let ident_base = RunConfig::new(ident_technique)
        .with_clients(P16_CLIENTS_PER_SHARD)
        .with_seed(59)
        .with_trace(true)
        .with_workload(
            repl_workload::WorkloadSpec::default()
                .with_items(256)
                .with_read_ratio(0.0)
                .with_ops_per_txn(2)
                .with_txns_per_client(8)
                .with_think_time(repl_sim::SimDuration::ZERO),
        );
    sweep.push(SweepCell::new("identity/flat", ident_base.clone()));
    sweep.push(SweepCell::new("identity/s1", {
        let mut c = ident_base;
        c.workload = c.workload.with_shards(1).with_cross_shard_ratio(0.0);
        c
    }));
    let results = run_sweep(&sweep, threads);
    let report_of = |i: usize| {
        results[i]
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", results[i].label))
    };

    let mut base = std::collections::HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        if cell.shards == 1 && cell.cross_ratio == 0.0 {
            base.insert(cell.technique, report_of(i).throughput());
        }
    }

    let mut serializable_all = true;
    let mut converged_all = true;
    let mut unanswered = 0u64;
    let mut gate_met = 0usize;
    let mut s = String::new();
    let _ = writeln!(s, "  \"sharding\": {{");
    let _ = writeln!(s, "    \"servers_per_group\": 3,");
    let _ = writeln!(s, "    \"clients_per_group\": {P16_CLIENTS_PER_SHARD},");
    let _ = writeln!(s, "    \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        let report = report_of(i);
        let speedup = report.throughput() / base[&cell.technique].max(f64::MIN_POSITIVE);
        if cell.shards == 16 && cell.cross_ratio == 0.0 && speedup >= P16_SPEEDUP_GATE {
            gate_met += 1;
        }
        let serializable = report.check_one_copy_serializable().is_ok();
        serializable_all &= serializable;
        converged_all &= report.converged();
        unanswered += report.ops_unanswered;
        let cross_lat = if report.sharding.cross_shard_ops > 0 {
            report.sharding.cross_latency.mean().ticks().to_string()
        } else {
            "null".into()
        };
        // S=1 cells run the unsharded path; their latencies live in the
        // plain per-run stats, not the sharding split.
        let single_lat = if report.sharding.sharded() {
            report.sharding.single_latency.mean()
        } else {
            report.latencies.mean()
        };
        let _ = writeln!(
            s,
            "      {{\"technique\": \"{}\", \"shards\": {}, \"cross_ratio\": {:.2}, \
             \"servers\": {}, \"clients\": {}, \
             \"throughput_ops_per_s\": {:.1}, \"speedup_vs_one_group\": {speedup:.2}, \
             \"single_shard_ops\": {}, \"cross_shard_ops\": {}, \
             \"single_latency_mean_ticks\": {}, \"cross_latency_mean_ticks\": {cross_lat}, \
             \"messages_per_txn\": {:.2}, \"serializable\": {serializable}, \
             \"converged\": {}, \"unanswered\": {}}}{}",
            cell.technique.name(),
            cell.shards,
            cell.cross_ratio,
            report.servers,
            cell.cfg.clients,
            report.throughput(),
            report.sharding.single_shard_ops,
            report.sharding.cross_shard_ops,
            single_lat.ticks(),
            report.messages_per_op(),
            report.converged(),
            report.ops_unanswered,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let flat = report_of(cells.len());
    let s1 = report_of(cells.len() + 1);
    let one_shard_identical =
        flat.digest() == s1.digest() && flat.trace_hash == s1.trace_hash && !s1.sharding.sharded();
    let _ = writeln!(s, "    \"speedup_gate\": {P16_SPEEDUP_GATE:.1},");
    let _ = writeln!(s, "    \"gate_shards\": 16,");
    let _ = writeln!(s, "    \"techniques_meeting_gate\": {gate_met},");
    let _ = writeln!(
        s,
        "    \"scaling_gate_met\": {},",
        gate_met >= P16_GATE_TECHNIQUES
    );
    let _ = writeln!(s, "    \"one_shard_identical\": {one_shard_identical},");
    let _ = writeln!(s, "    \"serializable_all\": {serializable_all},");
    let _ = writeln!(s, "    \"converged_all\": {converged_all},");
    let _ = writeln!(s, "    \"unanswered\": {unanswered}");
    let _ = writeln!(s, "  }}");
    s
}

/// Peak resident set of this process in KiB, read from
/// `/proc/self/status` (0 where the file is unavailable). Process-wide,
/// so it bounds the *whole* study up to the point it is read — the
/// honest ceiling for "a million clients fit in memory".
fn vm_hwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Renders the P13 open-loop section of the JSON artifact: per
/// (technique, population) cell at a fixed total offered load, the
/// events processed (and events/sec of wall clock), streaming-histogram
/// latency percentiles with their bounded relative error, and the
/// constant-memory evidence: histogram bytes, peak in-flight operations,
/// and the process's peak RSS. The gate key `max_clients_sustained`
/// reports the largest population that drained its whole budget with
/// nothing unanswered.
fn open_loop_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let cells = open_loop_scale_cells(&P13_JSON_TECHNIQUES, &P13_JSON_CLIENTS, &[P13_JSON_RATE]);
    let sweep: Vec<SweepCell> = cells
        .iter()
        .map(|c| {
            SweepCell::new(
                format!("{}/p13/c={}", c.technique.name(), c.clients),
                c.cfg.clone(),
            )
        })
        .collect();
    let results = run_sweep(&sweep, threads);

    let mut max_clients_sustained = 0u32;
    let mut s = String::new();
    let _ = writeln!(s, "  \"open_loop\": {{");
    let _ = writeln!(s, "    \"servers\": 3,");
    let _ = writeln!(s, "    \"total_rate_ops_per_s\": {P13_JSON_RATE},");
    let _ = writeln!(
        s,
        "    \"clients\": [{}],",
        P13_JSON_CLIENTS
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "    \"cells\": [");
    for (i, (cell, result)) in cells.iter().zip(&results).enumerate() {
        let report = result
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", result.label));
        let hist = report
            .latency_hist
            .as_ref()
            .expect("aggregated runs stream a histogram");
        let wall = result.wall.as_secs_f64();
        let events_per_s = report.messages.events_processed as f64 / wall.max(1e-9);
        if report.ops_unanswered == 0 && report.ops_completed > 0 {
            max_clients_sustained = max_clients_sustained.max(cell.clients);
        }
        let _ = writeln!(
            s,
            "      {{\"technique\": \"{}\", \"clients\": {}, \"ops_completed\": {}, \
             \"unanswered\": {}, \"events_processed\": {}, \"events_per_sec_wall\": {:.0}, \
             \"p50_response_ticks\": {}, \"p99_response_ticks\": {}, \
             \"peak_outstanding\": {}, \"hist_bytes\": {}, \"cell_wall_ms\": {:.1}}}{}",
            cell.technique.name(),
            cell.clients,
            report.ops_completed,
            report.ops_unanswered,
            report.messages.events_processed,
            events_per_s,
            hist.percentile(0.50).ticks(),
            hist.percentile(0.99).ticks(),
            report.peak_outstanding,
            hist.memory_bytes(),
            wall * 1e3,
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"histogram_max_relative_error\": {:.6},",
        repl_sim::LatencyHistogram::MAX_RELATIVE_ERROR
    );
    let _ = writeln!(s, "    \"process_peak_rss_kib\": {},", vm_hwm_kib());
    let _ = writeln!(s, "    \"max_clients_sustained\": {max_clients_sustained}");
    let _ = writeln!(s, "  }}");
    s
}

/// Runs the benchmark matrix and renders `BENCH_PR10.json`.
fn bench_json(threads: usize) -> String {
    use std::fmt::Write as _;
    let techniques = study_techniques();
    let mut cells = Vec::new();
    let mut spans = Vec::new(); // (technique, start, len) into `cells`
    for &technique in &techniques {
        let mine = technique_cells(technique);
        spans.push((technique, cells.len(), mine.len()));
        cells.extend(mine);
    }
    let start = Instant::now();
    let results = run_sweep(&cells, threads);
    let total_wall = start.elapsed();

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"bench_pr10/v1\",");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(
        s,
        "  \"total_wall_ms\": {:.1},",
        total_wall.as_secs_f64() * 1e3
    );
    let _ = writeln!(s, "  \"cells_per_technique\": {},", spans[0].2);
    let _ = writeln!(s, "  \"techniques\": [");
    for (i, &(technique, start, len)) in spans.iter().enumerate() {
        let slice: &[CellResult] = &results[start..start + len];
        let study_wall_ms: f64 = slice.iter().map(|c| c.wall.as_secs_f64() * 1e3).sum();
        // Canonical metrics cell: P2 at 3 replicas / 4 clients.
        let canonical = slice
            .iter()
            .find(|c| c.label.ends_with("/p2/c=4"))
            .expect("canonical cell present");
        let report = canonical
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("cell `{}` failed: {e}", canonical.label));
        let mut lat = report.latencies.clone();
        let p50 = lat.percentile(0.5).ticks();
        let p99 = lat.percentile(0.99).ticks();
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"technique\": \"{}\",", technique.name());
        let _ = writeln!(
            s,
            "      \"throughput_ops_per_s\": {:.1},",
            report.throughput()
        );
        let _ = writeln!(s, "      \"p50_response_ticks\": {p50},");
        let _ = writeln!(s, "      \"p99_response_ticks\": {p99},");
        let _ = writeln!(
            s,
            "      \"messages_per_txn\": {:.2},",
            report.messages_per_op()
        );
        let _ = writeln!(s, "      \"study_wall_ms\": {study_wall_ms:.1}");
        let _ = writeln!(s, "    }}{}", if i + 1 < spans.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  ],");
    s.push_str(&batching_json(threads));
    // batching_json ends its object without a trailing comma; splice one
    // in before appending the recovery section.
    let end = s.trim_end().len();
    s.truncate(end);
    s.push_str(",\n");
    s.push_str(&recovery_json(threads));
    let end = s.trim_end().len();
    s.truncate(end);
    s.push_str(",\n");
    s.push_str(&kernel_json(threads));
    let end = s.trim_end().len();
    s.truncate(end);
    s.push_str(",\n");
    s.push_str(&disaster_json(threads));
    let end = s.trim_end().len();
    s.truncate(end);
    s.push_str(",\n");
    s.push_str(&open_loop_json(threads));
    let end = s.trim_end().len();
    s.truncate(end);
    s.push_str(",\n");
    s.push_str(&elasticity_json(threads));
    let end = s.trim_end().len();
    s.truncate(end);
    s.push_str(",\n");
    s.push_str(&sharding_json(threads));
    let _ = writeln!(s, "}}");
    s
}

fn main() {
    let args = parse_args();
    let threads = match args.threads {
        Some(n) => {
            // Route the table sweeps (which consult the environment)
            // through the same knob.
            std::env::set_var("REPL_SWEEP_THREADS", n.to_string());
            n
        }
        None => repl_bench::sweep::default_threads(),
    };

    if args.p8_only
        || args.p9_only
        || args.p10_only
        || args.p12_only
        || args.p13_only
        || args.p15_only
        || args.p16_only
    {
        if args.p8_only {
            timed_table(
                "P8 — end-to-end batching (3 replicas, clients × window in ticks)",
                || batching_table(&P8_CLIENTS, &P8_WINDOWS),
            );
        }
        if args.p9_only {
            timed_table(
                "P9 — crash recovery (3 replicas, outage × write ratio, MTTR and catch-up)",
                || recovery_table(&P9_DOWNTIMES, &P9_WRITE_RATIOS),
            );
        }
        if args.p10_only {
            timed_table(
                "P10 — kernel scaling (3 replicas, technique × keyspace × clients)",
                || kernel_table(&P10_KEYSPACES, &P10_CLIENTS),
            );
        }
        if args.p12_only {
            timed_table(
                "P12 — disaster recovery over the durable tier (3 replicas, technique × upload lag)",
                || disaster_table(&P12_UPLOAD_LAGS),
            );
        }
        if args.p13_only {
            timed_table(
                "P13 — open-loop scale (3 replicas, technique × clients × total offered rate)",
                || open_loop_scale_table(&P13_TECHNIQUES, &P13_CLIENTS, &P13_RATES),
            );
        }
        if args.p15_only {
            timed_table(
                "P15 — elasticity (3→7→3 mid-run per technique: join time, disturbance, steady gain)",
                elasticity_table,
            );
        }
        if args.p16_only {
            timed_table(
                "P16 — sharding (shards × cross-shard ratio, constant per-group load)",
                sharding_table,
            );
        }
        if let Some(path) = &args.json {
            let json = bench_json(threads);
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            println!("wrote benchmark summary to {path}");
        }
        return;
    }

    if !args.json_only {
        println!(
            "Performance study of the replication techniques of Wiesmann et al. \
             (ICDCS 2000)\nunits: t = virtual ticks (≈ µs at the LAN profile); \
             deterministic, seed-fixed runs\nsweep threads: {threads}\n"
        );
        let total = Instant::now();
        let degrees = [2, 4, 8, 16];
        timed_table("P1 — mean response time vs replication degree", || {
            response_time_table(&degrees)
        });
        timed_table("P2 — throughput vs clients (3 replicas)", || {
            throughput_table(&[1, 2, 4, 8, 16])
        });
        timed_table(
            "P3 — messages per operation vs replication degree",
            || message_cost_table(&degrees),
        );
        timed_table(
            "P4 — conflicts vs access skew (4 clients, 32 items, rmw txns)",
            || conflicts_table(&[0.0, 0.5, 1.0, 1.5]),
        );
        timed_table(
            "P5 — failover: rank-0 server crashes mid-run (5 replicas)",
            failover_table,
        );
        timed_table(
            "P5b — availability under a primary crash (failover latency, unavailability windows)",
            availability_table,
        );
        timed_table("P6 — eager vs lazy: latency against staleness", || {
            eager_vs_lazy_table(&[1_000, 10_000, 50_000])
        });
        timed_table(
            "P7 — open-loop saturation (4 Poisson clients, 3 replicas)",
            || open_loop_table(&[2_000, 500, 120, 40]),
        );
        timed_table("A2 — ABCAST implementations", abcast_impls_table);
        timed_table("A3 — deadlock handling under contention", || {
            deadlock_table(&[0.5, 1.0, 1.5])
        });
        timed_table(
            "A4 — lock scope: all-site reads vs read-one/write-all (§5.4.1)",
            || lock_scope_table(&[0.2, 0.5, 0.9]),
        );
        timed_table(
            "A5 — lazy reconciliation: LWW vs ABCAST order (§4.6)",
            reconcile_table,
        );
        timed_table(
            "P8 — end-to-end batching (3 replicas, clients × window in ticks)",
            || batching_table(&P8_CLIENTS, &P8_WINDOWS),
        );
        timed_table(
            "P9 — crash recovery (3 replicas, outage × write ratio, MTTR and catch-up)",
            || recovery_table(&P9_DOWNTIMES, &P9_WRITE_RATIOS),
        );
        timed_table(
            "P10 — kernel scaling (3 replicas, technique × keyspace × clients)",
            || kernel_table(&P10_KEYSPACES, &P10_CLIENTS),
        );
        timed_table(
            "P12 — disaster recovery over the durable tier (3 replicas, technique × upload lag)",
            || disaster_table(&P12_UPLOAD_LAGS),
        );
        timed_table(
            "P13 — open-loop scale (3 replicas, technique × clients × total offered rate)",
            || open_loop_scale_table(&P13_TECHNIQUES, &P13_CLIENTS, &P13_RATES),
        );
        timed_table(
            "P15 — elasticity (3→7→3 mid-run per technique: join time, disturbance, steady gain)",
            elasticity_table,
        );
        timed_table(
            "P16 — sharding (shards × cross-shard ratio, constant per-group load)",
            sharding_table,
        );
        println!(
            "full study wall clock: {:.2}s ({threads} sweep threads)",
            total.elapsed().as_secs_f64()
        );
    }

    if let Some(path) = &args.json {
        let json = bench_json(threads);
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote benchmark summary to {path}");
    } else if args.json_only {
        usage("--json-only requires --json PATH");
    }
}
