//! # repl-hostbench — the repository's host-time benchmark
//!
//! One seeded, serial, single-threaded benchmark of the replication
//! simulator. A run takes one workload and a seed, sets the workload up
//! (configurations plus generated inputs), then repeats *passes* — every
//! cell of the workload run once through `repl_core::try_run` and the
//! oracles — for a fixed number of host seconds. Throughput is taken
//! from each cell's fastest run over the passes; set-up time is a median.
//!
//! * Untraced runs (`--trace 0`) report the end-to-end metrics.
//! * Traced runs (`--trace 1`) alternate traced and untraced passes,
//!   record spans around each call into a layer, run the layer replay
//!   drivers, and report the per-layer metrics and the tracing overhead.
//!
//! Every pass must reproduce the first pass's `RunReport::digest()` for
//! every cell; a run that does not is reported as incorrect. Oracle
//! violations and unanswered operations are what the program computes:
//! they are counted and printed, never hidden, and never abort the run.
//! See `README.md` next to this crate for the workloads and predictions.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod measure;
pub mod output;
mod replay;
mod spans;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use repl_core::Technique;
use repl_sim::LatencyStats;

use measure::{best_ops_per_s, median, CellResult, Clock, Pass};
use output::{machine, metric_line, proc_status_kib, Metric};
use spans::Tracer;
use workloads::{setup, slug, Inputs, Size, Workload};

/// Set-up repeats per run; `setup_s` is their median. The first few are
/// slower (cold caches and allocator), so there are enough for the
/// median to land among the warm ones.
const SETUP_REPEATS: usize = 21;
/// Untraced passes after the first that every run makes at least,
/// however long they take.
const MIN_PASSES: usize = 3;
/// Traced passes a traced run makes at least.
const MIN_TRACED_PASSES: usize = 2;
/// Repeats of each layer replay; the reported figure is their median.
const REPLAY_REPEATS: usize = 3;
/// The end-to-end metrics a change is gated on (`BENCHMARK.json`). The
/// other two, `unanswered_frac` and `oracle_violations`, read 0 on a
/// healthy workload, so they are printed with the rest but carried in
/// the result line as `failed`/`attempted` and, on traced runs, as the
/// per-layer `client.unanswered_frac` and `oracle.violations`.
pub const GATED: [&str; 3] = ["host_ops_per_s", "peak_rss_mib", "setup_s"];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed.
    pub seed: u64,
    /// Host seconds to keep making passes for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// How much work one pass does.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every pass repeated the first pass's digests.
    pub correct: bool,
    /// Why `correct` is false.
    pub problems: Vec<String>,
    /// Operations the clients of the workload's cells submitted, each
    /// cell counted once: every later pass replays the first, checked by
    /// digest, so these counts depend on the seed alone, not on how many
    /// passes fitted into the run.
    pub attempted: u64,
    /// Of those, the operations never answered.
    pub failed: u64,
    /// The five end-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The first pass, with full per-cell detail.
    pub first: Pass,
    /// Human-readable report: header, verdicts, fingerprints, tables.
    pub text: String,
}

impl Outcome {
    /// The metrics the result line carries: every per-layer one on a
    /// traced run, the [`GATED`] end-to-end ones otherwise.
    pub fn result_metrics(&self) -> Vec<Metric> {
        if self.per_layer.is_empty() {
            self.end_to_end
                .iter()
                .filter(|m| GATED.contains(&m.name.as_str()))
                .cloned()
                .collect()
        } else {
            self.per_layer.clone()
        }
    }

    /// The named metric, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Per-name span totals of one pass, in nanoseconds.
type PassSpans = BTreeMap<String, u64>;

/// The span totals of the pass whose spans start at `mark`, plus
/// `core.run_s.<technique>`: the `core.try_run` spans of each technique's
/// cells (a span's request is its cell's index + 1).
fn pass_spans(tracer: &Tracer, mark: usize, inputs: &Inputs) -> PassSpans {
    let mut totals: PassSpans = tracer
        .totals(mark)
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.ns))
        .collect();
    for s in &tracer.spans()[mark..] {
        if s.name == "core.try_run" {
            let t = inputs.cells[s.request as usize - 1].technique;
            *totals.entry(format!("core.run_s.{}", slug(t))).or_default() += s.ns();
        }
    }
    totals
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// A configuration the validators reject, or a cell whose run fails.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(opts.trace);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "hostbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let _ = writeln!(text, "{}", machine());

    // Set-up, several times: the median is `setup_s`.
    let mut setup_times = Vec::new();
    let mut gen_times = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUP_REPEATS {
        let mark = tracer.len();
        let mut clock = Clock::default();
        clock.start();
        let s = tracer.begin("bench.setup", 0);
        let built = setup(opts.workload, opts.seed, opts.size, &mut tracer)?;
        tracer.end(s);
        clock.stop();
        setup_times.push(clock.seconds());
        if let Some(t) = tracer.totals(mark).get("workload.gen") {
            gen_times.push(t.ns as f64 / 1e9);
        }
        inputs = Some(built);
    }
    let mut inputs = inputs.expect("SETUP_REPEATS > 0");
    let setup_s = median(&setup_times);
    let offered = inputs.offered_ops();
    let _ = writeln!(
        text,
        "input: {} cells ({} x {} run seeds), {} ops offered per pass",
        inputs.cells.len(),
        opts.workload
            .techniques()
            .iter()
            .map(|t| slug(*t))
            .collect::<Vec<_>>()
            .join("+"),
        opts.size.subseeds,
        offered
    );
    if !opts.trace {
        // Untraced runs never read the streams again; free them so the
        // peak resident size is the program's, not the generator's.
        inputs.streams = Vec::new();
    }

    // Passes.
    let mut off = Tracer::new(false);
    let rss_before = proc_status_kib("VmRSS");
    let t_start = Instant::now();
    let first = measure::pass(&inputs, &mut off, true)?;
    let hwm_first = proc_status_kib("VmHWM");
    // The first pass is the warm-up: it fixes the digests and the peak
    // resident size, and its cold-start times are left out.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let (mut untraced_cells, mut traced_cells) = (Vec::new(), Vec::new());
    let mut traced_spans: Vec<PassSpans> = Vec::new();
    let mut problems = Vec::new();
    let mut n = 1usize;
    loop {
        let enough_time = t_start.elapsed().as_secs_f64() >= opts.seconds;
        let enough_untraced = untraced.len() >= MIN_PASSES;
        let enough_traced = !opts.trace || traced.len() >= MIN_TRACED_PASSES;
        if enough_time && enough_untraced && enough_traced {
            break;
        }
        // Traced runs alternate, starting with a traced pass.
        let trace_this = opts.trace && (n % 2 == 1);
        let p = if trace_this {
            let mark = tracer.len();
            let p = measure::pass(&inputs, &mut tracer, false)?;
            traced_spans.push(pass_spans(&tracer, mark, &inputs));
            traced.push(p.host_ops_per_s());
            traced_cells.push(p.cell_seconds.clone());
            p
        } else {
            let p = measure::pass(&inputs, &mut off, false)?;
            untraced.push(p.host_ops_per_s());
            untraced_cells.push(p.cell_seconds.clone());
            p
        };
        for (a, b) in first.cells.iter().zip(&p.cells) {
            if a.digest != b.digest {
                problems.push(format!(
                    "pass {n}: {} seed {} digest {:016x} != first pass {:016x}",
                    b.technique, b.run_seed, b.digest, a.digest
                ));
            }
        }
        n += 1;
    }
    let passes = n;

    // End-to-end metrics (always measured untraced).
    let answered = first.answered();
    let host_ops_per_s = best_ops_per_s(&untraced_cells, answered);
    let attempted: u64 = first.cells.iter().map(CellResult::attempted).sum();
    let failed: u64 = first.cells.iter().map(|c| c.unanswered).sum();
    let violations: u64 = first.cells.iter().map(|c| c.verdict.violations()).sum();
    let end_to_end = vec![
        Metric::new("host_ops_per_s", host_ops_per_s, "ops/s"),
        // Set-up and one pass are the workload once; later passes only
        // repeat it, and what they add is allocator drift, not the
        // program's footprint.
        Metric::new("peak_rss_mib", hwm_first as f64 / 1024.0, "MiB"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("unanswered_frac", ratio(failed, attempted), "ratio"),
        Metric::new("oracle_violations", violations as f64, "count"),
    ];

    verdict_table(&mut text, opts.workload, &first);
    fingerprint_table(&mut text, opts.workload, &first);
    let _ = writeln!(
        text,
        "passes: {passes} (1 warm-up, {} untraced, {} traced); {} answered of {} offered per pass",
        untraced.len(),
        traced.len(),
        answered,
        offered
    );
    let _ = writeln!(
        text,
        "clock: {}",
        if first.cpu_seconds.is_some() {
            "thread on-CPU time"
        } else {
            "wall (on-CPU time unavailable)"
        }
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        text,
        "warm-up host ops/s: {:.0}; untraced host ops/s per pass: {}",
        first.host_ops_per_s(),
        list(&untraced)
    );
    if opts.trace {
        let _ = writeln!(text, "traced host ops/s per pass: {}", list(&traced));
    }

    let mut per_layer = Vec::new();
    if opts.trace {
        let ctx = LayerCtx {
            opts,
            inputs: &inputs,
            first: &first,
            traced_spans: &traced_spans,
            gen_times: &gen_times,
            rss_growth_kib: hwm_first.saturating_sub(rss_before),
            untraced_ops_per_s: host_ops_per_s,
            traced_ops_per_s: best_ops_per_s(&traced_cells, answered),
        };
        per_layer = layer_metrics(&ctx, &mut tracer);
        span_table(&mut text, &tracer);
    }

    let correct = problems.is_empty();
    for p in &problems {
        let _ = writeln!(text, "problem: {p}");
    }
    let _ = writeln!(text, "end-to-end:");
    for m in &end_to_end {
        let _ = writeln!(text, "{}", metric_line(m));
    }
    if !per_layer.is_empty() {
        let _ = writeln!(text, "per-layer:");
        for m in &per_layer {
            let _ = writeln!(text, "{}", metric_line(m));
        }
    }
    Ok(Outcome {
        correct,
        problems,
        attempted,
        failed,
        end_to_end,
        per_layer,
        first,
        text,
    })
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn verdict_table(text: &mut String, w: Workload, first: &Pass) {
    let _ = writeln!(
        text,
        "verdicts (workload technique run_seed 1SR converged no-silent-loss unanswered):"
    );
    for c in &first.cells {
        let sr = match c.verdict.one_sr {
            None => "n/a",
            Some(true) => "ok",
            Some(false) => "FAIL",
        };
        let flag = |ok: bool| if ok { "ok" } else { "FAIL" };
        let _ = writeln!(
            text,
            "verdict {} {} {} {} {} {} {}",
            w.name(),
            slug(c.technique),
            c.run_seed,
            sr,
            flag(c.verdict.converged),
            flag(c.verdict.no_silent_loss),
            c.unanswered
        );
    }
}

fn fingerprint_table(text: &mut String, w: Workload, first: &Pass) {
    let _ = writeln!(
        text,
        "fingerprints (workload technique run_seed digest p50 p99 ops_per_sim_s worst_gap abort_frac):"
    );
    for c in &first.cells {
        let _ = writeln!(
            text,
            "digest {} {} {} {:016x} {} {} {:.3} {} {:.6}",
            w.name(),
            slug(c.technique),
            c.run_seed,
            c.digest,
            c.p50(),
            c.p99(),
            c.ops_per_sim_s(),
            c.worst_gap_ticks,
            ratio(c.aborted, c.answered)
        );
    }
}

fn span_table(text: &mut String, tracer: &Tracer) {
    let _ = writeln!(text, "spans (name count total_ms self_ms):");
    for (name, t) in tracer.totals(0) {
        let _ = writeln!(
            text,
            "span {name} {} {:.3} {:.3}",
            t.count,
            t.ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Everything the per-layer metrics are computed from.
struct LayerCtx<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    first: &'a Pass,
    traced_spans: &'a [PassSpans],
    gen_times: &'a [f64],
    rss_growth_kib: u64,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
}

impl LayerCtx<'_> {
    /// Median over traced passes of the per-pass total of span `name`,
    /// in seconds.
    fn span_s(&self, name: &str) -> f64 {
        let per_pass: Vec<f64> = self
            .traced_spans
            .iter()
            .map(|p| p.get(name).copied().unwrap_or(0) as f64 / 1e9)
            .collect();
        median(&per_pass)
    }
}

fn layer_metrics(ctx: &LayerCtx<'_>, tracer: &mut Tracer) -> Vec<Metric> {
    let cells = &ctx.first.cells;
    let sum = |f: fn(&CellResult) -> u64| cells.iter().map(f).sum::<u64>();
    let answered = sum(|c| c.answered);
    let per_op = |v: u64| ratio(v, answered);
    let events = sum(|c| c.events);
    let retries = sum(|c| c.retries);
    let mut m = Vec::new();

    // sim
    let run_s = ctx.span_s("core.try_run");
    m.push(Metric::new(
        "sim.events_per_op",
        per_op(events),
        "events/op",
    ));
    m.push(Metric::new(
        "sim.timers_per_op",
        per_op(sum(|c| c.timers)),
        "timers/op",
    ));
    m.push(Metric::new(
        "sim.ns_per_event",
        run_s * 1e9 / events.max(1) as f64,
        "ns",
    ));
    let (groups, group_size) = (
        ctx.inputs.cells[0].cfg.workload.shards,
        ctx.inputs.cells[0].cfg.servers,
    );
    let bare = replicate(|| {
        tracer.time("sim.bare_world", 0, || {
            replay::bare_world(ctx.opts.seed, groups, group_size, 300_000)
        })
    });
    m.push(Metric::new("sim.bare_ns_per_event", bare, "ns"));

    // net + gcs
    m.push(Metric::new(
        "net.msgs_per_op",
        per_op(sum(|c| c.msgs)),
        "msgs/op",
    ));
    m.push(Metric::new(
        "net.bytes_per_op",
        per_op(sum(|c| c.bytes)),
        "B/op",
    ));
    m.push(Metric::new(
        "gcs.coord_msgs_per_op",
        per_op(sum(|c| c.coord_msgs)),
        "msgs/op",
    ));
    let abcast = replicate(|| {
        tracer.time("gcs.abcast_replay", 0, || {
            replay::sequencer_abcast(ctx.opts.seed, group_size, 2_000)
        })
    });
    m.push(Metric::new("gcs.abcast_ns_per_delivery", abcast, "ns"));

    // core
    m.push(Metric::new("core.run_s", run_s, "s"));
    for t in Technique::ALL {
        let name = format!("core.run_s.{}", slug(t));
        let v = ctx.span_s(&name);
        m.push(Metric::new(name, v, "s"));
    }
    m.push(Metric::new(
        "core.peak_outstanding",
        cells.iter().map(|c| c.peak_outstanding).max().unwrap_or(0) as f64,
        "count",
    ));

    // client
    let attempted = sum(CellResult::attempted);
    m.push(Metric::new(
        "client.retries_per_op",
        per_op(retries),
        "retries/op",
    ));
    m.push(Metric::new(
        "client.useful_frac",
        ratio(answered, answered + retries),
        "ratio",
    ));
    m.push(Metric::new(
        "client.unanswered_frac",
        ratio(sum(|c| c.unanswered), attempted),
        "ratio",
    ));

    // shard
    let cross = sum(|c| c.cross_shard_ops);
    let single = sum(|c| c.single_shard_ops);
    let merged_p50 = |pick: fn(&CellResult) -> &LatencyStats| {
        let mut all = LatencyStats::new();
        for c in cells {
            all.merge(pick(c));
        }
        if all.is_empty() {
            0.0
        } else {
            all.percentile(0.5).ticks() as f64
        }
    };
    m.push(Metric::new(
        "shard.cross_frac",
        ratio(cross, cross + single),
        "ratio",
    ));
    m.push(Metric::new(
        "shard.cross_p50_ticks",
        merged_p50(|c| &c.cross_latency),
        "ticks",
    ));
    m.push(Metric::new(
        "shard.local_p50_ticks",
        merged_p50(|c| &c.single_latency),
        "ticks",
    ));

    // db
    let history_ops = sum(|c| c.history_ops);
    m.push(Metric::new("db.history.ops", history_ops as f64, "count"));
    m.push(Metric::new(
        "db.history.edges_per_commit",
        ratio(sum(|c| c.history_edges), sum(|c| c.history_commits)),
        "edges/txn",
    ));
    m.push(Metric::new(
        "db.history.check_s",
        ctx.span_s("db.history.check"),
        "s",
    ));
    let streams = ctx.inputs.streams.first().map_or(&[][..], Vec::as_slice);
    // Lean servers (the aggregated open-loop engine) keep no history,
    // so there is nothing of theirs to replay.
    let replay_s = if history_ops == 0 {
        0.0
    } else {
        replicate(|| {
            tracer.time("db.history_replay", 0, || {
                replay::history(streams, group_size)
            })
        })
    };
    m.push(Metric::new("db.history.replay_s", replay_s, "s"));
    let items = replay::key_bound(streams);
    let locks = replicate(|| {
        tracer.time("db.locks_replay", 0, || {
            replay::lock_manager(streams, items).ns_per_op
        })
    });
    m.push(Metric::new("db.locks.replay_ns_per_op", locks, "ns"));
    m.push(Metric::new(
        "db.wounds_per_op",
        per_op(sum(|c| c.wounds)),
        "1/op",
    ));
    m.push(Metric::new(
        "db.server_aborts_per_op",
        per_op(sum(|c| c.server_aborts)),
        "1/op",
    ));

    // recovery
    let mean_of = |pick: fn(&CellResult) -> Option<u64>| {
        let v: Vec<u64> = cells.iter().filter_map(pick).collect();
        ratio(v.iter().sum(), v.len() as u64)
    };
    m.push(Metric::new(
        "recovery.failover_ticks",
        mean_of(|c| c.failover_ticks),
        "ticks",
    ));
    m.push(Metric::new(
        "recovery.mttr_ticks",
        mean_of(|c| c.mttr_ticks),
        "ticks",
    ));
    m.push(Metric::new(
        "recovery.transfer_bytes",
        sum(|c| c.transfer_bytes) as f64,
        "B",
    ));

    // oracles and report
    m.push(Metric::new(
        "oracle.violations",
        cells.iter().map(|c| c.verdict.violations()).sum::<u64>() as f64,
        "count",
    ));
    m.push(Metric::new(
        "oracle.converged_s",
        ctx.span_s("oracle.converged"),
        "s",
    ));
    m.push(Metric::new(
        "oracle.no_silent_loss_s",
        ctx.span_s("oracle.no_silent_loss"),
        "s",
    ));
    m.push(Metric::new(
        "report.digest_s",
        ctx.span_s("report.digest"),
        "s",
    ));

    // workload, memory
    m.push(Metric::new("workload.gen_s", median(ctx.gen_times), "s"));
    m.push(Metric::new(
        "mem.rss_bytes_per_op",
        ratio(ctx.rss_growth_kib * 1024, answered),
        "B/op",
    ));

    // model outputs: pinned, not host costs
    let mut lat = LatencyStats::new();
    let mut hist: Option<repl_sim::LatencyHistogram> = None;
    for c in cells {
        lat.merge(&c.latencies);
        if let Some(h) = &c.latency_hist {
            hist.get_or_insert_with(repl_sim::LatencyHistogram::new)
                .merge(h);
        }
    }
    let pct = |q: f64, lat: &mut LatencyStats| match &hist {
        Some(h) if lat.is_empty() => h.percentile(q).ticks() as f64,
        _ if lat.is_empty() => 0.0,
        _ => lat.percentile(q).ticks() as f64,
    };
    m.push(Metric::new("model.p50_ticks", pct(0.5, &mut lat), "ticks"));
    m.push(Metric::new("model.p99_ticks", pct(0.99, &mut lat), "ticks"));
    let sim_s = sum(|c| c.duration_ticks) as f64 / 1e6;
    m.push(Metric::new(
        "model.ops_per_sim_s",
        answered as f64 / sim_s.max(1e-9),
        "ops/s",
    ));
    m.push(Metric::new(
        "model.worst_gap_ticks",
        cells.iter().map(|c| c.worst_gap_ticks).max().unwrap_or(0) as f64,
        "ticks",
    ));
    m.push(Metric::new(
        "model.abort_frac",
        ratio(sum(|c| c.aborted), answered),
        "ratio",
    ));

    // tracing overhead
    m.push(Metric::new(
        "trace.untraced_ops_per_s",
        ctx.untraced_ops_per_s,
        "ops/s",
    ));
    m.push(Metric::new(
        "trace.traced_ops_per_s",
        ctx.traced_ops_per_s,
        "ops/s",
    ));
    m.push(Metric::new(
        "trace.delta_ops_per_s",
        ctx.traced_ops_per_s - ctx.untraced_ops_per_s,
        "ops/s",
    ));
    m
}

/// The median of [`REPLAY_REPEATS`] runs of `f`.
fn replicate(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPLAY_REPEATS).map(|_| f()).collect();
    median(&v)
}
