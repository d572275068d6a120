//! Measured passes over a workload's cells: time, check and summarise.

use std::time::Instant;

use repl_core::{try_run, Guarantee, RunReport, Technique};
use repl_sim::{LatencyHistogram, LatencyStats};

use crate::spans::Tracer;
use crate::workloads::{Cell, Inputs};

/// The oracle verdicts of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// One-copy serializability of the merged history; `None` for a
    /// technique whose guarantee is `Weak` (not applied).
    pub one_sr: Option<bool>,
    /// Every replica (per group) ended in the same state.
    pub converged: bool,
    /// No acknowledged commit vanished without being claimed lost.
    pub no_silent_loss: bool,
}

impl Verdict {
    /// Failing (run, oracle) pairs.
    pub fn violations(&self) -> u64 {
        u64::from(self.one_sr == Some(false))
            + u64::from(!self.converged)
            + u64::from(!self.no_silent_loss)
    }
}

/// What one run of one cell computed: the digest, the counters the
/// per-layer metrics read, and the verdicts. Everything here is a
/// deterministic function of the cell's configuration.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The technique.
    pub technique: Technique,
    /// The run seed.
    pub run_seed: u64,
    /// `RunReport::digest()`.
    pub digest: u64,
    /// Oracle verdicts.
    pub verdict: Verdict,
    /// Operations answered (committed or aborted).
    pub answered: u64,
    /// Operations never answered.
    pub unanswered: u64,
    /// Operations answered with an abort.
    pub aborted: u64,
    /// Client re-submissions.
    pub retries: u64,
    /// Events the world processed.
    pub events: u64,
    /// Timers fired.
    pub timers: u64,
    /// Messages sent.
    pub msgs: u64,
    /// Server↔server messages sent.
    pub coord_msgs: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Wound-wait victims.
    pub wounds: u64,
    /// Server-side aborts.
    pub server_aborts: u64,
    /// Virtual duration of the run, ticks.
    pub duration_ticks: u64,
    /// Worst per-client unavailability window, ticks.
    pub worst_gap_ticks: u64,
    /// Latency samples (exact path) — empty on the aggregated engine.
    pub latencies: LatencyStats,
    /// Latency histogram (aggregated open-loop engine only).
    pub latency_hist: Option<LatencyHistogram>,
    /// Peak in-flight operations (aggregated engine).
    pub peak_outstanding: u64,
    /// Operations recorded in the merged history.
    pub history_ops: u64,
    /// Serialization-graph edges of the merged history.
    pub history_edges: u64,
    /// Committed transactions in the merged history.
    pub history_commits: u64,
    /// Failover latency, ticks (runs with a crash).
    pub failover_ticks: Option<u64>,
    /// Mean time to repair, ticks (runs with a recovery).
    pub mttr_ticks: Option<u64>,
    /// Recovery state-transfer bytes.
    pub transfer_bytes: u64,
    /// Answered single-shard / cross-shard operations (sharded runs).
    pub single_shard_ops: u64,
    /// Answered cross-shard operations (sharded runs).
    pub cross_shard_ops: u64,
    /// Single-shard latency samples (sharded runs).
    pub single_latency: LatencyStats,
    /// Cross-shard latency samples (sharded runs).
    pub cross_latency: LatencyStats,
}

impl CellResult {
    /// Summarises a report. Without `detail` the latency samples and the
    /// history's edge count are skipped: later passes only need what
    /// proves they repeat the first (the digest covers the rest).
    fn from_report(
        cell: &Cell,
        r: &RunReport,
        digest: u64,
        verdict: Verdict,
        detail: bool,
    ) -> Self {
        let samples = |s: &LatencyStats| {
            if detail {
                s.clone()
            } else {
                LatencyStats::new()
            }
        };
        CellResult {
            technique: cell.technique,
            run_seed: cell.run_seed,
            digest,
            verdict,
            answered: r.ops_completed,
            unanswered: r.ops_unanswered,
            aborted: r.ops_aborted,
            retries: r.client_retries,
            events: r.messages.events_processed,
            timers: r.messages.timers_fired,
            msgs: r.messages.messages_sent,
            coord_msgs: r.messages.coordination_messages,
            bytes: r.messages.bytes_sent,
            wounds: r.wounds,
            server_aborts: r.server_aborts,
            duration_ticks: r.duration.ticks(),
            worst_gap_ticks: r.availability.worst_gap().ticks(),
            latencies: samples(&r.latencies),
            latency_hist: r.latency_hist.clone(),
            peak_outstanding: r.peak_outstanding,
            history_ops: r.history.len() as u64,
            history_edges: if detail {
                r.history.conflict_edges().len() as u64
            } else {
                0
            },
            history_commits: r.history.committed().len() as u64,
            failover_ticks: r.availability.failover_latency.map(|d| d.ticks()),
            mttr_ticks: r.availability.mttr_ticks(),
            transfer_bytes: r.availability.transfer_bytes(),
            single_shard_ops: r.sharding.single_shard_ops,
            cross_shard_ops: r.sharding.cross_shard_ops,
            single_latency: samples(&r.sharding.single_latency),
            cross_latency: samples(&r.sharding.cross_latency),
        }
    }

    /// Operations the clients submitted: answered plus never answered.
    pub fn attempted(&self) -> u64 {
        self.answered + self.unanswered
    }

    /// Median latency, ticks.
    pub fn p50(&self) -> u64 {
        self.percentile(0.5)
    }

    /// 99th-percentile latency, ticks.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    fn percentile(&self, q: f64) -> u64 {
        match &self.latency_hist {
            Some(h) if self.latencies.is_empty() => h.percentile(q).ticks(),
            _ => self.latencies.clone().percentile(q).ticks(),
        }
    }

    /// Answered operations per simulated second.
    pub fn ops_per_sim_s(&self) -> f64 {
        self.answered as f64 * 1e6 / self.duration_ticks.max(1) as f64
    }
}

/// One measured pass: host time of the timed work and what it computed.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall-clock seconds of `try_run`, the oracles, the digest and
    /// dropping the report, summed over the cells.
    pub wall_seconds: f64,
    /// The same work's on-CPU seconds (this thread), where the host
    /// exposes them.
    pub cpu_seconds: Option<f64>,
    /// Host seconds of each cell's share of that work (on-CPU where
    /// available), in run order.
    pub cell_seconds: Vec<f64>,
    /// Per cell, in run order.
    pub cells: Vec<CellResult>,
}

impl Pass {
    /// Answered operations over all cells.
    pub fn answered(&self) -> u64 {
        self.cells.iter().map(|c| c.answered).sum()
    }

    /// Host seconds of the timed work: on-CPU time where available —
    /// the work is serial and does no I/O, so this is its wall time
    /// minus the time other tenants of a shared host took the CPU —
    /// wall-clock time otherwise.
    pub fn seconds(&self) -> f64 {
        self.cpu_seconds.unwrap_or(self.wall_seconds)
    }

    /// Simulated operations answered per host second.
    pub fn host_ops_per_s(&self) -> f64 {
        self.answered() as f64 / self.seconds()
    }
}

/// On-CPU time of the calling thread in nanoseconds, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`; `None` off Linux or if the
/// call fails.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (from the C library the standard library
    // already links) writes one `struct timespec` — two 64-bit fields on
    // every 64-bit Linux target, which `Timespec` mirrors with
    // `repr(C)` — through a pointer to a live, writable local.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return None;
    }
    let ns = u64::try_from(ts.tv_sec).ok()? * 1_000_000_000 + u64::try_from(ts.tv_nsec).ok()?;
    Some(ns)
}

/// On-CPU time is read only on 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Wall and on-CPU time accumulated over several timed stretches.
#[derive(Debug, Default)]
pub(crate) struct Clock {
    wall: f64,
    cpu: Option<f64>,
    started: Option<(Instant, Option<u64>)>,
}

impl Clock {
    /// Starts a stretch.
    pub fn start(&mut self) {
        self.started = Some((Instant::now(), thread_cpu_ns()));
    }

    /// Ends the current stretch and adds it to the totals.
    ///
    /// # Panics
    ///
    /// Panics if no stretch was started.
    pub fn stop(&mut self) {
        let (wall0, cpu0) = self.started.take().expect("clock started");
        let cpu1 = thread_cpu_ns();
        self.wall += wall0.elapsed().as_secs_f64();
        self.cpu = match (cpu0, cpu1) {
            (Some(a), Some(b)) => Some(self.cpu.unwrap_or(0.0) + b.saturating_sub(a) as f64 / 1e9),
            _ => None,
        };
    }

    /// Accumulated seconds: on-CPU where available, wall otherwise.
    pub fn seconds(&self) -> f64 {
        self.cpu.unwrap_or(self.wall)
    }
}

/// Runs every cell once. The clock covers exactly the study work every
/// cell does — `try_run`, the oracles, the digest and dropping the
/// report; span recording (when `tracer` is on) adds its own cost to it,
/// which is the tracing overhead. Summarising the report into a
/// [`CellResult`] (with `detail` or without) is outside the clock.
///
/// # Errors
///
/// The first cell whose run fails, named with its technique and seed.
pub(crate) fn pass(inputs: &Inputs, tracer: &mut Tracer, detail: bool) -> Result<Pass, String> {
    let whole = tracer.begin("bench.pass", 0);
    let mut clock = Clock::default();
    let mut cells = Vec::with_capacity(inputs.cells.len());
    let mut cell_seconds = Vec::with_capacity(inputs.cells.len());
    for (i, cell) in inputs.cells.iter().enumerate() {
        let req = i as u32 + 1;
        let before = clock.seconds();
        clock.start();
        let span = tracer.begin("bench.cell", req);
        let report = tracer
            .time("core.try_run", req, || try_run(&cell.cfg))
            .map_err(|e| format!("{} seed {}: {e}", cell.technique, cell.run_seed))?;
        let one_sr = (cell.technique.info().guarantee != Guarantee::Weak).then(|| {
            tracer.time("db.history.check", req, || {
                report.check_one_copy_serializable().is_ok()
            })
        });
        let converged = tracer.time("oracle.converged", req, || report.converged());
        let no_silent_loss = tracer.time("oracle.no_silent_loss", req, || {
            report.check_no_silent_loss().is_ok()
        });
        let digest = tracer.time("report.digest", req, || report.digest());
        tracer.end(span);
        clock.stop();
        let verdict = Verdict {
            one_sr,
            converged,
            no_silent_loss,
        };
        cells.push(CellResult::from_report(
            cell, &report, digest, verdict, detail,
        ));
        clock.start();
        tracer.time("core.report_drop", req, || drop(report));
        clock.stop();
        cell_seconds.push(clock.seconds() - before);
    }
    tracer.end(whole);
    Ok(Pass {
        wall_seconds: clock.wall,
        cpu_seconds: clock.cpu,
        cell_seconds,
        cells,
    })
}

/// Answered operations per host second of a pass made of every cell's
/// fastest run: `answered` over the sum, across cells, of each cell's
/// least host seconds among `passes` (one [`Pass::cell_seconds`] each).
///
/// A cell's work is deterministic (its digest repeats), so its run time
/// varies only with what else the host is doing: on a shared host,
/// other tenants slow a run down by 20% or more for seconds at a time,
/// and never speed one up. The least time over many passes is the
/// cell's cost with the least of that interference. 0 without passes.
pub(crate) fn best_ops_per_s(passes: &[Vec<f64>], answered: u64) -> f64 {
    let Some(first) = passes.first() else {
        return 0.0;
    };
    let seconds: f64 = (0..first.len())
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum();
    answered as f64 / seconds
}

/// The middle value (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let Some(a) = thread_cpu_ns() else { return };
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let b = thread_cpu_ns().expect("readable once");
        assert!(b > a, "{x}");
    }

    #[test]
    fn best_ops_per_s_sums_each_cells_fastest_run() {
        let passes = vec![vec![2.0, 1.0], vec![1.0, 3.0], vec![4.0, 4.0]];
        assert_eq!(best_ops_per_s(&passes, 10), 5.0);
        assert_eq!(best_ops_per_s(&[], 10), 0.0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn violations_count_failing_oracles_only() {
        let v = Verdict {
            one_sr: None,
            converged: false,
            no_silent_loss: true,
        };
        assert_eq!(v.violations(), 1);
        let v = Verdict {
            one_sr: Some(false),
            converged: false,
            no_silent_loss: false,
        };
        assert_eq!(v.violations(), 3);
    }
}
