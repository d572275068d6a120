//! Command line: `repl-hostbench --workload <name|all> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--workload all`
//! runs the four workloads one after another, each in a child process
//! of its own (so each peak resident size is that workload's alone), and
//! prefixes metric names with the workload.

use std::process::{Command, ExitCode};

use repl_hostbench::output::{parse_metric_line, result_json, Metric};
use repl_hostbench::workloads::{full_size, Workload};
use repl_hostbench::{run, Options};

const USAGE: &str =
    "usage: repl-hostbench --workload <open-active|closed-hot|sharded-xshard|outage-all|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_one(w: Workload, a: &Args) -> ExitCode {
    let opts = Options {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        size: full_size(w),
    };
    match run(&opts) {
        Ok(out) => {
            print!("{}", out.text);
            println!(
                "{}",
                result_json(
                    out.correct,
                    out.attempted,
                    out.failed,
                    &out.result_metrics()
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload in its own child process, one after another,
/// forwarding each report and merging the results.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("hostbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<Metric> = Vec::new();
    for w in Workload::ALL {
        let mut child_args = raw.to_vec();
        let pos = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed");
        child_args[pos + 1] = w.name().to_string();
        let out = match Command::new(&exe).args(&child_args).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("hostbench: cannot run {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            eprintln!("hostbench: {} failed ({})", w.name(), out.status);
            return ExitCode::FAILURE;
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in &lines {
            println!("{l}");
        }
        correct &= last.contains("\"correct\": true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\": "))
                .nth(1)
                .and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        // A traced child prints both sets; the result carries the set the
        // child's own result line carried.
        let in_result = |name: &str| last.contains(&format!("\"{name}\": {{"));
        for m in lines.iter().filter_map(|l| parse_metric_line(l)) {
            if in_result(&m.name) {
                metrics.push(Metric::new(
                    format!("{}.{}", w.name(), m.name),
                    m.value,
                    m.unit,
                ));
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    match Workload::parse(&args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("hostbench: unknown workload {}\n{USAGE}", args.workload);
            ExitCode::from(2)
        }
    }
}
