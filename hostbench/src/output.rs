//! Result formatting and the host facts a result is read against.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `host_ops_per_s`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ops/s`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (which JSON cannot hold) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The parseable line a metric is printed as: `metric <name> <value> <unit>`.
pub fn metric_line(m: &Metric) -> String {
    format!("metric {} {} {}", m.name, json_num(m.value), m.unit)
}

/// Parses a [`metric_line`].
pub fn parse_metric_line(line: &str) -> Option<Metric> {
    let mut it = line.split_whitespace();
    if it.next()? != "metric" {
        return None;
    }
    let name = it.next()?.to_string();
    let value = it.next()?.parse().ok()?;
    let unit = unit_of(it.next()?)?;
    Some(Metric { name, value, unit })
}

/// Every unit the benchmark prints, so parsed lines keep `'static` units.
const UNITS: [&str; 15] = [
    "ops/s",
    "MiB",
    "s",
    "ratio",
    "count",
    "ns",
    "ticks",
    "B",
    "B/op",
    "events/op",
    "timers/op",
    "msgs/op",
    "retries/op",
    "edges/txn",
    "1/op",
];

fn unit_of(s: &str) -> Option<&'static str> {
    UNITS.iter().copied().find(|u| *u == s)
}

/// A value from `/proc/self/status` in KiB (`VmRSS`, `VmHWM`); 0 where
/// the file is unavailable.
pub fn proc_status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The host facts a timing is read against.
pub fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "machine: nproc={nproc} cpu={} rustc={} profile={}",
        json_str(&cpu),
        json_str(env!("HOSTBENCH_RUSTC")),
        env!("HOSTBENCH_PROFILE")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys_in_order() {
        let j = result_json(true, 10, 1, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_lines_round_trip() {
        let m = Metric::new("net.bytes_per_op", 1234.5678901, "B/op");
        assert_eq!(parse_metric_line(&metric_line(&m)), Some(m));
        assert_eq!(parse_metric_line("metric x 1 furlongs"), None);
    }

    #[test]
    fn status_fields_parse() {
        assert!(proc_status_kib("VmRSS") > 0);
        assert!(proc_status_kib("VmHWM") >= proc_status_kib("VmRSS"));
    }
}
