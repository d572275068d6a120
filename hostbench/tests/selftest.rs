//! Self-tests of the benchmark at reduced size: every declared metric is
//! emitted with a unit, what the program computes repeats at a seed and
//! changes with it, and span recording changes nothing it computes.

use repl_hostbench::workloads::{reduced_size, Workload};
use repl_hostbench::{run, Options, Outcome, GATED};

fn reduced(w: Workload, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        workload: w,
        seed,
        seconds: 0.01,
        trace,
        size: reduced_size(w),
    })
    .expect("reduced run succeeds")
}

/// The `"name"`s listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let end = section.find(']').expect("section closes");
    section[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

fn digests(o: &Outcome) -> Vec<u64> {
    o.first.cells.iter().map(|c| c.digest).collect()
}

fn model(o: &Outcome) -> Vec<(String, f64)> {
    o.per_layer
        .iter()
        .filter(|m| m.name.starts_with("model."))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn reduced_run_of_each_workload_emits_every_named_metric_with_a_unit() {
    let per_layer = declared("per_layer");
    let end_to_end = declared("end_to_end");
    assert_eq!(end_to_end, GATED, "gated metrics match BENCHMARK.json");
    for w in Workload::ALL {
        let o = reduced(w, 3, true);
        assert!(o.correct, "{}: {:?}", w.name(), o.problems);
        assert!(o.attempted >= 1);
        let names: Vec<&str> = o.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, per_layer, "{}: per-layer metrics", w.name());
        let e2e: Vec<&str> = o.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            e2e,
            [
                "host_ops_per_s",
                "peak_rss_mib",
                "setup_s",
                "unanswered_frac",
                "oracle_violations"
            ]
        );
        for m in o.end_to_end.iter().chain(&o.per_layer) {
            assert!(!m.unit.is_empty(), "{} has a unit", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        for name in GATED {
            assert!(
                o.metric(name).expect("gated metric") > 0.0,
                "{name} is never 0"
            );
        }
        let untraced = reduced(w, 3, false);
        let carried: Vec<String> = untraced
            .result_metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(carried, GATED);
    }
}

#[test]
fn model_outputs_and_digests_repeat_at_a_seed_and_differ_across_seeds() {
    for w in Workload::ALL {
        let a = reduced(w, 11, true);
        let b = reduced(w, 11, true);
        let c = reduced(w, 12, true);
        assert_eq!(
            digests(&a),
            digests(&b),
            "{}: same seed, same digests",
            w.name()
        );
        assert_eq!(
            model(&a),
            model(&b),
            "{}: same seed, same model outputs",
            w.name()
        );
        let (da, dc) = (digests(&a), digests(&c));
        assert!(
            da.iter().zip(&dc).all(|(x, y)| x != y),
            "{}: another seed changes every digest",
            w.name()
        );
        assert_ne!(
            model(&a),
            model(&c),
            "{}: another seed, other model outputs",
            w.name()
        );
    }
}

#[test]
fn span_recording_leaves_every_digest_unchanged() {
    for w in Workload::ALL {
        let traced = reduced(w, 5, true);
        let untraced = reduced(w, 5, false);
        assert_eq!(digests(&traced), digests(&untraced), "{}", w.name());
        assert!(traced
            .per_layer
            .iter()
            .any(|m| m.name == "core.run_s" && m.value > 0.0));
        assert!(untraced.per_layer.is_empty());
    }
}

#[test]
fn attempted_and_failed_depend_on_the_seed_not_on_the_passes() {
    for w in Workload::ALL {
        let short = reduced(w, 7, false);
        let long = run(&Options {
            workload: w,
            seed: 7,
            seconds: 0.5,
            trace: true,
            size: reduced_size(w),
        })
        .expect("reduced run succeeds");
        assert_eq!(
            (short.attempted, short.failed),
            (long.attempted, long.failed),
            "{}",
            w.name()
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let exe = env!("CARGO_BIN_EXE_repl-hostbench");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "closed-hot", "--seed", "x"][..],
        &["--workload", "closed-hot", "--trace", "2"][..],
        &["--seed", "1"][..],
    ] {
        let out = std::process::Command::new(exe)
            .args(args)
            .output()
            .expect("runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
