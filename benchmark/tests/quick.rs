//! Runs the benchmark binary in `--quick` mode (small inputs, two passes,
//! every result still checked) and pins the contract: the names, the
//! agreement of traced and untraced passes, the span coverage, and that a
//! wrong expected value is counted as a failed operation, not a panic.

use std::path::PathBuf;
use std::process::Command;

use spice_bench::json::{parse, Value};

const WORKLOADS: [&str; 6] = [
    "seq-long",
    "spice4-clean",
    "spice4-conflict",
    "short-invocations",
    "native-2t",
    "farm-sweep",
];
const SIM_WORKLOADS: [&str; 4] = [
    "seq-long",
    "spice4-clean",
    "spice4-conflict",
    "short-invocations",
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

/// Runs the binary from the repo root; returns the parsed last stdout line.
fn run(args: &[&str]) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_spice-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("{args:?}: last line is not JSON ({e}): {last}"))
}

fn quick(workload: &str, trace: &str, extra: &[&str]) -> Value {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "0",
        "--trace",
        trace,
        "--quick",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn metric(result: &Value, name: &str) -> f64 {
    let value = result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .unwrap_or_else(|| panic!("metric {name} is missing"));
    match value {
        Value::Int(n) => *n as f64,
        Value::Float(f) => *f,
        other => panic!("metric {name} is not a number: {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn manifest() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_is_generated_from_the_tables_and_within_limits() {
    let output = Command::new(env!("CARGO_BIN_EXE_spice-benchmark"))
        .arg("manifest")
        .output()
        .expect("manifest subcommand runs");
    let committed = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&output.stdout),
        committed,
        "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);

    let doc = manifest();
    assert_eq!(names(doc.get("workloads").unwrap()), WORKLOADS);
    let mut all = names(doc.get("workloads").unwrap());
    all.extend(names(doc.get("end_to_end").unwrap()));
    all.extend(names(doc.get("per_layer").unwrap()));
    for name in &all {
        assert!(well_formed(name), "{name:?} is not a valid name");
    }
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used twice");
    for w in doc.get("workloads").unwrap().as_array().unwrap() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    for list in ["end_to_end", "per_layer"] {
        for m in doc.get(list).unwrap().as_array().unwrap() {
            let unit = m.get("unit").and_then(Value::as_str).unwrap();
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                "{unit}"
            );
        }
    }
    assert!(names(doc.get("end_to_end").unwrap()).contains(&"setup_s".to_string()));
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_checks_its_results() {
    let expected = names(manifest().get("end_to_end").unwrap());
    for workload in WORKLOADS {
        let result = quick(workload, "0", &[]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        assert_eq!(result.get("failed").and_then(Value::as_i64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(reported, expected, "{workload}");
        for name in &expected {
            assert!(metric(&result, name) > 0.0, "{workload}: {name} is 0");
        }
    }
}

#[test]
fn traced_passes_agree_with_untraced_ones_and_cover_the_pass() {
    let expected = names(manifest().get("per_layer").unwrap());
    for workload in WORKLOADS {
        let result = quick(workload, "1", &[]);
        // `correct` includes: every traced pass reproduced the untraced
        // passes' cycles and return values exactly.
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(true)),
            "{workload}"
        );
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("{workload}: no metrics object");
        };
        let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(reported, expected, "{workload}");
        let coverage = metric(&result, "bench.span_coverage_share");
        assert!(
            coverage >= 0.9,
            "{workload}: spans cover only {coverage} of the pass"
        );
        if SIM_WORKLOADS.contains(&workload) {
            assert!(metric(&result, "sim.cycles") > 0.0);
            assert!(metric(&result, "core.instantiate_share") > 0.0);
            assert_eq!(metric(&result, "runtime.run_invocation_ms"), 0.0);
        }
    }
    let spans = repo_root().join("benchmark/out/spans-short-invocations-seed0.json");
    let doc = parse(&std::fs::read_to_string(spans).unwrap()).expect("span file parses");
    assert!(!doc.get("spans").unwrap().as_array().unwrap().is_empty());
}

#[test]
fn a_wrong_expected_value_is_a_failed_operation_not_a_panic() {
    for (workload, trace) in [
        ("short-invocations", "0"),
        ("spice4-conflict", "1"),
        ("native-2t", "0"),
    ] {
        let result = quick(workload, trace, &["--inject-fault"]);
        assert_eq!(
            result.get("correct"),
            Some(&Value::Bool(false)),
            "{workload}"
        );
        let failed = result.get("failed").and_then(Value::as_i64).unwrap();
        let attempted = result.get("attempted").and_then(Value::as_i64).unwrap();
        assert!(
            failed > 0 && failed <= attempted,
            "{workload}: {failed} of {attempted}"
        );
    }
}
