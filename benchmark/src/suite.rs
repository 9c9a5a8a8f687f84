//! Every workload in one command, and the comparison of two such result
//! files — the tool a later change uses to show its claim and the absence
//! of a regression everywhere else.

use std::process::{Command, Stdio};

use spice_bench::json::{parse, string, Value};

use crate::defs::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::measure::quantile;
use crate::parsed;
use crate::run::OUT_DIR;

/// Runs one child process per measured run (a clean heap and its own
/// `VmHWM` each) and returns the result object it printed last.
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!("{workload}: run exited with {}", output.status));
    }
    let parsed = parse(&result).map_err(|e| format!("{workload}: no result object: {e}"))?;
    let correct = parsed.get("correct") == Some(&Value::Bool(true));
    Ok((result, correct))
}

pub fn run_all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed", 0)?;
    let runs: u64 = parsed(args, "--runs", 1)?;
    let seconds: u64 = parsed(args, "--seconds", RUN_SECONDS)?;
    let quick = args.iter().any(|a| a == "--quick");
    let out = parsed(args, "--out", format!("{OUT_DIR}/results.json"))?;

    let profile = crate::host::check_release_profile()?;
    let host = crate::host::fingerprint_json(&profile);
    let mut rows = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        // Untraced runs give the end-to-end metrics, each on its own seed;
        // one traced run on the first seed gives the per-layer metrics.
        for (trace, seed) in (0..runs).map(|i| (false, seed + i)).chain([(true, seed)]) {
            println!("{} seed {seed} trace {}", w.name, u8::from(trace));
            let (result, correct) = child(w.name, seed, seconds, trace, quick)?;
            all_correct &= correct;
            rows.push(format!(
                "    {{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {result}}}",
                string(w.name),
                u8::from(trace)
            ));
        }
    }
    let doc = format!(
        "{{\n  \"host\": {host},\n  \"seconds\": {seconds},\n  \"quick\": {quick},\n  \"runs\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, &doc).map_err(|e| format!("{out}: {e}"))?;
    print_table(&parse(&doc)?);
    println!("host {host}");
    println!("wrote {out}");
    Ok(all_correct)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// One run of a results file.
struct Run<'a> {
    workload: &'a str,
    seed: i64,
    trace: bool,
    result: &'a Value,
}

impl Run<'_> {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(number)
    }
}

fn runs(doc: &Value) -> Vec<Run<'_>> {
    doc.get("runs")
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| {
            Some(Run {
                workload: r.get("workload")?.as_str()?,
                seed: r.get("seed")?.as_i64()?,
                trace: r.get("trace")?.as_i64()? != 0,
                result: r.get("result")?,
            })
        })
        .collect()
}

/// Values of one end-to-end metric over a workload's untraced runs.
fn values(runs: &[Run<'_>], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.metric(metric))
        .collect()
}

/// Quartile distance as a share of the median, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them; 0 for fewer than two
/// values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // The "exclusive" method: position k(n+1)/4, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(3) - at(1)) / quantile(&v, 0.5)
}

fn print_table(doc: &Value) {
    let runs = runs(doc);
    println!("\nend-to-end metrics (median over untraced runs, quartile spread)");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let v = values(&runs, w.name, m.name);
            if !v.is_empty() {
                println!(
                    "{:<18} {:<12} {:>12.4} {:<3} spread {:>5.1}% over {} runs (bound {:.0}%)",
                    w.name,
                    m.name,
                    quantile(&v, 0.5),
                    m.unit,
                    spread(&v) * 100.0,
                    v.len(),
                    m.bound * 100.0
                );
            }
        }
    }
    println!("\nper-layer metrics (traced run; a layer idle on a workload reads 0)");
    let columns: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    println!(
        "columns: {}; then the end-to-end metric it should move",
        columns.join("  ")
    );
    for m in &PER_LAYER {
        let row: Vec<String> = WORKLOADS
            .iter()
            .map(|w| {
                runs.iter()
                    .find(|r| r.workload == w.name && r.trace)
                    .and_then(|r| r.metric(m.name))
                    .map_or("-".to_string(), |v| format!("{v:.4}"))
            })
            .collect();
        println!(
            "{:<36} {:<8} {}  -> {}",
            m.name,
            m.unit,
            row.join("  "),
            m.moves
        );
    }
    let failed: i64 = runs
        .iter()
        .filter_map(|r| r.result.get("failed").and_then(Value::as_i64))
        .sum();
    println!("\nfailed operations: {failed}");
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: A is the parent, B the change.
pub fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare PARENT.json CHANGE.json".to_string());
    };
    let (a, b) = (load(a)?, load(b)?);
    let (a_runs, b_runs) = (runs(&a), runs(&b));
    let mut regressed = false;
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "parent", "change", "ratio", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let pa = values(&a_runs, w.name, m.name);
            let ch = values(&b_runs, w.name, m.name);
            if pa.is_empty() || ch.is_empty() {
                continue;
            }
            let (parent, change) = (quantile(&pa, 0.5), quantile(&ch, 0.5));
            let worse = |x: f64, y: f64| match m.better {
                Better::Lower => x > y,
                Better::Higher => x < y,
            };
            let worse_by = match m.better {
                Better::Lower => (change - parent) / parent,
                Better::Higher => (parent - change) / parent,
            };
            let spread = spread(&pa).max(spread(&ch));
            let separated = ch.iter().all(|c| pa.iter().all(|p| worse(*p, *c)));
            let pairs = pa.iter().zip(&ch);
            let wins = pairs.clone().filter(|(p, c)| worse(**p, **c)).count();
            let ties = pairs.filter(|(p, c)| p == c).count();
            let verdict = if separated && worse_by < 0.0 {
                "improved"
            } else if spread > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                regressed = true;
                "regressed"
            } else if -worse_by > spread && wins * 10 >= (pa.len().min(ch.len()) - ties) * 9 {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{:<18} {:<12} {:>12.4} {:>12.4} {:>8.4} {:>6.1}% {:>6.1}%  {verdict}",
                w.name,
                m.name,
                parent,
                change,
                change / parent,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    println!("ratio = change median / parent median; spread = quartile distance / median, the wider side");

    // Simulated statistics repeat exactly for a seed, so traced runs of the
    // same (workload, seed) compare exactly.
    let mut compared = 0;
    let mut differing = 0;
    for ra in a_runs.iter().filter(|r| r.trace) {
        let Some(rb) = b_runs
            .iter()
            .find(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        compared += 1;
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (ra.metric(m.name), rb.metric(m.name));
            if va != vb {
                differing += 1;
                println!(
                    "simulated statistic differs: {} seed {} {} parent {va:?} change {vb:?}",
                    ra.workload, ra.seed, m.name
                );
            }
        }
    }
    println!(
        "exact simulated statistics: {differing} differ over {compared} traced run pairs \
         (a host-only change must leave every one identical)"
    );
    for (side, runs) in [("parent", &a_runs), ("change", &b_runs)] {
        let failed: i64 = runs
            .iter()
            .filter_map(|r| r.result.get("failed").and_then(Value::as_i64))
            .sum();
        let incorrect = runs
            .iter()
            .filter(|r| r.result.get("correct") != Some(&Value::Bool(true)))
            .count();
        println!("{side}: {failed} failed operations, {incorrect} incorrect runs");
        if side == "change" && (failed > 0 || incorrect > 0) {
            regressed = true;
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::spread;

    /// `statistics.quantiles([1..=10], n=4)` is `[2.75, 5.5, 8.25]`.
    #[test]
    fn spread_matches_python_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
