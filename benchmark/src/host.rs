//! What a wall-clock number depends on besides the code: the host
//! fingerprint, the release profile, and the committed figure cells the
//! default-seed inputs must reproduce.

use std::process::Command;

/// Reads the `key = value` lines of `[profile.release]` from a manifest.
fn release_profile(manifest: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let mut keys = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside {
            if let Some((k, v)) = line.split_once('=') {
                keys.push((k.trim().to_string(), v.trim().to_string()));
            }
        }
    }
    keys.sort();
    Ok(keys)
}

/// The benchmark must be compiled the way the repo's own binaries are; fails
/// naming the first `[profile.release]` key on which the two manifests
/// differ. Returns the shared keys for the fingerprint.
pub fn check_release_profile() -> Result<Vec<(String, String)>, String> {
    let root = release_profile("Cargo.toml")?;
    let own = release_profile("benchmark/Cargo.toml")?;
    for (k, v) in &root {
        match own.iter().find(|(ok, _)| ok == k) {
            Some((_, ov)) if ov == v => {}
            Some((_, ov)) => {
                return Err(format!(
                    "[profile.release] `{k}` is {v} in Cargo.toml but {ov} in benchmark/Cargo.toml"
                ))
            }
            None => {
                return Err(format!(
                "[profile.release] `{k} = {v}` of Cargo.toml is missing from benchmark/Cargo.toml"
            ))
            }
        }
    }
    if let Some((k, v)) = own
        .iter()
        .find(|(k, _)| !root.iter().any(|(rk, _)| rk == k))
    {
        return Err(format!(
            "[profile.release] `{k} = {v}` of benchmark/Cargo.toml is not in Cargo.toml"
        ));
    }
    Ok(root)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint as a JSON object: a wall-clock number without it
/// cannot be compared across machines.
pub fn fingerprint_json(profile: &[(String, String)]) -> String {
    use spice_bench::json::string;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile: Vec<String> = profile
        .iter()
        .map(|(k, v)| format!("{}: {}", string(k), string(v.trim_matches('"'))))
        .collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile_release\": {{{}}}, \"commit\": {}}}",
        string(&cpu),
        string(&command_line("rustc", &["-V"])),
        profile.join(", "),
        string(&command_line("git", &["rev-parse", "--short", "HEAD"]))
    )
}

/// With the default seed every simulated cell must cost exactly the cycles
/// the committed `BENCH_harness.json` records for the same
/// `(benchmark, mode)`, so the benchmark's own configurations cannot drift
/// from the figure cells. Returns one message per mismatch.
pub fn against_committed(cells: &[(String, String, u64)]) -> Vec<String> {
    let path = "BENCH_harness.json";
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| spice_bench::json::parse(&text))
    {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{path}: {e}")],
    };
    let rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .unwrap_or_default();
    let mut errors = Vec::new();
    for (bench, mode, cycles) in cells {
        let committed = rows
            .iter()
            .find(|r| {
                r.get("benchmark").and_then(|v| v.as_str()) == Some(bench)
                    && r.get("mode").and_then(|v| v.as_str()) == Some(mode)
            })
            .and_then(|r| r.get("simulated_cycles"))
            .and_then(|v| v.as_i64());
        if committed != i64::try_from(*cycles).ok() {
            errors.push(format!(
                "{bench}/{mode}: simulated {cycles} cycles, {path} records {committed:?}"
            ));
        }
    }
    errors
}
