//! The farm's one non-negotiable property: artifacts and results are a pure
//! function of the manifest, never of scheduling. A sweep at `--jobs 1`
//! and the same sweep on a full worker pool must produce
//! byte-identical streamed artifacts and identical per-job simulation
//! summaries — conflict-carrying (squash-and-recover) workloads included.

use std::collections::HashSet;

use spice_bench::experiments::table2_json;
use spice_bench::farm_driver::{run_manifest, Figure, Manifest, OutPaths};
use spice_workloads::all_workload_factories;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spice-farm-determinism-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn farm_artifacts_are_byte_identical_across_worker_counts() {
    let figures = vec![
        Figure::Fig7,
        Figure::Table2,
        Figure::Harness,
        Figure::Crosscheck,
        Figure::Fig8,
        Figure::Fuzz,
    ];
    let mut artifacts: Vec<(String, String, String, String, String)> = Vec::new();
    let mut harness_sims: Vec<Vec<(String, String, u64)>> = Vec::new();
    let mut summaries = Vec::new();
    let mut fuzz_rows = Vec::new();

    for jobs in [1usize, 4] {
        let dir = temp_dir(&format!("j{jobs}"));
        let outs = OutPaths {
            fig7: Some(dir.join("BENCH_fig7.json")),
            table2: Some(dir.join("BENCH_table2.json")),
            harness: Some(dir.join("BENCH_harness.json")),
            crosscheck: Some(dir.join("BENCH_crosscheck.json")),
            fig8: Some(dir.join("BENCH_fig8.json")),
            trace: Some(dir.join("BENCH_trace.json")),
            failures_dir: Some(dir.join("failures")),
        };
        let manifest = Manifest {
            figures: figures.clone(),
            small: true,
            jobs,
            fuzz_seeds: 0..8,
        };
        let report = run_manifest(&manifest, &outs).expect("farm run");
        assert_eq!(report.stats.failures, 0, "jobs={jobs}");
        assert_eq!(report.stats.workers, if jobs == 1 { 1 } else { 4 });
        assert_eq!(report.crosscheck_rows.len(), 7, "jobs={jobs}");
        assert!(report.crosscheck_rows.iter().all(|r| r.agree));
        // Fig 8 and the fuzz sweep produce one row per corpus benchmark /
        // seed, and every fuzz row agrees (a divergence fails its job).
        assert_eq!(report.fig8_bars.len(), 38, "jobs={jobs}");
        assert_eq!(report.fuzz_rows.len(), 8, "jobs={jobs}");
        assert!(report.fuzz_rows.iter().all(|r| r.agree));
        assert!(
            report.fuzz_rows.iter().any(|r| r.has_writes),
            "the seed range must produce dependence-carrying mutants"
        );
        // Per-job observability metrics are annotated for every sweep and
        // cross-check job, and tracing is on, so sweep jobs carry events.
        assert!(report
            .stats
            .details
            .iter()
            .filter(|m| m.label.starts_with("sweep/"))
            .all(|m| m.ok && m.events > 0));
        assert!(report
            .stats
            .details
            .iter()
            .any(|m| m.label.starts_with("crosscheck/") && m.squashes > 0));

        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("read artifact");
        artifacts.push((
            read("BENCH_fig7.json"),
            read("BENCH_table2.json"),
            read("BENCH_crosscheck.json"),
            read("BENCH_fig8.json"),
            read("BENCH_trace.json"),
        ));
        // The harness artifact carries wall-clock fields (host_nanos,
        // build_nanos) that legitimately vary with scheduling; its
        // *simulation* content must still be identical.
        harness_sims.push(
            report
                .harness_rows
                .iter()
                .map(|r| (r.benchmark.clone(), r.mode.clone(), r.simulated_cycles))
                .collect(),
        );
        summaries.push(report.cell_summaries);
        fuzz_rows.push(report.fuzz_rows);
        std::fs::remove_dir_all(&dir).ok();
    }

    let (fig7_serial, table2_serial, crosscheck_serial, fig8_serial, trace_serial) = &artifacts[0];
    let (fig7_farm, table2_farm, crosscheck_farm, fig8_farm, trace_farm) = &artifacts[1];
    assert_eq!(
        fig7_serial, fig7_farm,
        "BENCH_fig7.json differs across worker counts"
    );
    assert_eq!(
        table2_serial, table2_farm,
        "BENCH_table2.json differs across worker counts"
    );
    assert_eq!(
        crosscheck_serial, crosscheck_farm,
        "BENCH_crosscheck.json differs across worker counts"
    );
    assert_eq!(
        fig8_serial, fig8_farm,
        "BENCH_fig8.json differs across worker counts"
    );
    assert_eq!(
        fuzz_rows[0], fuzz_rows[1],
        "fuzz-differential rows differ across worker counts"
    );
    assert_eq!(
        trace_serial, trace_farm,
        "trace artifact differs across worker counts"
    );
    assert!(
        trace_serial.contains("\"kind\": \"chunk_squash\""),
        "conflict workloads must leave squash events in the trace artifact"
    );
    assert_eq!(
        harness_sims[0], harness_sims[1],
        "harness simulation content differs across worker counts"
    );

    // The per-job backend summaries — chunk commits, squashes, dependence
    // violations, per-thread work — must also match run-for-run, so the
    // equality is not merely a formatting accident.
    assert_eq!(
        summaries[0], summaries[1],
        "per-job summaries differ across worker counts"
    );
    assert!(
        !summaries[0].is_empty(),
        "spice sweep jobs must report backend summaries"
    );
    // Sequential cells go through the same loop, so their per-invocation
    // return values are pinned across worker counts as well.
    let sequential: Vec<_> = summaries[0]
        .iter()
        .filter(|(label, _)| label.ends_with("/sequential"))
        .collect();
    assert_eq!(sequential.len(), 7, "one sequential cell per benchmark");
    assert!(sequential
        .iter()
        .all(|(_, s)| s.invocations > 0 && s.return_values.len() == s.invocations));

    // Squash-and-recover paths are exercised: the conflict-carrying
    // workloads must appear with real dependence violations.
    let violating: Vec<&str> = summaries[0]
        .iter()
        .filter(|(_, s)| s.dependence_violations > 0)
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(
        !violating.is_empty(),
        "expected at least one conflict-carrying workload with violations"
    );
}

#[test]
fn serial_emitters_and_streamed_artifacts_agree() {
    // The composed serial documents (what the pre-farm binaries wrote) and
    // the farm's streamed files must be the same bytes.
    let dir = temp_dir("serial-vs-stream");
    let outs = OutPaths {
        fig7: Some(dir.join("BENCH_fig7.json")),
        table2: Some(dir.join("BENCH_table2.json")),
        harness: Some(dir.join("BENCH_harness.json")),
        crosscheck: Some(dir.join("BENCH_crosscheck.json")),
        fig8: Some(dir.join("BENCH_fig8.json")),
        ..OutPaths::default()
    };
    let manifest = Manifest {
        figures: vec![
            Figure::Fig7,
            Figure::Table2,
            Figure::Harness,
            Figure::Crosscheck,
            Figure::Fig8,
        ],
        small: true,
        jobs: 2,
        ..Manifest::default()
    };
    let report = run_manifest(&manifest, &outs).expect("farm run");

    let streamed_fig7 = std::fs::read_to_string(dir.join("BENCH_fig7.json")).expect("fig7");
    let streamed_table2 = std::fs::read_to_string(dir.join("BENCH_table2.json")).expect("table2");
    let streamed_harness =
        std::fs::read_to_string(dir.join("BENCH_harness.json")).expect("harness");
    let streamed_crosscheck =
        std::fs::read_to_string(dir.join("BENCH_crosscheck.json")).expect("crosscheck");
    let streamed_fig8 = std::fs::read_to_string(dir.join("BENCH_fig8.json")).expect("fig8");
    std::fs::remove_dir_all(&dir).ok();

    use spice_bench::experiments::{
        crosscheck_json, fig7_json, fig8_json, harnessperf_json, table2_json,
    };
    assert_eq!(streamed_fig7, fig7_json(&report.fig7_rows, true));
    assert_eq!(streamed_table2, table2_json(&report.table2_rows, true));
    assert_eq!(
        streamed_harness,
        harnessperf_json(&report.harness_rows, true)
    );
    assert_eq!(
        streamed_crosscheck,
        crosscheck_json(&report.crosscheck_rows)
    );
    assert_eq!(streamed_fig8, fig8_json(&report.fig8_bars, true));
}

/// The `(benchmark, mode, conflict granularity)` cell a farm job simulates,
/// read off its label: `sweep/<bench>/<mode>` is a word-granular cell,
/// `table2/<bench>/probe-g<g>` the 4-thread cell at granularity `g`.
fn simulated_cell(label: &str) -> Option<(String, String, u8)> {
    match label.split('/').collect::<Vec<_>>().as_slice() {
        ["sweep", bench, mode] => Some((bench.to_string(), mode.to_string(), 0)),
        ["table2", bench, part] => {
            let granularity = part.strip_prefix("probe-g")?.parse().ok()?;
            Some((bench.to_string(), "spice4".to_string(), granularity))
        }
        _ => None,
    }
}

#[test]
fn each_simulation_cell_runs_once() {
    let manifest = Manifest {
        figures: Figure::ALL.to_vec(),
        small: true,
        jobs: 2,
        fuzz_seeds: 0..1,
    };
    let report = run_manifest(&manifest, &OutPaths::default()).expect("farm run");

    let cells: Vec<(String, String, u8)> = report
        .stats
        .details
        .iter()
        .filter_map(|job| simulated_cell(&job.label))
        .collect();
    let distinct: HashSet<&(String, String, u8)> = cells.iter().collect();
    assert_eq!(
        distinct.len(),
        cells.len(),
        "a cell simulated twice: {cells:?}"
    );

    // Every cell builds its preparation once and nothing else asks for it:
    // 7 benchmarks × 3 modes, plus the line-granular 4-thread cell of each
    // conflict-detecting benchmark.
    let detecting: Vec<&str> = all_workload_factories(true)
        .into_iter()
        .filter(|(_, factory)| factory().conflict_policy().detects())
        .map(|(name, _)| name)
        .collect();
    assert!(!detecting.is_empty());
    assert_eq!(cells.len(), 7 * 3 + detecting.len());
    assert_eq!(report.cache.hits, 0, "{:?}", report.cache);
    assert_eq!(report.cache.misses, distinct.len(), "{:?}", report.cache);

    // Table 2's word-granular column is Figure 7's 4-thread run.
    for row in &report.table2_rows {
        if !detecting.contains(&row.benchmark.as_str()) {
            assert_eq!(row.word_violations, None, "{}", row.benchmark);
            assert_eq!(row.line_violations, None, "{}", row.benchmark);
            continue;
        }
        let spice4 = report
            .fig7_rows
            .iter()
            .find(|r| r.benchmark == row.benchmark && r.threads == 4)
            .unwrap_or_else(|| panic!("no fig7 spice4 row for {}", row.benchmark));
        assert_eq!(
            row.word_violations,
            Some(spice4.dependence_violations),
            "{}",
            row.benchmark
        );
        assert!(row.line_violations.is_some(), "{}", row.benchmark);
    }
    assert_eq!(report.table2_rows.len(), 7);
}

#[test]
fn table2_alone_matches_table2_beside_fig7() {
    let run = |figures: Vec<Figure>, tag: &str| {
        let dir = temp_dir(tag);
        let outs = OutPaths {
            table2: Some(dir.join("BENCH_table2.json")),
            ..OutPaths::default()
        };
        let manifest = Manifest {
            figures,
            small: true,
            jobs: 2,
            ..Manifest::default()
        };
        let report = run_manifest(&manifest, &outs).expect("farm run");
        let doc = std::fs::read_to_string(dir.join("BENCH_table2.json")).expect("table2");
        std::fs::remove_dir_all(&dir).ok();
        (doc, report)
    };
    let (alone, report) = run(vec![Figure::Table2], "table2-alone");
    let (beside, _) = run(vec![Figure::Fig7, Figure::Table2], "table2-beside-fig7");
    assert!(report.fig7_rows.is_empty() && report.harness_rows.is_empty());
    assert_eq!(
        alone, beside,
        "BENCH_table2.json depends on whether fig7 ran"
    );
    assert_eq!(alone, table2_json(&report.table2_rows, true));
}
