//! Figure 8 measured-vs-target agreement: the bins are computed from
//! recorded traces, and this test pins how closely the measured
//! predictability tracks the fractions the corpus was dialed to.
//!
//! The bands are deliberately loose at small size: with 8 sampled
//! invocations the predictable fraction has denominator 7, so a target of
//! 0.82 can only be measured as 5/7 or 6/7. What must hold is that the
//! measurement is present for every loop, within a bounded mean error, and
//! directionally right at the extremes.

use spice_bench::experiments::fig8_mean_abs_error;
use spice_bench::farm_driver::{run_manifest, Figure, Manifest, OutPaths};

#[test]
fn measured_predictability_tracks_the_corpus_targets() {
    let manifest = Manifest {
        figures: vec![Figure::Fig8],
        small: true,
        jobs: 1,
        ..Manifest::default()
    };
    let bars = &run_manifest(&manifest, &OutPaths::default())
        .expect("fig8")
        .fig8_bars;
    assert_eq!(bars.len(), 38, "corpus size");

    let mut loops = 0usize;
    for bar in bars {
        assert_eq!(
            bar.loops,
            bar.targets.len(),
            "{}: every target loop must be measured",
            bar.benchmark
        );
        assert_eq!(bar.measured.len(), bar.targets.len(), "{}", bar.benchmark);
        for (target, measured) in bar.targets.iter().zip(&bar.measured) {
            assert!(
                (0.0..=1.0).contains(measured),
                "{}: measured fraction {measured} out of range",
                bar.benchmark
            );
            // Directional bands at the extremes: near-certain loops must
            // measure clearly predictable, near-random loops must not.
            if *target >= 0.95 {
                assert!(
                    *measured >= 0.5,
                    "{}: target {target} measured only {measured}",
                    bar.benchmark
                );
            }
            if *target <= 0.05 {
                assert!(
                    *measured <= 0.5,
                    "{}: target {target} measured {measured}",
                    bar.benchmark
                );
            }
            loops += 1;
        }
    }
    assert!(loops > 50, "corpus must span many loops, got {loops}");

    // Aggregate agreement band: mean |measured - target| over every loop.
    let err = fig8_mean_abs_error(bars);
    assert!(
        err <= 0.30,
        "mean measured-vs-target error {err:.3} exceeds the agreement band"
    );
}
