//! The profiler's analyzer (paper §6.2) and predictability binning (§6.3).
//!
//! For every profiled loop, the analyzer collects the live-in tuple of each
//! iteration (as a signature), keeps the signature set of the previous
//! invocation, and declares an invocation *predictable* when more than a
//! threshold fraction (0.5 in the paper) of its iterations' signatures were
//! already present in the previous invocation. Loops are then binned by the
//! percentage of their invocations that are predictable: low (1–25%),
//! average (26–50%), good (51–75%) and high (76–100%).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Predictability bins of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PredictabilityBin {
    /// No invocation was predictable (rendered as a missing bar).
    None,
    /// 1–25% of invocations predictable.
    Low,
    /// 26–50%.
    Average,
    /// 51–75%.
    Good,
    /// 76–100%.
    High,
}

impl PredictabilityBin {
    /// Bins a fraction of predictable invocations.
    #[must_use]
    pub fn from_fraction(f: f64) -> Self {
        if f <= 0.0 {
            PredictabilityBin::None
        } else if f <= 0.25 {
            PredictabilityBin::Low
        } else if f <= 0.50 {
            PredictabilityBin::Average
        } else if f <= 0.75 {
            PredictabilityBin::Good
        } else {
            PredictabilityBin::High
        }
    }

    /// Label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredictabilityBin::None => "none",
            PredictabilityBin::Low => "low",
            PredictabilityBin::Average => "average",
            PredictabilityBin::Good => "good",
            PredictabilityBin::High => "high",
        }
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AnalyzerConfig {
    /// Fraction of an invocation's iterations whose live-ins must repeat for
    /// the invocation to count as predictable (paper: 0.5).
    pub iteration_threshold: f64,
    /// Probability with which an invocation is sampled (paper: `P(L)`,
    /// used to bound profiling overhead).
    pub sampling_probability: f64,
    /// RNG seed for sampling decisions.
    pub seed: u64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            iteration_threshold: 0.5,
            sampling_probability: 1.0,
            seed: 0xA17A,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct SiteState {
    previous_signatures: Option<HashSet<u64>>,
    current: Vec<u64>,
    sampled_invocations: u64,
    predictable_invocations: u64,
    total_iterations: u64,
}

/// Per-loop profiling verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopVerdict {
    /// Profiler site identifier.
    pub site: u32,
    /// Invocations that were sampled.
    pub sampled_invocations: u64,
    /// Of those, how many were predictable.
    pub predictable_invocations: u64,
    /// Total iterations observed.
    pub total_iterations: u64,
    /// Fraction of sampled invocations that were predictable.
    pub predictable_fraction: f64,
    /// The Figure 8 bin.
    pub bin: PredictabilityBin,
}

/// The analyzer: collects per-iteration live-in signatures (the events of a
/// recording run, [`crate::run_instrumented`]) and produces per-loop
/// verdicts.
#[derive(Debug)]
pub struct Analyzer {
    config: AnalyzerConfig,
    rng: StdRng,
    sites: HashMap<u32, SiteState>,
    sampling_current: bool,
}

impl Analyzer {
    /// Creates an analyzer.
    #[must_use]
    pub fn new(config: AnalyzerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Analyzer {
            config,
            rng,
            sites: HashMap::new(),
            sampling_current: true,
        }
    }

    /// Marks the start of a new loop invocation (paper: the
    /// `new_invocation` call inserted in the loop preheader). Decides whether
    /// this invocation is sampled.
    pub fn new_invocation(&mut self) {
        // Close out the previous invocation for every site first.
        self.finish_invocation();
        self.sampling_current = self.rng.gen_bool(self.config.sampling_probability);
    }

    /// Marks the end of the program (paper: `exit_program`); flushes the last
    /// invocation.
    pub fn exit_program(&mut self) {
        self.finish_invocation();
    }

    fn finish_invocation(&mut self) {
        for state in self.sites.values_mut() {
            if state.current.is_empty() {
                continue;
            }
            state.sampled_invocations += 1;
            state.total_iterations += state.current.len() as u64;
            if let Some(prev) = &state.previous_signatures {
                let hits = state.current.iter().filter(|s| prev.contains(*s)).count();
                let f = hits as f64 / state.current.len() as f64;
                if f > self.config.iteration_threshold {
                    state.predictable_invocations += 1;
                }
            }
            state.previous_signatures = Some(state.current.iter().copied().collect());
            state.current.clear();
        }
    }

    /// Records one iteration's live-in tuple at profile site `site` for the
    /// current invocation (ignored while the invocation is not sampled).
    pub fn record(&mut self, site: u32, values: &[i64]) {
        if !self.sampling_current {
            return;
        }
        let mut h = DefaultHasher::new();
        values.hash(&mut h);
        self.sites.entry(site).or_default().current.push(h.finish());
    }

    /// Produces the per-loop verdicts.
    #[must_use]
    pub fn verdicts(&self) -> Vec<LoopVerdict> {
        let mut out: Vec<LoopVerdict> = self
            .sites
            .iter()
            .map(|(site, s)| {
                // The very first sampled invocation has no predecessor to
                // compare against, so it is excluded from the denominator.
                let denom = s.sampled_invocations.saturating_sub(1).max(1);
                let f = s.predictable_invocations as f64 / denom as f64;
                LoopVerdict {
                    site: *site,
                    sampled_invocations: s.sampled_invocations,
                    predictable_invocations: s.predictable_invocations,
                    total_iterations: s.total_iterations,
                    predictable_fraction: f,
                    bin: PredictabilityBin::from_fraction(f),
                }
            })
            .collect();
        out.sort_by_key(|v| v.site);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(analyzer: &mut Analyzer, site: u32, invocations: &[Vec<i64>]) {
        for inv in invocations {
            analyzer.new_invocation();
            for v in inv {
                analyzer.record(site, &[*v]);
            }
        }
        analyzer.exit_program();
    }

    #[test]
    fn stable_loop_is_highly_predictable() {
        let mut a = Analyzer::new(AnalyzerConfig::default());
        let inv: Vec<i64> = (0..20).collect();
        feed(&mut a, 0, &[inv.clone(), inv.clone(), inv.clone(), inv]);
        let v = &a.verdicts()[0];
        assert_eq!(v.sampled_invocations, 4);
        assert_eq!(v.predictable_invocations, 3);
        assert_eq!(v.bin, PredictabilityBin::High);
        assert_eq!(v.total_iterations, 80);
    }

    #[test]
    fn fully_churning_loop_is_unpredictable() {
        let mut a = Analyzer::new(AnalyzerConfig::default());
        let invs: Vec<Vec<i64>> = (0..4)
            .map(|k| ((k * 100)..(k * 100 + 20)).collect())
            .collect();
        feed(&mut a, 3, &invs);
        let v = &a.verdicts()[0];
        assert_eq!(v.predictable_invocations, 0);
        assert_eq!(v.bin, PredictabilityBin::None);
    }

    #[test]
    fn half_churn_sits_in_a_middle_bin() {
        let mut a = Analyzer::new(AnalyzerConfig::default());
        // Alternate: stable, rebuilt, stable, rebuilt ... relative to the
        // previous invocation.
        let stable: Vec<i64> = (0..20).collect();
        let other: Vec<i64> = (1000..1020).collect();
        feed(
            &mut a,
            1,
            &[
                stable.clone(),
                stable.clone(),
                other.clone(),
                other,
                stable.clone(),
                stable,
            ],
        );
        let v = &a.verdicts()[0];
        // Predictable transitions: 1->2 (stable), 3->4 (other), 5->6 (stable)
        // = 3 of 5 comparisons.
        assert_eq!(v.sampled_invocations, 6);
        assert_eq!(v.predictable_invocations, 3);
        assert_eq!(v.bin, PredictabilityBin::Good);
    }

    #[test]
    fn sampling_probability_skips_invocations() {
        let mut a = Analyzer::new(AnalyzerConfig {
            sampling_probability: 0.0,
            ..AnalyzerConfig::default()
        });
        // new_invocation decides sampling; with probability 0 nothing records.
        a.new_invocation();
        a.record(0, &[1]);
        a.exit_program();
        assert!(a.verdicts().is_empty());
    }

    #[test]
    fn bins_cover_their_ranges() {
        assert_eq!(
            PredictabilityBin::from_fraction(0.0),
            PredictabilityBin::None
        );
        assert_eq!(
            PredictabilityBin::from_fraction(0.1),
            PredictabilityBin::Low
        );
        assert_eq!(
            PredictabilityBin::from_fraction(0.3),
            PredictabilityBin::Average
        );
        assert_eq!(
            PredictabilityBin::from_fraction(0.6),
            PredictabilityBin::Good
        );
        assert_eq!(
            PredictabilityBin::from_fraction(0.9),
            PredictabilityBin::High
        );
        assert_eq!(PredictabilityBin::High.label(), "high");
    }
}
