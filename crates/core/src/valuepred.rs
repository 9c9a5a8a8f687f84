//! A conventional value predictor and the Spice memoization predictor,
//! evaluated over recorded live-in traces.
//!
//! Section 2.2 of the paper argues that the predictors used by prior TLS
//! work (last-value, stride, trace-based increment) cannot predict the
//! live-ins of pointer-chasing loops, while Spice's "remember a few values
//! from the previous invocation" strategy can. This module implements the
//! stride predictor and the Spice criterion so that claim can be measured:
//! each consumes the per-iteration loop-carried live-in values of
//! consecutive loop invocations and reports its prediction accuracy (the
//! `schedules` experiment's *TLS with value prediction* baseline, paper
//! Figure 3).

/// A trace of one loop invocation: the loop-carried live-in tuple observed at
/// the start of every iteration.
pub type InvocationTrace = Vec<Vec<i64>>;

/// A value predictor evaluated against per-iteration live-in tuples.
pub trait ValuePredictor {
    /// Predicts the live-in tuple of the next iteration, or `None` when the
    /// predictor has no prediction yet (cold start).
    fn predict(&self) -> Option<Vec<i64>>;

    /// Informs the predictor of the live-in tuple actually observed.
    fn observe(&mut self, actual: &[i64]);
}

/// Accuracy statistics of one predictor over a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictorStats {
    /// Number of predictions made (cold-start iterations are not counted).
    pub predictions: u64,
    /// Number of correct predictions.
    pub correct: u64,
}

impl PredictorStats {
    /// Prediction accuracy in `[0, 1]`; 0 when no prediction was made.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

/// Runs `predictor` over a sequence of invocation traces and reports its
/// accuracy at predicting each iteration's live-in tuple.
pub fn evaluate_predictor<P: ValuePredictor + ?Sized>(
    predictor: &mut P,
    invocations: &[InvocationTrace],
) -> PredictorStats {
    let mut stats = PredictorStats::default();
    for inv in invocations {
        for tuple in inv {
            if let Some(guess) = predictor.predict() {
                stats.predictions += 1;
                if guess == *tuple {
                    stats.correct += 1;
                }
            }
            predictor.observe(tuple);
        }
    }
    stats
}

/// Predicts `last + stride` per live-in component, with the stride learned
/// from the two most recent observations.
#[derive(Debug, Clone, Default)]
pub struct StridePredictor {
    last: Option<Vec<i64>>,
    stride: Option<Vec<i64>>,
}

impl StridePredictor {
    /// Creates an empty predictor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl ValuePredictor for StridePredictor {
    fn predict(&self) -> Option<Vec<i64>> {
        match (&self.last, &self.stride) {
            (Some(last), Some(stride)) => Some(
                last.iter()
                    .zip(stride)
                    .map(|(l, s)| l.wrapping_add(*s))
                    .collect(),
            ),
            _ => None,
        }
    }

    fn observe(&mut self, actual: &[i64]) {
        if let Some(last) = &self.last {
            self.stride = Some(
                actual
                    .iter()
                    .zip(last)
                    .map(|(a, l)| a.wrapping_sub(*l))
                    .collect(),
            );
        }
        self.last = Some(actual.to_vec());
    }
}

/// The Spice predictor evaluated at the same granularity as the others, but
/// with its own success criterion (paper §1, second insight): it predicts
/// that a live-in tuple memoized from the *previous* invocation will appear
/// *some time* during the current invocation — not at a particular
/// iteration.
///
/// `chunks` controls how many tuples are memoized per invocation
/// (`threads - 1` in the transformation).
#[derive(Debug, Clone)]
pub struct SpiceMemoPredictor {
    chunks: usize,
    memoized: Vec<Vec<i64>>,
}

impl SpiceMemoPredictor {
    /// Creates a predictor that memoizes `chunks` tuples per invocation.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    #[must_use]
    pub fn new(chunks: usize) -> Self {
        assert!(chunks > 0, "at least one chunk boundary is required");
        SpiceMemoPredictor {
            chunks,
            memoized: Vec::new(),
        }
    }

    /// Evaluates the Spice criterion over a sequence of invocation traces:
    /// the fraction of memoized tuples from invocation `k` that appear
    /// somewhere in invocation `k + 1`. This is exactly the quantity that
    /// determines Spice's mis-speculation rate.
    #[must_use]
    pub fn evaluate(mut self, invocations: &[InvocationTrace]) -> PredictorStats {
        let mut stats = PredictorStats::default();
        for inv in invocations {
            // Check last invocation's memoized tuples against this one.
            if !self.memoized.is_empty() {
                for tuple in &self.memoized {
                    stats.predictions += 1;
                    if inv.iter().any(|t| t == tuple) {
                        stats.correct += 1;
                    }
                }
            }
            // Memoize evenly spaced tuples from this invocation.
            self.memoized = memoize_evenly(inv, self.chunks);
        }
        stats
    }
}

/// Picks `chunks` evenly spaced tuples from an invocation trace — the
/// idealised equivalent of Algorithm 2's threshold-triggered memoization
/// under perfectly balanced work.
#[must_use]
pub fn memoize_evenly(trace: &[Vec<i64>], chunks: usize) -> Vec<Vec<i64>> {
    if trace.is_empty() || chunks == 0 {
        return Vec::new();
    }
    let n = trace.len();
    let threads = chunks + 1;
    let mut out = Vec::new();
    for k in 1..=chunks {
        let idx = (k * n) / threads;
        if idx < n {
            out.push(trace[idx].clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(values: &[i64]) -> InvocationTrace {
        values.iter().map(|v| vec![*v]).collect()
    }

    #[test]
    fn stride_predicts_contiguous_nodes_but_not_reordered_lists() {
        // Contiguously allocated list: stride 16 -> perfect after warmup.
        let invs = vec![tuples(&[100, 116, 132, 148, 164])];
        let mut p = StridePredictor::new();
        let s = evaluate_predictor(&mut p, &invs);
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 3);

        // After an insertion/deletion the traversal order breaks the stride.
        let invs = vec![tuples(&[100, 116, 200, 132, 148])];
        let mut p = StridePredictor::new();
        let s = evaluate_predictor(&mut p, &invs);
        assert!(s.accuracy() < 0.5);
    }

    #[test]
    fn spice_memo_survives_list_mutation() {
        // Invocation 1 traverses nodes 1..=10; invocation 2 has node 4
        // removed and node 99 inserted near the front. The memoized middle
        // node (6 for 2 chunks over 10 nodes... index 10/3=3 -> node 4 and
        // 2*10/3=6 -> node 7) mostly still appears in invocation 2, while a
        // stride predictor collapses.
        let inv1 = tuples(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let inv2 = tuples(&[1, 99, 2, 3, 5, 6, 7, 8, 9, 10]);
        let spice = SpiceMemoPredictor::new(3);
        let s = spice.evaluate(&[inv1.clone(), inv2.clone()]);
        assert_eq!(s.predictions, 3);
        assert!(s.accuracy() > 0.6, "accuracy was {}", s.accuracy());

        let mut stride = StridePredictor::new();
        let st = evaluate_predictor(&mut stride, &[inv1, inv2]);
        assert!(st.accuracy() < s.accuracy());
    }

    #[test]
    fn memoize_evenly_spaces_choices() {
        let trace = tuples(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let picks = memoize_evenly(&trace, 3);
        assert_eq!(picks.len(), 3);
        assert_eq!(picks[0], vec![30]);
        assert_eq!(picks[1], vec![50]);
        assert_eq!(picks[2], vec![70]);
        assert!(memoize_evenly(&[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_is_rejected() {
        let _ = SpiceMemoPredictor::new(0);
    }

    #[test]
    fn accuracy_of_empty_stats_is_zero() {
        assert_eq!(PredictorStats::default().accuracy(), 0.0);
    }
}
