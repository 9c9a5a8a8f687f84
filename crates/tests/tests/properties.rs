//! Property-based integration tests: the Spice execution is equivalent to
//! sequential execution for randomized lists, mutations and thread counts,
//! and the transformation itself preserves structural invariants.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these properties are driven by an in-repo case generator: a deterministic
//! RNG (`rand` stub, xoshiro256++) enumerates dozens of randomized cases per
//! property. Failures print the case seed, which reproduces the exact case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_core::analysis::derive_loop_spec;
use spice_core::pipeline::SpiceRunner;
use spice_core::transform::{SpiceOptions, SpiceTransform};
use spice_ir::fixtures::list_min_program;
use spice_ir::verify::verify_program;
use spice_sim::{Machine, MachineConfig};

fn write_list(machine: &mut Machine, base: i64, order: &[usize], weights: &[i64]) -> i64 {
    for (pos, &slot) in order.iter().enumerate() {
        let addr = base + 2 * slot as i64;
        let next = if pos + 1 < order.len() {
            base + 2 * order[pos + 1] as i64
        } else {
            0
        };
        machine.mem_mut().write(addr, weights[slot]).unwrap();
        machine.mem_mut().write(addr + 1, next).unwrap();
    }
    order.first().map_or(0, |&s| base + 2 * s as i64)
}

/// Spice with a random thread count over random list contents and random
/// inter-invocation permutations always returns the same minimum as
/// sequential execution.
#[test]
fn spice_equals_sequential_on_random_lists() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ (case * 7919));
        let n = rng.gen_range(3..120usize);
        let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(1..1_000_000i64)).collect();
        let threads = rng.gen_range(2..5usize);
        let capacity = n as i64 + 2;

        // Invocation k uses a random permutation of the same node slots.
        let mut orders: Vec<Vec<usize>> = Vec::new();
        let mut order: Vec<usize> = (0..n).collect();
        orders.push(order.clone());
        for _ in 0..rng.gen_range(1..4usize) {
            for i in 0..order.len() {
                let j = rng.gen_range(0..order.len());
                order.swap(i, j);
            }
            orders.push(order.clone());
        }

        // Sequential reference over all invocations.
        let (seq_p, seq_f, seq_nodes, _) = list_min_program(capacity);
        let mut seq_m = Machine::new(MachineConfig::test_tiny(1), seq_p);
        let mut seq_results = Vec::new();
        for ord in &orders {
            let head = write_list(&mut seq_m, seq_nodes, ord, &weights);
            seq_m.run_sequential(seq_f, &[head]).unwrap();
            seq_results.push(seq_m.return_value(0));
        }

        // Spice over the same sequence of lists.
        let (mut p, f, nodes, _) = list_min_program(capacity);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads_and_estimate(threads, n as u64))
            .apply(&mut p, &analysis)
            .unwrap();
        let mut machine = Machine::new(MachineConfig::test_tiny(threads), p);
        let mut runner = SpiceRunner::new(spice);
        for (k, ord) in orders.iter().enumerate() {
            let head = write_list(&mut machine, nodes, ord, &weights);
            let report = runner.run_invocation(&mut machine, &[head]).unwrap();
            assert_eq!(
                report.return_value, seq_results[k],
                "case {case} ({threads} threads, {n} nodes), invocation {k}"
            );
        }
    }
}

/// The transformation always yields a structurally valid program with the
/// expected number of workers, for any thread count.
#[test]
fn transformation_structurally_sound() {
    for threads in 2usize..9 {
        let (mut p, f, ..) = list_min_program(16);
        let analysis = derive_loop_spec(&p, f, None).unwrap();
        let spice = SpiceTransform::new(SpiceOptions::with_threads(threads))
            .apply(&mut p, &analysis)
            .unwrap();
        assert_eq!(spice.workers.len(), threads - 1);
        assert!(verify_program(&p).is_ok());
        assert_eq!(spice.layout.threads, threads);
        // One sva row per worker, sized by the speculated live-ins.
        assert_eq!(spice.layout.spec_width, analysis.cursors.len());
    }
}

/// The centralized predictor never produces an out-of-range sva row or a
/// non-positive threshold, whatever the observed work distribution.
#[test]
fn predictor_plans_are_in_range() {
    use spice_core::predictor::{plan, PredictorOptions};
    for case in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(0x9E37 ^ (case * 131));
        let threads = rng.gen_range(2..8usize);
        let work: Vec<u64> = (0..threads).map(|_| rng.gen_range(0..5_000u64)).collect();
        for a in plan(threads, &PredictorOptions::default(), &work) {
            assert!(
                a.row < threads - 1,
                "case {case}: row {} out of range",
                a.row
            );
            assert!(a.tid < threads, "case {case}: tid {} out of range", a.tid);
            assert!(a.threshold >= 1, "case {case}: threshold {}", a.threshold);
        }
    }
}
