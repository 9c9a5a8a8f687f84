//! Backend-equivalence properties: the timing-simulator backend, the
//! native-thread backend and the two sequential backends (one simulated
//! core, plain interpreter), driven through the one shared
//! `ExecutionBackend`/`run_workload_on` call site, must produce identical
//! reductions and live-outs on the `linked_list_min` (otter) and
//! `tree_update` (mcf) example loops — for randomized workload
//! configurations, thread counts, and inter-invocation mutations — and on
//! all seven small suite workloads.
//!
//! "Identical" is checked two ways per case:
//! * every invocation's kernel return value (the loop's reduction) matches
//!   between backends, and
//! * the workload's global data region (node payloads, live-out stores like
//!   mcf's potentials and otter's argmin cell) is bit-identical afterwards.
//!
//! Every backend's memory must also come out of the run with `FlatMemory`'s
//! extent rule intact (all zero past the extent, a clone equal to it).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_core::backend::{make_backend, BackendChoice};
use spice_ir::exec::{ExecutionBackend, InterpBackend};
use spice_ir::fixtures::assert_extent_rule;
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::{
    all_workload_factories, run_workload_on, McfConfig, McfWorkload, OtterConfig, OtterWorkload,
    SpiceWorkload,
};

/// Every way of executing a loop: Spice on the reduced simulator and on
/// native threads, sequential on one simulated core and on the interpreter.
fn every_backend(threads: usize) -> Vec<Box<dyn ExecutionBackend>> {
    vec![
        make_backend(BackendChoice::SimTiny, threads),
        make_backend(BackendChoice::Native, threads),
        Box::new(SequentialSimBackend::new(MachineConfig::test_tiny(1))),
        Box::new(InterpBackend::new()),
    ]
}

/// Runs one workload instance per backend and asserts equivalence. `probe`
/// builds a throwaway instance to measure the workload's global data region
/// (backend-added globals, like the sim's predictor arrays, live past it).
fn assert_backends_equivalent(
    label: &str,
    threads: usize,
    mut make_workload: impl FnMut() -> Box<dyn SpiceWorkload>,
) {
    let data_end = {
        let mut probe = make_workload();
        probe.build().program.data_end() as usize
    };

    let mut reference: Option<(Vec<Option<i64>>, Vec<i64>)> = None;
    for mut backend in every_backend(threads) {
        let mut workload = make_workload();
        let summary = run_workload_on(workload.as_mut(), backend.as_mut())
            .unwrap_or_else(|e| panic!("{label} on {}: {e}", backend.name()));
        assert_extent_rule(backend.mem(), &format!("{label} on {}", backend.name()));
        let data: Vec<i64> = backend.mem().words()[..data_end].to_vec();
        match &reference {
            None => reference = Some((summary.return_values, data)),
            Some((ref_returns, ref_data)) => {
                assert_eq!(
                    ref_returns, &summary.return_values,
                    "{label} ({threads} threads): reductions diverged between backends"
                );
                assert_eq!(
                    ref_data, &data,
                    "{label} ({threads} threads): live-out memory diverged between backends"
                );
            }
        }
    }
}

/// Property: for random list lengths, mutation rates and thread counts, the
/// `linked_list_min` loop (otter's `find_lightest_cl`) computes identical
/// minima and identical final list memory on both backends.
#[test]
fn linked_list_min_equivalent_across_backends() {
    for case in 0u64..6 {
        let mut rng = StdRng::seed_from_u64(0x11_57 ^ (case * 6151));
        let config = OtterConfig {
            initial_len: rng.gen_range(60..220usize),
            inserts_per_invocation: rng.gen_range(1..5usize),
            invocations: rng.gen_range(4..9usize),
            seed: rng.gen_range(1..1_000_000u64),
        };
        let threads = rng.gen_range(2..5usize);
        assert_backends_equivalent("linked_list_min", threads, || {
            Box::new(OtterWorkload::new(config.clone()))
        });
    }
}

/// Property: for random tree sizes, cost churn and re-parenting rates, the
/// `tree_update` loop (mcf's `refresh_potential`) computes identical
/// checksums and — critically, since every visited node is *written*
/// speculatively — identical potentials in every node on both backends.
#[test]
fn tree_update_equivalent_across_backends() {
    for case in 0u64..6 {
        let mut rng = StdRng::seed_from_u64(0x7EEE ^ (case * 3571));
        let config = McfConfig {
            nodes: rng.gen_range(50..200usize),
            invocations: rng.gen_range(4..9usize),
            cost_updates_per_invocation: rng.gen_range(1..8usize),
            reparents_per_invocation: rng.gen_range(0..3usize),
            seed: rng.gen_range(1..1_000_000u64),
        };
        let threads = rng.gen_range(2..5usize);
        assert_backends_equivalent("tree_update", threads, || {
            Box::new(McfWorkload::new(config.clone()))
        });
    }
}

/// All seven small suite workloads — conflict-carrying loops and the
/// `mcf_app` miniature application included — agree on every backend.
#[test]
fn every_small_workload_equivalent_across_backends() {
    for (name, factory) in all_workload_factories(true) {
        assert_backends_equivalent(name, 4, &factory);
    }
}

/// Property: the *predictor plans* — not just the results — are identical
/// across backends. The centralized half of Algorithm 2 now runs on the
/// measured substrate in both implementations (generated IR on core 0 in
/// the simulator, the pool's dedicated thread in the native runtime), so
/// nothing host-side keeps them honest anymore: this test pins them to one
/// another, assignment for assignment, across every invocation of a skewed
/// workload (the first invocation's work vector is the fully starved
/// `[N, 0, …, 0]`, later ones spread out as predictions converge).
#[test]
fn predictor_plans_identical_across_backends() {
    use spice_core::backend::SimBackend;
    use spice_ir::exec::{ExecutionBackend, LoadOptions};
    use spice_runtime::NativeLoopBackend;

    for (case, threads) in [(0u64, 2usize), (1, 3), (2, 4)] {
        let config = OtterConfig {
            initial_len: 90 + case as usize * 40,
            inserts_per_invocation: 3,
            invocations: 6,
            seed: 0x9_1a7 ^ case,
        };
        let mut sim_wl: Box<dyn SpiceWorkload> = Box::new(OtterWorkload::new(config.clone()));
        let mut nat_wl: Box<dyn SpiceWorkload> = Box::new(OtterWorkload::new(config.clone()));
        let mut sim = SimBackend::tiny(threads);
        let mut nat = NativeLoopBackend::new(threads);

        let built = sim_wl.build();
        let mut options = LoadOptions::new(
            spice_workloads::DEFAULT_WORKLOAD_HEAP_WORDS,
            Some(sim_wl.expected_iterations()),
        );
        options.loop_header = built.loop_header_hint;
        sim.load(built.program, built.kernel, options).unwrap();
        let built = nat_wl.build();
        let mut nat_options = LoadOptions::new(
            spice_workloads::DEFAULT_WORKLOAD_HEAP_WORDS,
            Some(nat_wl.expected_iterations()),
        );
        nat_options.loop_header = built.loop_header_hint;
        nat.load(built.program, built.kernel, nat_options).unwrap();

        let mut sim_args = sim_wl.init(sim.mem_mut());
        let mut nat_args = nat_wl.init(nat.mem_mut());
        assert_eq!(sim_args, nat_args, "drivers must start identically");

        let mut inv = 0usize;
        loop {
            let rs = sim.run_invocation(&sim_args).unwrap();
            let rn = nat.run_invocation(&nat_args).unwrap();
            assert_eq!(
                rs.return_value, rn.return_value,
                "case {case}: results diverged at invocation {inv}"
            );
            // The plans are deterministic functions of the work vectors, so
            // pin those first for a sharper failure message.
            assert_eq!(
                rs.work_per_thread, rn.work_per_thread,
                "case {case}: work counters diverged at invocation {inv}"
            );
            let sim_plan: Vec<(usize, i64, usize)> = sim
                .last_plan()
                .expect("loaded")
                .iter()
                .map(|a| (a.tid, a.threshold, a.row))
                .collect();
            let nat_plan: Vec<(usize, i64, usize)> = nat
                .last_plan()
                .expect("loaded")
                .into_iter()
                .map(|(tid, threshold, row)| (tid, threshold as i64, row))
                .collect();
            assert_eq!(
                sim_plan, nat_plan,
                "case {case}: Assignment sequences diverged at invocation {inv}"
            );
            match (
                sim_wl.next_invocation(sim.mem_mut(), inv),
                nat_wl.next_invocation(nat.mem_mut(), inv),
            ) {
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "drivers must mutate identically");
                    sim_args = a;
                    nat_args = b;
                }
                (None, None) => break,
                _ => panic!("case {case}: drivers ended at different invocations"),
            }
            inv += 1;
        }
        assert!(inv >= 4, "case {case}: too few invocations exercised");
    }
}

/// Eight threads also agree (more chunks, more boundaries, more commits).
#[test]
fn eight_threads_agree_on_both_example_loops() {
    assert_backends_equivalent("linked_list_min", 8, || {
        Box::new(OtterWorkload::new(OtterConfig {
            initial_len: 200,
            inserts_per_invocation: 2,
            invocations: 6,
            seed: 0x88,
        }))
    });
    assert_backends_equivalent("tree_update", 8, || {
        Box::new(McfWorkload::new(McfConfig {
            nodes: 150,
            invocations: 6,
            cost_updates_per_invocation: 4,
            reparents_per_invocation: 1,
            seed: 0x88,
        }))
    });
}
