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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_core::backend::{make_backend, BackendChoice};
use spice_ir::exec::{ExecutionBackend, ExecutionReport, InterpBackend};
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::{
    all_workload_factories, run_workload_on, workload_load_options, ConflictConfig,
    ConflictListWorkload, McfConfig, McfWorkload, OtterConfig, OtterWorkload, SpiceWorkload,
    WorkloadFactory,
};

mod machines;
use machines::verdict_machines;

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

/// Property: the *predictor* — not just the results — is identical across
/// backends. The centralized half of Algorithm 2 runs on the measured
/// substrate in both implementations (generated IR on core 0 in the
/// simulator, the main thread in the native runtime), and both follow one
/// set of rules: rows start zeroed, a thread memoizes when its work counter
/// crosses a threshold, the main thread keeps memoizing while it
/// re-executes after a squash. Both open the conflict epoch where the main
/// thread releases the workers. So on every invocation the two agree on the
/// return value, the work counters, the plan, the memoized rows and each
/// worker's squash cause, and whether the dependence-violation throttle
/// ran the invocation without workers — on the seven small suite workloads,
/// list_splice at conflict rate 0 and a skewed otter loop (the first
/// invocation's work vector is the fully starved `[N, 0, …, 0]`, later ones
/// spread out as predictions converge), at 2, 3 and 4 threads, on every
/// machine of `verdict_machines`: a verdict is a function of the program and
/// its plan, not of the machine's latencies. The throttle engages on a
/// conflict loop, and never on a loop with no violation to learn from.
#[test]
fn predictor_plans_identical_across_backends() {
    let splice_at_rate_0: WorkloadFactory = Box::new(|| {
        Box::new(ConflictListWorkload::new(ConflictConfig {
            len: 150,
            invocations: 10,
            conflict_rate: 0.0,
            seed: 0x59_11CE,
        }))
    });
    let mut workloads = all_workload_factories(true);
    workloads.push(("list_splice at rate 0", splice_at_rate_0));
    for threads in 2..=4 {
        for (machine, config) in verdict_machines(threads) {
            for (name, factory) in &workloads {
                let label = format!("{name} on {machine}");
                let throttled =
                    assert_predictors_in_lockstep(&label, threads, config.clone(), factory);
                let never = [
                    "ks",
                    "otter",
                    "181.mcf",
                    "458.sjeng",
                    "list_splice at rate 0",
                ];
                if never.contains(name) {
                    assert_eq!(throttled, 0, "{label} at {threads} threads: throttled");
                }
                if *name == "mcf_true" {
                    assert!(
                        throttled > 0,
                        "{label} at {threads} threads: never throttled"
                    );
                }
            }
        }
    }
    for (case, threads) in [(0u64, 2usize), (1, 3), (2, 4)] {
        let config = OtterConfig {
            initial_len: 90 + case as usize * 40,
            inserts_per_invocation: 3,
            invocations: 6,
            seed: 0x9_1a7 ^ case,
        };
        for (machine, machine_config) in verdict_machines(threads) {
            assert_predictors_in_lockstep(
                &format!("otter on {machine}"),
                threads,
                machine_config,
                || Box::new(OtterWorkload::new(config.clone())),
            );
        }
    }
}

/// Drives two instances of one workload, one on the simulated `machine` and
/// one on native threads, invocation by invocation, and asserts that their
/// predictors agree after each. Returns how many invocations both
/// throttled.
fn assert_predictors_in_lockstep(
    label: &str,
    threads: usize,
    machine: MachineConfig,
    make_workload: impl Fn() -> Box<dyn SpiceWorkload>,
) -> usize {
    use spice_core::backend::SimBackend;
    use spice_runtime::NativeLoopBackend;

    let (mut sim_wl, mut nat_wl) = (make_workload(), make_workload());
    let mut sim = SimBackend::with_config(machine, threads);
    let mut nat = NativeLoopBackend::new(threads);
    let built = sim_wl.build();
    let options = workload_load_options(sim_wl.as_ref(), &built);
    sim.load(built.program, built.kernel, options).unwrap();
    let built = nat_wl.build();
    let options = workload_load_options(nat_wl.as_ref(), &built);
    nat.load(built.program, built.kernel, options).unwrap();

    let mut sim_args = sim_wl.init(sim.mem_mut());
    let mut nat_args = nat_wl.init(nat.mem_mut());
    assert_eq!(sim_args, nat_args, "drivers must start identically");

    let (mut inv, mut throttled) = (0usize, 0usize);
    loop {
        let at = format!("{label} at {threads} threads, invocation {inv}");
        let rs = sim.run_invocation(&sim_args).unwrap();
        let rn = nat.run_invocation(&nat_args).unwrap();
        assert_eq!(rs.return_value, rn.return_value, "{at}: results diverged");
        assert_eq!(
            rs.throttled, rn.throttled,
            "{at}: throttle decisions diverged"
        );
        throttled += usize::from(rs.throttled);
        // The plans are deterministic functions of the work vectors, so pin
        // those first for a sharper failure message.
        assert_eq!(
            rs.work_per_thread, rn.work_per_thread,
            "{at}: work counters diverged"
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
        assert_eq!(sim_plan, nat_plan, "{at}: Assignment sequences diverged");
        let layout = sim.runner().expect("loaded").spice().layout;
        let sim_rows: Vec<Vec<i64>> = (0..threads - 1)
            .map(|row| {
                (0..layout.spec_width)
                    .map(|j| sim.mem().read(layout.sva_addr(row, j)).unwrap())
                    .collect()
            })
            .collect();
        assert_eq!(
            sim_rows,
            nat.predictions().expect("loaded"),
            "{at}: memoized rows diverged"
        );
        let causes = |r: &ExecutionReport| r.workers.iter().map(|w| w.cause).collect::<Vec<_>>();
        assert_eq!(causes(&rs), causes(&rn), "{at}: verdicts diverged");
        match (
            sim_wl.next_invocation(sim.mem_mut(), inv),
            nat_wl.next_invocation(nat.mem_mut(), inv),
        ) {
            (Some(a), Some(b)) => {
                assert_eq!(a, b, "{at}: drivers must mutate identically");
                sim_args = a;
                nat_args = b;
            }
            (None, None) => break,
            _ => panic!("{at}: drivers ended at different invocations"),
        }
        inv += 1;
    }
    assert!(inv >= 4, "{label}: too few invocations exercised");
    throttled
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
