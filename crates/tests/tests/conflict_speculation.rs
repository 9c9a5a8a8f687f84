//! Properties of the memory-dependence speculation subsystem.
//!
//! The contract (DESIGN.md §2, paper §3 "Conflict Detection"): under
//! `ConflictPolicy::Detect`, speculative chunk execution of a loop that
//! carries genuine cross-chunk memory flow dependences must be
//! *indistinguishable* from sequential execution — bit-identical reductions
//! and bit-identical live-out memory — on every backend, with the violations
//! reported as `DependenceViolation` squashes rather than silently corrupted
//! results. These tests force conflicts at controlled rates (0, 0.1, 1.0)
//! through the adversarial `list_splice` workload and through the faithful
//! `mcf_refresh_potential_true` kernel, and compare both backends against
//! the sequential backends (plain interpreter, one simulated core) driving
//! the same schedule through the same `run_workload_on` call site.

use std::cell::Cell;
use std::collections::BTreeSet;

use spice_core::backend::{make_backend, BackendChoice};
use spice_ir::exec::{ExecutionBackend, ExecutionReport, InterpBackend, MisspeculationCause};
use spice_ir::interp::{run_function_with, FlatMemory, LocalSys, MemPort};
use spice_ir::TrapKind;
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::{
    app_benchmarks_small, conflict_benchmarks_small, run_workload_on, workload_load_options,
    BackendRunSummary, ConflictConfig, ConflictListWorkload, McfConfig, McfWorkload, SpiceWorkload,
};

/// Runs one workload instance on `backend` and returns the summary plus the
/// final data-region memory (the sim backend appends predictor globals past
/// the workload's own, so only that region is comparable).
fn backend_run(
    mut workload: Box<dyn SpiceWorkload>,
    backend: &mut dyn ExecutionBackend,
) -> (BackendRunSummary, Vec<i64>) {
    let data_end = workload.build().program.data_end() as usize;
    let summary = run_workload_on(workload.as_mut(), backend)
        .unwrap_or_else(|e| panic!("{}: {e}", backend.name()));
    let data = backend.mem().words()[..data_end].to_vec();
    (summary, data)
}

/// The ground truth: the plain interpreter's per-invocation return values
/// and final data-region memory. The one-core simulator must agree with it
/// before either is used as a reference.
fn sequential_reference(make: impl Fn() -> Box<dyn SpiceWorkload>) -> (Vec<Option<i64>>, Vec<i64>) {
    let (interp, interp_mem) = backend_run(make(), &mut InterpBackend::new());
    let mut one_core = SequentialSimBackend::new(MachineConfig::test_tiny(1));
    let (sim, sim_mem) = backend_run(make(), &mut one_core);
    assert_eq!(
        (&interp.return_values, &interp_mem),
        (&sim.return_values, &sim_mem),
        "the two sequential backends diverged"
    );
    (interp.return_values, interp_mem)
}

/// [`backend_run`] on a Spice backend selected by value.
fn spice_run(
    workload: Box<dyn SpiceWorkload>,
    choice: BackendChoice,
    threads: usize,
) -> (BackendRunSummary, Vec<i64>) {
    backend_run(workload, make_backend(choice, threads).as_mut())
}

/// Forced-conflict property: at rates 0 / 0.1 / 1.0 the splice loop produces
/// bit-identical reductions and live-out memory on both backends, matching
/// the sequential interpreter; nonzero rates must report at least one
/// `DependenceViolation`, rate zero must report none.
#[test]
fn forced_conflict_rates_stay_bit_identical_to_sequential() {
    for &rate in &[0.0, 0.1, 1.0] {
        let make = || {
            Box::new(ConflictListWorkload::new(ConflictConfig {
                len: 180,
                invocations: 8,
                conflict_rate: rate,
                seed: 0xC0_4F11,
            })) as Box<dyn SpiceWorkload>
        };
        let (seq_returns, seq_mem) = sequential_reference(make);
        for choice in [BackendChoice::SimTiny, BackendChoice::Native] {
            for threads in [2usize, 4] {
                let (summary, mem) = spice_run(make(), choice, threads);
                assert_eq!(
                    summary.return_values, seq_returns,
                    "rate {rate}, {choice}, {threads} threads: reductions diverged"
                );
                assert_eq!(
                    mem, seq_mem,
                    "rate {rate}, {choice}, {threads} threads: live-out memory diverged"
                );
                if rate == 0.0 {
                    assert_eq!(
                        summary.dependence_violations, 0,
                        "rate 0, {choice}, {threads} threads: phantom conflict"
                    );
                } else {
                    assert!(
                        summary.dependence_violations >= 1,
                        "rate {rate}, {choice}, {threads} threads: no violation \
                         reported on a conflict-carrying run"
                    );
                    assert!(summary.squashed_chunks >= summary.dependence_violations);
                }
            }
        }
    }
}

/// The faithful mcf kernel (potential chained through `pred->potential`)
/// runs on both backends with results and node potentials bit-identical to
/// sequential execution, while `DependenceViolation` squashes occur and are
/// recovered.
#[test]
fn mcf_refresh_potential_true_recovers_on_both_backends() {
    let make = || {
        Box::new(McfWorkload::new_faithful(McfConfig {
            nodes: 160,
            invocations: 8,
            cost_updates_per_invocation: 5,
            reparents_per_invocation: 2,
            seed: 0x7A0E,
        })) as Box<dyn SpiceWorkload>
    };
    let (seq_returns, seq_mem) = sequential_reference(make);
    for choice in [BackendChoice::SimTiny, BackendChoice::Native] {
        let (summary, mem) = spice_run(make(), choice, 4);
        assert_eq!(
            summary.return_values, seq_returns,
            "{choice}: checksums diverged from sequential"
        );
        assert_eq!(
            mem, seq_mem,
            "{choice}: node potentials diverged from sequential"
        );
        assert!(
            summary.dependence_violations >= 1,
            "{choice}: the pred-potential chain never tripped conflict detection"
        );
        assert!(
            summary.squashed_chunks >= summary.dependence_violations,
            "{choice}: violations must be squashed chunks"
        );
    }
}

/// The dependence-free control (the pre-subsystem mcf kernel) still never
/// reports a violation — the detector is precise enough for word-disjoint
/// chunk working sets.
#[test]
fn dependence_free_mcf_control_reports_no_violations() {
    let make = || {
        Box::new(McfWorkload::new(McfConfig {
            nodes: 160,
            invocations: 6,
            cost_updates_per_invocation: 5,
            reparents_per_invocation: 1,
            seed: 0x7A0E,
        })) as Box<dyn SpiceWorkload>
    };
    for choice in [BackendChoice::SimTiny, BackendChoice::Native] {
        let (summary, _) = spice_run(make(), choice, 4);
        assert_eq!(
            summary.dependence_violations, 0,
            "{choice}: false conflict on the dependence-free control"
        );
    }
}

/// A native run does not depend on the host's thread schedule: a chunk is a
/// function of the image frozen at the loop header and of its start
/// prediction, and everything else is decided on the main thread in thread
/// order. So ten 4-thread runs of each squash-heavy loop report the same
/// summary (wall-clock cost apart) and narrate the same trace, event for
/// event.
#[test]
fn native_runs_are_reproducible_across_schedules() {
    let workloads = || {
        conflict_benchmarks_small()
            .into_iter()
            .chain(app_benchmarks_small())
    };
    let run = |mut workload: Box<dyn SpiceWorkload>| {
        let mut backend = make_backend(BackendChoice::Native, 4);
        backend.enable_trace(1 << 16);
        let mut summary = run_workload_on(workload.as_mut(), backend.as_mut()).unwrap();
        summary.total_cost = 0;
        let trace = backend.trace().expect("trace enabled");
        assert_eq!(trace.dropped(), 0, "{}: trace too small", workload.name());
        (summary, trace.events().cloned().collect::<Vec<_>>())
    };
    let first: Vec<_> = workloads().map(run).collect();
    assert!(first.iter().all(|(summary, _)| summary.squashed_chunks > 0));
    for round in 1..10 {
        for (workload, expected) in workloads().zip(&first) {
            let name = workload.name();
            assert!(
                run(workload) == *expected,
                "{name}: run {round} differs from run 0"
            );
        }
    }
}

/// A sequential memory port that logs the addresses stored to once the
/// target loop has been entered — the words the loop *body* writes, as
/// opposed to the kernel's entry code.
struct BodyWriteLog<'a> {
    mem: FlatMemory,
    in_loop: &'a Cell<bool>,
    writes: BTreeSet<i64>,
}

impl MemPort for BodyWriteLog<'_> {
    fn load(&mut self, addr: i64) -> Result<i64, TrapKind> {
        self.mem.load(addr)
    }

    fn store(&mut self, addr: i64, value: i64) -> Result<(), TrapKind> {
        if self.in_loop.get() {
            self.writes.insert(addr);
        }
        self.mem.store(addr, value)
    }

    fn alloc(&mut self, words: i64) -> Result<i64, TrapKind> {
        self.mem.alloc(words)
    }
}

/// The write-log boundary, against the simulator: on `mcf_app` — whose entry
/// code relinks the very tree the speculative walk traverses — every address
/// the native backend names in a `DependenceViolation` is a word the loop
/// body wrote in that invocation, none a word only the entry-phase relink
/// touched. That is the simulator's rule (`ConflictTracker::active_chunks`:
/// a store that precedes every speculative read is not recorded), so at
/// equal thread count the two backends squash for the same reasons; their
/// per-invocation chunk counts go side by side into the failure message.
#[test]
fn native_violations_on_mcf_app_name_only_words_the_loop_body_wrote() {
    const THREADS: usize = 4;
    let workload = || app_benchmarks_small().remove(0);

    // Drives one backend by hand (the reports are needed one by one),
    // calling `before` with the pre-invocation image and the arguments.
    let drive = |backend: &mut dyn ExecutionBackend,
                 before: &mut dyn FnMut(&FlatMemory, &[i64])| {
        let mut wl = workload();
        let built = wl.build();
        let options = workload_load_options(wl.as_ref(), &built);
        backend.load(built.program, built.kernel, options).unwrap();
        let mut args = wl.init(backend.mem_mut());
        let mut reports: Vec<ExecutionReport> = Vec::new();
        loop {
            before(backend.mem(), &args);
            let expected = wl.expected_result(backend.mem());
            let report = backend.run_invocation(&args).unwrap();
            assert_eq!(report.return_value, expected, "{}", backend.name());
            reports.push(report);
            match wl.next_invocation(backend.mem_mut(), reports.len() - 1) {
                Some(next) => args = next,
                None => return reports,
            }
        }
    };

    // Per invocation: what a sequential run of the kernel over the same
    // image stores to after its first arrival in the loop header.
    let built = workload().build();
    let header = built.loop_header_hint.expect("mcf_app names its loop");
    let mut body_writes: Vec<BTreeSet<i64>> = Vec::new();
    let mut native = make_backend(BackendChoice::Native, THREADS);
    let native_reports = drive(native.as_mut(), &mut |mem, args| {
        let in_loop = Cell::new(false);
        let mut port = BodyWriteLog {
            mem: mem.clone(),
            in_loop: &in_loop,
            writes: BTreeSet::new(),
        };
        run_function_with(
            &built.program,
            built.kernel,
            args,
            &mut port,
            &mut LocalSys::new(),
            u64::MAX,
            |func, block, _| {
                if func == built.kernel && block == header {
                    in_loop.set(true);
                }
            },
        )
        .unwrap();
        body_writes.push(port.writes);
    });
    let mut sim = make_backend(BackendChoice::SimTiny, THREADS);
    let sim_reports = drive(sim.as_mut(), &mut |_, _| {});

    let side_by_side: String = native_reports
        .iter()
        .zip(&sim_reports)
        .enumerate()
        .map(|(inv, (n, s))| {
            format!(
                "\n  invocation {inv}: native {} committed / {} squashed, sim {} / {}",
                n.committed_chunks, n.squashed_chunks, s.committed_chunks, s.squashed_chunks
            )
        })
        .collect();
    let mut violations = 0;
    for (inv, report) in native_reports.iter().enumerate() {
        for cause in report.misspeculation_causes() {
            if let MisspeculationCause::DependenceViolation { addr } = cause {
                violations += 1;
                assert!(
                    body_writes[inv].contains(&addr),
                    "invocation {inv}: native squashed on word {addr}, which the loop \
                     body never wrote{side_by_side}"
                );
            }
        }
    }
    assert!(
        violations > 0,
        "no native dependence violation to attribute{side_by_side}"
    );
}
