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
use spice_ir::builder::FunctionBuilder;
use spice_ir::exec::{
    ExecutionBackend, ExecutionReport, InterpBackend, LoadOptions, MisspeculationCause,
};
use spice_ir::fixtures::{list_min_program, write_list};
use spice_ir::interp::{run_decoded_with, FlatMemory, LocalSys, MemPort};
use spice_ir::{BinOp, DecodedProgram, FuncId, Operand, Program, TrapKind};
use spice_sim::{MachineConfig, SequentialSimBackend};
use spice_workloads::{
    all_workload_factories, run_workload_on, workload_load_options, BackendRunSummary,
    ConflictConfig, ConflictListWorkload, McfConfig, McfWorkload, SpiceWorkload,
};

mod machines;
use machines::verdict_machines;

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
        all_workload_factories(true)
            .into_iter()
            .filter(|(name, _)| ["mcf_true", "list_splice", "mcf_app"].contains(name))
            .map(|(_, factory)| factory())
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
}

/// The write-log boundary: on `mcf_app` — whose entry code relinks the very
/// tree the speculative walk traverses — every address the native backend
/// names in a `DependenceViolation` is a word the loop body wrote in that
/// invocation, none a word only the entry-phase relink touched. The
/// simulator's conflict epoch opens at the same point (the release of the
/// workers), so at equal thread count the two backends squash for the same
/// reasons; their per-invocation chunk counts go side by side into the
/// failure message.
#[test]
fn native_violations_on_mcf_app_name_only_words_the_loop_body_wrote() {
    const THREADS: usize = 4;
    let (_, workload) = all_workload_factories(true)
        .into_iter()
        .find(|(name, _)| *name == "mcf_app")
        .expect("mcf_app is in the suite");

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
    let decoded = DecodedProgram::new(&built.program);
    let mut body_writes: Vec<BTreeSet<i64>> = Vec::new();
    let mut native = make_backend(BackendChoice::Native, THREADS);
    let native_reports = drive(native.as_mut(), &mut |mem, args| {
        let in_loop = Cell::new(false);
        let mut port = BodyWriteLog {
            mem: mem.clone(),
            in_loop: &in_loop,
            writes: BTreeSet::new(),
        };
        run_decoded_with(
            &decoded,
            built.kernel,
            args,
            &mut port,
            &mut LocalSys::new(),
            u64::MAX,
            |thread| {
                if thread.current_func() == built.kernel && thread.current_block() == header {
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

/// Nodes of the forward-divisor list.
const DIVISOR_NODES: i64 = 400;

/// `walk(head)`: Σ `value / divisor` over a list of four-word nodes
/// `[value, divisor, next, target]`, each iteration also storing 7 to the
/// word at `target`. Returns `(program, kernel, nodes, sink)`.
fn forward_divisor_program() -> (Program, FuncId, i64, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", DIVISOR_NODES * 4);
    let sink = program.add_global("sink", 1);
    let mut b = FunctionBuilder::new("forward_divisor");
    let head = b.param();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let sum = b.copy(0i64);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let value = b.load(c, 0);
    let divisor = b.load(c, 1);
    let q = b.binop(BinOp::Div, value, divisor);
    let s = b.binop(BinOp::Add, sum, q);
    b.copy_into(sum, s);
    let target = b.load(c, 3);
    b.store(7i64, target, 0);
    let next = b.load(c, 2);
    b.copy_into(c, next);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    let kernel = program.add_func(b.finish());
    (program, kernel, nodes, sink)
}

/// Lays out invocation `inv`'s list, headed at `nodes`: every tenth node
/// stores 7 into the divisor of the node 50 places later, which starts at
/// zero; every other node stores to `sink`. In list order no division sees
/// a zero.
fn write_forward_divisor_list(mem: &mut FlatMemory, nodes: i64, sink: i64, inv: i64) {
    let n = DIVISOR_NODES;
    for i in 0..n {
        let addr = nodes + 4 * i;
        let divisor = if i >= 50 && i % 10 == 0 { 0 } else { 1 + i % 5 };
        let next = if i + 1 < n { addr + 4 } else { 0 };
        let target = if i % 10 == 0 && i + 50 < n {
            addr + 4 * 50 + 1
        } else {
            sink
        };
        let node = [1000 + 37 * i + inv, divisor, next, target];
        for (k, word) in (0..).zip(node) {
            mem.write(addr + k, word).unwrap();
        }
    }
}

/// Six invocations of the forward-divisor walk on `backend`: the returns,
/// every squash cause and the final data region.
fn forward_divisor_run(
    backend: &mut dyn ExecutionBackend,
) -> (Vec<Option<i64>>, Vec<MisspeculationCause>, Vec<i64>) {
    let (program, kernel, nodes, sink) = forward_divisor_program();
    let data_end = program.data_end() as usize;
    let options = LoadOptions::new(Some(DIVISOR_NODES as u64));
    backend.load(program, kernel, options).unwrap();
    let (mut returns, mut causes) = (Vec::new(), Vec::new());
    for inv in 0..6 {
        write_forward_divisor_list(backend.mem_mut(), nodes, sink, inv);
        let report = backend
            .run_invocation(&[nodes])
            .unwrap_or_else(|e| panic!("{}: invocation {inv}: {e}", backend.name()));
        returns.push(report.return_value);
        causes.extend(report.misspeculation_causes());
    }
    (returns, causes, backend.mem().words()[..data_end].to_vec())
}

/// Nodes of the walk-off list.
const WALK_OFF_NODES: i64 = 256;

/// A word address past every backend's image. (On the simulator the
/// transformed program's predictor globals lie past the list's, so the
/// untransformed program's `data_end` would still be inside the image.)
const PAST_THE_IMAGE: i64 = 1 << 30;

/// Four invocations of the list-minimum walk on `backend`: two over the
/// whole list, so the predictor memoizes chunk start nodes in its middle;
/// then the driver unlinks the middle three quarters, pointing every
/// unlinked node's `next` at [`PAST_THE_IMAGE`], so a chunk
/// started at a stale memoized node walks off the memory image; then one
/// more over the shortened list. Returns the returns, the squash causes of
/// the stale invocation and the final data region.
fn walk_off_run(
    backend: &mut dyn ExecutionBackend,
) -> (Vec<Option<i64>>, Vec<MisspeculationCause>, Vec<i64>) {
    let n = WALK_OFF_NODES;
    let (program, kernel, nodes, _) = list_min_program(n);
    let data_end = program.data_end();
    backend
        .load(program, kernel, LoadOptions::new(Some(n as u64)))
        .unwrap();
    // The minimum is in the middle, so unlinking it changes the result.
    let weights: Vec<i64> = (0..n).map(|i| 1000 + (i - n / 2).abs()).collect();
    let head = write_list(backend.mem_mut(), nodes, &weights);
    let (mut returns, mut causes) = (Vec::new(), Vec::new());
    for inv in 0..4 {
        if inv == 2 {
            let (first, last) = (n / 8, 7 * n / 8);
            let mem = backend.mem_mut();
            mem.write(nodes + 2 * (first - 1) + 1, nodes + 2 * last)
                .unwrap();
            for i in first..last {
                mem.write(nodes + 2 * i + 1, PAST_THE_IMAGE).unwrap();
            }
        }
        let report = backend
            .run_invocation(&[head])
            .unwrap_or_else(|e| panic!("{}: invocation {inv}: {e}", backend.name()));
        if inv == 2 {
            causes = report.misspeculation_causes();
        }
        returns.push(report.return_value);
    }
    let data = backend.mem().words()[..data_end as usize].to_vec();
    (returns, causes, data)
}

/// A stale chunk that walks off the memory image: its load past the globals
/// traps on every substrate, and the squash that the main thread's walk
/// decides discards it — the trapped simulated worker is resteered, not
/// reported as an `UnrecoveredTrap`. Results and live-out memory equal the
/// interpreter's. A `StalePrediction` squash names a chunk whose start is
/// no longer in the list: an unlinked node, so a chunk that walked off.
#[test]
fn a_stale_chunk_that_walks_off_the_image_is_squashed() {
    let (returns, _, mem) = walk_off_run(&mut InterpBackend::new());
    assert!(returns.iter().all(Option::is_some));
    for choice in [BackendChoice::Native, BackendChoice::SimTiny] {
        for threads in [2usize, 4] {
            let mut backend = make_backend(choice, threads);
            let (spice_returns, causes, spice_mem) = walk_off_run(backend.as_mut());
            let name = backend.name();
            assert_eq!(spice_returns, returns, "{name} at {threads} threads");
            assert_eq!(
                spice_mem, mem,
                "{name} at {threads} threads: live-out memory"
            );
            assert!(
                causes.contains(&MisspeculationCause::StalePrediction),
                "{name} at {threads} threads: {causes:?}"
            );
        }
    }
}

/// One precedence: a validated chunk that read a stale zero divisor — a
/// word an earlier chunk wrote, so the read has a RAW witness — and then
/// divided by it squashes as a `DependenceViolation`, not as a `Fault`.
/// Natively every such chunk is recovered and the walk returns the
/// interpreter's sums. The fixture does not run on `SimTiny`: the simulator
/// does not yet defer a trap in a speculative chunk, so the trapped core is
/// never recovered and the run ends in `UnrecoveredTrap` — the first
/// substrate difference of DESIGN.md §2.
#[test]
fn a_fault_after_a_stale_read_squashes_as_a_dependence_violation() {
    use MisspeculationCause::{DependenceViolation, Fault};
    let (returns, _, mem) = forward_divisor_run(&mut InterpBackend::new());
    assert!(returns.iter().all(Option::is_some));
    for threads in [2usize, 4] {
        let (native_returns, causes, native_mem) =
            forward_divisor_run(make_backend(BackendChoice::Native, threads).as_mut());
        assert_eq!(native_returns, returns, "{threads} threads");
        assert_eq!(native_mem, mem, "{threads} threads: live-out memory");
        let violation = causes
            .iter()
            .any(|c| matches!(c, DependenceViolation { .. }));
        let fault = causes.iter().any(|c| matches!(c, Fault(_)));
        assert!(violation && !fault, "{threads} threads: {causes:?}");
    }
}

/// Nodes of the epoch-boundary list.
const EPOCH_NODES: i64 = 200;

/// `walk(head, a)`: the entry code stores `a` into word A; then, over a list
/// of two-word nodes `[value, next]`, every iteration adds `value + A + B`
/// to the sum, and the head node's iteration first stores its value into
/// word B. Returns `(program, kernel, nodes, B)`; A's address is below
/// B's, so a witness is B only if A is in no write set.
fn epoch_boundary_program() -> (Program, FuncId, i64, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", EPOCH_NODES * 2);
    let word_a = program.add_global("a", 1);
    let word_b = program.add_global("b", 1);
    let mut b = FunctionBuilder::new("epoch_boundary");
    let head = b.param();
    let a = b.param();
    let header = b.new_block();
    let body = b.new_block();
    let store_b = b.new_block();
    let sum_up = b.new_block();
    let exit = b.new_block();
    b.store(a, word_a, 0);
    let c = b.copy(head);
    let sum = b.copy(0i64);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let first = b.binop(BinOp::Eq, c, head);
    b.cond_br(first, store_b, sum_up);
    b.switch_to(store_b);
    let head_value = b.load(c, 0);
    b.store(head_value, word_b, 0);
    b.br(sum_up);
    b.switch_to(sum_up);
    let value = b.load(c, 0);
    let x = b.load(word_a, 0);
    let y = b.load(word_b, 0);
    let t = b.binop(BinOp::Add, value, x);
    let t = b.binop(BinOp::Add, t, y);
    let s = b.binop(BinOp::Add, sum, t);
    b.copy_into(sum, s);
    let next = b.load(c, 1);
    b.copy_into(c, next);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    let kernel = program.add_func(b.finish());
    (program, kernel, nodes, word_b)
}

/// Four invocations of the epoch-boundary walk on `backend`, each over the
/// same list with new values and a new `a`: the reports and the final data
/// region.
fn epoch_boundary_run(backend: &mut dyn ExecutionBackend) -> (Vec<ExecutionReport>, Vec<i64>) {
    let (program, kernel, nodes, _) = epoch_boundary_program();
    let data_end = program.data_end() as usize;
    let options = LoadOptions::new(Some(EPOCH_NODES as u64));
    backend.load(program, kernel, options).unwrap();
    let mut reports = Vec::new();
    for inv in 0..4 {
        let mem = backend.mem_mut();
        for i in 0..EPOCH_NODES {
            let addr = nodes + 2 * i;
            let next = if i + 1 < EPOCH_NODES { addr + 2 } else { 0 };
            mem.write(addr, 1000 + 37 * i + inv).unwrap();
            mem.write(addr + 1, next).unwrap();
        }
        let report = backend
            .run_invocation(&[nodes, 100 + inv])
            .unwrap_or_else(|e| panic!("{}: invocation {inv}: {e}", backend.name()));
        reports.push(report);
    }
    (reports, backend.mem().words()[..data_end].to_vec())
}

/// Both sides of the conflict epoch's opening, on every substrate: the
/// entry code's store to A precedes the release of the workers and is in no
/// write set, while the main chunk's first iteration's store to B is in its
/// write set even on a machine where it lands before any worker reads B.
/// So on invocations 1 and 2 (invocation 0's workers start from zeroed
/// rows) worker 1 is a `DependenceViolation` at B, never at A, and every
/// later worker a `SquashCascade` — and those two violations throttle
/// invocation 3 — on native threads and on every machine of
/// `verdict_machines` alike; every result equals the interpreter's. (On
/// the Table 1 machine the store to B lands before any worker begins its
/// chunk, so a rule that recorded writes only while some chunk speculates
/// would commit every worker there.)
#[test]
fn the_epoch_opens_where_the_workers_are_released() {
    use spice_core::backend::SimBackend;
    use MisspeculationCause::{DependenceViolation, SquashCascade};
    let returns = |reports: &[ExecutionReport]| -> Vec<Option<i64>> {
        reports.iter().map(|r| r.return_value).collect()
    };
    let (reports, mem) = epoch_boundary_run(&mut InterpBackend::new());
    let word_b = epoch_boundary_program().3;
    for threads in [2usize, 4] {
        let mut backends: Vec<(&str, Box<dyn ExecutionBackend>)> =
            vec![("native", make_backend(BackendChoice::Native, threads))];
        for (machine, config) in verdict_machines(threads) {
            backends.push((machine, Box::new(SimBackend::with_config(config, threads))));
        }
        for (machine, mut backend) in backends {
            let at = format!("{machine} at {threads} threads");
            let (spice_reports, spice_mem) = epoch_boundary_run(backend.as_mut());
            assert_eq!(returns(&spice_reports), returns(&reports), "{at}");
            assert_eq!(spice_mem, mem, "{at}: live-out memory");
            let mut expected = vec![Some(SquashCascade); threads - 1];
            expected[0] = Some(DependenceViolation { addr: word_b });
            for (inv, report) in spice_reports.iter().enumerate().skip(1) {
                let causes: Vec<_> = report.workers.iter().map(|w| w.cause).collect();
                let throttled = inv == 3;
                let expected = if throttled { &[][..] } else { &expected };
                assert_eq!(causes, expected, "{at}, invocation {inv}");
                assert_eq!(report.throttled, throttled, "{at}, invocation {inv}");
            }
        }
    }
}

/// Nodes of the late-release list.
const LATE_RELEASE_NODES: i64 = 150;

/// `sum(head)`: Σ `value` over a list of two-word nodes `[value, next]`.
/// Returns `(program, kernel, nodes)`.
fn list_sum_program() -> (Program, FuncId, i64) {
    let mut program = Program::new();
    let nodes = program.add_global("nodes", LATE_RELEASE_NODES * 2);
    let mut b = FunctionBuilder::new("list_sum");
    let head = b.param();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let c = b.copy(head);
    let sum = b.copy(0i64);
    b.br(header);
    b.switch_to(header);
    let done = b.binop(BinOp::Eq, c, 0i64);
    b.cond_br(done, exit, body);
    b.switch_to(body);
    let value = b.load(c, 0);
    let s = b.binop(BinOp::Add, sum, value);
    b.copy_into(sum, s);
    let next = b.load(c, 1);
    b.copy_into(c, next);
    b.br(header);
    b.switch_to(exit);
    b.ret(Some(Operand::Reg(sum)));
    let kernel = program.add_func(b.finish());
    (program, kernel, nodes)
}

/// Four invocations of the list sum over values `1..=150` on `backend`,
/// with a work estimate of 150: every `(return, work per thread)`.
fn late_release_run(backend: &mut dyn ExecutionBackend) -> Vec<(Option<i64>, Vec<u64>)> {
    let (program, kernel, nodes) = list_sum_program();
    let options = LoadOptions::new(Some(LATE_RELEASE_NODES as u64));
    backend.load(program, kernel, options).unwrap();
    let values: Vec<i64> = (1..=LATE_RELEASE_NODES).collect();
    let head = write_list(backend.mem_mut(), nodes, &values);
    (0..4)
        .map(|inv| {
            let report = backend
                .run_invocation(&[head])
                .unwrap_or_else(|e| panic!("{}: invocation {inv}: {e}", backend.name()));
            (report.return_value, report.work_per_thread)
        })
        .collect()
}

/// A worker learns both of its boundaries from its release message, never
/// from the predictor rows the main thread is memoizing into meanwhile. On
/// the reduced machine with an inter-core latency long enough that a
/// released worker begins after the main chunk has memoized this
/// invocation's boundaries, a worker that loaded its rows after its release
/// would start from the new boundary and check against a stale one, and
/// its chunk would be committed on top of the main chunk's whole walk.
/// Here every invocation returns the sum, with native's work vectors: the
/// main chunk's whole walk first (the workers were handed zeroed rows), then
/// four balanced chunks.
#[test]
fn a_late_worker_starts_from_the_rows_it_was_released_with() {
    use spice_core::backend::SimBackend;
    const THREADS: usize = 4;
    let sum = LATE_RELEASE_NODES * (LATE_RELEASE_NODES + 1) / 2;
    let expected: Vec<(Option<i64>, Vec<u64>)> = std::iter::once(vec![150, 0, 0, 0])
        .chain(std::iter::repeat_n(vec![37, 38, 37, 38], 3))
        .map(|work| (Some(sum), work))
        .collect();
    let native = late_release_run(make_backend(BackendChoice::Native, THREADS).as_mut());
    assert_eq!(native, expected, "native");
    for inter_core_latency in [1, 16, 64, 256, 1024] {
        let config = MachineConfig {
            inter_core_latency,
            ..MachineConfig::test_tiny(THREADS)
        };
        let sim = late_release_run(&mut SimBackend::with_config(config, THREADS));
        assert_eq!(sim, expected, "test_tiny at latency {inter_core_latency}");
    }
}

/// A conflict-detection grain coarser than the simulator's 64-word
/// predictor slabs would put predictor words back into one grain and
/// report violations the program does not have, so every Spice backend
/// refuses grain 2^7 at `load` with the same typed error, and accepts
/// 2^6, the coarsest grain the slabs keep apart.
#[test]
fn every_backend_refuses_a_grain_coarser_than_the_predictor_slab() {
    use spice_core::backend::SimBackend;
    use spice_ir::exec::{BackendError, MAX_CONFLICT_GRANULARITY_LOG2};
    type Make = fn() -> Box<dyn ExecutionBackend>;
    let backends: [(&str, Make); 3] = [
        ("native", || make_backend(BackendChoice::Native, 2)),
        ("SimBackend::tiny", || Box::new(SimBackend::tiny(2))),
        ("SimBackend::new", || Box::new(SimBackend::new(2))),
    ];
    for (name, make) in backends {
        let load = |granularity_log2: u8| {
            let (program, kernel, ..) = list_min_program(8);
            let options =
                LoadOptions::new(Some(8)).with_conflict_granularity_log2(granularity_log2);
            make().load(program, kernel, options)
        };
        assert_eq!(load(7), Err(BackendError::Granularity(7)), "{name}");
        assert_eq!(load(MAX_CONFLICT_GRANULARITY_LOG2), Ok(()), "{name}");
    }
}

/// A throttled invocation is narrated alike on both backends: the
/// throttle's state and a feedback with no chunk, and no chunk event —
/// every event but the simulator's machine-level ones (retires, channel
/// traffic, cache misses), compared without its time coordinate.
#[test]
fn throttled_invocations_are_narrated_alike_on_both_backends() {
    use spice_ir::TraceEvent;
    let narrations = |choice: BackendChoice| {
        let mut backend = make_backend(choice, 4);
        backend.enable_trace(1 << 20);
        let factory = spice_workloads::workload_factory("mcf_true", true).unwrap();
        let summary = run_workload_on(factory().as_mut(), backend.as_mut()).unwrap();
        assert!(
            summary.throttled_invocations > 0,
            "{choice}: nothing throttled"
        );
        let trace = backend.trace().expect("tracing on");
        let mut invocations: Vec<Vec<String>> = Vec::new();
        for event in trace.events() {
            match event {
                TraceEvent::InvocationBegin { .. } => invocations.push(Vec::new()),
                TraceEvent::Throttled { streak, skip, .. } => {
                    invocations
                        .last_mut()
                        .unwrap()
                        .push(format!("throttled {streak} {skip}"));
                }
                TraceEvent::PredictorFeedback {
                    committed,
                    squashed,
                    ..
                } => invocations
                    .last_mut()
                    .unwrap()
                    .push(format!("feedback {committed} {squashed}")),
                e if e.kind().starts_with("chunk") || e.kind() == "predictor_plan" => {
                    invocations.last_mut().unwrap().push(e.kind().to_string());
                }
                _ => {}
            }
        }
        let throttled = invocations
            .into_iter()
            .enumerate()
            .filter(|(_, events)| events.first().is_some_and(|e| e.starts_with("throttled")));
        throttled.collect::<Vec<_>>()
    };
    let sim = narrations(BackendChoice::SimTiny);
    assert_eq!(sim, narrations(BackendChoice::Native));
    for (inv, events) in &sim {
        assert_eq!(events.len(), 2, "invocation {inv}: {events:?}");
        assert_eq!(events[1], "feedback 0 0", "invocation {inv}");
    }
}
