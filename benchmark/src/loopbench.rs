//! The five loop-driven workloads: a list of (loop, execution mode) cells
//! run back to back.
//!
//! Untraced passes call the production entry points (`prepare_sweep` +
//! `run_prepared_sweep`, `run_workload_backend`). Traced passes run the
//! benchmark's own drive loop over the same public calls with a span around
//! each call into a layer; they must reproduce the untraced cycles and
//! return values exactly.

use std::time::Instant;

use spice_bench::experiments::{
    prepare_sweep, run_prepared_sweep, run_workload_backend, SweepMode, SweepPrep, WorkloadFactory,
};
use spice_core::backend::{BackendChoice, SimBackend};
use spice_core::predictor::PredictorOptions;
use spice_ir::exec::{ExecutionBackend, ExecutionReport, MisspeculationCause};
use spice_ir::interp::FlatMemory;
use spice_ir::{DecodedProgram, FuncId};
use spice_runtime::NativeLoopBackend;
use spice_sim::{Machine, RunSummary};
use spice_workloads::{workload_load_options, DEFAULT_WORKLOAD_HEAP_WORDS};

use crate::loops::{self, Inputs};
use crate::measure::{Spans, NO_CELL};
use crate::Outcome;

/// Threads of the native workload: main + one worker (plus the mostly idle
/// predictor thread), so no more threads are busy than the 2-core reference
/// host has cores.
const NATIVE_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Sim(SweepMode),
    Native,
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::Sim(m) => m.label(),
            Mode::Native => format!("native{NATIVE_THREADS}"),
        }
    }
}

pub struct Cell {
    pub bench: &'static str,
    pub mode: Mode,
    factory: WorkloadFactory,
    /// Invocations one job of this cell drives (its operations).
    invocations: u64,
    /// The shared preparation (sim cells), built by `setup`.
    prep: Option<SweepPrep>,
}

pub struct LoopBench {
    pub cells: Vec<Cell>,
}

/// Exact simulated statistics and native-runtime counts of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub invocations: u64,
    pub cycles: u64,
    pub retired: u64,
    pub mem_stall_cycles: u64,
    pub recv_stall_cycles: u64,
    pub idle_cycles: u64,
    pub loads: u64,
    pub stores: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    pub memory_accesses: u64,
    pub spec_commits: u64,
    pub spec_aborts: u64,
    pub spec_conflicts: u64,
    /// Speculative invocations (Spice and native cells).
    pub spec_invocations: u64,
    pub misspeculated_invocations: u64,
    pub committed_chunks: u64,
    pub squashed_chunks: u64,
    pub dependence_violations: u64,
    /// Per-invocation per-thread work of every Spice cell, for the shared
    /// imbalance definition.
    pub work_per_thread: Vec<Vec<u64>>,
    /// Σ of the native backend's own `WallNanos` invocation costs.
    pub native_invocation_nanos: u128,
}

impl Counts {
    fn add_summary(&mut self, s: &RunSummary) {
        self.cycles += s.cycles;
        for c in &s.cores {
            self.retired += c.retired;
            self.mem_stall_cycles += c.mem_stall_cycles;
            self.recv_stall_cycles += c.recv_stall_cycles;
            self.idle_cycles += c.idle_cycles;
            self.loads += c.mem.loads;
            self.stores += c.mem.stores;
            self.l1_hits += c.mem.l1_hits;
            self.l2_hits += c.mem.l2_hits;
            self.l3_hits += c.mem.l3_hits;
            self.memory_accesses += c.mem.memory_accesses;
            self.spec_commits += c.spec_commits;
            self.spec_aborts += c.spec_aborts;
            self.spec_conflicts += c.spec_conflicts;
        }
    }

    fn add_report(&mut self, r: &ExecutionReport) {
        self.spec_invocations += 1;
        self.misspeculated_invocations += u64::from(r.misspeculated);
        self.committed_chunks += r.committed_chunks as u64;
        self.squashed_chunks += r.squashed_chunks as u64;
        self.dependence_violations += r
            .misspeculation_causes()
            .iter()
            .filter(|c| matches!(c, MisspeculationCause::DependenceViolation { .. }))
            .count() as u64;
    }
}

/// What the traced drive loop runs a cell's invocations on. One lives at a
/// time, on the stack, as in the production loops; boxing it would add an
/// allocation to the instantiate span.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Sequential(Machine, FuncId),
    Spice(SimBackend),
    Native(NativeLoopBackend),
}

impl Engine {
    fn mem(&self) -> &FlatMemory {
        match self {
            Engine::Sequential(m, _) => m.mem(),
            Engine::Spice(b) => b.mem(),
            Engine::Native(b) => b.mem(),
        }
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        match self {
            Engine::Sequential(m, _) => m.mem_mut(),
            Engine::Spice(b) => b.mem_mut(),
            Engine::Native(b) => b.mem_mut(),
        }
    }

    /// One invocation, with a span around each layer call. These are the
    /// calls `run_sequential`, `SimBackend::run_invocation` and
    /// `drive_loaded_workload` make, in the same order.
    fn invoke(
        &mut self,
        args: &[i64],
        spans: &mut Spans,
        counts: &mut Counts,
    ) -> Result<Option<i64>, String> {
        match self {
            Engine::Sequential(machine, kernel) => {
                spans
                    .time("core.start_invocation", || {
                        machine.clear_threads();
                        machine.reset_cycle_counter();
                        machine.spawn(0, *kernel, args)
                    })
                    .map_err(|e| e.to_string())?;
                let summary = spans
                    .time("sim.run", || machine.run())
                    .map_err(|e| e.to_string())?;
                counts.add_summary(&summary);
                Ok(machine.return_value(0))
            }
            Engine::Spice(backend) => {
                let (runner, machine) = backend.parts_mut().expect("loaded from a preparation");
                spans
                    .time("core.start_invocation", || {
                        runner.start_invocation(machine, args)
                    })
                    .map_err(|e| e.to_string())?;
                let report = spans
                    .time("sim.run", || runner.finish_invocation(machine))
                    .map_err(|e| e.to_string())?;
                let worker_cores: Vec<usize> =
                    runner.spice().workers.iter().map(|w| w.core).collect();
                counts.add_summary(&report.summary);
                counts.add_report(&report.to_execution_report(&worker_cores));
                counts.work_per_thread.push(report.work);
                Ok(report.return_value)
            }
            Engine::Native(backend) => {
                let report = spans
                    .time("runtime.run_invocation", || backend.run_invocation(args))
                    .map_err(|e| e.to_string())?;
                counts.add_report(&report);
                counts.native_invocation_nanos += report.cost.magnitude();
                Ok(report.return_value)
            }
        }
    }
}

impl LoopBench {
    pub fn new(workload: &str, inputs: Inputs) -> Option<Self> {
        use SweepMode::{Sequential, Spice};
        let sim = |benches: &[&'static str], modes: &[SweepMode]| -> Vec<(&'static str, Mode)> {
            benches
                .iter()
                .flat_map(|b| modes.iter().map(move |m| (*b, Mode::Sim(*m))))
                .collect()
        };
        let spice4 = [Spice { threads: 4 }];
        let plan = match workload {
            "seq-long" => sim(&["ks", "otter", "181.mcf", "mcf_app"], &[Sequential]),
            "spice4-clean" => sim(&["ks", "otter", "181.mcf"], &spice4),
            "spice4-conflict" => sim(&["mcf_true", "list_splice", "mcf_app"], &spice4),
            "short-invocations" => sim(&["458.sjeng"], &SweepMode::ALL),
            "native-2t" => loops::ALL.iter().map(|b| (*b, Mode::Native)).collect(),
            _ => return None,
        };
        let cells = plan
            .into_iter()
            .map(|(bench, mode)| {
                let factory = loops::factory(bench, inputs);
                let invocations = factory().invocations() as u64;
                Cell {
                    bench,
                    mode,
                    factory,
                    invocations,
                    prep: None,
                }
            })
            .collect();
        Some(LoopBench { cells })
    }

    pub fn cell_labels(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| format!("{}/{}", c.bench, c.mode.label()))
            .collect()
    }

    /// One repetition of the one-time preparation; returns
    /// `(whole repetition, the core/runtime layer's part)` in seconds. Sim
    /// cells keep the preparation for the passes; the native backend has
    /// nothing to share, so its load is repeated by every pass as well.
    pub fn setup(&mut self) -> Result<(f64, f64), String> {
        let started = Instant::now();
        let mut layer = 0.0;
        for cell in &mut self.cells {
            match cell.mode {
                Mode::Sim(mode) => {
                    let t = Instant::now();
                    cell.prep = Some(prepare_sweep(&cell.factory, mode, false, 0)?);
                    layer += t.elapsed().as_secs_f64();
                }
                Mode::Native => {
                    let mut wl = (cell.factory)();
                    let built = wl.build();
                    let options = workload_load_options(wl.as_ref(), &built);
                    let mut backend = NativeLoopBackend::new(NATIVE_THREADS);
                    let t = Instant::now();
                    backend
                        .load(built.program, built.kernel, options)
                        .map_err(|e| e.to_string())?;
                    layer += t.elapsed().as_secs_f64();
                }
            }
        }
        Ok((started.elapsed().as_secs_f64(), layer))
    }

    /// One pass through the production entry points.
    pub fn pass(&self) -> Outcome {
        let mut out = Outcome::default();
        let started = Instant::now();
        for cell in &self.cells {
            out.attempted += cell.invocations;
            let run = match cell.mode {
                Mode::Sim(_) => {
                    let prep = cell.prep.as_ref().expect("setup ran");
                    run_prepared_sweep(&cell.factory, prep)
                        .map(|r| (r.cycles, r.summary.map(|s| s.return_values)))
                }
                Mode::Native => run_workload_backend(
                    (cell.factory)().as_mut(),
                    BackendChoice::Native,
                    NATIVE_THREADS,
                    PredictorOptions::default(),
                )
                .map(|s| (0, Some(s.return_values))),
            };
            match run {
                Ok((cycles, returns)) => {
                    out.cycles.push(cycles);
                    out.returns.push(returns);
                }
                // The production loop stops at the first mismatch, so every
                // operation of the job counts as failed.
                Err(e) => {
                    out.failed += cell.invocations;
                    out.errors.push(e);
                    out.cycles.push(0);
                    out.returns.push(None);
                }
            }
        }
        out.seconds = started.elapsed().as_secs_f64();
        out
    }

    /// One pass through the span-instrumented drive loop.
    pub fn traced_pass(&self, spans: &mut Spans, counts: &mut Counts) -> Outcome {
        let mut out = Outcome::default();
        spans.enter("pass");
        for (i, cell) in self.cells.iter().enumerate() {
            spans.cell = i as u16;
            spans.enter("cell");
            out.attempted += cell.invocations;
            let before = counts.cycles;
            let mut returns = Vec::new();
            match self.traced_cell(cell, spans, counts, &mut returns) {
                Ok(mismatches) => {
                    out.failed += mismatches.len() as u64;
                    out.errors.extend(mismatches);
                }
                Err(e) => {
                    out.failed += cell.invocations - returns.len() as u64;
                    out.errors.push(format!("{}: {e}", cell.bench));
                }
            }
            out.cycles.push(counts.cycles - before);
            out.returns.push(Some(returns));
            let _ = spans.exit();
        }
        spans.cell = NO_CELL;
        out.seconds = spans.exit();
        out
    }

    /// Drives one job of `cell`; returns the result mismatches (each a
    /// failed operation), or the error that aborted the job.
    fn traced_cell(
        &self,
        cell: &Cell,
        spans: &mut Spans,
        counts: &mut Counts,
        returns: &mut Vec<Option<i64>>,
    ) -> Result<Vec<String>, String> {
        let (mut wl, built) = spans.time("workloads.construct", || {
            let mut wl = (cell.factory)();
            let built = wl.build();
            (wl, built)
        });
        let mut engine = match cell.mode {
            Mode::Sim(_) => {
                // The shared preparation already holds the decoded program.
                drop(built);
                let prep = cell.prep.as_ref().expect("setup ran");
                spans.time("core.instantiate", || {
                    if prep.prepared.is_spice() {
                        Engine::Spice(SimBackend::from_prepared(&prep.prepared))
                    } else {
                        Engine::Sequential(prep.prepared.machine(), prep.kernel)
                    }
                })
            }
            Mode::Native => {
                let options = workload_load_options(wl.as_ref(), &built);
                let mut backend = NativeLoopBackend::new(NATIVE_THREADS);
                spans
                    .time("runtime.load", || {
                        backend.load(built.program, built.kernel, options)
                    })
                    .map_err(|e| e.to_string())?;
                Engine::Native(backend)
            }
        };
        let mut args = spans.time("workloads.init", || wl.init(engine.mem_mut()));
        let mut mismatches = Vec::new();
        let mut inv = 0usize;
        loop {
            let expected = spans.time("workloads.expected_result", || {
                wl.expected_result(engine.mem())
            });
            let got = engine.invoke(&args, spans, counts)?;
            counts.invocations += 1;
            returns.push(got);
            if let Some(e) = expected {
                if got != Some(e) {
                    mismatches.push(format!(
                        "{}/{}: returned {got:?}, expected {e} (invocation {inv})",
                        cell.bench,
                        cell.mode.label()
                    ));
                }
            }
            let next = spans.time("workloads.next_invocation", || {
                wl.next_invocation(engine.mem_mut(), inv)
            });
            match next {
                Some(a) => {
                    args = a;
                    inv += 1;
                }
                None => break,
            }
        }
        spans.time("core.teardown", || drop((engine, wl)));
        Ok(mismatches)
    }

    /// Host seconds `DecodedProgram::try_new` takes over every cell's
    /// program (the transformed one for Spice cells).
    pub fn decode_seconds(&self) -> f64 {
        let mut total = 0.0;
        for cell in &self.cells {
            let machine;
            let built;
            let program = match &cell.prep {
                Some(prep) => {
                    machine = prep.prepared.machine();
                    machine.program()
                }
                None => {
                    built = (cell.factory)().build();
                    &built.program
                }
            };
            let t = Instant::now();
            let decoded = DecodedProgram::try_new(program);
            total += t.elapsed().as_secs_f64();
            assert!(decoded.is_ok(), "{}: program does not decode", cell.bench);
        }
        total
    }

    /// The same invocations on the plain interpreter (`run_function`:
    /// decoded dispatch with no timing model and no speculation). Returns
    /// `(seconds inside run_function, instructions retired)`.
    pub fn interp_pass(&self) -> Result<(f64, u64), String> {
        let mut seconds = 0.0;
        let mut retired = 0u64;
        for cell in &self.cells {
            let mut wl = (cell.factory)();
            let built = wl.build();
            let mut mem = FlatMemory::for_program(&built.program, DEFAULT_WORKLOAD_HEAP_WORDS);
            let mut args = wl.init(&mut mem);
            let mut inv = 0usize;
            loop {
                let t = Instant::now();
                let out =
                    spice_ir::interp::run_function(&built.program, built.kernel, &args, &mut mem)
                        .map_err(|e| format!("{}: interpreter trapped: {e}", cell.bench))?;
                seconds += t.elapsed().as_secs_f64();
                retired += out.stats.total;
                match wl.next_invocation(&mut mem, inv) {
                    Some(a) => {
                        args = a;
                        inv += 1;
                    }
                    None => break,
                }
            }
        }
        Ok((seconds, retired))
    }

    /// Σ sequential cycles ÷ Σ Spice cycles over the Spice cells, the
    /// sequential side simulated once here, outside any timed pass. `None`
    /// when the workload has no Spice cell.
    pub fn speedup(&self, pass_cycles: &[u64]) -> Result<Option<f64>, String> {
        let mut sequential = 0u64;
        let mut spice = 0u64;
        let mut reference: Vec<(&str, u64)> = Vec::new();
        for (cell, cycles) in self.cells.iter().zip(pass_cycles) {
            if !matches!(cell.mode, Mode::Sim(SweepMode::Spice { .. })) {
                continue;
            }
            let seq = match reference.iter().find(|(b, _)| *b == cell.bench) {
                Some((_, c)) => *c,
                None => {
                    let prep = prepare_sweep(&cell.factory, SweepMode::Sequential, false, 0)?;
                    let c = run_prepared_sweep(&cell.factory, &prep)?.cycles;
                    reference.push((cell.bench, c));
                    c
                }
            };
            sequential += seq;
            spice += cycles;
        }
        Ok((spice > 0).then(|| sequential as f64 / spice as f64))
    }
}
