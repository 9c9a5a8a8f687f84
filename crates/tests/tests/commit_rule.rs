//! The one ordered-commit rule against the program that simulates it.
//!
//! The simulator backend runs a generated merge chain (`spice.w<k>.*`
//! blocks), not [`CommitChain`]. On every small-suite workload at two and
//! four threads, each invocation is checked against the rule fed facts read
//! off that run's own trace:
//!
//! * the main chunk handed off iff core 0 received worker 1's status — the
//!   merge chain waits on the status of a validated worker only;
//! * a worker handed off iff it sent status 1, reached the loop's exit iff
//!   it sent 0, and was cut short if it sent none;
//! * its RAW witness is its `ChunkValidate` conflict.
//!
//! Each worker's commit or squash in the trace and the report must be the
//! rule's verdict, the report's commit count the rule's, and the trace's
//! squash causes the report's. The rule's shape is checked apart from the
//! rule itself, so a stepper that mixed up its causes fails here too: an
//! invocation's squashes after its first are all cascades.

use spice_core::SimBackend;
use spice_ir::exec::{
    BackendError, ChunkEnd, CommitChain, ExecutionBackend, ExecutionReport, LoadOptions,
    MisspeculationCause,
};
use spice_ir::interp::FlatMemory;
use spice_ir::{FuncId, Program, TraceEvent, TrapKind};
use spice_workloads::{all_workload_factories, run_workload_on};

/// Ring capacity: above the events of the longest small-suite invocation
/// (about 20k cycles on four cores), so none is evicted before it is read.
const TRACE_CAPACITY: usize = 1 << 17;

/// A worker the merge chain resteered before it reported a status stopped
/// neither at a hand-off nor at the exit.
const CUT_SHORT: ChunkEnd = ChunkEnd::Fault(TrapKind::OutOfFuel);

/// One invocation: its report and the events it traced.
struct Invocation {
    report: ExecutionReport,
    events: Vec<TraceEvent>,
}

/// The tiny-machine simulator backend, keeping every invocation's report
/// and trace slice.
struct Recorder {
    sim: SimBackend,
    invocations: Vec<Invocation>,
}

impl ExecutionBackend for Recorder {
    fn name(&self) -> &'static str {
        self.sim.name()
    }

    fn threads(&self) -> usize {
        self.sim.threads()
    }

    fn load(
        &mut self,
        program: Program,
        kernel: FuncId,
        options: LoadOptions,
    ) -> Result<(), BackendError> {
        self.sim.load(program, kernel, options)
    }

    fn mem(&self) -> &FlatMemory {
        self.sim.mem()
    }

    fn mem_mut(&mut self) -> &mut FlatMemory {
        self.sim.mem_mut()
    }

    fn run_invocation(&mut self, args: &[i64]) -> Result<ExecutionReport, BackendError> {
        let before = self.sim.trace().expect("tracing on").total();
        let report = self.sim.run_invocation(args)?;
        let trace = self.sim.trace().expect("tracing on");
        let emitted = usize::try_from(trace.total() - before).unwrap();
        assert!(emitted <= trace.len(), "the ring evicted this invocation");
        let events = trace
            .events()
            .skip(trace.len() - emitted)
            .cloned()
            .collect();
        self.invocations.push(Invocation {
            report: report.clone(),
            events,
        });
        Ok(report)
    }
}

/// What one worker's chunk did, as the trace shows it.
#[derive(Debug, PartialEq)]
enum Outcome {
    Committed,
    Squashed(MisspeculationCause),
}

/// Checks one invocation; `workers` holds each worker's core and status
/// channel, in thread order.
fn check_invocation(at: &str, workers: &[(u32, i64)], run: &Invocation) {
    let core_of = |k: usize| workers[k].0;
    let status = |k: usize| workers[k].1;
    let received = |k: usize| {
        run.events.iter().any(
            |e| matches!(e, TraceEvent::ChannelRecv { core: 0, chan, .. } if *chan == status(k)),
        )
    };
    let end = |k: usize| {
        let sent = run.events.iter().find_map(|e| match e {
            TraceEvent::ChannelSend {
                core, chan, value, ..
            } if *core == core_of(k) && *chan == status(k) => Some(*value),
            _ => None,
        });
        match sent {
            Some(1) => ChunkEnd::Handoff,
            Some(0) => ChunkEnd::Exit,
            Some(v) => panic!("{at}: worker {k} sent status {v}"),
            None => CUT_SHORT,
        }
    };
    let witness = |k: usize| {
        run.events.iter().find_map(|e| match e {
            TraceEvent::ChunkValidate { core, conflict, .. } if *core == core_of(k) => *conflict,
            _ => None,
        })
    };
    let traced = |k: usize| {
        let outcomes: Vec<Outcome> = run
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ChunkCommit { core, .. } if *core == core_of(k) => {
                    Some(Outcome::Committed)
                }
                TraceEvent::ChunkSquash { core, cause, .. } if *core == core_of(k) => {
                    Some(Outcome::Squashed(*cause))
                }
                _ => None,
            })
            .collect();
        match <[Outcome; 1]>::try_from(outcomes) {
            Ok([outcome]) => outcome,
            Err(outcomes) => panic!("{at}: worker {k} resolved as {outcomes:?}"),
        }
    };

    let main_end = if received(0) {
        ChunkEnd::Handoff
    } else {
        ChunkEnd::Exit
    };
    let mut chain = CommitChain::new(main_end);
    let mut committed = 0;
    for (k, worker) in run.report.workers.iter().enumerate() {
        let verdict = chain.judge(end(k), witness(k));
        let expected = verdict.map_or(Outcome::Committed, Outcome::Squashed);
        committed += usize::from(verdict.is_none());
        assert_eq!(traced(k), expected, "{at}: worker {k} in the trace");
        assert_eq!(worker.cause, verdict, "{at}: worker {k} in the report");
    }
    assert_eq!(run.report.committed_chunks, committed, "{at}");

    let squashes: Vec<MisspeculationCause> = run
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ChunkSquash { cause, .. } => Some(*cause),
            _ => None,
        })
        .collect();
    assert_eq!(squashes, run.report.misspeculation_causes(), "{at}");
    for (i, cause) in squashes.iter().enumerate() {
        let cascade = *cause == MisspeculationCause::SquashCascade;
        assert_eq!(cascade, i > 0, "{at}: squash {i} of {squashes:?}");
    }
}

#[test]
fn merge_chain_commits_what_the_commit_rule_judges() {
    let mut causes = Vec::new();
    for threads in [2, 4] {
        for (name, factory) in all_workload_factories(true) {
            let mut sim = SimBackend::tiny(threads);
            sim.enable_trace(TRACE_CAPACITY);
            let mut recorder = Recorder {
                sim,
                invocations: Vec::new(),
            };
            run_workload_on(factory().as_mut(), &mut recorder).unwrap_or_else(|e| panic!("{e}"));
            let runner = recorder.sim.runner().expect("a Spice run");
            let workers: Vec<(u32, i64)> = runner
                .spice()
                .workers
                .iter()
                .map(|w| (u32::try_from(w.core).unwrap(), w.channels.status))
                .collect();
            for (inv, run) in recorder.invocations.iter().enumerate() {
                let at = format!("{name} at {threads} threads, invocation {inv}");
                check_invocation(&at, &workers, run);
                causes.extend(run.report.misspeculation_causes());
            }
        }
    }
    // The suite exercises every cause the simulator can name.
    for needed in [
        MisspeculationCause::StalePrediction,
        MisspeculationCause::SquashCascade,
    ] {
        assert!(causes.contains(&needed), "no {needed:?} in the suite");
    }
    assert!(causes
        .iter()
        .any(|c| matches!(c, MisspeculationCause::DependenceViolation { .. })));
}
