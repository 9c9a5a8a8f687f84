//! The one ordered-commit rule against the program that simulates it.
//!
//! The simulator backend runs a generated merge chain (`spice.w<k>.*`
//! blocks), not [`CommitChain`]. On every small-suite workload at two and
//! four threads, on each machine of `verdict_machines`, each invocation is
//! checked against the rule fed facts read off that run's own trace:
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
//!
//! The dependence-violation throttle is pinned the same way: a host
//! [`Throttle`] is stepped over the reports, and after every invocation the
//! generated `streak` and `skip` words, read back from simulated memory,
//! must be its state; the report says an invocation was throttled exactly
//! when the host rule throttles it, and a throttled invocation traces no
//! chunk and no squash.

use spice_core::predictor::read_throttle;
use spice_core::SimBackend;
use spice_ir::exec::{
    BackendError, ChunkEnd, CommitChain, ExecutionBackend, ExecutionReport, LoadOptions,
    MisspeculationCause, Throttle,
};
use spice_ir::interp::FlatMemory;
use spice_ir::{FuncId, Program, TraceEvent, TrapKind};
use spice_workloads::{all_workload_factories, run_workload_on, SpiceWorkload};

mod machines;
use machines::verdict_machines;

/// Ring capacity: above the events of the longest small-suite invocation on
/// any of the machines (about 20k cycles on four cores of the reduced one),
/// so none is evicted before it is read.
const TRACE_CAPACITY: usize = 1 << 17;

/// A worker the merge chain resteered before it reported a status stopped
/// neither at a hand-off nor at the exit.
const CUT_SHORT: ChunkEnd = ChunkEnd::Fault(TrapKind::OutOfFuel);

/// One invocation: its report, the events it traced and the throttle's
/// words after it.
struct Invocation {
    report: ExecutionReport,
    events: Vec<TraceEvent>,
    throttle: Throttle,
}

/// A simulator backend, keeping every invocation's report
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
        let layout = &self.sim.runner().expect("a Spice run").spice().layout;
        let throttle = read_throttle(layout, self.sim.mem())?;
        self.invocations.push(Invocation {
            report: report.clone(),
            events,
            throttle,
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

/// Steps the host throttle over one invocation and checks the report and
/// the generated words against it. Returns whether it throttled.
fn check_throttle(at: &str, host: &mut Throttle, run: &Invocation) -> bool {
    let throttled = host.throttles();
    assert_eq!(run.report.throttled, throttled, "{at}: throttle decision");
    if throttled {
        assert!(
            run.report.workers.is_empty(),
            "{at}: a throttled invocation tasked chunks"
        );
        let chunks = run.events.iter().filter(|e| {
            matches!(
                e,
                TraceEvent::ChunkBegin { .. } | TraceEvent::ChunkSquash { .. }
            )
        });
        assert_eq!(
            chunks.count(),
            0,
            "{at}: a throttled invocation traced a chunk"
        );
    } else {
        host.observe(run.report.workers.first().and_then(|w| w.cause));
    }
    assert_eq!(run.throttle, *host, "{at}: the generated streak/skip words");
    throttled
}

/// Runs `workload` on `sim` with tracing on and checks every invocation;
/// returns the squash causes of the run and how many it throttled.
fn check_run(
    at: &str,
    mut sim: SimBackend,
    workload: &mut dyn SpiceWorkload,
) -> (Vec<MisspeculationCause>, usize) {
    sim.enable_trace(TRACE_CAPACITY);
    let mut recorder = Recorder {
        sim,
        invocations: Vec::new(),
    };
    run_workload_on(workload, &mut recorder).unwrap_or_else(|e| panic!("{at}: {e}"));
    let runner = recorder.sim.runner().expect("a Spice run");
    let workers: Vec<(u32, i64)> = runner
        .spice()
        .workers
        .iter()
        .map(|w| (u32::try_from(w.core).unwrap(), w.channels.status))
        .collect();
    let mut causes = Vec::new();
    let (mut host, mut throttled) = (Throttle::default(), 0);
    for (inv, run) in recorder.invocations.iter().enumerate() {
        let at = format!("{at}, invocation {inv}");
        check_invocation(&at, &workers, run);
        throttled += usize::from(check_throttle(&at, &mut host, run));
        causes.extend(run.report.misspeculation_causes());
    }
    (causes, throttled)
}

#[test]
fn merge_chain_commits_what_the_commit_rule_judges() {
    let (mut causes, mut throttled) = (Vec::new(), 0);
    for threads in [2, 4] {
        for (machine, config) in verdict_machines(threads) {
            for (name, factory) in all_workload_factories(true) {
                let at = format!("{name} on {machine} at {threads} threads");
                let sim = SimBackend::with_config(config.clone(), threads);
                let (run_causes, run_throttled) = check_run(&at, sim, factory().as_mut());
                causes.extend(run_causes);
                throttled += run_throttled;
            }
        }
    }
    assert!(throttled > 0, "the suite never throttled an invocation");
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
