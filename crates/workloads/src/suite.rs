//! The benchmark suite every table and figure runs, and the synthetic
//! whole-application corpus behind Figure 8.
//!
//! The suite is one ordered table of seven benchmarks, each declared once
//! at both sizes ([`all_workload_factories`]): the paper's four loops, the
//! two conflict-carrying loops and the `mcf_app` miniature application.
//!
//! For Figure 8 the paper profiles the SPEC integer and Mediabench suites
//! (plus a few pointer-intensive programs) for loop live-in predictability
//! across invocations and bins each loop by the percentage of its
//! invocations that are predictable. Those program suites cannot be
//! redistributed here, so the corpus is synthetic: every named benchmark is
//! modelled as a small set of pointer-chasing loops whose *invocation
//! predictability* is controlled directly (see `DESIGN.md`, substitutions).
//! The profiler machinery that measures them is identical to the paper's
//! (signatures, sampling, thresholding); only the programs are stand-ins.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, Operand, Program};

use crate::arena::{ListMirror, RecordArena};
use crate::conflict::{ConflictConfig, ConflictListWorkload};
use crate::ks::{KsConfig, KsWorkload};
use crate::mcf::{McfConfig, McfWorkload};
use crate::mcf_app::{McfAppConfig, McfAppWorkload};
use crate::otter::{OtterConfig, OtterWorkload};
use crate::sjeng::{SjengConfig, SjengWorkload};
use crate::{BuiltKernel, SpiceWorkload};

/// Factory for a fresh instance of one suite benchmark. `Send + Sync` so a
/// sweep engine can construct workloads from any host thread.
pub type WorkloadFactory = Box<dyn Fn() -> Box<dyn SpiceWorkload> + Send + Sync>;

/// Builds one suite benchmark: its reduced configuration when passed
/// `small = true`, its full-size one otherwise.
type Build = fn(bool) -> Box<dyn SpiceWorkload>;

/// The suite, in artifact row order: each benchmark's name and builder.
///
/// The full sizes put each paper loop's traversed structure at or past the
/// 256 KB L2 of the Table 1 machine — ks 6000×3 words ≈ 144 KB, otter
/// 8000×2 ≈ 128 KB, mcf 6000×6 ≈ 288 KB — the regime the paper's loops run
/// in, where the pointer-chasing load dominates each iteration. The small
/// sizes keep tests fast.
const BENCHMARKS: [(&str, Build); 7] = [
    ("ks", |small| {
        Box::new(KsWorkload::new(KsConfig {
            modules: if small { 150 } else { 6_000 },
            invocations: if small { 10 } else { 14 },
            d_updates_per_invocation: 8,
            seed: 0x6b73,
        }))
    }),
    ("otter", |small| {
        Box::new(OtterWorkload::new(OtterConfig {
            initial_len: if small { 130 } else { 8_000 },
            inserts_per_invocation: 3,
            invocations: if small { 10 } else { 14 },
            seed: 0x07734,
        }))
    }),
    ("181.mcf", |small| {
        Box::new(McfWorkload::new(McfConfig {
            nodes: if small { 160 } else { 6_000 },
            invocations: if small { 10 } else { 14 },
            cost_updates_per_invocation: 12,
            reparents_per_invocation: 2,
            seed: 0x6d6366,
        }))
    }),
    ("458.sjeng", |small| {
        Box::new(SjengWorkload::new(SjengConfig {
            pieces: if small { 24 } else { 64 },
            invocations: if small { 20 } else { 60 },
            mutate_probability: if small { 0.30 } else { 0.12 },
            seed: 0x736a,
        }))
    }),
    // The faithful `refresh_potential_true` kernel: every node's potential
    // chained through `pred->potential`.
    ("mcf_true", |small| {
        Box::new(McfWorkload::new_faithful(McfConfig {
            nodes: if small { 140 } else { 2_000 },
            invocations: if small { 8 } else { 10 },
            cost_updates_per_invocation: if small { 4 } else { 8 },
            reparents_per_invocation: 1,
            seed: 0x6d63_6601,
        }))
    }),
    // Writers hit successors' read regions at `conflict_rate`.
    ("list_splice", |small| {
        Box::new(ConflictListWorkload::new(ConflictConfig {
            len: if small { 150 } else { 3_000 },
            invocations: if small { 10 } else { 12 },
            conflict_rate: 0.1,
            seed: 0x59_11CE,
        }))
    }),
    // ~0.6 candidate arcs per node at full size, calibrated so the measured
    // whole-program profile sits in the real application's regime (refresh
    // loop ≈ a quarter of all cycles; the remainder is arc pricing and the
    // full-tree relink — DESIGN.md §3.5 puts the measured value next to the
    // paper's 30%).
    ("mcf_app", |small| {
        Box::new(McfAppWorkload::new(McfAppConfig {
            nodes: if small { 120 } else { 2_500 },
            arcs: if small { 150 } else { 1_500 },
            pivots: if small { 8 } else { 10 },
            seed: 0x6d63_6661,
        }))
    }),
];

/// `(name, factory)` pairs for the suite at one size, in artifact row
/// order. Each factory builds only its own benchmark.
///
/// The set is the paper's four loops (Table 2 / Figure 7); the
/// conflict-carrying pair the memory-dependence speculation subsystem
/// unlocks (`mcf_true` and the adversarial `list_splice`), which *require*
/// `ConflictPolicy::Detect` to stay bit-identical to sequential execution;
/// and the `mcf_app` miniature application, a whole program whose serial
/// pivot phases execute as measured IR around the Spice target loop, so
/// Table 2's hotness for it is profiler-measured. The last three run
/// through the same tables and cross-checks as the paper loops; their value
/// is correctness under squash-and-recover, not speedup — their fig7 rows
/// document recovery cost.
#[must_use]
pub fn all_workload_factories(small: bool) -> Vec<(&'static str, WorkloadFactory)> {
    BENCHMARKS
        .iter()
        .map(|&(name, build)| {
            let factory: WorkloadFactory = Box::new(move || build(small));
            (name, factory)
        })
        .collect()
}

/// The factory of the suite benchmark `name` at one size.
///
/// # Errors
///
/// Returns a message listing the suite's names when `name` is not one of
/// them.
pub fn workload_factory(name: &str, small: bool) -> Result<WorkloadFactory, String> {
    let Some(&(_, build)) = BENCHMARKS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = BENCHMARKS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown benchmark {name:?} (expected one of {})",
            names.join(", ")
        ));
    };
    Ok(Box::new(move || build(small)))
}

const VALUE: i64 = 0;
const NEXT: i64 = 1;
const RECORD_WORDS: i64 = 2;

/// A loop whose live-in predictability across invocations is controlled by
/// construction: with probability `predictability` an invocation keeps the
/// list almost unchanged (its live-ins repeat), otherwise the whole list is
/// rebuilt (nothing repeats).
#[derive(Debug, Clone)]
pub struct ChurnListWorkload {
    name: &'static str,
    predictability: f64,
    len: usize,
    invocations: usize,
    arena: Option<RecordArena>,
    list: ListMirror,
    rng: StdRng,
}

impl ChurnListWorkload {
    /// Creates a loop with the given target invocation predictability.
    #[must_use]
    pub fn new(
        name: &'static str,
        predictability: f64,
        len: usize,
        invocations: usize,
        seed: u64,
    ) -> Self {
        ChurnListWorkload {
            name,
            predictability: predictability.clamp(0.0, 1.0),
            len,
            invocations,
            arena: None,
            list: ListMirror::new(NEXT),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    fn rebuild(&mut self, mem: &mut FlatMemory) {
        // Allocate a fresh generation of nodes *before* releasing the old one
        // so the new list occupies different addresses — a rebuild must
        // destroy cross-invocation value locality, and the arena would
        // otherwise recycle the very same slots.
        let old: Vec<usize> = self.list.order.clone();
        self.list = ListMirror::new(NEXT);
        let values: Vec<i64> = (0..self.len)
            .map(|_| self.rng.gen_range(0..10_000))
            .collect();
        {
            let arena = self.arena.as_mut().expect("built");
            for v in values {
                if let Some(slot) = arena.alloc() {
                    arena.write(mem, slot, VALUE, v).expect("in bounds");
                    self.list.insert_at(usize::MAX, slot);
                }
            }
            for s in old {
                arena.release(s);
            }
        }
        self.list.relink(self.arena(), mem).expect("in bounds");
    }

    fn args(&self) -> Vec<i64> {
        vec![self.list.head_addr(self.arena())]
    }
}

impl SpiceWorkload for ChurnListWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        "synthetic pointer-chasing loop with controlled predictability"
    }

    fn loop_name(&self) -> &'static str {
        "list_walk"
    }

    fn paper_hotness(&self) -> f64 {
        0.0
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        // A pure pointer-chasing sum: no stores inside the loop.
        spice_ir::exec::ConflictPolicy::AssumeIndependent
    }

    fn build(&mut self) -> BuiltKernel {
        let mut program = Program::new();
        // Double capacity: a rebuild momentarily needs a second generation of
        // nodes before the old ones are recycled.
        let capacity = self.len * 2 + 4;
        let base = program.add_global(
            format!("{}.nodes", self.name),
            RecordArena::words_needed(RECORD_WORDS, capacity),
        );
        self.arena = Some(RecordArena::new(base, RECORD_WORDS, capacity));

        let mut b = FunctionBuilder::new(format!("{}.list_walk", self.name));
        let head = b.param();
        let pre = b.new_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let c = b.copy(head);
        let sum = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);
        b.switch_to(body);
        let v = b.load(c, VALUE);
        let s = b.binop(BinOp::Add, sum, v);
        b.copy_into(sum, s);
        let n = b.load(c, NEXT);
        b.copy_into(c, n);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(sum)));
        let kernel = program.add_func(b.finish());
        BuiltKernel {
            program,
            kernel,
            loop_header_hint: None,
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        self.rebuild(mem);
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        if invocation + 1 >= self.invocations {
            return None;
        }
        if self.rng.gen_bool(1.0 - self.predictability) {
            self.rebuild(mem);
        } else {
            // Light churn: one node's payload changes, addresses survive.
            if !self.list.is_empty() {
                let idx = self.rng.gen_range(0..self.list.len());
                let slot = self.list.order[idx];
                let v = self.rng.gen_range(0..10_000);
                self.arena().write(mem, slot, VALUE, v).expect("in bounds");
            }
        }
        Some(self.args())
    }

    fn expected_result(&self, mem: &FlatMemory) -> Option<i64> {
        let arena = self.arena();
        Some(
            self.list
                .order
                .iter()
                .map(|&s| arena.read(mem, s, VALUE).expect("in bounds"))
                .sum(),
        )
    }

    fn expected_iterations(&self) -> u64 {
        self.len as u64
    }

    fn invocations(&self) -> usize {
        self.invocations
    }
}

/// Which suite a corpus entry belongs to (the two panels of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC integer benchmarks (Figure 8a).
    SpecInt,
    /// Mediabench and other pointer-intensive programs (Figure 8b).
    MediabenchAndOthers,
}

/// One benchmark of the Figure 8 corpus: a name and the target invocation
/// predictability of each of its profiled loops.
#[derive(Debug, Clone)]
pub struct SuiteBenchmark {
    /// Benchmark name (as it appears on the Figure 8 x-axis).
    pub name: &'static str,
    /// Which panel it belongs to.
    pub suite: Suite,
    /// Target predictability of each profiled loop (empty = no predictable
    /// loops, rendered as a missing bar in the figure).
    pub loop_predictability: Vec<f64>,
}

impl SuiteBenchmark {
    /// Instantiates the workloads for this benchmark's loops.
    #[must_use]
    pub fn workloads(&self, invocations: usize, list_len: usize) -> Vec<ChurnListWorkload> {
        self.loop_predictability
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                ChurnListWorkload::new(
                    self.name,
                    p,
                    list_len,
                    invocations,
                    0x5EED_0000 + (i as u64) * 977 + self.name.len() as u64,
                )
            })
            .collect()
    }
}

/// The Figure 8 corpus. Loop predictability targets are chosen so the binned
/// output reproduces the qualitative shape of the figure: most benchmarks
/// have a sizable fraction of loops with good-to-high predictability,
/// compression codecs sit lower, and a few show none at all.
#[must_use]
pub fn fig8_corpus() -> Vec<SuiteBenchmark> {
    use Suite::{MediabenchAndOthers as MB, SpecInt as SI};
    let b = |name, suite, loops: &[f64]| SuiteBenchmark {
        name,
        suite,
        loop_predictability: loops.to_vec(),
    };
    vec![
        b("008.espresso", SI, &[0.9, 0.6, 0.3]),
        b("052.alvinn", SI, &[0.95, 0.9]),
        b("056.ear", SI, &[0.9, 0.85]),
        b("124.m88ksim", SI, &[0.8, 0.55, 0.2]),
        b("129.compress", SI, &[0.15, 0.1]),
        b("130.li", SI, &[0.85, 0.65, 0.4]),
        b("132.ijpeg", SI, &[0.6, 0.35]),
        b("164.gzip", SI, &[0.2, 0.15]),
        b("175.vpr", SI, &[0.9, 0.7, 0.45]),
        b("181.mcf", SI, &[0.95, 0.85]),
        b("186.crafty", SI, &[0.7, 0.5, 0.3]),
        b("254.gap", SI, &[0.8, 0.6]),
        b("255.vortex", SI, &[0.85, 0.75, 0.35]),
        b("256.bzip2", SI, &[0.25, 0.1]),
        b("300.twolf", SI, &[0.9, 0.65]),
        b("401.bzip2", SI, &[0.25, 0.15]),
        b("429.mcf", SI, &[0.95, 0.8]),
        b("456.hmmer", SI, &[0.6, 0.4]),
        b("458.sjeng", SI, &[0.75, 0.55, 0.3]),
        b("adpcmdec", MB, &[0.3]),
        b("adpcmenc", MB, &[0.3]),
        b("epicdec", MB, &[0.6, 0.4]),
        b("epicenc", MB, &[0.55]),
        b("g721dec", MB, &[0.7, 0.5]),
        b("g721enc", MB, &[0.7, 0.45]),
        b("grep", MB, &[0.85, 0.6]),
        b("gsmenc", MB, &[0.5]),
        b("jpegdec", MB, &[0.6, 0.35]),
        b("jpegenc", MB, &[0.55, 0.3]),
        b("ks", MB, &[0.95, 0.9]),
        b("mpeg2dec", MB, &[0.65, 0.4]),
        b("mpeg2enc", MB, &[0.6]),
        b("em3d", MB, &[0.95, 0.85]),
        b("mst", MB, &[0.9, 0.8]),
        b("tsp", MB, &[0.85, 0.6]),
        b("otter", MB, &[0.9, 0.75, 0.5]),
        b("pgpdec", MB, &[0.45]),
        b("wc", MB, &[0.95]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spice_ir::interp::run_function;

    #[test]
    fn churn_list_kernel_sums_the_list() {
        let mut wl = ChurnListWorkload::new("test", 1.0, 20, 5, 42);
        assert_eq!(crate::run_on_interpreter(&mut wl).invocations, 5);
    }

    #[test]
    fn zero_predictability_rebuilds_every_invocation() {
        let mut wl = ChurnListWorkload::new("rebuild", 0.0, 10, 4, 7);
        let built = wl.build();
        let mut mem = FlatMemory::for_program(&built.program, 16 * 1024);
        let args0 = wl.init(&mut mem);
        run_function(&built.program, built.kernel, &args0, &mut mem).unwrap();
        let head0 = args0[0];
        let args1 = wl.next_invocation(&mut mem, 0).unwrap();
        // The head address very likely changed because the nodes were
        // reallocated from the recycled-slot pool in reverse order.
        assert_eq!(wl.list.len(), 10);
        let _ = head0;
        assert_eq!(args1.len(), 1);
    }

    #[test]
    fn corpus_covers_both_panels_and_many_benchmarks() {
        let corpus = fig8_corpus();
        assert!(corpus.len() >= 35);
        assert!(corpus.iter().any(|b| b.suite == Suite::SpecInt));
        assert!(corpus.iter().any(|b| b.suite == Suite::MediabenchAndOthers));
        let total_loops: usize = corpus.iter().map(|b| b.loop_predictability.len()).sum();
        assert!(total_loops >= 60);
        // Every entry can instantiate runnable workloads.
        let wls = corpus[0].workloads(3, 8);
        assert_eq!(wls.len(), corpus[0].loop_predictability.len());
    }
}
