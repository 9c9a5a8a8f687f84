//! The `458.sjeng` workload: the `std_eval` static-evaluation loop.
//!
//! Sjeng's evaluator walks the piece list of the current position and scores
//! each piece with piece-type-specific rules — a loop with complex control
//! flow (one arm per piece type), several accumulators, and, after reduction
//! removal, **eight** loop-carried live-ins that Spice must speculate (the
//! list pointer plus seven rolling evaluation-state words). The paper reports
//! this benchmark as the one hurt by mis-speculation (~25% of invocations)
//! and by the cost of comparing all eight live-ins every iteration; both
//! effects are reproduced here.
//!
//! The driver mutates the position between invocations (a move is made with
//! some probability), which invalidates memoized rolling states whenever the
//! mutation happens upstream of a memoized chunk boundary.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use spice_ir::builder::FunctionBuilder;
use spice_ir::interp::FlatMemory;
use spice_ir::{BinOp, Operand, Program};

use crate::arena::{ListMirror, RecordArena};
use crate::{BuiltKernel, SpiceWorkload};

const TYPE: i64 = 0;
const VALUE: i64 = 1;
const POS: i64 = 2;
const NEXT: i64 = 3;
const RECORD_WORDS: i64 = 4;

/// Primes used by the seven rolling evaluation-state registers.
const STATE_PRIMES: [i64; 7] = [31, 37, 41, 43, 47, 53, 59];

/// Configuration of the sjeng workload.
#[derive(Debug, Clone)]
pub struct SjengConfig {
    /// Pieces on the board.
    pub pieces: usize,
    /// Evaluations (kernel invocations) to drive.
    pub invocations: usize,
    /// Probability that a move mutates a piece between two evaluations.
    pub mutate_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SjengConfig {
    fn default() -> Self {
        SjengConfig {
            pieces: 48,
            invocations: 80,
            mutate_probability: 0.30,
            seed: 0x736a,
        }
    }
}

/// Host mirror of one piece.
#[derive(Debug, Clone, Copy)]
struct Piece {
    ptype: i64,
    value: i64,
    pos: i64,
}

/// The sjeng `std_eval` workload.
#[derive(Debug, Clone)]
pub struct SjengWorkload {
    config: SjengConfig,
    arena: Option<RecordArena>,
    list: ListMirror,
    pieces: Vec<Piece>,
    side_bonus: i64,
    rng: StdRng,
}

impl SjengWorkload {
    /// Creates the workload with the given configuration.
    #[must_use]
    pub fn new(config: SjengConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        SjengWorkload {
            config,
            arena: None,
            list: ListMirror::new(NEXT),
            pieces: Vec::new(),
            side_bonus: 0,
            rng,
        }
    }

    fn arena(&self) -> &RecordArena {
        self.arena.as_ref().expect("build() must be called first")
    }

    fn args(&self) -> Vec<i64> {
        vec![self.list.head_addr(self.arena()), self.side_bonus]
    }

    fn piece_score(piece: &Piece) -> i64 {
        let v = piece.value;
        let pb = piece.pos;
        match piece.ptype {
            0 => v.wrapping_add(pb.wrapping_mul(2)),
            1 => v.wrapping_add(pb.wrapping_mul(3)),
            2 => v.wrapping_mul(2).wrapping_sub(pb),
            3 => v.wrapping_add(pb.wrapping_mul(2)).wrapping_add(5),
            4 => v.wrapping_mul(9).wrapping_sub(pb.wrapping_mul(2)),
            _ => pb.wrapping_mul(4),
        }
    }

    /// Host mirror of the kernel: the exact value `std_eval` must return for
    /// the current position.
    #[must_use]
    pub fn reference_eval(&self) -> i64 {
        let mut score: i64 = 0;
        let mut material: i64 = 0;
        let mut states: [i64; 7] = [1, 2, 3, 4, 5, 6, 7];
        for &slot in &self.list.order {
            let p = &self.pieces[slot];
            let sc = Self::piece_score(p);
            score = score.wrapping_add(sc);
            material = material.wrapping_add(p.value);
            let inputs = [sc, p.value, p.pos, p.ptype, sc, p.value, p.pos];
            for k in 0..7 {
                states[k] = states[k]
                    .wrapping_mul(STATE_PRIMES[k])
                    .wrapping_add(inputs[k]);
            }
        }
        let mix: i64 = states.iter().fold(0i64, |a, &s| a.wrapping_add(s));
        score
            .wrapping_add(material)
            .wrapping_add(mix & 0xFF)
            .wrapping_add(self.side_bonus)
    }

    fn random_piece(&mut self) -> Piece {
        Piece {
            ptype: self.rng.gen_range(0..6),
            value: self.rng.gen_range(100..=900),
            pos: self.rng.gen_range(-50..=50),
        }
    }

    fn write_piece(&self, mem: &mut FlatMemory, slot: usize) {
        let p = self.pieces[slot];
        let arena = self.arena();
        arena.write(mem, slot, TYPE, p.ptype).expect("in bounds");
        arena.write(mem, slot, VALUE, p.value).expect("in bounds");
        arena.write(mem, slot, POS, p.pos).expect("in bounds");
    }
}

impl SpiceWorkload for SjengWorkload {
    fn name(&self) -> &'static str {
        "458.sjeng"
    }

    fn description(&self) -> &'static str {
        "chess software (static evaluation)"
    }

    fn loop_name(&self) -> &'static str {
        "std_eval"
    }

    fn paper_hotness(&self) -> f64 {
        0.26
    }

    fn conflict_policy(&self) -> spice_ir::exec::ConflictPolicy {
        // The evaluation walk stores nothing; chunks cannot conflict.
        spice_ir::exec::ConflictPolicy::AssumeIndependent
    }

    fn build(&mut self) -> BuiltKernel {
        let mut program = Program::new();
        let arena_base = program.add_global(
            "sjeng.pieces",
            RecordArena::words_needed(RECORD_WORDS, self.config.pieces),
        );
        self.arena = Some(RecordArena::new(
            arena_base,
            RECORD_WORDS,
            self.config.pieces,
        ));

        // std_eval(head, side_bonus) -> score.
        let mut b = FunctionBuilder::new("std_eval");
        let head = b.param();
        let side_bonus = b.param();
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let join = b.new_labeled_block("join");
        let exit = b.new_labeled_block("exit");
        let type_blocks: Vec<_> = (0..6)
            .map(|t| b.new_labeled_block(format!("piece_type_{t}")))
            .collect();
        let dispatch: Vec<_> = (1..5)
            .map(|t| b.new_labeled_block(format!("dispatch_{t}")))
            .collect();

        let c = b.copy(head);
        let score = b.copy(0i64);
        let material = b.copy(0i64);
        let states: Vec<_> = (0..7).map(|k| b.copy(k as i64 + 1)).collect();
        let sc = b.copy(0i64);
        b.br(pre);
        b.switch_to(pre);
        b.br(header);

        b.switch_to(header);
        let done = b.binop(BinOp::Eq, c, 0i64);
        b.cond_br(done, exit, body);

        b.switch_to(body);
        let t = b.load(c, TYPE);
        let v = b.load(c, VALUE);
        let pb = b.load(c, POS);
        // Dispatch chain on the piece type (sjeng's switch lowered to a
        // branch tree — one compare per block).
        let is0 = b.binop(BinOp::Eq, t, 0i64);
        b.cond_br(is0, type_blocks[0], dispatch[0]);
        for i in 0..4 {
            b.switch_to(dispatch[i]);
            let is = b.binop(BinOp::Eq, t, (i + 1) as i64);
            let fallthrough = if i < 3 {
                dispatch[i + 1]
            } else {
                type_blocks[5]
            };
            b.cond_br(is, type_blocks[i + 1], fallthrough);
        }

        // Per-type scoring.
        for (ty, bb) in type_blocks.iter().enumerate() {
            b.switch_to(*bb);
            let val: spice_ir::Reg = match ty {
                0 => {
                    let twice = b.binop(BinOp::Mul, pb, 2i64);
                    b.binop(BinOp::Add, v, twice)
                }
                1 => {
                    let thrice = b.binop(BinOp::Mul, pb, 3i64);
                    b.binop(BinOp::Add, v, thrice)
                }
                2 => {
                    let dv = b.binop(BinOp::Mul, v, 2i64);
                    b.binop(BinOp::Sub, dv, pb)
                }
                3 => {
                    let twice = b.binop(BinOp::Mul, pb, 2i64);
                    let s = b.binop(BinOp::Add, v, twice);
                    b.binop(BinOp::Add, s, 5i64)
                }
                4 => {
                    let nine = b.binop(BinOp::Mul, v, 9i64);
                    let twice = b.binop(BinOp::Mul, pb, 2i64);
                    b.binop(BinOp::Sub, nine, twice)
                }
                _ => b.binop(BinOp::Mul, pb, 4i64),
            };
            b.copy_into(sc, val);
            b.br(join);
        }

        // Join: accumulate reductions, update rolling states, advance.
        b.switch_to(join);
        let ns = b.binop(BinOp::Add, score, sc);
        b.copy_into(score, ns);
        let nm = b.binop(BinOp::Add, material, v);
        b.copy_into(material, nm);
        let state_inputs = [sc, v, pb, t, sc, v, pb];
        for (k, s) in states.iter().enumerate() {
            let scaled = b.binop(BinOp::Mul, *s, STATE_PRIMES[k]);
            let updated = b.binop(BinOp::Add, scaled, state_inputs[k]);
            b.copy_into(*s, updated);
        }
        let next = b.load(c, NEXT);
        b.copy_into(c, next);
        b.br(header);

        // Exit: fold the rolling state into the returned evaluation.
        b.switch_to(exit);
        let mut mix = b.copy(0i64);
        for s in &states {
            mix = b.binop(BinOp::Add, mix, *s);
        }
        let masked = b.binop(BinOp::And, mix, 0xFFi64);
        let a = b.binop(BinOp::Add, score, material);
        let bsum = b.binop(BinOp::Add, a, masked);
        let total = b.binop(BinOp::Add, bsum, side_bonus);
        b.ret(Some(Operand::Reg(total)));
        let kernel = program.add_func(b.finish());

        BuiltKernel {
            program,
            kernel,
            loop_header_hint: None,
        }
    }

    fn init(&mut self, mem: &mut FlatMemory) -> Vec<i64> {
        let n = self.config.pieces;
        self.pieces = (0..n).map(|_| self.random_piece()).collect();
        {
            let arena = self.arena.as_mut().expect("built");
            for _ in 0..n {
                let _ = arena.alloc();
            }
        }
        for slot in 0..n {
            self.write_piece(mem, slot);
            self.list.insert_at(usize::MAX, slot);
        }
        self.list.relink(self.arena(), mem).expect("in bounds");
        self.side_bonus = self.rng.gen_range(-20..=20);
        self.args()
    }

    fn next_invocation(&mut self, mem: &mut FlatMemory, invocation: usize) -> Option<Vec<i64>> {
        if invocation + 1 >= self.config.invocations {
            return None;
        }
        // A move is made with some probability: one piece changes.
        if self.rng.gen_bool(self.config.mutate_probability) {
            let slot = self.rng.gen_range(0..self.pieces.len());
            let p = self.random_piece();
            self.pieces[slot] = p;
            self.write_piece(mem, slot);
        }
        self.side_bonus = self.rng.gen_range(-20..=20);
        Some(self.args())
    }

    fn expected_result(&self, _mem: &FlatMemory) -> Option<i64> {
        Some(self.reference_eval())
    }

    fn expected_iterations(&self) -> u64 {
        self.config.pieces as u64
    }

    fn invocations(&self) -> usize {
        self.config.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matches_host_mirror_across_positions() {
        let mut wl = SjengWorkload::new(SjengConfig {
            pieces: 24,
            invocations: 12,
            mutate_probability: 0.5,
            seed: 21,
        });
        assert_eq!(crate::run_on_interpreter(&mut wl).invocations, 12);
    }

    #[test]
    fn loop_exposes_eight_speculated_live_ins() {
        // The loop carries the pointer plus seven rolling states, and
        // score/material are reductions.
        let mut wl = SjengWorkload::new(SjengConfig::default());
        let built = wl.build();
        let spec = spice_ir::exec::derive_loop_spec(&built.program, built.kernel, None).unwrap();
        assert_eq!(
            spec.cursors.len(),
            8,
            "sjeng must speculate 8 live-ins (pointer + 7 states), got {:?}",
            spec.cursors
        );
        assert!(
            spec.reductions.len() >= 2,
            "score and material are reductions"
        );
    }
}
