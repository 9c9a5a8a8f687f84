//! Natural-loop detection and the loop-nest tree.
//!
//! The Spice transformation (paper §4) and the value profiler (paper §6)
//! both start from the set of natural loops of a function: the transformation
//! needs the header, body, latches and exits of the loop it parallelizes, and
//! the profiler walks the loop-nest tree to decide which loops to instrument
//! and at what granularity.

use std::collections::{HashMap, HashSet};

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::function::Function;
use crate::types::BlockId;

/// Identifier of a loop within a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub usize);

/// A single natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (the single entry point of the loop).
    pub header: BlockId,
    /// All blocks in the loop, header included.
    pub blocks: HashSet<BlockId>,
    /// Blocks with a back edge to the header.
    pub latches: Vec<BlockId>,
    /// Exit edges `(from_block_in_loop, to_block_outside_loop)`.
    pub exits: Vec<(BlockId, BlockId)>,
    /// Parent loop in the nest, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth (outermost loops have depth 1).
    pub depth: usize,
}

impl Loop {
    /// Returns `true` if `b` belongs to the loop.
    #[must_use]
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }

    /// Blocks of the loop in ascending id order (deterministic iteration for
    /// code generation and printing).
    #[must_use]
    pub fn blocks_sorted(&self) -> Vec<BlockId> {
        let mut v: Vec<BlockId> = self.blocks.iter().copied().collect();
        v.sort();
        v
    }
}

/// All natural loops of a function, with nesting.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<Loop>,
}

impl LoopForest {
    /// Detects the natural loops of `func`.
    ///
    /// Back edges are edges `n -> h` where `h` dominates `n`; the natural
    /// loop of the back edge is `h` plus every block that can reach `n`
    /// without passing through `h`. Loops sharing a header are merged.
    #[must_use]
    pub fn new(func: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let _ = func; // loop structure is fully determined by the CFG and dominators
        let mut by_header: HashMap<BlockId, Loop> = HashMap::new();
        for &n in cfg.rpo() {
            for &h in cfg.succs(n) {
                if dom.dominates(h, n) {
                    // Back edge n -> h.
                    let entry = by_header.entry(h).or_insert_with(|| Loop {
                        header: h,
                        blocks: HashSet::from([h]),
                        latches: Vec::new(),
                        exits: Vec::new(),
                        parent: None,
                        depth: 1,
                    });
                    entry.latches.push(n);
                    // Collect the loop body with a backward walk from the latch.
                    let mut stack = vec![n];
                    while let Some(b) = stack.pop() {
                        if entry.blocks.insert(b) {
                            for &p in cfg.preds(b) {
                                if cfg.is_reachable(p) {
                                    stack.push(p);
                                }
                            }
                        }
                    }
                }
            }
        }

        let mut loops: Vec<Loop> = by_header.into_values().collect();
        // Deterministic order: by header id.
        loops.sort_by_key(|l| l.header);

        // Exits.
        for l in &mut loops {
            let mut exits = Vec::new();
            for &b in &l.blocks {
                for &s in cfg.succs(b) {
                    if !l.blocks.contains(&s) {
                        exits.push((b, s));
                    }
                }
            }
            exits.sort();
            l.exits = exits;
        }

        // Nesting: the parent of a loop is the smallest strictly-containing loop.
        let snapshots: Vec<(BlockId, HashSet<BlockId>)> =
            loops.iter().map(|l| (l.header, l.blocks.clone())).collect();
        #[allow(clippy::needless_range_loop)]
        for i in 0..loops.len() {
            let mut best: Option<(usize, usize)> = None; // (index, size)
            for (j, (hdr, blocks)) in snapshots.iter().enumerate() {
                if i == j {
                    continue;
                }
                if blocks.contains(&loops[i].header)
                    && *hdr != loops[i].header
                    && loops[i].blocks.is_subset(blocks)
                {
                    let size = blocks.len();
                    if best.is_none_or(|(_, s)| size < s) {
                        best = Some((j, size));
                    }
                }
            }
            loops[i].parent = best.map(|(j, _)| LoopId(j));
        }
        // Depths.
        let parents: Vec<Option<LoopId>> = loops.iter().map(|l| l.parent).collect();
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = parents[i];
            while let Some(LoopId(p)) = cur {
                depth += 1;
                cur = parents[p];
            }
            loops[i].depth = depth;
        }
        LoopForest { loops }
    }

    /// Convenience constructor that computes the CFG and dominators itself.
    #[must_use]
    pub fn of(func: &Function) -> Self {
        let cfg = Cfg::new(func);
        let dom = DomTree::new(&cfg);
        LoopForest::new(func, &cfg, &dom)
    }

    /// Number of loops found.
    #[must_use]
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Returns `true` if the function has no loops.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Returns a loop by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.0]
    }

    /// Iterates over `(LoopId, &Loop)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &Loop)> {
        self.loops.iter().enumerate().map(|(i, l)| (LoopId(i), l))
    }

    /// Finds the loop whose header is `header`.
    #[must_use]
    pub fn loop_with_header(&self, header: BlockId) -> Option<LoopId> {
        self.loops
            .iter()
            .position(|l| l.header == header)
            .map(LoopId)
    }

    /// The loop a Spice backend or profiler targets: the one whose header is
    /// `header`, or — when `None` — the largest top-level loop (the first
    /// of them, in header order, on a tie).
    #[must_use]
    pub fn target_loop(&self, header: Option<BlockId>) -> Option<LoopId> {
        match header {
            Some(h) => self.loop_with_header(h),
            // `max_by_key` keeps the last maximum; reversed, the first.
            None => self
                .top_level()
                .into_iter()
                .rev()
                .max_by_key(|&id| self.get(id).blocks.len()),
        }
    }

    /// Returns the innermost loop containing block `b`, if any.
    #[must_use]
    pub fn innermost_containing(&self, b: BlockId) -> Option<LoopId> {
        self.iter()
            .filter(|(_, l)| l.contains(b))
            .max_by_key(|(_, l)| l.depth)
            .map(|(id, _)| id)
    }

    /// Outermost loops (depth 1).
    #[must_use]
    pub fn top_level(&self) -> Vec<LoopId> {
        self.iter()
            .filter(|(_, l)| l.parent.is_none())
            .map(|(id, _)| id)
            .collect()
    }

    /// Finds the *preheader* of a loop: the unique predecessor of the header
    /// that lies outside the loop and whose only successor is the header.
    ///
    /// The Spice transformation requires a preheader to place the
    /// `new_invocation` token sends and the value-predictor setup; workloads
    /// built with [`crate::builder::FunctionBuilder`] naturally have one.
    #[must_use]
    pub fn preheader(&self, id: LoopId, func: &Function, cfg: &Cfg) -> Option<BlockId> {
        let l = self.get(id);
        let outside: Vec<BlockId> = cfg
            .preds(l.header)
            .iter()
            .copied()
            .filter(|p| !l.contains(*p))
            .collect();
        match outside.as_slice() {
            [single] if cfg.succs(*single).len() == 1 => Some(*single),
            _ => {
                let _ = func;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, Operand};

    /// entry -> preheader -> header -> {body -> latch -> header, exit}
    fn single_loop() -> Function {
        let mut b = FunctionBuilder::new("single");
        let n = b.param();
        let i = b.copy(0i64);
        let pre = b.new_labeled_block("preheader");
        let header = b.new_labeled_block("header");
        let body = b.new_labeled_block("body");
        let latch = b.new_labeled_block("latch");
        let exit = b.new_labeled_block("exit");
        b.br(pre);
        b.switch_to(pre);
        b.br(header);
        b.switch_to(header);
        let c = b.binop(BinOp::Lt, i, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(latch);
        b.switch_to(latch);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(i)));
        b.finish()
    }

    /// Doubly-nested loop.
    fn nested_loops() -> Function {
        let mut b = FunctionBuilder::new("nested");
        let n = b.param();
        let i = b.copy(0i64);
        let oh = b.new_labeled_block("outer_header");
        let ob = b.new_labeled_block("outer_body");
        let ih = b.new_labeled_block("inner_header");
        let ib = b.new_labeled_block("inner_body");
        let olatch = b.new_labeled_block("outer_latch");
        let exit = b.new_labeled_block("exit");
        b.br(oh);
        b.switch_to(oh);
        let c = b.binop(BinOp::Lt, i, n);
        b.cond_br(c, ob, exit);
        b.switch_to(ob);
        let j = b.copy(0i64);
        b.br(ih);
        b.switch_to(ih);
        let cj = b.binop(BinOp::Lt, j, 10i64);
        b.cond_br(cj, ib, olatch);
        b.switch_to(ib);
        let j2 = b.binop(BinOp::Add, j, 1i64);
        b.copy_into(j, j2);
        b.br(ih);
        b.switch_to(olatch);
        let i2 = b.binop(BinOp::Add, i, 1i64);
        b.copy_into(i, i2);
        b.br(oh);
        b.switch_to(exit);
        b.ret(Some(Operand::Reg(i)));
        b.finish()
    }

    #[test]
    fn finds_single_loop_with_correct_membership() {
        let f = single_loop();
        let forest = LoopForest::of(&f);
        assert_eq!(forest.len(), 1);
        let (_, l) = forest.iter().next().unwrap();
        assert_eq!(l.header, BlockId(2));
        assert!(l.contains(BlockId(3)));
        assert!(l.contains(BlockId(4)));
        assert!(!l.contains(BlockId(5)));
        assert!(!l.contains(BlockId(1)));
        assert_eq!(l.latches, vec![BlockId(4)]);
        assert_eq!(l.exits, vec![(BlockId(2), BlockId(5))]);
        assert_eq!(l.depth, 1);
    }

    #[test]
    fn preheader_is_found() {
        let f = single_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        let forest = LoopForest::new(&f, &cfg, &dom);
        let id = forest.loop_with_header(BlockId(2)).unwrap();
        assert_eq!(forest.preheader(id, &f, &cfg), Some(BlockId(1)));
    }

    #[test]
    fn nested_loops_have_parent_links_and_depths() {
        let f = nested_loops();
        let forest = LoopForest::of(&f);
        assert_eq!(forest.len(), 2);
        let outer = forest.loop_with_header(BlockId(1)).unwrap();
        let inner = forest.loop_with_header(BlockId(3)).unwrap();
        assert_eq!(forest.get(inner).parent, Some(outer));
        assert_eq!(forest.get(outer).parent, None);
        assert_eq!(forest.get(outer).depth, 1);
        assert_eq!(forest.get(inner).depth, 2);
        assert_eq!(forest.top_level(), vec![outer]);
        // The inner body belongs to both loops; innermost query returns inner.
        assert_eq!(forest.innermost_containing(BlockId(4)), Some(inner));
        // The outer latch only belongs to the outer loop.
        assert_eq!(forest.innermost_containing(BlockId(5)), Some(outer));
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let mut b = FunctionBuilder::new("straight");
        let x = b.param();
        let y = b.binop(BinOp::Add, x, 1i64);
        b.ret(Some(Operand::Reg(y)));
        let forest = LoopForest::of(&b.finish());
        assert!(forest.is_empty());
    }

    #[test]
    fn self_loop_is_detected() {
        let mut b = FunctionBuilder::new("selfloop");
        let x = b.param();
        let header = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.binop(BinOp::Gt, x, 0i64);
        b.cond_br(c, header, exit);
        b.switch_to(exit);
        b.ret(None);
        let forest = LoopForest::of(&b.finish());
        assert_eq!(forest.len(), 1);
        let (_, l) = forest.iter().next().unwrap();
        assert_eq!(l.blocks.len(), 1);
        assert_eq!(l.latches, vec![l.header]);
    }
}
