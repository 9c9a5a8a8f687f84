//! Control-flow graph queries: successors, predecessors, reverse post-order
//! and reachability.

use crate::function::Function;
use crate::types::BlockId;

/// Precomputed CFG adjacency for a function.
#[derive(Debug, Clone)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
    rpo: Vec<BlockId>,
    rpo_index: Vec<Option<usize>>,
    entry: BlockId,
}

impl Cfg {
    /// Builds the CFG of `func`.
    #[must_use]
    pub fn new(func: &Function) -> Self {
        let n = func.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, block) in func.iter_blocks() {
            for s in block.terminator.successors() {
                succs[id.index()].push(s);
                preds[s.index()].push(id);
            }
        }
        // Compute reverse post-order with an iterative DFS.
        let mut visited = vec![false; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        // Stack of (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(func.entry, 0)];
        visited[func.entry.index()] = true;
        while let Some((b, i)) = stack.last_mut() {
            let bs = *b;
            if *i < succs[bs.index()].len() {
                let s = succs[bs.index()][*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(bs);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![None; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = Some(i);
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
            entry: func.entry,
        }
    }

    /// The entry block.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Successors of `b`.
    #[must_use]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b`.
    #[must_use]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// Blocks reachable from the entry, in reverse post-order.
    #[must_use]
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in the reverse post-order, or `None` if unreachable.
    #[must_use]
    pub fn rpo_index(&self, b: BlockId) -> Option<usize> {
        self.rpo_index[b.index()]
    }

    /// Whether `b` is reachable from the entry.
    #[must_use]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index(b).is_some()
    }

    /// Number of blocks in the underlying function (reachable or not).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.succs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::{BinOp, Operand};

    /// Diamond: entry -> (a | b) -> join
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("diamond");
        let x = b.param();
        let a = b.new_block();
        let c = b.new_block();
        let join = b.new_block();
        let cond = b.binop(BinOp::Gt, x, 0i64);
        b.cond_br(cond, a, c);
        b.switch_to(a);
        b.br(join);
        b.switch_to(c);
        b.br(join);
        b.switch_to(join);
        b.ret(Some(Operand::Imm(0)));
        b.finish()
    }

    #[test]
    fn successors_and_predecessors() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(0)), &[] as &[BlockId]);
        assert_eq!(cfg.block_count(), 4);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let rpo = cfg.rpo();
        assert_eq!(rpo[0], BlockId(0));
        assert_eq!(rpo.len(), 4);
        // Join must come after both branches.
        let join_pos = cfg.rpo_index(BlockId(3)).unwrap();
        assert!(join_pos > cfg.rpo_index(BlockId(1)).unwrap());
        assert!(join_pos > cfg.rpo_index(BlockId(2)).unwrap());
    }

    #[test]
    fn unreachable_blocks_are_flagged() {
        let mut b = FunctionBuilder::new("unreach");
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        assert!(cfg.is_reachable(BlockId(0)));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo().len(), 1);
    }
}
