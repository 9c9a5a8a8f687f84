//! Dominator tree construction (Cooper–Harvey–Kennedy iterative algorithm).

use crate::cfg::Cfg;
use crate::types::BlockId;

/// Dominator information for the reachable part of a CFG.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the entry and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl DomTree {
    /// Computes dominators over `cfg`.
    #[must_use]
    pub fn new(cfg: &Cfg) -> Self {
        let n = cfg.block_count();
        let entry = cfg.entry();
        let rpo = cfg.rpo();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            // Walk up the tree using RPO indices as the ordering.
            while a != b {
                let (mut ai, mut bi) = (
                    cfg.rpo_index(a).expect("reachable"),
                    cfg.rpo_index(b).expect("reachable"),
                );
                while ai > bi {
                    a = idom[a.index()].expect("processed");
                    ai = cfg.rpo_index(a).expect("reachable");
                }
                while bi > ai {
                    b = idom[b.index()].expect("processed");
                    bi = cfg.rpo_index(b).expect("reachable");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                // Pick the first processed predecessor.
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(b) {
                    if !cfg.is_reachable(p) {
                        continue;
                    }
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // The entry's idom is conventionally itself during computation; store
        // None so callers see a proper tree root.
        idom[entry.index()] = None;
        DomTree { idom, entry }
    }

    /// Immediate dominator of `b` (`None` for the entry block and for
    /// unreachable blocks).
    #[must_use]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Returns `true` if `a` dominates `b` (reflexively).
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) => cur = next,
                None => return cur == a && a == self.entry,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::types::{BinOp, Operand};

    fn diamond_with_loop() -> Function {
        // bb0 -> bb1(header) -> {bb2, bb4(exit)} ; bb2 -> {bb3} ; bb3 -> bb1
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let header = b.new_block();
        let body = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.br(header);
        b.switch_to(header);
        let c = b.binop(BinOp::Gt, x, 0i64);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(latch);
        b.switch_to(latch);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(Operand::Imm(0)));
        b.finish()
    }

    #[test]
    fn idoms_follow_structure() {
        let f = diamond_with_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        assert_eq!(dom.idom(BlockId(0)), None);
        assert_eq!(dom.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(2)));
        assert_eq!(dom.idom(BlockId(4)), Some(BlockId(1)));
    }

    #[test]
    fn dominance_queries() {
        let f = diamond_with_loop();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        assert!(dom.dominates(BlockId(0), BlockId(4)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(dom.dominates(BlockId(2), BlockId(2)));
        assert!(!dom.dominates(BlockId(2), BlockId(4)));
        assert!(!dom.dominates(BlockId(3), BlockId(1)));
    }

    #[test]
    fn merge_point_dominated_by_branch_not_arms() {
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
        b.ret(None);
        let f = b.finish();
        let cfg = Cfg::new(&f);
        let dom = DomTree::new(&cfg);
        assert_eq!(dom.idom(join), Some(BlockId(0)));
        assert!(!dom.dominates(a, join));
        assert!(!dom.dominates(c, join));
    }
}
