//! Functions, basic blocks, globals and whole programs.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::inst::{Inst, Terminator};
use crate::types::{BlockId, FuncId, Reg};

/// A basic block: a straight-line sequence of instructions ended by a single
/// terminator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Optional human-readable label (used only for printing).
    pub label: Option<String>,
    /// Instructions in program order.
    pub insts: Vec<Inst>,
    /// The terminator of the block.
    pub terminator: Terminator,
}

impl Block {
    /// Creates an empty block with an [`Terminator::Unreachable`] placeholder
    /// terminator.
    #[must_use]
    pub fn new() -> Self {
        Block {
            label: None,
            insts: Vec::new(),
            terminator: Terminator::Unreachable,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Block::new()
    }
}

/// A function: a CFG of [`Block`]s over virtual registers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Function {
    /// The function's name (unique within a [`Program`]).
    pub name: String,
    /// Parameter registers; callers bind argument values to these.
    pub params: Vec<Reg>,
    /// Basic blocks indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// The next unused virtual register index.
    next_reg: u32,
}

impl Function {
    /// Creates an empty function with a single unreachable entry block.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block::new()],
            entry: BlockId(0),
            next_reg: 0,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Returns the number of virtual registers allocated so far.
    #[must_use]
    pub fn reg_count(&self) -> usize {
        self.next_reg as usize
    }

    /// Appends a new empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Appends a new empty block with a label and returns its id.
    pub fn add_labeled_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = self.add_block();
        self.blocks[id.index()].label = Some(label.into());
        id
    }

    /// Returns a shared reference to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block id is out of range.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Returns an exclusive reference to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block id is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterates over `(BlockId, &Block)` pairs in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Returns the ids of all blocks.
    #[must_use]
    pub fn block_ids(&self) -> Vec<BlockId> {
        (0..self.blocks.len()).map(|i| BlockId(i as u32)).collect()
    }

    /// Copies the blocks `src_blocks` of `src` into `self`, remapping block
    /// ids and registers, and returns the mapping from old to new block ids
    /// together with the register mapping that was applied.
    ///
    /// Registers named in `shared_regs` keep their index (they are expected
    /// to already exist in `self`, e.g. parameters carrying live-ins); every
    /// other register is given a fresh index in `self`. Block targets that
    /// point outside `src_blocks` are left untouched and must be fixed up by
    /// the caller (the Spice transformation redirects loop exits this way).
    pub fn import_blocks(
        &mut self,
        src: &Function,
        src_blocks: &[BlockId],
        shared_regs: &[Reg],
    ) -> (HashMap<BlockId, BlockId>, HashMap<Reg, Reg>) {
        let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
        for &b in src_blocks {
            let nb = self.add_block();
            if let Some(lbl) = &src.block(b).label {
                self.blocks[nb.index()].label = Some(format!("{lbl}.copy"));
            }
            block_map.insert(b, nb);
        }
        let mut reg_map: HashMap<Reg, Reg> = HashMap::new();
        for &r in shared_regs {
            reg_map.insert(r, r);
        }
        // Pre-scan to build a deterministic register mapping.
        for &b in src_blocks {
            let blk = src.block(b);
            let mention = |r: Reg, this: &mut Function, reg_map: &mut HashMap<Reg, Reg>| {
                reg_map.entry(r).or_insert_with(|| this.fresh_reg());
            };
            for inst in &blk.insts {
                for r in inst.uses() {
                    mention(r, self, &mut reg_map);
                }
                if let Some(d) = inst.def() {
                    mention(d, self, &mut reg_map);
                }
            }
            for r in blk.terminator.uses() {
                mention(r, self, &mut reg_map);
            }
        }
        for &b in src_blocks {
            let mut blk = src.block(b).clone();
            for inst in &mut blk.insts {
                inst.remap_regs(|r| reg_map[&r]);
            }
            blk.terminator.remap_regs(|r| reg_map[&r]);
            blk.terminator
                .remap_blocks(|t| block_map.get(&t).copied().unwrap_or(t));
            let nb = block_map[&b];
            self.blocks[nb.index()].insts = blk.insts;
            self.blocks[nb.index()].terminator = blk.terminator;
        }
        (block_map, reg_map)
    }
}

/// A global variable: a named, statically sized region of shared memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Global {
    /// Name (unique within the program).
    pub name: String,
    /// Base word address assigned at creation time.
    pub base: i64,
    /// Size in words.
    pub words: i64,
    /// Optional initial contents (shorter than `words` means the rest is 0).
    pub init: Vec<i64>,
}

/// Lowest word address handed out to globals. Address 0 is reserved as the
/// null pointer and the first kilobyte is left unused to catch small-offset
/// wild accesses.
pub const GLOBAL_BASE: i64 = 1024;

/// A whole program: functions, globals and channel identifiers shared by all
/// threads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    /// Functions indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// Global variables.
    pub globals: Vec<Global>,
    next_global_base: i64,
    next_channel: i64,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new() -> Self {
        Program {
            funcs: Vec::new(),
            globals: Vec::new(),
            next_global_base: GLOBAL_BASE,
            next_channel: 0,
        }
    }

    /// Adds a function and returns its id.
    pub fn add_func(&mut self, func: Function) -> FuncId {
        self.funcs.push(func);
        FuncId((self.funcs.len() - 1) as u32)
    }

    /// Returns a shared reference to a function.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Returns an exclusive reference to a function.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// The ids of every function, in definition order.
    #[must_use]
    pub fn func_ids(&self) -> Vec<FuncId> {
        (0..self.funcs.len()).map(|i| FuncId(i as u32)).collect()
    }

    /// Finds a function by name.
    #[must_use]
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Allocates a zero-initialized global of `words` words and returns its
    /// base address.
    pub fn add_global(&mut self, name: impl Into<String>, words: i64) -> i64 {
        self.add_global_init(name, words, Vec::new())
    }

    /// Allocates a global with initial contents and returns its base address.
    ///
    /// # Panics
    ///
    /// Panics if `init` is longer than `words` or `words` is negative.
    pub fn add_global_init(&mut self, name: impl Into<String>, words: i64, init: Vec<i64>) -> i64 {
        assert!(words >= 0, "global size must be non-negative");
        assert!(
            init.len() as i64 <= words,
            "global initializer longer than the global"
        );
        let base = self.next_global_base;
        self.next_global_base += words;
        self.globals.push(Global {
            name: name.into(),
            base,
            words,
            init,
        });
        base
    }

    /// Looks up a global by name.
    #[must_use]
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// First word address past all globals: the size of the program's memory
    /// (see [`crate::interp::FlatMemory::for_program`]).
    #[must_use]
    pub fn data_end(&self) -> i64 {
        self.next_global_base
    }

    /// Allocates a fresh inter-thread channel identifier.
    pub fn fresh_channel(&mut self) -> i64 {
        let c = self.next_channel;
        self.next_channel += 1;
        c
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BinOp, Operand};

    #[test]
    fn fresh_registers_are_distinct() {
        let mut f = Function::new("f");
        let a = f.fresh_reg();
        let b = f.fresh_reg();
        assert_ne!(a, b);
        assert_eq!(f.reg_count(), 2);
    }

    #[test]
    fn blocks_are_addressable() {
        let mut f = Function::new("f");
        let b1 = f.add_labeled_block("loop");
        assert_eq!(b1, BlockId(1));
        f.block_mut(b1).terminator = Terminator::Br(BlockId(0));
        assert_eq!(f.block(b1).terminator, Terminator::Br(BlockId(0)));
        assert_eq!(f.block_ids().len(), 2);
    }

    #[test]
    fn globals_get_disjoint_addresses() {
        let mut p = Program::new();
        let a = p.add_global("a", 10);
        let b = p.add_global_init("b", 4, vec![1, 2]);
        assert_eq!(a, GLOBAL_BASE);
        assert_eq!(b, GLOBAL_BASE + 10);
        assert_eq!(p.data_end(), GLOBAL_BASE + 14);
        assert_eq!(p.global("b").unwrap().init, vec![1, 2]);
        assert!(p.global("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "longer than the global")]
    fn oversized_initializer_panics() {
        let mut p = Program::new();
        p.add_global_init("bad", 1, vec![1, 2, 3]);
    }

    #[test]
    fn channels_are_fresh() {
        let mut p = Program::new();
        assert_eq!(p.fresh_channel(), 0);
        assert_eq!(p.fresh_channel(), 1);
    }

    #[test]
    fn func_lookup_by_name() {
        let mut p = Program::new();
        let f = p.add_func(Function::new("main"));
        assert_eq!(p.func_by_name("main"), Some(f));
        assert_eq!(p.func_by_name("other"), None);
        assert_eq!(p.func(f).name, "main");
    }

    #[test]
    fn import_blocks_remaps_registers_and_targets() {
        // Source: bb0: r0 = r0 + 1; br bb1   bb1: ret r0
        let mut src = Function::new("src");
        let r0 = src.fresh_reg();
        let bb1 = src.add_block();
        src.block_mut(BlockId(0)).insts.push(Inst::Binary {
            op: BinOp::Add,
            dst: r0,
            lhs: Operand::Reg(r0),
            rhs: Operand::Imm(1),
        });
        src.block_mut(BlockId(0)).terminator = Terminator::Br(bb1);
        src.block_mut(bb1).terminator = Terminator::Ret {
            value: Some(Operand::Reg(r0)),
        };

        let mut dst = Function::new("dst");
        let shared = dst.fresh_reg(); // r0 in dst, shared with src's r0
        let (bmap, rmap) = dst.import_blocks(&src, &[BlockId(0), bb1], &[r0]);
        assert_eq!(rmap[&r0], shared);
        let nb0 = bmap[&BlockId(0)];
        let nb1 = bmap[&bb1];
        assert_eq!(dst.block(nb0).terminator, Terminator::Br(nb1));
        assert_eq!(
            dst.block(nb0).insts[0],
            Inst::Binary {
                op: BinOp::Add,
                dst: shared,
                lhs: Operand::Reg(shared),
                rhs: Operand::Imm(1),
            }
        );
    }

    #[test]
    fn import_blocks_gives_fresh_registers_to_private_values() {
        let mut src = Function::new("src");
        let a = src.fresh_reg();
        let b = src.fresh_reg();
        src.block_mut(BlockId(0)).insts.push(Inst::Copy {
            dst: b,
            src: Operand::Reg(a),
        });
        src.block_mut(BlockId(0)).terminator = Terminator::Ret { value: None };

        let mut dst = Function::new("dst");
        // Pre-allocate a couple of registers so clashes would be visible.
        dst.fresh_reg();
        dst.fresh_reg();
        let (_, rmap) = dst.import_blocks(&src, &[BlockId(0)], &[]);
        assert_ne!(rmap[&a], rmap[&b]);
        assert!(rmap[&a].0 >= 2 && rmap[&b].0 >= 2);
    }
}
