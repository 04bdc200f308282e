//! Multi-bank private instruction cache (§5.2.3; the paper's prototype
//! is dual-bank).
//!
//! Each processor owns `n ≥ 2` cache banks: one holds the block in
//! execution, the others receive *prefetched* upcoming blocks. Switching
//! between banks takes only a few cycles, which is what makes fast block
//! switching possible. The bank count is a
//! [`QuapeConfig::icache_banks`](crate::QuapeConfig::icache_banks) knob;
//! with the default 2 the behavior is exactly the classic dual-bank
//! cache.

use quape_isa::{BlockId, Instruction, Program};
use std::ops::Range;

/// One cache bank: the address range of a resident block in the one
/// program every shot shares. Fills copy two integers instead of the
/// words, so per-shot cache traffic is O(blocks started), not
/// O(instructions), and a bank holds no allocation at all.
#[derive(Debug, Clone, Default)]
pub struct CacheBank {
    block: Option<BlockId>,
    start: u32,
    end: u32,
}

impl CacheBank {
    /// The block resident in this bank.
    pub fn block(&self) -> Option<BlockId> {
        self.block
    }

    /// True if no block is resident.
    pub fn is_free(&self) -> bool {
        self.block.is_none()
    }

    /// Installs a fully fetched block spanning `range`.
    pub fn install(&mut self, block: BlockId, range: Range<u32>) {
        self.block = Some(block);
        self.start = range.start;
        self.end = range.end;
    }

    /// Evicts the resident block.
    pub fn clear(&mut self) {
        *self = CacheBank::default();
    }

    /// True if the instruction at absolute address `pc` is resident.
    pub fn contains(&self, pc: u32) -> bool {
        self.block.is_some() && (self.start..self.end).contains(&pc)
    }

    /// First address of the resident block.
    pub fn base(&self) -> u32 {
        self.start
    }
}

/// The multi-bank private instruction cache.
#[derive(Debug, Clone)]
pub struct PrivateICache {
    banks: Vec<CacheBank>,
    active: usize,
}

impl PrivateICache {
    /// Creates an empty cache with `banks` banks (min 2, enforced by
    /// [`QuapeConfig::validate`](crate::QuapeConfig::validate) upstream).
    pub fn new(banks: usize) -> Self {
        PrivateICache {
            banks: vec![CacheBank::default(); banks],
            active: 0,
        }
    }

    /// The bank currently feeding the fetch unit.
    pub fn active(&self) -> &CacheBank {
        &self.banks[self.active]
    }

    /// Index of a bank available for prefetching: the lowest-indexed free
    /// bank that is not active (with two banks: the inactive bank, when
    /// free — the classic dual-bank rule).
    pub fn free_bank(&self) -> Option<usize> {
        (0..self.banks.len()).find(|&i| i != self.active && self.banks[i].is_free())
    }

    /// Installs a block spanning `range` into `bank`.
    pub fn install(&mut self, bank: usize, block: BlockId, range: Range<u32>) {
        self.banks[bank].install(block, range);
    }

    /// Installs a block into the active bank (initial pre-task load).
    pub fn install_active(&mut self, block: BlockId, range: Range<u32>) {
        let a = self.active;
        self.banks[a].install(block, range);
    }

    /// Finds the bank holding `block`.
    pub fn bank_of(&self, block: BlockId) -> Option<usize> {
        self.banks.iter().position(|b| b.block() == Some(block))
    }

    /// Switches the fetch path to `bank` and frees the previous bank.
    pub fn switch_to(&mut self, bank: usize) {
        if bank != self.active {
            self.banks[self.active].clear();
            self.active = bank;
        }
    }

    /// Frees the active bank (block finished, nothing prefetched).
    pub fn retire_active(&mut self) {
        let a = self.active;
        self.banks[a].clear();
    }

    /// Fetches the instruction at `pc` from the active bank: the word of
    /// the shared `program`, when the active bank holds that address.
    pub fn fetch<'p>(&self, pc: u32, program: &'p Program) -> Option<&'p Instruction> {
        if self.active().contains(pc) {
            program.get(pc as usize)
        } else {
            None
        }
    }

    /// Evicts `block` from whichever bank holds it.
    pub fn evict(&mut self, block: BlockId) {
        for bank in &mut self.banks {
            if bank.block() == Some(block) {
                bank.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_respects_the_block_range() {
        let mut c = PrivateICache::new(2);
        c.install_active(BlockId(0), 100..105);
        assert!(!c.active().contains(99));
        assert!(c.active().contains(100));
        assert!(c.active().contains(104));
        assert!(!c.active().contains(105));
        assert_eq!(c.active().base(), 100);
    }

    #[test]
    fn prefetch_and_switch() {
        let mut c = PrivateICache::new(2);
        c.install_active(BlockId(0), 0..3);
        let free = c.free_bank().expect("inactive bank free");
        c.install(free, BlockId(1), 3..7);
        assert!(c.free_bank().is_none(), "both banks occupied");
        assert_eq!(c.bank_of(BlockId(1)), Some(free));
        c.switch_to(free);
        assert_eq!(c.active().block(), Some(BlockId(1)));
        assert!(c.active().contains(3));
        // Old bank was freed by the switch.
        assert!(c.free_bank().is_some());
    }

    #[test]
    fn retire_frees_active() {
        let mut c = PrivateICache::new(2);
        c.install_active(BlockId(0), 0..2);
        c.retire_active();
        assert!(c.active().is_free());
        assert!(!c.active().contains(0));
    }
}
