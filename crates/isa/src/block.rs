//! Program blocks and the block information table (§5.2.1).
//!
//! A *program block* is a sequence of instructions implementing one
//! sub-circuit, possibly containing loops and feedback control. Before a
//! run, the post-compilation partition is loaded into the block information
//! table; the multiprocessor scheduler reads the table continuously to
//! decide, at run time, which blocks are ready and where to allocate them.
//!
//! The paper supports two dependency representations:
//!
//! * **direct** dependencies — a bit vector naming the blocks that must
//!   finish first; offers maximal scheduling freedom but costs one bit per
//!   block per entry;
//! * **priority** dependencies — a single small integer; all blocks of
//!   priority *p* may run in parallel once every block of priority < *p*
//!   has finished. Compact, and what the Shor benchmark uses (50 blocks,
//!   15 priorities).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Identifier of a program block (index into the block information table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u16);

impl BlockId {
    /// Returns the raw table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.0)
    }
}

/// Dependency of one program block on others.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dependency {
    /// Direct addressing: the block may start once every listed block is
    /// done. An empty list means "ready immediately".
    Direct(Vec<BlockId>),
    /// Priority counter: the block may start once the scheduler's priority
    /// counter reaches this value (i.e. all lower-priority blocks are
    /// done). Blocks sharing a priority signify potential parallelism.
    Priority(u16),
}

impl Dependency {
    /// A dependency that is satisfied from the start.
    pub fn none() -> Self {
        Dependency::Direct(Vec::new())
    }
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dependency::Direct(deps) if deps.is_empty() => write!(f, "None"),
            Dependency::Direct(deps) => {
                let names: Vec<String> = deps.iter().map(|d| d.to_string()).collect();
                write!(f, "{}", names.join(","))
            }
            Dependency::Priority(p) => write!(f, "prio={p}"),
        }
    }
}

/// The dependency representation used by a table (the two schemes cannot be
/// mixed: the scheduler's dependency-check hardware is configured for one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DependencyMode {
    /// All entries use [`Dependency::Direct`].
    Direct,
    /// All entries use [`Dependency::Priority`].
    Priority,
}

/// Run-time status of a program block, mirrored by the scheduler's status
/// registers (§5.2.2–5.2.3): wait → (prefetch) → in execution → done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockStatus {
    /// Not yet ready or not yet allocated.
    #[default]
    Wait,
    /// Instructions are being (or have been) prefetched into a free cache
    /// bank, but dependencies are not all done yet.
    Prefetch,
    /// Currently running on a processor.
    InExecution,
    /// Finished.
    Done,
}

impl fmt::Display for BlockStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockStatus::Wait => "wait",
            BlockStatus::Prefetch => "prefetch",
            BlockStatus::InExecution => "in execution",
            BlockStatus::Done => "done",
        };
        f.write_str(s)
    }
}

/// One entry of the block information table: name, address range in the
/// centralized instruction memory, and dependency.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockInfo {
    /// Human-readable block name (e.g. `w1`, `stab3_verify`).
    pub name: String,
    /// Instruction address range `pc_start..pc_end` (end exclusive).
    pub range: Range<u32>,
    /// Dependency relation.
    pub dependency: Dependency,
}

impl BlockInfo {
    /// Creates a block entry.
    pub fn new(name: impl Into<String>, range: Range<u32>, dependency: Dependency) -> Self {
        BlockInfo {
            name: name.into(),
            range,
            dependency,
        }
    }

    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// True if the block contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// Errors produced when constructing a block information table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockTableError {
    /// The table exceeded its capacity (64 entries on the prototype).
    CapacityExceeded {
        /// Configured capacity.
        capacity: usize,
    },
    /// Two entries mixed direct and priority dependencies.
    MixedDependencyModes,
    /// A direct dependency referenced a block id not in the table.
    UnknownDependency {
        /// The block with the bad reference.
        block: BlockId,
        /// The missing dependency.
        dependency: BlockId,
    },
    /// A block depends on itself (directly).
    SelfDependency {
        /// The offending block.
        block: BlockId,
    },
    /// The direct dependency graph contains a cycle, so some blocks can
    /// never become ready.
    DependencyCycle,
    /// Two blocks share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for BlockTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockTableError::CapacityExceeded { capacity } => {
                write!(f, "block information table capacity ({capacity}) exceeded")
            }
            BlockTableError::MixedDependencyModes => {
                write!(
                    f,
                    "direct and priority dependencies cannot be mixed in one table"
                )
            }
            BlockTableError::UnknownDependency { block, dependency } => {
                write!(f, "block {block} depends on unknown block {dependency}")
            }
            BlockTableError::SelfDependency { block } => {
                write!(f, "block {block} depends on itself")
            }
            BlockTableError::DependencyCycle => {
                write!(f, "dependency graph contains a cycle")
            }
            BlockTableError::DuplicateName { name } => {
                write!(f, "duplicate block name `{name}`")
            }
        }
    }
}

impl std::error::Error for BlockTableError {}

/// The block information table consumed by the multiprocessor scheduler.
///
/// ```
/// use quape_isa::{BlockInfo, BlockInfoTable, BlockId, Dependency};
///
/// // Table 1 of the paper: W1, W2 parallel; W3 waits on both; W4 on W3.
/// let mut table = BlockInfoTable::new();
/// table.push(BlockInfo::new("W1", 0..11, Dependency::none()))?;
/// table.push(BlockInfo::new("W2", 11..21, Dependency::none()))?;
/// table.push(BlockInfo::new("W3", 21..31, Dependency::Direct(vec![BlockId(0), BlockId(1)])))?;
/// table.push(BlockInfo::new("W4", 31..41, Dependency::Direct(vec![BlockId(2)])))?;
/// assert_eq!(table.len(), 4);
/// table.validate()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockInfoTable {
    entries: Vec<BlockInfo>,
    capacity: usize,
}

impl BlockInfoTable {
    /// Creates an empty table with the prototype's default capacity of
    /// [`crate::BLOCK_TABLE_CAPACITY`] entries.
    pub fn new() -> Self {
        Self::with_capacity(crate::BLOCK_TABLE_CAPACITY)
    }

    /// Creates an empty table with a custom capacity (at most
    /// [`crate::MAX_BLOCKS`] entries are ever accepted).
    pub fn with_capacity(capacity: usize) -> Self {
        BlockInfoTable {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Appends a block, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`BlockTableError::CapacityExceeded`] when the table is full
    /// and [`BlockTableError::MixedDependencyModes`] when the entry's
    /// dependency variant differs from existing entries.
    pub fn push(&mut self, info: BlockInfo) -> Result<BlockId, BlockTableError> {
        if self.entries.len() >= self.capacity() {
            return Err(BlockTableError::CapacityExceeded {
                capacity: self.capacity(),
            });
        }
        if let Some(mode) = self.mode() {
            let entry_mode = match info.dependency {
                Dependency::Direct(_) => DependencyMode::Direct,
                Dependency::Priority(_) => DependencyMode::Priority,
            };
            if mode != entry_mode {
                return Err(BlockTableError::MixedDependencyModes);
            }
        }
        let id = BlockId(self.entries.len() as u16);
        self.entries.push(info);
        Ok(id)
    }

    /// The dependency mode of the table, or `None` when empty.
    pub fn mode(&self) -> Option<DependencyMode> {
        self.entries.first().map(|e| match e.dependency {
            Dependency::Direct(_) => DependencyMode::Direct,
            Dependency::Priority(_) => DependencyMode::Priority,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity (maximum number of entries): the configured one, but no
    /// more than there are distinct block ids.
    pub fn capacity(&self) -> usize {
        self.capacity.min(crate::MAX_BLOCKS)
    }

    /// Returns the entry for a block id.
    pub fn get(&self, id: BlockId) -> Option<&BlockInfo> {
        self.entries.get(id.index())
    }

    /// Iterates over `(id, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BlockInfo)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| (BlockId(i as u16), e))
    }

    /// Looks a block up by name.
    pub fn find(&self, name: &str) -> Option<BlockId> {
        self.entries
            .iter()
            .position(|e| e.name == name)
            .map(|i| BlockId(i as u16))
    }

    /// Number of distinct priorities (1 for an empty/direct table).
    pub fn priority_levels(&self) -> usize {
        let mut prios: Vec<u16> = self
            .entries
            .iter()
            .filter_map(|e| match e.dependency {
                Dependency::Priority(p) => Some(p),
                Dependency::Direct(_) => None,
            })
            .collect();
        prios.sort_unstable();
        prios.dedup();
        prios.len().max(1)
    }

    /// Validates structural invariants: consistent dependency mode, no
    /// dangling or self references, and an acyclic direct-dependency graph.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`BlockTableError`].
    pub fn validate(&self) -> Result<(), BlockTableError> {
        let mut names = std::collections::HashSet::new();
        for e in &self.entries {
            if !names.insert(e.name.as_str()) {
                return Err(BlockTableError::DuplicateName {
                    name: e.name.clone(),
                });
            }
        }
        let mode = match self.mode() {
            Some(m) => m,
            None => return Ok(()),
        };
        for (i, e) in self.entries.iter().enumerate() {
            let id = BlockId(i as u16);
            match (&e.dependency, mode) {
                (Dependency::Direct(deps), DependencyMode::Direct) => {
                    for &d in deps {
                        if d == id {
                            return Err(BlockTableError::SelfDependency { block: id });
                        }
                        if d.index() >= self.entries.len() {
                            return Err(BlockTableError::UnknownDependency {
                                block: id,
                                dependency: d,
                            });
                        }
                    }
                }
                (Dependency::Priority(_), DependencyMode::Priority) => {}
                _ => return Err(BlockTableError::MixedDependencyModes),
            }
        }
        if mode == DependencyMode::Direct {
            self.check_acyclic()?;
        }
        Ok(())
    }

    fn check_acyclic(&self) -> Result<(), BlockTableError> {
        // Kahn's algorithm over the direct-dependency DAG.
        let n = self.entries.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, e) in self.entries.iter().enumerate() {
            if let Dependency::Direct(deps) = &e.dependency {
                indegree[i] = deps.len();
                for d in deps {
                    dependents[d.index()].push(i);
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop() {
            visited += 1;
            for &j in &dependents[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if visited == n {
            Ok(())
        } else {
            Err(BlockTableError::DependencyCycle)
        }
    }
}

impl fmt::Display for BlockInfoTable {
    /// Renders the table in the layout of Table 1 of the paper.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>9} {:>9}  Dependency",
            "Program block", "PC start", "PC end"
        )?;
        for (_, e) in self.iter() {
            let dep = match &e.dependency {
                Dependency::Direct(deps) if !deps.is_empty() => deps
                    .iter()
                    .map(|d| {
                        self.get(*d)
                            .map_or_else(|| d.to_string(), |b| b.name.clone())
                    })
                    .collect::<Vec<_>>()
                    .join(","),
                other => other.to_string(),
            };
            writeln!(
                f,
                "{:<16} {:>9} {:>9}  {}",
                e.name,
                e.range.start,
                e.range.end.saturating_sub(1),
                dep
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct(deps: &[u16]) -> Dependency {
        Dependency::Direct(deps.iter().map(|&d| BlockId(d)).collect())
    }

    fn table1() -> BlockInfoTable {
        let mut t = BlockInfoTable::new();
        t.push(BlockInfo::new("W1", 0..11, Dependency::none()))
            .unwrap();
        t.push(BlockInfo::new("W2", 11..21, Dependency::none()))
            .unwrap();
        t.push(BlockInfo::new("W3", 21..31, direct(&[0, 1])))
            .unwrap();
        t.push(BlockInfo::new("W4", 31..41, direct(&[2]))).unwrap();
        t
    }

    #[test]
    fn paper_table1_validates() {
        let t = table1();
        assert_eq!(t.len(), 4);
        assert_eq!(t.mode(), Some(DependencyMode::Direct));
        t.validate().unwrap();
        assert_eq!(t.find("W3"), Some(BlockId(2)));
        assert_eq!(t.get(BlockId(0)).unwrap().len(), 11);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut t = BlockInfoTable::with_capacity(2);
        t.push(BlockInfo::new("a", 0..1, Dependency::none()))
            .unwrap();
        t.push(BlockInfo::new("b", 1..2, Dependency::none()))
            .unwrap();
        let err = t
            .push(BlockInfo::new("c", 2..3, Dependency::none()))
            .unwrap_err();
        assert_eq!(err, BlockTableError::CapacityExceeded { capacity: 2 });
    }

    #[test]
    fn no_table_hands_out_more_ids_than_a_block_id_holds() {
        let mut t = BlockInfoTable::with_capacity(70_000);
        for i in 0..crate::MAX_BLOCKS {
            let id = t
                .push(BlockInfo::new("b", 0..1, Dependency::none()))
                .unwrap();
            assert_eq!(id.index(), i);
        }
        let err = t
            .push(BlockInfo::new("b", 0..1, Dependency::none()))
            .unwrap_err();
        assert_eq!(
            err,
            BlockTableError::CapacityExceeded {
                capacity: crate::MAX_BLOCKS
            }
        );
        assert_eq!(t.capacity(), crate::MAX_BLOCKS);
    }

    #[test]
    fn mixed_modes_rejected_on_push() {
        let mut t = BlockInfoTable::new();
        t.push(BlockInfo::new("a", 0..1, Dependency::Priority(0)))
            .unwrap();
        let err = t
            .push(BlockInfo::new("b", 1..2, Dependency::none()))
            .unwrap_err();
        assert_eq!(err, BlockTableError::MixedDependencyModes);
    }

    #[test]
    fn self_dependency_rejected() {
        let mut t = BlockInfoTable::new();
        t.push(BlockInfo::new("a", 0..1, direct(&[0]))).unwrap();
        assert_eq!(
            t.validate().unwrap_err(),
            BlockTableError::SelfDependency { block: BlockId(0) }
        );
    }

    #[test]
    fn dangling_dependency_rejected() {
        let mut t = BlockInfoTable::new();
        t.push(BlockInfo::new("a", 0..1, direct(&[5]))).unwrap();
        assert!(matches!(
            t.validate().unwrap_err(),
            BlockTableError::UnknownDependency { .. }
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut t = BlockInfoTable::new();
        t.push(BlockInfo::new("a", 0..1, direct(&[1]))).unwrap();
        t.push(BlockInfo::new("b", 1..2, direct(&[0]))).unwrap();
        assert_eq!(t.validate().unwrap_err(), BlockTableError::DependencyCycle);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = BlockInfoTable::new();
        t.push(BlockInfo::new("a", 0..1, Dependency::none()))
            .unwrap();
        t.push(BlockInfo::new("a", 1..2, Dependency::none()))
            .unwrap();
        assert!(matches!(
            t.validate().unwrap_err(),
            BlockTableError::DuplicateName { .. }
        ));
    }

    #[test]
    fn priority_levels_counted() {
        let mut t = BlockInfoTable::new();
        for (i, p) in [0u16, 0, 1, 2, 2, 2].iter().enumerate() {
            t.push(BlockInfo::new(
                format!("w{i}"),
                0..1,
                Dependency::Priority(*p),
            ))
            .unwrap();
        }
        assert_eq!(t.priority_levels(), 3);
        t.validate().unwrap();
    }

    #[test]
    fn display_matches_table1_layout() {
        let rendered = table1().to_string();
        assert!(rendered.contains("Program block"));
        assert!(rendered.contains("W3"));
        assert!(rendered.contains("W1,W2"));
        assert!(rendered.contains("None"));
    }
}
