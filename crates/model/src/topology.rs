//! The simulated Internet's static structure.
//!
//! A [`Topology`] bundles a (synthetic or real) routing table with the two
//! scan views the paper evaluates and with per-block metadata: every block
//! of the more-specific partition knows its root l-prefix and the
//! behavioural [`AsClass`] that governs which services live there and how
//! they churn.

use std::sync::Arc;
use tass_bgp::{AsClass, SynthTable, View};
use tass_net::Prefix;

/// Metadata for one block of the more-specific partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// The block prefix (an m-prefix or a deaggregation remainder).
    pub prefix: Prefix,
    /// The l-prefix it was carved from.
    pub root: Prefix,
    /// Index of the root in the less-specific view's unit list.
    pub root_idx: u32,
    /// Behavioural class: the block's own announcement's AS class when the
    /// block is itself announced, otherwise the root's.
    pub class: AsClass,
    /// Whether the block is itself an announced prefix.
    pub announced: bool,
}

/// The static structure: routing table + views + per-block metadata.
/// The views are shared: a strategy that keeps one for a campaign holds
/// an `Arc` clone, not a copy of its units and trie.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The generated table and its AS metadata.
    pub synth: SynthTable,
    /// Less-specific view (units = l-prefixes).
    pub l_view: Arc<View>,
    /// More-specific view (units = deaggregated blocks).
    pub m_view: Arc<View>,
    blocks: Vec<BlockMeta>,
    blocks_by_root: Vec<Vec<u32>>,
}

impl Topology {
    /// Derive views and block metadata from a generated table.
    pub fn build(synth: SynthTable) -> Topology {
        let l_view = View::less_specific(&synth.table);
        let m_view = View::more_specific(&synth.table);

        // root prefix -> root index (l-view units are sorted by prefix)
        let root_index = |root: Prefix| -> u32 {
            l_view
                .units()
                .binary_search_by(|u| u.prefix.cmp(&root))
                .expect("every block root is an l-view unit") as u32
        };

        let mut blocks = Vec::with_capacity(m_view.len());
        let mut blocks_by_root: Vec<Vec<u32>> = vec![Vec::new(); l_view.len()];
        for (i, unit) in m_view.units().iter().enumerate() {
            let announced = synth.table.get(unit.prefix).is_some();
            let class = if announced {
                synth.class_of_prefix(unit.prefix)
            } else {
                synth.class_of_prefix(unit.root)
            }
            .unwrap_or(AsClass::Infrastructure);
            let root_idx = root_index(unit.root);
            blocks.push(BlockMeta {
                prefix: unit.prefix,
                root: unit.root,
                root_idx,
                class,
                announced,
            });
            blocks_by_root[root_idx as usize].push(i as u32);
        }
        Topology {
            synth,
            l_view: Arc::new(l_view),
            m_view: Arc::new(m_view),
            blocks,
            blocks_by_root,
        }
    }

    /// All blocks, index-aligned with the more-specific view's units.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of root l-prefixes.
    pub fn num_roots(&self) -> usize {
        self.blocks_by_root.len()
    }

    /// Indices of the blocks carved from root `root_idx`.
    pub fn root_blocks(&self, root_idx: u32) -> &[u32] {
        &self.blocks_by_root[root_idx as usize]
    }

    /// Which block contains `addr`, if it is in announced space.
    pub fn block_of_addr(&self, addr: u32) -> Option<u32> {
        self.m_view.attribute(addr)
    }

    /// Total announced address space.
    pub fn announced_space(&self) -> u64 {
        self.m_view.total_space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_bgp::synth::{generate, SynthConfig};

    fn topo(seed: u64, n: usize) -> Topology {
        Topology::build(generate(&SynthConfig {
            seed,
            l_prefix_count: n,
            ..Default::default()
        }))
    }

    #[test]
    fn blocks_align_with_m_view() {
        let t = topo(1, 300);
        assert_eq!(t.num_blocks(), t.m_view.len());
        for (i, b) in t.blocks().iter().enumerate() {
            assert_eq!(b.prefix, t.m_view.units()[i].prefix);
            assert_eq!(b.root, t.m_view.units()[i].root);
        }
    }

    #[test]
    fn root_indices_consistent() {
        let t = topo(2, 300);
        for b in t.blocks() {
            assert_eq!(t.l_view.unit(b.root_idx).prefix, b.root);
        }
        // blocks_by_root covers every block exactly once
        let mut seen = vec![false; t.num_blocks()];
        for r in 0..t.num_roots() as u32 {
            for &bi in t.root_blocks(r) {
                assert!(!seen[bi as usize], "block listed twice");
                seen[bi as usize] = true;
                assert_eq!(t.blocks()[bi as usize].root_idx, r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn announced_blocks_match_table() {
        let t = topo(3, 300);
        for b in t.blocks() {
            assert_eq!(b.announced, t.synth.table.get(b.prefix).is_some());
        }
        // at least one announced and (given m-prefixes) one remainder
        assert!(t.blocks().iter().any(|b| b.announced));
        assert!(t.blocks().iter().any(|b| !b.announced));
    }

    #[test]
    fn block_lookup_by_addr() {
        let t = topo(4, 200);
        for (i, b) in t.blocks().iter().enumerate().step_by(7) {
            assert_eq!(t.block_of_addr(b.prefix.first()), Some(i as u32));
            assert_eq!(t.block_of_addr(b.prefix.last()), Some(i as u32));
        }
        assert_eq!(t.block_of_addr(0x7F00_0001), None); // loopback unannounced
    }

    #[test]
    fn spaces_agree() {
        let t = topo(5, 200);
        assert_eq!(t.announced_space(), t.l_view.total_space());
        let block_sum: u64 = t.blocks().iter().map(|b| b.prefix.size()).sum();
        assert_eq!(t.announced_space(), block_sum);
    }

    #[test]
    fn classes_inherit_from_root_for_remainders() {
        let t = topo(6, 300);
        for b in t.blocks().iter().filter(|b| !b.announced) {
            let root_class = t.synth.class_of_prefix(b.root).unwrap();
            assert_eq!(b.class, root_class);
        }
    }
}
