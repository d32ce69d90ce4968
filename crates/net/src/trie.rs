//! An arena-allocated binary trie keyed by CIDR prefixes (any family).
//!
//! [`PrefixTrie`] is the workhorse behind the paper's two address→prefix
//! attributions:
//!
//! * **more-specific view** — map an address to the *longest* matching
//!   announced prefix ([`PrefixTrie::longest_match`], classic LPM as a
//!   router would do it);
//! * **less-specific view** — map an address to the *least specific*
//!   announced covering prefix ([`PrefixTrie::shortest_match`]), which is
//!   how the paper attributes hosts to l-prefixes.
//!
//! The trie also answers the structural queries deaggregation needs:
//! "does this prefix have announced descendants?" and "enumerate the
//! announced prefixes below this one".
//!
//! Nodes live in a flat arena (`Vec`) with `u32` child indices: a RouteViews
//! table of ~600 K prefixes needs a few million nodes, and the arena keeps
//! them cache-friendly with no per-node allocation.

use crate::family::{AddrFamily, V4};
use crate::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node<T> {
    value: Option<T>,
    children: [u32; 2],
    /// Number of values stored at or below this node; maintained on insert
    /// and remove so descendant queries can prune early.
    weight: u32,
}

impl<T> Node<T> {
    fn new() -> Self {
        Node {
            value: None,
            children: [NIL, NIL],
            weight: 0,
        }
    }
}

/// A map from prefixes to values, organised as a binary trie. The family
/// parameter defaults to [`V4`]; `PrefixTrie<T, V6>` is the same arena at
/// 128-bit depth.
///
/// ```
/// use tass_net::{Prefix, PrefixTrie};
///
/// let mut t: PrefixTrie<&str> = PrefixTrie::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "l");
/// t.insert("10.16.0.0/12".parse().unwrap(), "m");
///
/// // Router-style longest-prefix match:
/// let (p, v) = t.longest_match(0x0A10_0001).unwrap(); // 10.16.0.1
/// assert_eq!(p.to_string(), "10.16.0.0/12");
/// assert_eq!(*v, "m");
///
/// // Paper-style least-specific attribution:
/// let (p, v) = t.shortest_match(0x0A10_0001).unwrap();
/// assert_eq!(p.to_string(), "10.0.0.0/8");
/// assert_eq!(*v, "l");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrefixTrie<T, F: AddrFamily = V4> {
    nodes: Vec<Node<T>>,
    len: usize,
    _family: PhantomData<F>,
}

impl<T, F: AddrFamily> Default for PrefixTrie<T, F> {
    fn default() -> Self {
        Self::new()
    }
}

/// Bit `depth` (0-indexed from the MSB) of `addr`, the trie branch choice.
#[inline]
fn bit_at<F: AddrFamily>(addr: F::Addr, depth: u8) -> usize {
    ((F::addr_to_u128(addr) >> (F::BITS - 1 - depth)) & 1) as usize
}

impl<T, F: AddrFamily> PrefixTrie<T, F> {
    /// Create an empty trie.
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node::new()],
            len: 0,
            _family: PhantomData,
        }
    }

    /// Create an empty trie with room for roughly `n` prefixes.
    pub fn with_capacity(n: usize) -> Self {
        let mut nodes = Vec::with_capacity(n.saturating_mul(2).max(1));
        nodes.push(Node::new());
        PrefixTrie {
            nodes,
            len: 0,
            _family: PhantomData,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the trie empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walk from the root towards `p`, returning the node index for `p`,
    /// creating intermediate nodes as needed.
    fn walk_or_create(&mut self, p: Prefix<F>) -> usize {
        let mut idx = 0usize;
        for depth in 0..p.len() {
            let bit = bit_at::<F>(p.addr(), depth);
            let child = self.nodes[idx].children[bit];
            let next = if child == NIL {
                let ni = self.nodes.len() as u32;
                self.nodes.push(Node::new());
                self.nodes[idx].children[bit] = ni;
                ni as usize
            } else {
                child as usize
            };
            idx = next;
        }
        idx
    }

    /// Walk without creating; `None` if the path does not exist.
    fn walk(&self, p: Prefix<F>) -> Option<usize> {
        let mut idx = 0usize;
        for depth in 0..p.len() {
            let bit = bit_at::<F>(p.addr(), depth);
            let child = self.nodes[idx].children[bit];
            if child == NIL {
                return None;
            }
            idx = child as usize;
        }
        Some(idx)
    }

    /// Insert `value` at `p`, returning the previous value if any.
    pub fn insert(&mut self, p: Prefix<F>, value: T) -> Option<T> {
        let idx = self.walk_or_create(p);
        let old = self.nodes[idx].value.replace(value);
        if old.is_none() {
            self.len += 1;
            // bump weights along the path
            self.for_path_mut(p, |n| n.weight += 1);
        }
        old
    }

    /// Apply `f` to every node on the path from root to `p` inclusive.
    fn for_path_mut(&mut self, p: Prefix<F>, mut f: impl FnMut(&mut Node<T>)) {
        let mut idx = 0usize;
        f(&mut self.nodes[idx]);
        for depth in 0..p.len() {
            let bit = bit_at::<F>(p.addr(), depth);
            idx = self.nodes[idx].children[bit] as usize;
            f(&mut self.nodes[idx]);
        }
    }

    /// Remove the value at exactly `p`, if present. (Nodes are not pruned;
    /// tables in this workspace only shrink transiently in tests.)
    pub fn remove(&mut self, p: Prefix<F>) -> Option<T> {
        let idx = self.walk(p)?;
        let old = self.nodes[idx].value.take();
        if old.is_some() {
            self.len -= 1;
            self.for_path_mut(p, |n| n.weight -= 1);
        }
        old
    }

    /// Value stored at exactly `p`.
    pub fn get(&self, p: Prefix<F>) -> Option<&T> {
        let idx = self.walk(p)?;
        self.nodes[idx].value.as_ref()
    }

    /// Mutable value stored at exactly `p`.
    pub fn get_mut(&mut self, p: Prefix<F>) -> Option<&mut T> {
        let idx = self.walk(p)?;
        self.nodes[idx].value.as_mut()
    }

    /// Does the trie contain exactly `p`?
    pub fn contains(&self, p: Prefix<F>) -> bool {
        self.get(p).is_some()
    }

    /// Longest-prefix match for an address: the most specific stored prefix
    /// covering `addr`.
    pub fn longest_match(&self, addr: F::Addr) -> Option<(Prefix<F>, &T)> {
        let mut best: Option<(u8, usize)> = None;
        let mut idx = 0usize;
        if self.nodes[0].value.is_some() {
            best = Some((0, 0));
        }
        for depth in 0..F::BITS {
            let bit = bit_at::<F>(addr, depth);
            let child = self.nodes[idx].children[bit];
            if child == NIL {
                break;
            }
            idx = child as usize;
            if self.nodes[idx].value.is_some() {
                best = Some((depth + 1, idx));
            }
        }
        best.map(|(len, i)| {
            let p = Prefix::new_truncate(addr, len).expect("len <= BITS");
            (p, self.nodes[i].value.as_ref().expect("checked"))
        })
    }

    /// Least-specific match for an address: the *shortest* stored prefix
    /// covering `addr` — the paper's l-prefix attribution.
    pub fn shortest_match(&self, addr: F::Addr) -> Option<(Prefix<F>, &T)> {
        let mut idx = 0usize;
        if self.nodes[0].value.is_some() {
            return Some((
                Prefix::zero(),
                self.nodes[0].value.as_ref().expect("checked"),
            ));
        }
        for depth in 0..F::BITS {
            let bit = bit_at::<F>(addr, depth);
            let child = self.nodes[idx].children[bit];
            if child == NIL {
                return None;
            }
            idx = child as usize;
            if self.nodes[idx].value.is_some() {
                let p = Prefix::new_truncate(addr, depth + 1).expect("len <= BITS");
                return Some((p, self.nodes[idx].value.as_ref().expect("checked")));
            }
        }
        None
    }

    /// All stored prefixes covering `addr`, least specific first.
    pub fn matches(&self, addr: F::Addr) -> Vec<(Prefix<F>, &T)> {
        let mut out = Vec::new();
        let mut idx = 0usize;
        if let Some(v) = self.nodes[0].value.as_ref() {
            out.push((Prefix::zero(), v));
        }
        for depth in 0..F::BITS {
            let bit = bit_at::<F>(addr, depth);
            let child = self.nodes[idx].children[bit];
            if child == NIL {
                break;
            }
            idx = child as usize;
            if let Some(v) = self.nodes[idx].value.as_ref() {
                let p = Prefix::new_truncate(addr, depth + 1).expect("len <= BITS");
                out.push((p, v));
            }
        }
        out
    }

    /// Does `p` have stored prefixes *strictly* below it?
    pub fn has_strict_descendants(&self, p: Prefix<F>) -> bool {
        match self.walk(p) {
            Some(idx) => {
                let w = self.nodes[idx].weight as usize;
                let at = usize::from(self.nodes[idx].value.is_some());
                w > at
            }
            None => false,
        }
    }

    /// Does any stored prefix *strictly* contain `p`?
    pub fn has_strict_ancestor(&self, p: Prefix<F>) -> bool {
        let mut idx = 0usize;
        if p.len() > 0 && self.nodes[0].value.is_some() {
            return true;
        }
        for depth in 0..p.len().saturating_sub(1) {
            let bit = bit_at::<F>(p.addr(), depth);
            let child = self.nodes[idx].children[bit];
            if child == NIL {
                return false;
            }
            idx = child as usize;
            if self.nodes[idx].value.is_some() {
                return true;
            }
        }
        false
    }

    /// Iterate stored prefixes at or below `p`, in lexicographic order.
    pub fn descendants(&self, p: Prefix<F>) -> DescendantIter<'_, T, F> {
        let stack = match self.walk(p) {
            Some(idx) => vec![(idx as u32, p)],
            None => Vec::new(),
        };
        DescendantIter { trie: self, stack }
    }

    /// Iterate all stored `(Prefix, &T)` pairs in lexicographic order.
    pub fn iter(&self) -> DescendantIter<'_, T, F> {
        self.descendants(Prefix::zero())
    }

    /// The stored prefixes that have no stored ancestor (table "roots" —
    /// the paper's candidate l-prefixes).
    pub fn roots(&self) -> Vec<Prefix<F>> {
        let mut out = Vec::new();
        // DFS; stop descending once a value is found.
        let mut stack: Vec<(u32, Prefix<F>)> = vec![(0, Prefix::zero())];
        while let Some((idx, p)) = stack.pop() {
            let node = &self.nodes[idx as usize];
            if node.value.is_some() {
                out.push(p);
                continue;
            }
            // push children in reverse order for ascending output
            for bit in [1usize, 0usize] {
                let c = node.children[bit];
                if c != NIL {
                    let child_p = match p.children() {
                        Some((lo, hi)) => {
                            if bit == 0 {
                                lo
                            } else {
                                hi
                            }
                        }
                        None => continue,
                    };
                    stack.push((c, child_p));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Depth-first iterator over stored prefixes below a starting point.
pub struct DescendantIter<'a, T, F: AddrFamily = V4> {
    trie: &'a PrefixTrie<T, F>,
    stack: Vec<(u32, Prefix<F>)>,
}

impl<'a, T, F: AddrFamily> Iterator for DescendantIter<'a, T, F> {
    type Item = (Prefix<F>, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((idx, p)) = self.stack.pop() {
            let node = &self.trie.nodes[idx as usize];
            if node.weight == 0 {
                continue; // nothing stored below; prune
            }
            // push children in reverse (bit 1 first) so bit 0 pops first
            if let Some((lo, hi)) = p.children() {
                let c1 = node.children[1];
                if c1 != NIL {
                    self.stack.push((c1, hi));
                }
                let c0 = node.children[0];
                if c0 != NIL {
                    self.stack.push((c0, lo));
                }
            }
            if let Some(v) = node.value.as_ref() {
                return Some((p, v));
            }
        }
        None
    }
}

impl<T, F: AddrFamily> FromIterator<(Prefix<F>, T)> for PrefixTrie<T, F> {
    fn from_iter<I: IntoIterator<Item = (Prefix<F>, T)>>(iter: I) -> Self {
        let mut t = PrefixTrie::new();
        for (p, v) in iter {
            t.insert(p, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    impl<T, F: AddrFamily> PrefixTrie<T, F> {
        /// Number of stored prefixes at or below `p` (including `p`
        /// itself): the node weight `has_strict_descendants` reads.
        fn descendant_count(&self, p: Prefix<F>) -> usize {
            self.walk(p)
                .map_or(0, |idx| self.nodes[idx].weight as usize)
        }
    }

    #[test]
    fn insert_get_replace_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/9")), None);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn get_mut_updates() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        *t.get_mut(p("10.0.0.0/8")).unwrap() += 10;
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&11));
        assert!(t.get_mut(p("11.0.0.0/8")).is_none());
    }

    #[test]
    fn root_prefix_value() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::ZERO, "default");
        assert_eq!(t.longest_match(12345).unwrap().0, Prefix::ZERO);
        assert_eq!(t.shortest_match(12345).unwrap().0, Prefix::ZERO);
        t.insert(p("10.0.0.0/8"), "ten");
        assert_eq!(*t.longest_match(0x0A000001).unwrap().1, "ten");
        assert_eq!(*t.shortest_match(0x0A000001).unwrap().1, "default");
    }

    #[test]
    fn lpm_and_spm() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.16.0.0/12"), 12);
        t.insert(p("10.16.16.0/20"), 20);
        // address inside all three
        let a = 0x0A10_1001; // 10.16.16.1
        assert_eq!(t.longest_match(a).unwrap().0, p("10.16.16.0/20"));
        assert_eq!(t.shortest_match(a).unwrap().0, p("10.0.0.0/8"));
        assert_eq!(
            t.matches(a).iter().map(|(q, _)| *q).collect::<Vec<_>>(),
            vec![p("10.0.0.0/8"), p("10.16.0.0/12"), p("10.16.16.0/20")]
        );
        // address inside /8 and /12 only
        let b = 0x0A10_0001;
        assert_eq!(t.longest_match(b).unwrap().0, p("10.16.0.0/12"));
        // address inside /8 only
        let c = 0x0A80_0001;
        assert_eq!(t.longest_match(c).unwrap().0, p("10.0.0.0/8"));
        assert_eq!(t.shortest_match(c).unwrap().0, p("10.0.0.0/8"));
        // address outside
        assert!(t.longest_match(0x0B00_0001).is_none());
        assert!(t.shortest_match(0x0B00_0001).is_none());
        assert!(t.matches(0x0B00_0001).is_empty());
    }

    #[test]
    fn host_route_match() {
        let mut t = PrefixTrie::new();
        t.insert(p("1.2.3.4/32"), ());
        assert_eq!(t.longest_match(0x01020304).unwrap().0, p("1.2.3.4/32"));
        assert!(t.longest_match(0x01020305).is_none());
    }

    #[test]
    fn descendant_queries() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.16.0.0/12"), ());
        t.insert(p("10.16.16.0/20"), ());
        t.insert(p("11.0.0.0/8"), ());
        assert_eq!(t.descendant_count(p("10.0.0.0/8")), 3);
        assert_eq!(t.descendant_count(p("10.16.0.0/12")), 2);
        assert_eq!(t.descendant_count(p("0.0.0.0/0")), 4);
        assert_eq!(t.descendant_count(p("12.0.0.0/8")), 0);
        assert!(t.has_strict_descendants(p("10.0.0.0/8")));
        assert!(!t.has_strict_descendants(p("10.16.16.0/20")));
        assert!(!t.has_strict_descendants(p("11.0.0.0/8")));
        assert!(t.has_strict_descendants(p("0.0.0.0/0")));
        assert!(t.has_strict_ancestor(p("10.16.0.0/12")));
        assert!(t.has_strict_ancestor(p("10.255.0.0/16")));
        assert!(!t.has_strict_ancestor(p("10.0.0.0/8")));
        assert!(!t.has_strict_ancestor(p("12.0.0.0/8")));
    }

    #[test]
    fn iteration_order_lexicographic() {
        let mut t = PrefixTrie::new();
        let input = [
            p("11.0.0.0/8"),
            p("10.16.0.0/12"),
            p("10.0.0.0/8"),
            p("10.16.16.0/20"),
            p("10.128.0.0/9"),
        ];
        for q in input {
            t.insert(q, ());
        }
        let got: Vec<Prefix> = t.iter().map(|(q, _)| q).collect();
        let mut want = input.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn descendants_of_subtree() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.16.0.0/12"), ());
        t.insert(p("11.0.0.0/8"), ());
        let got: Vec<Prefix> = t.descendants(p("10.0.0.0/8")).map(|(q, _)| q).collect();
        assert_eq!(got, vec![p("10.0.0.0/8"), p("10.16.0.0/12")]);
        let none: Vec<Prefix> = t.descendants(p("12.0.0.0/8")).map(|(q, _)| q).collect();
        assert!(none.is_empty());
    }

    #[test]
    fn roots_skip_covered() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.16.0.0/12"), ());
        t.insert(p("10.16.16.0/20"), ());
        t.insert(p("11.0.0.0/16"), ());
        assert_eq!(t.roots(), vec![p("10.0.0.0/8"), p("11.0.0.0/16")]);
    }

    #[test]
    fn roots_with_root_value() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::ZERO, ());
        t.insert(p("10.0.0.0/8"), ());
        assert_eq!(t.roots(), vec![Prefix::ZERO]);
    }

    #[test]
    fn weights_after_remove() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.insert(p("10.16.0.0/12"), ());
        t.remove(p("10.16.0.0/12"));
        assert_eq!(t.descendant_count(p("10.0.0.0/8")), 1);
        assert!(!t.has_strict_descendants(p("10.0.0.0/8")));
        let got: Vec<Prefix> = t.iter().map(|(q, _)| q).collect();
        assert_eq!(got, vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn from_iterator() {
        let t: PrefixTrie<u32> = [(p("10.0.0.0/8"), 1u32), (p("11.0.0.0/8"), 2)]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(p("11.0.0.0/8")), Some(&2));
    }

    /// Naive oracle for LPM/SPM: linear scan over a prefix list.
    fn naive_lpm(prefixes: &[Prefix], addr: u32) -> Option<Prefix> {
        prefixes
            .iter()
            .filter(|q| q.contains_addr(addr))
            .max_by_key(|q| q.len())
            .copied()
    }

    fn naive_spm(prefixes: &[Prefix], addr: u32) -> Option<Prefix> {
        prefixes
            .iter()
            .filter(|q| q.contains_addr(addr))
            .min_by_key(|q| q.len())
            .copied()
    }

    proptest! {
        #[test]
        fn prop_lpm_spm_match_naive(
            raw in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..40),
            addrs in proptest::collection::vec(any::<u32>(), 1..40),
        ) {
            let prefixes: Vec<Prefix> = raw
                .iter()
                .map(|&(a, l)| Prefix::new_truncate(a, l).unwrap())
                .collect();
            let trie: PrefixTrie<usize> =
                prefixes.iter().enumerate().map(|(i, &q)| (q, i)).collect();
            for &a in &addrs {
                prop_assert_eq!(trie.longest_match(a).map(|(q, _)| q), naive_lpm(&prefixes, a));
                prop_assert_eq!(trie.shortest_match(a).map(|(q, _)| q), naive_spm(&prefixes, a));
            }
        }

        #[test]
        fn prop_len_counts_unique(
            raw in proptest::collection::vec((any::<u32>(), 0u8..=16), 0..60),
        ) {
            let prefixes: Vec<Prefix> = raw
                .iter()
                .map(|&(a, l)| Prefix::new_truncate(a, l).unwrap())
                .collect();
            let mut unique = prefixes.clone();
            unique.sort_unstable();
            unique.dedup();
            let trie: PrefixTrie<()> = prefixes.iter().map(|&q| (q, ())).collect();
            prop_assert_eq!(trie.len(), unique.len());
            let iterated: Vec<Prefix> = trie.iter().map(|(q, _)| q).collect();
            prop_assert_eq!(iterated, unique);
        }

        #[test]
        fn prop_descendant_count_matches_naive(
            raw in proptest::collection::vec((any::<u32>(), 0u8..=12), 0..40),
            probe in (any::<u32>(), 0u8..=12),
        ) {
            let prefixes: Vec<Prefix> = raw
                .iter()
                .map(|&(a, l)| Prefix::new_truncate(a, l).unwrap())
                .collect();
            let mut unique = prefixes.clone();
            unique.sort_unstable();
            unique.dedup();
            let trie: PrefixTrie<()> = unique.iter().map(|&q| (q, ())).collect();
            let pr = Prefix::new_truncate(probe.0, probe.1).unwrap();
            let naive = unique.iter().filter(|q| pr.contains(q)).count();
            prop_assert_eq!(trie.descendant_count(pr), naive);
            let naive_strict = unique.iter().filter(|q| pr.contains_strictly(q)).count();
            prop_assert_eq!(trie.has_strict_descendants(pr), naive_strict > 0);
            let naive_anc = unique.iter().any(|q| q.contains_strictly(&pr));
            prop_assert_eq!(trie.has_strict_ancestor(pr), naive_anc);
        }
    }
}
