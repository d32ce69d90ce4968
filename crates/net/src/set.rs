//! A canonicalising set of address space, generic over the family.
//!
//! [`PrefixSet`] stores address space as a sorted list of **disjoint,
//! non-adjacent inclusive ranges** and converts to the minimal CIDR cover on
//! demand. Ranges make the algebra (union / intersection / subtraction)
//! simple and obviously correct; CIDR conversion is only needed
//! at the edges (scan scheduling, table dumps). This is the representation
//! behind scan blocklists, the IANA registries, and the "announced address
//! space" bookkeeping in the routing substrate. The algorithms are
//! width-agnostic: the family parameter defaults to [`V4`], so `PrefixSet`
//! written bare is the IPv4 set exactly as before, and `PrefixSet<V6>` is
//! the same machinery over 128-bit ranges (backing the v6 blocklist).

use crate::addr::AddrRange;
use crate::family::{AddrFamily, V4};
use crate::prefix::Prefix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A set of addresses, canonically stored as disjoint ranges.
///
/// ```
/// use tass_net::{Prefix, PrefixSet};
///
/// let mut s = PrefixSet::new();
/// s.insert("10.0.0.0/9".parse().unwrap());
/// s.insert("10.128.0.0/9".parse().unwrap());
/// // Sibling /9s aggregate into the /8:
/// assert_eq!(s.to_prefixes(), vec!["10.0.0.0/8".parse::<Prefix>().unwrap()]);
/// assert_eq!(s.num_addrs(), 1 << 24);
/// ```
///
/// The same algebra at 128 bits:
///
/// ```
/// use tass_net::{Prefix, PrefixSet, V6};
///
/// let mut s: PrefixSet<V6> = PrefixSet::new();
/// s.insert("2001:db8::/33".parse().unwrap());
/// s.insert("2001:db8:8000::/33".parse().unwrap());
/// assert_eq!(s.to_prefixes(), vec!["2001:db8::/32".parse::<Prefix<V6>>().unwrap()]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixSet<F: AddrFamily = V4> {
    /// Sorted, pairwise disjoint and non-adjacent.
    ranges: Vec<AddrRange<F>>,
}

impl<F: AddrFamily> PrefixSet<F> {
    /// The empty set.
    pub fn new() -> Self {
        PrefixSet { ranges: Vec::new() }
    }

    /// The set covering the family's whole space (`0.0.0.0/0` / `::/0`).
    pub fn full() -> Self {
        PrefixSet {
            ranges: vec![AddrRange::full()],
        }
    }

    /// Build from prefixes (duplicates/overlaps/adjacency are canonicalised).
    pub fn from_prefixes<I: IntoIterator<Item = Prefix<F>>>(iter: I) -> Self {
        let mut s = PrefixSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// Number of distinct addresses in the set (saturating only for sets
    /// covering the full v6 space, like every count in the workspace).
    pub fn num_addrs(&self) -> F::Wide {
        F::wide_from_u128(
            self.ranges
                .iter()
                .fold(0u128, |acc, r| acc.saturating_add(r.len_u128())),
        )
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The canonical disjoint ranges (sorted).
    pub fn ranges(&self) -> &[AddrRange<F>] {
        &self.ranges
    }

    /// Insert one prefix.
    pub fn insert(&mut self, p: Prefix<F>) {
        self.insert_range(AddrRange::from(p));
    }

    /// Insert an arbitrary inclusive range, merging as needed. O(n) per call.
    pub fn insert_range(&mut self, r: AddrRange<F>) {
        // Find insertion window: all ranges overlapping or adjacent to r.
        let start = self.ranges.partition_point(|x| {
            // strictly before r and not adjacent
            x.last() < r.first() && !x.adjacent(&r)
        });
        let mut merged = r;
        let mut end = start;
        while end < self.ranges.len() {
            let cur = self.ranges[end];
            if let Some(m) = merged.merge(&cur) {
                merged = m;
                end += 1;
            } else {
                break;
            }
        }
        self.ranges.splice(start..end, [merged]);
    }

    /// Remove one prefix's address space from the set.
    pub fn remove(&mut self, p: Prefix<F>) {
        self.remove_range(AddrRange::from(p));
    }

    /// Remove an arbitrary inclusive range.
    pub fn remove_range(&mut self, r: AddrRange<F>) {
        let mut out = Vec::with_capacity(self.ranges.len() + 1);
        for cur in &self.ranges {
            if !cur.overlaps(&r) {
                out.push(*cur);
                continue;
            }
            // Left remainder (r.first() > cur.first() >= 0, so -1 is safe)
            if cur.first() < r.first() {
                let below = F::addr_from_u128(F::addr_to_u128(r.first()) - 1);
                out.push(AddrRange::new(cur.first(), below).expect("ordered"));
            }
            // Right remainder (r.last() < cur.last() <= max, so +1 is safe)
            if cur.last() > r.last() {
                let above = F::addr_from_u128(F::addr_to_u128(r.last()) + 1);
                out.push(AddrRange::new(above, cur.last()).expect("ordered"));
            }
        }
        self.ranges = out;
    }

    /// Membership test for a single address. O(log n).
    pub fn contains_addr(&self, addr: F::Addr) -> bool {
        let i = self.ranges.partition_point(|r| r.last() < addr);
        i < self.ranges.len() && self.ranges[i].contains(addr)
    }

    /// Does the set share at least one address with the prefix?
    pub fn intersects(&self, p: Prefix<F>) -> bool {
        let r = AddrRange::from(p);
        let i = self.ranges.partition_point(|x| x.last() < r.first());
        i < self.ranges.len() && self.ranges[i].first() <= r.last()
    }

    /// Set union.
    pub fn union(&self, other: &PrefixSet<F>) -> PrefixSet<F> {
        let mut out = self.clone();
        for r in &other.ranges {
            out.insert_range(*r);
        }
        out
    }

    /// Set intersection.
    pub fn intersection(&self, other: &PrefixSet<F>) -> PrefixSet<F> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (a, b) = (self.ranges[i], other.ranges[j]);
            if let Some(x) = a.intersect(&b) {
                out.push(x);
            }
            if a.last() < b.last() {
                i += 1;
            } else {
                j += 1;
            }
        }
        PrefixSet { ranges: out }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &PrefixSet<F>) -> PrefixSet<F> {
        let mut out = self.clone();
        for r in &other.ranges {
            out.remove_range(*r);
        }
        out
    }

    /// The minimal CIDR cover of the set, sorted by address.
    pub fn to_prefixes(&self) -> Vec<Prefix<F>> {
        self.ranges.iter().flat_map(|r| r.to_prefixes()).collect()
    }
}

impl<F: AddrFamily> fmt::Debug for PrefixSet<F> {
    /// Debug prints the CIDR cover, capped at 8 prefixes for readability.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.to_prefixes();
        write!(f, "PrefixSet[{:?} addrs; ", self.num_addrs())?;
        for (i, p) in ps.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        if ps.len() > 8 {
            write!(f, ", … ({} prefixes)", ps.len())?;
        }
        write!(f, "]")
    }
}

impl<F: AddrFamily> FromIterator<Prefix<F>> for PrefixSet<F> {
    fn from_iter<I: IntoIterator<Item = Prefix<F>>>(iter: I) -> Self {
        PrefixSet::from_prefixes(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::V6;
    use proptest::prelude::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn p6(s: &str) -> Prefix<V6> {
        s.parse().unwrap()
    }

    #[test]
    fn empty_and_full() {
        let e: PrefixSet = PrefixSet::new();
        assert!(e.is_empty());
        assert_eq!(e.num_addrs(), 0);
        assert!(e.to_prefixes().is_empty());
        let f = PrefixSet::full();
        assert_eq!(f.num_addrs(), 1 << 32);
        assert_eq!(f.to_prefixes(), vec![Prefix::ZERO]);
        assert!(f.contains_addr(0) && f.contains_addr(u32::MAX));
    }

    #[test]
    fn sibling_aggregation() {
        let s = PrefixSet::from_prefixes([p("10.0.0.0/9"), p("10.128.0.0/9")]);
        assert_eq!(s.to_prefixes(), vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn duplicate_and_nested_insert() {
        let s = PrefixSet::from_prefixes([p("10.0.0.0/8"), p("10.0.0.0/8"), p("10.1.0.0/16")]);
        assert_eq!(s.to_prefixes(), vec![p("10.0.0.0/8")]);
        assert_eq!(s.num_addrs(), 1 << 24);
    }

    #[test]
    fn disjoint_inserts_stay_disjoint() {
        let s = PrefixSet::from_prefixes([p("10.0.0.0/24"), p("10.0.2.0/24")]);
        assert_eq!(s.to_prefixes(), vec![p("10.0.0.0/24"), p("10.0.2.0/24")]);
        assert_eq!(s.num_addrs(), 512);
        assert!(s.contains_addr(0x0A00_0001));
        assert!(!s.contains_addr(0x0A00_0100)); // 10.0.1.0
    }

    #[test]
    fn adjacent_ranges_merge_even_across_cidr_boundaries() {
        // 10.0.1.0/24 and 10.0.2.0/24 are adjacent ranges but not CIDR
        // siblings; they must merge into one range, whose CIDR cover has 2
        // prefixes.
        let s = PrefixSet::from_prefixes([p("10.0.1.0/24"), p("10.0.2.0/24")]);
        assert_eq!(s.ranges().len(), 1);
        assert_eq!(s.num_addrs(), 512);
        assert_eq!(s.to_prefixes().len(), 2);
    }

    #[test]
    fn remove_splits() {
        let mut s = PrefixSet::from_prefixes([p("10.0.0.0/8")]);
        s.remove(p("10.128.0.0/9"));
        assert_eq!(s.to_prefixes(), vec![p("10.0.0.0/9")]);
        s.remove(p("10.0.0.0/10"));
        assert_eq!(s.to_prefixes(), vec![p("10.64.0.0/10")]);
        s.remove(p("10.64.0.0/10"));
        assert!(s.is_empty());
    }

    #[test]
    fn remove_middle_of_range() {
        let mut s = PrefixSet::from_prefixes([p("10.0.0.0/24")]);
        s.remove_range(AddrRange::new(0x0A00_0010, 0x0A00_001F).unwrap());
        assert_eq!(s.num_addrs(), 256 - 16);
        assert!(s.contains_addr(0x0A00_000F));
        assert!(!s.contains_addr(0x0A00_0010));
        assert!(!s.contains_addr(0x0A00_001F));
        assert!(s.contains_addr(0x0A00_0020));
    }

    #[test]
    fn covers_and_intersects() {
        let s = PrefixSet::from_prefixes([p("10.0.0.0/8"), p("192.168.0.0/16")]);
        let covered = |q| PrefixSet::from_prefixes([q]).subtract(&s).is_empty();
        assert!(covered(p("10.5.0.0/16")));
        assert!(covered(p("10.0.0.0/8")));
        assert!(!covered(p("0.0.0.0/0")));
        assert!(!covered(p("11.0.0.0/8")));
        assert!(s.intersects(p("0.0.0.0/4"))); // 10/8 lies within 0/4
        assert!(s.intersects(p("192.0.0.0/8")));
        assert!(!s.intersects(p("172.16.0.0/12")));
    }

    #[test]
    fn union_intersection_subtract() {
        let a = PrefixSet::from_prefixes([p("10.0.0.0/8")]);
        let b = PrefixSet::from_prefixes([p("10.128.0.0/9"), p("11.0.0.0/8")]);
        let u = a.union(&b);
        assert_eq!(u.num_addrs(), (1 << 24) + (1 << 24));
        let i = a.intersection(&b);
        assert_eq!(i.to_prefixes(), vec![p("10.128.0.0/9")]);
        let d = a.subtract(&b);
        assert_eq!(d.to_prefixes(), vec![p("10.0.0.0/9")]);
        // subtract everything
        let z = a.subtract(&a);
        assert!(z.is_empty());
    }

    #[test]
    fn complement_of_half() {
        let a = PrefixSet::from_prefixes([p("0.0.0.0/1")]);
        let c = PrefixSet::full().subtract(&a);
        assert_eq!(c.to_prefixes(), vec![p("128.0.0.0/1")]);
        assert_eq!(a.union(&c).num_addrs(), 1 << 32);
        assert!(a.intersection(&c).is_empty());
    }

    #[test]
    fn boundary_addresses() {
        let s = PrefixSet::from_prefixes([p("255.255.255.255/32"), p("0.0.0.0/32")]);
        assert!(s.contains_addr(0));
        assert!(s.contains_addr(u32::MAX));
        assert_eq!(s.num_addrs(), 2);
        let c = PrefixSet::full().subtract(&s);
        assert_eq!(c.num_addrs(), (1u64 << 32) - 2);
        assert!(!c.contains_addr(0));
    }

    #[test]
    fn v6_set_algebra_and_canonicalisation() {
        let s = PrefixSet::from_prefixes([p6("2001:db8::/33"), p6("2001:db8:8000::/33")]);
        assert_eq!(s.to_prefixes(), vec![p6("2001:db8::/32")]);
        assert_eq!(s.num_addrs(), 1u128 << 96);
        assert!(s.contains_addr((0x2001_0db8u128 << 96) | 42));
        assert!(!s.contains_addr(0x2001_0db9u128 << 96));
        assert!(PrefixSet::from_prefixes([p6("2001:db8:1234::/48")])
            .subtract(&s)
            .is_empty());
        assert!(s.intersects(p6("2001::/16")));
        // remove splits at 128-bit width
        let mut t = s.clone();
        t.remove(p6("2001:db8:8000::/33"));
        assert_eq!(t.to_prefixes(), vec![p6("2001:db8::/33")]);
        // subtraction/union laws
        let d = s.subtract(&t);
        assert_eq!(d.to_prefixes(), vec![p6("2001:db8:8000::/33")]);
        assert_eq!(t.union(&d), s);
    }

    #[test]
    fn v6_full_space_and_complement() {
        let f: PrefixSet<V6> = PrefixSet::full();
        assert!(f.contains_addr(0) && f.contains_addr(u128::MAX));
        assert_eq!(f.num_addrs(), u128::MAX, "uncountable space saturates");
        assert_eq!(f.to_prefixes(), vec![Prefix::<V6>::zero()]);
        let hosts = PrefixSet::from_prefixes([
            p6("::/128"),
            p6("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"),
        ]);
        let c = f.subtract(&hosts);
        assert!(!c.contains_addr(0));
        assert!(!c.contains_addr(u128::MAX));
        assert!(c.contains_addr(1));
        assert_eq!(c.num_addrs(), u128::MAX - 1, "2^128 - 2, exact");
    }

    #[test]
    fn debug_formatting_caps() {
        let s: PrefixSet =
            PrefixSet::from_prefixes((0..20u32).map(|i| Prefix::new(i << 12, 24).unwrap()));
        let d = format!("{s:?}");
        assert!(d.contains("…"));
    }

    // ---- property tests against a naive bit-set oracle over a small universe
    //
    // Prefixes are embedded inside 10.0.0.0/24 with lengths 24..=32 so the
    // whole universe is only 256 addresses and exhaustive checks stay fast.

    fn build_set(ps: &[(u8, u8)]) -> PrefixSet {
        let mut s = PrefixSet::new();
        for &(start, len) in ps {
            let len = 24 + (len % 9);
            let width = 32 - len;
            let base = (0x0A00_0000u32 | u32::from(start)) & !((1u32 << width) - 1);
            s.insert(Prefix::new(base, len).unwrap());
        }
        s
    }

    /// The same embedding shifted into 2001:db8::/120 — the oracle checks
    /// that the generic algorithms behave identically at 128-bit width.
    fn build_set_v6(ps: &[(u8, u8)]) -> PrefixSet<V6> {
        let mut s = PrefixSet::new();
        for &(start, len) in ps {
            let len = 120 + (len % 9);
            let width = 128 - len;
            let base = ((0x2001_0db8u128 << 96) | u128::from(start)) & !((1u128 << width) - 1);
            s.insert(Prefix::new(base, len).unwrap());
        }
        s
    }

    proptest! {
        #[test]
        fn prop_matches_oracle(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12)) {
            let s = build_set(&ops);
            // oracle built with identical embedding
            let mut oracle = std::collections::BTreeSet::new();
            for &(start, len) in &ops {
                let len = 24 + (len % 9);
                let width = 32 - len;
                let base = (0x0A00_0000u32 | u32::from(start)) & !((1u32 << width) - 1);
                for off in 0..(1u32 << width) {
                    oracle.insert(base + off);
                }
            }
            prop_assert_eq!(s.num_addrs(), oracle.len() as u64);
            for a in 0x0A00_0000u32..0x0A00_0100 {
                prop_assert_eq!(s.contains_addr(a), oracle.contains(&a), "addr {}", a);
            }
            // canonical: to_prefixes covers the same addresses
            let mut covered = std::collections::BTreeSet::new();
            for pre in s.to_prefixes() {
                for a in AddrRange::from(pre).iter() {
                    covered.insert(a);
                }
            }
            prop_assert_eq!(covered, oracle);
        }

        #[test]
        fn prop_algebra_laws(a in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8),
                             b in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8)) {
            let sa = build_set(&a);
            let sb = build_set(&b);
            let union = sa.union(&sb);
            let inter = sa.intersection(&sb);
            let diff = sa.subtract(&sb);
            // |A∪B| = |A| + |B| − |A∩B|
            prop_assert_eq!(union.num_addrs() + inter.num_addrs(),
                            sa.num_addrs() + sb.num_addrs());
            // A = (A\B) ∪ (A∩B), disjointly
            prop_assert_eq!(diff.num_addrs() + inter.num_addrs(), sa.num_addrs());
            prop_assert!(diff.intersection(&sb).is_empty());
            // idempotence / commutativity spot checks
            prop_assert_eq!(sa.union(&sa).num_addrs(), sa.num_addrs());
            prop_assert_eq!(sa.intersection(&sb).num_addrs(),
                            sb.intersection(&sa).num_addrs());
        }

        #[test]
        fn prop_to_prefixes_minimal(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..10)) {
            let s = build_set(&ops);
            let ps = s.to_prefixes();
            // disjoint + sorted
            for w in ps.windows(2) {
                prop_assert!(w[0].last() < w[1].first());
            }
            // minimal: no two adjacent prefixes are mergeable siblings
            for w in ps.windows(2) {
                if let (Some(s0), Some(p0)) = (w[0].sibling(), w[0].parent()) {
                    prop_assert!(!(s0 == w[1] && p0.contains(&w[1])),
                        "mergeable siblings {} {}", w[0], w[1]);
                }
            }
        }

        /// The v4 and v6 instantiations of the same ops agree: the generic
        /// algorithms are address-width invariant.
        #[test]
        fn prop_v4_v6_embeddings_agree(a in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8),
                                       b in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..8)) {
            let (sa4, sb4) = (build_set(&a), build_set(&b));
            let (sa6, sb6) = (build_set_v6(&a), build_set_v6(&b));
            prop_assert_eq!(u128::from(sa4.num_addrs()), sa6.num_addrs());
            prop_assert_eq!(u128::from(sa4.union(&sb4).num_addrs()),
                            sa6.union(&sb6).num_addrs());
            prop_assert_eq!(u128::from(sa4.intersection(&sb4).num_addrs()),
                            sa6.intersection(&sb6).num_addrs());
            prop_assert_eq!(u128::from(sa4.subtract(&sb4).num_addrs()),
                            sa6.subtract(&sb6).num_addrs());
            prop_assert_eq!(sa4.to_prefixes().len(), sa6.to_prefixes().len());
            for off in 0u32..256 {
                let a4 = 0x0A00_0000u32 | off;
                let a6 = (0x2001_0db8u128 << 96) | u128::from(off);
                prop_assert_eq!(sa4.contains_addr(a4), sa6.contains_addr(a6));
            }
        }
    }

    #[test]
    fn build_set_helper_sane() {
        // (start, 8) maps to a /32: 24 + 8 % 9 == 32
        let s = build_set(&[(0, 8)]);
        assert_eq!(s.num_addrs(), 1);
        // (0, 0) maps to the whole /24
        let t = build_set(&[(0, 0)]);
        assert_eq!(t.num_addrs(), 256);
    }
}
