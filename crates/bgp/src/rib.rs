//! The routing information base: announcements, l/m classification, stats.
//!
//! The paper distinguishes **l-prefixes** (less specific: announced prefixes
//! with no announced ancestor) from **m-prefixes** (more specific: announced
//! prefixes covered by another announced prefix). For the CAIDA table of
//! 2015/09/07 it reports 595,644 entries, 54 % of them m-prefixes,
//! accounting for 34.4 % of the advertised address space —
//! [`RouteTable::stats`] computes exactly these numbers for any table.

use crate::pfx2as::{self, Pfx2AsError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use tass_net::{Prefix, PrefixSet, PrefixTrie};

/// The origin attribute of an announcement, mirroring CAIDA pfx2as:
/// a single AS, a multi-origin prefix (`_`-separated in the text format),
/// or an AS-set (`,`-separated).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// Single origin AS (the overwhelmingly common case).
    Single(u32),
    /// Multiple origin ASes observed for the same prefix (MOAS).
    Multi(Vec<u32>),
    /// An AS-set origin (rare; from aggregated routes).
    Set(Vec<u32>),
}

impl Origin {
    /// The first (primary) AS number.
    pub fn primary(&self) -> u32 {
        match self {
            Origin::Single(a) => *a,
            Origin::Multi(v) | Origin::Set(v) => v[0],
        }
    }

    /// All AS numbers in the origin.
    pub fn all(&self) -> &[u32] {
        match self {
            Origin::Single(a) => std::slice::from_ref(a),
            Origin::Multi(v) | Origin::Set(v) => v,
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Single(a) => write!(f, "{a}"),
            Origin::Multi(v) => {
                let s: Vec<String> = v.iter().map(|a| a.to_string()).collect();
                write!(f, "{}", s.join("_"))
            }
            Origin::Set(v) => {
                let s: Vec<String> = v.iter().map(|a| a.to_string()).collect();
                write!(f, "{}", s.join(","))
            }
        }
    }
}

impl FromStr for Origin {
    type Err = Pfx2AsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        pfx2as::parse_origin(s)
    }
}

/// One table entry: an announced prefix and its origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Announcement {
    /// The announced prefix.
    pub prefix: Prefix,
    /// Its origin AS(es).
    pub origin: Origin,
}

/// Statistics of a routing table, matching the figures the paper reports
/// for the CAIDA 2015/09/07 snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Total number of table entries.
    pub entries: usize,
    /// Number of l-prefixes (entries with no announced strict ancestor).
    pub l_prefixes: usize,
    /// Number of m-prefixes (entries covered by another entry).
    pub m_prefixes: usize,
    /// Fraction of entries that are m-prefixes (paper: 54 %).
    pub m_share: f64,
    /// Total advertised address space (union; paper: ≈ 2.8 billion).
    pub advertised_addrs: u64,
    /// Address space covered by m-prefixes, as a fraction of the advertised
    /// space (paper: 34.4 %).
    pub m_space_share: f64,
}

/// A BGP routing table: a set of announcements with derived structure.
///
/// ```
/// use tass_bgp::{Announcement, Origin, RouteTable};
/// use tass_net::Prefix;
///
/// let mut t = RouteTable::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), Origin::Single(64500));
/// t.insert("10.16.0.0/12".parse().unwrap(), Origin::Single(64501));
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.l_prefixes(), vec!["10.0.0.0/8".parse::<Prefix>().unwrap()]);
/// assert_eq!(t.m_prefixes(), vec!["10.16.0.0/12".parse::<Prefix>().unwrap()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    entries: BTreeMap<Prefix, Origin>,
    trie: PrefixTrie<Origin>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        RouteTable {
            entries: BTreeMap::new(),
            trie: PrefixTrie::new(),
        }
    }

    /// Build from announcements (later duplicates replace earlier ones).
    pub fn from_announcements<I>(iter: I) -> Self
    where
        I: IntoIterator<Item = Announcement>,
    {
        let mut t = RouteTable::new();
        for a in iter {
            t.insert(a.prefix, a.origin);
        }
        t
    }

    /// Insert or replace an announcement. Returns the previous origin.
    pub fn insert(&mut self, prefix: Prefix, origin: Origin) -> Option<Origin> {
        self.trie.insert(prefix, origin.clone());
        self.entries.insert(prefix, origin)
    }

    /// Remove an announcement.
    pub fn remove(&mut self, prefix: Prefix) -> Option<Origin> {
        self.trie.remove(prefix);
        self.entries.remove(&prefix)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Origin of an exact prefix entry.
    pub fn get(&self, prefix: Prefix) -> Option<&Origin> {
        self.entries.get(&prefix)
    }

    /// Iterate entries in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &Origin)> {
        self.entries.iter()
    }

    /// All announced prefixes in order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.entries.keys().copied()
    }

    /// l-prefixes: entries with no announced strict ancestor.
    pub fn l_prefixes(&self) -> Vec<Prefix> {
        self.trie.roots()
    }

    /// m-prefixes: entries strictly covered by another entry.
    pub fn m_prefixes(&self) -> Vec<Prefix> {
        self.entries
            .keys()
            .filter(|p| self.trie.has_strict_ancestor(**p))
            .copied()
            .collect()
    }

    /// The advertised address space (union of all entries).
    pub fn advertised_space(&self) -> PrefixSet {
        PrefixSet::from_prefixes(self.prefixes())
    }

    /// Access the underlying trie (read-only) for advanced queries.
    pub fn trie(&self) -> &PrefixTrie<Origin> {
        &self.trie
    }

    /// Compute the table statistics the paper reports (see [`TableStats`]).
    pub fn stats(&self) -> TableStats {
        let entries = self.len();
        let m: Vec<Prefix> = self.m_prefixes();
        let m_prefixes = m.len();
        let l_prefixes = entries - m_prefixes;
        let advertised = self.advertised_space();
        let advertised_addrs = advertised.num_addrs();
        let m_space = PrefixSet::from_prefixes(m.iter().copied()).num_addrs();
        TableStats {
            entries,
            l_prefixes,
            m_prefixes,
            m_share: if entries == 0 {
                0.0
            } else {
                m_prefixes as f64 / entries as f64
            },
            advertised_addrs,
            m_space_share: if advertised_addrs == 0 {
                0.0
            } else {
                m_space as f64 / advertised_addrs as f64
            },
        }
    }
}

impl FromIterator<Announcement> for RouteTable {
    fn from_iter<I: IntoIterator<Item = Announcement>>(iter: I) -> Self {
        RouteTable::from_announcements(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn table(entries: &[(&str, u32)]) -> RouteTable {
        entries
            .iter()
            .map(|&(s, asn)| Announcement {
                prefix: p(s),
                origin: Origin::Single(asn),
            })
            .collect()
    }

    #[test]
    fn origin_accessors() {
        let s = Origin::Single(65000);
        assert_eq!(s.primary(), 65000);
        assert_eq!(s.all(), &[65000]);
        let m = Origin::Multi(vec![1, 2]);
        assert_eq!(m.primary(), 1);
        assert_eq!(m.all(), &[1, 2]);
        let t = Origin::Set(vec![3, 4, 5]);
        assert_eq!(t.primary(), 3);
        assert_eq!(t.all().len(), 3);
    }

    #[test]
    fn origin_display() {
        assert_eq!(Origin::Single(7).to_string(), "7");
        assert_eq!(Origin::Multi(vec![7, 8]).to_string(), "7_8");
        assert_eq!(Origin::Set(vec![7, 8]).to_string(), "7,8");
    }

    #[test]
    fn insert_replace_remove() {
        let mut t = RouteTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), Origin::Single(1)), None);
        assert_eq!(
            t.insert(p("10.0.0.0/8"), Origin::Single(2)),
            Some(Origin::Single(1))
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&Origin::Single(2)));
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(Origin::Single(2)));
        assert!(t.is_empty());
        assert!(t.trie().longest_match(0x0A000001).is_none());
    }

    #[test]
    fn l_and_m_classification() {
        let t = table(&[
            ("10.0.0.0/8", 1),
            ("10.16.0.0/12", 2),
            ("10.16.16.0/20", 3),
            ("11.0.0.0/8", 4),
        ]);
        assert_eq!(t.l_prefixes(), vec![p("10.0.0.0/8"), p("11.0.0.0/8")]);
        assert_eq!(t.m_prefixes(), vec![p("10.16.0.0/12"), p("10.16.16.0/20")]);
    }

    #[test]
    fn attribution_semantics() {
        let t = table(&[("10.0.0.0/8", 1), ("10.16.0.0/12", 2)]);
        // more-specific (longest match) and less-specific (shortest
        // match) attribution through the table's trie
        let longest = |a| t.trie().longest_match(a).map(|(q, o)| (q, o.primary()));
        let least = |a| t.trie().shortest_match(a).map(|(q, _)| q);
        let a = 0x0A10_0001; // 10.16.0.1
        assert_eq!(longest(a), Some((p("10.16.0.0/12"), 2)));
        assert_eq!(least(a), Some(p("10.0.0.0/8")));
        let b = 0x0A80_0001; // 10.128.0.1 — only in the /8
        assert_eq!(longest(b), Some((p("10.0.0.0/8"), 1)));
        assert_eq!(least(b), Some(p("10.0.0.0/8")));
        assert_eq!(longest(0x0B00_0001), None);
    }

    #[test]
    fn stats_match_hand_computation() {
        // 10/8 (16.7M) + nested /12 (1M) + 11/8 (16.7M): 3 entries, 1 m.
        let t = table(&[("10.0.0.0/8", 1), ("10.16.0.0/12", 2), ("11.0.0.0/8", 3)]);
        let s = t.stats();
        assert_eq!(s.entries, 3);
        assert_eq!(s.l_prefixes, 2);
        assert_eq!(s.m_prefixes, 1);
        assert!((s.m_share - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.advertised_addrs, 2 * (1 << 24));
        let want_m_space = (1u64 << 20) as f64 / (2u64 * (1 << 24)) as f64;
        assert!((s.m_space_share - want_m_space).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_table() {
        let s = RouteTable::new().stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.m_share, 0.0);
        assert_eq!(s.m_space_share, 0.0);
        assert_eq!(s.advertised_addrs, 0);
    }

    #[test]
    fn advertised_space_deduplicates_overlap() {
        let t = table(&[("10.0.0.0/8", 1), ("10.16.0.0/12", 2)]);
        assert_eq!(t.advertised_space().num_addrs(), 1 << 24);
    }

    #[test]
    fn origin_parse_via_fromstr() {
        let o: Origin = "64500".parse().unwrap();
        assert_eq!(o, Origin::Single(64500));
        let o: Origin = "64500_64501".parse().unwrap();
        assert_eq!(o, Origin::Multi(vec![64500, 64501]));
        let o: Origin = "64500,64501".parse().unwrap();
        assert_eq!(o, Origin::Set(vec![64500, 64501]));
        assert!("".parse::<Origin>().is_err());
        assert!("abc".parse::<Origin>().is_err());
    }
}
