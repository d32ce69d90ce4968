//! Seeded synthetic RouteViews-like table generator.
//!
//! The paper's topology input is a historical CAIDA pfx2as snapshot
//! (2015/09/07: 595,644 entries, 54 % m-prefixes, m-prefixes covering
//! 34.4 % of the advertised space). Those snapshots are not shipped with
//! this repository, so this module generates **structurally equivalent**
//! tables: l-prefixes carved out of the IANA-allocated space by ASes drawn
//! from behavioural classes, with class-dependent prefix lengths and
//! class-dependent more-specific announcements nested inside them.
//!
//! The class assigned to each AS here is the hook the ground-truth model
//! (`tass-model`) uses to decide *which protocols* live in a prefix and
//! *how its hosts churn* — e.g. CWMP (TR-069) concentrates in
//! [`AsClass::Residential`] space with dynamic addressing, which is what
//! makes the paper's Figure 5 hitlist decay so steep for CWMP.
//!
//! Generation is fully deterministic given [`SynthConfig::seed`].

use crate::rib::{Origin, RouteTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tass_net::{iana, Prefix};

/// Behavioural class of an autonomous system.
///
/// Classes control both table structure (prefix sizes, deaggregation
/// habits) and — in `tass-model` — service density and churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AsClass {
    /// Datacenter / hosting / cloud: dense services, stable addressing.
    Hosting,
    /// Residential eyeball ISPs: CPE gear, dynamic addressing.
    Residential,
    /// Corporate networks: sparse services, moderate stability.
    Enterprise,
    /// Universities and NRENs: large stable allocations, moderate density.
    Academic,
    /// Cellular carriers: large NATted pools, almost no listening services.
    Mobile,
    /// Small infrastructure/transit allocations.
    Infrastructure,
}

impl AsClass {
    /// All classes, in a fixed order (used for iteration and tables).
    pub const ALL: [AsClass; 6] = [
        AsClass::Hosting,
        AsClass::Residential,
        AsClass::Enterprise,
        AsClass::Academic,
        AsClass::Mobile,
        AsClass::Infrastructure,
    ];

    /// Short lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            AsClass::Hosting => "hosting",
            AsClass::Residential => "residential",
            AsClass::Enterprise => "enterprise",
            AsClass::Academic => "academic",
            AsClass::Mobile => "mobile",
            AsClass::Infrastructure => "infrastructure",
        }
    }
}

impl std::fmt::Display for AsClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Metadata for one generated AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsInfo {
    /// AS number.
    pub asn: u32,
    /// Behavioural class.
    pub class: AsClass,
}

/// Structural parameters of one AS class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassStructure {
    /// Share of l-prefixes generated for this class (weights; normalised).
    pub l_share: f64,
    /// Distribution of l-prefix lengths as `(length, weight)` pairs.
    pub l_lengths: Vec<(u8, f64)>,
    /// Probability that an l-prefix has more-specific announcements.
    pub m_prob: f64,
    /// Mean number of m-prefixes per deaggregated l-prefix (geometric-ish).
    pub m_mean: f64,
    /// Range of m-prefix depth below the l-prefix, in extra bits.
    pub m_depth: (u8, u8),
    /// Mean number of l-prefixes per AS of this class.
    pub prefixes_per_as: f64,
}

/// Configuration of the synthetic table generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthConfig {
    /// RNG seed; equal seeds give identical tables.
    pub seed: u64,
    /// Number of l-prefixes to generate (the real table has ~275 K;
    /// experiments default to a scaled-down table).
    pub l_prefix_count: usize,
    /// Fraction of the IANA-allocated space the announcements should cover
    /// (the paper's scopes: ~2.8 B announced of ~3.7 B allocated ≈ 0.76).
    pub announced_fraction: f64,
    /// Probability that an m-prefix is announced by a customer AS rather
    /// than the l-prefix's own AS.
    pub m_customer_prob: f64,
    /// Probability that an m-prefix spawns a second-level more-specific
    /// inside itself (exercises multi-level deaggregation).
    pub m_nested_prob: f64,
    /// Announce the alignment remainders too. The sweep places each
    /// l-prefix at the next boundary of its own size; the skipped-over
    /// space (on average half a block per length change) is silently
    /// unannounced, which caps real coverage well below
    /// [`SynthConfig::announced_fraction`]. With backfill, each skip is
    /// CIDR-decomposed into maximal aligned blocks (down to /24) and
    /// announced by the neighbouring AS — the adjacent-allocation
    /// pattern real registries produce — so coverage actually lands at
    /// `announced_fraction` and the table grows toward the real table's
    /// entry count. Backfilled blocks draw no randomness and do not
    /// count against [`SynthConfig::l_prefix_count`], so the main sweep
    /// places exactly the same l-prefixes either way. Off by default:
    /// backfill changes the generated table for equal seeds, and
    /// downstream digests pin the original sweep.
    pub backfill_gaps: bool,
    /// Per-class structure; defaults calibrated against the paper.
    pub classes: Vec<(AsClass, ClassStructure)>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            seed: 0x7A55,
            l_prefix_count: 20_000,
            announced_fraction: 0.76,
            m_customer_prob: 0.3,
            m_nested_prob: 0.06,
            backfill_gaps: false,
            classes: default_class_structures(),
        }
    }
}

/// The default class structures (shares and length mixes chosen so a
/// generated table reproduces the paper's table statistics: ~54 % of
/// entries more-specific and m-prefixes covering ~34 % of advertised
/// space).
pub fn default_class_structures() -> Vec<(AsClass, ClassStructure)> {
    vec![
        (
            AsClass::Hosting,
            ClassStructure {
                l_share: 0.22,
                l_lengths: vec![
                    (14, 2.0),
                    (15, 3.0),
                    (16, 5.0),
                    (17, 4.0),
                    (18, 3.0),
                    (19, 2.0),
                    (20, 2.0),
                ],
                m_prob: 0.55,
                m_mean: 2.8,
                m_depth: (1, 8),
                prefixes_per_as: 2.5,
            },
        ),
        (
            AsClass::Residential,
            ClassStructure {
                l_share: 0.18,
                l_lengths: vec![
                    (10, 1.0),
                    (11, 2.0),
                    (12, 4.0),
                    (13, 5.0),
                    (14, 6.0),
                    (15, 4.0),
                    (16, 3.0),
                ],
                m_prob: 0.70,
                m_mean: 4.0,
                m_depth: (1, 6),
                prefixes_per_as: 4.0,
            },
        ),
        (
            AsClass::Enterprise,
            ClassStructure {
                l_share: 0.34,
                l_lengths: vec![
                    (16, 4.0),
                    (17, 3.0),
                    (18, 4.0),
                    (19, 4.0),
                    (20, 4.0),
                    (21, 2.0),
                    (22, 2.0),
                ],
                m_prob: 0.35,
                m_mean: 2.0,
                m_depth: (1, 6),
                prefixes_per_as: 1.6,
            },
        ),
        (
            AsClass::Academic,
            ClassStructure {
                l_share: 0.08,
                l_lengths: vec![(14, 1.0), (15, 2.0), (16, 6.0), (17, 2.0)],
                m_prob: 0.30,
                m_mean: 1.8,
                m_depth: (1, 8),
                prefixes_per_as: 1.4,
            },
        ),
        (
            AsClass::Mobile,
            ClassStructure {
                l_share: 0.04,
                l_lengths: vec![(11, 2.0), (12, 4.0), (13, 4.0), (14, 3.0)],
                m_prob: 0.60,
                m_mean: 2.6,
                m_depth: (1, 5),
                prefixes_per_as: 5.0,
            },
        ),
        (
            AsClass::Infrastructure,
            ClassStructure {
                l_share: 0.14,
                l_lengths: vec![
                    (19, 2.0),
                    (20, 3.0),
                    (21, 3.0),
                    (22, 4.0),
                    (23, 2.0),
                    (24, 3.0),
                ],
                m_prob: 0.20,
                m_mean: 1.5,
                m_depth: (1, 5),
                prefixes_per_as: 1.3,
            },
        ),
    ]
}

/// A generated table plus its AS metadata.
#[derive(Debug, Clone)]
pub struct SynthTable {
    /// The routing table itself.
    pub table: RouteTable,
    /// All generated ASes.
    pub ases: Vec<AsInfo>,
    /// Class lookup by ASN.
    pub class_by_asn: BTreeMap<u32, AsClass>,
}

impl SynthTable {
    /// The behavioural class of an exact announced prefix, resolved through
    /// its origin AS.
    pub fn class_of_prefix(&self, p: Prefix) -> Option<AsClass> {
        let origin = self.table.get(p)?;
        self.class_by_asn.get(&origin.primary()).copied()
    }
}

/// Sample an index from cumulative weights. Small helper to avoid a
/// `rand_distr` dependency.
fn sample_weighted(rng: &mut SmallRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0);
    let mut x = rng.random::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Sample a geometric-like count with the given mean, at least 1.
fn sample_count(rng: &mut SmallRng, mean: f64) -> usize {
    debug_assert!(mean >= 1.0);
    let p = 1.0 / mean;
    let mut n = 1usize;
    while n < 64 && rng.random::<f64>() > p {
        n += 1;
    }
    n
}

/// Announce the alignment skip `[cursor, aligned)` as maximal aligned
/// blocks (greedy CIDR decomposition, nothing longer than /24) from the
/// neighbouring origin. Slivers finer than /24 stay unannounced — at
/// most 255 addresses per skip, noise at sweep scale.
fn backfill(table: &mut RouteTable, last_asn: Option<u32>, cursor: u64, aligned: u64) {
    let Some(asn) = last_asn else { return };
    // gaps are arbitrary byte counts, so the skip rarely starts on a
    // block boundary: snap to the /24 grid and shed sub-/24 slivers
    let mut at = cursor.div_ceil(256) * 256;
    while at + 256 <= aligned {
        // largest power of two that both divides `at` and fits
        let align_bits = if at == 0 { 32 } else { at.trailing_zeros() };
        let fit_bits = 63 - (aligned - at).leading_zeros();
        let bits = align_bits.min(fit_bits).min(32);
        let len = (32 - bits) as u8;
        let p = Prefix::new(at as u32, len).expect("aligned by construction");
        table.insert(p, Origin::Single(asn));
        at += 1u64 << bits;
    }
}

/// Generate a synthetic table from a configuration.
///
/// The allocated IPv4 space is swept once, carving l-prefixes with
/// class-dependent lengths and leaving gaps so that announcements cover
/// roughly [`SynthConfig::announced_fraction`] of the allocated space
/// (exactly only with [`SynthConfig::backfill_gaps`]; the plain sweep
/// also loses the block-alignment remainders).
/// m-prefixes are nested inside l-prefixes per class structure. Determinism:
/// same config ⇒ same table.
pub fn generate(cfg: &SynthConfig) -> SynthTable {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut table = RouteTable::new();
    let mut ases: Vec<AsInfo> = Vec::new();
    let mut class_by_asn: BTreeMap<u32, AsClass> = BTreeMap::new();
    let mut next_asn: u32 = 1000;
    // currently "open" AS per class, for prefixes_per_as clustering
    let mut open_as: BTreeMap<AsClass, (u32, f64)> = BTreeMap::new();

    let class_weights: Vec<f64> = cfg.classes.iter().map(|(_, s)| s.l_share).collect();

    // The gap factor makes expected announced coverage ≈ announced_fraction.
    let gap_factor = (1.0 - cfg.announced_fraction) / cfg.announced_fraction.max(1e-9);

    let allocated = iana::allocated_set();
    let ranges: Vec<_> = allocated.ranges().to_vec();
    let mut range_idx = 0usize;
    let mut cursor: u64 = match ranges.first() {
        Some(r) => u64::from(r.first()),
        None => {
            return SynthTable {
                table,
                ases,
                class_by_asn,
            }
        }
    };

    let mut generated = 0usize;
    // the previous main-sweep origin, for backfilled remainders
    let mut last_asn: Option<u32> = None;
    'outer: while generated < cfg.l_prefix_count {
        if range_idx >= ranges.len() {
            break;
        }
        let range_end = u64::from(ranges[range_idx].last()) + 1;

        // pick class and length
        let ci = sample_weighted(&mut rng, &class_weights);
        let (class, structure) = {
            let (c, s) = &cfg.classes[ci];
            (*c, s.clone())
        };
        let lw: Vec<f64> = structure.l_lengths.iter().map(|&(_, w)| w).collect();
        let len = structure.l_lengths[sample_weighted(&mut rng, &lw)].0;
        let size = 1u64 << (32 - len);

        // align cursor up to the block boundary
        let aligned = cursor.div_ceil(size) * size;
        if aligned + size > range_end {
            // no room left in this allocated range; move to the next
            range_idx += 1;
            if range_idx < ranges.len() {
                cursor = u64::from(ranges[range_idx].first());
                continue;
            }
            break 'outer;
        }
        let l_prefix = Prefix::new(aligned as u32, len).expect("aligned by construction");
        if cfg.backfill_gaps {
            backfill(&mut table, last_asn, cursor, aligned);
        }

        // AS assignment with per-class clustering
        let asn = {
            let entry = open_as.get_mut(&class);
            match entry {
                Some((asn, left)) if *left >= 1.0 => {
                    *left -= 1.0;
                    *asn
                }
                _ => {
                    let asn = next_asn;
                    next_asn += 1;
                    ases.push(AsInfo { asn, class });
                    class_by_asn.insert(asn, class);
                    // expected further prefixes for this AS
                    let budget = structure.prefixes_per_as * (0.5 + rng.random::<f64>());
                    open_as.insert(class, (asn, budget - 1.0));
                    asn
                }
            }
        };
        table.insert(l_prefix, Origin::Single(asn));
        generated += 1;
        last_asn = Some(asn);

        // m-prefixes
        if rng.random::<f64>() < structure.m_prob {
            let count = sample_count(&mut rng, structure.m_mean);
            for _ in 0..count {
                let (dmin, dmax) = structure.m_depth;
                let extra = rng.random_range(u32::from(dmin)..=u32::from(dmax)) as u8;
                let m_len = (len + extra).min(30);
                if m_len <= len {
                    continue;
                }
                // random aligned position inside the l-prefix
                let slots = 1u64 << (m_len - len);
                let slot = rng.random_range(0..slots);
                let m_addr = (u64::from(l_prefix.addr()) + slot * (1u64 << (32 - m_len))) as u32;
                let m_prefix = Prefix::new(m_addr, m_len).expect("aligned");
                if table.get(m_prefix).is_some() {
                    continue;
                }
                let m_asn = if rng.random::<f64>() < cfg.m_customer_prob {
                    // customer AS: enterprise-ish unless inside residential
                    let c = match class {
                        AsClass::Residential | AsClass::Mobile => AsClass::Enterprise,
                        other => other,
                    };
                    let asn = next_asn;
                    next_asn += 1;
                    ases.push(AsInfo { asn, class: c });
                    class_by_asn.insert(asn, c);
                    asn
                } else {
                    asn
                };
                table.insert(m_prefix, Origin::Single(m_asn));

                // occasional second-level nesting
                if rng.random::<f64>() < cfg.m_nested_prob && m_len + 2 <= 30 {
                    let n_len = m_len + 2;
                    let n_slots = 1u64 << (n_len - m_len);
                    let n_slot = rng.random_range(0..n_slots);
                    let n_addr =
                        (u64::from(m_prefix.addr()) + n_slot * (1u64 << (32 - n_len))) as u32;
                    let n_prefix = Prefix::new(n_addr, n_len).expect("aligned");
                    if table.get(n_prefix).is_none() {
                        table.insert(n_prefix, Origin::Single(m_asn));
                    }
                }
            }
        }

        // advance cursor, optionally leaving a gap
        cursor = aligned + size;
        let gap = (size as f64 * gap_factor * 2.0 * rng.random::<f64>()) as u64;
        cursor += gap;
    }

    SynthTable {
        table,
        ases,
        class_by_asn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            l_prefix_count: 800,
            ..SynthConfig::default()
        }
    }

    #[test]
    fn backfill_recovers_alignment_remainders() {
        let plain = generate(&small_cfg(42));
        let filled = generate(&SynthConfig {
            backfill_gaps: true,
            ..small_cfg(42)
        });
        let space = |t: &SynthTable| {
            crate::View::of(&t.table, crate::ViewKind::LessSpecific)
                .units()
                .iter()
                .map(|u| u.prefix.size())
                .sum::<u64>()
        };
        // every plain-sweep prefix survives verbatim; backfill only adds
        let plain_set: std::collections::BTreeSet<_> = plain.table.prefixes().collect();
        let filled_set: std::collections::BTreeSet<_> = filled.table.prefixes().collect();
        assert!(plain_set.is_subset(&filled_set));
        assert!(filled_set.len() > plain_set.len());
        // and the recovered remainders are substantial: the plain sweep
        // loses about a third of the swept space to block alignment
        assert!(space(&filled) > space(&plain) + space(&plain) / 4);
        // still deterministic
        let again = generate(&SynthConfig {
            backfill_gaps: true,
            ..small_cfg(42)
        });
        let pa: Vec<_> = filled.table.prefixes().collect();
        let pb: Vec<_> = again.table.prefixes().collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small_cfg(42));
        let b = generate(&small_cfg(42));
        let pa: Vec<_> = a.table.prefixes().collect();
        let pb: Vec<_> = b.table.prefixes().collect();
        assert_eq!(pa, pb);
        assert_eq!(a.ases.len(), b.ases.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_cfg(1));
        let b = generate(&small_cfg(2));
        let pa: Vec<_> = a.table.prefixes().collect();
        let pb: Vec<_> = b.table.prefixes().collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn l_prefix_count_hits_target() {
        let t = generate(&small_cfg(7));
        let l = t.table.l_prefixes().len();
        // l-prefixes may slightly exceed the target when an m-prefix ends up
        // with no ancestor (cannot happen by construction) or fall short on
        // space exhaustion (cannot happen at this size); expect exact.
        assert_eq!(l, 800);
    }

    #[test]
    fn m_share_near_paper() {
        let t = generate(&SynthConfig {
            seed: 3,
            l_prefix_count: 4000,
            ..Default::default()
        });
        let s = t.table.stats();
        assert!(
            (0.40..0.68).contains(&s.m_share),
            "m_share {} far from the paper's 0.54",
            s.m_share
        );
        assert!(
            (0.15..0.55).contains(&s.m_space_share),
            "m_space_share {} far from the paper's 0.344",
            s.m_space_share
        );
    }

    #[test]
    fn avoids_reserved_space() {
        let t = generate(&small_cfg(9));
        let reserved = tass_net::iana::reserved_set();
        for p in t.table.prefixes() {
            assert!(!reserved.intersects(p), "{p} overlaps reserved space");
        }
    }

    #[test]
    fn m_prefixes_have_announced_ancestors() {
        let t = generate(&small_cfg(11));
        for m in t.table.m_prefixes() {
            assert!(t.table.trie().has_strict_ancestor(m));
        }
    }

    #[test]
    fn every_origin_has_class() {
        let t = generate(&small_cfg(13));
        for (p, o) in t.table.iter() {
            assert!(
                t.class_by_asn.contains_key(&o.primary()),
                "no class for {p} origin {o}"
            );
        }
    }

    #[test]
    fn class_lookups() {
        let t = generate(&small_cfg(17));
        let some_l = t.table.l_prefixes()[0];
        let c = t.class_of_prefix(some_l);
        assert!(c.is_some());
        // loopback is unannounced
        assert_eq!(t.class_of_prefix("127.0.0.0/8".parse().unwrap()), None);
    }

    #[test]
    fn all_classes_present_in_large_table() {
        let t = generate(&SynthConfig {
            seed: 23,
            l_prefix_count: 3000,
            ..Default::default()
        });
        for class in AsClass::ALL {
            assert!(
                t.ases.iter().any(|a| a.class == class),
                "class {class} missing"
            );
        }
    }

    #[test]
    fn announced_fraction_in_ballpark() {
        let t = generate(&SynthConfig {
            seed: 5,
            l_prefix_count: 6000,
            ..Default::default()
        });
        let allocated = tass_net::iana::allocated_set().num_addrs() as f64;
        let announced = t.table.stats().advertised_addrs as f64;
        let frac = announced / allocated;
        // The sweep stops after l_prefix_count prefixes, so coverage depends
        // on table size; with 6000 prefixes we only cover part of the space.
        // What matters is that gaps exist: density of announcements along the
        // swept region should be near the configured fraction.
        assert!(frac > 0.0 && frac < 1.0, "announced fraction {frac}");
    }

    #[test]
    fn class_names_unique() {
        let mut names: Vec<&str> = AsClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
        assert_eq!(AsClass::Hosting.to_string(), "hosting");
    }

    #[test]
    fn empty_target_yields_empty_table() {
        let t = generate(&SynthConfig {
            seed: 1,
            l_prefix_count: 0,
            ..Default::default()
        });
        assert!(t.table.is_empty());
        assert!(t.ases.is_empty());
    }
}
