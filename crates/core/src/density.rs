//! Steps 1–3 of TASS: count, densify, rank.
//!
//! Given a scan view (the paper's l- or m-prefixes) and the responsive
//! host set of a full scan, compute for every **responsive** scan unit its
//! count cᵢ, density ρᵢ = cᵢ / 2^(32−len), and relative host coverage
//! φᵢ = cᵢ / N, then rank by descending density. This ranking is the
//! paper's Figure 4: density falls sharply while cumulative host coverage
//! rises much faster than cumulative address-space coverage — the entire
//! reason TASS works.
//!
//! # Cost model
//!
//! Counting is generic over [`PrefixCount`] and goes through its bulk
//! sweep: view units are sorted by prefix, so counting a whole view
//! against a `HostSet`, a shared `Snapshot`, or a per-cycle
//! `HostSetView` is one coordinated galloping pass over the sorted host
//! storage — O(Σ log gapᵢ) comparisons total, no per-unit full-width
//! binary search, no hashing, no locks. Ordering is split from counting:
//! [`DensityCounts`] holds the unranked per-unit stats, and either
//! [`DensityCounts::rank`] sorts all of them (the Figure 4 path) or
//! [`DensityRank::top_k`] partitions out just the densest `k` via
//! `select_nth_unstable` + a k-sized sort, so a budgeted strategy's
//! re-ranking cost tracks its probe budget, not the unit count. The
//! density comparator is a strict total order (descending density,
//! ties broken by ascending prefix, and prefixes are unique within a
//! view), so the top-k ranking is *byte-identical* to the first `k`
//! entries of the full sort — selections cannot drift between paths.
//! The sorts here are bounded by units-with-hosts (full path) or the
//! requested `k` (top-k path); neither is per-cycle host-proportional
//! work.

use serde::{Deserialize, Serialize};
use tass_bgp::View;
use tass_model::PrefixCount;
use tass_net::{AddrFamily, Prefix, V4};

/// Per-unit statistics (only units with cᵢ > 0 are ranked).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrefixStat<F: AddrFamily = V4> {
    /// The scan unit's prefix.
    pub prefix: Prefix<F>,
    /// Unit index in the originating view.
    pub unit: u32,
    /// Responsive addresses inside the unit (cᵢ).
    pub count: u64,
    /// Density ρᵢ = cᵢ / 2^(BITS−len).
    pub density: f64,
    /// Relative host coverage φᵢ = cᵢ / N.
    pub coverage: f64,
}

/// The density ranking of all responsive units.
#[derive(Debug, Clone, Default)]
pub struct DensityRank<F: AddrFamily = V4> {
    /// Responsive units in descending density order (ties broken by
    /// ascending prefix for determinism).
    pub stats: Vec<PrefixStat<F>>,
    /// N: total responsive addresses attributed to the view.
    pub total_hosts: u64,
    /// Total announced space of the view (denominator of space coverage).
    pub total_space: F::Wide,
}

/// One point of the cumulative Figure 4 curves.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankPoint {
    /// 1-based rank.
    pub rank: usize,
    /// Density of the unit at this rank.
    pub density: f64,
    /// Cumulative relative host coverage Σφᵢ.
    pub cum_host_coverage: f64,
    /// Cumulative address-space coverage (fraction of the view's space).
    pub cum_space_coverage: f64,
}

/// The canonical step-3 order: descending density, ties broken by
/// ascending prefix. Prefixes are unique within a view, so this is a
/// *strict total* order — which is what makes the top-k path
/// byte-identical to a prefix of the full sort.
fn by_density<F: AddrFamily>(a: &PrefixStat<F>, b: &PrefixStat<F>) -> std::cmp::Ordering {
    b.density
        .partial_cmp(&a.density)
        .expect("densities are finite")
        .then_with(|| a.prefix.cmp(&b.prefix))
}

/// The unranked half of a density ranking: per-unit stats (only cᵢ > 0),
/// N, and the view's total space, before any ordering is applied.
///
/// Splitting counting from ordering lets budgeted strategies rank only
/// the top-k ([`DensityRank::top_k`]) while the Figure 4 exhibits keep
/// the full sort ([`DensityCounts::rank`]) — both over the exact same
/// counted stats.
#[derive(Debug, Clone, Default)]
pub struct DensityCounts<F: AddrFamily = V4> {
    /// Responsive units in **unit order** (not yet ranked).
    pub stats: Vec<PrefixStat<F>>,
    /// N: total responsive addresses attributed to the view.
    pub total_hosts: u64,
    /// Total announced space of the view.
    pub total_space: F::Wide,
}

impl DensityCounts {
    /// Count a view's units against anything that can answer per-prefix
    /// host counts (a `HostSet` or shared `Snapshot` over its sorted
    /// hosts; a `HostSetView` by range arithmetic).
    pub fn units(view: &View, hosts: &impl PrefixCount) -> DensityCounts {
        // view units are sorted by prefix, so the bulk sweep counts the
        // whole view in one coordinated pass over the host storage
        let mut counts = Vec::with_capacity(view.len());
        hosts.count_prefixes_into(&mut view.units().iter().map(|u| u.prefix), &mut counts);
        DensityCounts::from_unit_counts(view, &counts)
    }

    /// Count from maintained per-unit counts (index-aligned with
    /// `view.units()`).
    pub fn from_unit_counts(view: &View, counts: &[u64]) -> DensityCounts {
        assert_eq!(counts.len(), view.len(), "one count per view unit");
        let total: u64 = counts.iter().sum();
        // exact-size the stats: growth-doubling here allocates ~4x the
        // final size and lands in every campaign's prepare
        let responsive = counts.iter().filter(|&&c| c > 0).count();
        let mut stats = Vec::with_capacity(responsive);
        for (i, (&c, unit)) in counts.iter().zip(view.units()).enumerate() {
            if c > 0 {
                stats.push(PrefixStat {
                    prefix: unit.prefix,
                    unit: i as u32,
                    count: c,
                    density: c as f64 / unit.prefix.size() as f64,
                    coverage: if total > 0 {
                        c as f64 / total as f64
                    } else {
                        0.0
                    },
                });
            }
        }
        DensityCounts {
            stats,
            total_hosts: total,
            total_space: view.total_space(),
        }
    }
}

impl<F: AddrFamily> DensityCounts<F> {
    /// Count a bare prefix list — the family-generic core of
    /// [`DensityCounts::units`]. Unit indices are positions in `units`.
    pub fn prefixes(units: &[Prefix<F>], hosts: &impl PrefixCount<F>) -> DensityCounts<F> {
        let mut counts = Vec::with_capacity(units.len());
        hosts.count_prefixes_into(&mut units.iter().copied(), &mut counts);
        DensityCounts::prefix_counts(units, &counts)
    }

    /// Count from a prefix list and maintained per-unit counts
    /// (index-aligned with `units`).
    pub fn prefix_counts(units: &[Prefix<F>], counts: &[u64]) -> DensityCounts<F> {
        assert_eq!(counts.len(), units.len(), "one count per unit");
        let total: u64 = counts.iter().sum();
        let mut total_space = 0u128;
        let responsive = counts.iter().filter(|&&c| c > 0).count();
        let mut stats = Vec::with_capacity(responsive);
        for (i, (&c, &prefix)) in counts.iter().zip(units).enumerate() {
            total_space = total_space.saturating_add(prefix.size_u128());
            if c > 0 {
                stats.push(PrefixStat {
                    prefix,
                    unit: i as u32,
                    count: c,
                    density: c as f64 / prefix.size_u128() as f64,
                    coverage: if total > 0 {
                        c as f64 / total as f64
                    } else {
                        0.0
                    },
                });
            }
        }
        DensityCounts {
            stats,
            total_hosts: total,
            total_space: F::wide_from_u128(total_space),
        }
    }

    /// Number of responsive units counted.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Were no responsive units counted?
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Rank the densest `k` units **in place**: after this, `stats[..k]`
    /// holds them in canonical order — byte-identical to the first `k`
    /// entries of a full [`DensityCounts::rank`] — and `stats[k..]` is
    /// an unspecified permutation of the rest. This is the allocation-
    /// free core of [`DensityRank::top_k`]; budgeted selection calls it
    /// repeatedly with a doubling `k` without ever cloning the stats.
    pub fn rank_top_k_in_place(&mut self, k: usize) {
        let n = self.stats.len();
        // Fast path: stats in ascending-prefix order, which holds
        // whenever the counted units were sorted (view units and block
        // lists are). The canonical order — descending density, ties by
        // ascending prefix — is then exactly ascending
        // `(!density_bits, position)`: densities are positive finite
        // floats, so their bit patterns order like their values, and
        // position order *is* prefix order. Sorting 12-byte integer keys
        // and gathering once is several times faster than comparator-
        // sorting the 40-byte stats.
        if n > 1 && self.stats.windows(2).all(|w| w[0].prefix < w[1].prefix) {
            let mut keys: Vec<(u64, u32)> = self
                .stats
                .iter()
                .enumerate()
                .map(|(i, s)| (!s.density.to_bits(), i as u32))
                .collect();
            if k < n {
                keys.select_nth_unstable(k);
                keys[..k].sort_unstable();
            } else {
                keys.sort_unstable();
            }
            let stats = std::mem::take(&mut self.stats);
            self.stats = keys.iter().map(|&(_, i)| stats[i as usize]).collect();
        } else if k < n {
            self.stats.select_nth_unstable_by(k, by_density);
            self.stats[..k].sort_unstable_by(by_density);
        } else {
            self.stats.sort_unstable_by(by_density);
        }
    }

    /// Step 3, in full: sort every responsive unit into the canonical
    /// descending-density order.
    pub fn rank(mut self) -> DensityRank<F> {
        let n = self.stats.len();
        self.rank_top_k_in_place(n);
        DensityRank {
            stats: self.stats,
            total_hosts: self.total_hosts,
            total_space: self.total_space,
        }
    }
}

/// Build the density ranking for a view against a host set (the output of
/// a full scan).
pub fn rank_units(view: &View, hosts: &impl PrefixCount) -> DensityRank {
    DensityCounts::units(view, hosts).rank()
}

/// Build the density ranking from per-unit responsive counts (one entry
/// per view unit, index-aligned with `view.units()`).
///
/// This is the ranking half of [`rank_units`] for callers that maintain
/// their own count estimates instead of a concrete host set — the
/// adaptive strategies re-rank through this exact code path, so their
/// steps 2–4 cannot drift from the seeding scan's.
pub fn rank_from_counts(view: &View, counts: &[u64]) -> DensityRank {
    DensityCounts::from_unit_counts(view, counts).rank()
}

/// Build a density ranking directly from a prefix list and a host set —
/// the family-generic core of [`rank_units`], and the seeding path for
/// address families that have no BGP view object (an IPv6 campaign ranks
/// the dense blocks its hitlist discovered). Unit indices are positions
/// in `units`.
pub fn rank_prefixes<F: AddrFamily>(
    units: &[Prefix<F>],
    hosts: &impl PrefixCount<F>,
) -> DensityRank<F> {
    DensityCounts::prefixes(units, hosts).rank()
}

/// Build a density ranking from a prefix list and **maintained per-unit
/// counts** (index-aligned with `units`) — the generic counterpart of
/// [`rank_from_counts`], used by feedback strategies that track their own
/// count estimates instead of re-deriving them from a host set.
pub fn rank_prefix_counts<F: AddrFamily>(units: &[Prefix<F>], counts: &[u64]) -> DensityRank<F> {
    DensityCounts::prefix_counts(units, counts).rank()
}

impl<F: AddrFamily> DensityRank<F> {
    /// Rank only the densest `k` units: `select_nth_unstable` partitions
    /// them out in O(n), then only those `k` are sorted. `total_hosts` /
    /// `total_space` still cover **all** counted units, so coverage
    /// targets (φ·N) mean the same thing as on a full ranking — and
    /// because the order is strictly total, `top_k(c, k).stats` is
    /// byte-identical to `c.rank().stats[..k]`.
    pub fn top_k(mut counts: DensityCounts<F>, k: usize) -> DensityRank<F> {
        counts.rank_top_k_in_place(k);
        let mut stats = counts.stats;
        stats.truncate(k);
        DensityRank {
            stats,
            total_hosts: counts.total_hosts,
            total_space: counts.total_space,
        }
    }

    /// Number of responsive units.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Is the ranking empty (no responsive units)?
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// The cumulative curves of paper Figure 4, one point per rank.
    pub fn curve(&self) -> Vec<RankPoint> {
        let total_space = F::wide_to_u128(self.total_space);
        let mut out = Vec::with_capacity(self.stats.len());
        let mut cum_hosts = 0u64;
        let mut cum_space = 0u128;
        for (i, s) in self.stats.iter().enumerate() {
            cum_hosts += s.count;
            cum_space = cum_space.saturating_add(s.prefix.size_u128());
            out.push(RankPoint {
                rank: i + 1,
                density: s.density,
                cum_host_coverage: if self.total_hosts > 0 {
                    cum_hosts as f64 / self.total_hosts as f64
                } else {
                    0.0
                },
                cum_space_coverage: if total_space > 0 {
                    cum_space as f64 / total_space as f64
                } else {
                    0.0
                },
            });
        }
        out
    }

    /// Address-space fraction of the view covered by responsive units —
    /// the paper's "φ = 1" row of Table 1.
    pub fn responsive_space_fraction(&self) -> f64 {
        let total_space = F::wide_to_u128(self.total_space);
        if total_space == 0 {
            return 0.0;
        }
        let space = self
            .stats
            .iter()
            .fold(0u128, |acc, s| acc.saturating_add(s.prefix.size_u128()));
        space as f64 / total_space as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_bgp::{Origin, RouteTable};
    use tass_model::HostSet;

    fn view_of(entries: &[&str]) -> View {
        let mut t = RouteTable::new();
        for (i, s) in entries.iter().enumerate() {
            t.insert(s.parse().unwrap(), Origin::Single(i as u32));
        }
        View::less_specific(&t)
    }

    #[test]
    fn counts_and_densities() {
        // 10.0.0.0/24 with 128 hosts (ρ=.5); 11.0.0.0/24 with 64 (ρ=.25);
        // 12.0.0.0/24 empty.
        let view = view_of(&["10.0.0.0/24", "11.0.0.0/24", "12.0.0.0/24"]);
        let mut addrs: Vec<u32> = (0..128).map(|i| 0x0A00_0000 + i).collect();
        addrs.extend((0..64).map(|i| 0x0B00_0000 + i));
        let hosts = HostSet::from_addrs(addrs);
        let r = rank_units(&view, &hosts);
        assert_eq!(r.total_hosts, 192);
        assert_eq!(r.len(), 2, "empty unit must not be ranked");
        assert_eq!(r.stats[0].prefix.to_string(), "10.0.0.0/24");
        assert!((r.stats[0].density - 0.5).abs() < 1e-12);
        assert!((r.stats[0].coverage - 128.0 / 192.0).abs() < 1e-12);
        assert_eq!(r.stats[1].count, 64);
        assert_eq!(r.total_space, 3 * 256);
    }

    #[test]
    fn ranking_is_by_density_not_count() {
        // /16 with 200 hosts (ρ≈0.003) vs /24 with 100 hosts (ρ≈0.39):
        // the /24 must rank first despite having fewer hosts.
        let view = view_of(&["10.0.0.0/16", "20.0.0.0/24"]);
        let mut addrs: Vec<u32> = (0..200).map(|i| 0x0A00_0000 + i * 13).collect();
        addrs.extend((0..100).map(|i| 0x1400_0000 + i));
        let r = rank_units(&view, &HostSet::from_addrs(addrs));
        assert_eq!(r.stats[0].prefix.to_string(), "20.0.0.0/24");
    }

    #[test]
    fn tie_break_on_prefix_is_deterministic() {
        let view = view_of(&["10.0.0.0/24", "11.0.0.0/24"]);
        // equal densities
        let mut addrs: Vec<u32> = (0..10).map(|i| 0x0A00_0000 + i).collect();
        addrs.extend((0..10).map(|i| 0x0B00_0000 + i));
        let r = rank_units(&view, &HostSet::from_addrs(addrs));
        assert_eq!(r.stats[0].prefix.to_string(), "10.0.0.0/24");
    }

    #[test]
    fn curve_is_monotone() {
        let view = view_of(&["10.0.0.0/24", "11.0.0.0/24", "12.0.0.0/22"]);
        let mut addrs: Vec<u32> = (0..100).map(|i| 0x0A00_0000 + i).collect();
        addrs.extend((0..30).map(|i| 0x0B00_0000 + i));
        addrs.extend((0..10).map(|i| 0x0C00_0000 + i * 3));
        let r = rank_units(&view, &HostSet::from_addrs(addrs));
        let curve = r.curve();
        assert_eq!(curve.len(), 3);
        for w in curve.windows(2) {
            assert!(w[0].density >= w[1].density, "density must not increase");
            assert!(w[0].cum_host_coverage <= w[1].cum_host_coverage);
            assert!(w[0].cum_space_coverage <= w[1].cum_space_coverage);
        }
        let last = curve.last().unwrap();
        assert!((last.cum_host_coverage - 1.0).abs() < 1e-12);
        assert!(last.cum_space_coverage <= 1.0);
    }

    #[test]
    fn empty_host_set() {
        let view = view_of(&["10.0.0.0/24"]);
        let r = rank_units(&view, &HostSet::default());
        assert!(r.is_empty());
        assert_eq!(r.total_hosts, 0);
        assert!(r.curve().is_empty());
        assert_eq!(r.responsive_space_fraction(), 0.0);
    }

    #[test]
    fn responsive_space_fraction_partial() {
        let view = view_of(&["10.0.0.0/24", "11.0.0.0/24", "12.0.0.0/24", "13.0.0.0/24"]);
        let hosts = HostSet::from_addrs(vec![0x0A00_0001]);
        let r = rank_units(&view, &hosts);
        assert!((r.responsive_space_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hosts_outside_view_do_not_count() {
        let view = view_of(&["10.0.0.0/24"]);
        let hosts = HostSet::from_addrs(vec![0x0A00_0001, 0xDEAD_BEEF]);
        let r = rank_units(&view, &hosts);
        assert_eq!(r.total_hosts, 1);
    }

    /// Many units with distinct and with *tied* densities, so top-k must
    /// exercise the prefix tie-break through the partition boundary.
    fn tied_scenario() -> (View, HostSet) {
        let specs: Vec<String> = (0..32u32).map(|i| format!("{}.0.0.0/24", 10 + i)).collect();
        let view = view_of(&specs.iter().map(String::as_str).collect::<Vec<_>>());
        let mut addrs = Vec::new();
        for i in 0..32u32 {
            // densities cycle through 8 levels → 4-way ties at each level
            let n = 8 * (1 + (i % 8));
            addrs.extend((0..n).map(|j| ((10 + i) << 24) + j));
        }
        (view, HostSet::from_addrs(addrs))
    }

    #[test]
    fn top_k_is_a_prefix_of_the_full_ranking() {
        let (view, hosts) = tied_scenario();
        let full = rank_units(&view, &hosts);
        for k in [0usize, 1, 3, 7, 8, 20, 31, 32, 40] {
            let counts = DensityCounts::units(&view, &hosts);
            let top = DensityRank::top_k(counts, k);
            assert_eq!(top.len(), k.min(full.len()), "k={k}");
            assert_eq!(&top.stats[..], &full.stats[..k.min(full.len())], "k={k}");
            assert_eq!(top.total_hosts, full.total_hosts);
            assert_eq!(top.total_space, full.total_space);
        }
    }

    /// The key-sort fast path (ascending-prefix stats) and the
    /// comparator fallback (any other order) must produce the same
    /// canonical ranking — same prefixes, same counts, same ties.
    #[test]
    fn key_sort_fast_path_matches_comparator_fallback() {
        let (view, hosts) = tied_scenario();
        let sorted_units: Vec<Prefix> = view.units().iter().map(|u| u.prefix).collect();
        let mut shuffled = sorted_units.clone();
        shuffled.reverse();
        shuffled.swap(3, 17);
        for k in [0usize, 5, 8, 20, 32] {
            let fast = DensityRank::top_k(DensityCounts::prefixes(&sorted_units, &hosts), k);
            let slow = DensityRank::top_k(DensityCounts::prefixes(&shuffled, &hosts), k);
            let strip = |r: &DensityRank| -> Vec<(Prefix, u64)> {
                r.stats.iter().map(|s| (s.prefix, s.count)).collect()
            };
            assert_eq!(strip(&fast), strip(&slow), "k={k}");
        }
    }

    #[test]
    fn rank_reads_the_snapshot_index_identically_to_the_host_set() {
        use std::sync::Arc;
        let (view, set) = tied_scenario();
        let snap = Arc::new(tass_model::Snapshot::new(
            tass_model::Protocol::Http,
            0,
            set.clone(),
        ));
        let via_set = rank_units(&view, &set);
        let via_snap = rank_units(&view, &*snap);
        let via_view = rank_units(&view, &tass_model::HostSetView::full(snap));
        assert_eq!(via_set.stats, via_snap.stats);
        assert_eq!(via_set.stats, via_view.stats);
    }
}
