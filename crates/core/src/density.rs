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
//! against a `HostSet` or a per-cycle
//! `HostSetView` is one coordinated galloping pass over the sorted host
//! storage — O(Σ log gapᵢ) comparisons total, no per-unit full-width
//! binary search, no hashing, no locks, and (the sweep being generic
//! over the prefix iterator and the count sink) no dynamic call per
//! unit. Ordering is split from counting: [`DensityCounts`] holds the
//! unranked per-unit stats and [`DensityCounts::rank`] orders all of
//! them. Counted units arrive in ascending prefix order (view units and
//! block lists are sorted), and then the rank is a stable LSD radix
//! sort on the density bits — linear in the responsive unit count, with
//! no comparator call at all. Stats in any other order fall back to a
//! comparator sort. Both give the one canonical order (descending
//! density, ties broken by ascending prefix), which is strictly total
//! because prefixes are unique within a view. The sort is bounded by
//! units-with-hosts, never by the host count.

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
/// *strict total* order: the radix path and the comparator path cannot
/// disagree.
fn by_density<F: AddrFamily>(a: &PrefixStat<F>, b: &PrefixStat<F>) -> std::cmp::Ordering {
    b.density
        .partial_cmp(&a.density)
        .expect("densities are finite")
        .then_with(|| a.prefix.cmp(&b.prefix))
}

/// The unranked half of a density ranking: per-unit stats (only cᵢ > 0),
/// N, and the view's total space, before any ordering is applied.
/// Feedback strategies build these from maintained per-unit counts
/// ([`DensityCounts::from_unit_counts`]) and rank them with the same
/// [`DensityCounts::rank`] the seeding scan uses.
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
    /// host counts (a `HostSet` over its sorted hosts; a `HostSetView`
    /// by range arithmetic).
    pub fn units(view: &View, hosts: &impl PrefixCount) -> DensityCounts {
        // view units are sorted by prefix, so the bulk sweep counts the
        // whole view in one coordinated pass over the host storage
        let mut counts = Vec::with_capacity(view.len());
        hosts.count_prefixes_into(view.units().iter().map(|u| u.prefix), &mut counts);
        DensityCounts::from_unit_counts(view, &counts)
    }

    /// Count from maintained per-unit counts (index-aligned with
    /// `view.units()`).
    pub fn from_unit_counts(view: &View, counts: &[u64]) -> DensityCounts {
        DensityCounts::stats(
            view.units().iter().map(|u| u.prefix),
            counts,
            view.total_space(),
        )
    }
}

impl<F: AddrFamily> DensityCounts<F> {
    /// Count a bare prefix list — the family-generic core of
    /// [`DensityCounts::units`]. Unit indices are positions in `units`.
    pub fn prefixes(units: &[Prefix<F>], hosts: &impl PrefixCount<F>) -> DensityCounts<F> {
        let mut counts = Vec::with_capacity(units.len());
        hosts.count_prefixes_into(units.iter().copied(), &mut counts);
        DensityCounts::prefix_counts(units, &counts)
    }

    /// Count from a prefix list and maintained per-unit counts
    /// (index-aligned with `units`).
    pub fn prefix_counts(units: &[Prefix<F>], counts: &[u64]) -> DensityCounts<F> {
        let total_space = units
            .iter()
            .fold(0u128, |acc, p| acc.saturating_add(p.size_u128()));
        DensityCounts::stats(
            units.iter().copied(),
            counts,
            F::wide_from_u128(total_space),
        )
    }

    /// The one stats loop every density count goes through: per-unit
    /// stats for the units with hosts, given the units' total space.
    fn stats(
        units: impl ExactSizeIterator<Item = Prefix<F>>,
        counts: &[u64],
        total_space: F::Wide,
    ) -> DensityCounts<F> {
        assert_eq!(counts.len(), units.len(), "one count per unit");
        let total: u64 = counts.iter().sum();
        // exact-size the stats: growth-doubling here allocates ~4x the
        // final size and lands in every campaign's prepare
        let responsive = counts.iter().filter(|&&c| c > 0).count();
        let mut stats = Vec::with_capacity(responsive);
        for (i, (&c, prefix)) in counts.iter().zip(units).enumerate() {
            if c > 0 {
                stats.push(PrefixStat {
                    prefix,
                    unit: i as u32,
                    count: c,
                    density: c as f64 / size_f64(prefix),
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
            total_space,
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

    /// Step 3: sort every responsive unit into the canonical
    /// descending-density order.
    pub fn rank(mut self) -> DensityRank<F> {
        if self.stats.windows(2).all(|w| w[0].prefix < w[1].prefix) {
            radix_rank(&mut self.stats);
        } else {
            self.stats.sort_unstable_by(by_density);
        }
        DensityRank {
            stats: self.stats,
            total_hosts: self.total_hosts,
            total_space: self.total_space,
        }
    }
}

/// A unit's size `2^(BITS − len)` as `f64`, built from its exponent.
/// Exact, as the size is a power of two (the full v6 space, which
/// `Prefix::size_u128` saturates, is 2¹²⁸ here as in any rounding of
/// it), and with no `u128 → f64` conversion call per unit.
fn size_f64<F: AddrFamily>(p: Prefix<F>) -> f64 {
    f64::from_bits((1023 + u64::from(F::BITS - p.len())) << 52)
}

/// The canonical order for stats in ascending-prefix order (which holds
/// whenever the counted units were sorted; view units and block lists
/// are). Descending density is ascending `!density.to_bits()`:
/// densities are positive finite floats, whose bit patterns order like
/// their values. A stable sort on that key keeps equal densities in
/// position order, which *is* ascending prefix order — so this is
/// exactly the [`by_density`] order.
///
/// The sort is least-significant-digit radix over the key's eight
/// bytes, carrying each stat's position. One histogram pass counts all
/// eight digits; a digit that every key shares cannot reorder anything
/// and is skipped (a count below 2²⁰ over a power-of-two unit size
/// leaves the low four mantissa bytes zero, so typically half the
/// passes go). One gather then moves the stats.
fn radix_rank<F: AddrFamily>(stats: &mut Vec<PrefixStat<F>>) {
    let n = stats.len();
    if n < 2 {
        return;
    }
    let mut keys: Vec<(u64, u32)> = stats
        .iter()
        .enumerate()
        .map(|(i, s)| (!s.density.to_bits(), i as u32))
        .collect();
    let digit = |key: u64, d: usize| (key >> (8 * d)) as u8 as usize;
    let mut hist = [[0u32; 256]; 8];
    for &(key, _) in &keys {
        for (d, h) in hist.iter_mut().enumerate() {
            h[digit(key, d)] += 1;
        }
    }
    let mut scratch = vec![(0u64, 0u32); n];
    for (d, h) in hist.iter().enumerate() {
        if h[digit(keys[0].0, d)] as usize == n {
            continue;
        }
        let mut next = [0u32; 256];
        let mut sum = 0u32;
        for (slot, &c) in next.iter_mut().zip(h) {
            *slot = sum;
            sum += c;
        }
        for &(key, i) in &keys {
            let slot = &mut next[digit(key, d)];
            scratch[*slot as usize] = (key, i);
            *slot += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    let unranked = std::mem::take(stats);
    *stats = keys.iter().map(|&(_, i)| unranked[i as usize]).collect();
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

impl<F: AddrFamily> DensityRank<F> {
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

    /// Many units with distinct and with *tied* densities, so a rank
    /// must exercise the prefix tie-break.
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

    /// The radix fast path (ascending-prefix stats) and the
    /// comparator fallback (any other order) must produce the same
    /// canonical ranking — same prefixes, same counts, same ties.
    #[test]
    fn key_sort_fast_path_matches_comparator_fallback() {
        let (view, hosts) = tied_scenario();
        let sorted_units: Vec<Prefix> = view.units().iter().map(|u| u.prefix).collect();
        let mut shuffled = sorted_units.clone();
        shuffled.reverse();
        shuffled.swap(3, 17);
        let fast = DensityCounts::prefixes(&sorted_units, &hosts).rank();
        let slow = DensityCounts::prefixes(&shuffled, &hosts).rank();
        let strip = |r: &DensityRank| -> Vec<(Prefix, u64)> {
            r.stats.iter().map(|s| (s.prefix, s.count)).collect()
        };
        assert_eq!(strip(&fast), strip(&slow));
        assert_eq!(fast.stats, rank_units(&view, &hosts).stats);
    }

    /// Rank `(addr, len, count)` specs both ways and compare: the
    /// prefix-sorted stats through [`DensityCounts::rank`] (the radix
    /// path) against `sort_unstable_by(by_density)`, and the same units
    /// in shuffled order (the comparator path) against both. The
    /// selection path must cut the radix rank where `select_prefixes`
    /// cuts the comparator one.
    fn assert_rank_is_canonical<F: AddrFamily>(specs: &[(F::Addr, u8, u64)], seed: u64) {
        use crate::select::{select_prefixes, select_prefixes_budgeted};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut units: Vec<(Prefix<F>, u64)> = specs
            .iter()
            .map(|&(a, len, c)| (Prefix::new_truncate(a, len).unwrap(), c))
            .collect();
        units.sort_unstable_by_key(|u| u.0);
        units.dedup_by_key(|u| u.0);
        let (prefixes, counts): (Vec<Prefix<F>>, Vec<u64>) = units.iter().copied().unzip();
        let sorted = DensityCounts::prefix_counts(&prefixes, &counts);
        for st in &sorted.stats {
            assert_eq!(st.density, st.count as f64 / st.prefix.size_u128() as f64);
        }
        let mut want = sorted.stats.clone();
        want.sort_unstable_by(by_density);
        // the selection path cuts off where the comparator ranking does
        let comparator_rank = DensityRank {
            stats: want.clone(),
            total_hosts: sorted.total_hosts,
            total_space: sorted.total_space,
        };
        for phi in [0.0, 0.3, 0.5, 0.9, 0.95, 0.999, 1.0, 2.0] {
            let want_sel = select_prefixes(&comparator_rank, phi);
            let (sel, units) = select_prefixes_budgeted(sorted.clone(), phi);
            assert_eq!(sel.prefixes, want_sel.prefixes, "phi={phi}");
            assert_eq!(
                sel.achieved_coverage, want_sel.achieved_coverage,
                "phi={phi}"
            );
            assert_eq!(sel.selected_space, want_sel.selected_space, "phi={phi}");
            let want_units: Vec<u32> = want[..sel.k].iter().map(|s| s.unit).collect();
            assert_eq!(units, want_units, "phi={phi}");
        }
        let got = sorted.rank();
        assert_eq!(got.stats, want, "sorted stats");

        let mut rng = SmallRng::seed_from_u64(seed);
        for i in (1..units.len()).rev() {
            units.swap(i, rng.random_range(0..=i));
        }
        let (prefixes, counts): (Vec<Prefix<F>>, Vec<u64>) = units.into_iter().unzip();
        let shuffled = DensityCounts::prefix_counts(&prefixes, &counts).rank();
        let strip = |stats: &[PrefixStat<F>]| -> Vec<(Prefix<F>, u64, f64)> {
            stats
                .iter()
                .map(|s| (s.prefix, s.count, s.density))
                .collect()
        };
        assert_eq!(strip(&shuffled.stats), strip(&want), "shuffled stats");
    }

    /// Counts span 0..=2³² (0 is not ranked), or, in tied mode, a few
    /// small values over a narrow length band, so equal densities are
    /// common and the prefix tie-break decides.
    fn spec_count(tied: bool, len: u8, count: u64) -> (u8, u64) {
        if tied {
            (len - len % 8, count % 3 + 1)
        } else {
            (len, count)
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_radix_rank_equals_comparator_sort_v4(
            specs in proptest::collection::vec(
                (proptest::prelude::any::<u32>(), 8u8..=32, 0u64..=(1 << 32)),
                0..48,
            ),
            tied in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let specs: Vec<(u32, u8, u64)> = specs
                .into_iter()
                .map(|(a, len, c)| {
                    let (len, c) = spec_count(tied, len, c);
                    (a, len, c)
                })
                .collect();
            for n in [0, 1, specs.len()] {
                assert_rank_is_canonical::<V4>(&specs[..n.min(specs.len())], seed);
            }
            assert_rank_is_canonical::<V4>(&[(0, 0, 1)], seed);
        }

        #[test]
        fn prop_radix_rank_equals_comparator_sort_v6(
            specs in proptest::collection::vec(
                (proptest::prelude::any::<u128>(), 48u8..=128, 0u64..=(1 << 32)),
                0..48,
            ),
            tied in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let specs: Vec<(u128, u8, u64)> = specs
                .into_iter()
                .map(|(a, len, c)| {
                    let (len, c) = spec_count(tied, len, c);
                    (a, len, c)
                })
                .collect();
            for n in [0, 1, specs.len()] {
                assert_rank_is_canonical::<tass_net::V6>(&specs[..n.min(specs.len())], seed);
            }
            assert_rank_is_canonical::<tass_net::V6>(&[(0, 0, 1)], seed);
        }
    }

    #[test]
    fn rank_reads_the_snapshot_index_identically_to_the_host_set() {
        let (view, set) = tied_scenario();
        let snap = tass_model::Snapshot::new(tass_model::Protocol::Http, 0, set.clone());
        let via_set = rank_units(&view, &set);
        let via_snap = rank_units(&view, &snap.hosts);
        let via_view = rank_units(&view, &tass_model::HostSetView::full(snap.hosts));
        assert_eq!(via_set.stats, via_snap.stats);
        assert_eq!(via_set.stats, via_view.stats);
    }
}
