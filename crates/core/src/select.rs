//! Step 4 of TASS: the minimal-k coverage cutoff.
//!
//! Given the density ranking, find the smallest k such that the first k
//! units cover more than a fraction φ of all responsive hosts
//! (Σ_{i=1..k} φᵢ > φ), and report the address-space cost of scanning
//! them — the numbers behind the paper's Table 1.
//!
//! The cutoff takes the first k entries of a density ranking, and every
//! ranked [`PrefixStat`](crate::PrefixStat) carries the index of its unit
//! in the view (or block list) it was counted over.
//! [`select_prefixes_budgeted`], the path every strategy selects through,
//! ranks all responsive units (a linear radix sort, see
//! [`DensityCounts::rank`]) and hands the selected indices back next to
//! the [`Selection`]. View units are sorted by address, so ascending unit
//! index *is* address order: a strategy builds its probe plan, its
//! membership bitmap and its next re-count from the indices alone.

use crate::density::{DensityCounts, DensityRank};
use serde::{Deserialize, Serialize};
use tass_net::{AddrFamily, Prefix, V4};

/// The outcome of prefix selection at a host-coverage target φ.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Selection<F: AddrFamily = V4> {
    /// The target φ requested.
    pub phi: f64,
    /// Selected prefixes, in density-rank order.
    pub prefixes: Vec<Prefix<F>>,
    /// k: number of selected prefixes.
    pub k: usize,
    /// Achieved host coverage at t₀ (≥ φ, except when φ ≥ 1).
    pub achieved_coverage: f64,
    /// Addresses that must be probed per scan cycle (saturating for
    /// above-2⁶⁴ v6 selections, like every other space count).
    pub selected_space: F::Wide,
    /// Fraction of the view's announced space selected — the paper's
    /// "Address Space Coverage" (Table 1).
    pub space_fraction: f64,
    /// N at t₀.
    pub total_hosts: u64,
}

/// Select the minimal density-ranked prefix set with Σφᵢ > φ.
///
/// `phi >= 1.0` selects every responsive prefix (the paper's φ = 1 rows:
/// "all prefixes with non-zero density, that is, ρ > 0").
///
/// Panics if `phi` is negative or NaN — a programming error.
pub fn select_prefixes<F: AddrFamily>(rank: &DensityRank<F>, phi: f64) -> Selection<F> {
    assert!(
        phi >= 0.0 && phi.is_finite(),
        "phi must be a finite non-negative fraction"
    );
    let total_hosts = rank.total_hosts;
    let total_space = F::wide_to_u128(rank.total_space);
    let mut prefixes = Vec::new();
    let mut cum_hosts = 0u64;
    let mut space = 0u128;
    // integer-exact cutoff: stop once cum_hosts > phi * N
    let target = phi * total_hosts as f64;
    for s in &rank.stats {
        if phi < 1.0 && cum_hosts as f64 > target {
            break;
        }
        if phi >= 1.0 || cum_hosts as f64 <= target {
            prefixes.push(s.prefix);
            cum_hosts += s.count;
            space = space.saturating_add(s.prefix.size_u128());
        }
    }
    let k = prefixes.len();
    Selection {
        phi,
        prefixes,
        k,
        achieved_coverage: if total_hosts > 0 {
            cum_hosts as f64 / total_hosts as f64
        } else {
            0.0
        },
        selected_space: F::wide_from_u128(space),
        space_fraction: if total_space > 0 {
            space as f64 / total_space as f64
        } else {
            0.0
        },
        total_hosts,
    }
}

/// Rank, then cut off: [`select_prefixes`] over
/// `counts.rank()`, returning the selection together with the **unit
/// indices** of its prefixes (in rank order: `units[i]` is the unit of
/// `selection.prefixes[i]`). The cutoff selects exactly the ranked
/// `stats[..k]`, so the indices are their `unit` fields; feedback
/// strategies plan and re-count in unit index space from them, and
/// never search a prefix back to its unit.
///
/// The rank is linear in the responsive unit count, so every selection
/// ranks everything: there is no partial ranking whose size would have
/// to be guessed.
pub fn select_prefixes_budgeted<F: AddrFamily>(
    counts: DensityCounts<F>,
    phi: f64,
) -> (Selection<F>, Vec<u32>) {
    let rank = counts.rank();
    let selection = select_prefixes(&rank, phi);
    let units = rank.stats[..selection.k].iter().map(|s| s.unit).collect();
    (selection, units)
}

impl<F: AddrFamily> Selection<F> {
    /// The selected prefixes sorted by address (they are disjoint).
    pub fn sorted_prefixes(&self) -> Vec<Prefix<F>> {
        let mut v = self.prefixes.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::rank_units;
    use proptest::prelude::*;
    use tass_bgp::{Origin, RouteTable, View};
    use tass_model::HostSet;

    /// Three /24s with 100, 30, 10 hosts plus an empty /24.
    fn fixture() -> (View, HostSet) {
        let mut t = RouteTable::new();
        for (i, s) in ["10.0.0.0/24", "11.0.0.0/24", "12.0.0.0/24", "13.0.0.0/24"]
            .iter()
            .enumerate()
        {
            t.insert(s.parse().unwrap(), Origin::Single(i as u32));
        }
        let view = View::less_specific(&t);
        let mut addrs: Vec<u32> = (0..100).map(|i| 0x0A00_0000 + i).collect();
        addrs.extend((0..30).map(|i| 0x0B00_0000 + i));
        addrs.extend((0..10).map(|i| 0x0C00_0000 + i));
        (view, HostSet::from_addrs(addrs))
    }

    #[test]
    fn phi_one_selects_all_responsive() {
        let (view, hosts) = fixture();
        let rank = rank_units(&view, &hosts);
        let sel = select_prefixes(&rank, 1.0);
        assert_eq!(sel.k, 3, "empty prefix must not be selected");
        assert!((sel.achieved_coverage - 1.0).abs() < 1e-12);
        assert_eq!(sel.selected_space, 3 * 256);
        assert!((sel.space_fraction - 0.75).abs() < 1e-12);
    }

    #[test]
    fn phi_cutoff_minimal_k() {
        let (view, hosts) = fixture();
        let rank = rank_units(&view, &hosts);
        // phi = 0.7: first unit covers 100/140 ≈ 0.714 > 0.7 → k = 1
        let sel = select_prefixes(&rank, 0.7);
        assert_eq!(sel.k, 1);
        assert_eq!(sel.prefixes[0].to_string(), "10.0.0.0/24");
        // phi = 0.714...: needs the second unit
        let sel = select_prefixes(&rank, 100.0 / 140.0);
        assert_eq!(sel.k, 2, "sum must be strictly greater than phi");
        // phi = 0.93: 130/140 ≈ 0.928 < 0.93 → k = 3
        let sel = select_prefixes(&rank, 0.93);
        assert_eq!(sel.k, 3);
    }

    #[test]
    fn phi_zero_selects_one_prefix() {
        // "smallest k with sum > 0" means one prefix as long as any host
        // responded.
        let (view, hosts) = fixture();
        let rank = rank_units(&view, &hosts);
        let sel = select_prefixes(&rank, 0.0);
        assert_eq!(sel.k, 1);
    }

    #[test]
    fn empty_rank_selects_nothing() {
        let (view, _) = fixture();
        let rank = rank_units(&view, &HostSet::default());
        let sel = select_prefixes(&rank, 0.95);
        assert_eq!(sel.k, 0);
        assert_eq!(sel.achieved_coverage, 0.0);
        assert_eq!(sel.space_fraction, 0.0);
    }

    #[test]
    fn sorted_prefixes_disjoint_sorted() {
        let (view, hosts) = fixture();
        let rank = rank_units(&view, &hosts);
        let sel = select_prefixes(&rank, 1.0);
        let sorted = sel.sorted_prefixes();
        for w in sorted.windows(2) {
            assert!(w[0].last() < w[1].first());
        }
    }

    #[test]
    fn budgeted_selection_equals_full_selection() {
        use crate::density::DensityCounts;
        // 64 units, mixed distinct and tied densities, so the prefix
        // tie-break decides some of the cutoffs
        let mut t = RouteTable::new();
        let mut addrs = Vec::new();
        for i in 0..64u32 {
            let base = (i + 1) << 24;
            t.insert(Prefix::new(base, 24).unwrap(), Origin::Single(i));
            addrs.extend((0..(1 + (i % 16)) * 4).map(|j| base + j));
        }
        let view = View::less_specific(&t);
        let hosts = HostSet::from_addrs(addrs);
        let full_rank = rank_units(&view, &hosts);
        for phi in [0.0, 0.3, 0.5, 0.9, 0.95, 0.999, 1.0, 2.0] {
            let want = select_prefixes(&full_rank, phi);
            let counts = DensityCounts::units(&view, &hosts);
            let (got, units) = select_prefixes_budgeted(counts, phi);
            let want_units: Vec<u32> = full_rank.stats[..want.k].iter().map(|s| s.unit).collect();
            assert_eq!(units, want_units, "phi={phi}");
            assert_eq!(got.k, want.k, "phi={phi}");
            assert_eq!(got.prefixes, want.prefixes, "phi={phi}");
            assert_eq!(got.achieved_coverage, want.achieved_coverage);
            assert_eq!(got.selected_space, want.selected_space);
            assert_eq!(got.space_fraction, want.space_fraction);
            assert_eq!(got.total_hosts, want.total_hosts);
        }
        // an empty ranking selects no unit
        let (empty, units): (Selection, _) =
            select_prefixes_budgeted(DensityCounts::default(), 0.9);
        assert_eq!(empty.k, 0);
        assert!(units.is_empty());
    }

    #[test]
    #[should_panic(expected = "phi must be")]
    fn rejects_nan_phi() {
        let (view, hosts) = fixture();
        let rank = rank_units(&view, &hosts);
        select_prefixes(&rank, f64::NAN);
    }

    proptest! {
        /// Minimality and monotonicity: achieved coverage exceeds phi (when
        /// feasible), dropping the last selected prefix would fall to or
        /// below phi, and larger phi never selects fewer prefixes or less
        /// space.
        #[test]
        fn prop_cutoff_minimal_and_monotone(
            counts in proptest::collection::vec(0u32..200, 1..24),
            phi_a in 0.0f64..0.999,
            phi_b in 0.0f64..0.999,
        ) {
            let mut t = RouteTable::new();
            let mut addrs = Vec::new();
            for (i, &c) in counts.iter().enumerate() {
                let base = (i as u32 + 1) << 24;
                t.insert(Prefix::new(base, 24).unwrap(), Origin::Single(i as u32));
                addrs.extend((0..c).map(|j| base + j));
            }
            let view = View::less_specific(&t);
            let rank = rank_units(&view, &HostSet::from_addrs(addrs));
            let n = rank.total_hosts;
            prop_assume!(n > 0);

            let sel = select_prefixes(&rank, phi_a);
            // achieved > phi (strictly; feasible because phi < 1 and N > 0)
            prop_assert!(sel.achieved_coverage > phi_a);
            // minimality: dropping the last prefix lands at or below phi
            if sel.k > 1 {
                let without_last: u64 = rank.stats[..sel.k - 1].iter().map(|s| s.count).sum();
                prop_assert!(
                    (without_last as f64) <= phi_a * n as f64 + 1e-9,
                    "k not minimal: {} prefixes already exceed phi", sel.k - 1
                );
            }
            // monotonicity
            let (lo, hi) = if phi_a <= phi_b { (phi_a, phi_b) } else { (phi_b, phi_a) };
            let sel_lo = select_prefixes(&rank, lo);
            let sel_hi = select_prefixes(&rank, hi);
            prop_assert!(sel_lo.k <= sel_hi.k);
            prop_assert!(sel_lo.selected_space <= sel_hi.selected_space);
        }
    }
}
