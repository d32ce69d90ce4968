//! Step 4 of TASS: the minimal-k coverage cutoff.
//!
//! Given the density ranking, find the smallest k such that the first k
//! units cover more than a fraction φ of all responsive hosts
//! (Σ_{i=1..k} φᵢ > φ), and report the address-space cost of scanning
//! them — the numbers behind the paper's Table 1.
//!
//! The cutoff takes the first k entries of a density ranking, and every
//! ranked [`PrefixStat`] carries the index of its unit in the view (or
//! block list) it was counted over. [`select_prefixes_budgeted`], the
//! path every strategy selects through, hands those indices back next to
//! the [`Selection`]. View units are sorted by address, so ascending unit
//! index *is* address order: a strategy builds its probe plan, its
//! membership bitmap and its next re-count from the indices alone.

use crate::density::{DensityCounts, DensityRank, PrefixStat};
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
    select_from_stats(&rank.stats, rank.total_hosts, rank.total_space, phi)
}

/// The cutoff itself, over a ranked stats slice — shared by
/// [`select_prefixes`] and the budgeted path, which runs it against an
/// in-place partial ranking without ever materialising a `DensityRank`.
fn select_from_stats<F: AddrFamily>(
    stats: &[PrefixStat<F>],
    total_hosts: u64,
    total_space: F::Wide,
    phi: f64,
) -> Selection<F> {
    assert!(
        phi >= 0.0 && phi.is_finite(),
        "phi must be a finite non-negative fraction"
    );
    let total_space = F::wide_to_u128(total_space);
    let mut prefixes = Vec::new();
    let mut cum_hosts = 0u64;
    let mut space = 0u128;
    // integer-exact cutoff: stop once cum_hosts > phi * N
    let target = phi * total_hosts as f64;
    for s in stats {
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

/// [`select_prefixes`] over a **top-k** ranking, returning the
/// selection together with the **unit indices** of its prefixes (in
/// rank order: `units[i]` is the unit of `selection.prefixes[i]`). The
/// cutoff selects exactly the ranked `stats[..k]`, so the indices are
/// their `unit` fields; feedback strategies plan and re-count in unit
/// index space from them, and never search a prefix back to its unit.
///
/// Only the densest units are ranked, in place
/// ([`DensityCounts::rank_top_k_in_place`] — no clone, no allocation
/// beyond the output), and `k` escalates (doubling) in the rare case the
/// cutoff was not reached inside the partial ranking. The result is the
/// *identical* selection to ranking everything — the density order is
/// strictly total, so a top-k ranking is byte-for-byte a prefix of the
/// full one, and a cutoff that fires before rank `k` cannot see the
/// difference. `k_hint` is the caller's guess (last cycle's k for a
/// feedback strategy); re-ranking cost then tracks the probe budget, not
/// the unit count.
///
/// `phi >= 1.0` selects every responsive unit, so it ranks fully.
pub fn select_prefixes_budgeted<F: AddrFamily>(
    mut counts: DensityCounts<F>,
    phi: f64,
    k_hint: usize,
) -> (Selection<F>, Vec<u32>) {
    let n = counts.len();
    // A zero hint means the caller has no estimate at all (the first
    // selection of a campaign). Coverage-level phi typically selects a
    // large fraction of the units, so doubling up from nothing would
    // re-rank the buffer log(n) times before reaching the cutoff — one
    // full sort is strictly cheaper. Escalation is for *refining* a
    // known k, not discovering one.
    //
    // Slack above the hint matters: a stable feedback loop re-selects
    // with last cycle's k as the hint, and termination needs the cutoff
    // *strictly inside* the partial ranking — an exact hint would
    // escalate (and re-rank) every single cycle at the fixpoint.
    let mut k = if phi >= 1.0 || k_hint == 0 {
        n
    } else {
        (k_hint + k_hint / 8 + 8).min(n)
    };
    let selection = loop {
        if 2 * k >= n {
            // this close to n, one full sort beats partial-rank passes
            counts.rank_top_k_in_place(n);
            break select_from_stats(&counts.stats, counts.total_hosts, counts.total_space, phi);
        }
        // partial ranking in place: no clone, no allocation — escalation
        // re-partitions the same buffer
        counts.rank_top_k_in_place(k);
        let sel = select_from_stats(
            &counts.stats[..k],
            counts.total_hosts,
            counts.total_space,
            phi,
        );
        // the cutoff fired strictly inside the partial ranking: the full
        // sort would agree
        if sel.k < k {
            break sel;
        }
        k *= 2;
    };
    let units = counts.stats[..selection.k].iter().map(|s| s.unit).collect();
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
        // 64 units, mixed distinct and tied densities, so escalation and
        // tie-breaks through the partition boundary are both exercised
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
            // hints below, at, and above the true k — all must agree
            for k_hint in [
                0usize,
                1,
                want.k.saturating_sub(1),
                want.k,
                want.k + 5,
                1000,
            ] {
                let counts = DensityCounts::units(&view, &hosts);
                let (got, units) = select_prefixes_budgeted(counts, phi, k_hint);
                let want_units: Vec<u32> =
                    full_rank.stats[..want.k].iter().map(|s| s.unit).collect();
                assert_eq!(units, want_units, "phi={phi} hint={k_hint}");
                assert_eq!(got.k, want.k, "phi={phi} hint={k_hint}");
                assert_eq!(got.prefixes, want.prefixes, "phi={phi} hint={k_hint}");
                assert_eq!(got.achieved_coverage, want.achieved_coverage);
                assert_eq!(got.selected_space, want.selected_space);
                assert_eq!(got.space_fraction, want.space_fraction);
                assert_eq!(got.total_hosts, want.total_hosts);
            }
        }
        // an empty ranking selects no unit
        let (empty, units): (Selection, _) =
            select_prefixes_budgeted(DensityCounts::default(), 0.9, 4);
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
