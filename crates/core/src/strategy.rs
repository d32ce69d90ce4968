//! The scanning strategies the paper evaluates — as an open, trait-based
//! lifecycle.
//!
//! The paper's §3.1 recipe is a *loop*: "scan prefixes 1…k repeatedly
//! until t₀ + Δt, **then start over at step 1**". The strategy layer
//! models exactly that loop:
//!
//! 1. [`Strategy::prepare`] — seed from the t₀ full scan, yielding a
//!    stateful [`PreparedStrategy`] ([`Strategy::prepare_in`] does the
//!    same from a [`UnitSeed`] several campaigns on one t₀ share);
//! 2. [`PreparedStrategy::plan`] — each cycle, decide *what to probe* as a
//!    typed [`ProbePlan`] (prefix list / address set / fresh sample /
//!    everything);
//! 3. [`PreparedStrategy::observe`] — receive the cycle's
//!    [`CycleOutcome`] and adapt: re-rank densities, re-seed, or ignore it
//!    (the static baselines do).
//!
//! [`StrategyKind`] is the registry: plain data that CLIs, serde, and
//! exhibit tables name strategies by, and itself a [`Strategy`], so a
//! registry kind drives the lifecycle directly.
//!
//! Registry strategies:
//!
//! * [`StrategyKind::FullScan`] — the baseline everything is measured
//!   against;
//! * [`StrategyKind::Tass`] — the paper's contribution, parameterised by
//!   view granularity and host-coverage target φ;
//! * [`StrategyKind::IpHitlist`] — §4.1: re-probe exactly the addresses
//!   responsive at t₀ (maximally efficient, decays fastest);
//! * [`StrategyKind::RandomSample`] — §2: probe a uniform random sample of
//!   announced space each cycle (Rossow-style);
//! * [`StrategyKind::Block24Sample`] — §2: Heidemann-style /24-block
//!   panel: 50 % random blocks, 25 % previously-responsive blocks, 25 %
//!   densest blocks;
//! * [`StrategyKind::RandomPrefix`] — ablation: random scan units under
//!   the same address-space budget as a TASS selection;
//! * [`StrategyKind::ReseedingTass`] ([`ReseedingTass`]) — the paper's
//!   literal Δt loop: full re-scan and re-rank every Δt cycles;
//! * [`StrategyKind::AdaptiveTass`] ([`AdaptiveTass`]) — re-ranks
//!   densities from each cycle's *own* observed responses plus a small
//!   rotating exploration budget — no full re-scan ever.
//!
//! The first six freeze their plan at t₀ ([`StaticPrepared`]); the last
//! two consume feedback. The IPv6 strategies ([`V6Hitlist`],
//! [`V6BlockTass`], [`V6FreshSample`]) implement `Strategy<V6>`.

use crate::density::DensityCounts;
use crate::plan::{CycleOutcome, ProbePlan};
use crate::select::{select_prefixes_budgeted, Selection};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use tass_bgp::{View, ViewKind};
use tass_model::{PrefixCount, Snapshot, Topology, V6Space};
use tass_net::{AddrFamily, Prefix, V4, V6};

pub use crate::plan::Eval;

/// The family → seeding-context binding. Lives in `tass_model::source`
/// now (next to the [`tass_model::GroundTruth`] source trait that names
/// it); re-exported here because the strategy lifecycle is where
/// implementors meet it.
pub use tass_model::FamilySpace;

/// A scanning strategy: a recipe for seeding from a t₀ full scan,
/// generic over the address family (default IPv4).
///
/// Implement this (plus [`PreparedStrategy`] for the per-campaign state)
/// to plug a new strategy into [`crate::campaign::run_campaign_strategy`]
/// (for either family), the exhibits, and the scan engine. All built-in
/// strategies go through this same interface; the
/// seeding context is the family's [`FamilySpace::Space`].
pub trait Strategy<F: FamilySpace = V4>: fmt::Debug {
    /// Short human-readable label (used in tables and CSV).
    fn label(&self) -> String;

    /// Seed the strategy from the t₀ ground truth, producing the stateful
    /// per-campaign lifecycle object.
    ///
    /// `seed` drives the randomized strategies (samples, random prefixes);
    /// TASS and the hitlist are deterministic.
    fn prepare(
        &self,
        space: &F::Space,
        t0: &Snapshot<F>,
        seed: u64,
    ) -> Box<dyn PreparedStrategy<F>>;

    /// [`prepare`](Self::prepare), drawing on a memo shared with the
    /// other campaigns seeded from the same `space` and `t0`.
    ///
    /// The campaign driver prepares every lane of a lockstep unit through
    /// one [`UnitSeed`], so strategies that count, rank and select the
    /// same view at the same φ do it once per unit, not once per lane.
    /// Every memo entry is a pure function of (view, t₀, φ), so the
    /// prepared strategy is the one `prepare` builds. The default ignores
    /// the memo and calls `prepare`; the TASS registry kinds implement
    /// this and make `prepare` call it on a fresh memo.
    fn prepare_in(
        &self,
        space: &F::Space,
        t0: &Snapshot<F>,
        seed: u64,
        memo: &mut UnitSeed,
    ) -> Box<dyn PreparedStrategy<F>> {
        let _ = memo;
        self.prepare(space, t0, seed)
    }
}

/// The t₀ memo of one campaign unit: what every TASS lane seeded from the
/// same topology and t₀ snapshot would otherwise compute alone.
///
/// It fills lazily and holds
///
/// * the t₀ host count of every unit, per [`ViewKind`] (one bulk sweep
///   per view), and
/// * the [`Selection`] and its unit indices per (view, φ) (one stats +
///   rank + cutoff per pair).
///
/// A memo belongs to one (topology, t₀) pair: hand it only to
/// preparations from that pair, as the campaign driver does for the
/// lanes of one unit.
#[derive(Debug, Default)]
pub struct UnitSeed {
    counts: Vec<(ViewKind, Vec<u64>)>,
    selections: Vec<(ViewKind, u64, Selection, Vec<u32>)>,
    /// t₀ sweeps run so far.
    #[cfg(test)]
    sweeps: usize,
}

impl UnitSeed {
    /// The t₀ host count of every unit of `view`, index-aligned with its
    /// units.
    pub(crate) fn counts(&mut self, topo: &Topology, view: ViewKind, t0: &Snapshot) -> &[u64] {
        let at = match self.counts.iter().position(|(v, _)| *v == view) {
            Some(at) => at,
            None => {
                // one bulk sweep over the sorted t₀ hosts — identical
                // counts to attributing every host through the trie (view
                // units are disjoint, so containment and longest-match
                // agree), at O(units log hosts) instead of a trie walk
                // per host
                let units = view_of(topo, view).units();
                let mut counts = Vec::with_capacity(units.len());
                t0.hosts
                    .count_prefixes_into(units.iter().map(|vu| vu.prefix), &mut counts);
                #[cfg(test)]
                {
                    self.sweeps += 1;
                }
                self.counts.push((view, counts));
                self.counts.len() - 1
            }
        };
        &self.counts[at].1
    }

    /// The TASS selection of `view` at coverage target `phi` from t₀, and
    /// its unit indices in rank order.
    pub(crate) fn selection(
        &mut self,
        topo: &Topology,
        view: ViewKind,
        phi: f64,
        t0: &Snapshot,
    ) -> (&Selection, &[u32]) {
        let key = (view, phi.to_bits());
        let at = match self
            .selections
            .iter()
            .position(|(v, bits, ..)| (*v, *bits) == key)
        {
            Some(at) => at,
            None => {
                let counts = DensityCounts::from_unit_counts(
                    view_of(topo, view),
                    self.counts(topo, view, t0),
                );
                // rank by one radix sort, then cut off at φ
                let (selection, units) = select_prefixes_budgeted(counts, phi);
                self.selections.push((view, key.1, selection, units));
                self.selections.len() - 1
            }
        };
        let (_, _, selection, units) = &self.selections[at];
        (selection, units)
    }
}

/// The per-campaign lifecycle of a prepared strategy, generic over the
/// address family (default IPv4).
///
/// Driven as `plan(0) → observe(0) → plan(1) → observe(1) → … →
/// plan(last)` by [`crate::campaign::run_campaign_strategy`] (or by a
/// real scanning loop feeding actual `ScanReport`s back in). The last
/// cycle is planned but not observed: no plan follows it to read the
/// feedback, so the campaign driver neither builds its observed view
/// nor calls [`observe`](Self::observe) for it.
pub trait PreparedStrategy<F: AddrFamily = V4>: fmt::Debug {
    /// Decide what to probe this cycle.
    fn plan(&mut self, cycle: u32) -> ProbePlan<F>;

    /// Receive the cycle's outcome. Static strategies ignore it; adaptive
    /// ones re-rank, re-seed, or otherwise update state.
    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome<F>) {
        let _ = (cycle, outcome);
    }

    /// Whether this strategy consumes [`observe`](Self::observe)
    /// feedback. Defaults to `true` so user-defined strategies get their
    /// outcomes without opting in; the built-in static strategies return
    /// `false`, letting the campaign driver skip materialising each
    /// cycle's responsive host set.
    fn wants_feedback(&self) -> bool {
        true
    }

    /// The TASS selection details, when the strategy has one (for tables
    /// and the CLI whitelist output). Reflects the *current* selection for
    /// adaptive strategies.
    fn selection(&self) -> Option<&Selection<F>> {
        None
    }
}

/// Which strategy to prepare — the closed, serializable registry form.
///
/// This is plain data for CLIs, config files, and exhibit tables, and it
/// is itself a [`Strategy`]: pass `&kind` wherever a `&dyn Strategy` is
/// expected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Scan the whole announced space every cycle.
    FullScan,
    /// TASS with the given view granularity and coverage target φ.
    Tass {
        /// l-prefixes or the deaggregated m-partition.
        view: ViewKind,
        /// Host-coverage target φ (1.0 = all responsive prefixes).
        phi: f64,
    },
    /// Re-probe the exact addresses responsive at t₀.
    IpHitlist,
    /// Probe `fraction` of the announced space at uniform random each
    /// cycle (fresh sample every cycle).
    RandomSample {
        /// Fraction of announced addresses sampled.
        fraction: f64,
    },
    /// Heidemann-style /24-block panel covering `fraction` of announced
    /// space: 50 % random blocks, 25 % previously responsive, 25 % densest.
    Block24Sample {
        /// Fraction of announced space covered by the panel.
        fraction: f64,
    },
    /// Ablation: random scan units (same view as TASS) until the given
    /// address-space budget is met.
    RandomPrefix {
        /// View granularity to draw units from.
        view: ViewKind,
        /// Address-space budget as a fraction of announced space.
        space_fraction: f64,
    },
    /// The paper's literal Δt loop: scan the selection each cycle, and
    /// every `delta_t` cycles run a full re-scan and re-rank from it.
    ReseedingTass {
        /// l-prefixes or the deaggregated m-partition.
        view: ViewKind,
        /// Host-coverage target φ.
        phi: f64,
        /// Re-seed period in cycles ([`ReseedingTass::NEVER`] = never).
        delta_t: u32,
    },
    /// Feedback-only TASS: re-rank densities from each cycle's own
    /// observed responses plus a rotating exploration budget.
    AdaptiveTass {
        /// l-prefixes or the deaggregated m-partition.
        view: ViewKind,
        /// Host-coverage target φ.
        phi: f64,
        /// Fraction of announced space explored per cycle outside the
        /// current selection.
        explore: f64,
    },
}

impl StrategyKind {
    /// This registry entry as a boxed trait object.
    pub fn strategy(&self) -> Box<dyn Strategy> {
        Box::new(*self)
    }
}

impl Strategy for StrategyKind {
    fn label(&self) -> String {
        match *self {
            StrategyKind::FullScan => "full-scan".into(),
            StrategyKind::Tass { view, phi } => format!("tass-{view}-phi{phi}"),
            StrategyKind::IpHitlist => "ip-hitlist".into(),
            StrategyKind::RandomSample { fraction } => format!("random-sample-{fraction}"),
            StrategyKind::Block24Sample { fraction } => format!("block24-sample-{fraction}"),
            StrategyKind::RandomPrefix {
                view,
                space_fraction,
            } => format!("random-prefix-{view}-{space_fraction}"),
            StrategyKind::ReseedingTass { view, phi, delta_t } => {
                ReseedingTass { view, phi, delta_t }.label()
            }
            StrategyKind::AdaptiveTass { view, phi, explore } => {
                AdaptiveTass { view, phi, explore }.label()
            }
        }
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        self.prepare_in(topo, t0, seed, &mut UnitSeed::default())
    }

    /// The six static kinds freeze their t₀ plan into a
    /// [`StaticPrepared`]; the two feedback kinds delegate to
    /// [`ReseedingTass`] and [`AdaptiveTass`].
    fn prepare_in(
        &self,
        topo: &Topology,
        t0: &Snapshot,
        seed: u64,
        memo: &mut UnitSeed,
    ) -> Box<dyn PreparedStrategy> {
        let announced = topo.announced_space();
        let (plan, selection) = match *self {
            StrategyKind::FullScan => (ProbePlan::All, None),
            StrategyKind::Tass { view, phi } => {
                let (sel, units) = memo.selection(topo, view, phi, t0);
                let plan = address_order(view_of(topo, view), units.to_vec());
                (ProbePlan::Prefixes(plan), Some(sel.clone()))
            }
            StrategyKind::IpHitlist => (ProbePlan::Addrs(t0.hosts.clone()), None),
            StrategyKind::RandomSample { fraction } => {
                let per_cycle = (announced as f64 * fraction).round() as u64;
                (ProbePlan::FreshSample { per_cycle, seed }, None)
            }
            StrategyKind::Block24Sample { fraction } => (
                ProbePlan::Prefixes(block24_panel(topo, t0, fraction, seed)),
                None,
            ),
            StrategyKind::RandomPrefix {
                view,
                space_fraction,
            } => {
                let v = view_of(topo, view);
                let budget = (announced as f64 * space_fraction) as u64;
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut picked = Vec::new();
                let mut space = 0u64;
                let n = v.len();
                let mut tried = std::collections::HashSet::new();
                while space < budget && tried.len() < n {
                    let i = rng.random_range(0..n);
                    if tried.insert(i) {
                        picked.push(i as u32);
                        space += v.units()[i].prefix.size();
                    }
                }
                (ProbePlan::Prefixes(address_order(v, picked)), None)
            }
            StrategyKind::ReseedingTass { view, phi, delta_t } => {
                return ReseedingTass { view, phi, delta_t }.prepare_in(topo, t0, seed, memo)
            }
            StrategyKind::AdaptiveTass { view, phi, explore } => {
                return AdaptiveTass { view, phi, explore }.prepare_in(topo, t0, seed, memo)
            }
        };
        Box::new(StaticPrepared::new(plan, selection))
    }
}

// ------------------------------------------------------------------ static

/// A prepared strategy with a fixed plan: probes the same targets every
/// cycle and ignores feedback. The six static registry kinds reduce to
/// this (and so do the static v6 strategies — the type is family-generic).
#[derive(Debug, Clone)]
pub struct StaticPrepared<F: AddrFamily = V4> {
    plan: ProbePlan<F>,
    selection: Option<Selection<F>>,
}

impl<F: AddrFamily> StaticPrepared<F> {
    /// Wrap a fixed plan (and optional selection details).
    pub fn new(plan: ProbePlan<F>, selection: Option<Selection<F>>) -> StaticPrepared<F> {
        StaticPrepared { plan, selection }
    }
}

impl<F: AddrFamily> PreparedStrategy<F> for StaticPrepared<F> {
    fn plan(&mut self, _cycle: u32) -> ProbePlan<F> {
        self.plan.clone()
    }

    fn wants_feedback(&self) -> bool {
        false
    }

    fn selection(&self) -> Option<&Selection<F>> {
        self.selection.as_ref()
    }
}

// ---------------------------------------------------------------- feedback

fn view_of(topo: &Topology, kind: ViewKind) -> &Arc<View> {
    match kind {
        ViewKind::LessSpecific => &topo.l_view,
        ViewKind::MoreSpecific => &topo.m_view,
    }
}

/// The prefixes of `units` (indices into `view`) in address order. View
/// units are sorted by prefix, so sorting the indices sorts the prefixes.
fn address_order(view: &View, mut units: Vec<u32>) -> Vec<Prefix> {
    units.sort_unstable();
    let all = view.units();
    units.iter().map(|&u| all[u as usize].prefix).collect()
}

/// The paper's §3.1 step 5, taken literally: "scan prefixes 1…k
/// repeatedly until t₀ + Δt, then start over at step 1". Every `delta_t`
/// cycles the strategy plans a full re-scan; its observed responses
/// become the new seeding scan and the selection is re-ranked from them.
///
/// Each selection comes back with its unit indices, and the cycle plan is
/// built from them once per re-seed: the indices sorted are the
/// selection in address order.
///
/// With `delta_t == `[`ReseedingTass::NEVER`] it never re-seeds and is
/// exactly the static [`StrategyKind::Tass`] evaluated in §4.
#[derive(Debug, Clone, Copy)]
pub struct ReseedingTass {
    /// l-prefixes or the deaggregated m-partition.
    pub view: ViewKind,
    /// Host-coverage target φ.
    pub phi: f64,
    /// Re-seed period in cycles ([`ReseedingTass::NEVER`] disables).
    pub delta_t: u32,
}

impl ReseedingTass {
    /// Sentinel `delta_t`: never re-seed (equivalent to static TASS).
    pub const NEVER: u32 = u32::MAX;
}

impl Strategy for ReseedingTass {
    fn label(&self) -> String {
        if self.delta_t == Self::NEVER {
            format!("reseeding-tass-{}-phi{}-never", self.view, self.phi)
        } else {
            format!(
                "reseeding-tass-{}-phi{}-dt{}",
                self.view, self.phi, self.delta_t
            )
        }
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        self.prepare_in(topo, t0, seed, &mut UnitSeed::default())
    }

    fn prepare_in(
        &self,
        topo: &Topology,
        t0: &Snapshot,
        _seed: u64,
        memo: &mut UnitSeed,
    ) -> Box<dyn PreparedStrategy> {
        let view = Arc::clone(view_of(topo, self.view));
        let (selection, units) = memo.selection(topo, self.view, self.phi, t0);
        let sorted_plan = address_order(&view, units.to_vec());
        Box::new(ReseedingPrepared {
            view,
            phi: self.phi,
            delta_t: self.delta_t,
            selection: selection.clone(),
            sorted_plan,
        })
    }
}

#[derive(Debug, Clone)]
struct ReseedingPrepared {
    view: Arc<View>,
    phi: f64,
    delta_t: u32,
    selection: Selection,
    /// The selection's prefixes in address order, recomputed once per
    /// reselection — so a cycle's plan is a memcpy, not a sort.
    sorted_plan: Vec<Prefix>,
}

impl ReseedingPrepared {
    fn is_reseed_cycle(&self, cycle: u32) -> bool {
        self.delta_t != ReseedingTass::NEVER
            && self.delta_t > 0
            && cycle > 0
            && cycle.is_multiple_of(self.delta_t)
    }
}

impl PreparedStrategy for ReseedingPrepared {
    fn plan(&mut self, cycle: u32) -> ProbePlan {
        if self.is_reseed_cycle(cycle) {
            // step 1 again: the amortised full scan
            ProbePlan::All
        } else {
            ProbePlan::Prefixes(self.sorted_plan.clone())
        }
    }

    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome) {
        if self.is_reseed_cycle(cycle) {
            // steps 2–4 from the fresh scan's responses: the whole view
            // counts in one bulk sweep over the shared snapshot
            let counts = DensityCounts::units(&self.view, &outcome.responsive);
            let (selection, units) = select_prefixes_budgeted(counts, self.phi);
            self.selection = selection;
            self.sorted_plan = address_order(&self.view, units);
        }
    }

    fn selection(&self) -> Option<&Selection> {
        Some(&self.selection)
    }
}

/// Feedback-only TASS: never re-scans everything. Each cycle it probes
/// the current selection plus a small rotating *exploration* slice of
/// unselected units, then re-ranks densities from what the cycle actually
/// observed. Host churn into previously-unselected prefixes is discovered
/// by exploration and pulled into the selection — so accuracy decays more
/// slowly than the t₀-frozen [`StrategyKind::Tass`] at a small, bounded
/// probe overhead.
///
/// The whole loop runs in unit-index space. A re-selection marks its
/// units in a per-unit bitset, a plan ORs the exploration window into a
/// copy of it and emits the set bits in ascending index order (which is
/// address order, as view units are sorted by prefix), and the next
/// re-count sweeps exactly those units. No prefix is searched back to
/// its unit, and nothing is sorted outside the density rank.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveTass {
    /// l-prefixes or the deaggregated m-partition.
    pub view: ViewKind,
    /// Host-coverage target φ.
    pub phi: f64,
    /// Fraction of announced space explored per cycle outside the
    /// current selection (e.g. `0.1`).
    pub explore: f64,
}

impl Strategy for AdaptiveTass {
    fn label(&self) -> String {
        format!(
            "adaptive-tass-{}-phi{}-explore{}",
            self.view, self.phi, self.explore
        )
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        self.prepare_in(topo, t0, seed, &mut UnitSeed::default())
    }

    /// The t₀ counts seed the estimates, and the t₀ selection is the
    /// first re-selection over them, both taken from the memo.
    fn prepare_in(
        &self,
        topo: &Topology,
        t0: &Snapshot,
        _seed: u64,
        memo: &mut UnitSeed,
    ) -> Box<dyn PreparedStrategy> {
        let view = Arc::clone(view_of(topo, self.view));
        let counts = memo.counts(topo, self.view, t0).to_vec();
        let (selection, units) = memo.selection(topo, self.view, self.phi, t0);
        let words = view.len().div_ceil(64);
        let mut selected = vec![0; words];
        for &u in units {
            set_bit(&mut selected, u as usize);
        }
        Box::new(AdaptivePrepared {
            phi: self.phi,
            explore: self.explore,
            counts,
            selection: selection.clone(),
            selected,
            planned: vec![0; words],
            explore_cursor: 0,
            last_planned: Vec::new(),
            view,
        })
    }
}

#[derive(Debug, Clone)]
struct AdaptivePrepared {
    view: Arc<View>,
    phi: f64,
    explore: f64,
    /// Last observed responsive count per scan unit (seeded from t₀).
    counts: Vec<u64>,
    selection: Selection,
    /// Bitset over unit indices: is the unit in the current selection?
    selected: Vec<u64>,
    /// Scratch bitset a plan builds: `selected` ∪ the exploration window.
    planned: Vec<u64>,
    /// Rotating cursor over unit indices for exploration.
    explore_cursor: usize,
    /// Unit indices probed by the most recent plan (selection + explored),
    /// ascending.
    last_planned: Vec<u32>,
}

/// Bit `i` of a `u64`-word bitset.
fn bit(words: &[u64], i: usize) -> bool {
    words[i / 64] & (1 << (i % 64)) != 0
}

/// Set bit `i` of a `u64`-word bitset.
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

impl AdaptivePrepared {
    /// Re-run TASS steps 2–4 over the current per-unit count estimates
    /// and mark the selected units.
    fn reselect(&mut self) {
        let counts = DensityCounts::from_unit_counts(&self.view, &self.counts);
        let (selection, units) = select_prefixes_budgeted(counts, self.phi);
        self.selection = selection;
        self.selected.fill(0);
        for u in units {
            set_bit(&mut self.selected, u as usize);
        }
    }
}

impl PreparedStrategy for AdaptivePrepared {
    fn plan(&mut self, _cycle: u32) -> ProbePlan {
        let units = self.view.units();
        let n = units.len();
        // rotate an exploration budget through the unselected units: the
        // explored window is the cyclic index range [start, start + visited)
        let budget = (self.view.total_space() as f64 * self.explore) as u64;
        let start = self.explore_cursor;
        let mut spent = 0u64;
        let mut visited = 0usize;
        self.planned.copy_from_slice(&self.selected);
        while spent < budget && visited < n {
            let idx = (start + visited) % n;
            visited += 1;
            if !bit(&self.selected, idx) {
                spent += units[idx].prefix.size();
            }
            set_bit(&mut self.planned, idx);
        }
        self.explore_cursor = (start + visited) % n.max(1);
        // selected ∪ explored, in ascending index (= address) order
        self.last_planned.clear();
        let mut prefixes = Vec::with_capacity(self.selection.k + visited);
        for (w, &word) in self.planned.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let i = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                self.last_planned.push(i as u32);
                prefixes.push(units[i].prefix);
            }
        }
        ProbePlan::Prefixes(prefixes)
    }

    fn observe(&mut self, _cycle: u32, outcome: &CycleOutcome) {
        // update the density estimate of every unit this cycle probed,
        // from the cycle's own responses — no full scan anywhere. The
        // driver built the responsive view from exactly these planned
        // prefixes, so the bulk count reads back the counts the view
        // kept; any other view (an engine report) is swept once, the
        // planned units ascending, not a rank query per unit.
        let units = self.view.units();
        let mut probed = Vec::with_capacity(self.last_planned.len());
        outcome.responsive.count_prefixes_into(
            self.last_planned.iter().map(|&u| units[u as usize].prefix),
            &mut probed,
        );
        for (&unit, &c) in self.last_planned.iter().zip(&probed) {
            self.counts[unit as usize] = c;
        }
        self.reselect();
    }

    fn selection(&self) -> Option<&Selection> {
        Some(&self.selection)
    }
}

// ----------------------------------------------------------------- IPv6

/// Re-probe the exact v6 addresses responsive at t₀ — the only v6
/// baseline that exists in practice (public hitlists), maximally
/// efficient and fastest to decay, as in §4.1 for v4.
#[derive(Debug, Clone, Copy, Default)]
pub struct V6Hitlist;

impl Strategy<V6> for V6Hitlist {
    fn label(&self) -> String {
        "v6-hitlist".into()
    }

    fn prepare(
        &self,
        _space: &V6Space,
        t0: &Snapshot<V6>,
        _seed: u64,
    ) -> Box<dyn PreparedStrategy<V6>> {
        Box::new(StaticPrepared::new(
            ProbePlan::Addrs(t0.hosts.clone()),
            None,
        ))
    }
}

/// TASS transplanted to IPv6: attribute the t₀ hitlist's hosts to their
/// enclosing `/block_len` blocks, rank the blocks by density
/// ρᵢ = cᵢ / 2^(128−block_len), and select the smallest set covering a
/// fraction φ of hosts — then probe those blocks exhaustively each
/// cycle, re-ranking from each cycle's own responses (the hosts churn
/// *within* pools, so the dense blocks persist even as addresses
/// change). This is the regime where topology-aware selection is not an
/// optimisation but the only option: the enclosing space is 2⁸⁰⁺
/// addresses.
#[derive(Debug, Clone, Copy)]
pub struct V6BlockTass {
    /// Host-coverage target φ.
    pub phi: f64,
    /// Block granularity the hitlist is attributed at (e.g. 116).
    pub block_len: u8,
}

impl Strategy<V6> for V6BlockTass {
    fn label(&self) -> String {
        format!("v6-block-tass-len{}-phi{}", self.block_len, self.phi)
    }

    fn prepare(
        &self,
        _space: &V6Space,
        t0: &Snapshot<V6>,
        _seed: u64,
    ) -> Box<dyn PreparedStrategy<V6>> {
        let blocks = blocks_of(t0.hosts.iter(), self.block_len);
        // the blocks are sorted, so one bulk sweep counts them all
        let mut counts = Vec::with_capacity(blocks.len());
        t0.hosts
            .count_prefixes_into(blocks.iter().copied(), &mut counts);
        let mut prepared = V6BlockPrepared {
            phi: self.phi,
            block_len: self.block_len,
            blocks,
            counts,
            selection: Selection::default(),
            planned: Vec::new(),
        };
        prepared.reselect();
        Box::new(prepared)
    }
}

/// The distinct `/len` blocks an ascending host iteration occupies
/// (sorted) — works on `HostSet`s and `HostSetView`s alike.
fn blocks_of(hosts: impl Iterator<Item = u128>, block_len: u8) -> Vec<Prefix<V6>> {
    let mut blocks: Vec<Prefix<V6>> = hosts
        .map(|a| Prefix::<V6>::new_truncate(a, block_len).expect("block_len <= 128"))
        .collect();
    blocks.dedup(); // hosts are sorted, so equal blocks are adjacent
    blocks
}

#[derive(Debug, Clone)]
struct V6BlockPrepared {
    phi: f64,
    block_len: u8,
    /// Every dense block ever observed, sorted by address.
    blocks: Vec<Prefix<V6>>,
    /// Last observed responsive count per block (index-aligned). Counts
    /// of unprobed blocks persist — the φ cutoff always ranks the *whole*
    /// known table, so the selection never compounds its own cutoff.
    counts: Vec<u64>,
    selection: Selection<V6>,
    /// Indices into `blocks` of the selection, ascending (= address order).
    planned: Vec<u32>,
}

impl V6BlockPrepared {
    /// Steps 2–4 over the maintained per-block counts.
    fn reselect(&mut self) {
        let counts = DensityCounts::prefix_counts(&self.blocks, &self.counts);
        let (selection, mut units) = select_prefixes_budgeted(counts, self.phi);
        units.sort_unstable();
        self.selection = selection;
        self.planned = units;
    }
}

impl PreparedStrategy<V6> for V6BlockPrepared {
    fn plan(&mut self, _cycle: u32) -> ProbePlan<V6> {
        let blocks = &self.blocks;
        ProbePlan::Prefixes(self.planned.iter().map(|&u| blocks[u as usize]).collect())
    }

    fn observe(&mut self, _cycle: u32, outcome: &CycleOutcome<V6>) {
        // update the counts of every block this cycle probed from its own
        // responses (blocks persist even as hosts renumber inside them),
        // and adopt any newly discovered blocks
        for &u in &self.planned {
            let block = self.blocks[u as usize];
            self.counts[u as usize] = outcome.responsive.count_in_prefix(block) as u64;
        }
        for block in blocks_of(outcome.responsive.iter(), self.block_len) {
            if let Err(i) = self.blocks.binary_search(&block) {
                self.blocks.insert(i, block);
                self.counts
                    .insert(i, outcome.responsive.count_in_prefix(block) as u64);
            }
        }
        self.reselect();
    }

    fn selection(&self) -> Option<&Selection<V6>> {
        Some(&self.selection)
    }
}

/// A fresh uniform random sample of the seeded v6 space each cycle —
/// the §2 baseline transplanted to v6, where it collapses: the announced
/// space is 2⁸⁰⁺ addresses, so any affordable sample has a hitrate
/// indistinguishable from zero. Included to *show* that collapse.
#[derive(Debug, Clone, Copy)]
pub struct V6FreshSample {
    /// Addresses sampled per cycle.
    pub per_cycle: u64,
}

impl Strategy<V6> for V6FreshSample {
    fn label(&self) -> String {
        format!("v6-fresh-sample-{}", self.per_cycle)
    }

    fn prepare(
        &self,
        _space: &V6Space,
        _t0: &Snapshot<V6>,
        seed: u64,
    ) -> Box<dyn PreparedStrategy<V6>> {
        Box::new(StaticPrepared::new(
            ProbePlan::FreshSample {
                per_cycle: self.per_cycle,
                seed,
            },
            None,
        ))
    }
}

/// Build the Heidemann-style /24 panel: 50 % random announced blocks,
/// 25 % blocks responsive at t₀, 25 % densest blocks at t₀.
fn block24_panel(topo: &Topology, t0: &Snapshot, fraction: f64, seed: u64) -> Vec<Prefix> {
    let announced = topo.announced_space();
    let target_blocks = ((announced as f64 * fraction) / 256.0).round().max(1.0) as usize;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut chosen: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();

    // responsive /24s at t0, with counts
    let mut counts: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for a in t0.hosts.iter() {
        *counts.entry(a >> 8).or_insert(0) += 1;
    }
    let mut responsive: Vec<(u32, u32)> = counts.into_iter().collect();
    responsive.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // 25%: densest blocks ("other policies" in the paper's description)
    for &(block, _) in responsive.iter().take(target_blocks / 4) {
        chosen.insert(block);
    }
    // 25%: previously responsive (uniform among responsive)
    let quarter = target_blocks / 4;
    let mut added = 0usize;
    while added < quarter && chosen.len() < responsive.len().min(target_blocks) {
        let pick = responsive[rng.random_range(0..responsive.len())].0;
        if chosen.insert(pick) {
            added += 1;
        }
    }
    // 50%: random announced /24s (sample random addresses, take their /24)
    let units = topo.m_view.units();
    if !units.is_empty() {
        let mut guard = 0;
        while chosen.len() < target_blocks && guard < target_blocks * 64 {
            guard += 1;
            let u = &units[rng.random_range(0..units.len())];
            let size = u.prefix.size();
            let off = rng.random_range(0..size);
            let addr = (u64::from(u.prefix.first()) + off) as u32;
            chosen.insert(addr >> 8);
        }
    }
    chosen
        .into_iter()
        .map(|b| Prefix::new(b << 8, 24).expect("block id shifted left is /24-aligned"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tass_model::{Protocol, Universe, UniverseConfig};

    fn small_universe() -> Universe {
        Universe::generate(&UniverseConfig::small(21))
    }

    /// The frozen reference of a static kind: its t₀ plan, evaluated
    /// against any month with [`ProbePlan::evaluate`].
    fn freeze(kind: StrategyKind, topo: &Topology, t0: &Snapshot, seed: u64) -> ProbePlan {
        kind.prepare(topo, t0, seed).plan(0)
    }

    #[test]
    fn full_scan_always_perfect() {
        let u = small_universe();
        let announced = u.topology().announced_space();
        let plan = freeze(
            StrategyKind::FullScan,
            u.topology(),
            u.snapshot(0, Protocol::Http),
            1,
        );
        for month in 0..=6 {
            let e = plan.evaluate(u.snapshot(month, Protocol::Http), month, announced);
            assert_eq!(e.found, e.total);
            assert_eq!(e.hitrate, 1.0);
        }
        assert_eq!(plan.probe_count(announced), announced);
    }

    #[test]
    fn tass_phi1_month0_is_perfect() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Ftp);
        let announced = u.topology().announced_space();
        for view in [ViewKind::LessSpecific, ViewKind::MoreSpecific] {
            let plan = freeze(StrategyKind::Tass { view, phi: 1.0 }, u.topology(), t0, 1);
            let e = plan.evaluate(t0, 0, announced);
            assert_eq!(
                e.hitrate, 1.0,
                "{view}: all t0 hosts are in responsive prefixes"
            );
            assert!(plan.probe_count(announced) < announced);
        }
    }

    #[test]
    fn tass_phi95_month0_exceeds_95() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let mut prepared = StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        }
        .prepare(u.topology(), t0, 1);
        let e = prepared
            .plan(0)
            .evaluate(t0, 0, u.topology().announced_space());
        assert!(
            e.hitrate > 0.95,
            "hitrate {} must exceed phi at t0",
            e.hitrate
        );
        assert!(e.hitrate < 1.0, "phi=0.95 should not cover everything");
        let sel = prepared.selection().unwrap();
        assert!(sel.space_fraction < 1.0);
    }

    #[test]
    fn m_view_selection_needs_less_space_than_l_view() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let announced = u.topology().announced_space();
        let probes = |view| {
            freeze(StrategyKind::Tass { view, phi: 1.0 }, u.topology(), t0, 1)
                .probe_count(announced)
        };
        let (l, m) = (
            probes(ViewKind::LessSpecific),
            probes(ViewKind::MoreSpecific),
        );
        assert!(
            m < l,
            "paper §3.3: m-prefixes are denser, so full coverage is cheaper: {m} vs {l}"
        );
    }

    #[test]
    fn hitlist_perfect_at_t0_then_decays() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Cwmp);
        let announced = u.topology().announced_space();
        let plan = freeze(StrategyKind::IpHitlist, u.topology(), t0, 1);
        assert_eq!(plan.probe_count(announced), t0.len() as u64);
        let e0 = plan.evaluate(t0, 0, announced);
        assert_eq!(e0.hitrate, 1.0);
        let e3 = plan.evaluate(u.snapshot(3, Protocol::Cwmp), 3, announced);
        let e6 = plan.evaluate(u.snapshot(6, Protocol::Cwmp), 6, announced);
        assert!(
            e3.hitrate < 0.95,
            "CWMP hitlist must decay, got {}",
            e3.hitrate
        );
        assert!(e6.hitrate < e3.hitrate, "decay must continue");
    }

    #[test]
    fn tass_decays_slower_than_hitlist() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let announced = u.topology().announced_space();
        let tass = freeze(
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            u.topology(),
            t0,
            1,
        );
        let hit = freeze(StrategyKind::IpHitlist, u.topology(), t0, 1);
        let t6 = u.snapshot(6, Protocol::Http);
        let tass6 = tass.evaluate(t6, 6, announced).hitrate;
        let hit6 = hit.evaluate(t6, 6, announced).hitrate;
        assert!(
            tass6 > hit6 + 0.05,
            "paper's core claim: TASS {tass6} must hold up much better than hitlist {hit6}"
        );
        assert!(
            tass6 > 0.9,
            "TASS l-view phi=1 should stay above 0.9 over 6 months"
        );
    }

    #[test]
    fn random_prefix_worse_than_tass_at_same_budget() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let announced = u.topology().announced_space();
        let tass = freeze(
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            u.topology(),
            t0,
            1,
        );
        let budget = tass.space_fraction(announced);
        let rand = freeze(
            StrategyKind::RandomPrefix {
                view: ViewKind::MoreSpecific,
                space_fraction: budget,
            },
            u.topology(),
            t0,
            99,
        );
        let e_tass = tass.evaluate(t0, 0, announced);
        let e_rand = rand.evaluate(t0, 0, announced);
        assert!(
            e_tass.hitrate > e_rand.hitrate + 0.2,
            "density ranking must beat random prefixes: {} vs {}",
            e_tass.hitrate,
            e_rand.hitrate
        );
    }

    #[test]
    fn block24_panel_respects_budget_and_mix() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let plan = freeze(
            StrategyKind::Block24Sample { fraction: 0.01 },
            u.topology(),
            t0,
            5,
        );
        let announced = u.topology().announced_space();
        let frac = plan.probe_count(announced) as f64 / announced as f64;
        assert!(
            (0.004..0.02).contains(&frac),
            "panel covers {frac}, wanted ≈ 0.01"
        );
        // the panel includes some responsive blocks, so it finds some hosts
        let e = plan.evaluate(t0, 0, announced);
        assert!(e.found > 0);
        assert!(e.hitrate < 0.9, "a 1% panel cannot cover most hosts");
    }

    #[test]
    fn random_sample_efficiency_matches_density() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let plan = freeze(
            StrategyKind::RandomSample { fraction: 0.05 },
            u.topology(),
            t0,
            5,
        );
        let e = plan.evaluate(t0, 0, u.topology().announced_space());
        // expected hitrate of a uniform sample ≈ sample fraction
        assert!(
            (0.02..0.09).contains(&e.hitrate),
            "sample hitrate {} should be near its 5% coverage",
            e.hitrate
        );
    }

    #[test]
    fn labels_are_distinct() {
        let kinds = [
            StrategyKind::FullScan,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 1.0,
            },
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.01 },
            StrategyKind::Block24Sample { fraction: 0.01 },
            StrategyKind::RandomPrefix {
                view: ViewKind::LessSpecific,
                space_fraction: 0.1,
            },
            StrategyKind::ReseedingTass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
                delta_t: 3,
            },
            StrategyKind::ReseedingTass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
                delta_t: ReseedingTass::NEVER,
            },
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
        ];
        let labels: std::collections::BTreeSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn trait_prepare_matches_static_prepared() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let kind = StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        };
        let mut prepared = kind.prepare(u.topology(), t0, 1);
        let mut boxed = kind.strategy().prepare(u.topology(), t0, 1);
        let frozen = prepared.plan(0);
        let selection = prepared.selection().unwrap().clone();
        assert!(!prepared.wants_feedback(), "static kinds skip feedback");
        // a static kind replans its t₀ plan, bit for bit, every cycle
        for cycle in 0..=6 {
            assert_eq!(prepared.plan(cycle), frozen);
            assert_eq!(boxed.plan(cycle), frozen);
        }
        assert_eq!(
            frozen,
            ProbePlan::Prefixes(selection.sorted_prefixes()),
            "TASS probes its selection"
        );
        assert_eq!(boxed.selection().unwrap().prefixes, selection.prefixes);
        assert_eq!(kind.strategy().label(), kind.label());
    }

    #[test]
    fn reseeding_plans_full_scan_on_schedule() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let strat = ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 3,
        };
        let mut prepared = strat.prepare(u.topology(), t0, 1);
        for cycle in 0..=6u32 {
            let plan = prepared.plan(cycle);
            if cycle > 0 && cycle % 3 == 0 {
                assert_eq!(plan, ProbePlan::All, "cycle {cycle} must re-seed");
            } else {
                assert!(
                    matches!(plan, ProbePlan::Prefixes(_)),
                    "cycle {cycle} scans the selection"
                );
            }
            let truth = tass_model::GroundTruth::snapshot(&u, cycle, Protocol::Http);
            let outcome = CycleOutcome {
                cycle,
                probes: plan.probe_count(u.topology().announced_space()),
                responsive: plan.observed(&truth, cycle, u.topology().announced_space()),
            };
            prepared.observe(cycle, &outcome);
        }
    }

    /// Every registry kind, at each view and φ for the kinds that have
    /// them.
    fn registry_lanes() -> Vec<StrategyKind> {
        let mut lanes = vec![
            StrategyKind::FullScan,
            StrategyKind::IpHitlist,
            StrategyKind::RandomSample { fraction: 0.02 },
            StrategyKind::Block24Sample { fraction: 0.01 },
        ];
        for view in [ViewKind::LessSpecific, ViewKind::MoreSpecific] {
            lanes.push(StrategyKind::RandomPrefix {
                view,
                space_fraction: 0.1,
            });
            for phi in [0.5, 0.95, 1.0] {
                lanes.extend([
                    StrategyKind::Tass { view, phi },
                    StrategyKind::ReseedingTass {
                        view,
                        phi,
                        delta_t: 2,
                    },
                    StrategyKind::AdaptiveTass {
                        view,
                        phi,
                        explore: 0.05,
                    },
                ]);
            }
        }
        lanes
    }

    /// The selection and the plans of cycles 0..=3, each cycle's outcome
    /// fed back.
    fn lifecycle(
        mut prepared: Box<dyn PreparedStrategy>,
        u: &Universe,
    ) -> (String, Vec<ProbePlan>) {
        let selection = format!("{:?}", prepared.selection());
        let announced = u.topology().announced_space();
        let plans = (0..=3)
            .map(|m| {
                let plan = prepared.plan(m);
                let truth = tass_model::GroundTruth::snapshot(u, m, Protocol::Http);
                let outcome = CycleOutcome {
                    cycle: m,
                    probes: plan.probe_count(announced),
                    responsive: plan.observed(&truth, m, announced),
                };
                prepared.observe(m, &outcome);
                plan
            })
            .collect();
        (selection, plans)
    }

    #[test]
    fn prepare_in_on_a_shared_memo_matches_a_fresh_prepare() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let lanes = registry_lanes();
        let fresh: Vec<_> = lanes
            .iter()
            .map(|kind| lifecycle(kind.prepare(u.topology(), t0, 3), &u))
            .collect();
        for reversed in [false, true] {
            let mut order: Vec<usize> = (0..lanes.len()).collect();
            if reversed {
                order.reverse();
            }
            let mut memo = UnitSeed::default();
            for i in order {
                let prepared = lanes[i].prepare_in(u.topology(), t0, 3, &mut memo);
                assert_eq!(
                    lifecycle(prepared, &u),
                    fresh[i],
                    "{:?}, reversed {reversed}",
                    lanes[i]
                );
            }
            // one sweep per view, one selection per (view, φ)
            assert_eq!((memo.sweeps, memo.selections.len()), (2, 6));
        }
    }

    #[test]
    fn a_three_lane_m_view_unit_sweeps_t0_once() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let view = ViewKind::MoreSpecific;
        let unit = [
            StrategyKind::Tass { view, phi: 0.95 },
            StrategyKind::ReseedingTass {
                view,
                phi: 0.95,
                delta_t: 3,
            },
            StrategyKind::AdaptiveTass {
                view,
                phi: 0.95,
                explore: 0.02,
            },
        ];
        let mut memo = UnitSeed::default();
        for kind in unit {
            kind.prepare_in(u.topology(), t0, 1, &mut memo);
        }
        assert_eq!(
            memo.sweeps, 1,
            "one t₀ sweep for the unit, not one per lane"
        );
        assert_eq!(memo.selections.len(), 1, "one φ = 0.95 selection");
    }

    #[test]
    fn adaptive_explores_beyond_selection() {
        let u = small_universe();
        let t0 = u.snapshot(0, Protocol::Http);
        let strat = AdaptiveTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            explore: 0.1,
        };
        let mut prepared = strat.prepare(u.topology(), t0, 1);
        let announced = u.topology().announced_space();
        let static_probes = freeze(
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            u.topology(),
            t0,
            1,
        )
        .probe_count(announced);
        let plan = prepared.plan(0);
        let probes = plan.probe_count(announced);
        assert!(probes > static_probes, "exploration adds probes");
        assert!(
            probes < announced,
            "but stays far below a full scan: {probes} vs {announced}"
        );
    }
}
