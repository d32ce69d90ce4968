//! Writing your own scanning strategy against the trait lifecycle.
//!
//! The strategy layer is open: implement [`Strategy`] (how to seed from
//! the t₀ full scan) and [`PreparedStrategy`] (what to probe each cycle,
//! and how to react to what the probes found), and the campaign driver,
//! exhibits, and packet-level engine all accept it.
//!
//! This example builds a *decaying-density* strategy from scratch: it
//! keeps an exponentially-weighted density estimate per scan unit,
//! re-selects the φ-coverage prefix set every cycle from those estimates,
//! refreshes the estimate of every unit it scanned from the cycle's own
//! responses, and decays the rest. It then races the built-ins over the
//! six-month horizon — and loses coverage to them, instructively: with
//! decay but *no exploration budget* the selection can only shrink, so
//! the strategy drifts toward high efficiency at falling hitrate (compare
//! `StrategyKind::AdaptiveTass`, whose rotating exploration re-discovers
//! churned units).
//!
//! Run with: `cargo run --release --example adaptive_strategy`

use std::sync::Arc;
use tass::bgp::{View, ViewKind};
use tass::core::campaign::run_campaign_strategy;
use tass::core::plan::{CycleOutcome, ProbePlan};
use tass::core::strategy::{PreparedStrategy, Strategy, StrategyKind};
use tass::core::{rank_from_counts, rank_units, select_prefixes, Selection};
use tass::model::{Protocol, Snapshot, Topology, Universe, UniverseConfig};

/// A user-defined strategy: TASS re-selection over exponentially decayed
/// density estimates.
#[derive(Debug)]
struct EwmaTass {
    /// Host-coverage target φ.
    phi: f64,
    /// Weight of the newest observation in the running estimate.
    alpha: f64,
}

#[derive(Debug)]
struct EwmaTassPrepared {
    view: Arc<View>,
    phi: f64,
    alpha: f64,
    /// Exponentially-weighted responsive-count estimate per scan unit.
    estimates: Vec<f64>,
    selection: Selection,
    last_prefixes: Vec<tass::net::Prefix>,
}

impl Strategy for EwmaTass {
    fn label(&self) -> String {
        format!("ewma-tass-phi{}-a{}", self.phi, self.alpha)
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        // seed the estimates from the t₀ full scan (steps 1–2 of §3.1)
        // the topology's view is shared, not copied
        let view = Arc::clone(&topo.m_view);
        let (counts, _) = view.attribute_all(&t0.hosts.to_vec());
        let estimates: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let rank = rank_units(&view, &t0.hosts);
        let selection = select_prefixes(&rank, self.phi);
        let last_prefixes = selection.sorted_prefixes();
        Box::new(EwmaTassPrepared {
            view,
            phi: self.phi,
            alpha: self.alpha,
            estimates,
            selection,
            last_prefixes,
        })
    }
}

impl PreparedStrategy for EwmaTassPrepared {
    fn plan(&mut self, _cycle: u32) -> ProbePlan {
        self.last_prefixes = self.selection.sorted_prefixes();
        ProbePlan::Prefixes(self.last_prefixes.clone())
    }

    fn observe(&mut self, _cycle: u32, outcome: &CycleOutcome) {
        // refresh the estimate of every unit we scanned from our own
        // responses (no full scan anywhere), decay the rest slightly so
        // long-unseen units eventually fall out of the ranking
        const STALE_DECAY: f64 = 0.85;
        for (i, unit) in self.view.units().iter().enumerate() {
            let scanned = self.last_prefixes.binary_search(&unit.prefix).is_ok();
            if scanned {
                let observed = outcome.responsive.count_in_prefix(unit.prefix) as f64;
                self.estimates[i] = (1.0 - self.alpha) * self.estimates[i] + self.alpha * observed;
            } else {
                self.estimates[i] *= STALE_DECAY;
            }
        }
        // re-run steps 3–4 over the estimates, through the same ranking
        // code path the built-in strategies use
        let counts: Vec<u64> = self.estimates.iter().map(|e| e.round() as u64).collect();
        let rank = rank_from_counts(&self.view, &counts);
        self.selection = select_prefixes(&rank, self.phi);
    }

    fn selection(&self) -> Option<&Selection> {
        Some(&self.selection)
    }
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2016u64);
    println!("generating universe (seed {seed})…\n");
    let universe = Universe::generate(&UniverseConfig::small(seed));
    let announced = universe.topology().announced_space();

    let proto = Protocol::Http;
    println!("=== {proto}: frozen vs feedback-driven, six monthly cycles ===");
    println!(
        "{:<36} {:>8} {:>8} {:>8} {:>14}",
        "strategy", "hit@1", "hit@3", "hit@6", "avg probes"
    );

    // built-ins from the registry: every `StrategyKind` is a `Strategy`…
    let view = ViewKind::MoreSpecific;
    let builtins = [
        StrategyKind::Tass { view, phi: 0.95 },
        StrategyKind::ReseedingTass {
            view,
            phi: 0.95,
            delta_t: 3,
        },
        StrategyKind::AdaptiveTass {
            view,
            phi: 0.95,
            explore: 0.1,
        },
    ];
    let mut results: Vec<_> = builtins
        .iter()
        .map(|k| run_campaign_strategy(&universe, k, proto, seed))
        .collect();

    // …so the user-defined one runs through the very same driver
    results.push(run_campaign_strategy(
        &universe,
        &EwmaTass {
            phi: 0.95,
            alpha: 0.7,
        },
        proto,
        seed,
    ));

    for r in &results {
        println!(
            "{:<36} {:>7.1}% {:>7.1}% {:>7.1}% {:>10.0} ({:>4.1}%)",
            r.strategy,
            100.0 * r.hitrate(1),
            100.0 * r.hitrate(3),
            100.0 * r.final_hitrate(),
            r.avg_probes_per_cycle(),
            100.0 * r.avg_probes_per_cycle() / announced as f64,
        );
    }
    println!("\n(a monthly full scan probes {announced} addresses per cycle at hitrate 1.0)");
}
