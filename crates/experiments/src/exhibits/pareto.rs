//! The probe-budget Pareto frontier of the feedback strategies.
//!
//! The ROADMAP's "adaptive strategy science" question: for a scanning
//! project choosing between the paper's literal Δt re-seeding loop and
//! the feedback-only adaptive loop, what does each point of the
//! parameter grid *buy* (month-6 hitrate) and *cost* (average probes per
//! cycle, as a fraction of a monthly full scan)? This exhibit sweeps a
//! small Δt × explore grid and emits the frontier as a table, with
//! frozen TASS and the periodic full scan as the two anchor points —
//! every useful configuration lies between them.

use crate::table::{f3, TextTable};
use crate::{ExhibitOutput, Scenario};
use tass_bgp::ViewKind;
use tass_core::campaign::CampaignPool;
use tass_core::strategy::StrategyKind;
use tass_model::Protocol;

/// Re-seed periods swept for `ReseedingTass`.
pub const DELTA_TS: [u32; 3] = [2, 3, 6];
/// Exploration budgets swept for `AdaptiveTass`.
pub const EXPLORES: [f64; 3] = [0.05, 0.1, 0.2];

/// The full grid at one (view, φ): anchors + both feedback families.
pub fn grid(view: ViewKind, phi: f64) -> Vec<StrategyKind> {
    let mut kinds = vec![StrategyKind::Tass { view, phi }, StrategyKind::FullScan];
    kinds.extend(DELTA_TS.iter().map(|&delta_t| StrategyKind::ReseedingTass {
        view,
        phi,
        delta_t,
    }));
    kinds.extend(
        EXPLORES
            .iter()
            .map(|&explore| StrategyKind::AdaptiveTass { view, phi, explore }),
    );
    kinds
}

/// Run the exhibit.
pub fn run(s: &Scenario) -> ExhibitOutput {
    let view = ViewKind::MoreSpecific;
    let phi = 0.95;
    let announced = s.universe.topology().announced_space() as f64;
    let kinds = grid(view, phi);

    let mut t = TextTable::new([
        "protocol",
        "strategy",
        "hit@6",
        "avg probes/cycle",
        "probes/full",
        "hit per Mprobe",
    ]);
    let mut csv = TextTable::new([
        "protocol",
        "strategy",
        "final_hitrate",
        "avg_probes_per_cycle",
        "probe_fraction",
    ]);

    let jobs: Vec<(StrategyKind, Protocol)> = [Protocol::Http, Protocol::Cwmp]
        .iter()
        .flat_map(|&proto| kinds.iter().map(move |&kind| (kind, proto)))
        .collect();
    let results = CampaignPool::from_env().run_campaigns(&s.universe, &jobs, s.config.seed);

    for r in &results {
        let probes = r.avg_probes_per_cycle();
        let fraction = probes / announced.max(1.0);
        t.row([
            r.protocol.name().to_string(),
            r.strategy.clone(),
            f3(r.final_hitrate()),
            format!("{probes:.0}"),
            f3(fraction),
            f3(r.final_hitrate() / (probes / 1e6).max(1e-12)),
        ]);
        csv.row([
            r.protocol.name().to_string(),
            r.strategy.clone(),
            format!("{:.5}", r.final_hitrate()),
            format!("{probes:.1}"),
            format!("{fraction:.5}"),
        ]);
    }

    let text = format!(
        "Probe-budget Pareto frontier: hitrate bought vs probes spent\n\
         (m-prefixes, phi = {phi}; Delta-t in {DELTA_TS:?}, explore in {EXPLORES:?};\n\
         anchors: frozen TASS = cheapest, full scan = hitrate 1.0)\n\n{}\n\
         Reading: smaller Delta-t re-seeds more often — hitrate and probe cost\n\
         both rise toward the full-scan anchor. Larger explore budgets track\n\
         churn more closely at proportionally higher per-cycle cost. Points\n\
         with lower hit-per-Mprobe than a neighbour are Pareto-dominated.\n",
        t.render()
    );
    ExhibitOutput {
        id: "pareto",
        title: "Probe-budget Pareto frontier of feedback strategies (beyond the paper)",
        text,
        csv: vec![("pareto".into(), csv.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;
    use tass_core::campaign::run_campaign;
    use tass_core::Strategy;

    #[test]
    fn grid_spans_anchors_and_both_families() {
        let kinds = grid(ViewKind::MoreSpecific, 0.95);
        assert_eq!(kinds.len(), 2 + DELTA_TS.len() + EXPLORES.len());
        let labels: std::collections::BTreeSet<String> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len(), "labels distinct");
    }

    #[test]
    fn frontier_orders_as_expected() {
        // more frequent re-seeding costs more probes and buys hitrate
        let s = Scenario::build(&ScenarioConfig::small(19));
        let view = ViewKind::MoreSpecific;
        let run_dt = |delta_t| {
            run_campaign(
                &s.universe,
                StrategyKind::ReseedingTass {
                    view,
                    phi: 0.95,
                    delta_t,
                },
                Protocol::Http,
                19,
            )
        };
        let fast = run_dt(2);
        let slow = run_dt(6);
        assert!(fast.avg_probes_per_cycle() > slow.avg_probes_per_cycle());
        assert!(fast.final_hitrate() >= slow.final_hitrate() - 0.02);
        // and every grid point stays below the full-scan cost anchor
        let announced = s.universe.topology().announced_space() as f64;
        for kind in grid(view, 0.95) {
            if matches!(kind, StrategyKind::FullScan) {
                continue;
            }
            let r = run_campaign(&s.universe, kind, Protocol::Http, 19);
            assert!(
                r.avg_probes_per_cycle() < announced,
                "{}: cost must stay below a monthly full scan",
                r.strategy
            );
        }
    }

    #[test]
    fn exhibit_renders() {
        let s = Scenario::build(&ScenarioConfig::small(19));
        let out = run(&s);
        assert_eq!(out.id, "pareto");
        assert!(out.text.contains("reseeding-tass"));
        assert!(out.text.contains("adaptive-tass"));
        assert_eq!(out.csv.len(), 1);
        // 2 protocols x (2 anchors + 3 + 3)
        assert_eq!(out.csv[0].1.lines().count(), 1 + 16);
    }
}
