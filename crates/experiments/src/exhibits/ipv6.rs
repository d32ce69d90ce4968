//! Beyond the paper: the machinery opened onto IPv6.
//!
//! Nothing in TASS is v4-specific — and v6 is where its idea stops being
//! an optimisation and becomes the *only* option: the seeded announced
//! space here is 2⁸⁰⁺ addresses, so a uniform random sample's hitrate is
//! indistinguishable from zero while the density-ranked block selection
//! tracks the population through churn. This exhibit runs a
//! hitlist-seeded IPv6 campaign over a synthetic sparse v6 universe
//! (seeded /48–/64 operator prefixes with dense host blocks):
//!
//! * `v6-hitlist` — re-probe the t₀ addresses (decays with churn);
//! * `v6-block-tass` — attribute the hitlist to /116 blocks, rank by
//!   density, select φ = 0.95, re-rank from each cycle's responses;
//! * `v6-fresh-sample` — a uniform sample of the seeded space at the
//!   *same* probe budget as block-TASS (collapses to ≈ 0).
//!
//! The campaign also runs **end to end through the packet-level
//! engine at wire level**: cycle 0 of the block-TASS plan is executed by
//! `ScanEngine::<V6>::run_plan`, streaming shards of `ProbePlan<V6>`
//! as encoded, checksum-validated Ethernet/IPv6/TCP frames with the v6
//! IANA blocklist enforced, and the report's responsive set must agree
//! with the analytic evaluation.

use crate::table::{f3, thousands, TextTable};
use crate::{ExhibitOutput, Scenario};
use std::sync::Arc;
use tass_core::campaign::run_campaign_strategy;
use tass_core::strategy::{Strategy, V6BlockTass, V6FreshSample, V6Hitlist};
use tass_model::{V6Universe, V6UniverseConfig};
use tass_net::V6;
use tass_scan::{Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Block granularity of the v6 selection (matches the universe model).
const BLOCK_LEN: u8 = 116;

/// Run the exhibit.
pub fn run(s: &Scenario) -> ExhibitOutput {
    let universe = V6Universe::generate(&V6UniverseConfig {
        seed: s.config.seed,
        months: s.config.months,
        ..V6UniverseConfig::default()
    });
    let announced = universe.space().announced_space();
    let t0 = universe.snapshot(0);

    // size the fresh sample to block-TASS's probe budget so the collapse
    // is a like-for-like comparison
    let tass = V6BlockTass {
        phi: 0.95,
        block_len: BLOCK_LEN,
    };
    let tass_budget = {
        let mut prepared = tass.prepare(universe.space(), t0, s.config.seed);
        prepared.plan(0).evaluate(t0, 0, announced).probes
    };

    let strategies: Vec<(&'static str, Box<dyn Strategy<V6>>)> = vec![
        ("v6-hitlist", Box::new(V6Hitlist)),
        ("v6-block-tass (phi=0.95)", Box::new(tass)),
        (
            "v6-fresh-sample (same budget)",
            Box::new(V6FreshSample {
                per_cycle: tass_budget,
            }),
        ),
    ];

    let mut t = TextTable::new(["strategy", "probes/cycle", "hit@0", "hit@3", "hit@6"]);
    let mut csv = TextTable::new(["strategy", "month", "hitrate", "probes"]);
    for (name, strategy) in &strategies {
        let r = run_campaign_strategy(&universe, strategy.as_ref(), t0.protocol, s.config.seed);
        for m in &r.months {
            csv.row([
                name.to_string(),
                m.month.to_string(),
                format!("{:.5}", m.eval.hitrate),
                m.eval.probes.to_string(),
            ]);
        }
        t.row([
            name.to_string(),
            thousands(r.probes_per_cycle),
            f3(r.hitrate(0)),
            f3(r.hitrate(3)),
            f3(r.final_hitrate()),
        ]);
    }

    // --- end-to-end: cycle 0 of block-TASS through the packet engine,
    // at wire level with the v6 IANA blocklist enforced ---
    let responder: Responder<V6> = Responder::new().with_service(t0.protocol, t0.hosts.clone());
    let engine: ScanEngine<V6> = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let plan = tass.prepare(universe.space(), t0, s.config.seed).plan(0);
    let cfg = ScanConfig::for_port(t0.protocol.port())
        .unlimited_rate()
        .threads(4)
        .blocklist(Blocklist::iana_default())
        .wire_level(true);
    let report = engine
        .run_plan(&plan, 0, universe.space().announced(), &cfg)
        .expect("block-TASS plans dense sub-prefixes");
    let eval = plan.evaluate(t0, 0, announced);
    let engine_line = format!(
        "engine check (wire level): ScanEngine::<V6>::run_plan sent {} encoded v6 frames, \
         found {} of {} hosts (hitrate vs full scan {:.3}; analytic evaluation found {}; \
         validation failures {})",
        thousands(report.probes_sent),
        thousands(report.responsive.len() as u64),
        thousands(t0.len() as u64),
        report.responsive.len() as f64 / t0.len().max(1) as f64,
        thousands(eval.found),
        report.validation_failures,
    );

    let text = format!(
        "IPv6 hitlist-seeded campaign over a sparse seeded universe\n\
         announced space: {} seeded prefixes, 2^{:.1} addresses; t0 hosts: {}\n\n{}\n\n{}\n",
        universe.space().announced().len(),
        (announced as f64).log2(),
        thousands(t0.len() as u64),
        t.render(),
        engine_line,
    );
    ExhibitOutput {
        id: "ipv6",
        title: "IPv6: hitlist-seeded topology-aware scanning (beyond the paper)",
        text,
        csv: vec![("ipv6_campaign".to_string(), csv.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    #[test]
    fn exhibit_runs_and_shows_the_v6_story() {
        let s = Scenario::build(&ScenarioConfig::small(11));
        let out = run(&s);
        assert_eq!(out.id, "ipv6");
        assert!(out.text.contains("v6-block-tass"));
        assert!(!out.csv.is_empty());
        // the qualitative story: block-TASS holds a high hitrate at a
        // tiny probe budget; the fresh sample collapses
        let tass_rows: Vec<&str> = out
            .text
            .lines()
            .filter(|l| l.contains("v6-block-tass"))
            .collect();
        assert_eq!(tass_rows.len(), 1);
    }
}
