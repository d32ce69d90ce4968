//! End-to-end scanner validation.
//!
//! The paper's pipeline starts with a real scanner; ours is simulated, so
//! this exhibit closes the loop: run the packet-level scan engine over the
//! TASS-selected prefixes of a protocol and verify that what the scanner
//! reports matches the ground truth the strategies were evaluated on —
//! plus the probe accounting that justifies the traffic-reduction claims.

use crate::table::{f3, pct, thousands, TextTable};
use crate::{ExhibitOutput, Scenario};
use std::sync::Arc;

use tass_core::density::rank_units;
use tass_core::plan::ProbePlan;
use tass_core::select::select_prefixes;
use tass_model::Protocol;
use tass_scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Run the exhibit.
pub fn run(s: &Scenario) -> ExhibitOutput {
    let proto = Protocol::Ftp;
    let topo = s.universe.topology();
    let t0 = s.universe.snapshot(0, proto);

    // TASS selection at phi = 0.95 on the m-view, capped to a probe budget
    // so the packet-level engine stays fast at any scenario scale (the
    // validation property — engine == ground truth — is budget-invariant).
    let rank = rank_units(&topo.m_view, &t0.hosts);
    let sel = select_prefixes(&rank, 0.95);
    let mut targets = Vec::new();
    let mut budget = 0u64;
    for p in sel.sorted_prefixes() {
        if budget + p.size() > 4_000_000 {
            continue;
        }
        budget += p.size();
        targets.push(p);
    }

    let responder = Responder::new().with_service(proto, t0.hosts.clone());
    let network = Arc::new(SimNetwork::new(
        responder,
        FaultConfig::default(),
        s.config.seed,
    ));
    let engine = ScanEngine::new(network);

    let cfg = ScanConfig::for_port(proto.port())
        .rate(10_000_000.0)
        .threads(4)
        .blocklist(Blocklist::iana_default())
        .banner_grab(true)
        .wire_level(false); // logical probes: full space at campaign scale
    let report = engine
        .run_plan(&ProbePlan::Prefixes(targets.clone()), 0, &[], &cfg)
        .expect("v4 prefix plans always stream");

    // ground truth inside the scanned prefixes
    let expected: u64 = targets
        .iter()
        .map(|p| t0.hosts.count_in_prefix(*p) as u64)
        .sum();

    let mut t = TextTable::new(["quantity", "value"]);
    t.row(["protocol".to_string(), proto.name().to_string()]);
    t.row([
        "selected prefixes (phi=0.95, m-view)".to_string(),
        thousands(sel.k as u64),
    ]);
    t.row([
        "  of which scanned under probe budget".to_string(),
        thousands(targets.len() as u64),
    ]);
    t.row(["probes sent".to_string(), thousands(report.probes_sent)]);
    t.row([
        "selection-wide probes per cycle".to_string(),
        thousands(sel.selected_space),
    ]);
    t.row([
        "traffic reduction vs full scan".to_string(),
        pct(1.0 - sel.selected_space as f64 / topo.announced_space() as f64),
    ]);
    t.row([
        "responsive found by engine".to_string(),
        thousands(report.responsive.len() as u64),
    ]);
    t.row(["ground truth in selection".to_string(), thousands(expected)]);
    t.row([
        "banners grabbed".to_string(),
        thousands(report.banners_grabbed),
    ]);
    t.row(["engine hitrate".to_string(), f3(report.hitrate)]);
    t.row([
        "simulated duration (s)".to_string(),
        format!("{:.1}", report.duration_secs),
    ]);

    let agree = report.responsive.len() as u64 == expected;
    let text = format!(
        "Scanner-in-the-loop validation (FTP, TASS phi=0.95 selection)\n\n{}\n\
         Engine results {} ground truth. Sample banner: {}\n",
        t.render(),
        if agree {
            "exactly match"
        } else {
            "DIVERGE FROM"
        },
        report
            .sample_banners
            .first()
            .map(|(a, b)| format!("{} -> {b:?}", tass_net::addr::fmt_addr(*a)))
            .unwrap_or_else(|| "(none)".into())
    );
    ExhibitOutput {
        id: "scan_validation",
        title: "Packet-level scan engine vs ground truth",
        text,
        csv: vec![("scan_validation".into(), t.to_csv())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioConfig;

    #[test]
    fn engine_matches_ground_truth() {
        let s = Scenario::build(&ScenarioConfig::small(3));
        let out = run(&s);
        assert!(
            out.text.contains("exactly match"),
            "engine must agree with ground truth:\n{}",
            out.text
        );
        assert!(out.text.contains("traffic reduction"));
    }
}
