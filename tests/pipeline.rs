//! End-to-end pipeline integration: generate → scan → select → campaign.
//!
//! These tests exercise the full chain across crates the way the paper's
//! measurement pipeline would: synthesize the Internet, perform the
//! seeding scan with the packet-level engine, feed its output (not the
//! ground truth!) into TASS selection, and evaluate the resulting
//! selection across the six-month horizon.

use std::sync::Arc;
use tass::bgp::ViewKind;
use tass::core::density::rank_units;
use tass::core::plan::ProbePlan;
use tass::core::select::select_prefixes;
use tass::core::strategy::{Strategy, StrategyKind};
use tass::model::{Protocol, Universe, UniverseConfig};
use tass::scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

fn universe() -> Universe {
    let mut cfg = UniverseConfig::small(0xE2E);
    // keep announced space modest so the engine's full-space seeding scans
    // stay fast in debug builds
    cfg.synth.l_prefix_count = 150;
    Universe::generate(&cfg)
}

#[test]
fn scan_seeded_tass_matches_truth_seeded_tass() {
    let u = universe();
    let topo = u.topology();
    let proto = Protocol::Http;
    let t0 = u.snapshot(0, proto);

    // Seeding scan over the whole announced space with the real engine
    // (logical probes for speed; perfect network) — driven by the typed
    // probe plan, exactly as a strategy's re-seed cycle would be.
    let responder = Responder::new().with_service(proto, t0.hosts.clone());
    let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let announced: Vec<_> = topo.l_view.units().iter().map(|un| un.prefix).collect();
    let cfg = ScanConfig::for_port(proto.port())
        .unlimited_rate()
        .threads(8)
        .blocklist(Blocklist::empty())
        .wire_level(false);
    let report = engine
        .run_plan(&ProbePlan::All, 0, &announced, &cfg)
        .unwrap();

    // The engine's scan result must equal the ground truth…
    assert_eq!(
        report.responsive, t0.hosts,
        "lossless scan must find exactly the truth"
    );
    assert_eq!(report.probes_sent, topo.announced_space());

    // …and therefore produce the identical TASS selection.
    let rank_scan = rank_units(&topo.m_view, &report.responsive);
    let rank_truth = rank_units(&topo.m_view, &t0.hosts);
    let sel_scan = select_prefixes(&rank_scan, 0.95);
    let sel_truth = select_prefixes(&rank_truth, 0.95);
    assert_eq!(sel_scan.prefixes, sel_truth.prefixes);
    assert_eq!(sel_scan.selected_space, sel_truth.selected_space);
}

#[test]
fn lossy_seeding_scan_still_yields_a_good_selection() {
    let u = universe();
    let topo = u.topology();
    let proto = Protocol::Https;
    let t0 = u.snapshot(0, proto);

    let responder = Responder::new().with_service(proto, t0.hosts.clone());
    let engine = ScanEngine::new(Arc::new(SimNetwork::new(
        responder,
        FaultConfig {
            probe_loss: 0.05,
            response_loss: 0.03,
            duplicate: 0.02,
            latency_ms: 30.0,
        },
        0xBAD,
    )));
    let targets: Vec<_> = topo.l_view.units().iter().map(|un| un.prefix).collect();
    let cfg = ScanConfig::for_port(proto.port())
        .unlimited_rate()
        .threads(8)
        .blocklist(Blocklist::empty())
        .wire_level(false);
    let report = engine
        .run_plan(&ProbePlan::Prefixes(targets), 0, &[], &cfg)
        .unwrap();

    // ~8% of hosts lost to the network…
    let found_frac = report.responsive.len() as f64 / t0.len() as f64;
    assert!(found_frac > 0.85 && found_frac < 1.0, "found {found_frac}");

    // …but the φ=0.95 selection built from the lossy scan still covers
    // almost the same ground truth as the ideal selection.
    let sel = select_prefixes(&rank_units(&topo.m_view, &report.responsive), 0.95);
    let covered: u64 = sel
        .sorted_prefixes()
        .iter()
        .map(|p| t0.hosts.count_in_prefix(*p) as u64)
        .sum();
    let coverage = covered as f64 / t0.len() as f64;
    assert!(
        coverage > 0.9,
        "selection from a lossy seed scan should still cover >90% of truth, got {coverage}"
    );
}

#[test]
fn full_matrix_hitrates_ordered_and_bounded() {
    let u = universe();
    let announced = u.topology().announced_space();
    for proto in Protocol::ALL {
        let t0 = u.snapshot(0, proto);
        let strategies = [
            StrategyKind::FullScan,
            StrategyKind::Tass {
                view: ViewKind::LessSpecific,
                phi: 1.0,
            },
            StrategyKind::Tass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
            },
            StrategyKind::IpHitlist,
        ];
        // each static strategy frozen at t₀: its cycle-0 plan
        let plans: Vec<ProbePlan> = strategies
            .iter()
            .map(|k| k.prepare(u.topology(), t0, 7).plan(0))
            .collect();
        for month in 0..=u.months() {
            let truth = u.snapshot(month, proto);
            let evals: Vec<_> = plans
                .iter()
                .map(|p| p.evaluate(truth, month, announced))
                .collect();
            for e in &evals {
                assert!(e.hitrate >= 0.0 && e.hitrate <= 1.0);
                assert!(e.found <= e.total);
            }
            // full scan dominates everything
            for e in &evals[1..] {
                assert!(evals[0].hitrate >= e.hitrate);
            }
        }
        // probe ordering: full > tass(l,1) > tass(m,.95) > hitlist
        let probes: Vec<u64> = plans.iter().map(|p| p.probe_count(announced)).collect();
        assert!(probes[0] > probes[1]);
        assert!(probes[1] > probes[2]);
        assert!(probes[2] > probes[3]);
    }
}

#[test]
fn headline_claim_traffic_cut_vs_coverage_loss() {
    // Abstract: "reduce scan traffic between 25-90% and miss only 1-10% of
    // the hosts, depending on desired trade-offs and protocols."
    let u = universe();
    let announced = u.topology().announced_space();
    for proto in Protocol::ALL {
        let t0 = u.snapshot(0, proto);
        let plan = StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        }
        .prepare(u.topology(), t0, 7)
        .plan(0);
        let cut = 1.0 - plan.space_fraction(announced);
        assert!(
            (0.25..=0.99).contains(&cut),
            "{proto}: traffic cut {cut} outside the paper's 25-90%+ band"
        );
        let final_eval = plan.evaluate(u.snapshot(6, proto), 6, announced);
        let miss = 1.0 - final_eval.hitrate;
        assert!(
            miss <= 0.15,
            "{proto}: missing {miss} of hosts after 6 months, paper bands 1-10%"
        );
    }
}

#[test]
fn determinism_across_identical_runs() {
    let a = universe();
    let b = universe();
    for proto in Protocol::ALL {
        for month in [0u32, 3, 6] {
            assert_eq!(
                a.snapshot(month, proto).hosts,
                b.snapshot(month, proto).hosts,
                "{proto} month {month} must be reproducible"
            );
        }
    }
    // and the selection pipeline is deterministic too
    let t0 = a.snapshot(0, Protocol::Ftp);
    let s1 = select_prefixes(&rank_units(&a.topology().m_view, &t0.hosts), 0.95);
    let s2 = select_prefixes(&rank_units(&b.topology().m_view, &t0.hosts), 0.95);
    assert_eq!(s1.prefixes, s2.prefixes);
}
