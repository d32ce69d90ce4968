//! The trait-based strategy lifecycle, end to end.
//!
//! Three things are proven here:
//!
//! 1. **Equivalence** — every seed strategy, run through the new
//!    `Strategy`/`PreparedStrategy`/`ProbePlan` lifecycle, produces
//!    campaign results identical to freezing its t₀ plan and evaluating
//!    that against every month (the paper's §4 semantics), including
//!    `ReseedingTass` with Δt = ∞ reproducing plain `Tass` exactly.
//! 2. **Adaptivity pays** — both feedback strategies beat the frozen
//!    baseline's month-6 hitrate in the default scenario while probing
//!    less space than a monthly full scan.
//! 3. **The engine speaks ProbePlan** — a user-defined strategy's whole
//!    lifecycle (plan → packet-level scan → observe) runs against the
//!    simulated network with real `ScanReport` feedback, no ground-truth
//!    shortcuts.
//! 4. **The plan contract** — every registry strategy's prefix plans are
//!    strictly ascending and pairwise disjoint in every cycle, and a
//!    selection's unit indices name exactly its prefixes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use tass::bgp::ViewKind;
use tass::core::campaign::{run_campaign, run_campaign_strategy};
use tass::core::plan::{CycleOutcome, ProbePlan};
use tass::core::strategy::{PreparedStrategy, ReseedingTass, Strategy, StrategyKind};
use tass::core::{rank_units, select_prefixes_budgeted, DensityCounts, Selection};
use tass::model::{HostSet, Protocol, Snapshot, Topology, Universe, UniverseConfig};
use tass::scan::{Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

fn universe() -> Universe {
    let mut cfg = UniverseConfig::small(0x11FE);
    cfg.synth.l_prefix_count = 150;
    Universe::generate(&cfg)
}

/// Every seed strategy kind, with the parameters the exhibits use.
fn seed_kinds() -> Vec<StrategyKind> {
    vec![
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
        StrategyKind::RandomSample { fraction: 0.05 },
        StrategyKind::Block24Sample { fraction: 0.01 },
        StrategyKind::RandomPrefix {
            view: ViewKind::MoreSpecific,
            space_fraction: 0.2,
        },
    ]
}

#[test]
fn trait_lifecycle_equals_frozen_prepared_for_all_seed_strategies() {
    let u = universe();
    let announced = u.topology().announced_space();
    for kind in seed_kinds() {
        for proto in [Protocol::Http, Protocol::Cwmp] {
            // the lifecycle path: prepare → plan → evaluate → observe
            let lifecycle = run_campaign(&u, kind, proto, 7);
            // the frozen path: the t₀ plan, evaluated against each month
            let frozen = kind.prepare(u.topology(), u.snapshot(0, proto), 7).plan(0);
            assert_eq!(
                lifecycle.probes_per_cycle,
                frozen.probe_count(announced),
                "{kind:?}/{proto}: probe cost must match"
            );
            for m in 0..=u.months() {
                let reference = frozen.evaluate(u.snapshot(m, proto), m, announced);
                assert_eq!(
                    lifecycle.months[m as usize].eval, reference,
                    "{kind:?}/{proto} month {m}: evals must be byte-identical"
                );
            }
        }
    }
}

#[test]
fn reseeding_with_infinite_delta_t_is_plain_tass() {
    let u = universe();
    for proto in Protocol::ALL {
        for (view, phi) in [
            (ViewKind::LessSpecific, 1.0),
            (ViewKind::MoreSpecific, 0.95),
        ] {
            let plain = run_campaign(&u, StrategyKind::Tass { view, phi }, proto, 1);
            let never = run_campaign(
                &u,
                StrategyKind::ReseedingTass {
                    view,
                    phi,
                    delta_t: ReseedingTass::NEVER,
                },
                proto,
                1,
            );
            assert_eq!(plain.months, never.months, "{proto} {view} phi={phi}");
            assert_eq!(plain.probes_per_cycle, never.probes_per_cycle);
        }
    }
}

#[test]
fn feedback_strategies_beat_frozen_tass_under_budget() {
    let u = universe();
    let announced = u.topology().announced_space();
    let view = ViewKind::MoreSpecific;
    let phi = 0.95;
    for proto in Protocol::ALL {
        let frozen = run_campaign(&u, StrategyKind::Tass { view, phi }, proto, 7);
        let reseeding = run_campaign(
            &u,
            StrategyKind::ReseedingTass {
                view,
                phi,
                delta_t: 3,
            },
            proto,
            7,
        );
        let adaptive = run_campaign(
            &u,
            StrategyKind::AdaptiveTass {
                view,
                phi,
                explore: 0.1,
            },
            proto,
            7,
        );
        for r in [&reseeding, &adaptive] {
            assert!(
                r.final_hitrate() > frozen.final_hitrate(),
                "{proto}: {} month-6 hitrate {} must beat frozen {}",
                r.strategy,
                r.final_hitrate(),
                frozen.final_hitrate()
            );
            assert!(
                r.avg_probes_per_cycle() < announced as f64,
                "{proto}: {} must probe less than a monthly full scan",
                r.strategy
            );
        }
    }
}

/// A user-defined strategy written against the public traits only: probe
/// the t₀ hitlist, and every cycle drop addresses that went dark and
/// keep the rest — a trivially adaptive hitlist.
#[derive(Debug)]
struct ShrinkingHitlist;

#[derive(Debug)]
struct ShrinkingHitlistPrepared {
    current: HostSet,
}

impl Strategy for ShrinkingHitlist {
    fn label(&self) -> String {
        "shrinking-hitlist".into()
    }

    fn prepare(&self, _topo: &Topology, t0: &Snapshot, _seed: u64) -> Box<dyn PreparedStrategy> {
        Box::new(ShrinkingHitlistPrepared {
            current: t0.hosts.clone(),
        })
    }
}

impl PreparedStrategy for ShrinkingHitlistPrepared {
    fn plan(&mut self, _cycle: u32) -> ProbePlan {
        ProbePlan::Addrs(self.current.clone())
    }

    fn observe(&mut self, _cycle: u32, outcome: &CycleOutcome) {
        self.current = outcome.responsive.materialize();
    }

    fn selection(&self) -> Option<&Selection> {
        None
    }
}

#[test]
fn user_defined_strategy_runs_through_campaign() {
    let u = universe();
    let r = run_campaign_strategy(&u, &ShrinkingHitlist, Protocol::Cwmp, 1);
    assert_eq!(r.strategy, "shrinking-hitlist");
    assert_eq!(r.hitrate(0), 1.0);
    // the list only shrinks, so probe cost is monotonically non-increasing
    for w in r.months.windows(2) {
        assert!(w[1].eval.probes <= w[0].eval.probes);
    }
    // and it decays at least as fast as the static hitlist
    let static_hitlist = run_campaign(&u, StrategyKind::IpHitlist, Protocol::Cwmp, 1);
    assert!(r.final_hitrate() <= static_hitlist.final_hitrate() + 1e-12);
}

#[test]
fn lifecycle_drives_packet_engine_with_real_feedback() {
    // Close the loop against the simulated network: each cycle the plan
    // goes to ScanEngine::run_plan and the strategy observes the actual
    // ScanReport — exactly how a real deployment would drive it.
    let u = universe();
    let proto = Protocol::Http;
    let topo = u.topology();
    let announced: Vec<_> = topo.l_view.units().iter().map(|un| un.prefix).collect();
    let cfg = ScanConfig::for_port(proto.port())
        .unlimited_rate()
        .threads(4)
        .blocklist(Blocklist::empty())
        .wire_level(false);

    let mut prepared = ShrinkingHitlist.prepare(topo, u.snapshot(0, proto), 1);
    let mut last_responsive = 0usize;
    for cycle in 0..=2u32 {
        // the network this month: the ground-truth hosts answer
        let responder =
            Responder::new().with_service(proto, u.snapshot(cycle, proto).hosts.clone());
        let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));

        let plan = prepared.plan(cycle);
        let report = engine.run_plan(&plan, cycle, &announced, &cfg).unwrap();
        prepared.observe(
            cycle,
            &CycleOutcome {
                cycle,
                probes: report.probes_sent,
                responsive: report.responsive.clone().into(),
            },
        );
        last_responsive = report.responsive.len();
    }
    // after two observed cycles the hitlist equals the intersection of
    // months 0..=2 — every member still answered at cycle 2
    let survivors = prepared.plan(3);
    assert_eq!(survivors.probe_count(0), last_responsive as u64);
}

/// Every registry kind, each view-parameterised one on both views.
fn registry_kinds() -> Vec<StrategyKind> {
    let mut kinds = vec![
        StrategyKind::FullScan,
        StrategyKind::IpHitlist,
        StrategyKind::RandomSample { fraction: 0.05 },
        StrategyKind::Block24Sample { fraction: 0.01 },
    ];
    for view in [ViewKind::LessSpecific, ViewKind::MoreSpecific] {
        kinds.extend([
            StrategyKind::Tass { view, phi: 0.95 },
            StrategyKind::RandomPrefix {
                view,
                space_fraction: 0.2,
            },
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
            StrategyKind::AdaptiveTass {
                view,
                phi: 0.5,
                explore: 0.3,
            },
        ]);
    }
    kinds
}

/// A registry kind whose prepared lifecycle records every plan it emits.
#[derive(Debug)]
struct Recorded {
    kind: StrategyKind,
    plans: Rc<RefCell<Vec<ProbePlan>>>,
}

#[derive(Debug)]
struct RecordedPrepared {
    inner: Box<dyn PreparedStrategy>,
    plans: Rc<RefCell<Vec<ProbePlan>>>,
}

impl Strategy for Recorded {
    fn label(&self) -> String {
        self.kind.label()
    }

    fn prepare(&self, topo: &Topology, t0: &Snapshot, seed: u64) -> Box<dyn PreparedStrategy> {
        Box::new(RecordedPrepared {
            inner: self.kind.prepare(topo, t0, seed),
            plans: Rc::clone(&self.plans),
        })
    }
}

impl PreparedStrategy for RecordedPrepared {
    fn plan(&mut self, cycle: u32) -> ProbePlan {
        let plan = self.inner.plan(cycle);
        self.plans.borrow_mut().push(plan.clone());
        plan
    }

    fn observe(&mut self, cycle: u32, outcome: &CycleOutcome) {
        self.inner.observe(cycle, outcome);
    }

    fn wants_feedback(&self) -> bool {
        self.inner.wants_feedback()
    }

    fn selection(&self) -> Option<&Selection> {
        self.inner.selection()
    }
}

#[test]
fn every_prefix_plan_is_ascending_and_disjoint_in_every_cycle() {
    let u = universe();
    for kind in registry_kinds() {
        for proto in [Protocol::Http, Protocol::Cwmp] {
            let plans = Rc::new(RefCell::new(Vec::new()));
            let recorded = Recorded {
                kind,
                plans: Rc::clone(&plans),
            };
            let r = run_campaign_strategy(&u, &recorded, proto, 7);
            // the recording wrapper changes nothing the campaign reports
            assert_eq!(r, run_campaign(&u, kind, proto, 7), "{kind:?}/{proto}");
            let plans = plans.borrow();
            assert_eq!(plans.len(), u.months() as usize + 1);
            for (cycle, plan) in plans.iter().enumerate() {
                let ProbePlan::Prefixes(prefixes) = plan else {
                    continue;
                };
                for w in prefixes.windows(2) {
                    assert!(
                        w[0].last() < w[1].first(),
                        "{kind:?}/{proto} cycle {cycle}: {} then {}",
                        w[0],
                        w[1]
                    );
                }
            }
        }
    }
}

#[test]
fn selected_unit_indices_name_the_selected_prefixes_on_both_views() {
    let u = universe();
    let topo = u.topology();
    for view in [&topo.l_view, &topo.m_view] {
        for proto in [Protocol::Http, Protocol::Cwmp] {
            let hosts = &u.snapshot(3, proto).hosts;
            let full = rank_units(view, hosts);
            for phi in [0.0, 0.5, 0.95, 1.0] {
                let counts = DensityCounts::units(view, hosts);
                let (sel, units) = select_prefixes_budgeted(counts, phi);
                let ctx = format!("{:?} {proto} phi={phi}", view.kind());
                assert_eq!(units.len(), sel.k, "{ctx}");
                assert_eq!(sel.prefixes.len(), sel.k, "{ctx}");
                // one-to-one: each index names its prefix, none twice
                for (&unit, prefix) in units.iter().zip(&sel.prefixes) {
                    assert_eq!(view.units()[unit as usize].prefix, *prefix, "{ctx}");
                }
                let mut distinct = units.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), units.len(), "{ctx}");
                // the selection path picks the full ranking's first k units
                let want: Vec<u32> = full.stats[..sel.k].iter().map(|s| s.unit).collect();
                assert_eq!(units, want, "{ctx}");
            }
        }
    }
}
