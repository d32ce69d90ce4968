//! `scan`: the paper's loop on the packet engine.
//!
//! An adaptive TASS strategy runs each month as `plan` →
//! `ScanEngine::run_plan` → `observe`, feeding the engine's responsive
//! set back. The engine runs wire-level and unthrottled against a lossy,
//! duplicating `SimNetwork` whose responder holds that month's snapshot. This is the one workload where the engine, the
//! fault model and the responder's per-probe `HostSet::contains` do the
//! work; the universe is sized so responsive hosts are a few percent of
//! announced space, which keeps the host sets out of L1.
//!
//! One op is one cycle. Every cycle is checked: the engine sent exactly
//! the plan's probe count, every responsive address is in that month's
//! truth, and the cycle's responsive digest equals the warm-up
//! campaign's (faults are a pure hash of seed and address, so repeated
//! campaigns must find identical sets).

use crate::calib::Calibrator;
use crate::stats::{fnv, mean, median, ms, quantile};
use crate::trace::{self, maybe_span, TracedStrategy, Tracer};
use crate::{Params, Report};
use std::sync::Arc;
use std::time::Instant;
use tass_core::plan::CycleOutcome;
use tass_core::{parse_spec, Strategy};
use tass_model::{Protocol, Universe};
use tass_scan::{Blocklist, FaultConfig, NetStats, Responder, ScanConfig, ScanEngine, SimNetwork};

const STRATEGY: &str = "adaptive-tass:more:0.95:0.02";
const PROTOCOL: Protocol = Protocol::Http;
/// One engine thread: on a 2-vCPU machine a second one mostly measures
/// which neighbour holds the other core (it doubled the run-to-run spread).
const ENGINE_THREADS: usize = 1;
const SETUP_REPS: usize = 5;
const L_PREFIXES: usize = 600;
const SITES: usize = 8;
/// Responsive hosts are ~2–3 % of the announced space.
const HOST_SCALE: f64 = 150.0;

/// One scanned universe: one network (and engine) per month, each
/// answering from that month's snapshot.
struct Site {
    universe: Universe,
    networks: Vec<Arc<SimNetwork>>,
    engines: Vec<ScanEngine>,
    announced: Vec<tass_net::Prefix>,
    announced_space: u64,
}

fn site(seed: u64, tiny: bool) -> Site {
    let universe = Universe::generate(&crate::compact_universe(
        seed,
        if tiny { 60 } else { L_PREFIXES },
        HOST_SCALE,
    ));
    let networks: Vec<Arc<SimNetwork>> = (0..=universe.months())
        .map(|m| {
            let hosts = universe.snapshot(m, PROTOCOL).hosts.clone();
            let responder = Responder::new().with_service(PROTOCOL, hosts);
            Arc::new(SimNetwork::new(
                responder,
                FaultConfig::lossy(),
                seed ^ u64::from(m),
            ))
        })
        .collect();
    let engines = networks
        .iter()
        .map(|n| ScanEngine::new(Arc::clone(n)))
        .collect();
    let topo = universe.topology();
    let announced = topo.m_view.units().iter().map(|u| u.prefix).collect();
    let announced_space = topo.announced_space();
    Site {
        universe,
        networks,
        engines,
        announced,
        announced_space,
    }
}

/// The run's sites, each from its own seed derived from the run seed.
/// Campaigns rotate over them, so a run's medians average over several
/// universes instead of resting on one universe's plan sizes.
fn setup(p: &Params) -> Vec<Site> {
    (0..SITES as u64)
        .map(|k| site(p.seed.wrapping_mul(SITES as u64).wrapping_add(k), p.tiny))
        .collect()
}

struct Cycle {
    ms: f64,
    run_plan_ms: f64,
    probes: u64,
    responses: u64,
    ok: bool,
    digest: u64,
}

struct Campaign {
    ms: f64,
    cycles: Vec<Cycle>,
    /// Calibration scale in force when the campaign ran.
    scale: f64,
}

/// One campaign: prepare at t0, then one engine-backed cycle per month.
fn campaign(
    s: &Site,
    strategy: &dyn Strategy,
    cfg: &ScanConfig,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Campaign {
    let t0 = s.universe.snapshot(0, PROTOCOL);
    let start = Instant::now();
    let mut prepared = strategy.prepare(s.universe.topology(), t0, seed);
    let mut total = ms(start.elapsed());
    let mut cycles = Vec::new();
    for m in 0..=s.universe.months() {
        let start = Instant::now();
        let (outcome, expected, responses, run_plan_ms) = maybe_span(tracer, "scan.cycle", || {
            let plan = prepared.plan(m);
            let r0 = Instant::now();
            let report = maybe_span(tracer, "scan.engine.run_plan", || {
                s.engines[m as usize].run_plan(&plan, m, &s.announced, cfg)
            })
            .expect("v4 plans always stream");
            let run_plan_ms = ms(r0.elapsed());
            let outcome = CycleOutcome {
                cycle: m,
                probes: report.probes_sent,
                responsive: report.responsive.into(),
            };
            prepared.observe(m, &outcome);
            let expected = plan.probe_count(s.announced_space);
            (outcome, expected, report.responses, run_plan_ms)
        });
        let cycle_ms = ms(start.elapsed());
        total += cycle_ms;
        // output checks, outside the timed region
        let truth = &s.universe.snapshot(m, PROTOCOL).hosts;
        let ok = outcome.probes == expected && outcome.responsive.iter().all(|a| truth.contains(a));
        cycles.push(Cycle {
            ms: cycle_ms,
            run_plan_ms,
            probes: outcome.probes,
            responses,
            ok,
            digest: fnv(outcome.responsive.iter()),
        });
    }
    Campaign {
        ms: total,
        cycles,
        scale: 1.0,
    }
}

fn net_totals(sites: &[Site]) -> NetStats {
    sites
        .iter()
        .flat_map(|s| &s.networks)
        .map(|n| n.stats())
        .fold(NetStats::default(), |a, b| NetStats {
            frames_in: a.frames_in + b.frames_in,
            malformed: a.malformed + b.malformed,
            probes_lost: a.probes_lost + b.probes_lost,
            responses: a.responses + b.responses,
            responses_lost: a.responses_lost + b.responses_lost,
            duplicated: a.duplicated + b.duplicated,
        })
}

pub fn run(p: &Params) -> Result<Report, String> {
    let mut cal = Calibrator::new(ENGINE_THREADS);
    let mut setup_s = Vec::new();
    let mut sites = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut sites));
        let scale = cal.next_scale();
        let start = Instant::now();
        sites = setup(p);
        setup_s.push(start.elapsed().as_secs_f64() * scale);
    }
    let kind = parse_spec(STRATEGY).map_err(|e| e.to_string())?;
    let cfg = ScanConfig::for_port(PROTOCOL.port())
        .unlimited_rate()
        .threads(ENGINE_THREADS)
        .blocklist(Blocklist::empty())
        .wire_level(true)
        .seed(p.seed);

    // warm-up rotation, one campaign per site: the reference digests and
    // the network counters of one rotation (each month's network sees
    // exactly one cycle)
    let before = net_totals(&sites);
    let reference: Vec<Campaign> = sites
        .iter()
        .map(|s| campaign(s, &*kind.strategy(), &cfg, p.seed, None))
        .collect();
    let rotation = net_totals(&sites);
    if reference.iter().flat_map(|c| &c.cycles).any(|y| !y.ok) {
        return Err("warm-up campaign failed its output check".into());
    }

    let tracer = Arc::new(Tracer::default());
    let traced = TracedStrategy {
        inner: kind.strategy(),
        tracer: Arc::clone(&tracer),
    };
    let plain = kind.strategy();
    let mut report = Report::default();
    let (mut plain_runs, mut traced_runs) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + p.run_for();
    let mut i = 0u64;
    while Instant::now() < deadline {
        let scale = cal.next_scale();
        let k = i as usize % sites.len();
        let s = &sites[k];
        // traced and untraced campaigns alternate within each rotation
        let c = if p.trace && (i / sites.len() as u64 + i) % 2 == 1 {
            let mut c = tracer.op("scan.campaign", i, || {
                campaign(s, &traced, &cfg, p.seed, Some(&tracer))
            });
            c.scale = scale;
            traced_runs.push(c);
            traced_runs.last().expect("just pushed")
        } else {
            let mut c = campaign(s, &*plain, &cfg, p.seed, None);
            c.scale = scale;
            plain_runs.push(c);
            plain_runs.last().expect("just pushed")
        };
        for (cycle, expected) in c.cycles.iter().zip(&reference[k].cycles) {
            report.attempted += 1;
            if !(cycle.ok && cycle.digest == expected.digest) {
                report.failed += 1;
            }
        }
        i += 1;
    }

    // calibrated cycle times (see `calib`)
    let cycles_of = |runs: &[Campaign]| -> Vec<f64> {
        runs.iter()
            .flat_map(|c| c.cycles.iter().map(move |y| y.ms * c.scale))
            .collect()
    };
    let plain_cycles = cycles_of(&plain_runs);
    let raw: Vec<f64> = plain_runs
        .iter()
        .flat_map(|c| c.cycles.iter().map(|y| y.ms))
        .collect();
    let probes: u64 = plain_runs
        .iter()
        .flat_map(|c| &c.cycles)
        .map(|y| y.probes)
        .sum();
    let run_plan_s: f64 = plain_runs
        .iter()
        .flat_map(|c| &c.cycles)
        .map(|y| y.run_plan_ms)
        .sum::<f64>()
        / 1e3;
    let probes_per_s = probes as f64 / run_plan_s.max(1e-9);
    report.note("setup_reps", SETUP_REPS as f64);
    report.note("sites", sites.len() as f64);
    report.note("campaigns", plain_runs.len() as f64);
    report.note("cycles", plain_cycles.len() as f64);
    report.note("probes_per_s", probes_per_s);
    report.note(
        "probes_per_cycle",
        probes as f64 / plain_cycles.len().max(1) as f64,
    );
    report.note(
        "announced_space",
        sites.iter().map(|s| s.announced_space as f64).sum::<f64>(),
    );
    report.note(
        "t0_hosts",
        sites
            .iter()
            .map(|s| s.universe.snapshot(0, PROTOCOL).len() as f64)
            .sum::<f64>(),
    );

    report.note("raw_op_p50_ms", median(&raw));
    report.note("raw_op_p90_ms", quantile(&raw, 0.9));
    report.note("kernel_p50_ms", median(cal.samples()));
    if !p.trace {
        report.set("setup_s", median(&setup_s));
        let campaign_ms: Vec<f64> = plain_runs.iter().map(|c| c.ms * c.scale).collect();
        report.set("campaigns_per_s", 1e3 / median(&campaign_ms));
        report.set("op_p50_ms", median(&plain_cycles));
        report.set("op_p90_ms", quantile(&plain_cycles, 0.9));
        return Ok(report);
    }

    let spans = tracer.spans();
    let selfs = trace::self_times(&spans);
    let traced_cycles = cycles_of(&traced_runs);
    let traced_probes: u64 = traced_runs
        .iter()
        .flat_map(|c| &c.cycles)
        .map(|y| y.probes)
        .sum();
    let run_plan_self: i64 = spans
        .iter()
        .filter(|x| x.name == "scan.engine.run_plan")
        .map(|x| selfs[&x.id])
        .sum();
    let ref_cycles = || reference.iter().flat_map(|c| &c.cycles);
    let ref_probes: u64 = ref_cycles().map(|c| c.probes).sum();
    let ref_responses: u64 = ref_cycles().map(|c| c.responses).sum();
    report.set(
        "scan.engine.run_plan_ms",
        trace::self_ms_p50(&spans, &selfs, "scan.engine.run_plan"),
    );
    report.set(
        "scan.engine.cycle_share",
        trace::total_ns(&spans, "scan.engine.run_plan") as f64
            / trace::total_ns(&spans, "scan.cycle").max(1) as f64,
    );
    report.set(
        "scan.engine.ns_per_probe",
        run_plan_self as f64 / traced_probes.max(1) as f64,
    );
    report.set("scan.engine.probes_per_s", probes_per_s);
    report.set(
        "scan.engine.responses_per_probe",
        ref_responses as f64 / ref_probes.max(1) as f64,
    );
    report.set(
        "scan.net.probes_lost",
        (rotation.probes_lost - before.probes_lost) as f64,
    );
    report.set(
        "scan.net.responses_lost",
        (rotation.responses_lost - before.responses_lost) as f64,
    );
    report.set(
        "scan.net.malformed",
        (rotation.malformed - before.malformed) as f64,
    );
    for (metric, span) in [
        ("core.strategy.prepare_ms", "core.strategy.prepare"),
        ("core.strategy.plan_ms", "core.strategy.plan"),
        ("core.strategy.observe_ms", "core.strategy.observe"),
    ] {
        report.set(metric, trace::self_ms_p50(&spans, &selfs, span));
    }
    report.set(
        "trace.overhead_pct",
        (median(&traced_cycles) / median(&plain_cycles) - 1.0) * 100.0,
    );
    report.note("traced_cycles", traced_cycles.len() as f64);
    report.note("traced_cycle_mean_ms", mean(&traced_cycles));
    trace::finish(&mut report, p, "scan", &spans, &selfs);
    Ok(report)
}
