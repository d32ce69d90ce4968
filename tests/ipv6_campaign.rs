//! The IPv6 acceptance path, end to end: `Strategy<V6>` → `ProbePlan<V6>`
//! → `ScanEngine::<V6>::run_plan`, at **wire level**, with nonzero
//! hitrate.
//!
//! The generic address layer is only worth its type parameters if the
//! *whole* prepare→plan→observe loop runs on v6 — seeding from a
//! hitlist over a 2⁸⁰⁺-address seeded space, streaming typed plans
//! through the packet-level engine, and feeding scan reports back. This
//! suite drives exactly that with `wire_level = true`: every probe is an
//! encoded, checksum-validated 74-byte Ethernet/IPv6/TCP frame, and the
//! v6 IANA blocklist is enforced on every campaign. The engine
//! invariants (thread-count independence, analytic agreement, blocklist
//! suppression) are checked at 128-bit width.

use std::sync::Arc;
use tass::core::campaign::{partial_result, run_campaign_strategy};
use tass::core::plan::CycleOutcome;
use tass::core::strategy::{Strategy, V6BlockTass, V6FreshSample, V6Hitlist};
use tass::core::ProbePlan;
use tass::model::{Protocol, V6Universe, V6UniverseConfig};
use tass::net::{Prefix, V6};
use tass::scan::{Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

fn universe() -> V6Universe {
    V6Universe::generate(&V6UniverseConfig::small(0x1077))
}

fn engine_for(truth: &tass::model::Snapshot<V6>) -> ScanEngine<V6> {
    let responder: Responder<V6> =
        Responder::new().with_service(truth.protocol, truth.hosts.clone());
    ScanEngine::new(Arc::new(SimNetwork::perfect(responder)))
}

fn cfg() -> ScanConfig<V6> {
    // full fidelity: encoded/checksummed v6 frames, v6 IANA blocklist
    ScanConfig::for_port(Protocol::Http.port())
        .unlimited_rate()
        .threads(3)
        .blocklist(Blocklist::iana_default())
        .wire_level(true)
}

/// Drive one strategy through the engine for every month; return the
/// per-month engine hitrates (responsive / ground truth).
fn engine_campaign(u: &V6Universe, strategy: &dyn Strategy<V6>) -> Vec<f64> {
    let mut prepared = strategy.prepare(u.space(), u.snapshot(0), 7);
    let mut hitrates = Vec::new();
    for month in 0..=u.months() {
        let truth = u.snapshot(month);
        let engine = engine_for(truth);
        let plan = prepared.plan(month);
        let report = engine
            .run_plan(&plan, month, u.space().announced(), &cfg())
            .unwrap();
        hitrates.push(report.responsive.len() as f64 / truth.len().max(1) as f64);
        prepared.observe(
            month,
            &CycleOutcome {
                cycle: month,
                probes: report.probes_sent,
                responsive: report.responsive.clone().into(),
            },
        );
    }
    hitrates
}

#[test]
fn v6_block_tass_campaign_runs_end_to_end_with_high_hitrate() {
    let u = universe();
    let hitrates = engine_campaign(
        &u,
        &V6BlockTass {
            phi: 0.95,
            block_len: 116,
        },
    );
    assert!(
        hitrates[0] > 0.95,
        "t0 selection covers > phi: {hitrates:?}"
    );
    assert!(
        hitrates.iter().all(|&h| h > 0.9),
        "block selection must hold through churn: {hitrates:?}"
    );
}

#[test]
fn v6_hitlist_decays_and_fresh_sample_collapses() {
    let u = universe();
    let hitlist = engine_campaign(&u, &V6Hitlist);
    assert_eq!(hitlist[0], 1.0, "t0 hitlist is perfect at t0");
    assert!(
        hitlist[6] < 0.85,
        "churn must cost the frozen hitlist: {hitlist:?}"
    );
    // a uniform sample of a 2^81 space finds nothing at any sane budget
    let sample = engine_campaign(&u, &V6FreshSample { per_cycle: 100_000 });
    assert!(
        sample.iter().all(|&h| h < 1e-3),
        "uniform sampling must collapse on v6: {sample:?}"
    );
}

#[test]
fn v6_engine_matches_analytic_evaluation_on_perfect_network() {
    let u = universe();
    let t0 = u.snapshot(0);
    let strategy = V6BlockTass {
        phi: 0.95,
        block_len: 116,
    };
    // analytic campaign vs engine-driven at month 0
    let analytic = run_campaign_strategy(&u, &strategy, t0.protocol, 7);
    let plan = strategy.prepare(u.space(), t0, 7).plan(0);
    let report = engine_for(t0)
        .run_plan(&plan, 0, u.space().announced(), &cfg())
        .unwrap();
    assert_eq!(
        report.responsive.len() as u64,
        analytic.months[0].eval.found
    );
    assert_eq!(report.probes_sent, analytic.months[0].eval.probes);
    assert!(report.hitrate > 0.0, "nonzero engine hitrate");
}

#[test]
fn v6_partial_result_envelope_matches_the_final_result() {
    // an in-flight campaign's envelope, rendered from its first k months,
    // must serialize byte-identically to the finished result up to the
    // months array — the property result streaming relies on
    let u = universe();
    let strategy = V6BlockTass {
        phi: 0.95,
        block_len: 116,
    };
    let protocol = u.snapshot(0).protocol;
    let done = run_campaign_strategy(&u, &strategy, protocol, 7);
    let final_json = serde_json::to_string(&done).unwrap();
    let envelope = |json: &str| {
        let open = json
            .find("\"months\":[")
            .expect("results carry a months array");
        json[..open + "\"months\":[".len()].to_string()
    };
    assert!(partial_result(&u, &strategy, protocol, Vec::new()).is_none());
    for k in 1..=done.months.len() {
        let partial = partial_result(&u, &strategy, protocol, done.months[..k].to_vec())
            .expect("at least one month done");
        let json = serde_json::to_string(&partial).unwrap();
        assert_eq!(envelope(&json), envelope(&final_json), "first {k} months");
        if k == done.months.len() {
            assert_eq!(partial, done, "every month done is the final result");
        }
    }
}

#[test]
fn v6_all_over_seeded_space_errors_before_probing() {
    // `All` over the raw seeded announced space (/48–/64 operator
    // prefixes, 2^80+ addresses each) cannot be streamed; the engine
    // must refuse with a typed error *before* sending a single probe
    // instead of panicking in a worker thread
    let u = universe();
    let t0 = u.snapshot(0);
    let err = engine_for(t0)
        .run_plan(&ProbePlan::<V6>::All, 0, u.space().announced(), &cfg())
        .unwrap_err();
    assert_eq!(err.family, "IPv6");
    assert!(err.size > 1u128 << 64, "a seeded prefix is the culprit");
    assert!(err.to_string().contains("exceed the 2^64 enumerable bound"));
    // the same announced space is fine for non-enumerating plans
    let plan = ProbePlan::<V6>::FreshSample {
        per_cycle: 1000,
        seed: 5,
    };
    let report = engine_for(t0)
        .run_plan(&plan, 0, u.space().announced(), &cfg())
        .unwrap();
    assert_eq!(report.probes_sent, 1000);
}

#[test]
fn v6_wire_and_logical_paths_agree() {
    // the codec is a fidelity knob, not a semantics knob: the wire path
    // (frames + checksums + stateless validation) must find exactly the
    // hosts the logical path finds
    let u = universe();
    let t0 = u.snapshot(0);
    let plan = ProbePlan::Prefixes(u.dense_blocks().to_vec());
    let wire = engine_for(t0)
        .run_plan(&plan, 0, u.space().announced(), &cfg())
        .unwrap();
    let logical = engine_for(t0)
        .run_plan(&plan, 0, u.space().announced(), &cfg().wire_level(false))
        .unwrap();
    assert!(wire.probes_sent > 0);
    assert_eq!(wire.responsive, logical.responsive);
    assert_eq!(wire.probes_sent, logical.probes_sent);
    assert_eq!(wire.rst_responses, logical.rst_responses);
    assert_eq!(wire.validation_failures, 0, "self-built frames validate");
}

#[test]
fn v6_iana_blocklist_suppresses_probes_to_reserved_space() {
    // an engine-level guarantee: with the default v6 blocklist, probes
    // aimed at IANA special-purpose space are counted and dropped
    // *before* transmission, wire level or not
    let u = universe();
    let t0 = u.snapshot(0);
    let live: Vec<u128> = t0.hosts.iter().take(64).collect();
    let reserved: Vec<u128> = vec![
        1,                           // ::1 loopback
        0xFE80u128 << 112 | 0x99,    // link-local
        0xFC00u128 << 112 | 7,       // unique-local
        0xFF02u128 << 112 | 1,       // multicast
        (0x2001_0db8u128 << 96) | 5, // documentation
        (0x64_ff9bu128 << 96) | 2,   // 64:ff9b::/96 translation
    ];
    let hitlist: tass::model::HostSet<V6> = live.iter().chain(reserved.iter()).copied().collect();
    let plan = ProbePlan::Addrs(hitlist);
    let engine = engine_for(t0);
    let report = engine
        .run_plan(&plan, 0, u.space().announced(), &cfg())
        .unwrap();
    assert_eq!(
        report.blocked_skipped,
        reserved.len() as u64,
        "every reserved target suppressed"
    );
    assert_eq!(report.probes_sent, live.len() as u64);
    assert_eq!(
        report.responsive.len(),
        live.len(),
        "live hosts still found"
    );
    // the network never saw a frame for blocked space
    assert_eq!(engine.network().stats().frames_in, live.len() as u64);
    // an empty blocklist would have probed them
    let unblocked = engine_for(t0)
        .run_plan(
            &plan,
            0,
            u.space().announced(),
            &cfg().blocklist(Blocklist::empty()),
        )
        .unwrap();
    assert_eq!(unblocked.blocked_skipped, 0);
    assert_eq!(unblocked.probes_sent, (live.len() + reserved.len()) as u64);
}

#[test]
fn v6_run_plan_is_thread_count_invariant() {
    let u = universe();
    let t0 = u.snapshot(0);
    let hitlist: Vec<u128> = t0.hosts.iter().take(5000).collect();
    let plans = [
        ProbePlan::<V6>::All,
        ProbePlan::Prefixes(u.dense_blocks().to_vec()),
        ProbePlan::Addrs(hitlist.into_iter().collect()),
        ProbePlan::FreshSample {
            per_cycle: 20_000,
            seed: 3,
        },
    ];
    // `All` streams the announced list it is given; at test scale that
    // must be the dense blocks (the seeded /48s are 2^80 addresses each)
    let blocks: Vec<Prefix<V6>> = u.dense_blocks().to_vec();
    for plan in &plans {
        let engine = engine_for(t0);
        let one = engine
            .run_plan(plan, 1, &blocks, &cfg().threads(1))
            .unwrap();
        for threads in [2usize, 5] {
            let engine = engine_for(t0);
            let many = engine
                .run_plan(plan, 1, &blocks, &cfg().threads(threads))
                .unwrap();
            assert_eq!(one.responsive, many.responsive, "{plan:?} x{threads}");
            assert_eq!(one.probes_sent, many.probes_sent, "{plan:?} x{threads}");
        }
    }
}
