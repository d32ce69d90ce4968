//! The streaming + sharded campaign matrix, locked down by equivalence.
//!
//! The contract this suite enforces: **parallelism and streaming are pure
//! optimisations**. Three equivalences are proven:
//!
//! 1. `run_matrix` over a `CampaignPool` of 1, 2 and 8 workers returns
//!    results *byte-identical* (serialized-JSON-identical, not merely
//!    `==`) to the serial path, for every strategy kind including the
//!    feedback-driven ones; and `run_campaigns`, whose serial pool runs
//!    each protocol's jobs as one lockstep unit, matches one campaign at
//!    a time on the exhibits' job shapes at 1..=8 workers.
//! 2. The streaming scan path (`ScanEngine::run_plan` consuming
//!    `PlanStream` shards) probes exactly the materialised plan's
//!    targets, probe for probe, at every thread count.
//! 3. `ProbePlan::All` streams a /8-scale universe — 2²⁴ addresses —
//!    visiting every address exactly once while the stream itself holds
//!    O(1) state (the only allocation in the test is the checker's own
//!    2 MiB bitset; the 64 MiB target vector is never built).

use std::sync::Arc;
use tass::bgp::ViewKind;
use tass::core::campaign::{run_campaign, CampaignPool, CampaignResult};
use tass::core::strategy::{ReseedingTass, StrategyKind};
use tass::core::ProbePlan;
use tass::model::{HostSet, Protocol, Universe, UniverseConfig};
use tass::net::Prefix;
use tass::scan::{Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

fn universe() -> Universe {
    let mut cfg = UniverseConfig::small(0x2A11);
    cfg.synth.l_prefix_count = 150;
    Universe::generate(&cfg)
}

/// Every strategy kind the registry knows, static and feedback-driven.
fn all_kinds() -> Vec<StrategyKind> {
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
        StrategyKind::ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
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
    ]
}

fn to_bytes(results: &[CampaignResult]) -> String {
    results
        .iter()
        .map(|r| serde_json::to_string(r).expect("campaign results serialize"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn pooled_matrix_is_byte_identical_to_serial_for_all_kinds() {
    let u = universe();
    let kinds = all_kinds();
    let serial = CampaignPool::serial().run_matrix(&u, &kinds, 7);
    assert_eq!(serial.len(), kinds.len() * 4, "4 protocols x all kinds");
    let serial_bytes = to_bytes(&serial);
    for workers in [1usize, 2, 8] {
        let pooled = CampaignPool::new(workers).run_matrix(&u, &kinds, 7);
        assert_eq!(serial, pooled, "{workers} workers: structural equality");
        assert_eq!(
            serial_bytes,
            to_bytes(&pooled),
            "{workers} workers: byte-identical serialization"
        );
    }
}

/// FNV-1a 64-bit, self-contained so the digest below depends on nothing
/// but the serialized campaign results themselves.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[test]
fn v4_matrix_digest_is_pinned() {
    // Equivalence lock-down for the address-family refactor: the serial
    // matrix over every registry strategy kind, serialized to JSON and
    // hashed. Any refactor that changes a single byte of any v4 campaign
    // result — a density tie-break, an RNG draw, a serialization field —
    // flips this digest. Pinned on the pre-refactor tree (PR 2 state);
    // the generic address layer must reproduce it bit for bit.
    let u = universe();
    let serial = CampaignPool::serial().run_matrix(&u, &all_kinds(), 7);
    let digest = fnv1a(to_bytes(&serial).as_bytes());
    assert_eq!(
        digest, 0xD9A9_7A7C_5394_F9FD,
        "serialized v4 matrix drifted: digest {digest:#018X}"
    );
}

#[test]
fn pooled_jobs_return_in_input_order_regardless_of_cost() {
    // deliberately interleave expensive (full-scan / adaptive) and cheap
    // (hitlist) campaigns so dynamic claiming would reorder completions
    let u = universe();
    let jobs = [
        (StrategyKind::FullScan, Protocol::Http),
        (StrategyKind::IpHitlist, Protocol::Cwmp),
        (
            StrategyKind::AdaptiveTass {
                view: ViewKind::MoreSpecific,
                phi: 0.95,
                explore: 0.1,
            },
            Protocol::Ftp,
        ),
        (StrategyKind::IpHitlist, Protocol::Https),
    ];
    let serial = CampaignPool::serial().run_campaigns(&u, &jobs, 3);
    let pooled = CampaignPool::new(4).run_campaigns(&u, &jobs, 3);
    for (i, (want, got)) in serial.iter().zip(&pooled).enumerate() {
        assert_eq!(want.strategy, got.strategy, "job {i}");
        assert_eq!(want.protocol, got.protocol, "job {i}");
        assert_eq!(want, got, "job {i}");
    }
}

#[test]
fn lockstep_units_are_byte_identical_to_one_campaign_at_a_time() {
    // The job lists the exhibits hand the pool, plus an interleaved one:
    // a serial pool runs them as protocol units in lockstep, a wider one
    // one campaign per unit, and at every worker count each result must
    // serialize exactly like the one-campaign run of its job.
    let u = universe();
    let kinds = all_kinds();
    let fig5: Vec<_> = Protocol::ALL
        .iter()
        .map(|&p| (StrategyKind::IpHitlist, p))
        .collect();
    let single: Vec<_> = kinds.iter().map(|&k| (k, Protocol::Https)).collect();
    let pareto: Vec<_> = [Protocol::Http, Protocol::Cwmp]
        .iter()
        .flat_map(|&p| kinds[7..].iter().map(move |&k| (k, p)))
        .collect();
    let interleaved: Vec<_> = kinds
        .iter()
        .zip(Protocol::ALL.iter().cycle())
        .map(|(&k, &p)| (k, p))
        .collect();
    // one unit whose lanes share the m-view but not φ, so they share the
    // t₀ counts and only the equal-φ lanes a selection, then two lanes
    // at equal φ on different views, which share nothing
    let m = ViewKind::MoreSpecific;
    let shared_view: Vec<_> = [
        StrategyKind::Tass { view: m, phi: 0.9 },
        StrategyKind::AdaptiveTass {
            view: m,
            phi: 0.95,
            explore: 0.02,
        },
        StrategyKind::ReseedingTass {
            view: m,
            phi: 0.95,
            delta_t: 3,
        },
        StrategyKind::Tass {
            view: ViewKind::LessSpecific,
            phi: 0.9,
        },
        StrategyKind::AdaptiveTass {
            view: ViewKind::LessSpecific,
            phi: 0.95,
            explore: 0.02,
        },
    ]
    .iter()
    .map(|&k| (k, Protocol::Http))
    .collect();
    for jobs in [fig5, single, pareto, interleaved, shared_view] {
        let one_by_one: Vec<CampaignResult> = jobs
            .iter()
            .map(|&(kind, proto)| run_campaign(&u, kind, proto, 5))
            .collect();
        let want = to_bytes(&one_by_one);
        assert_eq!(
            to_bytes(&CampaignPool::serial().run_campaigns(&u, &jobs, 5)),
            want,
            "serial"
        );
        for workers in 1..=8 {
            let pooled = CampaignPool::new(workers).run_campaigns(&u, &jobs, 5);
            assert_eq!(to_bytes(&pooled), want, "{workers} workers, {jobs:?}");
        }
    }
}

/// The engine network: every 4th address of two /24s plus a /30 answers.
fn engine_fixture() -> (ScanEngine, Vec<Prefix>, HostSet) {
    let announced: Vec<Prefix> = vec![
        "10.0.0.0/24".parse().unwrap(),
        "10.0.2.0/24".parse().unwrap(),
        "192.0.2.8/30".parse().unwrap(),
    ];
    let hosts: HostSet = announced
        .iter()
        .flat_map(|p| (0..p.size()).map(move |off| (u64::from(p.first()) + off) as u32))
        .filter(|a| a % 4 == 0)
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, hosts.clone());
    let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    (engine, announced, hosts)
}

#[test]
fn streaming_run_plan_matches_materialised_plans_probe_for_probe() {
    let (engine, announced, hosts) = engine_fixture();
    let plans = [
        ProbePlan::All,
        ProbePlan::Prefixes(vec![
            "10.0.0.0/25".parse().unwrap(),
            "192.0.2.8/30".parse().unwrap(),
        ]),
        ProbePlan::Addrs((0x0A00_0000..0x0A00_0040).collect()),
        ProbePlan::FreshSample {
            per_cycle: 300,
            seed: 11,
        },
    ];
    for plan in &plans {
        let targets = plan.materialize(2, &announced);
        // the materialised oracle: which targets would answer, ignoring
        // duplicate draws (the engine deduplicates responsive addresses)
        let mut expected: Vec<u32> = targets
            .iter()
            .copied()
            .filter(|a| hosts.contains(*a))
            .collect();
        expected.dedup();
        for threads in [1usize, 2, 4] {
            let cfg = ScanConfig::for_port(80)
                .unlimited_rate()
                .threads(threads)
                .blocklist(Blocklist::empty())
                .wire_level(false);
            let report = engine.run_plan(plan, 2, &announced, &cfg).unwrap();
            assert_eq!(
                report.probes_sent,
                targets.len() as u64,
                "{plan:?} x{threads}: every materialised target is probed exactly once"
            );
            assert_eq!(
                report.responsive.to_vec(),
                expected,
                "{plan:?} x{threads}: responsive set matches the oracle"
            );
        }
    }
}

#[test]
fn full_scan_of_a_slash8_universe_streams_with_bounded_memory() {
    // A /8-scale synthetic universe: 2^24 addresses announced as four
    // uneven prefixes. Streaming must visit every address exactly once
    // without ever materialising the 16.7M-entry target vector — the
    // stream holds one cyclic-walk position; the only O(space) state
    // here is the *checker's* bitset (2 MiB for 2^24 addresses).
    let announced: Vec<Prefix> = vec![
        "10.0.0.0/9".parse().unwrap(),
        "10.128.0.0/10".parse().unwrap(),
        "10.192.0.0/10".parse().unwrap(),
    ];
    let space: u64 = announced.iter().map(|p| p.size()).sum();
    assert_eq!(space, 1 << 24, "exactly a /8 of address space");

    let base = 0x0A00_0000u32;
    let mut seen = vec![0u64; (1usize << 24) / 64];
    let mut count = 0u64;
    for addr in ProbePlan::All.stream(0, &announced, 0xF00D) {
        let off = (addr - base) as usize;
        let (word, bit) = (off / 64, off % 64);
        assert_eq!(seen[word] >> bit & 1, 0, "address {addr:#x} visited twice");
        seen[word] |= 1 << bit;
        count += 1;
    }
    assert_eq!(count, 1 << 24, "every address visited exactly once");

    // sharded the same space partitions exactly (spot-check: counts)
    let sharded: u64 = (0..4u64)
        .map(|s| {
            ProbePlan::All
                .stream_shard(0, &announced, 0xF00D, s, 4)
                .count() as u64
        })
        .sum();
    assert_eq!(sharded, 1 << 24);
}

#[test]
fn free_run_matrix_equals_explicit_pools() {
    // the env-sized free function must agree with every explicit pool
    // (it can only differ in wall clock, never in bytes)
    let u = universe();
    let kinds = [StrategyKind::FullScan, StrategyKind::IpHitlist];
    let via_env = tass::core::run_matrix(&u, &kinds, 5);
    let serial = CampaignPool::serial().run_matrix(&u, &kinds, 5);
    assert_eq!(to_bytes(&via_env), to_bytes(&serial));
}
