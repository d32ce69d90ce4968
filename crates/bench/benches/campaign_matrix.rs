//! The sharded campaign matrix and the streaming plan path.
//!
//! Two claims are measured here:
//!
//! * **wall-clock scaling**: `run_matrix` over the standard 4-protocol
//!   matrix at 1, 2, 4 and 8 workers, each asserted byte-identical to
//!   the serial matrix before it is timed. Campaigns are independent,
//!   so on an N-core machine the 4-worker matrix should run ≥2× faster
//!   than the 1-worker one (the records' fingerprint gives the core
//!   count; on a single core the honest ratio is ~1×). This is the only
//!   measurement of a matrix at more than one worker;
//! * **memory cap**: streaming a full-scan `ProbePlan` over a /10 of
//!   address space. The stream holds O(1) state per prefix; throughput
//!   is recorded in addresses/s. The eager equivalent would allocate
//!   the whole 4M-entry target vector before the first probe.

use std::hint::black_box;
use tass_bench::{scenario, time, Bench};
use tass_core::campaign::CampaignPool;
use tass_core::{ProbePlan, StrategyKind};
use tass_net::Prefix;

/// The standard 4-protocol matrix: one strategy of every cost class.
fn matrix_kinds() -> Vec<StrategyKind> {
    use tass_bgp::ViewKind;
    vec![
        StrategyKind::FullScan,
        StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        },
        StrategyKind::IpHitlist,
        StrategyKind::ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 3,
        },
    ]
}

fn main() {
    let mut bench = Bench::new("campaign_matrix");
    let universe = &scenario().universe;
    let kinds = matrix_kinds();
    let serial = CampaignPool::serial().run_matrix(universe, &kinds, 7);
    for workers in [1usize, 2, 4, 8] {
        let pool = CampaignPool::new(workers);
        assert_eq!(
            pool.run_matrix(universe, &kinds, 7),
            serial,
            "pooled matrix must be byte-identical"
        );
        let matrix = time(bench.samples(), || {
            pool.run_matrix(black_box(universe), black_box(&kinds), 7)
                .len()
        });
        bench.record(
            &format!("matrix/x{workers}"),
            "ms",
            matrix.map(|secs| secs * 1e3),
            &[("workers", &workers), ("campaigns", &serial.len())],
        );
    }

    // a /10 of space (4M addresses) as three uneven announced prefixes
    let announced: Vec<Prefix> = vec![
        "10.0.0.0/11".parse().unwrap(),
        "10.32.0.0/12".parse().unwrap(),
        "10.48.0.0/12".parse().unwrap(),
    ];
    let space: u64 = announced.iter().map(|p| p.size()).sum();
    let stream = time(bench.samples(), || {
        // consume the whole stream without materialising it
        ProbePlan::All
            .stream(0, black_box(&announced), 0xF00D)
            .fold(0u64, |acc, a| acc ^ u64::from(a))
    });
    bench.record(
        "plan_stream/full_scan_slash10",
        "addrs/s",
        stream.map(|secs| space as f64 / secs),
        &[("addresses", &space)],
    );
    bench.finish();
}
