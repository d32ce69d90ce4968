//! The scan engine's per-probe hot path, logical and wire.
//!
//! Measures probe throughput of `ScanEngine::run_plan` over a /18
//! (16 384 addresses, every 4th responsive) at 1/2/4/8 worker threads,
//! on a perfect and on a lossy+duplicating network, for both probe
//! paths. One record per (path, faults, threads) cell, in probes/s;
//! each sample is one full run of the plan. A comparison with another
//! commit's engine is an A/B of two bench binaries alternated on one
//! machine, not a table in this file.
//!
//! Every run asserts that all probes were sent, so a quick run
//! (`BENCH_QUICK=1`) is CI's check; throughput varies with the machine,
//! but the sweep structure and the probe counts are deterministic.

use std::sync::Arc;
use tass_bench::{time, Bench};
use tass_core::ProbePlan;
use tass_model::{HostSet, Protocol};
use tass_net::Prefix;
use tass_scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Probes per run: a /18.
const TARGETS: u64 = 16 * 1024;

fn network(faults: FaultConfig) -> Arc<SimNetwork> {
    let hosts: Vec<u32> = (0..TARGETS as u32)
        .filter(|i| i % 4 == 0)
        .map(|i| 0x0A00_0000 + i)
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    Arc::new(SimNetwork::new(responder, faults, 0x00BE_7C11))
}

fn lossy() -> FaultConfig {
    FaultConfig {
        probe_loss: 0.15,
        response_loss: 0.15,
        duplicate: 0.05,
        latency_ms: 1.0,
    }
}

fn main() {
    let mut bench = Bench::new("engine");
    let plan = ProbePlan::Prefixes(vec!["10.0.0.0/18".parse::<Prefix>().unwrap()]);
    for (faults_name, faults) in [("perfect", FaultConfig::default()), ("lossy", lossy())] {
        let engine = ScanEngine::new(network(faults));
        for (path, wire_level) in [("logical", false), ("wire", true)] {
            for threads in [1usize, 2, 4, 8] {
                let cfg = ScanConfig::for_port(80)
                    .unlimited_rate()
                    .threads(threads)
                    .blocklist(Blocklist::empty())
                    .wire_level(wire_level);
                let pps = time(bench.samples(), || {
                    let report = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
                    assert_eq!(report.probes_sent, TARGETS);
                })
                .map(|secs| TARGETS as f64 / secs);
                bench.record(
                    &format!("{path}/{faults_name}/x{threads}"),
                    "probes/s",
                    pps,
                    &[
                        ("path", &path.to_string()),
                        ("faults", &faults_name.to_string()),
                        ("threads", &threads),
                        ("targets_per_run", &TARGETS),
                    ],
                );
            }
        }
    }
    bench.finish();
}
