//! The scan engine's per-probe hot path, logical and wire.
//!
//! Measures probe throughput of `ScanEngine::run_plan` over a /18
//! (16 384 addresses, every 4th responsive) at 1/2/4/8 worker threads,
//! on a perfect and on a lossy+duplicating network, for both probe
//! paths. Two `many-prefixes` cells scan the same 16 384 targets as
//! 64 × /24 on the lossy network at one thread, so they also pay one
//! permutation setup per prefix, as a TASS plan of many small prefixes
//! does. One record per (path, faults, plan, threads) cell, in
//! probes/s; each sample is one full run of the plan. A comparison with
//! another commit's engine is an A/B of two bench binaries alternated
//! on one machine, not a table in this file.
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

/// Time one cell, full runs of a plan over `prefixes` on `engine`, and
/// record it in probes/s.
fn measure(
    bench: &mut Bench,
    engine: &ScanEngine,
    prefixes: &[Prefix],
    case: &str,
    (path, faults): (&str, &str),
    threads: usize,
) {
    let plan = ProbePlan::Prefixes(prefixes.to_vec());
    let cfg = ScanConfig::for_port(80)
        .unlimited_rate()
        .threads(threads)
        .blocklist(Blocklist::empty())
        .wire_level(path == "wire");
    let pps = time(bench.samples(), || {
        let report = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
        assert_eq!(report.probes_sent, TARGETS);
    })
    .map(|secs| TARGETS as f64 / secs);
    bench.record(
        case,
        "probes/s",
        pps,
        &[
            ("path", &path.to_string()),
            ("faults", &faults.to_string()),
            ("threads", &threads),
            ("prefixes", &prefixes.len()),
            ("targets_per_run", &TARGETS),
        ],
    );
}

fn main() {
    let mut bench = Bench::new("engine");
    let one = ["10.0.0.0/18".parse::<Prefix>().unwrap()];
    for (faults_name, faults) in [("perfect", FaultConfig::default()), ("lossy", lossy())] {
        let engine = ScanEngine::new(network(faults));
        for path in ["logical", "wire"] {
            for threads in [1usize, 2, 4, 8] {
                let case = format!("{path}/{faults_name}/x{threads}");
                measure(
                    &mut bench,
                    &engine,
                    &one,
                    &case,
                    (path, faults_name),
                    threads,
                );
            }
        }
    }
    // the same targets as 64 × /24: one permutation setup per prefix
    let many: Vec<Prefix> = (0..64)
        .map(|i| format!("10.0.{i}.0/24").parse().unwrap())
        .collect();
    let engine = ScanEngine::new(network(lossy()));
    for path in ["logical", "wire"] {
        let case = format!("{path}/lossy/many-prefixes/x1");
        measure(&mut bench, &engine, &many, &case, (path, "lossy"), 1);
    }
    bench.finish();
}
