//! The scan engine's per-probe hot path, logical and wire.
//!
//! Measures end-to-end probe throughput of `ScanEngine::run_plan` over a
//! /18 (16 384 addresses, every 4th responsive) at 1/2/4/8 worker
//! threads, on a perfect and on a lossy+duplicating network, for both
//! probe paths. The sweep is written to `BENCH_engine.json` at the repo
//! root next to the pinned *before* numbers (the PR-6 engine: shared
//! `Mutex<SmallRng>` fault draws, mutex-guarded `NetStats`, a fresh
//! heap-allocated frame per wire probe) so the perf trajectory keeps
//! regressions visible, ARCH-EXP-014 style.
//!
//! Runs fast enough for CI (set `ENGINE_BENCH_QUICK=1` to shrink the
//! rep count further); throughput numbers vary with the machine, but the
//! sweep structure and the recorded probe counts are deterministic.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tass_core::ProbePlan;
use tass_model::{HostSet, Protocol};
use tass_net::Prefix;
use tass_scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Probes per run: a /18.
const TARGETS: u64 = 16 * 1024;

/// Pinned pre-refactor throughput (probes/sec) measured on the same
/// 1-core CI-class container, keyed by (path, faults, threads). The
/// "before" engine took the shared RNG and stats mutexes 2–4 times per
/// probe and allocated a fresh frame (plus a `Vec<Bytes>` of replies)
/// per wire probe.
const BEFORE: &[(&str, &str, usize, f64)] = &[
    ("logical", "perfect", 1, 10_450_000.0),
    ("logical", "perfect", 2, 10_250_000.0),
    ("logical", "perfect", 4, 9_970_000.0),
    ("logical", "perfect", 8, 9_860_000.0),
    ("logical", "lossy", 1, 7_560_000.0),
    ("logical", "lossy", 2, 7_390_000.0),
    ("logical", "lossy", 4, 5_660_000.0),
    ("logical", "lossy", 8, 6_170_000.0),
    ("wire", "perfect", 1, 2_320_000.0),
    ("wire", "perfect", 2, 2_110_000.0),
    ("wire", "perfect", 4, 1_610_000.0),
    ("wire", "perfect", 8, 1_320_000.0),
    ("wire", "lossy", 1, 1_600_000.0),
    ("wire", "lossy", 2, 1_560_000.0),
    ("wire", "lossy", 4, 1_650_000.0),
    ("wire", "lossy", 8, 1_960_000.0),
];

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

/// One timed sweep cell: probes/sec through `run_plan`.
fn measure(engine: &ScanEngine, wire_level: bool, threads: usize, reps: usize) -> f64 {
    let plan = ProbePlan::Prefixes(vec!["10.0.0.0/18".parse::<Prefix>().unwrap()]);
    let cfg = ScanConfig::for_port(80)
        .unlimited_rate()
        .threads(threads)
        .blocklist(Blocklist::empty())
        .wire_level(wire_level);
    // warm-up
    let report = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
    assert_eq!(report.probes_sent, TARGETS);
    let t0 = Instant::now();
    for _ in 0..reps {
        let r = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
        assert_eq!(r.probes_sent, TARGETS);
    }
    (TARGETS * reps as u64) as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    // `cargo bench` passes harness flags; ignore them.
    let quick = std::env::var("ENGINE_BENCH_QUICK").is_ok();
    let reps = if quick { 2 } else { 8 };

    let mut rows = String::new();
    for (faults_name, faults) in [("perfect", FaultConfig::default()), ("lossy", lossy())] {
        let engine = ScanEngine::new(network(faults));
        for (path, wire_level) in [("logical", false), ("wire", true)] {
            for threads in [1usize, 2, 4, 8] {
                let pps = measure(&engine, wire_level, threads, reps);
                let before = BEFORE
                    .iter()
                    .find(|(p, f, t, _)| *p == path && *f == faults_name && *t == threads)
                    .map(|(_, _, _, v)| *v)
                    .unwrap_or(0.0);
                let speedup = if before > 0.0 { pps / before } else { 0.0 };
                eprintln!(
                    "engine {path:>7} {faults_name:>7} x{threads}: \
                     {:.2} Mpps (before {:.2} Mpps, {speedup:.2}x)",
                    pps / 1e6,
                    before / 1e6,
                );
                if !rows.is_empty() {
                    rows.push(',');
                }
                rows.push_str(&format!(
                    concat!(
                        "\n  {{\"path\":\"{}\",\"faults\":\"{}\",\"threads\":{},",
                        "\"before_pps\":{:.0},\"after_pps\":{:.0},\"speedup\":{:.2}}}"
                    ),
                    path, faults_name, threads, before, pps, speedup
                ));
            }
        }
    }

    let record = format!(
        concat!(
            "{{\"bench\":\"engine\",\"targets_per_run\":{},\"reps\":{},",
            "\"note\":\"before = PR-6 engine (shared Mutex<SmallRng> fault draws, ",
            "mutex-guarded NetStats, per-probe frame allocation); ",
            "after = deterministic SipHash faults, atomic stats, reusable ",
            "SynTemplate frames, and batched response drain. The before pins ",
            "were measured on another day, so speedup is a cross-day ",
            "comparison, not a same-run A/B\",",
            "\"sweep\":[{}\n]}}\n"
        ),
        TARGETS, reps, rows
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    std::fs::write(&path, &record).expect("write BENCH_engine.json");
    eprintln!("engine sweep → {}", path.display());
}
