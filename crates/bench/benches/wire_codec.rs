//! The family-parameterised wire codec, v4 vs v6.
//!
//! Three questions are measured:
//!
//! * **encode throughput** — building checksummed TCP-SYN frames
//!   (54-byte Ethernet/IPv4/TCP vs 74-byte Ethernet/IPv6/TCP) into stack
//!   `FrameBuf`s, with no allocation;
//! * **parse throughput** — full validation of a frame (ethertype,
//!   header structure, header checksum for v4, pseudo-header TCP
//!   checksum for both);
//! * **logical-vs-wire overhead** — the same 4096-target engine scan
//!   through the logical path and the wire path, per family, in ns per
//!   probe: the gap between a family's two records is the price
//!   `wire_level` pays for full per-probe fidelity.
//!
//! Each record is nanoseconds per element; a frame operation runs
//! `BATCH` times per sample.

use std::hint::black_box;
use std::sync::Arc;
use tass_bench::Bench;
use tass_core::ProbePlan;
use tass_model::{HostSet, Protocol};
use tass_net::{Prefix, V6};
use tass_scan::{wire, Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

/// Frames built or parsed per sample.
const BATCH: u64 = 10_000;

/// Probes per engine scan.
const PROBES: u64 = 4096;

fn bench_encode(bench: &mut Bench) {
    let mut dst = 0u32;
    bench.ns_per_element("wire_encode/v4_syn_54B", BATCH, || {
        for _ in 0..BATCH {
            dst = dst.wrapping_add(1);
            black_box(wire::build_syn(0x0A000001, black_box(dst), 40000, 443, 7));
        }
    });
    let mut dst = 0x2600u128 << 112;
    bench.ns_per_element("wire_encode/v6_syn_74B", BATCH, || {
        for _ in 0..BATCH {
            dst = dst.wrapping_add(1);
            black_box(wire::build_syn_v6(
                (0x2001_0db8u128 << 96) | 1,
                black_box(dst),
                40000,
                443,
                7,
            ));
        }
    });
}

fn bench_parse(bench: &mut Bench) {
    let v4 = wire::build_syn(1, 2, 3, 4, 5);
    bench.ns_per_element("wire_parse/v4_validate", BATCH, || {
        for _ in 0..BATCH {
            black_box(wire::parse_frame(black_box(&v4)).expect("valid frame"));
        }
    });
    let v6 = wire::build_syn_v6(1, 2, 3, 4, 5);
    bench.ns_per_element("wire_parse/v6_validate", BATCH, || {
        for _ in 0..BATCH {
            black_box(wire::parse_frame_v6(black_box(&v6)).expect("valid frame"));
        }
    });
}

/// One /116-sized engine scan (4096 targets, every 4th responsive).
fn scan_v4(wire_level: bool) -> u64 {
    let hosts: Vec<u32> = (0..PROBES as u32)
        .filter(|i| i % 4 == 0)
        .map(|i| 0x0100_0000 + i)
        .collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let plan = ProbePlan::Prefixes(vec!["1.0.0.0/20".parse::<Prefix>().unwrap()]);
    let cfg = ScanConfig::for_port(80)
        .unlimited_rate()
        .threads(1)
        .blocklist(Blocklist::empty())
        .wire_level(wire_level);
    engine.run_plan(&plan, 0, &[], &cfg).unwrap().probes_sent
}

fn scan_v6(wire_level: bool) -> u64 {
    let base = 0x2600u128 << 112;
    let hosts: Vec<u128> = (0..PROBES as u128)
        .filter(|i| i % 4 == 0)
        .map(|i| base + i)
        .collect();
    let responder: Responder<V6> =
        Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let engine: ScanEngine<V6> = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let plan = ProbePlan::Prefixes(vec!["2600::/116".parse::<Prefix<V6>>().unwrap()]);
    let cfg = ScanConfig::<V6>::for_port(80)
        .unlimited_rate()
        .threads(1)
        .blocklist(Blocklist::empty())
        .wire_level(wire_level);
    engine.run_plan(&plan, 0, &[], &cfg).unwrap().probes_sent
}

fn main() {
    let mut bench = Bench::new("wire_codec");
    bench_encode(&mut bench);
    bench_parse(&mut bench);
    // the same scan through both paths, per family
    for (path, wire_level) in [("logical", false), ("wire", true)] {
        let case = format!("wire_engine/v4_{path}");
        bench.ns_per_element(&case, PROBES, || assert_eq!(scan_v4(wire_level), PROBES));
        let case = format!("wire_engine/v6_{path}");
        bench.ns_per_element(&case, PROBES, || assert_eq!(scan_v6(wire_level), PROBES));
    }
    bench.finish();
}
