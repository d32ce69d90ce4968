//! Drive the packet-level scanner simulator directly.
//!
//! Builds a small ground-truth population, wires it behind a lossy
//! simulated network, and runs the ZMap-style engine at the wire level:
//! cyclic-group permutation, real TCP-SYN frames with checksums, stateless
//! SipHash validation, token-bucket rate limiting, banner grabs.
//!
//! Run with: `cargo run --release --example zmap_sim`

use std::sync::Arc;
use tass::core::ProbePlan;
use tass::model::{HostSet, Protocol};
use tass::net::Prefix;
use tass::scan::{Blocklist, FaultConfig, Responder, ScanConfig, ScanEngine, SimNetwork};

fn main() {
    // Ground truth: FTP servers sprinkled over two /20s.
    let mut hosts: Vec<u32> = Vec::new();
    let base_a: u32 = u32::from("203.0.16.0".parse::<std::net::Ipv4Addr>().unwrap());
    let base_b: u32 = u32::from("198.19.64.0".parse::<std::net::Ipv4Addr>().unwrap());
    hosts.extend((0..4096u32).filter(|i| i % 37 == 0).map(|i| base_a + i));
    hosts.extend((0..4096u32).filter(|i| i % 53 == 0).map(|i| base_b + i));
    let truth = HostSet::from_addrs(hosts);
    println!("ground truth: {} FTP servers across two /20s", truth.len());

    let responder = Responder::new().with_service(Protocol::Ftp, truth.clone());

    // A mildly hostile network: 8% probe loss, 5% response loss, dupes.
    let faults = FaultConfig {
        probe_loss: 0.08,
        response_loss: 0.05,
        duplicate: 0.03,
        latency_ms: 40.0,
    };
    let network = Arc::new(SimNetwork::new(responder, faults, 7));
    let engine = ScanEngine::new(Arc::clone(&network));

    let targets = vec![
        "203.0.16.0/20".parse::<Prefix>().unwrap(),
        "198.19.64.0/20".parse::<Prefix>().unwrap(),
    ];
    let cfg = ScanConfig::for_port(Protocol::Ftp.port())
        .rate(50_000.0)
        .threads(4)
        .blocklist(Blocklist::iana_default())
        .banner_grab(true)
        .seed(0xF7B);

    println!(
        "scanning {} addresses at {} pps over {} threads (wire level)…",
        targets.iter().map(|p| p.size()).sum::<u64>(),
        cfg.rate_pps,
        cfg.threads
    );
    let report = engine
        .run_plan(&ProbePlan::Prefixes(targets), 0, &[], &cfg)
        .expect("v4 prefix plans always stream");

    println!("\nscan report:");
    println!("  probes sent          {}", report.probes_sent);
    println!("  blocked/skipped      {}", report.blocked_skipped);
    println!("  SYN-ACKs received    {}", report.responses);
    println!("  RSTs received        {}", report.rst_responses);
    println!("  validation failures  {}", report.validation_failures);
    println!("  responsive hosts     {}", report.responsive.len());
    println!("  banners grabbed      {}", report.banners_grabbed);
    println!("  hitrate              {:.2}%", 100.0 * report.hitrate);
    println!("  simulated duration   {:.2}s", report.duration_secs);
    let stats = network.stats();
    println!(
        "  network: {} frames in, {} probes lost, {} responses lost, {} duplicated",
        stats.frames_in, stats.probes_lost, stats.responses_lost, stats.duplicated
    );
    for (addr, banner) in report.sample_banners.iter().take(4) {
        println!("  {} -> {banner:?}", std::net::Ipv4Addr::from(*addr));
    }
    let missed = truth.len() - report.responsive.len();
    println!(
        "\nthe lossy network cost {missed} of {} hosts ({:.1}%) — rerun a second\n\
         pass (as real campaigns do) to recover them.",
        truth.len(),
        100.0 * missed as f64 / truth.len() as f64
    );
}
