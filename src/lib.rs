//! # tass — Topology Aware Scanning Strategy
//!
//! A full reproduction of Klick, Lau, Wählisch & Roth, *"Towards Better
//! Internet Citizenship: Reducing the Footprint of Internet-wide Scans by
//! Topology Aware Prefix Selection"* (ACM IMC 2016), as a Rust workspace.
//!
//! This umbrella crate re-exports the workspace so downstream users can
//! depend on a single crate:
//!
//! * [`net`] — prefix math, tries, deaggregation, IANA registries —
//!   generic over the address family (`AddrFamily`, with an IPv4 default
//!   and an IPv6 instantiation; see `tass::net::family`);
//! * [`bgp`] — routing tables, CAIDA pfx2as I/O, l/m scan views, the
//!   synthetic RouteViews-like generator;
//! * [`model`] — the ground-truth layer: the simulated universe (protocol
//!   host populations and their monthly churn) standing in for the paper's
//!   censys.io corpus, the `GroundTruth` source abstraction campaigns
//!   actually read, and the on-disk corpus format
//!   (`tass::model::corpus`) for replaying real monthly scan data;
//! * [`scan`] — the ZMap-style packet-level scanner simulator;
//! * [`core`] — TASS itself: density ranking, the φ-coverage selection,
//!   and the trait-based strategy lifecycle
//!   (`Strategy` → `PreparedStrategy` → `ProbePlan` → `CycleOutcome`);
//! * [`experiments`] — the table/figure reproduction harness;
//! * [`service`] — `tassd`, the resident campaign service: tenant
//!   queues, quotas, and checkpointed shutdown over an HTTP JSON API.
//!
//! ## Quickstart: the strategy lifecycle
//!
//! The paper's §3.1 recipe is a loop — seed from a full scan, probe the
//! density-ranked selection each cycle, then start over. The strategy
//! layer models that loop directly: a `Strategy` is *prepared* once at
//! t₀, then each cycle *plans* a typed [`core::ProbePlan`] and *observes*
//! a [`core::CycleOutcome`]:
//!
//! ```
//! use tass::bgp::ViewKind;
//! use tass::core::campaign::run_campaign;
//! use tass::core::StrategyKind;
//! use tass::model::{Protocol, Universe, UniverseConfig};
//!
//! // A small simulated Internet with 7 monthly snapshots.
//! let universe = Universe::generate(&UniverseConfig::small(42));
//!
//! // TASS frozen at t0 (the paper's §4 setting)…
//! let frozen = run_campaign(
//!     &universe,
//!     StrategyKind::Tass { view: ViewKind::MoreSpecific, phi: 0.95 },
//!     Protocol::Http,
//!     42,
//! );
//! assert!(frozen.hitrate(0) > 0.95);
//! assert!(frozen.probe_space_fraction < 0.5, "scan far less than half the space");
//!
//! // …and the paper's literal Δt loop: full re-scan + re-rank every 3
//! // cycles, expressible only through the lifecycle's feedback edge.
//! let reseeding = run_campaign(
//!     &universe,
//!     StrategyKind::ReseedingTass { view: ViewKind::MoreSpecific, phi: 0.95, delta_t: 3 },
//!     Protocol::Http,
//!     42,
//! );
//! assert!(reseeding.final_hitrate() >= frozen.final_hitrate());
//! ```
//!
//! ## Driving a cycle yourself
//!
//! [`core::ProbePlan`] is the hand-off point between selection and
//! probing: the packet-level engine accepts it directly, and the
//! strategy consumes the scan's outcome:
//!
//! ```
//! use std::sync::Arc;
//! use tass::core::plan::CycleOutcome;
//! use tass::core::{Strategy, StrategyKind};
//! use tass::bgp::ViewKind;
//! use tass::model::{Protocol, Universe, UniverseConfig};
//! use tass::scan::{Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};
//!
//! let universe = Universe::generate(&UniverseConfig::small(7));
//! let topo = universe.topology();
//! let t0 = universe.snapshot(0, Protocol::Http);
//!
//! // prepare the strategy and plan cycle 0
//! let strategy = StrategyKind::Tass { view: ViewKind::MoreSpecific, phi: 0.95 };
//! let mut prepared = strategy.prepare(topo, t0, 7);
//! let plan = prepared.plan(0);
//!
//! // run the plan on the packet-level engine
//! let responder = Responder::new().with_service(Protocol::Http, t0.hosts.clone());
//! let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
//! let announced: Vec<_> = topo.m_view.units().iter().map(|u| u.prefix).collect();
//! let cfg = ScanConfig::for_port(80)
//!     .unlimited_rate()
//!     .blocklist(Blocklist::empty())
//!     .wire_level(false);
//! let report = engine.run_plan(&plan, 0, &announced, &cfg).unwrap();
//!
//! // feed the outcome back — adaptive strategies re-rank on this edge
//! prepared.observe(0, &CycleOutcome {
//!     cycle: 0,
//!     probes: report.probes_sent,
//!     responsive: report.responsive.clone().into(),
//! });
//! assert!(report.hitrate > 0.0);
//! ```
//!
//! User-defined strategies implement the same two traits — see
//! `examples/adaptive_strategy.rs` for a complete one.
//!
//! ## Replaying a corpus from disk
//!
//! Campaigns read any `GroundTruth` source, not the `Universe` struct:
//! export a universe to a versioned corpus directory (pfx2as routing
//! table + per-month binary snapshots) and the campaign loop replays it
//! from disk, month by month, with identical results — which is exactly
//! how archived real scan data runs through the lifecycle
//! (`tass-select replay --corpus DIR` is this, as a CLI):
//!
//! ```
//! use tass::bgp::ViewKind;
//! use tass::core::campaign::run_campaign;
//! use tass::core::StrategyKind;
//! use tass::model::corpus::{export_universe, CorpusGroundTruth};
//! use tass::model::{Protocol, Universe, UniverseConfig};
//!
//! let universe = Universe::generate(&UniverseConfig::small(42));
//! let dir = std::env::temp_dir().join(format!("tass-doc-corpus-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! export_universe(&universe, &dir).unwrap();
//!
//! // the directory is just another ground-truth source: snapshots are
//! // decoded lazily (with a small LRU) as the campaign walks the months
//! let corpus = CorpusGroundTruth::open(&dir).unwrap();
//! let kind = StrategyKind::Tass { view: ViewKind::MoreSpecific, phi: 0.95 };
//! let replayed = run_campaign(&corpus, kind, Protocol::Http, 42);
//! let direct = run_campaign(&universe, kind, Protocol::Http, 42);
//! assert_eq!(replayed, direct, "the loop cannot tell disk from memory");
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ### From CAIDA data to a replayed campaign
//!
//! Real corpora follow the same path, end to end from public data:
//!
//! ```text
//! # 1. ingest: a CAIDA RouteViews pfx2as snapshot becomes the corpus
//! #    topology; each monthly full-scan address list (plain text, one
//! #    address per line — what ZMap emits) becomes one snapshot.
//! #    Lists are parsed in parallel fixed-size chunks and k-way merged,
//! #    so peak memory is O(workers · chunk), not O(corpus).
//! $ tass-select ingest --out ./corpus \
//!     --caida-pfx2as routeviews-rv2-20240101.pfx2as \
//!     --list 0:http:scan-2024-01.txt \
//!     --list 1:http:scan-2024-02.txt \
//!     --workers 4 --chunk-lines 65536
//!
//! # 2. replay: campaigns stream months from disk through a bounded
//! #    cache — the ceiling caps resident snapshot memory however
//! #    large the corpus is
//! $ tass-select replay --corpus ./corpus --strategy tass:more:0.95 \
//!     --cache-bytes 268435456
//! ```
//!
//! Snapshots store the sorted address section at a 64-byte aligned
//! offset, so a month load is a header check plus one fused pass that
//! checks strict ascent while filling the month's sorted `Vec`. At
//! routed-v4 scale (a synthetic corpus announcing 2.8 B addresses, see
//! `BENCH_corpus_scale.json`) the load plus the topology check runs
//! well over 4× faster than decoding and then attributing each host
//! through the topology trie, and bounded replay holds RSS under
//! `cache_bytes` plus a per-worker transient. The underlying API is
//! `tass::model::corpus::CorpusBuilder`, which validates the
//! month × protocol matrix and writes the manifest.
//!
//! ## Running the daemon
//!
//! `tassd` turns campaigns into a service: tenants (identified by an
//! `X-Api-Key` header) submit strategy specs against named sources, a
//! fair round-robin worker pool runs them, and results are served as
//! byte-stable JSON. Start it from the CLI and drive it with curl:
//!
//! ```text
//! $ tass-select serve --addr 127.0.0.1:7447 --source demo=universe:1
//! tassd listening on 127.0.0.1:7447 (1 source, 8 workers)
//!
//! $ curl -s localhost:7447/v1/sources
//! [{"name":"demo","family":"v4","months":6,"protocols":["Ftp","Http","Https","Cwmp"]}]
//!
//! $ curl -s -XPOST localhost:7447/v1/campaigns -H 'X-Api-Key: alice' \
//!     -d '{"source":"demo","strategy":"tass:more:0.95","seed":7}'
//! {"id":1,"status":"queued"}
//!
//! $ curl -s localhost:7447/v1/campaigns/1 -H 'X-Api-Key: alice'
//! {"id":1,"status":"done","source":"demo","strategy":"tass:more:0.95",...}
//!
//! $ curl -s localhost:7447/v1/campaigns/1/results -H 'X-Api-Key: alice'
//! {"strategy":"TASS m-view (phi=0.95)", ...identical bytes to run_campaign...}
//! ```
//!
//! For long campaigns you don't have to wait: the **streaming** endpoint
//! serves the same results body as a chunked response while the campaign
//! runs, one chunk per completed month. The concatenated chunks are
//! byte-identical to the unpaginated body above — stream a running
//! campaign and you watch the months land as the workers finish them:
//!
//! ```text
//! $ curl -sN localhost:7447/v1/campaigns/1/results/stream -H 'X-Api-Key: alice'
//! {"strategy":"TASS m-view (phi=0.95)",...,"months":[   ← immediately
//! {"month":0,"eval":{...}}                               ← as month 0 completes
//! ,{"month":1,"eval":{...}}                              ← as month 1 completes
//! ...
//! ],...,"job":{...}}                                     ← at completion
//! ```
//!
//! (`-N` turns off curl's buffering so the chunks display as they
//! arrive; if the campaign fails mid-run the server aborts the chunked
//! stream without a terminal chunk, which curl reports as a transfer
//! error rather than silently truncated JSON.)
//!
//! `SIGTERM`/ctrl-c shuts the daemon down gracefully: with
//! `--checkpoint-dir DIR`, unfinished campaigns are suspended at the
//! next month boundary and persisted; a daemon restarted over the same
//! directory resumes them under their original job ids and produces
//! byte-identical results (`--drain` instead finishes every queued job
//! before exiting). Quotas, submission rate limits and worker counts are
//! CLI flags — see `tass-select serve --help`.
//!
//! The same daemon embeds in-process, which is how the integration tests
//! and the `service_load` bench drive it:
//!
//! ```
//! use std::sync::Arc;
//! use tass::model::registry::SourceRegistry;
//! use tass::model::{Universe, UniverseConfig};
//! use tass::service::{api, HttpClient, HttpServer, ServiceConfig, ShutdownMode, Tassd};
//!
//! let mut registry = SourceRegistry::new();
//! registry
//!     .insert_v4("demo", Arc::new(Universe::generate(&UniverseConfig::small(1))))
//!     .unwrap();
//! let daemon = Tassd::start(Arc::new(registry), ServiceConfig::default()).unwrap();
//! let server = HttpServer::bind("127.0.0.1:0", daemon.core(), api::router()).unwrap();
//!
//! let mut client = HttpClient::connect(server.addr());
//! let (status, body) = client
//!     .post(
//!         "/v1/campaigns",
//!         Some("alice"),
//!         r#"{"source":"demo","strategy":"full-scan","seed":3}"#,
//!     )
//!     .unwrap();
//! assert_eq!(status, 201);
//! assert!(body.contains(r#""status":"queued""#));
//! # loop {
//! #     let (_, s) = client.get("/v1/campaigns/1", Some("alice")).unwrap();
//! #     if s.contains(r#""status":"done""#) { break; }
//! #     std::thread::sleep(std::time::Duration::from_millis(5));
//! # }
//! server.shutdown();
//! daemon.shutdown(ShutdownMode::Drain).unwrap();
//! ```
//!
//! ## IPv6: the same machinery at 128 bits
//!
//! Every address-carrying type is generic over an address family with an
//! IPv4 default — `Prefix<V6>`, `ProbePlan<V6>`, `ScanEngine<V6>` are
//! the identical machinery over `u128` addresses. IPv6 is where
//! topology-aware selection stops being an optimisation: a seeded
//! announced space of a few /48s already holds 2⁸⁰⁺ addresses, so
//! brute-force enumeration and uniform sampling are impossible and
//! hitlist-/prefix-seeded plans are the only strategy:
//!
//! ```
//! use tass::core::campaign::run_campaign_strategy;
//! use tass::core::strategy::{V6BlockTass, V6FreshSample};
//! use tass::model::{Protocol, V6Universe, V6UniverseConfig};
//!
//! // A sparse seeded v6 universe: /48–/64 operator prefixes, responsive
//! // hosts clustered in dense /116 blocks, monthly churn.
//! let universe = V6Universe::generate(&V6UniverseConfig::small(42));
//! assert!(universe.space().announced_space() > 1u128 << 64);
//!
//! // TASS transplanted to v6: rank the hitlist's /116 blocks by density,
//! // select phi = 0.95, re-rank from each cycle's own responses.
//! // The same driver as for v4: only the strategy's family differs.
//! let tass = run_campaign_strategy(
//!     &universe,
//!     &V6BlockTass { phi: 0.95, block_len: 116 },
//!     Protocol::Http,
//!     42,
//! );
//! assert!(tass.hitrate(0) > 0.95);
//! assert!(tass.final_hitrate() > 0.9, "dense blocks persist through churn");
//!
//! // …while a uniform sample of 2^81 addresses finds nothing at all.
//! let sample = run_campaign_strategy(
//!     &universe,
//!     &V6FreshSample { per_cycle: 100_000 },
//!     Protocol::Http,
//!     42,
//! );
//! assert!(sample.final_hitrate() < 1e-3);
//! ```
//!
//! And the packet level is full-fidelity in both families: the wire
//! codec is parameterised over the family, so `ScanEngine<V6>` encodes,
//! transmits, parses, and checksum-validates genuine 74-byte
//! Ethernet/IPv6/TCP frames, and the default `ScanConfig<V6>` enforces
//! the IPv6 IANA special-purpose blocklist before every transmission:
//!
//! ```
//! use std::sync::Arc;
//! use tass::core::ProbePlan;
//! use tass::model::{HostSet, Protocol};
//! use tass::net::V6;
//! use tass::scan::{Responder, ScanConfig, ScanEngine, SimNetwork};
//!
//! // three v6 hosts in global unicast answer HTTP
//! let base = 0x2600u128 << 112;
//! let hosts: Vec<u128> = vec![base + 1, base + 2, base + 3];
//! let responder: Responder<V6> =
//!     Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts.clone()));
//! let engine: ScanEngine<V6> = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
//!
//! // defaults: wire_level = true, blocklist = the v6 IANA registry
//! let cfg = ScanConfig::<V6>::for_port(80).unlimited_rate().threads(2);
//! let targets: HostSet<V6> = hosts.into_iter().chain([1u128]).collect(); // plus ::1
//! let report = engine
//!     .run_plan(&ProbePlan::Addrs(targets), 0, &[], &cfg)
//!     .unwrap();
//! assert_eq!(report.responsive.len(), 3, "every live host found over real frames");
//! assert_eq!(report.blocked_skipped, 1, "::1 is loopback: never probed");
//! assert_eq!(report.validation_failures, 0);
//! ```
//!
//! The full engine-driven loop (`Strategy<V6>` → `ProbePlan<V6>` →
//! `ScanEngine::<V6>::run_plan` → `CycleOutcome`), at wire level with
//! the v6 blocklist enforced, is demonstrated in
//! `examples/ipv6_hitlist.rs` and exercised by `tests/ipv6_campaign.rs`;
//! the `ipv6` exhibit prints the hitrate-vs-probes table.
//!
//! ## Streaming plans, sharded matrices
//!
//! Plans are consumed as **streams**, and campaign matrices shard over
//! **threads** — both are pure optimisations, byte-identical to the
//! serial/materialised semantics (locked down by
//! `tests/matrix_parallel.rs` and the property suite):
//!
//! * [`core::ProbePlan::stream`] yields a cycle's targets lazily, each
//!   prefix walked in ZMap's cyclic-permutation order with O(1) state —
//!   a full scan starts probing immediately and memory stays flat at
//!   Internet scale. [`core::ProbePlan::stream_shard`] splits the same
//!   stream into disjoint shards, which is how `ScanEngine::run_plan`
//!   fans a plan out over its worker threads.
//! * [`core::campaign::CampaignPool`] runs independent campaigns on a
//!   thread pool and gathers results in input order; the free
//!   [`core::campaign::run_matrix`] sizes the pool from the
//!   `CAMPAIGN_WORKERS` environment variable (default: all cores).
//!
//! ```
//! use tass::core::campaign::CampaignPool;
//! use tass::core::{ProbePlan, StrategyKind};
//! use tass::model::{Universe, UniverseConfig};
//!
//! let universe = Universe::generate(&UniverseConfig::small(9));
//! let announced: Vec<_> = universe
//!     .topology()
//!     .m_view
//!     .units()
//!     .iter()
//!     .map(|u| u.prefix)
//!     .collect();
//!
//! // a full-scan plan streams its first targets without building a set
//! let first: Vec<u32> = ProbePlan::All.stream(0, &announced, 1).take(3).collect();
//! assert_eq!(first.len(), 3);
//!
//! // the matrix shards across workers; results are byte-identical
//! let kinds = [StrategyKind::FullScan, StrategyKind::IpHitlist];
//! let serial = CampaignPool::serial().run_matrix(&universe, &kinds, 9);
//! let pooled = CampaignPool::new(4).run_matrix(&universe, &kinds, 9);
//! assert_eq!(serial, pooled);
//! ```
//!
//! See `examples/parallel_matrix.rs` for the timed version.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tass_bgp as bgp;
pub use tass_core as core;
pub use tass_experiments as experiments;
pub use tass_model as model;
pub use tass_net as net;
pub use tass_scan as scan;
pub use tass_service as service;

/// Workspace version (all member crates share it).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        let p: crate::net::Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(p.size(), 1 << 24);
        assert_eq!(crate::model::Protocol::Cwmp.port(), 7547);
        assert!(!crate::VERSION.is_empty());
    }
}
