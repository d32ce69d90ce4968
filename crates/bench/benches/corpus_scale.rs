//! The corpus fast path at routed-v4 scale.
//!
//! Builds a synthetic-but-routed-shaped corpus — the paper's scopes:
//! ~2.8 B announced addresses carved from the IANA-allocated space by
//! the calibrated `SynthConfig` sweep — with millions of responsive
//! hosts per month, then measures the four claims of the corpus layer:
//!
//! 1. **Ingest throughput**: month 0 is ingested from a plain-text
//!    address list through the chunked parallel streaming path
//!    (`stream_address_list_to_snapshot`), recorded as addresses/sec.
//! 2. **Cold month-load latency**, two arms measured by this run with
//!    their samples alternating, so machine drift hits both alike: the
//!    legacy load reconstructed inline (decode every host into a fresh
//!    `Vec`, then attribute each host through the topology trie, as the
//!    old `load_from_disk` did) against the corpus load
//!    (`Snapshot::decode` into the month's `Vec` + the covered-count
//!    topology sweep). The acceptance bar is a ≥ 4× speedup of the
//!    medians.
//! 3. **Warm replay wall-clock at 1/4 workers**: a 4-cell TASS matrix
//!    replayed off a fully-resident month cache. Reads take no
//!    exclusive lock, so added workers must not introduce a cache
//!    plateau (on a 1-core machine the honest expectation is a ratio
//!    ≈ 1, not a speedup).
//! 4. **Bounded-memory replay**: the same matrix under a hard
//!    `cache_bytes` ceiling a fifth of the corpus size, with peak RSS
//!    recorded; when the kernel lets us reset the RSS high-water mark
//!    (`/proc/self/clear_refs`), the bench *asserts* the replay phase
//!    stayed inside the corpus layer's cost model — cache ceiling, plus
//!    two transient snapshot buffers per worker, plus fixed slack. The
//!    process re-execs itself once with `MALLOC_MMAP_THRESHOLD_` pinned
//!    so evicted buffers actually leave RSS instead of lingering in
//!    glibc's per-thread arenas.
//!
//! `BENCH_QUICK=1` is the CI-sized run: the same structure, sample
//! counts and assertions on a ~100× smaller corpus.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;
use tass_bench::{time, Bench, Stats};
use tass_bgp::synth::{generate, SynthConfig};
use tass_bgp::{pfx2as, ScanUnit, SynthTable, ViewKind};
use tass_core::campaign::CampaignPool;
use tass_core::StrategyKind;
use tass_model::corpus::{CorpusBuilder, CorpusGroundTruth, CorpusOptions, IngestOptions};
use tass_model::{GroundTruth, HostSet, Protocol, Snapshot, Topology};

/// The corpus sizing, quick (CI) or full.
struct Scale {
    /// l-prefix budget for the synthetic table (full mode sets it high
    /// enough that the allocated-space sweep, not the budget, ends
    /// generation — that is what yields the ~2.8 B announced scope).
    l_prefix_count: usize,
    /// Responsive hosts per monthly snapshot.
    hosts_per_month: u64,
}

/// Months after t₀ (snapshots = months + 1).
const MONTHS: u32 = 15;

/// The bounded-replay cache ceiling, as a fraction of the total resident
/// snapshot bytes (< 1 so eviction must actually happen).
const CACHE_FRACTION: f64 = 0.2;

/// RSS slack over the ceiling for the bounded-replay assertion: covers
/// strategy state, rank vectors, and allocator overhead.
const RSS_SLACK_BYTES: u64 = 48 << 20;

/// Samples per cold-load arm, the same in quick and full runs: the gate
/// compares medians, so one slow sample cannot fail it.
const COLD_SAMPLES: usize = 9;

fn rss_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Reset the process RSS high-water mark so `VmHWM` measures only the
/// phase that follows. Returns false when the kernel refuses.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// SplitMix64 — the deterministic per-host jitter for snapshot
/// generation (no global RNG state, so months are independent).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One month's responsive hosts: every scan unit contributes hosts in
/// proportion to its size (evenly-strided slots with hash jitter, so
/// the list is sorted and unique by construction), with per-month churn
/// in the jitter. ~`target` hosts total.
fn month_hosts(units: &[ScanUnit], month: u32, target: u64, announced: u64) -> Vec<u32> {
    let density = target as f64 / announced.max(1) as f64;
    let mut out = Vec::with_capacity((target + target / 16) as usize);
    for (ui, unit) in units.iter().enumerate() {
        let size = unit.prefix.size();
        let expected = size as f64 * density;
        let mut k = expected as u64;
        // fractional remainder: deterministic bernoulli per (month, unit)
        let h = mix64((u64::from(month) << 32) ^ ui as u64);
        if (h % 10_000) as f64 / 10_000.0 < expected.fract() {
            k += 1;
        }
        if k == 0 {
            continue;
        }
        let k = k.min(size);
        let slot = size / k;
        let first = unit.prefix.first();
        for j in 0..k {
            let jitter = mix64(h ^ (j << 1) ^ u64::from(month)) % slot.max(1);
            out.push(first + (j * slot + jitter) as u32);
        }
    }
    out
}

fn hosts_text(hosts: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(hosts.len() * 14);
    for &h in hosts {
        let o = h.to_be_bytes();
        writeln!(out, "{}.{}.{}.{}", o[0], o[1], o[2], o[3]).unwrap();
    }
    out
}

fn main() {
    // glibc's dynamic mmap threshold rises past the snapshot buffer
    // size after the first few frees, after which freed month buffers
    // are retained in per-thread heap arenas instead of returned to the
    // OS — RSS then measures allocator retention, not cache policy.
    // Pin the threshold (start-time-only tunable, hence the re-exec) so
    // snapshot-sized allocations stay mmap-backed and eviction is
    // visible to the RSS assertion.
    if std::env::var_os("MALLOC_MMAP_THRESHOLD_").is_none() {
        let exe = std::env::current_exe().expect("own path");
        let status = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .status()
            .expect("re-exec with pinned malloc threshold");
        std::process::exit(status.code().unwrap_or(1));
    }

    let mut bench = Bench::new("corpus_scale");
    let scale = if bench.quick() {
        Scale {
            l_prefix_count: 3_000,
            hosts_per_month: 60_000,
        }
    } else {
        Scale {
            l_prefix_count: 400_000,
            hosts_per_month: 2_000_000,
        }
    };

    let dir = std::env::temp_dir().join(format!("tass-corpus-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- topology: the routed-shaped synthetic table
    let t0 = Instant::now();
    let synth = generate(&SynthConfig {
        seed: 0x2b11,
        l_prefix_count: scale.l_prefix_count,
        // with backfill the announced share runs ~15 points above the
        // nominal fraction (the recovered remainders are announced
        // too); 0.68 nominal lands at the paper's ~2.8 B
        announced_fraction: 0.68,
        backfill_gaps: true,
        ..SynthConfig::default()
    });
    let view = tass_bgp::View::of(&synth.table, ViewKind::MoreSpecific);
    let announced = view.units().iter().map(|u| u.prefix.size()).sum::<u64>();
    eprintln!(
        "corpus_scale: table {} prefixes, {} units, {:.2} B addresses announced ({:.1?})",
        synth.table.len(),
        view.len(),
        announced as f64 / 1e9,
        t0.elapsed(),
    );

    // ---- build the corpus: month 0 through the streamed text path
    // (that is the ingest-throughput measurement), months 1.. as direct
    // snapshots.
    let mut builder = CorpusBuilder::create(&dir, &synth.table).expect("create corpus");
    let m0 = month_hosts(view.units(), 0, scale.hosts_per_month, announced);
    let list_path = dir.join("month0.txt");
    std::fs::write(&list_path, hosts_text(&m0)).expect("write month-0 list");
    let n_m0 = m0.len() as u64;
    drop(m0);
    let t_ingest = Instant::now();
    builder
        .add_address_list_file(0, Protocol::Http, &list_path, &IngestOptions::default())
        .expect("streamed ingest");
    let ingest = Stats::of(&[t_ingest.elapsed().as_secs_f64()]);
    let _ = std::fs::remove_file(&list_path);
    let mut snapshot_bytes_total = 0u64;
    for m in 1..=MONTHS {
        let hosts = month_hosts(view.units(), m, scale.hosts_per_month, announced);
        snapshot_bytes_total += hosts.len() as u64 * 4;
        let snap = Snapshot::new(Protocol::Http, m, HostSet::from_sorted_unique(hosts));
        builder.add_snapshot(&snap).expect("add snapshot");
    }
    snapshot_bytes_total += n_m0 * 4;
    builder.finish().expect("manifest");
    bench.record(
        "ingest",
        "addrs/s",
        ingest.map(|secs| n_m0 as f64 / secs),
        &[
            ("announced_addresses", &announced),
            ("table_prefixes", &synth.table.len()),
            ("scan_units", &view.len()),
            ("snapshots", &(MONTHS + 1)),
            ("hosts_per_month", &scale.hosts_per_month),
            ("snapshot_bytes_total", &snapshot_bytes_total),
        ],
    );

    // ---- cold month-load latency: the legacy arm and the corpus arm,
    // sample by sample in turn after one warm-up pair
    let snap_path = dir.join("snapshots/m1-http.snap");
    let legacy_topo = {
        let text = std::fs::read_to_string(dir.join("topology.pfx2as")).unwrap();
        let table = pfx2as::read_table(text.as_bytes()).unwrap();
        Topology::build(SynthTable {
            table,
            ases: Vec::new(),
            class_by_asn: BTreeMap::new(),
        })
    };
    // legacy: decode every host into a fresh Vec, then attribute each
    // host through the topology trie
    let legacy_load = || {
        let t = Instant::now();
        let bytes = std::fs::read(&snap_path).unwrap();
        let snap: Snapshot = Snapshot::decode(&bytes).unwrap();
        let mut attributed = 0u64;
        for a in snap.hosts.iter() {
            if legacy_topo.block_of_addr(a).is_some() {
                attributed += 1;
            }
        }
        assert_eq!(attributed, snap.hosts.len() as u64);
        t.elapsed().as_secs_f64() * 1e3
    };
    // corpus: the load through the real corpus path, on a freshly
    // opened corpus so the month cache is cold every time
    let corpus_load = || {
        let corpus = CorpusGroundTruth::open(&dir).unwrap();
        let t = Instant::now();
        corpus.load_snapshot(1, Protocol::Http).unwrap();
        t.elapsed().as_secs_f64() * 1e3
    };
    legacy_load();
    corpus_load();
    let (mut legacy_ms, mut corpus_ms) = (Vec::new(), Vec::new());
    for _ in 0..COLD_SAMPLES {
        legacy_ms.push(legacy_load());
        corpus_ms.push(corpus_load());
    }
    drop(legacy_topo);
    let (legacy, cold) = (Stats::of(&legacy_ms), Stats::of(&corpus_ms));
    let cold_speedup = legacy.median / cold.median;
    bench.record("cold_load_legacy", "ms", legacy, &[]);
    bench.record(
        "cold_load",
        "ms",
        cold,
        &[
            ("before_cold_load_ms", &legacy.median),
            ("cold_load_speedup", &cold_speedup),
        ],
    );
    assert!(
        cold_speedup >= 4.0,
        "decode + covered-count sweep must load cold ≥ 4x faster than \
         decode + per-host trie walk (got {cold_speedup:.2}x)"
    );

    // ---- warm replay at 1 and 4 workers (fully resident cache)
    let kinds: Vec<StrategyKind> = [0.90, 0.93, 0.95, 0.97]
        .iter()
        .map(|&phi| StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi,
        })
        .collect();
    let all_resident = CorpusOptions {
        cache_snapshots: MONTHS as usize + 1,
        cache_bytes: None,
    };
    let corpus = CorpusGroundTruth::open_with(&dir, &all_resident).unwrap();
    corpus.validate().unwrap(); // also warms the cache: every month stays
    let serial = CampaignPool::serial().run_matrix(&corpus, &kinds, 7);
    for workers in [1usize, 4] {
        let pool = CampaignPool::new(workers);
        assert_eq!(
            pool.run_matrix(&corpus, &kinds, 7),
            serial,
            "replay is byte-identical at any worker count"
        );
        let warm = time(bench.samples(), || pool.run_matrix(&corpus, &kinds, 7));
        bench.record(
            &format!("warm_replay/x{workers}"),
            "s",
            warm,
            &[("workers", &workers), ("campaigns", &kinds.len())],
        );
    }
    drop(corpus);

    // ---- bounded-memory replay under a hard byte ceiling
    let cache_bytes = (snapshot_bytes_total as f64 * CACHE_FRACTION) as u64;
    let rss_at_start = rss_field("VmRSS:");
    let peak_reset = reset_peak_rss();
    let bounded = CorpusOptions {
        cache_snapshots: MONTHS as usize + 1,
        cache_bytes: Some(cache_bytes as usize),
    };
    let corpus = CorpusGroundTruth::open_with(&dir, &bounded).unwrap();
    let tb = Instant::now();
    let rb = CampaignPool::new(4).run_matrix(&corpus, &kinds, 7);
    let bounded_replay = Stats::of(&[tb.elapsed().as_secs_f64()]);
    assert_eq!(rb, serial, "the cache ceiling must not change results");
    let peak_rss = rss_field("VmHWM:");
    let replay_rss_delta = peak_rss.saturating_sub(rss_at_start);
    // The cost model the corpus layer promises: the month cache holds at
    // most `cache_bytes`, and each replay worker transiently pins up to
    // two snapshot buffers of its own (the file buffer plus the `Vec`
    // being decoded from it, or the month it is evaluating plus the one
    // it is loading, both possibly already evicted from the cache). Everything else — rank vectors,
    // selections — is the slack.
    let max_snapshot_bytes = n_m0.max(scale.hosts_per_month + scale.hosts_per_month / 8) * 4 + 64;
    let rss_bound = cache_bytes + 4 * 2 * max_snapshot_bytes + RSS_SLACK_BYTES;
    if peak_reset {
        assert!(
            replay_rss_delta <= rss_bound,
            "bounded replay RSS {replay_rss_delta} exceeds cache ceiling {cache_bytes} \
             + 4 workers x 2 snapshots ({max_snapshot_bytes} each) + slack {RSS_SLACK_BYTES}"
        );
    }
    bench.record(
        "bounded_replay/x4",
        "s",
        bounded_replay,
        &[
            ("cache_bytes_ceiling", &cache_bytes),
            ("rss_delta_bytes", &replay_rss_delta),
            ("rss_bound_bytes", &rss_bound),
            // false when the kernel denies clear_refs
            ("rss_ceiling_asserted", &peak_reset),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    bench.finish();
}
