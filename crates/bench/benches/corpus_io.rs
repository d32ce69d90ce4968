//! Corpus I/O: the snapshot codec and the lazy month-load path.
//!
//! Three questions are measured, each in hosts/s:
//!
//! * **encode throughput**: serialising a host set to the binary
//!   snapshot format, per family (4-byte v4 vs 16-byte v6 addresses);
//! * **decode throughput**: parsing it back with full validation
//!   (magic/family check, strict address ordering);
//! * **month-load throughput**: what a replaying campaign actually
//!   pays per month: `CorpusGroundTruth::load_snapshot` from disk
//!   (decode + topology-agreement check) cold vs LRU-cached.

use std::hint::black_box;
use tass_bench::{time, Bench, Stats};
use tass_model::corpus::{export_universe, CorpusGroundTruth, CorpusOptions};
use tass_model::{GroundTruth, HostSet, Protocol, Snapshot, Universe, UniverseConfig};
use tass_net::{V4, V6};

const HOSTS: usize = 50_000;

fn v4_snapshot() -> Snapshot {
    let addrs: Vec<u32> = (0..HOSTS as u32).map(|i| i.wrapping_mul(85_733)).collect();
    Snapshot::new(Protocol::Http, 3, HostSet::from_addrs(addrs))
}

fn v6_snapshot() -> Snapshot<V6> {
    let addrs: Vec<u128> = (0..HOSTS as u128)
        .map(|i| (0x2600u128 << 112) | i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    Snapshot::new(Protocol::Http, 3, HostSet::from_addrs(addrs))
}

fn record(bench: &mut Bench, case: &str, hosts: u64, stats: Stats) {
    let rate = stats.map(|secs| hosts as f64 / secs);
    bench.record(case, "hosts/s", rate, &[("hosts", &hosts)]);
}

fn main() {
    let mut bench = Bench::new("corpus_io");
    let n = bench.samples();
    let hosts = HOSTS as u64;

    let v4 = v4_snapshot();
    record(
        &mut bench,
        "encode_v4",
        hosts,
        time(n, || black_box(&v4).encode()),
    );
    let v4_bytes = v4.encode();
    let decode = time(n, || {
        Snapshot::<V4>::decode(black_box(&v4_bytes)).expect("valid snapshot")
    });
    record(&mut bench, "decode_v4", hosts, decode);

    let v6 = v6_snapshot();
    record(
        &mut bench,
        "encode_v6",
        hosts,
        time(n, || black_box(&v6).encode()),
    );
    let v6_bytes = v6.encode();
    let decode = time(n, || {
        Snapshot::<V6>::decode(black_box(&v6_bytes)).expect("valid snapshot")
    });
    record(&mut bench, "decode_v6", hosts, decode);

    let dir = std::env::temp_dir().join(format!("tass-corpus-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let universe = Universe::generate(&UniverseConfig::small(0xBE9C));
    export_universe(&universe, &dir).expect("corpus export");
    let t0_hosts = universe.snapshot(0, Protocol::Http).len() as u64;

    // capacity 1 + alternating months ⇒ every load hits the disk path
    // (read + decode + topology check)
    let cold = CorpusGroundTruth::open_with(
        &dir,
        &CorpusOptions {
            cache_snapshots: 1,
            ..Default::default()
        },
    )
    .expect("corpus open");
    let mut month = 0u32;
    let cold_load = time(n, || {
        month = (month + 1) % 7;
        cold.load_snapshot(black_box(month), Protocol::Http)
            .expect("month loads")
    });
    record(&mut bench, "month_load_cold", t0_hosts, cold_load);

    // a warm cache serves pointer clones
    let warm = CorpusGroundTruth::open(&dir).expect("corpus open");
    warm.load_snapshot(0, Protocol::Http).expect("prime cache");
    let warm_load = time(n, || {
        warm.load_snapshot(black_box(0), Protocol::Http)
            .expect("cached month loads")
    });
    record(&mut bench, "month_load_warm", t0_hosts, warm_load);

    let _ = std::fs::remove_dir_all(&dir);
    bench.finish();
}
