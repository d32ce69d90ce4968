//! The corpus subsystem, end to end: export → replay equivalence, every
//! ingestion failure mode as a typed error, and property tests for the
//! family-generic snapshot codec.
//!
//! The contract this suite enforces:
//!
//! 1. Replaying an exported corpus through the `GroundTruth`-generic
//!    campaign layer is **byte-identical** (serialized JSON) to running
//!    the same strategies on the generating `Universe` — a corpus is
//!    just another source.
//! 2. Every malformed corpus a real ingestion pipeline can produce —
//!    empty directory, missing month, duplicate month, corrupt snapshot
//!    file, snapshots that disagree with their routing table — is a
//!    typed `CorpusError`, never a panic.
//! 3. `Snapshot::encode`/`decode` round-trip for both address families,
//!    and truncated/garbage/cross-family inputs fail with typed
//!    `DecodeError`s.

use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tass::bgp::{pfx2as, ViewKind};
use tass::core::campaign::{CampaignPool, CampaignResult};
use tass::core::strategy::StrategyKind;
use tass::model::corpus::{
    export_universe, parse_address_list_family, stream_address_list_to_snapshot, CorpusBuilder,
    CorpusError, CorpusGroundTruth, CorpusManifest, CorpusOptions, IngestOptions, MANIFEST_FILE,
};
use tass::model::snapshot::DecodeError;
use tass::model::{GroundTruth, HostSet, Protocol, Snapshot, Topology, Universe, UniverseConfig};
use tass::net::V6;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tass-corpus-it-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn universe() -> Universe {
    let mut cfg = UniverseConfig::small(0xC0B5);
    cfg.synth.l_prefix_count = 200;
    Universe::generate(&cfg)
}

fn to_json(results: &[CampaignResult]) -> String {
    results
        .iter()
        .map(|r| serde_json::to_string(r).expect("campaign results serialize"))
        .collect::<Vec<_>>()
        .join("\n")
}

// ------------------------------------------------------ replay equivalence

#[test]
fn replayed_corpus_matrix_is_byte_identical_to_direct() {
    let u = universe();
    let dir = tmp("equiv");
    export_universe(&u, &dir).unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();

    let kinds = [
        StrategyKind::FullScan,
        StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        },
        StrategyKind::IpHitlist,
        StrategyKind::RandomSample { fraction: 0.05 },
        StrategyKind::Block24Sample { fraction: 0.01 },
        StrategyKind::ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 3,
        },
        StrategyKind::AdaptiveTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            explore: 0.1,
        },
    ];
    for workers in [1usize, 4] {
        let pool = CampaignPool::new(workers);
        let direct = pool.run_matrix(&u, &kinds, 7);
        let replayed = pool.run_matrix(&corpus, &kinds, 7);
        assert_eq!(
            to_json(&direct),
            to_json(&replayed),
            "{workers} workers: replay must be byte-identical to direct"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corpus_replays_with_a_tiny_cache_and_from_many_threads() {
    // cache capacity 1 forces constant eviction/reload; results must not
    // change, and the shared corpus must serve a 8-worker pool
    let u = universe();
    let dir = tmp("cache");
    export_universe(&u, &dir).unwrap();
    let corpus = CorpusGroundTruth::open_with(
        &dir,
        &CorpusOptions {
            cache_snapshots: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let kinds = [
        StrategyKind::IpHitlist,
        StrategyKind::Tass {
            view: ViewKind::LessSpecific,
            phi: 1.0,
        },
    ];
    let direct = CampaignPool::serial().run_matrix(&u, &kinds, 3);
    let replayed = CampaignPool::new(8).run_matrix(&corpus, &kinds, 3);
    assert_eq!(to_json(&direct), to_json(&replayed));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn series_streams_lazily_through_the_trait() {
    let u = universe();
    let dir = tmp("series");
    export_universe(&u, &dir).unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    let series = corpus.series(Protocol::Cwmp).unwrap();
    assert_eq!(series.len(), 7);
    for (m, snap) in series.iter().enumerate() {
        assert_eq!(snap.month as usize, m);
        assert_eq!(&**snap, u.snapshot(m as u32, Protocol::Cwmp));
    }
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------- edge cases

#[test]
fn empty_directory_is_a_typed_error() {
    let dir = tmp("empty");
    // nonexistent directory
    assert!(matches!(
        CorpusGroundTruth::open(&dir),
        Err(CorpusError::Io { .. })
    ));
    // existing but empty directory (no manifest)
    fs::create_dir_all(&dir).unwrap();
    let err = CorpusGroundTruth::open(&dir).unwrap_err();
    assert!(matches!(err, CorpusError::Io { ref path, .. }
        if path.ends_with(MANIFEST_FILE)));
    assert!(!err.to_string().is_empty());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_month_in_the_manifest_is_a_typed_error() {
    let u = universe();
    let dir = tmp("missing-month");
    export_universe(&u, &dir).unwrap();
    // drop month 3 of HTTP from the manifest
    let path = dir.join(MANIFEST_FILE);
    let text = fs::read_to_string(&path).unwrap();
    let filtered: String = text
        .lines()
        .filter(|l| !l.starts_with("snapshot 3 http "))
        .map(|l| format!("{l}\n"))
        .collect();
    fs::write(&path, filtered).unwrap();
    assert!(matches!(
        CorpusGroundTruth::open(&dir),
        Err(CorpusError::MissingMonth {
            month: 3,
            protocol: Protocol::Http
        })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_month_is_a_typed_error_in_manifest_and_builder() {
    let u = universe();
    let dir = tmp("dup");
    export_universe(&u, &dir).unwrap();
    // duplicate a manifest line
    let path = dir.join(MANIFEST_FILE);
    let mut text = fs::read_to_string(&path).unwrap();
    let dup_line = text
        .lines()
        .find(|l| l.starts_with("snapshot 2 ftp "))
        .unwrap()
        .to_string();
    text.push_str(&dup_line);
    text.push('\n');
    fs::write(&path, text).unwrap();
    assert!(matches!(
        CorpusGroundTruth::open(&dir),
        Err(CorpusError::DuplicateSnapshot {
            month: 2,
            protocol: Protocol::Ftp
        })
    ));
    let _ = fs::remove_dir_all(&dir);

    // and the builder refuses a second claim on the same cell
    let dir = tmp("dup-builder");
    let table = pfx2as::read_table("10.0.0.0\t8\t64500\n".as_bytes()).unwrap();
    let mut b = CorpusBuilder::create(&dir, &table).unwrap();
    let snap = Snapshot::new(Protocol::Http, 0, HostSet::from_addrs(vec![0x0A00_0001]));
    b.add_snapshot(&snap).unwrap();
    assert!(matches!(
        b.add_snapshot(&snap),
        Err(CorpusError::DuplicateSnapshot {
            month: 0,
            protocol: Protocol::Http
        })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_file_is_a_typed_error() {
    let u = universe();
    let dir = tmp("corrupt");
    export_universe(&u, &dir).unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    // truncate one snapshot file mid-payload
    let snap_path = dir.join("snapshots/m4-https.snap");
    let bytes = fs::read(&snap_path).unwrap();
    fs::write(&snap_path, &bytes[..bytes.len() - 3]).unwrap();
    assert!(matches!(
        corpus.load_snapshot(4, Protocol::Https),
        Err(CorpusError::Decode {
            source: DecodeError::Truncated,
            ..
        })
    ));
    // garbage instead of a snapshot
    fs::write(&snap_path, b"not a snapshot at all").unwrap();
    assert!(matches!(
        corpus.load_snapshot(4, Protocol::Https),
        Err(CorpusError::Decode {
            source: DecodeError::BadMagic,
            ..
        })
    ));
    // validate() surfaces the same error eagerly
    assert!(matches!(corpus.validate(), Err(CorpusError::Decode { .. })));
    // …while intact months still load
    assert!(corpus.load_snapshot(4, Protocol::Http).is_ok());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn swapped_snapshot_file_is_a_header_mismatch() {
    let u = universe();
    let dir = tmp("swapped");
    export_universe(&u, &dir).unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    // point month 1's slot at month 2's file by overwriting the bytes
    let m2 = fs::read(dir.join("snapshots/m2-http.snap")).unwrap();
    fs::write(dir.join("snapshots/m1-http.snap"), m2).unwrap();
    assert!(matches!(
        corpus.load_snapshot(1, Protocol::Http),
        Err(CorpusError::SnapshotHeaderMismatch {
            expected_month: 1,
            found_month: 2,
            ..
        })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn topology_that_disagrees_with_snapshots_is_a_typed_error() {
    let u = universe();
    let dir = tmp("mismatch");
    export_universe(&u, &dir).unwrap();
    // replace the routing table with one announcing unrelated space:
    // every snapshot host is now outside announced space
    fs::write(dir.join("topology.pfx2as"), "198.18.0.0\t15\t64500\n").unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    let err = corpus.load_snapshot(0, Protocol::Http).unwrap_err();
    assert!(
        matches!(
            err,
            CorpusError::TopologyMismatch {
                month: 0,
                protocol: Protocol::Http,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(err.to_string().contains("announced space"));
    assert!(corpus.validate().is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn manifest_parse_errors_carry_line_context() {
    let cases: [(&str, &str); 4] = [
        ("", "empty manifest"),
        ("not-a-corpus\n", "header"),
        ("tass-corpus 1\nwibble 3\n", "unknown directive"),
        (
            "tass-corpus 1\nmonths 0\nprotocols http http\ntopology t\n",
            "twice",
        ),
    ];
    for (text, needle) in cases {
        let err = CorpusManifest::parse(text).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "{text:?}: expected {needle:?} in {msg:?}"
        );
    }
    assert!(matches!(
        CorpusManifest::parse("tass-corpus 9\nmonths 0\n"),
        Err(CorpusError::UnsupportedVersion(9))
    ));
}

#[test]
fn builder_finish_requires_a_full_matrix() {
    let dir = tmp("incomplete");
    let table = pfx2as::read_table("10.0.0.0\t8\t64500\n".as_bytes()).unwrap();
    let mut b = CorpusBuilder::create(&dir, &table).unwrap();
    // month 0 and 2 present, month 1 missing
    for month in [0u32, 2] {
        b.add_snapshot(&Snapshot::new(
            Protocol::Http,
            month,
            HostSet::from_addrs(vec![0x0A00_0001 + month]),
        ))
        .unwrap();
    }
    assert!(matches!(
        b.finish(),
        Err(CorpusError::MissingMonth {
            month: 1,
            protocol: Protocol::Http
        })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn topology_check_holds_at_the_edges_of_an_l_prefix_with_a_more_specific() {
    // one l-prefix (the /22) that the m-view splits around its /24
    // more-specific, so the two views have different units over the
    // same space; the load-time check sweeps the l-view
    let dir = tmp("edges");
    let table =
        pfx2as::read_table("10.0.0.0\t22\t64500\n10.0.1.0\t24\t64501\n".as_bytes()).unwrap();
    let mut b = CorpusBuilder::create(&dir, &table).unwrap();
    // the /22's first and last address, then one address past each edge
    b.add_address_list(0, Protocol::Http, "10.0.0.0\n10.0.3.255\n")
        .unwrap();
    b.add_address_list(1, Protocol::Http, "10.0.0.0\n10.0.3.255\n10.0.4.0\n")
        .unwrap();
    b.add_address_list(2, Protocol::Http, "9.255.255.255\n10.0.0.0\n")
        .unwrap();
    b.finish().unwrap();

    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    let topo = corpus.topology();
    assert_eq!(topo.l_view.len(), 1);
    assert_eq!(
        topo.m_view.len(),
        3,
        "10.0.0.0/24, 10.0.1.0/24, 10.0.2.0/23"
    );
    let t0 = corpus.load_snapshot(0, Protocol::Http).unwrap();
    assert_eq!(t0.hosts.to_vec(), vec![0x0A00_0000, 0x0A00_03FF]);
    for (month, addr) in [(1, "10.0.4.0"), (2, "9.255.255.255")] {
        match corpus.load_snapshot(month, Protocol::Http).unwrap_err() {
            CorpusError::TopologyMismatch {
                month: m,
                protocol: Protocol::Http,
                addr: named,
            } => assert_eq!((m, named.as_str()), (month, addr)),
            err => panic!("month {month}: got {err:?}"),
        }
    }
    assert!(corpus.validate().is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn both_views_cover_the_same_announced_space() {
    // the l-view sweep is a valid topology check only because the two
    // views partition the same space
    let u = universe();
    let synthetic = u.topology();
    assert!(synthetic.m_view.len() > synthetic.l_view.len());
    assert_eq!(
        synthetic.l_view.total_space(),
        synthetic.m_view.total_space()
    );

    let dir = tmp("views");
    export_universe(&u, &dir).unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    let built = corpus.topology();
    assert_eq!(built.l_view.total_space(), built.m_view.total_space());
    assert_eq!(built.l_view.total_space(), synthetic.l_view.total_space());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn address_list_ingestion_round_trips() {
    let dir = tmp("ingest");
    let table = pfx2as::read_table("10.0.0.0\t8\t64500\n".as_bytes()).unwrap();
    let mut b = CorpusBuilder::create(&dir, &table).unwrap();
    b.add_address_list(0, Protocol::Http, "10.0.0.1\n10.0.0.2 # web\n")
        .unwrap();
    b.add_address_list(1, Protocol::Http, "10.0.0.2\n10.9.9.9\n")
        .unwrap();
    // a bad list is rejected with line context, and claims no cell
    let err = b
        .add_address_list(2, Protocol::Http, "10.0.0.1\nbogus\n")
        .unwrap_err();
    let CorpusError::AddressList(e) = err else {
        panic!("expected AddressList error");
    };
    assert_eq!((e.line, e.text.as_str()), (2, "bogus"));
    b.add_address_list(2, Protocol::Http, "10.0.0.5\n").unwrap();
    b.finish().unwrap();

    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    assert_eq!(GroundTruth::months(&corpus), 2);
    assert_eq!(corpus.protocols(), vec![Protocol::Http]);
    let t0 = corpus.load_snapshot(0, Protocol::Http).unwrap();
    assert_eq!(t0.hosts.to_vec(), vec![0x0A00_0001, 0x0A00_0002]);
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------ bounded cache / aligned decode

#[test]
fn byte_ceiling_eviction_is_invisible_to_replay_at_any_worker_count() {
    // a byte ceiling that holds ~2 of the 28 snapshots forces constant
    // eviction; replay must stay byte-identical to the direct run from
    // serial through 8 concurrent workers
    let u = universe();
    let dir = tmp("ceiling");
    export_universe(&u, &dir).unwrap();
    let max_snap_bytes = (0..=u.months())
        .flat_map(|m| Protocol::ALL.iter().map(move |&p| (m, p)))
        .map(|(m, p)| u.snapshot(m, p).len() * 4 + 64)
        .max()
        .unwrap();
    let opts = CorpusOptions {
        cache_snapshots: usize::MAX,
        cache_bytes: Some(2 * max_snap_bytes),
    };
    let kinds = [
        StrategyKind::IpHitlist,
        StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        },
        StrategyKind::ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 2,
        },
    ];
    let direct = CampaignPool::serial().run_matrix(&u, &kinds, 11);
    for workers in [1usize, 4, 8] {
        let corpus = CorpusGroundTruth::open_with(&dir, &opts).unwrap();
        let replayed = CampaignPool::new(workers).run_matrix(&corpus, &kinds, 11);
        assert_eq!(
            to_json(&direct),
            to_json(&replayed),
            "{workers} workers under a {}-byte ceiling",
            2 * max_snap_bytes
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A source that counts `load_snapshot` calls on the corpus it wraps.
struct CountingLoads {
    inner: CorpusGroundTruth,
    loads: AtomicUsize,
}

impl CountingLoads {
    fn take(&self) -> usize {
        self.loads.swap(0, Ordering::Relaxed)
    }
}

impl GroundTruth for CountingLoads {
    fn topology(&self) -> &Topology {
        self.inner.topology()
    }
    fn months(&self) -> u32 {
        self.inner.months()
    }
    fn protocols(&self) -> Vec<Protocol> {
        self.inner.protocols()
    }
    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.inner.load_snapshot(month, protocol)
    }
}

#[test]
fn matrix_loads_each_month_once_per_unit_not_once_per_campaign() {
    // The byte ceiling holds ~2 of a protocol's 7 months, so a month
    // cache can never serve a campaign walking months 0..=6 after
    // another; only running a protocol's campaigns in lockstep shares
    // the loads. Driving one campaign at a time would make 12 × 8 = 96
    // calls here (t₀ twice, then each month); lockstep units make one per
    // month.
    let u = universe();
    let dir = tmp("loads");
    export_universe(&u, &dir).unwrap();
    let max_snap_bytes = (0..=u.months())
        .flat_map(|m| Protocol::ALL.iter().map(move |&p| (m, p)))
        .map(|(m, p)| u.snapshot(m, p).len() * 4 + 64)
        .max()
        .unwrap();
    let opts = CorpusOptions {
        cache_snapshots: usize::MAX,
        cache_bytes: Some(2 * max_snap_bytes),
    };
    let source = CountingLoads {
        inner: CorpusGroundTruth::open_with(&dir, &opts).unwrap(),
        loads: AtomicUsize::new(0),
    };
    let kinds = [
        StrategyKind::Tass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
        },
        StrategyKind::ReseedingTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            delta_t: 3,
        },
        StrategyKind::AdaptiveTass {
            view: ViewKind::MoreSpecific,
            phi: 0.95,
            explore: 0.02,
        },
    ];
    let direct = to_json(&CampaignPool::serial().run_matrix(&u, &kinds, 13));
    let protocols = source.protocols().len();
    let months = source.months() as usize + 1;

    let serial = CampaignPool::serial().run_matrix(&source, &kinds, 13);
    assert_eq!(to_json(&serial), direct, "replay == direct");
    assert_eq!(
        source.take(),
        protocols * months,
        "one load per protocol-month"
    );
    assert_eq!(protocols * months, 28);

    // a pool of several workers makes every campaign a unit of its own,
    // so it loads at most one month per campaign-month (t₀ doubling as
    // month 0), however its workers interleave
    let units = protocols * kinds.len();
    for workers in 2..=8 {
        let pooled = CampaignPool::new(workers).run_matrix(&source, &kinds, 13);
        assert_eq!(to_json(&pooled), direct, "{workers} workers");
        let loads = source.take();
        assert!(
            loads <= units * months,
            "{workers} workers: {loads} loads for {units} units"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_snapshot_layout_is_a_typed_error_naming_the_file() {
    // bad snapshot files fail decode with typed errors that carry the
    // offending path: truncation inside the address section, a section
    // offset pointing into the header, one past the end of the file, and
    // a file in the retired v1 layout
    let u = universe();
    let dir = tmp("bad-layout");
    export_universe(&u, &dir).unwrap();
    let path = dir.join("snapshots/m2-http.snap");
    let pristine = fs::read(&path).unwrap();
    assert_eq!(pristine[4], 2, "export writes the aligned layout");

    // cut mid-section
    fs::write(&path, &pristine[..pristine.len() - 2]).unwrap();
    let corpus = CorpusGroundTruth::open(&dir).unwrap();
    let err = corpus.load_snapshot(2, Protocol::Http).unwrap_err();
    let CorpusError::Decode {
        path: ref err_path,
        source: DecodeError::Truncated,
    } = err
    else {
        panic!("expected Decode/Truncated, got {err:?}");
    };
    assert!(err_path.ends_with("snapshots/m2-http.snap"));
    assert!(err.to_string().contains("m2-http.snap"), "{err}");

    // section offset inside the header
    let mut bad = pristine.clone();
    bad[18..22].copy_from_slice(&8u32.to_le_bytes());
    fs::write(&path, &bad).unwrap();
    assert!(matches!(
        corpus.load_snapshot(2, Protocol::Http),
        Err(CorpusError::Decode {
            source: DecodeError::BadSection(8),
            ..
        })
    ));

    // section offset past the end of the file
    let mut bad = pristine.clone();
    bad[18..22].copy_from_slice(&(pristine.len() as u32 + 64).to_le_bytes());
    fs::write(&path, &bad).unwrap();
    assert!(matches!(
        corpus.load_snapshot(2, Protocol::Http),
        Err(CorpusError::Decode {
            source: DecodeError::Truncated,
            ..
        })
    ));

    // v1 layout: version byte 1, address section right after an
    // 18-byte header
    let v1 = [&pristine[..4], &[1], &pristine[5..18], &pristine[64..]].concat();
    fs::write(&path, &v1).unwrap();
    let err = corpus.load_snapshot(2, Protocol::Http).unwrap_err();
    let CorpusError::Decode {
        path: ref err_path,
        source: DecodeError::BadVersion(1),
    } = err
    else {
        panic!("expected Decode/BadVersion(1), got {err:?}");
    };
    assert_eq!(err_path, &path);
    assert!(err.to_string().contains("m2-http.snap"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

// ------------------------------------------------------- codec properties

proptest! {
    #[test]
    fn v4_snapshot_roundtrip(
        addrs in proptest::collection::vec(any::<u32>(), 0..200),
        month in any::<u32>(),
        ptag in 0usize..4,
    ) {
        let snap: Snapshot = Snapshot::new(
            Protocol::from_index(ptag).unwrap(),
            month,
            HostSet::from_addrs(addrs),
        );
        let bytes = snap.encode();
        prop_assert_eq!(bytes.len(), 64 + 4 * snap.len());
        prop_assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn v6_snapshot_roundtrip(
        addrs in proptest::collection::vec(any::<u128>(), 0..100),
        month in any::<u32>(),
        ptag in 0usize..4,
    ) {
        let snap: Snapshot<V6> = Snapshot::new(
            Protocol::from_index(ptag).unwrap(),
            month,
            HostSet::from_addrs(addrs),
        );
        let bytes = snap.encode();
        prop_assert_eq!(bytes.len(), 64 + 16 * snap.len());
        prop_assert_eq!(Snapshot::<V6>::decode(&bytes).unwrap(), snap);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error_both_families(
        addrs in proptest::collection::vec(any::<u32>(), 1..50),
        cut_frac in 0.0f64..1.0,
    ) {
        let v4: Snapshot = Snapshot::new(Protocol::Http, 1, HostSet::from_addrs(addrs.clone()));
        let bytes = v4.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // < len
        prop_assert_eq!(
            Snapshot::<tass::net::V4>::decode(&bytes[..cut]),
            Err(DecodeError::Truncated)
        );

        let v6: Snapshot<V6> = Snapshot::new(
            Protocol::Http,
            1,
            HostSet::from_addrs(addrs.iter().map(|&a| u128::from(a) << 64).collect()),
        );
        let bytes6 = v6.encode();
        let cut6 = ((bytes6.len() as f64) * cut_frac) as usize;
        prop_assert_eq!(
            Snapshot::<V6>::decode(&bytes6[..cut6]),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn garbage_never_panics_either_family(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // any error is fine; decoding must be total
        let _ = Snapshot::<tass::net::V4>::decode(&bytes);
        let _ = Snapshot::<V6>::decode(&bytes);
    }

    #[test]
    fn single_byte_corruption_is_detected_or_harmless(
        addrs in proptest::collection::vec(any::<u32>(), 1..30),
        pos_frac in 0.0f64..1.0,
        delta in 1u8..=255,
    ) {
        let snap: Snapshot = Snapshot::new(Protocol::Https, 2, HostSet::from_addrs(addrs));
        let mut bytes = snap.encode().to_vec();
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] = bytes[pos].wrapping_add(delta);
        match Snapshot::<tass::net::V4>::decode(&bytes) {
            // corrupted month / address bytes can still be a structurally
            // valid snapshot — but it must parse without panicking…
            Ok(_) => {}
            // …or fail with a typed error
            Err(
                DecodeError::BadMagic
                | DecodeError::WrongFamily { .. }
                | DecodeError::BadVersion(_)
                | DecodeError::BadProtocol(_)
                | DecodeError::BadSection(_)
                | DecodeError::Truncated
                | DecodeError::Unsorted,
            ) => {}
        }
    }

    #[test]
    fn v6_address_lists_roundtrip_through_text(
        addrs in proptest::collection::vec(any::<u128>(), 0..40),
    ) {
        let hosts: HostSet<V6> = HostSet::from_addrs(addrs);
        let text: String = hosts
            .iter()
            .map(|a| format!("{}\n", std::net::Ipv6Addr::from(a)))
            .collect();
        let parsed = parse_address_list_family::<V6>(&text).unwrap();
        prop_assert_eq!(parsed, hosts);
    }

    /// Chunked streaming ingestion is observationally identical to the
    /// one-shot parser for any input shape — duplicates across chunk
    /// boundaries, comments, blank lines — at any worker count and any
    /// chunk size (including chunks of one line, the worst case for the
    /// spill-and-merge path).
    #[test]
    fn chunked_ingestion_matches_the_one_shot_parser(
        addrs in proptest::collection::vec(any::<u32>(), 0..120),
        workers in 1usize..5,
        chunk_lines in 1usize..40,
        seed in any::<u64>(),
    ) {
        let mut text = String::new();
        for (i, a) in addrs.iter().enumerate() {
            // deterministic junk interleaved with the addresses
            if (seed >> (i % 48)) & 1 == 1 {
                text.push_str("# comment\n\n");
            }
            text.push_str(&format!("{}\n", std::net::Ipv4Addr::from(*a)));
            if (seed >> (i % 37)) & 2 == 2 {
                // duplicate the line so dedup crosses chunk boundaries
                text.push_str(&format!("{}\n", std::net::Ipv4Addr::from(*a)));
            }
        }
        let dir = tmp(&format!("chunked-{workers}-{chunk_lines}-{seed:x}"));
        fs::create_dir_all(&dir).unwrap();
        let input = dir.join("list.txt");
        fs::write(&input, &text).unwrap();
        let out = dir.join("m0-http.snap");
        let opts = IngestOptions { workers, chunk_lines };
        let count =
            stream_address_list_to_snapshot::<tass::net::V4>(&input, &out, 3, Protocol::Http, &opts)
                .unwrap();

        let want = parse_address_list_family::<tass::net::V4>(&text).unwrap();
        prop_assert_eq!(count, want.len() as u64);
        let bytes = fs::read(&out).unwrap();
        let snap: Snapshot = Snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(&snap.hosts, &want);
        prop_assert_eq!((snap.month, snap.protocol), (3, Protocol::Http));
        let _ = fs::remove_dir_all(&dir);
    }
}
