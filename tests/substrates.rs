//! Cross-crate substrate integration: pfx2as round trips through views,
//! blocklists derived from IANA data, snapshot persistence, and the
//! wire-level engine against a model-backed responder.

use std::sync::Arc;
use tass::bgp::{pfx2as, View, ViewKind};
use tass::core::ProbePlan;
use tass::model::{HostSet, Protocol, Snapshot};
use tass::net::{iana, Prefix, PrefixSet};
use tass::scan::{Blocklist, Responder, ScanConfig, ScanEngine, SimNetwork};

#[test]
fn pfx2as_to_views_to_attribution() {
    let text = "\
10.0.0.0\t8\t64500
10.64.0.0\t12\t64501
172.16.0.0\t12\t64502
";
    let table = pfx2as::read_table(text.as_bytes()).unwrap();
    let l = View::of(&table, ViewKind::LessSpecific);
    let m = View::of(&table, ViewKind::MoreSpecific);
    assert_eq!(l.len(), 2);
    // 10/8 splits into the /12 plus four remainder blocks (/9 /10 /11 /12),
    // and 172.16/12 stays whole
    assert_eq!(m.len(), 6);

    // Address in the m-prefix: l-view says /8, m-view says /12.
    let a = 0x0A40_0001;
    assert_eq!(
        l.unit(l.attribute(a).unwrap()).prefix.to_string(),
        "10.0.0.0/8"
    );
    assert_eq!(
        m.unit(m.attribute(a).unwrap()).prefix.to_string(),
        "10.64.0.0/12"
    );

    // Round-trip the table through the text format.
    let anns: Vec<_> = table
        .iter()
        .map(|(p, o)| tass::bgp::Announcement {
            prefix: *p,
            origin: o.clone(),
        })
        .collect();
    let text2 = pfx2as::write_str(&anns);
    let again = pfx2as::read_table(text2.as_bytes()).unwrap();
    assert_eq!(again.len(), table.len());
}

#[test]
fn iana_blocklist_protects_reserved_space() {
    let bl: Blocklist = Blocklist::iana_default();
    let reserved = iana::reserved_set();
    // every reserved range boundary is blocked
    for e in iana::special_purpose_registry() {
        assert!(bl.is_blocked(e.prefix.first()));
        assert!(bl.is_blocked(e.prefix.last()));
    }
    assert_eq!(bl.num_addrs(), reserved.num_addrs());
    // allocated space is never blocked
    let allocated = iana::allocated_set();
    let overlap = allocated.intersection(&reserved);
    assert!(overlap.is_empty());
}

#[test]
fn snapshot_binary_roundtrip_at_scale() {
    let addrs: Vec<u32> = (0..50_000u32).map(|i| i.wrapping_mul(85_733)).collect();
    let snap: Snapshot = Snapshot::new(Protocol::Cwmp, 4, HostSet::from_addrs(addrs));
    let encoded = snap.encode();
    assert_eq!(encoded.len(), 64 + 4 * snap.len());
    let decoded = Snapshot::decode(&encoded).unwrap();
    assert_eq!(decoded, snap);
}

#[test]
fn wire_level_engine_respects_blocklist_and_finds_hosts() {
    // hosts interleaved with a blocked sub-range
    let hosts: Vec<u32> = (0..512u32).map(|i| 0x0B00_0000 + i * 2).collect();
    let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
    let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
    let mut blocklist = Blocklist::empty();
    blocklist.block("11.0.1.0/24".parse::<Prefix>().unwrap());
    let plan = ProbePlan::Prefixes(vec!["11.0.0.0/22".parse::<Prefix>().unwrap()]);
    let cfg = ScanConfig::for_port(80)
        .unlimited_rate()
        .threads(3)
        .blocklist(blocklist)
        .banner_grab(true);
    let report = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
    assert_eq!(report.probes_sent, 1024 - 256);
    assert_eq!(report.blocked_skipped, 256);
    // hosts at even offsets: 512 total, 128 of them inside the blocked /24
    assert_eq!(report.responsive.len(), 384);
    assert!(report
        .responsive
        .iter()
        .all(|a| !(0x0B00_0100..0x0B00_0200).contains(&a)));
    assert_eq!(report.banners_grabbed, 384);
}

#[test]
fn prefix_set_algebra_spans_scopes() {
    // announced ⊆ allocated ⊆ full, and complement arithmetic closes
    let allocated = iana::allocated_set();
    let announced = PrefixSet::from_prefixes([
        "10.0.0.0/8".parse::<Prefix>().unwrap(), // reserved: will vanish
        "93.0.0.0/8".parse::<Prefix>().unwrap(),
    ]);
    let routable = announced.intersection(&allocated);
    assert_eq!(
        routable.num_addrs(),
        1 << 24,
        "10/8 is reserved, only 93/8 survives"
    );
    let dark = allocated.subtract(&routable);
    assert_eq!(
        dark.num_addrs() + routable.num_addrs(),
        allocated.num_addrs()
    );
}
