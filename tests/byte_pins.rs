//! Pins the exact bytes of every frame and snapshot encoding, in both
//! families. The other wire and snapshot tests are round trips or
//! self-checks (encode then parse, template vs full encode), so a change
//! that altered both sides of a round trip alike would pass them; these
//! FNV-1a-64 digests would not.
//!
//! Covered: a `SynTemplate` retargeted over a fixed target list, a
//! `FrameBuf::encode`d SYN, the SYN-ACK and RST a `Responder` answers to
//! it, and `Snapshot::encode` of fixed and empty snapshots.

use tass::model::{HostSet, Protocol, Snapshot};
use tass::net::{AddrFamily, V4, V6};
use tass::scan::wire::{self, FrameBuf, FrameSpec, SynTemplate, WireFamily};
use tass::scan::Responder;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Digests of (template sweep, SYN, SYN-ACK, RST) for one family. The
/// SYN goes to `open`, which answers on port 80; the RST comes from
/// `live`, which only answers on port 22.
fn frame_digests<F: WireFamily>(
    src: F::Addr,
    targets: &[(F::Addr, u16, u32)],
    open: F::Addr,
    live: F::Addr,
) -> [u64; 4] {
    let spec = FrameSpec::<F> {
        src_ip: src,
        dst_port: 80,
        ..FrameSpec::default()
    };
    let mut tmpl = SynTemplate::new(&spec);
    let mut sweep = FNV_OFFSET;
    for &(dst_ip, src_port, seq) in targets {
        tmpl.set_target(dst_ip, src_port, seq);
        sweep = fnv1a(sweep, tmpl.frame());
    }
    let responder: Responder<F> = Responder::new()
        .with_service(Protocol::Http, HostSet::from_addrs(vec![open]))
        .with_port(22, HostSet::from_addrs(vec![live]));
    let syn = FrameBuf::encode(&FrameSpec {
        dst_ip: open,
        src_port: 40000,
        seq: 0xDEAD_BEEF,
        ..spec
    });
    let probe = wire::parse_frame_for::<F>(&syn).expect("valid SYN");
    let syn_ack = responder.respond_frame(&probe).expect("open port answers");
    let to_live = FrameBuf::encode(&FrameSpec {
        dst_ip: live,
        src_port: 40001,
        seq: u32::MAX,
        ..spec
    });
    let probe = wire::parse_frame_for::<F>(&to_live).expect("valid SYN");
    let rst = responder.respond_frame(&probe).expect("live host answers");
    [
        sweep,
        fnv1a(FNV_OFFSET, &syn),
        fnv1a(FNV_OFFSET, &syn_ack),
        fnv1a(FNV_OFFSET, &rst),
    ]
}

fn snapshot_digest<F: AddrFamily>(month: u32, addrs: Vec<F::Addr>) -> u64 {
    let snap = Snapshot::new(Protocol::Https, month, HostSet::<F>::from_addrs(addrs));
    fnv1a(FNV_OFFSET, &snap.encode())
}

#[test]
fn encoded_frames_and_snapshots_match_their_pinned_digests() {
    let v4 = frame_digests::<V4>(
        0x0A00_0001,
        &[
            (0xC0A8_0001, 40000, 0xDEAD_BEEF),
            (0, 32768, 0),
            (u32::MAX, 60999, u32::MAX),
            (0x0808_0808, 50123, 1),
        ],
        0xC633_6401,
        0xC633_6402,
    );
    let v6 = frame_digests::<V6>(
        (0x2001_0db8u128 << 96) | 1,
        &[
            ((0x2600u128 << 112) | 0xBEEF, 40000, 0xDEAD_BEEF),
            (0, 32768, 0),
            (u128::MAX, 60999, u32::MAX),
            (1, 50123, 7),
        ],
        (0x2600u128 << 112) | 0x42,
        (0x2600u128 << 112) | 0x43,
    );
    let snaps = [
        snapshot_digest::<V4>(3, vec![0x0A00_0001, 0x0A00_0100, 0xC0A8_0001, u32::MAX]),
        snapshot_digest::<V4>(0, vec![]),
        snapshot_digest::<V6>(5, vec![1, (0x2001_0db8u128 << 96) | 7, u128::MAX]),
        snapshot_digest::<V6>(0, vec![]),
    ];
    let got = [v4.as_slice(), v6.as_slice(), snaps.as_slice()].concat();
    let names = [
        "v4 template sweep",
        "v4 SYN",
        "v4 SYN-ACK",
        "v4 RST",
        "v6 template sweep",
        "v6 SYN",
        "v6 SYN-ACK",
        "v6 RST",
        "v4 snapshot",
        "v4 empty snapshot",
        "v6 snapshot",
        "v6 empty snapshot",
    ];
    let want: [u64; 12] = [
        0x7A86_9915_115C_C809,
        0xA37C_685A_1070_FFF7,
        0xF776_F34D_55E6_DAE9,
        0xCFCC_974E_7D0E_E490,
        0xD166_3EE7_37D6_A368,
        0x3EAB_A968_4EFA_1703,
        0xAACA_9BB1_BC28_FB24,
        0x472C_0C1D_2451_14C5,
        0xBA95_EB8C_588F_9778,
        0x86E5_9B2A_6106_1864,
        0x1717_7B04_CDD5_12B7,
        0x70CD_4F61_C236_0AA5,
    ];
    let wrong: Vec<String> = names
        .iter()
        .zip(&got)
        .zip(&want)
        .filter(|((_, got), want)| got != want)
        .map(|((name, got), want)| format!("{name}: {got:#018X}, pinned {want:#018X}"))
        .collect();
    assert!(wrong.is_empty(), "encodings changed:\n{}", wrong.join("\n"));
}
