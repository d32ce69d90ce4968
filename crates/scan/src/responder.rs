//! The simulated far end: hosts answering probes.
//!
//! A [`Responder`] represents "the Internet" as seen by the scanner: it
//! owns, per TCP port, the ground-truth set of addresses that complete a
//! handshake (taken from a `tass-model` snapshot), answers SYNs with
//! SYN-ACKs (open), RSTs (live host, closed port) or silence (no host),
//! and serves protocol banners for the banner-grab phase.
//!
//! ## Block-indexed membership
//!
//! Every probe asks "is this address in the port's host set?", and most
//! of the answers are no. Each port therefore keeps a small
//! open-addressed index over its host set, built once when the port is
//! registered: every occupied 256-address block (`addr >> 8`) maps to the
//! range its hosts take up in the shared sorted [`HostSet`]. A
//! membership test hashes the probe's block and answers `false` at an
//! empty slot (a block with no hosts), or binary-searches only the
//! block's hosts. A TASS plan probes dense prefixes, so most probes land
//! in occupied blocks: the index cuts their search from `log2` of the
//! whole set to `log2` of one block (about 13 steps to about 4 at
//! perfbench `scan`'s shape). The host set itself is shared, not copied,
//! and the index costs one 8-byte slot per occupied block at a load
//! factor of at most 2/3.

use crate::siphash::SipHash24;
use crate::wire::{self, tcp_flags, FrameBuf, TcpFrame, WireFamily};
use tass_model::{HostSet, Protocol};
use tass_net::{AddrFamily, V4};

/// Fold an address of any family into 64 bits for hashing; the v4 value
/// is the address itself, so pre-generic hashes are reproduced exactly.
#[inline]
pub(crate) fn addr_hash64<F: AddrFamily>(addr: F::Addr) -> u64 {
    let a = F::addr_to_u128(addr);
    (a as u64) ^ ((a >> 64) as u64)
}

/// The key of the responder's ISNs and banner variants.
const RESPONDER_KEY: SipHash24 = SipHash24::new(0x7E57_AB1E, 0x5EED);

/// Answers probes from ground-truth host sets, generic over the address
/// family. Both probe paths are family-generic: the wire-level
/// [`Responder::respond_frame`] answers parsed frames of any [`WireFamily`]
/// (IPv4 and IPv6 alike), and the logical path — open/live/banner —
/// needs only the [`AddrFamily`]. Every membership test goes through the
/// port's block index (see the module docs).
#[derive(Debug, Default)]
pub struct Responder<F: AddrFamily = V4> {
    /// One entry per registered port, sorted by port: a flat table a
    /// probe scans without walking a map (responders hold a few ports)
    ports: Vec<PortEntry<F>>,
}

/// The hosts answering on one port.
#[derive(Debug)]
struct PortEntry<F: AddrFamily> {
    port: u16,
    hosts: HostSet<F>,
    /// Where each occupied block's hosts sit in `hosts`
    blocks: BlockIndex,
    /// The service protocol, for banner synthesis (`None` for a bare port)
    protocol: Option<Protocol>,
}

impl<F: AddrFamily> PortEntry<F> {
    #[inline]
    fn contains(&self, addr: F::Addr) -> bool {
        self.blocks.contains::<F>(self.hosts.as_slice(), addr)
    }
}

/// A block's hosts: the range `[lo, hi)` of the sorted host list. An
/// empty range marks an empty slot.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    lo: u32,
    hi: u32,
}

/// An open-addressed (linear probing) map from each occupied
/// 256-address block of a sorted host list to its [`Span`]. A slot does
/// not store its block: the block of the span's first host is the key,
/// and reading that host is the first step of the search anyway.
#[derive(Debug)]
struct BlockIndex {
    /// A power-of-two table with at least one empty slot, so every
    /// probe sequence ends
    slots: Box<[Span]>,
    /// `64 − log2(slots.len())`: the home slot is the top bits of a
    /// Fibonacci hash of the block
    shift: u32,
}

/// The 256-address block of an address.
#[inline]
fn block_of<F: AddrFamily>(addr: F::Addr) -> u128 {
    F::addr_to_u128(addr) >> 8
}

/// A sorted host list cut into its blocks' runs.
fn block_runs<F: AddrFamily>(hosts: &[F::Addr]) -> impl Iterator<Item = &[F::Addr]> {
    hosts.chunk_by(|a, b| block_of::<F>(*a) == block_of::<F>(*b))
}

impl BlockIndex {
    /// Index a sorted, duplicate-free host list at a load factor of at
    /// most 2/3.
    fn new<F: AddrFamily>(hosts: &[F::Addr]) -> BlockIndex {
        let blocks = block_runs::<F>(hosts).count();
        let bits = (blocks + blocks / 2 + 1)
            .next_power_of_two()
            .trailing_zeros();
        BlockIndex::with_bits::<F>(hosts, bits.max(1))
    }

    /// Index `hosts` in a table of `2^bits` slots, more than there are
    /// blocks.
    fn with_bits<F: AddrFamily>(hosts: &[F::Addr], bits: u32) -> BlockIndex {
        assert!(
            u32::try_from(hosts.len()).is_ok(),
            "a responder port holds fewer than 2^32 hosts"
        );
        let mut index = BlockIndex {
            slots: vec![Span::default(); 1 << bits].into_boxed_slice(),
            shift: 64 - bits,
        };
        let mask = index.slots.len() - 1;
        let mut lo = 0;
        for (placed, run) in block_runs::<F>(hosts).enumerate() {
            assert!(placed < mask, "a block index keeps an empty slot");
            let mut i = index.home(block_of::<F>(run[0]));
            while index.slots[i].lo != index.slots[i].hi {
                i = (i + 1) & mask;
            }
            let hi = lo + run.len();
            index.slots[i] = Span {
                lo: lo as u32,
                hi: hi as u32,
            };
            lo = hi;
        }
        index
    }

    #[inline]
    fn home(&self, block: u128) -> usize {
        let folded = (block as u64) ^ ((block >> 64) as u64);
        (folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Is `addr` in `hosts`, the list this index was built over?
    #[inline]
    fn contains<F: AddrFamily>(&self, hosts: &[F::Addr], addr: F::Addr) -> bool {
        let block = block_of::<F>(addr);
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let Span { lo, hi } = self.slots[i];
            if lo == hi {
                return false;
            }
            let run = &hosts[lo as usize..hi as usize];
            if block_of::<F>(run[0]) == block {
                return run.binary_search(&addr).is_ok();
            }
            i = (i + 1) & mask;
        }
    }
}

impl<F: AddrFamily> Responder<F> {
    /// An empty responder (no hosts anywhere).
    pub fn new() -> Responder<F> {
        Responder::default()
    }

    /// Register a protocol's responsive host set on its well-known port.
    pub fn with_service(mut self, protocol: Protocol, hosts: HostSet<F>) -> Responder<F> {
        self.entry(protocol.port(), hosts).protocol = Some(protocol);
        self
    }

    /// Register hosts on an arbitrary port (no banner synthesis).
    pub fn with_port(mut self, port: u16, hosts: HostSet<F>) -> Responder<F> {
        self.entry(port, hosts);
        self
    }

    /// Set `port`'s host set and build its block index, keeping the
    /// port's protocol if it has one.
    fn entry(&mut self, port: u16, hosts: HostSet<F>) -> &mut PortEntry<F> {
        let blocks = BlockIndex::new::<F>(hosts.as_slice());
        let i = match self.ports.binary_search_by_key(&port, |e| e.port) {
            Ok(i) => {
                self.ports[i].hosts = hosts;
                self.ports[i].blocks = blocks;
                i
            }
            Err(i) => {
                let entry = PortEntry {
                    port,
                    hosts,
                    blocks,
                    protocol: None,
                };
                self.ports.insert(i, entry);
                i
            }
        };
        &mut self.ports[i]
    }

    /// The entry of `port`, if any hosts are registered on it.
    fn port(&self, port: u16) -> Option<&PortEntry<F>> {
        self.ports.iter().find(|e| e.port == port)
    }

    /// Does `addr` answer on `port`?
    #[inline]
    pub fn is_open(&self, addr: F::Addr, port: u16) -> bool {
        self.port(port).is_some_and(|e| e.contains(addr))
    }

    /// How `addr` answers a SYN to `port`: `Some(true)` open (SYN-ACK),
    /// `Some(false)` a live host with the port closed (RST), `None`
    /// silence. Each port's index is searched at most once: after the
    /// probed port's misses, liveness checks only the other ports'.
    #[inline]
    pub(crate) fn syn_answer(&self, addr: F::Addr, port: u16) -> Option<bool> {
        if self.is_open(addr, port) {
            return Some(true);
        }
        self.ports
            .iter()
            .any(|e| e.port != port && e.contains(addr))
            .then_some(false)
    }

    /// The banner an open service would present, `None` if closed. The
    /// variant is a deterministic function of the address, so repeated
    /// grabs are stable.
    pub fn banner(&self, addr: F::Addr, port: u16) -> Option<&'static str> {
        let entry = self.port(port)?;
        if !entry.contains(addr) {
            return None;
        }
        let proto = entry.protocol?;
        let variant = (RESPONDER_KEY.hash_u64(addr_hash64::<F>(addr)) & 0xFF) as u8;
        Some(proto.banner(variant))
    }
}

/// The initial sequence number of an open `addr:port`: the digest of
/// the address's little-endian bytes followed by the port as 4
/// little-endian bytes (8 bytes for v4, one word; 20 for v6, two words
/// and a 4-byte tail).
#[inline]
fn isn<F: AddrFamily>(addr: F::Addr, port: u16) -> u32 {
    let a = F::addr_to_u128(addr);
    let port = u64::from(port);
    let h = if F::BITS == 32 {
        RESPONDER_KEY.hash_words(&[a as u64 | port << 32], 8 << 56)
    } else {
        RESPONDER_KEY.hash_words(&[a as u64, (a >> 64) as u64], 20 << 56 | port)
    };
    h as u32
}

impl<F: WireFamily> Responder<F> {
    /// Answer a parsed probe frame into stack storage: SYN-ACK for open,
    /// RST+ACK from a live host with the port closed, silence otherwise.
    /// Non-SYN segments are ignored (the simulated hosts are stateless).
    /// The answer is built by the probe's own wire codec, so a v6
    /// responder emits genuine 74-byte v6 frames. Nothing here touches
    /// the heap.
    pub fn respond_frame(&self, probe: &TcpFrame<F>) -> Option<FrameBuf> {
        if probe.flags & tcp_flags::SYN == 0 || probe.flags & tcp_flags::ACK != 0 {
            return None;
        }
        if self.syn_answer(probe.dst_ip, probe.dst_port)? {
            // deterministic per-(host, port) initial sequence number
            let isn = isn::<F>(probe.dst_ip, probe.dst_port);
            Some(FrameBuf::encode(&wire::syn_ack_spec(probe, isn)))
        } else {
            Some(FrameBuf::encode(&wire::rst_spec(probe)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{build_syn, parse_frame};

    fn responder() -> Responder {
        Responder::new()
            .with_service(Protocol::Http, HostSet::from_addrs(vec![100, 200]))
            .with_service(Protocol::Ftp, HostSet::from_addrs(vec![100]))
    }

    /// Is `addr` a live host on any registered port? Read from the host
    /// sets themselves, bypassing the block indexes: the oracle of
    /// [`Responder::syn_answer`].
    fn is_live<F: AddrFamily>(r: &Responder<F>, addr: F::Addr) -> bool {
        r.ports.iter().any(|e| e.hosts.contains(addr))
    }

    /// `syn_answer` and `is_open` agree with the host sets on `port`.
    fn check_answers<F: AddrFamily>(r: &Responder<F>, addr: F::Addr, ports: &[u16]) {
        for &port in ports {
            let open = r.port(port).is_some_and(|e| e.hosts.contains(addr));
            assert_eq!(r.is_open(addr, port), open, "{addr:?}:{port}");
            let want = if open {
                Some(true)
            } else {
                is_live(r, addr).then_some(false)
            };
            assert_eq!(r.syn_answer(addr, port), want, "{addr:?}:{port}");
        }
    }

    #[test]
    fn open_closed_dead() {
        let r = responder();
        assert!(r.is_open(100, 80));
        assert!(r.is_open(100, 21));
        assert!(!r.is_open(200, 21));
        assert_eq!(r.syn_answer(200, 21), Some(false), "live, port closed");
        assert_eq!(r.syn_answer(300, 21), None, "dead");
    }

    #[test]
    fn syn_answer_is_open_then_live() {
        let r = responder().with_port(22, HostSet::from_addrs(vec![300]));
        for addr in [100, 200, 300, 400] {
            check_answers(&r, addr, &[21, 22, 80, 443]);
        }
    }

    /// A responder over `http` on port 80 and `ssh` on 22, probed at
    /// every host, each host's neighbours and its address in the next
    /// block, both ends of the space and `extra`.
    fn check<F: AddrFamily>(http: Vec<F::Addr>, ssh: Vec<F::Addr>, extra: &[F::Addr]) {
        let r: Responder<F> = Responder::new()
            .with_service(Protocol::Http, HostSet::from_addrs(http.clone()))
            .with_port(22, HostSet::from_addrs(ssh.clone()));
        let max = u128::MAX >> (128 - u32::from(F::BITS));
        let wrap = |a: u128| F::addr_from_u128(a & max);
        let probes = http.iter().chain(&ssh).flat_map(|&a| {
            let a = F::addr_to_u128(a);
            [a.wrapping_sub(1), a, a.wrapping_add(1), a ^ 0x100].map(wrap)
        });
        for addr in probes
            .chain([wrap(0), wrap(max)])
            .chain(extra.iter().copied())
        {
            check_answers(&r, addr, &[22, 80, 443]);
        }
    }

    #[test]
    fn indexed_membership_edge_sets() {
        use tass_net::V6;
        // empty, a full block, the two ends of the space, adjacent blocks
        check::<V4>(vec![], vec![], &[1, 0x0A00_0000]);
        let full: Vec<u32> = (0..256).map(|i| 0x0A01_0200 + i).collect();
        check::<V4>(full.clone(), vec![], &[0x0A01_0100, 0x0A01_0300]);
        check::<V4>(vec![0, 255, 256, u32::MAX], vec![u32::MAX - 255], &[257]);
        check::<V4>(full, (0..512).map(|i| 0x0A01_0100 + 3 * i).collect(), &[]);
        let full: Vec<u128> = (0..256).map(|i| 0x2001_0db8 << 96 | i).collect();
        check::<V6>(full, vec![], &[0x2001_0db8 << 96 | 0x100]);
        check::<V6>(vec![0, 255, 256, u128::MAX], vec![u128::MAX - 255], &[257]);
    }

    proptest::proptest! {
        #[test]
        fn indexed_membership_matches_host_sets_v4(
            http in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..200),
            base in proptest::prelude::any::<u32>(),
            dense in proptest::collection::vec(0u32..1024, 0..300),
            ssh in proptest::collection::vec(0u32..2048, 0..50),
        ) {
            // scattered hosts plus a dense cluster, and a second port
            // overlapping the cluster
            let mut http = http;
            http.extend(dense.iter().map(|&d| base.wrapping_add(d)));
            let ssh = ssh.iter().map(|&d| base.wrapping_add(d)).collect();
            check::<V4>(http, ssh, &[base]);
        }

        #[test]
        fn indexed_membership_matches_host_sets_v6(
            sparse in proptest::collection::vec(proptest::prelude::any::<u128>(), 0..100),
            prefix in proptest::prelude::any::<u64>(),
            iids in proptest::collection::vec(0u64..600, 0..100),
            ssh in proptest::collection::vec(0u64..600, 0..30),
        ) {
            use tass_net::V6;
            // sparse hosts over the whole space, and low interface ids
            // under one /64: a few dense blocks
            let under = |iid: u64| u128::from(prefix) << 64 | u128::from(iid);
            let mut http = sparse;
            http.extend(iids.iter().map(|&i| under(i)));
            let ssh = ssh.iter().map(|&i| under(i)).collect();
            check::<V6>(http, ssh, &[under(700)]);
        }

        #[test]
        fn a_colliding_index_still_answers_exactly(
            offsets in proptest::collection::vec(0u32..256, 1..40),
            probes in proptest::collection::vec(0u32..(1 << 16), 0..300),
        ) {
            // up to ten blocks that all hash to the last slot of a
            // 16-slot table: one probe run that wraps around its end
            let home = |block: u32| BlockIndex::with_bits::<V4>(&[], 4).home(u128::from(block));
            let blocks: Vec<u32> = (0u32..).filter(|&b| home(b) == 15).take(10).collect();
            let hosts: Vec<u32> = offsets
                .iter()
                .enumerate()
                .map(|(i, &o)| blocks[i % blocks.len()] << 8 | o)
                .collect();
            let hosts = HostSet::<V4>::from_addrs(hosts);
            let hosts = hosts.as_slice();
            let index = BlockIndex::with_bits::<V4>(hosts, 4);
            let nearby = probes.iter().map(|&p| blocks[p as usize % blocks.len()] << 8 | p & 0xFF);
            for addr in hosts.iter().copied().chain(nearby).chain(probes.iter().copied()) {
                proptest::prop_assert_eq!(
                    index.contains::<V4>(hosts, addr),
                    hosts.binary_search(&addr).is_ok()
                );
            }
        }
    }

    /// The index's bytes for a host list.
    fn index_bytes<F: AddrFamily>(hosts: &HostSet<F>) -> usize {
        std::mem::size_of_val(&*BlockIndex::new::<F>(hosts.as_slice()).slots)
    }

    #[test]
    fn index_bytes_are_bounded_by_the_host_bytes() {
        use tass_net::V6;
        // at most 3 slots of 8 bytes a block, against 4 bytes a v4 host
        // and 16 a v6 host; the worst case is one host a block
        const BOUND: usize = 6;
        let v4: [Vec<u32>; 3] = [
            (0..4096).collect(),
            (0..4096).map(|i| i << 8).collect(),
            (0..5000u32).map(|i| i.wrapping_mul(2654435761)).collect(),
        ];
        for hosts in v4 {
            let hosts = HostSet::<V4>::from_addrs(hosts);
            let host_bytes = std::mem::size_of_val(hosts.as_slice());
            assert!(
                index_bytes(&hosts) <= BOUND * host_bytes,
                "v4 {}",
                hosts.len()
            );
        }
        for n in [1u128, 100, 1000, 4097] {
            let hosts = HostSet::<V6>::from_addrs((1..=n).map(|i| i << 64 | i).collect());
            let host_bytes = std::mem::size_of_val(hosts.as_slice());
            assert!(index_bytes(&hosts) <= BOUND * host_bytes, "v6 {n}");
            // v6 hosts are sparse: a block each, so the index is at most
            // 1.5× the host bytes
            assert!(2 * index_bytes(&hosts) <= 3 * host_bytes, "v6 {n}");
        }
        // an empty set costs the two-slot minimum
        assert_eq!(index_bytes(&HostSet::<V4>::from_addrs(vec![])), 16);
    }

    #[test]
    fn syn_to_open_port_gets_syn_ack() {
        let r = responder();
        let probe = parse_frame(&build_syn(1, 100, 40000, 80, 777)).unwrap();
        let resp = r.respond_frame(&probe).unwrap();
        let f = parse_frame(&resp).unwrap();
        assert_eq!(f.flags, tcp_flags::SYN | tcp_flags::ACK);
        assert_eq!(f.ack, 778);
        assert_eq!(f.src_ip, 100);
        assert_eq!(f.dst_ip, 1);
    }

    #[test]
    fn syn_to_closed_port_on_live_host_gets_rst() {
        let r = responder();
        let probe = parse_frame(&build_syn(1, 200, 40000, 21, 5)).unwrap();
        let resp = r.respond_frame(&probe).unwrap();
        let f = parse_frame(&resp).unwrap();
        assert_eq!(f.flags & tcp_flags::RST, tcp_flags::RST);
    }

    #[test]
    fn syn_to_dead_address_gets_silence() {
        let r = responder();
        let probe = parse_frame(&build_syn(1, 999, 40000, 80, 5)).unwrap();
        assert!(r.respond_frame(&probe).is_none());
    }

    #[test]
    fn non_syn_ignored() {
        let r = responder();
        let mut spec: crate::wire::FrameSpec = crate::wire::FrameSpec {
            dst_ip: 100,
            dst_port: 80,
            flags: tcp_flags::ACK,
            ..Default::default()
        };
        spec.src_ip = 1;
        let frame = FrameBuf::encode(&spec);
        let probe = parse_frame(&frame).unwrap();
        assert!(r.respond_frame(&probe).is_none());
    }

    #[test]
    fn isn_deterministic_per_host() {
        let r = responder();
        let probe = parse_frame(&build_syn(1, 100, 40000, 80, 9)).unwrap();
        let a = parse_frame(&r.respond_frame(&probe).unwrap()).unwrap().seq;
        let b = parse_frame(&r.respond_frame(&probe).unwrap()).unwrap().seq;
        assert_eq!(a, b);
        let probe2 = parse_frame(&build_syn(1, 200, 40000, 80, 9)).unwrap();
        let c = parse_frame(&r.respond_frame(&probe2).unwrap()).unwrap().seq;
        assert_ne!(a, c, "different hosts, different ISNs");
    }

    #[test]
    fn isn_is_the_digest_of_address_then_port_bytes() {
        use tass_net::V6;
        let digest = |addr: &[u8], port: u16| {
            let input = [addr, &u32::from(port).to_le_bytes()].concat();
            RESPONDER_KEY.hash(&input) as u32
        };
        for (a, port) in [(0u32, 0u16), (0x0A00_0001, 80), (u32::MAX, u16::MAX)] {
            assert_eq!(isn::<V4>(a, port), digest(&a.to_le_bytes(), port));
            let a6 = u128::from(a) << 96 | 0x42;
            assert_eq!(isn::<V6>(a6, port), digest(&a6.to_le_bytes(), port));
        }
    }

    #[test]
    fn banners_for_open_services_only() {
        let r = responder();
        let b = r.banner(100, 21).unwrap();
        assert!(b.starts_with("220"), "FTP banner: {b}");
        assert!(r.banner(100, 80).unwrap().starts_with("HTTP/1.1"));
        assert!(r.banner(200, 21).is_none(), "closed port");
        assert!(r.banner(300, 80).is_none(), "dead host");
        // stable across calls
        assert_eq!(r.banner(100, 21), r.banner(100, 21));
    }

    #[test]
    fn v6_respond_builds_real_frames() {
        use crate::wire::{build_syn_v6, parse_frame_v6};
        use tass_net::V6;
        let host = (0x2600u128 << 112) | 0x42;
        let live = (0x2600u128 << 112) | 0x43;
        let r: Responder<V6> = Responder::new()
            .with_service(Protocol::Http, HostSet::from_addrs(vec![host]))
            .with_port(22, HostSet::from_addrs(vec![live]));
        // open port answers with a checksummed v6 SYN-ACK
        let probe = parse_frame_v6(&build_syn_v6(1, host, 40000, 80, 777)).unwrap();
        let f = parse_frame_v6(&r.respond_frame(&probe).unwrap()).unwrap();
        assert_eq!(f.flags, tcp_flags::SYN | tcp_flags::ACK);
        assert_eq!(f.ack, 778);
        assert_eq!(f.src_ip, host);
        assert_eq!(f.dst_ip, 1);
        // closed port on a live host answers RST
        let probe = parse_frame_v6(&build_syn_v6(1, live, 40000, 80, 5)).unwrap();
        let f = parse_frame_v6(&r.respond_frame(&probe).unwrap()).unwrap();
        assert_eq!(f.flags & tcp_flags::RST, tcp_flags::RST);
        // dead space is silent
        let probe = parse_frame_v6(&build_syn_v6(1, 999, 40000, 80, 5)).unwrap();
        assert!(r.respond_frame(&probe).is_none());
        // ISNs are deterministic and distinct per host
        let pa = parse_frame_v6(&build_syn_v6(1, host, 40000, 80, 9)).unwrap();
        let a = parse_frame_v6(&r.respond_frame(&pa).unwrap()).unwrap().seq;
        let b = parse_frame_v6(&r.respond_frame(&pa).unwrap()).unwrap().seq;
        assert_eq!(a, b);
    }

    #[test]
    fn arbitrary_port_without_banner() {
        let r: Responder = Responder::new().with_port(2323, HostSet::from_addrs(vec![5]));
        assert!(r.is_open(5, 2323));
        assert!(r.banner(5, 2323).is_none(), "no protocol registered");
    }
}
