//! The simulated far end: hosts answering probes.
//!
//! A [`Responder`] represents "the Internet" as seen by the scanner: it
//! owns, per TCP port, the ground-truth set of addresses that complete a
//! handshake (taken from a `tass-model` snapshot), answers SYNs with
//! SYN-ACKs (open), RSTs (live host, closed port) or silence (no host),
//! and serves protocol banners for the banner-grab phase.

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

/// Answers probes from ground-truth host sets, generic over the address
/// family. Both probe paths are family-generic: the wire-level
/// [`Responder::respond_frame`] answers parsed frames of any [`WireFamily`]
/// (IPv4 and IPv6 alike), and the logical path — open/live/banner —
/// needs only the [`AddrFamily`].
#[derive(Debug, Default)]
pub struct Responder<F: AddrFamily = V4> {
    /// One entry per registered port, sorted by port: a flat table a
    /// probe scans without walking a map (responders hold a few ports)
    ports: Vec<PortEntry<F>>,
    /// ISN/banner variation key
    key: Option<SipHash24>,
}

/// The hosts answering on one port.
#[derive(Debug)]
struct PortEntry<F: AddrFamily> {
    port: u16,
    hosts: HostSet<F>,
    /// The service protocol, for banner synthesis (`None` for a bare port)
    protocol: Option<Protocol>,
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

    /// Set `port`'s host set, keeping the port's protocol if it has one.
    fn entry(&mut self, port: u16, hosts: HostSet<F>) -> &mut PortEntry<F> {
        let i = match self.ports.binary_search_by_key(&port, |e| e.port) {
            Ok(i) => {
                self.ports[i].hosts = hosts;
                i
            }
            Err(i) => {
                let entry = PortEntry {
                    port,
                    hosts,
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

    /// Total number of (port, host) service endpoints.
    pub fn num_endpoints(&self) -> usize {
        self.ports.iter().map(|e| e.hosts.len()).sum()
    }

    fn hash(&self) -> SipHash24 {
        self.key
            .unwrap_or_else(|| SipHash24::new(0x7E57_AB1E, 0x5EED))
    }

    /// Does `addr` answer on `port`?
    pub fn is_open(&self, addr: F::Addr, port: u16) -> bool {
        self.port(port).is_some_and(|e| e.hosts.contains(addr))
    }

    /// Is `addr` a live host on any registered port?
    pub fn is_live(&self, addr: F::Addr) -> bool {
        self.ports.iter().any(|e| e.hosts.contains(addr))
    }

    /// How `addr` answers a SYN to `port`: `Some(true)` open (SYN-ACK),
    /// `Some(false)` a live host with the port closed (RST), `None`
    /// silence. Each port's host set is searched at most once: after the
    /// probed port's set misses, liveness checks only the other ports'.
    pub(crate) fn syn_answer(&self, addr: F::Addr, port: u16) -> Option<bool> {
        if self.is_open(addr, port) {
            return Some(true);
        }
        self.ports
            .iter()
            .any(|e| e.port != port && e.hosts.contains(addr))
            .then_some(false)
    }

    /// The banner an open service would present, `None` if closed. The
    /// variant is a deterministic function of the address, so repeated
    /// grabs are stable.
    pub fn banner(&self, addr: F::Addr, port: u16) -> Option<&'static str> {
        let entry = self.port(port)?;
        if !entry.hosts.contains(addr) {
            return None;
        }
        let proto = entry.protocol?;
        let variant = (self.hash().hash_u64(addr_hash64::<F>(addr)) & 0xFF) as u8;
        Some(proto.banner(variant))
    }
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
            // deterministic per-(host, port) initial sequence number,
            // hashed over addr-LE ++ port-LE in a stack buffer (the v4
            // input is the pre-generic 4-byte form exactly)
            let addr_le = F::addr_bytes_le(probe.dst_ip);
            let addr_le = addr_le.as_ref();
            let mut input = [0u8; 20]; // 16-byte address max + 4-byte port
            input[..addr_le.len()].copy_from_slice(addr_le);
            input[addr_le.len()..addr_le.len() + 4]
                .copy_from_slice(&u32::from(probe.dst_port).to_le_bytes());
            let isn = (self.hash().hash(&input[..addr_le.len() + 4]) & 0xFFFF_FFFF) as u32;
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

    #[test]
    fn open_closed_dead() {
        let r = responder();
        assert!(r.is_open(100, 80));
        assert!(r.is_open(100, 21));
        assert!(!r.is_open(200, 21));
        assert!(r.is_live(200));
        assert!(!r.is_live(300));
        assert_eq!(r.num_endpoints(), 3);
    }

    #[test]
    fn syn_answer_is_open_then_live() {
        let r = responder().with_port(22, HostSet::from_addrs(vec![300]));
        for addr in [100, 200, 300, 400] {
            for port in [21, 22, 80, 443] {
                let want = if r.is_open(addr, port) {
                    Some(true)
                } else {
                    r.is_live(addr).then_some(false)
                };
                assert_eq!(r.syn_answer(addr, port), want, "{addr}:{port}");
            }
        }
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
