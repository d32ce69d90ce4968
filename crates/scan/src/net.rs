//! The simulated network between scanner and responders.
//!
//! Frames transmitted through a [`SimNetwork`] are parsed and validated
//! (checksums and all), subjected to configurable fault injection — probe
//! loss, response loss, duplication, as in smoltcp's example harnesses —
//! and answered by the attached [`Responder`]. The network is `Sync`, so
//! scan-engine worker threads share one instance.
//!
//! ## Deterministic fault model
//!
//! Faults are **pure functions of the probe**, not draws from a shared
//! RNG: whether a fault fires is decided by a SipHash-2-4 of
//! `(network seed, destination address, fault direction)` mapped to a
//! uniform draw in `[0, 1)` and compared against the configured
//! probability. Re-probing the same address therefore always yields the
//! same loss/duplication outcome, the wire and logical paths agree
//! exactly (same address → same draws), and — because no state is shared
//! between probes — results are independent of worker-thread count and
//! interleaving. The earlier mutex-guarded shared-RNG design had none of these
//! properties: under contention the draw order depended on scheduling,
//! so lossy campaigns were unreproducible.
//!
//! ## Worker-local accounting
//!
//! The probe hot path takes no lock, performs no heap allocation and
//! writes no shared memory. A scan worker sends through its own
//! [`NetLink`]: the link counts into a plain local [`NetStats`] and
//! folds it into the network's shared counters — relaxed atomics, each
//! on its own cache line — once, when the link is dropped at the end of
//! the worker. [`SimNetwork::transmit`] and [`SimNetwork::probe_logical`]
//! are one-probe links over the same counted code. A link writes a
//! probe's replies into a caller-owned [`Replies`] slot — a response
//! plus at most one duplicate, inline — so the scan engine reuses one
//! ring of slots for a worker's whole life and nothing is copied out by
//! value. Each probe costs at most one block-indexed membership lookup
//! per registered port (see [`Responder`]): the probed port's index
//! first, then only the others' for liveness. Each fault draw is one
//! inlined SipHash over words built in registers. [`SimNetwork::stats`]
//! reads the shared counters; they are exact once every link has been
//! dropped.

use crate::responder::Responder;
use crate::siphash::SipHash24;
use crate::wire::{self, FrameBuf, TcpFrame, WireError, WireFamily};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use tass_net::{AddrFamily, V4};

/// Fault-injection parameters (probabilities in `[0, 1]`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a probe is dropped before reaching the target.
    pub probe_loss: f64,
    /// Probability a response is dropped on the way back.
    pub response_loss: f64,
    /// Probability a response is duplicated.
    pub duplicate: f64,
    /// One-way latency in milliseconds (for duration accounting: the
    /// engine folds one round trip into `ScanReport::duration_secs`).
    pub latency_ms: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            probe_loss: 0.0,
            response_loss: 0.0,
            duplicate: 0.0,
            latency_ms: 35.0,
        }
    }
}

impl FaultConfig {
    /// A lossy profile for failure-injection tests (≈15 % loss, as the
    /// smoltcp examples suggest as a "good starting value").
    pub fn lossy() -> FaultConfig {
        FaultConfig {
            probe_loss: 0.15,
            response_loss: 0.15,
            duplicate: 0.05,
            latency_ms: 80.0,
        }
    }
}

/// Counters of everything the network saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Frames handed to [`SimNetwork::transmit`] (or logical probes).
    pub frames_in: u64,
    /// Frames that failed parsing/validation.
    pub malformed: u64,
    /// Probes dropped by fault injection.
    pub probes_lost: u64,
    /// Responses generated by the responder.
    pub responses: u64,
    /// Responses dropped by fault injection.
    pub responses_lost: u64,
    /// Responses duplicated by fault injection.
    pub duplicated: u64,
}

/// One relaxed-ordering counter on its own cache line, so worker threads
/// hammering different counters never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

impl PaddedCounter {
    #[inline]
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// The atomic backing of [`NetStats`].
#[derive(Debug, Default)]
struct AtomicNetStats {
    frames_in: PaddedCounter,
    malformed: PaddedCounter,
    probes_lost: PaddedCounter,
    responses: PaddedCounter,
    responses_lost: PaddedCounter,
    duplicated: PaddedCounter,
}

impl AtomicNetStats {
    fn snapshot(&self) -> NetStats {
        NetStats {
            frames_in: self.frames_in.get(),
            malformed: self.malformed.get(),
            probes_lost: self.probes_lost.get(),
            responses: self.responses.get(),
            responses_lost: self.responses_lost.get(),
            duplicated: self.duplicated.get(),
        }
    }

    /// Fold a link's local counts into the shared counters.
    fn fold(&self, s: &NetStats) {
        for (counter, n) in [
            (&self.frames_in, s.frames_in),
            (&self.malformed, s.malformed),
            (&self.probes_lost, s.probes_lost),
            (&self.responses, s.responses),
            (&self.responses_lost, s.responses_lost),
            (&self.duplicated, s.duplicated),
        ] {
            if n != 0 {
                counter.add(n);
            }
        }
    }
}

/// Fault directions — the third input to the per-probe fault hash, so
/// the loss/duplication draws for one address are independent of each
/// other.
const DIR_PROBE: u8 = 0;
const DIR_RESPONSE: u8 = 1;
const DIR_DUPLICATE: u8 = 2;

/// The outcome of a logical (frame-free) probe that got an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalReply {
    /// `true` for an open port (SYN-ACK), `false` for a live host with
    /// the port closed (RST).
    pub open: bool,
    /// How many copies arrived (2 when the duplication fault fired,
    /// 1 otherwise) — mirrors the wire path's duplicated frames.
    pub copies: u8,
}

/// The response frames one transmitted probe produced: at most a
/// response plus its duplicate, held inline (`Deref`s to `[FrameBuf]`).
/// A caller keeps one and hands it to every [`SimNetwork::transmit`],
/// which overwrites it in place: clearing it resets the count and leaves
/// the frame bytes, so no probe zeroes or copies a whole `Replies`.
#[derive(Debug, Clone, Copy)]
pub struct Replies {
    frames: [FrameBuf; 2],
    n: u8,
}

impl Default for Replies {
    fn default() -> Replies {
        Replies {
            frames: [FrameBuf::from_slice(&[]); 2],
            n: 0,
        }
    }
}

impl Replies {
    pub(crate) fn push(&mut self, frame: FrameBuf) {
        self.frames[usize::from(self.n)] = frame;
        self.n += 1;
    }
}

impl std::ops::Deref for Replies {
    type Target = [FrameBuf];

    fn deref(&self) -> &[FrameBuf] {
        &self.frames[..usize::from(self.n)]
    }
}

impl<'a> IntoIterator for &'a Replies {
    type Item = &'a FrameBuf;
    type IntoIter = std::slice::Iter<'a, FrameBuf>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The network: fault injection in front of a [`Responder`], generic
/// over the address family. Both paths are family-generic: the
/// wire-frame path ([`SimNetwork::transmit`]) parses and
/// checksum-validates frames of any [`WireFamily`] (IPv4 and IPv6), and
/// the logical path ([`SimNetwork::probe_logical`]) applies the
/// identical fault semantics — same hash, same draws — without the
/// codec.
#[derive(Debug)]
pub struct SimNetwork<F: AddrFamily = V4> {
    responder: Responder<F>,
    faults: FaultConfig,
    fault_key: SipHash24,
    stats: AtomicNetStats,
}

impl<F: AddrFamily> SimNetwork<F> {
    /// Build a network over a responder. `seed` keys the deterministic
    /// fault hash: equal seeds reproduce fault outcomes exactly.
    pub fn new(responder: Responder<F>, faults: FaultConfig, seed: u64) -> SimNetwork<F> {
        SimNetwork {
            responder,
            faults,
            fault_key: SipHash24::new(seed, seed.rotate_left(29) ^ 0xFA17_0D1C_0D5A_A5E5),
            stats: AtomicNetStats::default(),
        }
    }

    /// A perfect (lossless) network.
    pub fn perfect(responder: Responder<F>) -> SimNetwork<F> {
        SimNetwork::new(responder, FaultConfig::default(), 0)
    }

    /// The attached responder.
    pub fn responder(&self) -> &Responder<F> {
        &self.responder
    }

    /// One-way latency (for duration accounting).
    pub fn latency_ms(&self) -> f64 {
        self.faults.latency_ms
    }

    /// Counters of every probe sent through a link that has been
    /// dropped. Scan workers fold their counts in when they finish, so
    /// the counters are exact once a scan's workers have finished —
    /// after [`ScanEngine::run_plan`](crate::ScanEngine::run_plan)
    /// returns — and, like the report, independent of the thread count.
    /// A read during a scan sees only the workers that have finished.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// Does the fault of kind `dir` fire for `addr`? A pure function of
    /// `(seed, addr, dir)`: the SipHash digest's top 53 bits become a
    /// uniform draw in `[0, 1)`, compared against the probability — so
    /// `p = 0` never fires and `p = 1` always does. The `p <= 0` early
    /// return keeps perfect networks from hashing at all. The hashed
    /// input is 17 bytes, the address widened to 16 little-endian bytes
    /// and then `dir`: two address words and a final block of
    /// `17 << 56 | dir`.
    #[inline]
    fn fault_fires(&self, addr: F::Addr, dir: u8, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        let a = F::addr_to_u128(addr);
        let h = self
            .fault_key
            .hash_words(&[a as u64, (a >> 64) as u64], 17 << 56 | u64::from(dir));
        ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// A link for sending many probes: it counts into local
    /// [`NetStats`] and folds them into [`SimNetwork::stats`] once, when
    /// dropped (see the module docs).
    pub fn link(&self) -> NetLink<'_, F> {
        NetLink {
            network: self,
            counted: NetStats::default(),
        }
    }

    /// Logical-probe path: identical fault and response semantics to
    /// [`SimNetwork::transmit`] — the same deterministic draws, keyed by
    /// the same address — without building frames. Returns `None` for
    /// silence or loss; otherwise the open/closed verdict and how many
    /// copies arrived (duplication applies here exactly as on the wire).
    /// A one-probe [`NetLink::probe_logical`].
    pub fn probe_logical(&self, addr: F::Addr, port: u16) -> Option<LogicalReply> {
        self.link().probe_logical(addr, port)
    }
}

impl<F: WireFamily> SimNetwork<F> {
    /// Transmit one frame and write the response frames that arrive back
    /// (possibly none, possibly duplicated) into `replies`, replacing
    /// what it held. The frame is parsed and checksum-validated by the
    /// family's wire codec; a malformed frame is dropped, counted, and
    /// reported in the error, and leaves `replies` empty. A one-probe
    /// [`NetLink::transmit`].
    pub fn transmit(&self, frame: &[u8], replies: &mut Replies) -> Result<(), WireError> {
        self.link().transmit(frame, replies)
    }
}

/// A worker's link onto a [`SimNetwork`]: the one delivery path of both
/// probe kinds. It counts what the network sees into a local
/// [`NetStats`] and folds that into the network's shared counters once,
/// when dropped — so a scan worker's probes touch no shared counter.
#[derive(Debug)]
pub struct NetLink<'a, F: AddrFamily = V4> {
    network: &'a SimNetwork<F>,
    counted: NetStats,
}

impl<F: AddrFamily> NetLink<'_, F> {
    /// Send a logical probe (see [`SimNetwork::probe_logical`]).
    pub fn probe_logical(&mut self, addr: F::Addr, port: u16) -> Option<LogicalReply> {
        let net = self.network;
        self.counted.frames_in += 1;
        if net.fault_fires(addr, DIR_PROBE, net.faults.probe_loss) {
            self.counted.probes_lost += 1;
            return None;
        }
        let open = net.responder.syn_answer(addr, port)?;
        self.counted.responses += 1;
        if net.fault_fires(addr, DIR_RESPONSE, net.faults.response_loss) {
            self.counted.responses_lost += 1;
            return None;
        }
        let mut copies = 1;
        if net.fault_fires(addr, DIR_DUPLICATE, net.faults.duplicate) {
            self.counted.duplicated += 1;
            copies = 2;
        }
        Some(LogicalReply { open, copies })
    }
}

impl<F: WireFamily> NetLink<'_, F> {
    /// Transmit one frame (see [`SimNetwork::transmit`]).
    pub fn transmit(&mut self, frame: &[u8], replies: &mut Replies) -> Result<(), WireError> {
        replies.n = 0;
        self.counted.frames_in += 1;
        let parsed = match wire::parse_frame_for::<F>(frame) {
            Ok(p) => p,
            Err(e) => {
                self.counted.malformed += 1;
                return Err(e);
            }
        };
        self.deliver(&parsed, replies);
        Ok(())
    }

    fn deliver(&mut self, probe: &TcpFrame<F>, out: &mut Replies) {
        let net = self.network;
        if net.fault_fires(probe.dst_ip, DIR_PROBE, net.faults.probe_loss) {
            self.counted.probes_lost += 1;
            return;
        }
        let Some(resp) = net.responder.respond_frame(probe) else {
            return;
        };
        self.counted.responses += 1;
        if net.fault_fires(probe.dst_ip, DIR_RESPONSE, net.faults.response_loss) {
            self.counted.responses_lost += 1;
            return;
        }
        out.push(resp);
        if net.fault_fires(probe.dst_ip, DIR_DUPLICATE, net.faults.duplicate) {
            self.counted.duplicated += 1;
            out.push(resp);
        }
    }
}

impl<F: AddrFamily> Drop for NetLink<'_, F> {
    fn drop(&mut self) {
        self.network.stats.fold(&self.counted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::build_syn;
    use tass_model::{HostSet, Protocol};

    fn network(faults: FaultConfig) -> SimNetwork {
        let r =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs((0..1000).collect()));
        SimNetwork::new(r, faults, 99)
    }

    #[test]
    fn perfect_network_delivers_everything() {
        let net = network(FaultConfig::default());
        let (mut got, mut replies) = (0, Replies::default());
        for a in 0..1000u32 {
            let syn = build_syn(7, a, 40000, 80, 1);
            net.transmit(&syn, &mut replies).unwrap();
            got += replies.len();
        }
        assert_eq!(got, 1000);
        let s = net.stats();
        assert_eq!(s.frames_in, 1000);
        assert_eq!(s.responses, 1000);
        assert_eq!(s.probes_lost, 0);
        assert_eq!(s.malformed, 0);
    }

    #[test]
    fn dead_space_is_silent() {
        let net = network(FaultConfig::default());
        let syn = build_syn(7, 5000, 40000, 80, 1);
        let mut replies = Replies::default();
        net.transmit(&syn, &mut replies).unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    fn lossy_network_loses_roughly_expected_fraction() {
        let net = network(FaultConfig {
            probe_loss: 0.3,
            response_loss: 0.0,
            duplicate: 0.0,
            latency_ms: 1.0,
        });
        let (mut got, mut replies) = (0usize, Replies::default());
        for a in 0..1000u32 {
            let syn = build_syn(7, a, 40000, 80, 1);
            net.transmit(&syn, &mut replies).unwrap();
            got += replies.len();
        }
        assert!(
            (600..800).contains(&got),
            "delivered {got} of 1000 at 30% loss"
        );
        assert!(net.stats().probes_lost > 200);
    }

    #[test]
    fn duplication_produces_extra_frames() {
        let net = network(FaultConfig {
            probe_loss: 0.0,
            response_loss: 0.0,
            duplicate: 0.5,
            latency_ms: 1.0,
        });
        let (mut got, mut replies) = (0usize, Replies::default());
        for a in 0..500u32 {
            let syn = build_syn(7, a, 40000, 80, 1);
            net.transmit(&syn, &mut replies).unwrap();
            got += replies.len();
        }
        assert!(
            got > 600,
            "expected ~750 frames with 50% duplication, got {got}"
        );
        assert_eq!(net.stats().duplicated as usize, got - 500);
    }

    #[test]
    fn malformed_frames_rejected_and_counted() {
        let net = network(FaultConfig::default());
        let mut bad = build_syn(7, 1, 40000, 80, 1).to_vec();
        bad[20] ^= 0xFF;
        // a rejected frame leaves the slot empty, whatever it held
        let mut replies = Replies::default();
        net.transmit(&build_syn(7, 1, 40000, 80, 1), &mut replies)
            .unwrap();
        assert_eq!(replies.len(), 1);
        assert!(net.transmit(&bad, &mut replies).is_err());
        assert!(replies.is_empty());
        assert!(net.transmit(&bad[..30], &mut replies).is_err());
        assert_eq!(net.stats().malformed, 2);
    }

    #[test]
    fn v6_wire_path_delivers_validates_and_faults() {
        use crate::wire::build_syn_v6;
        use tass_net::V6;
        let base = 0x2600u128 << 112;
        let hosts: Vec<u128> = (0..500u128).map(|i| base + i).collect();
        let r: Responder<V6> =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
        let net: SimNetwork<V6> = SimNetwork::new(r, FaultConfig::default(), 99);
        // every live host answers with a parseable v6 frame
        let (mut got, mut replies) = (0, Replies::default());
        for i in 0..500u128 {
            let syn = build_syn_v6(7, base + i, 40000, 80, 1);
            net.transmit(&syn, &mut replies).unwrap();
            for reply in &replies {
                wire::parse_frame_v6(reply).expect("responder frames are valid");
            }
            got += replies.len();
        }
        assert_eq!(got, 500);
        // dead space is silent
        net.transmit(&build_syn_v6(7, 1, 40000, 80, 1), &mut replies)
            .unwrap();
        assert!(replies.is_empty());
        // checksum-corrupted frames are rejected and counted
        let mut bad = build_syn_v6(7, base, 40000, 80, 1).to_vec();
        bad[40] ^= 0xFF;
        assert!(net.transmit(&bad, &mut replies).is_err());
        assert_eq!(net.stats().malformed, 1);
        // and the fault injector drops v6 probes like v4 ones
        let r: Responder<V6> = Responder::new().with_service(
            Protocol::Http,
            HostSet::from_addrs((0..1000u128).map(|i| base + i).collect::<Vec<_>>()),
        );
        let lossy: SimNetwork<V6> = SimNetwork::new(
            r,
            FaultConfig {
                probe_loss: 0.3,
                response_loss: 0.0,
                duplicate: 0.0,
                latency_ms: 1.0,
            },
            99,
        );
        let mut got = 0usize;
        for i in 0..1000u128 {
            lossy
                .transmit(&build_syn_v6(7, base + i, 40000, 80, 1), &mut replies)
                .unwrap();
            got += replies.len();
        }
        assert!(
            (600..800).contains(&got),
            "delivered {got} of 1000 at 30% loss"
        );
    }

    #[test]
    fn network_is_shareable_across_threads() {
        let net = std::sync::Arc::new(network(FaultConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let (mut got, mut replies) = (0usize, Replies::default());
                for a in (t * 250)..(t * 250 + 250) {
                    let syn = build_syn(7, a, 40000, 80, 1);
                    net.transmit(&syn, &mut replies).unwrap();
                    got += replies.len();
                }
                got
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn fault_outcomes_are_deterministic_per_seed() {
        let faults = FaultConfig {
            probe_loss: 0.3,
            response_loss: 0.2,
            duplicate: 0.1,
            latency_ms: 1.0,
        };
        let probe = |seed: u64| -> Vec<usize> {
            let r: Responder = Responder::new()
                .with_service(Protocol::Http, HostSet::from_addrs((0..200).collect()));
            let net = SimNetwork::new(r, faults, seed);
            let mut replies = Replies::default();
            (0..200u32)
                .map(|a| {
                    net.transmit(&build_syn(7, a, 40000, 80, 1), &mut replies)
                        .unwrap();
                    replies.len()
                })
                .collect()
        };
        let a = probe(42);
        assert_eq!(a, probe(42), "same seed, same outcomes");
        assert_ne!(a, probe(43), "different seed, different outcomes");
        // re-probing the same address repeats its outcome exactly
        let r: Responder =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs((0..200).collect()));
        let net = SimNetwork::new(r, faults, 42);
        let mut replies = Replies::default();
        for a in 0..200u32 {
            let syn = build_syn(7, a, 40000, 80, 1);
            net.transmit(&syn, &mut replies).unwrap();
            let first = replies.len();
            for _ in 0..3 {
                net.transmit(&syn, &mut replies).unwrap();
                assert_eq!(replies.len(), first);
            }
        }
    }

    #[test]
    fn wire_and_logical_paths_agree_exactly() {
        let faults = FaultConfig {
            probe_loss: 0.3,
            response_loss: 0.2,
            duplicate: 0.3,
            latency_ms: 1.0,
        };
        let mk = || -> Responder {
            // hosts 0..400 open on 80; 400..500 live with 80 closed
            Responder::new()
                .with_service(Protocol::Http, HostSet::from_addrs((0..400).collect()))
                .with_port(22, HostSet::from_addrs((400..500).collect()))
        };
        let wire_net = SimNetwork::new(mk(), faults, 7);
        let logical_net = SimNetwork::new(mk(), faults, 7);
        let mut replies = Replies::default();
        for a in 0..600u32 {
            wire_net
                .transmit(&build_syn(9, a, 40000, 80, 1), &mut replies)
                .unwrap();
            let logical = logical_net.probe_logical(a, 80);
            match logical {
                None => assert!(replies.is_empty(), "addr {a}: wire answered, logical not"),
                Some(l) => {
                    assert_eq!(replies.len(), usize::from(l.copies), "addr {a}: copies");
                    let f = wire::parse_frame(&replies[0]).unwrap();
                    let is_syn_ack =
                        f.flags == (crate::wire::tcp_flags::SYN | crate::wire::tcp_flags::ACK);
                    assert_eq!(is_syn_ack, l.open, "addr {a}: verdict");
                }
            }
        }
        // identical fault semantics ⇒ identical counters
        assert_eq!(wire_net.stats(), logical_net.stats());
    }

    #[test]
    fn fault_probability_edge_cases() {
        let r: Responder =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs((0..50).collect()));
        let net = SimNetwork::new(
            r,
            FaultConfig {
                probe_loss: 1.0,
                ..FaultConfig::default()
            },
            5,
        );
        for a in 0..50u32 {
            assert!(net.probe_logical(a, 80).is_none(), "p=1 always fires");
        }
        assert_eq!(net.stats().probes_lost, 50);
        let r: Responder =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs((0..50).collect()));
        let net = SimNetwork::new(
            r,
            FaultConfig {
                duplicate: 1.0,
                ..FaultConfig::default()
            },
            5,
        );
        for a in 0..50u32 {
            assert_eq!(net.probe_logical(a, 80).unwrap().copies, 2);
        }
        assert_eq!(net.stats().duplicated, 50);
    }
}
