//! The multi-threaded scan engine.
//!
//! Ties the substrate together the way ZMap does: permute the target
//! space, rate-limit probes, validate responses statelessly via the keyed
//! hash, deduplicate, and optionally grab banners. Targets are scanned
//! per-prefix with a per-prefix cyclic permutation (a prime just above the
//! prefix size), which is how one scans a *selected prefix list* — TASS's
//! output — rather than the whole Internet.
//!
//! Targets are **streamed, never buffered**: each worker thread consumes
//! its own shard of the plan's `PlanStream`
//! ([`ProbePlan::stream_shard`]), so even a full scan of the announced
//! space holds O(1) target state per worker — the engine starts probing
//! immediately and memory stays flat at any scale.
//!
//! Two probe paths are provided, both generic over the address family:
//!
//! * **wire level** (default): every probe is a real encoded frame of the
//!   family's codec (54-byte v4 / 74-byte v6), parsed and
//!   checksum-validated by the simulated network — full fidelity;
//! * **logical level** (`wire_level = false`): skips the codec for speed
//!   when simulating Internet-scale campaigns; identical semantics.
//!
//! ## The lock-free hot path
//!
//! A worker thread's per-probe loop touches **no shared locks, writes
//! no shared memory and performs no heap allocation**. Targets are
//! consumed in batches: the worker fills a small stack array from its
//! shard (filtering the blocklist as it goes), charges the whole batch
//! to the scan's **shared** token bucket in one lock-free O(1) update
//! ([`AtomicTokenBucket::take_n`] — a single `fetch_add`), then probes
//! each address. One bucket serves every worker, so the aggregate send
//! rate is `rate_pps` no matter how unevenly the plan shards: an idle
//! worker's unused rate flows to the busy ones. Per probe, on the wire
//! path:
//!
//! * one SipHash of the destination gives both the source port and the
//!   sequence number ([`SipHash24::probe_validation`]), as in ZMap; it
//!   and the network's fault draws are the one inlined word-level core
//!   ([`SipHash24::hash_words`]), fed words built in registers;
//! * one [`wire::SynTemplate`] is reused — only the destination, source
//!   port, and sequence number are re-encoded, with incremental
//!   checksums;
//! * the worker's own [`NetLink`] carries the frame, counting what the
//!   network sees into worker-local [`NetStats`](crate::NetStats) that
//!   are folded into the shared counters once, when the worker ends;
//! * the responder answers from a per-port block index
//!   ([`Responder`](crate::Responder)): a hash of the probe's 256-address
//!   block, then a binary search of that block's hosts only;
//! * an address that answers is pushed onto a worker-local list; the
//!   merge into the report's `HostSet` sorts and deduplicates it once,
//!   so no per-probe set is kept.
//!
//! The worker owns a ring of 64 [`Replies`] slots for its whole life; the
//! network writes each probe's replies straight into its slot
//! ([`NetLink::transmit`]), so no reply storage is initialised or copied
//! per probe. The worker transmits the whole 64-probe batch first and
//! then validates the batch in send order. Fault injection is a
//! deterministic per-address hash (see [`SimNetwork`]) and counter sums
//! do not depend on the order they are added in, so the report and the
//! network's counters — including lossy, duplicating runs — are
//! **identical at any thread count**: the shards partition the plan, and
//! nothing about a probe's outcome depends on interleaving. Results are
//! folded once per worker at the end, by joining the workers in shard
//! order: a channel would allocate a waiter slot only when the fold
//! waits for a worker, so a scan's allocation count would depend on
//! timing. Banners are counted after the fold, one per distinct
//! responsive host (a sample can draw one address in two shards), and
//! sampled from the lowest responsive addresses, so they too are
//! independent of the thread count and of which worker finishes first.
//!
//! `ScanReport::duration_secs` is the token-bucket virtual time of the
//! slowest shard **plus one round trip of the network's configured
//! latency** when anything was sent — so an unlimited-rate scan over a
//! 35 ms network reports 70 ms, not 0.

use crate::blocklist::Blocklist;
use crate::net::{NetLink, Replies, SimNetwork};
use crate::rate::AtomicTokenBucket;
use crate::siphash::SipHash24;
use crate::wire::{self, tcp_flags, WireFamily};
use std::sync::Arc;
use tass_core::{ProbePlan, StreamError};
use tass_model::HostSet;
use tass_net::{iana, AddrFamily, Prefix, PrefixSet, V4, V6};

/// Scan-engine configuration, generic over the address family.
/// `ScanConfig` written bare is the IPv4 config exactly as before;
/// `ScanConfig<V6>` carries a 128-bit source address and
/// blocklist.
#[derive(Debug, Clone)]
pub struct ScanConfig<F: ScanFamily = V4> {
    /// Destination TCP port.
    pub port: u16,
    /// Probes per second across all threads.
    pub rate_pps: f64,
    /// Worker threads.
    pub threads: usize,
    /// Excluded space (checked before sending).
    pub blocklist: Blocklist<F>,
    /// Grab a banner from every responsive host.
    pub banner_grab: bool,
    /// Build/parse real frames (slower, full fidelity).
    pub wire_level: bool,
    /// Scanner source address.
    pub source_ip: F::Addr,
    /// Seed for permutation and validation keys.
    pub seed: u64,
}

impl<F: ScanFamily> Default for ScanConfig<F> {
    fn default() -> Self {
        ScanConfig {
            port: 80,
            rate_pps: 1_000_000.0,
            threads: 4,
            blocklist: Blocklist::iana_default(),
            banner_grab: false,
            wire_level: true,
            source_ip: F::default_source_ip(),
            seed: 0x5CAA_77E5,
        }
    }
}

impl<F: ScanFamily> ScanConfig<F> {
    /// Start a builder-style config for a destination port, with the
    /// defaults of [`ScanConfig::default`] for everything else:
    ///
    /// ```
    /// use tass_scan::{Blocklist, ScanConfig};
    ///
    /// let cfg: ScanConfig = ScanConfig::for_port(443)
    ///     .rate(100_000.0)
    ///     .threads(8)
    ///     .blocklist(Blocklist::empty());
    /// assert_eq!(cfg.port, 443);
    /// assert_eq!(cfg.threads, 8);
    /// ```
    pub fn for_port(port: u16) -> ScanConfig<F> {
        ScanConfig {
            port,
            ..ScanConfig::default()
        }
    }

    /// Set the aggregate probe rate in packets per second.
    pub fn rate(mut self, pps: f64) -> Self {
        self.rate_pps = pps;
        self
    }

    /// Remove the rate limit (simulation-speed scanning).
    pub fn unlimited_rate(self) -> Self {
        self.rate(f64::INFINITY)
    }

    /// Set the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the blocklist.
    pub fn blocklist(mut self, blocklist: Blocklist<F>) -> Self {
        self.blocklist = blocklist;
        self
    }

    /// Enable or disable banner grabbing.
    pub fn banner_grab(mut self, yes: bool) -> Self {
        self.banner_grab = yes;
        self
    }

    /// Choose between wire-level frames and fast logical probes.
    pub fn wire_level(mut self, yes: bool) -> Self {
        self.wire_level = yes;
        self
    }

    /// Set the scanner source address.
    pub fn source_ip(mut self, ip: F::Addr) -> Self {
        self.source_ip = ip;
        self
    }

    /// Set the permutation/validation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The per-family hooks of the engine core. The engine's streaming,
/// sharding, rate limiting, blocklist checks, wire probing, validation,
/// deduplication, and banner logic are all family-generic over the
/// [`WireFamily`] codec; what remains per family is only genuine policy —
/// which IANA registry backs the default blocklist and which documentation
/// address the scanner sources from. `wire_send` and `wire_drain` ship
/// real codec-backed defaults for every wire family: both `ScanEngine`
/// (IPv4) and `ScanEngine<V6>` encode, transmit, parse, and statelessly
/// validate genuine frames when `wire_level` is set.
pub trait ScanFamily: WireFamily {
    /// The family's IANA special-purpose space — the default blocklist
    /// ([`Blocklist::iana_default`]).
    fn iana_reserved() -> PrefixSet<Self>;

    /// The default scanner source address (a documentation address:
    /// 198.51.100.1 / 2001:db8::1).
    fn default_source_ip() -> Self::Addr;

    /// Send phase of a wire-level probe: derive the probe's source port
    /// and sequence number from one keyed hash of the destination
    /// ([`SipHash24::probe_validation`]), retarget the worker's reusable
    /// SYN template (incremental checksums — no per-probe encode of the
    /// constant bytes, no allocation) and transmit it over the worker's
    /// network link (which parses and validates it), which writes the
    /// reply frames into `replies`. Returns the (source port, expected
    /// sequence) pair [`ScanFamily::wire_drain`] needs to validate them.
    fn wire_send(
        link: &mut NetLink<'_, Self>,
        key: SipHash24,
        addr: Self::Addr,
        tmpl: &mut wire::SynTemplate<Self>,
        replies: &mut Replies,
    ) -> (u16, u32) {
        let (src_port, expected_seq) = key.probe_validation::<Self>(addr);
        tmpl.set_target(addr, src_port, expected_seq);
        // a rejected frame is counted by the network as malformed and
        // leaves `replies` empty, so draining it counts nothing
        let _ = link.transmit(tmpl.frame(), replies);
        (src_port, expected_seq)
    }

    /// Drain phase of a wire-level probe: statelessly validate the reply
    /// frames one send produced, as ZMap does. Replies carry everything
    /// the validation needs (the keyed sequence echo), so draining is
    /// decoupled from sending — the engine sends a whole probe batch and
    /// then drains it, like a ring of in-flight probes.
    fn wire_drain(
        cfg: &ScanConfig<Self>,
        addr: Self::Addr,
        src_port: u16,
        expected_seq: u32,
        replies: &Replies,
    ) -> WireReplies {
        let mut out = WireReplies::default();
        for reply in replies.iter() {
            let Ok(f) = wire::parse_frame_for::<Self>(reply) else {
                out.validation_failures += 1;
                continue;
            };
            // stateless validation, as ZMap does
            let valid = f.src_ip == addr
                && f.dst_ip == cfg.source_ip
                && f.src_port == cfg.port
                && f.dst_port == src_port
                && f.ack == expected_seq.wrapping_add(1);
            if !valid {
                out.validation_failures += 1;
            } else if f.flags & tcp_flags::RST != 0 {
                out.rsts += 1;
            } else if f.flags & (tcp_flags::SYN | tcp_flags::ACK)
                == (tcp_flags::SYN | tcp_flags::ACK)
            {
                out.syn_acks += 1;
            }
        }
        out
    }
}

/// Counters from one wire-level probe's replies.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireReplies {
    /// Valid SYN-ACKs received (duplicates possible).
    pub syn_acks: u64,
    /// Valid RSTs received.
    pub rsts: u64,
    /// Replies that failed parsing or stateless validation.
    pub validation_failures: u64,
}

impl ScanFamily for V4 {
    fn iana_reserved() -> PrefixSet<V4> {
        iana::reserved_set()
    }

    fn default_source_ip() -> u32 {
        0xC633_6401 // 198.51.100.1 (TEST-NET-2)
    }
}

impl ScanFamily for V6 {
    fn iana_reserved() -> PrefixSet<V6> {
        iana::reserved_set_v6()
    }

    fn default_source_ip() -> u128 {
        (0x2001_0db8u128 << 96) | 1 // 2001:db8::1 (documentation)
    }
}

/// Result of a scan, generic over the address family.
#[derive(Debug, Clone, Default)]
pub struct ScanReport<F: AddrFamily = V4> {
    /// Probes actually sent.
    pub probes_sent: u64,
    /// Addresses skipped because they were blocklisted.
    pub blocked_skipped: u64,
    /// Positive responses (SYN-ACKs) received, before deduplication.
    pub responses: u64,
    /// RSTs received (live host, closed port).
    pub rst_responses: u64,
    /// Responses that failed stateless validation (wrong ack/endpoint).
    pub validation_failures: u64,
    /// Distinct responsive addresses.
    pub responsive: HostSet<F>,
    /// Banners grabbed (equals responsive hosts when `banner_grab`).
    pub banners_grabbed: u64,
    /// A few sample banners for inspection.
    pub sample_banners: Vec<(F::Addr, String)>,
    /// Simulated scan duration in seconds: the slowest shard's token
    /// bucket clock, plus one round trip of the network's configured
    /// latency when any probe was sent.
    pub duration_secs: f64,
    /// Successful handshakes per probe — the paper's efficiency metric.
    pub hitrate: f64,
}

// Manual serde impls (the derive can't see through the generic): the
// value tree is a flat map in declaration order, so a report's JSON is
// canonical — `responsive` serializes sorted — and byte-equal reports
// mean equal results. The fault-determinism suite pins digests of this
// encoding across thread counts.
impl<F: AddrFamily> serde::Serialize for ScanReport<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("probes_sent".to_string(), self.probes_sent.to_value()),
            (
                "blocked_skipped".to_string(),
                self.blocked_skipped.to_value(),
            ),
            ("responses".to_string(), self.responses.to_value()),
            ("rst_responses".to_string(), self.rst_responses.to_value()),
            (
                "validation_failures".to_string(),
                self.validation_failures.to_value(),
            ),
            ("responsive".to_string(), self.responsive.to_value()),
            (
                "banners_grabbed".to_string(),
                self.banners_grabbed.to_value(),
            ),
            ("sample_banners".to_string(), self.sample_banners.to_value()),
            ("duration_secs".to_string(), self.duration_secs.to_value()),
            ("hitrate".to_string(), self.hitrate.to_value()),
        ])
    }
}

impl<F: AddrFamily> serde::Deserialize for ScanReport<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(ScanReport {
            probes_sent: serde::Deserialize::from_value(serde::value_get(v, "probes_sent")?)?,
            blocked_skipped: serde::Deserialize::from_value(serde::value_get(
                v,
                "blocked_skipped",
            )?)?,
            responses: serde::Deserialize::from_value(serde::value_get(v, "responses")?)?,
            rst_responses: serde::Deserialize::from_value(serde::value_get(v, "rst_responses")?)?,
            validation_failures: serde::Deserialize::from_value(serde::value_get(
                v,
                "validation_failures",
            )?)?,
            responsive: serde::Deserialize::from_value(serde::value_get(v, "responsive")?)?,
            banners_grabbed: serde::Deserialize::from_value(serde::value_get(
                v,
                "banners_grabbed",
            )?)?,
            sample_banners: serde::Deserialize::from_value(serde::value_get(v, "sample_banners")?)?,
            duration_secs: serde::Deserialize::from_value(serde::value_get(v, "duration_secs")?)?,
            hitrate: serde::Deserialize::from_value(serde::value_get(v, "hitrate")?)?,
        })
    }
}

/// The scan engine: a [`SimNetwork`] plus configuration defaults. The
/// engine core — streaming shards, rate limiting, blocklist, wire
/// codec, validation/dedup, banners — is generic over the
/// [`ScanFamily`]; `ScanEngine` written bare is the IPv4 engine, and
/// `ScanEngine<V6>` performs the identical per-probe work over 74-byte
/// v6 frames.
#[derive(Debug)]
pub struct ScanEngine<F: ScanFamily = V4> {
    network: Arc<SimNetwork<F>>,
}

struct WorkerResult<F: AddrFamily> {
    probes_sent: u64,
    blocked_skipped: u64,
    responses: u64,
    rst_responses: u64,
    validation_failures: u64,
    /// Each probe that drew a SYN-ACK, in send order: a sample that
    /// draws an address twice lists it twice, and the merge into the
    /// report's `HostSet` keeps it once
    responsive: Vec<F::Addr>,
    duration_secs: f64,
}

impl<F: ScanFamily> ScanEngine<F> {
    /// Create an engine over a simulated network.
    pub fn new(network: Arc<SimNetwork<F>>) -> ScanEngine<F> {
        ScanEngine { network }
    }

    /// The underlying network.
    pub fn network(&self) -> &SimNetwork<F> {
        &self.network
    }

    /// Run one cycle of a strategy's [`ProbePlan`] — the direct bridge
    /// from `tass-core`'s selection layer to the packet level, with no
    /// lossy `Vec<Prefix>` plumbing in between:
    ///
    /// * `ProbePlan::All` scans every `announced` prefix;
    /// * `ProbePlan::Prefixes` scans the selected prefixes;
    /// * `ProbePlan::Addrs` probes the hitlist addresses individually;
    /// * `ProbePlan::FreshSample` draws the cycle's random sample
    ///   (seeded by the plan's seed and `cycle`, so re-runs are
    ///   reproducible and different cycles sample differently) from the
    ///   announced space, weighted by prefix size.
    ///
    /// The plan is never materialised: each worker thread lazily consumes
    /// its own shard of the plan's stream
    /// ([`ProbePlan::stream_shard`], one shard per thread), permuted per
    /// prefix by the cyclic group seeded from `cfg.seed`, and all
    /// workers draw from one shared token bucket at `rate_pps`.
    /// Together the shards cover the plan exactly, so the responsive
    /// set is independent of the thread count.
    ///
    /// Because streaming enumerates every planned address, the plan must
    /// be streamable ([`ProbePlan::check_streamable`]): an `All` or
    /// `Prefixes` plan naming a prefix wider than 2⁶⁴ addresses — e.g.
    /// v6 `All` over /48–/64 seeded announced space — fails here with a
    /// [`StreamError`] *before* any probe is sent, so callers can fall
    /// back to dense sub-prefix, hitlist, or sampling plans. Every v4
    /// plan is streamable; v4 callers may unwrap.
    pub fn run_plan(
        &self,
        plan: &ProbePlan<F>,
        cycle: u32,
        announced: &[Prefix<F>],
        cfg: &ScanConfig<F>,
    ) -> Result<ScanReport<F>, StreamError> {
        plan.check_streamable(announced)?;
        let threads = cfg.threads.max(1);
        let key = validation_key(cfg.seed);
        // One bucket for the whole scan: every worker fetch_adds into it,
        // so the aggregate rate is cfg.rate_pps regardless of how the
        // plan's targets distribute over shards.
        let bucket = if cfg.rate_pps.is_finite() && cfg.rate_pps > 0.0 {
            AtomicTokenBucket::new(cfg.rate_pps, 128.0)
        } else {
            AtomicTokenBucket::unlimited()
        };
        let bucket = &bucket;

        Ok(std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let network = Arc::clone(&self.network);
                    let cfg = cfg.clone();
                    scope.spawn(move || {
                        let targets =
                            plan.stream_shard(cycle, announced, cfg.seed, t as u64, threads as u64);
                        scan_worker(&network, &cfg, key, bucket, targets)
                    })
                })
                .collect();
            let mut report = ScanReport::<F>::default();
            let mut responsive: Vec<F::Addr> = Vec::new();
            for worker in workers {
                let r = worker.join().expect("scan worker panicked");
                report.probes_sent += r.probes_sent;
                report.blocked_skipped += r.blocked_skipped;
                report.responses += r.responses;
                report.rst_responses += r.rst_responses;
                report.validation_failures += r.validation_failures;
                report.duration_secs = report.duration_secs.max(r.duration_secs);
                responsive.extend(r.responsive);
            }
            if report.probes_sent > 0 {
                // one round trip of the configured latency: the last
                // probe still has to reach its target and the reply has
                // to come back before the scan can be called done
                report.duration_secs += 2.0 * self.network.latency_ms() / 1000.0;
            }
            report.responsive = HostSet::from_addrs(responsive);
            if cfg.banner_grab {
                // over the merged set: one banner per distinct host, even
                // when two shards' samples drew the same address
                let responder = self.network.responder();
                report.banners_grabbed = report
                    .responsive
                    .iter()
                    .filter(|&addr| responder.banner(addr, cfg.port).is_some())
                    .count() as u64;
                report.sample_banners = report
                    .responsive
                    .iter()
                    .filter_map(|addr| Some((addr, responder.banner(addr, cfg.port)?.to_string())))
                    .take(SAMPLE_BANNERS)
                    .collect();
            }
            report.hitrate = if report.probes_sent > 0 {
                report.responsive.len() as f64 / report.probes_sent as f64
            } else {
                0.0
            };
            report
        }))
    }
}

/// The scan's probe-validation key, derived from its seed.
fn validation_key(seed: u64) -> SipHash24 {
    SipHash24::new(seed, seed.rotate_left(17) ^ 0xA5A5_A5A5)
}

/// Banners a report samples: those of its lowest responsive addresses.
const SAMPLE_BANNERS: usize = 16;

/// Probes per token-bucket update: the worker fills a stack array of
/// this many unblocked targets, charges them to the bucket in one O(1)
/// batched take, then probes each.
const PROBE_BATCH: usize = 64;

/// Probe every address of a lazily streamed target shard.
///
/// This is the hot loop the module docs describe: batched token takes,
/// one reusable SYN template, no locks, no per-probe allocation.
fn scan_worker<F: ScanFamily>(
    network: &SimNetwork<F>,
    cfg: &ScanConfig<F>,
    key: SipHash24,
    bucket: &AtomicTokenBucket,
    mut targets: impl Iterator<Item = F::Addr>,
) -> WorkerResult<F> {
    let mut out = WorkerResult {
        probes_sent: 0,
        blocked_skipped: 0,
        responses: 0,
        rst_responses: 0,
        validation_failures: 0,
        responsive: Vec::new(),
        duration_secs: 0.0,
    };
    // counts locally; folds into the network's counters when the worker ends
    let mut link = network.link();
    let mut tmpl = wire::SynTemplate::<F>::new(&wire::FrameSpec {
        src_ip: cfg.source_ip,
        dst_port: cfg.port,
        ..wire::FrameSpec::default()
    });

    let mut batch = [F::Addr::default(); PROBE_BATCH];
    // in-flight ring for the batched wire drain, set up once per worker:
    // each batch writes slots [0..n] before reading them (transmit
    // overwrites a slot in place), so no per-batch or per-probe
    // re-initialisation is needed
    let mut pending = [(0u16, 0u32); PROBE_BATCH];
    let mut replies = [Replies::default(); PROBE_BATCH];
    loop {
        // fill a batch from the shard, filtering the blocklist
        let mut n = 0;
        while n < PROBE_BATCH {
            let Some(addr) = targets.next() else { break };
            if cfg.blocklist.is_blocked(addr) {
                out.blocked_skipped += 1;
                continue;
            }
            batch[n] = addr;
            n += 1;
        }
        if n == 0 {
            break; // shard exhausted
        }
        // one shared-clock update for the whole batch; the returned send
        // time is monotone per worker (the global token count only
        // grows), so the last batch's time is this shard's duration
        out.duration_secs = bucket.take_n(n as u64);
        out.probes_sent += n as u64;

        if cfg.wire_level {
            // wire path: every probe is an encoded, checksum-validated
            // frame of the family's codec; counters come from the frames.
            // Send the whole batch first — replies land in the ring's
            // slots, like in-flight probes — then drain it in send
            // order. Reply outcomes are deterministic per address, so
            // the split changes nothing observable.
            for (i, &addr) in batch[..n].iter().enumerate() {
                pending[i] = F::wire_send(&mut link, key, addr, &mut tmpl, &mut replies[i]);
            }
            for (i, &addr) in batch[..n].iter().enumerate() {
                let (src_port, seq) = pending[i];
                let counted = F::wire_drain(cfg, addr, src_port, seq, &replies[i]);
                out.validation_failures += counted.validation_failures;
                out.rst_responses += counted.rsts;
                if counted.syn_acks > 0 {
                    out.responses += counted.syn_acks;
                    out.responsive.push(addr);
                }
            }
        } else {
            // logical probe: same semantics — and, because faults are
            // deterministic per address, the same fault outcomes — as
            // the wire path, without the codec
            for &addr in &batch[..n] {
                match link.probe_logical(addr, cfg.port) {
                    Some(reply) if reply.open => {
                        out.responses += u64::from(reply.copies);
                        out.responsive.push(addr);
                    }
                    Some(reply) => out.rst_responses += u64::from(reply.copies),
                    None => {}
                }
            }
        }
    }
    // duration_secs is well-defined for every shard shape: 0.0 for an
    // empty or fully-blocklisted shard (no batch ever took a token) and
    // the last batch's virtual send time otherwise
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::FaultConfig;
    use crate::responder::Responder;
    use tass_model::Protocol;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Hosts: every 8th address of 1.0.0.0/24 runs HTTP.
    fn demo_network(faults: FaultConfig) -> Arc<SimNetwork> {
        let base = 0x0100_0000u32;
        let hosts: Vec<u32> = (0..256u32)
            .filter(|i| i % 8 == 0)
            .map(|i| base + i)
            .collect();
        let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
        Arc::new(SimNetwork::new(responder, faults, 7))
    }

    /// Scan a prefix list, as a plan with no announced space.
    fn scan(engine: &ScanEngine, targets: &[&str], cfg: &ScanConfig) -> ScanReport {
        let plan = ProbePlan::Prefixes(targets.iter().map(|t| p(t)).collect());
        engine.run_plan(&plan, 0, &[], cfg).unwrap()
    }

    fn base_cfg() -> ScanConfig {
        ScanConfig::for_port(80)
            .unlimited_rate()
            .threads(2)
            .blocklist(Blocklist::empty())
    }

    #[test]
    fn perfect_scan_finds_every_host() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let report = scan(&engine, &["1.0.0.0/24"], &base_cfg());
        assert_eq!(report.probes_sent, 256);
        assert_eq!(report.responsive.len(), 32);
        assert_eq!(report.responses, 32);
        assert_eq!(report.validation_failures, 0);
        assert!((report.hitrate - 32.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn logical_and_wire_level_agree() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let wire = scan(&engine, &["1.0.0.0/24"], &base_cfg());
        let logical = scan(
            &engine,
            &["1.0.0.0/24"],
            &ScanConfig {
                wire_level: false,
                ..base_cfg()
            },
        );
        assert_eq!(wire.responsive, logical.responsive);
        assert_eq!(wire.probes_sent, logical.probes_sent);
    }

    #[test]
    fn lossy_network_misses_some_hosts() {
        let engine = ScanEngine::new(demo_network(FaultConfig {
            probe_loss: 0.4,
            response_loss: 0.2,
            duplicate: 0.0,
            latency_ms: 10.0,
        }));
        let report = scan(&engine, &["1.0.0.0/24"], &base_cfg());
        assert!(report.responsive.len() < 32, "loss must cost coverage");
        assert!(report.responsive.len() > 5, "but not everything");
    }

    #[test]
    fn duplicates_do_not_inflate_responsive_set() {
        let engine = ScanEngine::new(demo_network(FaultConfig {
            probe_loss: 0.0,
            response_loss: 0.0,
            duplicate: 1.0,
            latency_ms: 1.0,
        }));
        let report = scan(&engine, &["1.0.0.0/24"], &base_cfg());
        assert_eq!(report.responsive.len(), 32, "dedup must hold");
        assert_eq!(report.responses, 64, "every SYN-ACK arrived twice");
    }

    #[test]
    fn blocklist_prevents_probes() {
        let mut cfg = base_cfg();
        cfg.blocklist = {
            let mut b = Blocklist::empty();
            b.block(p("1.0.0.0/25"));
            b
        };
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let report = scan(&engine, &["1.0.0.0/24"], &cfg);
        assert_eq!(report.blocked_skipped, 128);
        assert_eq!(report.probes_sent, 128);
        assert_eq!(report.responsive.len(), 16, "only the upper half answered");
        assert!(report.responsive.iter().all(|a| a >= 0x0100_0080));
    }

    #[test]
    fn rate_limit_extends_duration() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let mut cfg = base_cfg();
        cfg.rate_pps = 1000.0;
        cfg.threads = 1;
        let report = scan(&engine, &["1.0.0.0/24"], &cfg);
        // 256 probes at 1000 pps ≈ 0.25 s minus the initial burst
        assert!(
            report.duration_secs > 0.1,
            "duration {}",
            report.duration_secs
        );
    }

    #[test]
    fn shared_bucket_keeps_unbalanced_plans_at_full_rate() {
        // Regression: each worker used to own a private bucket at
        // rate_pps / threads, so a plan whose unblocked targets all fell
        // into one shard crawled at 1/threads of the configured rate
        // while the other workers sat idle. Addrs shards stride by
        // sorted index mod threads; blocking every address whose index
        // is not ≡ 0 (mod 4) funnels every real probe into shard 0.
        let base = 0x0200_0000u32;
        let addrs: Vec<u32> = (0..4096u32).map(|i| base + i).collect();
        let mut blocklist = Blocklist::empty();
        for (i, &a) in addrs.iter().enumerate() {
            if i % 4 != 0 {
                blocklist.block(Prefix::new(a, 32).unwrap());
            }
        }
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let mut cfg = base_cfg();
        cfg.rate_pps = 1000.0;
        cfg.threads = 4;
        cfg.blocklist = blocklist;
        let plan = ProbePlan::Addrs(HostSet::from_addrs(addrs));
        let report = engine.run_plan(&plan, 0, &[], &cfg).unwrap();
        assert_eq!(report.probes_sent, 1024);
        assert_eq!(report.blocked_skipped, 3072);
        // 1024 probes at the full 1000 pps: (1024 − 128 burst) / 1000
        // ≈ 0.9 s plus one 70 ms round trip. The old per-worker
        // limiting pinned shard 0 to 250 pps — about 3.65 s.
        let full_rate = (1024.0 - 128.0) / 1000.0 + 0.07;
        assert!(
            (report.duration_secs - full_rate).abs() < 1e-9,
            "duration {} vs full-rate {}",
            report.duration_secs,
            full_rate
        );
    }

    #[test]
    fn latency_round_trip_is_folded_into_duration() {
        // Regression: unlimited-rate scans used to report 0 s even though
        // the network models 35 ms of one-way latency. One round trip
        // (2 × latency) must show up in the aggregate duration.
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let report = scan(&engine, &["1.0.0.0/24"], &base_cfg());
        assert!(
            (report.duration_secs - 0.07).abs() < 1e-12,
            "duration {}",
            report.duration_secs
        );
    }

    #[test]
    fn fully_blocked_scan_has_well_defined_duration() {
        // Regression: WorkerResult::duration_secs was undefined for shards
        // where every target is blocklisted (no probe ever took a token).
        let mut cfg = base_cfg();
        cfg.blocklist = {
            let mut b = Blocklist::empty();
            b.block(p("1.0.0.0/24"));
            b
        };
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let report = scan(&engine, &["1.0.0.0/24"], &cfg);
        assert_eq!(report.probes_sent, 0);
        assert_eq!(report.blocked_skipped, 256);
        assert_eq!(report.duration_secs, 0.0, "no probes, no elapsed time");
        assert!(report.duration_secs.is_finite());
    }

    #[test]
    fn empty_scan_has_zero_duration() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let report = scan(&engine, &[], &base_cfg());
        assert_eq!(report.duration_secs, 0.0);
    }

    #[test]
    fn banner_grab_collects_banners() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let mut cfg = base_cfg();
        cfg.banner_grab = true;
        let report = scan(&engine, &["1.0.0.0/24"], &cfg);
        assert_eq!(report.banners_grabbed, 32);
        assert!(!report.sample_banners.is_empty());
        assert!(report.sample_banners[0].1.contains("HTTP/1.1"));
    }

    #[test]
    fn banner_report_is_independent_of_threads_and_finish_order() {
        // a /20 with every third host live: every worker grabs banners
        let base = 0x0A00_0000u32;
        let hosts: Vec<u32> = (0..4096u32)
            .filter(|i| i % 3 == 0)
            .map(|i| base + i)
            .collect();
        let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
        let engine = ScanEngine::new(Arc::new(SimNetwork::new(
            responder,
            FaultConfig::lossy(),
            7,
        )));
        let json = |threads: usize| {
            let cfg = base_cfg().threads(threads).banner_grab(true);
            serde_json::to_string(&scan(&engine, &["10.0.0.0/20"], &cfg)).unwrap()
        };
        let want = json(1);
        for threads in [2, 3, 8] {
            assert_eq!(json(threads), want, "threads({threads})");
        }
        for run in 0..5 {
            assert_eq!(json(4), want, "threads(4), run {run}");
        }
        let report = scan(&engine, &["10.0.0.0/20"], &base_cfg().banner_grab(true));
        assert_eq!(report.sample_banners.len(), SAMPLE_BANNERS);
        let lowest: Vec<u32> = report.responsive.iter().take(SAMPLE_BANNERS).collect();
        let sampled: Vec<u32> = report.sample_banners.iter().map(|(a, _)| *a).collect();
        assert_eq!(sampled, lowest, "the lowest responsive addresses");
    }

    #[test]
    fn multiple_prefixes_and_threads() {
        let base = 0x0100_0000u32;
        let mut hosts: Vec<u32> = (0..256u32)
            .filter(|i| i % 8 == 0)
            .map(|i| base + i)
            .collect();
        hosts.extend((0..256u32).filter(|i| i % 4 == 0).map(|i| 0x0200_0000 + i));
        let responder = Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
        let engine = ScanEngine::new(Arc::new(SimNetwork::perfect(responder)));
        let report = scan(
            &engine,
            &["1.0.0.0/24", "2.0.0.0/24", "3.0.0.0/24"],
            &base_cfg().threads(3),
        );
        assert_eq!(report.probes_sent, 3 * 256);
        assert_eq!(report.responsive.len(), 32 + 64);
    }

    #[test]
    fn empty_targets_yield_empty_report() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let report = scan(&engine, &[], &base_cfg());
        assert_eq!(report.probes_sent, 0);
        assert_eq!(report.hitrate, 0.0);
        assert!(report.responsive.is_empty());
    }

    #[test]
    fn streamed_permutation_covers_prefix_exactly_once() {
        let plan = ProbePlan::Prefixes(vec![p("10.0.0.0/24")]);
        let mut addrs: Vec<u32> = plan.stream(0, &[], 3).collect();
        assert_eq!(addrs.len(), 256);
        // not in linear order (overwhelmingly likely for a random generator)
        let linear: Vec<u32> = (0..256).map(|i| 0x0A00_0000 + i).collect();
        assert_ne!(addrs, linear, "permutation should shuffle");
        addrs.sort_unstable();
        assert_eq!(addrs, linear);
    }

    #[test]
    fn single_address_prefix() {
        let plan = ProbePlan::Prefixes(vec![p("9.9.9.9/32")]);
        let addrs: Vec<u32> = plan.stream(0, &[], 4).collect();
        assert_eq!(addrs, vec![0x09090909]);
    }

    #[test]
    fn run_plan_all_scans_announced() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let announced = vec![p("1.0.0.0/24"), p("2.0.0.0/24")];
        let report = engine
            .run_plan(&ProbePlan::All, 0, &announced, &base_cfg())
            .unwrap();
        assert_eq!(report.probes_sent, 512);
        assert_eq!(report.responsive.len(), 32);
    }

    #[test]
    fn run_plan_addrs_probes_hitlist() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let base = 0x0100_0000u32;
        // the 32 real hosts plus 8 dead addresses
        let hitlist: HostSet = (0..256u32)
            .filter(|i| i % 8 == 0)
            .map(|i| base + i)
            .chain(500..508)
            .collect();
        let report = engine
            .run_plan(&ProbePlan::Addrs(hitlist.clone()), 0, &[], &base_cfg())
            .unwrap();
        assert_eq!(report.probes_sent, hitlist.len() as u64);
        assert_eq!(report.responsive.len(), 32, "exactly the live hosts answer");
    }

    #[test]
    fn run_plan_fresh_sample_is_cycle_seeded() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let announced = vec![p("1.0.0.0/24")];
        let plan = ProbePlan::FreshSample {
            per_cycle: 64,
            seed: 11,
        };
        let a = engine.run_plan(&plan, 1, &announced, &base_cfg()).unwrap();
        let b = engine.run_plan(&plan, 1, &announced, &base_cfg()).unwrap();
        let c = engine.run_plan(&plan, 2, &announced, &base_cfg()).unwrap();
        assert_eq!(a.probes_sent, 64);
        assert_eq!(a.responsive, b.responsive, "same cycle → same sample");
        assert_ne!(a.responsive, c.responsive, "different cycle → fresh sample");
        // sample density ≈ host density: 1/8 of addresses are live
        assert!(a.responsive.len() <= 20);
    }

    #[test]
    fn repeated_sample_draws_grab_one_banner_per_host() {
        // 2 000 draws from a /24 with 32 live hosts: every live host is
        // drawn many times over, by every shard
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let announced = vec![p("1.0.0.0/24")];
        let plan = ProbePlan::FreshSample {
            per_cycle: 2_000,
            seed: 5,
        };
        for threads in [1, 3] {
            let cfg = base_cfg().threads(threads).banner_grab(true);
            let report = engine.run_plan(&plan, 0, &announced, &cfg).unwrap();
            assert_eq!(report.responsive.len(), 32, "threads({threads})");
            assert!(report.responses > 32, "threads({threads}): repeated draws");
            assert_eq!(
                report.banners_grabbed, 32,
                "threads({threads}): one banner per distinct host"
            );
        }
    }

    #[test]
    fn sampled_targets_stay_in_space() {
        let announced = vec![p("1.0.0.0/24"), p("9.0.0.0/30")];
        let plan = ProbePlan::FreshSample {
            per_cycle: 1000,
            seed: 3,
        };
        let addrs: Vec<u32> = plan.stream(0, &announced, 0).collect();
        assert_eq!(addrs.len(), 1000);
        assert!(addrs
            .iter()
            .all(|&a| announced.iter().any(|pre| pre.contains_addr(a))));
        // both prefixes get hit eventually (the /30 is tiny but nonzero)
        assert!(addrs.iter().any(|&a| a >= 0x0900_0000));
    }

    #[test]
    fn responsive_set_is_thread_count_invariant() {
        let engine = ScanEngine::new(demo_network(FaultConfig::default()));
        let announced = vec![p("1.0.0.0/24"), p("2.0.0.0/26")];
        let plans = [
            ProbePlan::All,
            ProbePlan::Prefixes(vec![p("1.0.0.0/25")]),
            ProbePlan::Addrs((0x0100_0000..0x0100_0040).collect()),
            ProbePlan::FreshSample {
                per_cycle: 128,
                seed: 21,
            },
        ];
        for plan in &plans {
            let one = engine
                .run_plan(plan, 1, &announced, &base_cfg().threads(1))
                .unwrap();
            for threads in [2usize, 3, 8] {
                let many = engine
                    .run_plan(plan, 1, &announced, &base_cfg().threads(threads))
                    .unwrap();
                assert_eq!(one.responsive, many.responsive, "{plan:?} x{threads}");
                assert_eq!(one.probes_sent, many.probes_sent, "{plan:?} x{threads}");
                assert_eq!(one.blocked_skipped, many.blocked_skipped);
            }
        }
    }

    /// v6 hosts: every 8th address of a /120 block in global unicast.
    fn demo_network_v6() -> Arc<SimNetwork<V6>> {
        let base = 0x2600u128 << 112;
        let hosts: Vec<u128> = (0..256u128)
            .filter(|i| i % 8 == 0)
            .map(|i| base + i)
            .collect();
        let responder: Responder<V6> =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
        Arc::new(SimNetwork::new(responder, FaultConfig::default(), 7))
    }

    fn base_cfg_v6() -> ScanConfig<V6> {
        ScanConfig::for_port(80)
            .unlimited_rate()
            .threads(2)
            .blocklist(Blocklist::empty())
    }

    #[test]
    fn v6_wire_scan_finds_every_host() {
        let engine: ScanEngine<V6> = ScanEngine::new(demo_network_v6());
        let plan = ProbePlan::Prefixes(vec!["2600::/120".parse().unwrap()]);
        let report = engine.run_plan(&plan, 0, &[], &base_cfg_v6()).unwrap();
        assert_eq!(report.probes_sent, 256);
        assert_eq!(report.responsive.len(), 32);
        assert_eq!(report.validation_failures, 0);
        // wire_level defaults to true: the network really parsed frames
        assert_eq!(engine.network().stats().frames_in, 256);
        assert_eq!(engine.network().stats().malformed, 0);
    }

    #[test]
    fn v6_wire_and_logical_agree_on_perfect_network() {
        let engine: ScanEngine<V6> = ScanEngine::new(demo_network_v6());
        let plan = ProbePlan::Prefixes(vec!["2600::/120".parse().unwrap()]);
        let wire = engine.run_plan(&plan, 0, &[], &base_cfg_v6()).unwrap();
        let logical = engine
            .run_plan(&plan, 0, &[], &base_cfg_v6().wire_level(false))
            .unwrap();
        assert_eq!(wire.responsive, logical.responsive);
        assert_eq!(wire.probes_sent, logical.probes_sent);
    }

    #[test]
    fn v6_lossy_network_costs_wire_coverage_too() {
        let base = 0x2600u128 << 112;
        let hosts: Vec<u128> = (0..256u128).map(|i| base + i).collect();
        let responder: Responder<V6> =
            Responder::new().with_service(Protocol::Http, HostSet::from_addrs(hosts));
        let engine: ScanEngine<V6> = ScanEngine::new(Arc::new(SimNetwork::new(
            responder,
            FaultConfig {
                probe_loss: 0.4,
                response_loss: 0.2,
                duplicate: 0.0,
                latency_ms: 10.0,
            },
            13,
        )));
        let plan = ProbePlan::Prefixes(vec!["2600::/120".parse().unwrap()]);
        let report = engine.run_plan(&plan, 0, &[], &base_cfg_v6()).unwrap();
        assert!(report.responsive.len() < 256, "loss must cost coverage");
        assert!(report.responsive.len() > 50, "but not everything");
    }

    #[test]
    fn v6_default_config_blocks_reserved_space() {
        let engine: ScanEngine<V6> = ScanEngine::new(demo_network_v6());
        let cfg = ScanConfig::<V6>::for_port(80).unlimited_rate().threads(2);
        // default blocklist is the v6 IANA registry; loopback/link-local
        // targets are suppressed before transmission
        let targets: HostSet<V6> = [1u128, 0xFE80u128 << 112 | 3, 0x2600u128 << 112]
            .into_iter()
            .collect();
        let report = engine
            .run_plan(&ProbePlan::Addrs(targets), 0, &[], &cfg)
            .unwrap();
        assert_eq!(report.blocked_skipped, 2);
        assert_eq!(report.probes_sent, 1);
        assert_eq!(report.responsive.len(), 1);
        // and the default v6 source is the documentation address
        assert_eq!(cfg.source_ip, (0x2001_0db8u128 << 96) | 1);
    }

    #[test]
    fn v6_banner_grab_over_wire() {
        let engine: ScanEngine<V6> = ScanEngine::new(demo_network_v6());
        let plan = ProbePlan::Prefixes(vec!["2600::/121".parse().unwrap()]);
        let report = engine
            .run_plan(&plan, 0, &[], &base_cfg_v6().banner_grab(true))
            .unwrap();
        assert_eq!(report.banners_grabbed, 16);
        assert!(report.sample_banners[0].1.contains("HTTP/1.1"));
    }

    /// The key `run_plan` derives from `ScanConfig::default().seed`.
    fn default_key() -> SipHash24 {
        validation_key(ScanConfig::<V4>::default().seed)
    }

    #[test]
    fn probe_validation_state_is_pinned() {
        let key = default_key();
        let v4: [(u32, u16, u32); 3] = [
            (0x0100_0000, 37628, 1_802_394_618),
            (0x0A2A_0001, 40267, 4_137_216_125),
            (u32::MAX, 53176, 2_215_371_180),
        ];
        for (addr, src_port, seq) in v4 {
            assert_eq!(
                key.probe_validation::<V4>(addr),
                (src_port, seq),
                "{addr:#x}"
            );
            // the sequence number is the 4-byte validation digest's low
            // half, as the engine has always sent it
            assert_eq!(seq, key.hash(&addr.to_le_bytes()) as u32, "{addr:#x}");
        }
        let v6: [(u128, u16, u32); 2] = [
            ((0x2600u128 << 112) | 0x42, 39488, 2_732_591_111),
            (1, 37757, 3_487_360_017),
        ];
        for (addr, src_port, seq) in v6 {
            assert_eq!(
                key.probe_validation::<V6>(addr),
                (src_port, seq),
                "{addr:#x}"
            );
        }
    }

    #[test]
    fn wire_drain_rejects_forged_replies() {
        let cfg = base_cfg();
        let key = default_key();
        let addr = 0x0100_0008u32;
        let (src_port, seq) = key.probe_validation::<V4>(addr);
        // the SYN-ACK an honest host sends back to the probe
        let honest = wire::FrameSpec::<V4> {
            src_ip: addr,
            dst_ip: cfg.source_ip,
            src_port: cfg.port,
            dst_port: src_port,
            seq: 77,
            ack: seq.wrapping_add(1),
            flags: tcp_flags::SYN | tcp_flags::ACK,
            ..wire::FrameSpec::default()
        };
        let drain = |spec: wire::FrameSpec<V4>| {
            let mut replies = Replies::default();
            replies.push(wire::FrameBuf::encode(&spec));
            V4::wire_drain(&cfg, addr, src_port, seq, &replies)
        };
        let counted = drain(honest);
        assert_eq!((counted.syn_acks, counted.validation_failures), (1, 0));
        let forged = [
            ("wrong ack", wire::FrameSpec { ack: seq, ..honest }),
            (
                "wrong destination port",
                wire::FrameSpec {
                    dst_port: src_port ^ 1,
                    ..honest
                },
            ),
            (
                "wrong source address",
                wire::FrameSpec {
                    src_ip: addr + 1,
                    ..honest
                },
            ),
            (
                "wrong destination address",
                wire::FrameSpec {
                    dst_ip: cfg.source_ip + 1,
                    ..honest
                },
            ),
            (
                "wrong source port",
                wire::FrameSpec {
                    src_port: 81,
                    ..honest
                },
            ),
        ];
        for (what, spec) in forged {
            let counted = drain(spec);
            assert_eq!(counted.validation_failures, 1, "{what}");
            assert_eq!((counted.syn_acks, counted.rsts), (0, 0), "{what}");
        }
        // an unparseable reply fails validation too
        let mut replies = Replies::default();
        replies.push(wire::FrameBuf::from_slice(&[0u8; 20]));
        let counted = V4::wire_drain(&cfg, addr, src_port, seq, &replies);
        assert_eq!(counted.validation_failures, 1);
    }

    #[test]
    fn builder_matches_struct_literal() {
        let built: ScanConfig = ScanConfig::for_port(443)
            .rate(5000.0)
            .threads(3)
            .banner_grab(true)
            .wire_level(false)
            .source_ip(7)
            .seed(99);
        assert_eq!(built.port, 443);
        assert_eq!(built.rate_pps, 5000.0);
        assert_eq!(built.threads, 3);
        assert!(built.banner_grab);
        assert!(!built.wire_level);
        assert_eq!(built.source_ip, 7);
        assert_eq!(built.seed, 99);
    }
}
