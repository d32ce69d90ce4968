//! The complete simulated dataset: topology + monthly snapshots.
//!
//! A [`Universe`] is this repository's stand-in for the paper's 4.1 TB
//! censys.io corpus: one routing topology plus, for each month 0..=N and
//! each of the four protocols, the ground-truth set of responsive
//! addresses. Generation is deterministic in the seed, so experiments are
//! exactly reproducible.

use crate::churn::{advance_month, ChurnTable};
use crate::corpus::CorpusError;
use crate::population::{DensityTable, Population};
use crate::protocol::Protocol;
use crate::snapshot::Snapshot;
use crate::source::GroundTruth;
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tass_bgp::synth::{self, SynthConfig};

/// Configuration of a simulated universe.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Routing-table generator configuration.
    pub synth: SynthConfig,
    /// Number of months simulated *after* the seeding month (the paper's
    /// evaluation horizon is 6, giving 7 snapshots).
    pub months: u32,
    /// Global density multiplier (1.0 = default model scale).
    pub host_scale: f64,
    /// Density mixture table (override for ablations).
    pub density: DensityTable,
    /// Churn rate table (override for ablations).
    pub churn: ChurnTable,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            seed: 0x1A55,
            synth: SynthConfig::default(),
            months: 6,
            host_scale: 1.0,
            density: DensityTable::new(),
            churn: ChurnTable::new(),
        }
    }
}

impl UniverseConfig {
    /// A small configuration for tests and examples: a few hundred
    /// l-prefixes, still exhibiting all qualitative behaviours.
    pub fn small(seed: u64) -> Self {
        UniverseConfig {
            seed,
            synth: SynthConfig {
                seed,
                l_prefix_count: 600,
                ..SynthConfig::default()
            },
            ..UniverseConfig::default()
        }
    }
}

/// Topology plus all ground-truth snapshots.
///
/// `Universe` is the in-memory [`GroundTruth`] source: snapshots are
/// held behind [`Arc`]s so the trait's lazy
/// [`load_snapshot`](GroundTruth::load_snapshot) path is a pointer
/// clone, never a copy.
#[derive(Debug, Clone)]
pub struct Universe {
    topology: Topology,
    /// `snapshots[month][protocol.index()]`
    snapshots: Vec<Vec<Arc<Snapshot>>>,
}

impl Universe {
    /// Generate a universe from a configuration.
    pub fn generate(cfg: &UniverseConfig) -> Universe {
        let synth_table = synth::generate(&cfg.synth);
        let topology = Topology::build(synth_table);

        let mut snapshots: Vec<Vec<Arc<Snapshot>>> = (0..=cfg.months)
            .map(|_| Vec::with_capacity(Protocol::COUNT))
            .collect();

        for proto in Protocol::ALL {
            // independent, seed-derived RNG stream per protocol
            let stream =
                cfg.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(proto.index() as u64 + 1));
            let mut rng = SmallRng::seed_from_u64(stream);
            let mut pop = Population::seed(
                &topology,
                proto,
                &cfg.density,
                &cfg.churn,
                cfg.host_scale,
                &mut rng,
            );
            snapshots[0].push(Arc::new(Snapshot::new(proto, 0, pop.host_set())));
            for month in 1..=cfg.months {
                advance_month(&mut pop, &topology, &cfg.churn, &mut rng);
                snapshots[month as usize].push(Arc::new(Snapshot::new(
                    proto,
                    month,
                    pop.host_set(),
                )));
            }
        }
        Universe {
            topology,
            snapshots,
        }
    }

    /// The static structure.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of months after t₀ (total snapshots per protocol = months+1).
    pub fn months(&self) -> u32 {
        self.snapshots.len() as u32 - 1
    }

    /// Ground truth for `(month, protocol)`. Panics when out of range.
    pub fn snapshot(&self, month: u32, proto: Protocol) -> &Snapshot {
        &self.snapshots[month as usize][proto.index()]
    }

    /// All snapshots of one protocol, month ascending.
    pub fn series(&self, proto: Protocol) -> Vec<&Snapshot> {
        self.snapshots.iter().map(|m| &*m[proto.index()]).collect()
    }
}

impl GroundTruth for Universe {
    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn months(&self) -> u32 {
        Universe::months(self)
    }

    fn protocols(&self) -> Vec<Protocol> {
        Protocol::ALL.to_vec()
    }

    fn load_snapshot(&self, month: u32, protocol: Protocol) -> Result<Arc<Snapshot>, CorpusError> {
        match self.snapshots.get(month as usize) {
            Some(by_proto) => Ok(Arc::clone(&by_proto[protocol.index()])),
            None => Err(CorpusError::MissingMonth { month, protocol }),
        }
    }
}

// ------------------------------------------------------------------- IPv6

use crate::population::{random_v6_addr_in, seed_v6_block_hosts};
use crate::snapshot::HostSet;
use tass_net::{Prefix, V6};

/// Configuration of a synthetic sparse IPv6 universe.
///
/// There is no v6 analogue of the paper's full-space census — 2¹²⁸
/// addresses cannot be enumerated — so the v6 ground truth is built the
/// only way real v6 ground truth exists: **seeded**. A set of operator
/// prefixes (/48–/64, the sizes BGP actually carries) each hold a few
/// *dense blocks* (server racks, DHCPv6 pools) in which responsive hosts
/// cluster; everything outside the blocks is dead space. The structure is
/// deterministic in the seed, like [`UniverseConfig`].
#[derive(Debug, Clone)]
pub struct V6UniverseConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// The protocol the snapshots describe.
    pub protocol: Protocol,
    /// Number of seeded operator prefixes.
    pub operators: usize,
    /// Months simulated after the seeding month.
    pub months: u32,
    /// Prefix length of a dense host block (e.g. 116 → 4096 addresses).
    pub block_len: u8,
    /// Maximum dense blocks per operator (at least one each).
    pub max_blocks_per_operator: u32,
    /// Mean fraction of a dense block that responds.
    pub mean_block_density: f64,
    /// Fraction of hosts replaced each month (churn within blocks).
    pub churn: f64,
}

impl Default for V6UniverseConfig {
    fn default() -> Self {
        V6UniverseConfig {
            seed: 0x6A55,
            protocol: Protocol::Http,
            operators: 24,
            months: 6,
            block_len: 116,
            max_blocks_per_operator: 6,
            mean_block_density: 0.25,
            churn: 0.08,
        }
    }
}

impl V6UniverseConfig {
    /// A small configuration for tests and examples.
    pub fn small(seed: u64) -> Self {
        V6UniverseConfig {
            seed,
            operators: 12,
            max_blocks_per_operator: 4,
            ..V6UniverseConfig::default()
        }
    }
}

/// The seeded announced IPv6 space: the operator prefixes a v6 campaign
/// plans over (its "BGP table").
#[derive(Debug, Clone, Default)]
pub struct V6Space {
    announced: Vec<Prefix<V6>>,
}

impl V6Space {
    /// Build from a prefix list (sorted, deduplicated).
    pub fn new(mut announced: Vec<Prefix<V6>>) -> V6Space {
        announced.sort_unstable();
        announced.dedup();
        V6Space { announced }
    }

    /// The announced prefixes, sorted by address.
    pub fn announced(&self) -> &[Prefix<V6>] {
        &self.announced
    }

    /// Total announced address space (saturating; seeded /48–/64 sums
    /// stay far below u128::MAX in practice).
    pub fn announced_space(&self) -> u128 {
        self.announced
            .iter()
            .fold(0u128, |acc, p| acc.saturating_add(p.size_u128()))
    }
}

/// One host: its address and the dense block it lives in.
#[derive(Debug, Clone, Copy)]
struct V6Host {
    addr: u128,
    block: u32,
}

/// Seeded prefixes plus monthly ground-truth snapshots — the IPv6
/// counterpart of [`Universe`], scoped to one protocol.
#[derive(Debug, Clone)]
pub struct V6Universe {
    space: V6Space,
    blocks: Vec<Prefix<V6>>,
    snapshots: Vec<Arc<Snapshot<V6>>>,
}

impl V6Universe {
    /// Generate a universe from a configuration.
    pub fn generate(cfg: &V6UniverseConfig) -> V6Universe {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x76_5F55_6E69);
        let block_size = 1u128 << (128 - cfg.block_len);

        // Operator prefixes: one per distinct /32 under 2600::/12, with a
        // random /48–/64 announcement inside it — disjoint by construction.
        let mut announced = Vec::with_capacity(cfg.operators);
        let mut blocks: Vec<Prefix<V6>> = Vec::new();
        let mut hosts: Vec<V6Host> = Vec::new();
        for op in 0..cfg.operators {
            let base32 = (0x2600u128 << 112) | ((op as u128) << 96);
            let len = 48 + 4 * u8::try_from(rng.random_range(0u32..5)).expect("0..5 fits"); // 48, 52, …, 64
            let within =
                random_v6_addr_in(&mut rng, Prefix::new_truncate(base32, 32).expect("len 32"));
            let operator = Prefix::new_truncate(within, len).expect("len <= 64");
            announced.push(operator);

            // the `.max(1)` keeps the documented "at least one each" true
            // for a zero config instead of panicking on an empty range
            let n_blocks = 1 + rng.random_range(0..cfg.max_blocks_per_operator.max(1));
            let mut op_blocks = Vec::with_capacity(n_blocks as usize);
            for _ in 0..n_blocks {
                let b = Prefix::new_truncate(random_v6_addr_in(&mut rng, operator), cfg.block_len)
                    .expect("block_len <= 128");
                if !op_blocks.contains(&b) {
                    op_blocks.push(b);
                }
            }
            for b in op_blocks {
                let density = cfg.mean_block_density * (0.5 + rng.random::<f64>());
                let count = (density * block_size as f64).round() as usize;
                let bi = blocks.len() as u32;
                for addr in seed_v6_block_hosts(&mut rng, b, count) {
                    hosts.push(V6Host { addr, block: bi });
                }
                blocks.push(b);
            }
        }

        let space = V6Space::new(announced);
        let mut snapshots = Vec::with_capacity(cfg.months as usize + 1);
        snapshots.push(Arc::new(Snapshot::new(
            cfg.protocol,
            0,
            HostSet::from_addrs(hosts.iter().map(|h| h.addr).collect()),
        )));
        for month in 1..=cfg.months {
            // churn: each host is replaced with probability `churn` by a
            // fresh address in the *same* dense block — v6 churn is
            // renumbering within pools, not migration across space
            for h in hosts.iter_mut() {
                if rng.random::<f64>() < cfg.churn {
                    h.addr = random_v6_addr_in(&mut rng, blocks[h.block as usize]);
                }
            }
            snapshots.push(Arc::new(Snapshot::new(
                cfg.protocol,
                month,
                HostSet::from_addrs(hosts.iter().map(|h| h.addr).collect()),
            )));
        }
        V6Universe {
            space,
            blocks,
            snapshots,
        }
    }

    /// The seeded announced space.
    pub fn space(&self) -> &V6Space {
        &self.space
    }

    /// The dense ground-truth blocks (for inspection and oracles).
    pub fn dense_blocks(&self) -> &[Prefix<V6>] {
        &self.blocks
    }

    /// Number of months after t₀.
    pub fn months(&self) -> u32 {
        self.snapshots.len() as u32 - 1
    }

    /// Ground truth for a month. Panics when out of range.
    pub fn snapshot(&self, month: u32) -> &Snapshot<V6> {
        &self.snapshots[month as usize]
    }
}

impl GroundTruth<V6> for V6Universe {
    fn topology(&self) -> &V6Space {
        &self.space
    }

    fn months(&self) -> u32 {
        V6Universe::months(self)
    }

    fn protocols(&self) -> Vec<Protocol> {
        vec![self.snapshots[0].protocol]
    }

    fn load_snapshot(
        &self,
        month: u32,
        protocol: Protocol,
    ) -> Result<Arc<Snapshot<V6>>, CorpusError> {
        if protocol != self.snapshots[0].protocol {
            return Err(CorpusError::MissingProtocol { protocol });
        }
        match self.snapshots.get(month as usize) {
            Some(s) => Ok(Arc::clone(s)),
            None => Err(CorpusError::MissingMonth { month, protocol }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Universe {
        Universe::generate(&UniverseConfig::small(7))
    }

    #[test]
    fn generates_all_snapshots() {
        let u = small();
        assert_eq!(u.months(), 6);
        for month in 0..=6 {
            for proto in Protocol::ALL {
                let s = u.snapshot(month, proto);
                assert_eq!(s.month, month);
                assert_eq!(s.protocol, proto);
                assert!(!s.is_empty(), "{proto} month {month} empty");
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = Universe::generate(&UniverseConfig::small(9));
        let b = Universe::generate(&UniverseConfig::small(9));
        for month in 0..=6u32 {
            for proto in Protocol::ALL {
                assert_eq!(month, a.snapshot(month, proto).month);
                assert_eq!(
                    a.snapshot(month, proto).hosts,
                    b.snapshot(month, proto).hosts
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Universe::generate(&UniverseConfig::small(1));
        let b = Universe::generate(&UniverseConfig::small(2));
        assert_ne!(
            a.snapshot(0, Protocol::Http).hosts,
            b.snapshot(0, Protocol::Http).hosts
        );
    }

    #[test]
    fn protocols_have_independent_populations() {
        let u = small();
        let ftp = u.snapshot(0, Protocol::Ftp);
        let http = u.snapshot(0, Protocol::Http);
        assert_ne!(ftp.hosts, http.hosts);
    }

    #[test]
    fn hosts_inside_announced_space() {
        let u = small();
        for proto in Protocol::ALL {
            let s = u.snapshot(0, proto);
            for a in s.hosts.iter().step_by(13) {
                assert!(
                    u.topology().block_of_addr(a).is_some(),
                    "{proto}: host {a:#x} outside announced space"
                );
            }
        }
    }

    #[test]
    fn series_is_month_ordered() {
        let u = small();
        let series = u.series(Protocol::Cwmp);
        assert_eq!(series.len(), 7);
        for (i, s) in series.iter().enumerate() {
            assert_eq!(s.month as usize, i);
        }
    }

    #[test]
    fn populations_evolve_over_time() {
        let u = small();
        for proto in Protocol::ALL {
            let t0 = u.snapshot(0, proto);
            let t6 = u.snapshot(6, proto);
            assert_ne!(t0.hosts, t6.hosts, "{proto} did not evolve");
            // but the sizes stay in the same ballpark
            let ratio = t6.len() as f64 / t0.len() as f64;
            assert!(
                (0.85..1.2).contains(&ratio),
                "{proto} size drifted by {ratio}"
            );
        }
    }

    #[test]
    fn v6_universe_is_deterministic_and_clustered() {
        let a = V6Universe::generate(&V6UniverseConfig::small(3));
        let b = V6Universe::generate(&V6UniverseConfig::small(3));
        assert_eq!(a.months(), 6);
        for m in 0..=6 {
            assert_eq!(a.snapshot(m).hosts, b.snapshot(m).hosts);
            assert!(!a.snapshot(m).is_empty());
        }
        assert_ne!(
            a.snapshot(0).hosts,
            V6Universe::generate(&V6UniverseConfig::small(4))
                .snapshot(0)
                .hosts,
            "different seeds differ"
        );
        // every host lives inside a dense block, and every block inside
        // an announced operator prefix
        let t0 = a.snapshot(0);
        for addr in t0.hosts.iter().step_by(17) {
            assert!(
                a.dense_blocks().iter().any(|b| b.contains_addr(addr)),
                "host outside every dense block"
            );
            assert!(
                a.space().announced().iter().any(|p| p.contains_addr(addr)),
                "host outside announced space"
            );
        }
        // operator prefixes are /48–/64 and disjoint
        for p in a.space().announced() {
            assert!((48..=64).contains(&p.len()), "operator at /{}", p.len());
        }
        for w in a.space().announced().windows(2) {
            assert!(w[0].last() < w[1].first(), "operators overlap");
        }
        // the space is big and the population vanishingly sparse
        let space = a.space().announced_space();
        assert!(space > 1u128 << 64);
        assert!((t0.len() as u128) < space >> 40, "sparsity is the point");
    }

    #[test]
    fn v6_zero_max_blocks_still_seeds_one_block_per_operator() {
        // regression: `max_blocks_per_operator: 0` used to panic on an
        // empty RNG range; the documented "at least one each" must hold
        let u = V6Universe::generate(&V6UniverseConfig {
            max_blocks_per_operator: 0,
            ..V6UniverseConfig::small(9)
        });
        assert_eq!(
            u.dense_blocks().len(),
            u.space().announced().len(),
            "exactly one block per operator"
        );
        assert!(!u.snapshot(0).is_empty());
    }

    #[test]
    fn v6_churn_moves_hosts_within_blocks() {
        let u = V6Universe::generate(&V6UniverseConfig::small(5));
        let t0 = u.snapshot(0);
        let t6 = u.snapshot(6);
        assert_ne!(t0.hosts, t6.hosts, "population must churn");
        // sizes stay in the same ballpark: renumbering shrinks the *set*
        // slightly when a re-drawn address collides inside a dense block
        // (two hosts on one address answer as one), but never grows it
        let ratio = t6.len() as f64 / t0.len() as f64;
        assert!((0.85..=1.0).contains(&ratio), "size drifted by {ratio}");
        // …and every later host is still inside a t0 dense block
        for addr in t6.hosts.iter().step_by(29) {
            assert!(u.dense_blocks().iter().any(|b| b.contains_addr(addr)));
        }
    }
}
