//! # tass-model — synthetic Internet ground-truth substrate
//!
//! Replaces the paper's censys.io dataset (28 full IPv4 scans, 4.1 TB) with
//! a seeded, class-driven simulation of protocol host populations and their
//! monthly evolution. See DESIGN.md §3.3 for the substitution argument.
//!
//! Ground-truth containers ([`HostSet`], [`Snapshot`]) are generic over
//! the address family with an IPv4 default; [`V6Universe`] synthesises a
//! sparse IPv6 universe from seeded /48–/64 operator prefixes whose
//! responsive hosts cluster in dense blocks — the regime where
//! topology-aware target selection is not merely cheaper but the only
//! feasible strategy.
//!
//! Campaigns do not read a `Universe` directly: they read any
//! [`GroundTruth`] source ([`source`]), of which the synthetic universes
//! are the in-memory implementations and a [`corpus`] directory of real
//! monthly scan snapshots (pfx2as topology + per-month binary snapshots)
//! is the disk-backed, lazily-loaded one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod corpus;
pub mod distr;
pub mod population;
pub mod protocol;
pub mod registry;
pub mod snapshot;
pub mod source;
pub mod topology;
pub mod universe;

pub use churn::{default_churn, ChurnTable, ClassChurn};
pub use corpus::{
    export_universe, parse_address_list, parse_address_list_family,
    stream_address_list_to_snapshot, AddressListError, CorpusBuilder, CorpusError,
    CorpusGroundTruth, CorpusManifest, CorpusOptions, IngestOptions,
};
pub use population::{
    default_density, random_v6_addr_in, seed_v6_block_hosts, DensityParams, DensityTable,
    Population,
};
pub use protocol::Protocol;
pub use registry::{RegistryError, SharedSource, SourceInfo, SourceRegistry};
pub use snapshot::{DecodeError, HostSet, HostSetView, PrefixCount, Snapshot};
pub use source::{FamilySpace, GroundTruth};
pub use topology::{BlockMeta, Topology};
pub use universe::{Universe, UniverseConfig, V6Space, V6Universe, V6UniverseConfig};
