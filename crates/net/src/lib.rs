//! # tass-net — address & prefix substrate, generic over the family
//!
//! Foundation crate for the TASS reproduction (Klick et al., *Towards Better
//! Internet Citizenship: Reducing the Footprint of Internet-wide Scans by
//! Topology Aware Prefix Selection*, IMC 2016).
//!
//! Everything in the paper is expressed in terms of **prefixes**: BGP
//! announcements, the deaggregation of less-specific prefixes around their
//! more-specific announcements (paper Figure 2), prefix *density*
//! (responsive hosts per address), and prefix selection. This crate provides
//! those primitives from scratch, with no external CIDR dependency, because
//! the prefix math *is* part of the system under reproduction — and none
//! of it is IPv4-specific. The [`family`] module opens the address-family
//! axis: every core type is generic over an [`AddrFamily`] with a
//! [`V4`] default (`Addr = u32`, exactly the pre-generic API) and a
//! [`V6`] instantiation (`Addr = u128`) for the space where
//! topology-aware selection matters most — 2¹²⁸ addresses cannot be
//! brute-forced, so hitlist- and prefix-seeded plans are the only viable
//! strategy. See [`family`] for the compatibility and saturation rules.
//!
//! * [`Prefix`] — a canonical CIDR prefix (`addr/len`, host bits zero),
//!   `Prefix<V6>` for 128-bit space,
//! * [`AddrRange`] — inclusive address ranges and minimal CIDR covers,
//! * [`PrefixSet`] — a canonicalising set of disjoint address space with
//!   union / intersection / subtraction algebra,
//! * [`PrefixTrie`] — an arena-allocated binary trie with longest- and
//!   shortest-prefix match, the engine behind address→prefix attribution,
//! * [`deagg`] — the paper's Figure 2 decomposition: split a less-specific
//!   prefix into the minimal partition that preserves every more-specific
//!   announcement,
//! * [`iana`] — IANA special-purpose registries (RFC 6890 and friends),
//!   queried as [`PrefixSet`]s ([`iana::reserved_set`],
//!   [`iana::reserved_set_v6`], [`iana::allocated_set`]) for scan
//!   blocklists and the paper's Figure 1 scoping pyramid,
//! * [`cyclic`] — ZMap's address permutation (multiplicative-group
//!   iteration with sharding), the streaming substrate shared by the
//!   scan engine and `tass-core`'s lazy probe-plan iterators.
//!
//! ## Quick example
//!
//! ```
//! use tass_net::{Prefix, deagg};
//!
//! let l: Prefix = "100.0.0.0/8".parse().unwrap();
//! let m: Prefix = "100.0.0.0/12".parse().unwrap();
//! // Paper Figure 2: /8 decomposes into the /12 plus the remainder blocks.
//! let parts = deagg::partition_preserving(l, &[m]);
//! assert_eq!(parts.len(), 5); // /12 + /12-sibling + /11 + /10 + /9
//! assert!(parts.contains(&m));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod cyclic;
pub mod deagg;
pub mod error;
pub mod family;
pub mod iana;
pub mod prefix;
pub mod set;
pub mod trie;

pub use addr::{addr_from_u128, addr_from_u32, addr_to_u128, addr_to_u32, AddrRange};
pub use cyclic::{Cyclic, CyclicError};
pub use error::NetError;
pub use family::{AddrFamily, V4, V6};
pub use prefix::Prefix;
pub use set::PrefixSet;
pub use trie::PrefixTrie;

/// Total size of the IPv4 address space (2^32).
pub const IPV4_SPACE: u64 = 1 << 32;
