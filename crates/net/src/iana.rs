//! IANA special-purpose IPv4 registries.
//!
//! Two of the paper's scanning scopes (Figure 1) are defined by IANA data:
//! the full `/0` (~4.3 B addresses) and the **IANA-allocated** space
//! (~3.7 B addresses — everything except special-purpose/reserved blocks).
//! Scanners also need these blocks as a default blocklist: probing
//! `127.0.0.0/8` or multicast space is never acceptable.
//!
//! The table below transcribes the IPv4 Special-Purpose Address Registry
//! (RFC 6890 and updates) as of the paper's measurement period (2015/2016).

use crate::prefix::Prefix;
use crate::set::PrefixSet;

/// Why an address block is special-purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialUse {
    /// "This network" (RFC 1122 §3.2.1.3).
    ThisNetwork,
    /// Private-use networks (RFC 1918).
    PrivateUse,
    /// Shared address space / CGN (RFC 6598).
    SharedAddressSpace,
    /// Loopback (RFC 1122 §3.2.1.3).
    Loopback,
    /// Link-local (RFC 3927).
    LinkLocal,
    /// IETF protocol assignments (RFC 6890).
    IetfProtocol,
    /// Documentation blocks TEST-NET-1/2/3 (RFC 5737).
    Documentation,
    /// 6to4 relay anycast (RFC 3068).
    SixToFourRelay,
    /// Benchmarking (RFC 2544).
    Benchmarking,
    /// Multicast (RFC 5771).
    Multicast,
    /// Reserved for future use, 240/4 (RFC 1112 §4).
    Reserved,
    /// Limited broadcast (RFC 8190 / RFC 919).
    LimitedBroadcast,
}

/// One entry of the special-purpose registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecialEntry {
    /// The reserved block.
    pub prefix: Prefix,
    /// Why it is reserved.
    pub kind: SpecialUse,
    /// Registry name, e.g. `"Private-Use"`.
    pub name: &'static str,
}

macro_rules! entry {
    ($addr:expr, $len:expr, $kind:expr, $name:expr) => {
        SpecialEntry {
            prefix: match Prefix::new($addr, $len) {
                Ok(p) => p,
                Err(_) => panic!("bad registry constant"),
            },
            kind: $kind,
            name: $name,
        }
    };
}

/// The IPv4 special-purpose registry (2015/2016 state).
pub fn special_purpose_registry() -> Vec<SpecialEntry> {
    use SpecialUse::*;
    vec![
        entry!(0x0000_0000, 8, ThisNetwork, "This host on this network"),
        entry!(0x0A00_0000, 8, PrivateUse, "Private-Use (10/8)"),
        entry!(
            0x6440_0000,
            10,
            SharedAddressSpace,
            "Shared Address Space (CGN)"
        ),
        entry!(0x7F00_0000, 8, Loopback, "Loopback"),
        entry!(0xA9FE_0000, 16, LinkLocal, "Link Local"),
        entry!(0xAC10_0000, 12, PrivateUse, "Private-Use (172.16/12)"),
        entry!(0xC000_0000, 24, IetfProtocol, "IETF Protocol Assignments"),
        entry!(0xC000_0200, 24, Documentation, "Documentation (TEST-NET-1)"),
        entry!(0xC058_6300, 24, SixToFourRelay, "6to4 Relay Anycast"),
        entry!(0xC0A8_0000, 16, PrivateUse, "Private-Use (192.168/16)"),
        entry!(0xC612_0000, 15, Benchmarking, "Benchmarking (198.18/15)"),
        entry!(0xC633_6400, 24, Documentation, "Documentation (TEST-NET-2)"),
        entry!(0xCB00_7100, 24, Documentation, "Documentation (TEST-NET-3)"),
        entry!(0xE000_0000, 4, Multicast, "Multicast (224/4)"),
        entry!(0xF000_0000, 4, Reserved, "Reserved (240/4)"),
        // 255.255.255.255/32 is inside 240/4; listed for completeness
        entry!(0xFFFF_FFFF, 32, LimitedBroadcast, "Limited Broadcast"),
    ]
}

/// All special-purpose space as a canonical [`PrefixSet`].
pub fn reserved_set() -> PrefixSet {
    PrefixSet::from_prefixes(special_purpose_registry().into_iter().map(|e| e.prefix))
}

/// The IANA-allocated, publicly usable unicast space: `/0` minus the
/// special-purpose registry. In 2015 essentially every /8 had been
/// allocated to an RIR, so this matches the paper's "IANA allocated"
/// scope of ≈ 3.7 billion addresses.
pub fn allocated_set() -> PrefixSet {
    PrefixSet::full().subtract(&reserved_set())
}

/// Why an IPv6 address block is special-purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialUse6 {
    /// The unspecified address `::` (RFC 4291).
    Unspecified,
    /// Loopback `::1` (RFC 4291).
    Loopback,
    /// IPv4-mapped addresses `::ffff:0:0/96` (RFC 4291).
    V4Mapped,
    /// IPv4-IPv6 translation `64:ff9b::/96` (RFC 6052).
    V4Translation,
    /// Discard-only `100::/64` (RFC 6666).
    Discard,
    /// IETF protocol assignments `2001::/23` (RFC 2928).
    IetfProtocol,
    /// Documentation `2001:db8::/32` (RFC 3849).
    Documentation,
    /// 6to4 `2002::/16` (RFC 3056).
    SixToFour,
    /// Unique local addresses `fc00::/7` (RFC 4193).
    UniqueLocal,
    /// Link-local unicast `fe80::/10` (RFC 4291).
    LinkLocal,
    /// Multicast `ff00::/8` (RFC 4291).
    Multicast,
}

/// One entry of the IPv6 special-purpose registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecialEntry6 {
    /// The reserved block.
    pub prefix: Prefix<crate::V6>,
    /// Why it is reserved.
    pub kind: SpecialUse6,
    /// Registry name.
    pub name: &'static str,
}

/// The IPv6 special-purpose registry (RFC 6890 and updates): the blocks a
/// v6 scanning campaign must never target, and the complement of the
/// globally routable unicast space its plans are seeded from.
pub fn special_purpose_registry_v6() -> Vec<SpecialEntry6> {
    use SpecialUse6::*;
    fn entry(s: &str, kind: SpecialUse6, name: &'static str) -> SpecialEntry6 {
        SpecialEntry6 {
            prefix: s.parse().expect("registry constants are canonical"),
            kind,
            name,
        }
    }
    vec![
        entry("::/128", Unspecified, "Unspecified Address"),
        entry("::1/128", Loopback, "Loopback Address"),
        entry("::ffff:0:0/96", V4Mapped, "IPv4-mapped Addresses"),
        entry("64:ff9b::/96", V4Translation, "IPv4-IPv6 Translation"),
        entry("100::/64", Discard, "Discard-Only Address Block"),
        entry("2001::/23", IetfProtocol, "IETF Protocol Assignments"),
        entry("2001:db8::/32", Documentation, "Documentation"),
        entry("2002::/16", SixToFour, "6to4"),
        entry("fc00::/7", UniqueLocal, "Unique-Local"),
        entry("fe80::/10", LinkLocal, "Link-Local Unicast"),
        entry("ff00::/8", Multicast, "Multicast"),
    ]
}

/// All IPv6 special-purpose space as a canonical [`PrefixSet`] — the
/// default blocklist of a v6 scanning campaign, exactly as
/// [`reserved_set`] is for v4.
pub fn reserved_set_v6() -> PrefixSet<crate::V6> {
    PrefixSet::from_prefixes(special_purpose_registry_v6().into_iter().map(|e| e.prefix))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Is the v6 address inside any special-purpose block? A linear scan
    /// of the registry: the oracle of [`reserved_set_v6`].
    fn is_reserved_v6(addr: u128) -> bool {
        special_purpose_registry_v6()
            .iter()
            .any(|e| e.prefix.contains_addr(addr))
    }

    #[test]
    fn registry_entries_are_canonical() {
        // The entry! macro panics on non-canonical constants; touching every
        // entry here makes sure none panic and names are unique.
        let reg = special_purpose_registry();
        assert_eq!(reg.len(), 16);
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn well_known_reserved_addresses() {
        let set = reserved_set();
        let reserved = |a| set.contains_addr(a);
        assert!(reserved(0x7F00_0001)); // 127.0.0.1
        assert!(reserved(0x0A01_0203)); // 10.1.2.3
        assert!(reserved(0xC0A8_0101)); // 192.168.1.1
        assert!(reserved(0xAC10_0001)); // 172.16.0.1
        assert!(reserved(0xE000_0001)); // 224.0.0.1
        assert!(reserved(0xFFFF_FFFF)); // 255.255.255.255
        assert!(reserved(0x6440_0001)); // 100.64.0.1 (CGN)
    }

    #[test]
    fn well_known_public_addresses() {
        let set = reserved_set();
        for a in [
            0x0808_0808u32, // 8.8.8.8
            0x0101_0101,    // 1.1.1.1
            0xC0A7_FFFF,    // 192.167.255.255 (just below 192.168/16)
            0x0B00_0001,    // 11.0.0.1 (just above 10/8)
            0x6480_0001,    // 100.128.0.1 (just above CGN /10)
        ] {
            assert!(!set.contains_addr(a), "{a:#x} wrongly reserved");
        }
    }

    #[test]
    fn allocated_space_matches_paper_figure1() {
        // Paper Figure 1: IANA allocated ≈ 3.7 billion addresses.
        let n = allocated_set().num_addrs();
        assert!(
            (3_600_000_000..3_800_000_000).contains(&n),
            "allocated space {n} outside the paper's ~3.7B"
        );
    }

    #[test]
    fn reserved_plus_allocated_is_everything() {
        let r = reserved_set();
        let a = allocated_set();
        assert_eq!(r.num_addrs() + a.num_addrs(), 1u64 << 32);
        assert!(r.intersection(&a).is_empty());
    }

    #[test]
    fn v6_registry_is_canonical_and_classifies_well_known_addresses() {
        let reg = special_purpose_registry_v6();
        assert_eq!(reg.len(), 11);
        let mut names: Vec<&str> = reg.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11, "names unique");
        // ::1, link-local, ULA, multicast, documentation are reserved
        assert!(is_reserved_v6(1));
        assert!(is_reserved_v6(0xFE80u128 << 112 | 7));
        assert!(is_reserved_v6(0xFC00u128 << 112));
        assert!(is_reserved_v6(0xFF02u128 << 112 | 1));
        assert!(is_reserved_v6(0x2001_0db8u128 << 96 | 42));
        // global unicast (2600::/12 area, where the simulator seeds) is not
        assert!(!is_reserved_v6(0x2600u128 << 112));
        assert!(!is_reserved_v6(0x2a00u128 << 112 | 99));
    }

    #[test]
    fn v6_reserved_set_matches_registry_scan() {
        let set = reserved_set_v6();
        for e in special_purpose_registry_v6() {
            assert!(set.contains_addr(e.prefix.first()), "{}", e.name);
            assert!(set.contains_addr(e.prefix.last()), "{}", e.name);
        }
        // the set agrees with the linear scan on a spread of addresses
        for a in [
            0u128,
            1,
            0x64_ff9bu128 << 96,
            0x2001_0db8u128 << 96 | 7,
            0x2600u128 << 112,
            0xFE80u128 << 112 | 1,
            0xFF00u128 << 112,
            u128::MAX,
        ] {
            assert_eq!(set.contains_addr(a), is_reserved_v6(a), "{a:#x}");
        }
        // ::/128 and ::1/128 are adjacent and merge into one range; the
        // v4-mapped /96 stays separate
        assert!(set.ranges().len() >= 5);
    }

    #[test]
    fn reserved_set_consistent_with_scan() {
        let set = reserved_set();
        // sample the boundaries of each registry entry
        for e in special_purpose_registry() {
            assert!(set.contains_addr(e.prefix.first()), "{}", e.name);
            assert!(set.contains_addr(e.prefix.last()), "{}", e.name);
        }
    }
}
