//! The canonical CIDR prefix type, generic over the address family.
//!
//! A [`Prefix`] is an address plus a length in `0..=BITS` whose host bits
//! are all zero (canonical form). The paper's entire machinery — BGP
//! tables, deaggregation, density ρᵢ = cᵢ / 2^(BITS−len), prefix
//! selection — operates on values of this type, so correctness here
//! underpins everything else. The family parameter defaults to
//! [`V4`], so `Prefix` written bare is exactly the pre-generic IPv4
//! prefix; `Prefix<V6>` is the same machinery at 128 bits.

use crate::error::NetError;
use crate::family::{AddrFamily, V4};
use std::fmt;
use std::str::FromStr;

/// A canonical network prefix in CIDR notation, e.g. `10.0.0.0/8` or
/// `2001:db8::/32`.
///
/// Invariants (enforced by every constructor):
/// * `len <= F::BITS`;
/// * all bits of `addr` below `len` are zero.
///
/// Ordering is lexicographic by `(addr, len)`, which places a less-specific
/// prefix immediately before its first more-specific sub-prefix — convenient
/// for table dumps and deterministic tie-breaking in selection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix<F: AddrFamily = V4> {
    addr: F::Addr,
    len: u8,
}

// Serialization matches the pre-generic derived form exactly — a map of
// `addr` then `len` — so v4 artifacts are byte-identical across the
// refactor. (Hand-written because the derive would bound `F: Serialize`
// instead of `F::Addr: Serialize`.)
impl<F: AddrFamily> serde::Serialize for Prefix<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (String::from("addr"), self.addr.to_value()),
            (String::from("len"), self.len.to_value()),
        ])
    }
}

impl<F: AddrFamily> serde::Deserialize for Prefix<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let addr = F::Addr::from_value(serde::value_get(v, "addr")?)?;
        let len = u8::from_value(serde::value_get(v, "len")?)?;
        Prefix::new(addr, len).map_err(|e| serde::DeError(e.to_string()))
    }
}

/// The all-ones mask of the family as `u128` (low `BITS` bits set).
#[inline]
fn space_mask<F: AddrFamily>() -> u128 {
    F::max_addr_u128()
}

/// The network mask for a prefix length, as `u128`.
#[inline]
fn netmask_u128<F: AddrFamily>(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        space_mask::<F>() & !((1u128 << (F::BITS - len)) - 1)
    }
}

impl Prefix {
    /// The whole IPv4 space, `0.0.0.0/0`.
    pub const ZERO: Prefix = Prefix { addr: 0, len: 0 };
}

#[allow(clippy::len_without_is_empty)] // len() is the CIDR prefix length
impl<F: AddrFamily> Prefix<F> {
    /// The whole address space of the family (`len == 0`) — the generic
    /// spelling of [`Prefix::ZERO`].
    #[inline]
    pub fn zero() -> Prefix<F> {
        Prefix {
            addr: F::addr_from_u128(0),
            len: 0,
        }
    }

    /// Create a prefix, rejecting non-canonical input.
    ///
    /// ```
    /// use tass_net::Prefix;
    /// assert!(Prefix::<tass_net::V4>::new(0x0A000000, 8).is_ok());  // 10.0.0.0/8
    /// assert!(Prefix::<tass_net::V4>::new(0x0A000001, 8).is_err()); // host bits set
    /// assert!(Prefix::<tass_net::V4>::new(0, 33).is_err());         // bad length
    /// ```
    pub fn new(addr: F::Addr, len: u8) -> Result<Self, NetError> {
        if len > F::BITS {
            return Err(NetError::InvalidPrefixLength(len));
        }
        let a = F::addr_to_u128(addr);
        if a & !netmask_u128::<F>(len) != 0 {
            return Err(NetError::HostBitsSet {
                addr: crate::addr::fmt_family_addr::<F>(addr),
                len,
            });
        }
        Ok(Prefix { addr, len })
    }

    /// Create a prefix, zeroing any host bits instead of rejecting them.
    pub fn new_truncate(addr: F::Addr, len: u8) -> Result<Self, NetError> {
        if len > F::BITS {
            return Err(NetError::InvalidPrefixLength(len));
        }
        Ok(Prefix {
            addr: F::addr_from_u128(F::addr_to_u128(addr) & netmask_u128::<F>(len)),
            len,
        })
    }

    /// The prefix containing a single address, `addr/BITS`.
    #[inline]
    pub fn host(addr: F::Addr) -> Self {
        Prefix { addr, len: F::BITS }
    }

    /// Network address (the prefix's lowest address).
    #[inline]
    pub fn addr(&self) -> F::Addr {
        self.addr
    }

    /// Prefix length in bits.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// `true` only for single-host prefixes (`/32` in v4, `/128` in v6).
    /// Named for clippy's `len`/`is_empty` convention; a prefix is never
    /// empty of addresses.
    #[inline]
    pub fn is_host(&self) -> bool {
        self.len == F::BITS
    }

    /// Number of addresses covered: `2^(BITS − len)`.
    ///
    /// This is the denominator of the paper's density
    /// ρᵢ = cᵢ / 2^(BITS − prefix length). The one uncountable case —
    /// the full v6 space, 2¹²⁸ — saturates to `u128::MAX` (see
    /// [`crate::family`]); every v4 size is exact in `u64` as before.
    #[inline]
    pub fn size(&self) -> F::Wide {
        F::wide_from_u128(self.size_u128())
    }

    /// [`Prefix::size`] as a `u128` (saturating only at the full v6
    /// space).
    #[inline]
    pub fn size_u128(&self) -> u128 {
        let host_bits = F::BITS - self.len;
        if host_bits >= 128 {
            u128::MAX // 2^128 is uncountable; document-saturate
        } else {
            1u128 << host_bits
        }
    }

    /// First covered address (== `addr()`).
    #[inline]
    pub fn first(&self) -> F::Addr {
        self.addr
    }

    /// Last covered address (broadcast address for v4 subnets).
    #[inline]
    pub fn last(&self) -> F::Addr {
        F::addr_from_u128(
            F::addr_to_u128(self.addr) | (space_mask::<F>() & !netmask_u128::<F>(self.len)),
        )
    }

    /// Does this prefix cover `addr`?
    #[inline]
    pub fn contains_addr(&self, addr: F::Addr) -> bool {
        F::addr_to_u128(addr) & netmask_u128::<F>(self.len) == F::addr_to_u128(self.addr)
    }

    /// Does this prefix fully contain `other` (including equality)?
    #[inline]
    pub fn contains(&self, other: &Prefix<F>) -> bool {
        self.len <= other.len && self.contains_addr(other.addr)
    }

    /// Strict containment: contains `other` and is shorter.
    #[inline]
    pub fn contains_strictly(&self, other: &Prefix<F>) -> bool {
        self.len < other.len && self.contains_addr(other.addr)
    }

    /// Do the two prefixes share any address? (Equivalent to one containing
    /// the other, since CIDR blocks are nested or disjoint.)
    #[inline]
    pub fn overlaps(&self, other: &Prefix<F>) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The immediate parent (one bit shorter); `None` for `/0`.
    pub fn parent(&self) -> Option<Prefix<F>> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Prefix {
            addr: F::addr_from_u128(F::addr_to_u128(self.addr) & netmask_u128::<F>(len)),
            len,
        })
    }

    /// The sibling sharing this prefix's parent; `None` for `/0`.
    ///
    /// ```
    /// use tass_net::Prefix;
    /// let p: Prefix = "10.0.0.0/9".parse().unwrap();
    /// assert_eq!(p.sibling().unwrap().to_string(), "10.128.0.0/9");
    /// ```
    pub fn sibling(&self) -> Option<Prefix<F>> {
        if self.len == 0 {
            return None;
        }
        let bit = 1u128 << (F::BITS - self.len);
        Some(Prefix {
            addr: F::addr_from_u128(F::addr_to_u128(self.addr) ^ bit),
            len: self.len,
        })
    }

    /// The two children one bit longer; `None` for host prefixes.
    pub fn children(&self) -> Option<(Prefix<F>, Prefix<F>)> {
        if self.len == F::BITS {
            return None;
        }
        let len = self.len + 1;
        let bit = 1u128 << (F::BITS - len);
        Some((
            Prefix {
                addr: self.addr,
                len,
            },
            Prefix {
                addr: F::addr_from_u128(F::addr_to_u128(self.addr) | bit),
                len,
            },
        ))
    }
}

impl<F: AddrFamily> fmt::Display for Prefix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        F::fmt_addr(self.addr, f)?;
        write!(f, "/{}", self.len)
    }
}

impl<F: AddrFamily> fmt::Debug for Prefix<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

impl<F: AddrFamily> FromStr for Prefix<F> {
    type Err = NetError;

    /// Parse `addr/len`; a bare address is treated as a host prefix.
    /// Host bits must be zero (use [`Prefix::new_truncate`] to mask instead).
    fn from_str(s: &str) -> Result<Self, NetError> {
        let (addr_s, len_s) = match s.split_once('/') {
            Some((a, l)) => (a, Some(l)),
            None => (s, None),
        };
        let addr = F::parse_addr(addr_s).ok_or_else(|| NetError::ParseError(s.to_string()))?;
        let len: u8 = match len_s {
            Some(l) => l.parse().map_err(|_| NetError::ParseError(s.to_string()))?,
            None => F::BITS,
        };
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::V6;
    use proptest::prelude::*;

    #[test]
    fn canonical_construction() {
        let p: Prefix = Prefix::new(0x0A00_0000, 8).unwrap();
        assert_eq!(p.addr(), 0x0A00_0000);
        assert_eq!(p.len(), 8);
        assert_eq!(
            Prefix::<V4>::new(0x0A00_0001, 8),
            Err(NetError::HostBitsSet {
                addr: "10.0.0.1".into(),
                len: 8
            })
        );
        assert_eq!(
            Prefix::<V4>::new(0, 33),
            Err(NetError::InvalidPrefixLength(33))
        );
    }

    #[test]
    fn truncation() {
        let p: Prefix = Prefix::new_truncate(0x0A01_0203, 8).unwrap();
        assert_eq!(p, "10.0.0.0/8".parse().unwrap());
        let q = Prefix::new_truncate(0xFFFF_FFFF, 0).unwrap();
        assert_eq!(q, Prefix::ZERO);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "192.168.1.0/24",
            "1.2.3.4/32",
            "128.0.0.0/1",
        ] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        // bare address = /32
        let p: Prefix = "8.8.8.8".parse().unwrap();
        assert_eq!(p.to_string(), "8.8.8.8/32");
        // garbage
        assert!("10.0.0.0/8/9".parse::<Prefix>().is_err());
        assert!("10.0.0/8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/ 8".parse::<Prefix>().is_err());
        assert!("10.0.0.0/-1".parse::<Prefix>().is_err());
        assert!("".parse::<Prefix>().is_err());
    }

    #[test]
    fn v6_parse_display_and_canonical() {
        for s in [
            "::/0",
            "2001:db8::/32",
            "fe80::/10",
            "::1/128",
            "2001:db8::1/128",
        ] {
            let p: Prefix<V6> = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
        // bare address = /128
        let p: Prefix<V6> = "2001:db8::7".parse().unwrap();
        assert_eq!(p.len(), 128);
        // host bits set / bad length / garbage
        assert!("2001:db8::1/32".parse::<Prefix<V6>>().is_err());
        assert!("::/129".parse::<Prefix<V6>>().is_err());
        assert!("10.0.0.0/8".parse::<Prefix<V6>>().is_err());
    }

    #[test]
    fn v6_sizes_and_family_tree() {
        let p: Prefix<V6> = "2001:db8::/32".parse().unwrap();
        assert_eq!(p.size(), 1u128 << 96);
        assert_eq!(p.size_u128(), 1u128 << 96);
        assert_eq!(
            Prefix::<V6>::zero().size(),
            u128::MAX,
            "the uncountable full space saturates"
        );
        assert_eq!(p.parent().unwrap().to_string(), "2001:db8::/31");
        let (a, b) = p.children().unwrap();
        assert_eq!(a.to_string(), "2001:db8::/33");
        assert_eq!(b.to_string(), "2001:db8:8000::/33");
        assert_eq!(a.sibling().unwrap(), b);
        assert!(p.contains(&a) && p.contains(&b));
        assert!(p.contains_addr((0x2001_0db8u128 << 96) | 0xFFFF));
        assert!(!p.contains_addr(0x2001_0db9u128 << 96));
        assert!(Prefix::<V6>::host(1).is_host());
    }

    #[test]
    fn v6_subnets() {
        let p: Prefix<V6> = "2001:db8::/48".parse().unwrap();
        // the four /50s inside the /48: the children of its children
        let (a, b) = p.children().unwrap();
        let subs: Vec<Prefix<V6>> = [a, b]
            .iter()
            .flat_map(|half| <[_; 2]>::from(half.children().unwrap()))
            .collect();
        assert_eq!(subs[0], "2001:db8::/50".parse().unwrap());
        assert_eq!(subs[3].first(), p.first() + (3u128 << 78));
    }

    #[test]
    fn sizes_and_masks() {
        let cases: &[(&str, u32, u64)] = &[
            ("0.0.0.0/0", 0x0000_0000, 1 << 32),
            ("128.0.0.0/1", 0x8000_0000, 1 << 31),
            ("10.0.0.0/8", 0xFF00_0000, 1 << 24),
            ("192.168.0.0/16", 0xFFFF_0000, 65536),
            ("192.168.1.0/24", 0xFFFF_FF00, 256),
            ("1.2.3.4/32", 0xFFFF_FFFF, 1),
        ];
        for (s, mask, size) in cases {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(netmask_u128::<V4>(p.len()), u128::from(*mask), "{s}");
            assert_eq!(p.size(), *size, "{s}");
        }
    }

    #[test]
    fn first_last_contains() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(p.first(), 0x0A00_0000);
        assert_eq!(p.last(), 0x0AFF_FFFF);
        assert!(p.contains_addr(0x0A12_3456));
        assert!(!p.contains_addr(0x0B00_0000));
        assert!(!p.contains_addr(0x09FF_FFFF));
    }

    #[test]
    fn containment_relations() {
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p12: Prefix = "10.16.0.0/12".parse().unwrap();
        let other: Prefix = "11.0.0.0/8".parse().unwrap();
        assert!(p8.contains(&p12));
        assert!(p8.contains_strictly(&p12));
        assert!(!p12.contains(&p8));
        assert!(p8.contains(&p8));
        assert!(!p8.contains_strictly(&p8));
        assert!(!p8.overlaps(&other));
        assert!(p8.overlaps(&p12) && p12.overlaps(&p8));
    }

    #[test]
    fn family_tree() {
        let p: Prefix = "10.128.0.0/9".parse().unwrap();
        assert_eq!(p.parent().unwrap(), "10.0.0.0/8".parse().unwrap());
        assert_eq!(p.sibling().unwrap(), "10.0.0.0/9".parse().unwrap());
        let (a, b) = p.children().unwrap();
        assert_eq!(a, "10.128.0.0/10".parse().unwrap());
        assert_eq!(b, "10.192.0.0/10".parse().unwrap());
        assert_eq!(Prefix::ZERO.parent(), None);
        assert_eq!(Prefix::ZERO.sibling(), None);
        assert_eq!(Prefix::<V4>::host(1).children(), None);
    }

    #[test]
    fn ordering_parent_before_child() {
        let p8: Prefix = "10.0.0.0/8".parse().unwrap();
        let p9: Prefix = "10.0.0.0/9".parse().unwrap();
        let p9h: Prefix = "10.128.0.0/9".parse().unwrap();
        assert!(p8 < p9);
        assert!(p9 < p9h);
    }

    #[test]
    fn serde_roundtrip() {
        let p: Prefix = "172.16.0.0/12".parse().unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let q: Prefix = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
        // byte format unchanged from the pre-generic derive
        assert_eq!(json, "{\"addr\":2886729728,\"len\":12}");
        // v6 round-trips too (wide addresses go through the string form)
        let p6: Prefix<V6> = "2001:db8::/32".parse().unwrap();
        let json6 = serde_json::to_string(&p6).unwrap();
        let q6: Prefix<V6> = serde_json::from_str(&json6).unwrap();
        assert_eq!(p6, q6);
    }

    proptest! {
        #[test]
        fn prop_truncate_is_canonical(addr in any::<u32>(), len in 0u8..=32) {
            let p: Prefix = Prefix::new_truncate(addr, len).unwrap();
            prop_assert!(Prefix::<V4>::new(p.addr(), p.len()).is_ok());
            prop_assert!(p.contains_addr(addr));
        }

        #[test]
        fn prop_parse_display_roundtrip(addr in any::<u32>(), len in 0u8..=32) {
            let p: Prefix = Prefix::new_truncate(addr, len).unwrap();
            let s = p.to_string();
            let q: Prefix = s.parse().unwrap();
            prop_assert_eq!(p, q);
        }

        #[test]
        fn prop_children_partition_parent(addr in any::<u32>(), len in 0u8..=31) {
            let p: Prefix = Prefix::new_truncate(addr, len).unwrap();
            let (a, b) = p.children().unwrap();
            prop_assert_eq!(a.size() + b.size(), p.size());
            prop_assert_eq!(a.first(), p.first());
            prop_assert_eq!(b.last(), p.last());
            prop_assert_eq!(a.last() + 1, b.first());
            prop_assert_eq!(a.sibling().unwrap(), b);
            prop_assert_eq!(a.parent().unwrap(), p);
            prop_assert_eq!(b.parent().unwrap(), p);
        }

        #[test]
        fn prop_containment_matches_ranges(a in any::<u32>(), la in 0u8..=32,
                                           b in any::<u32>(), lb in 0u8..=32) {
            let p: Prefix = Prefix::new_truncate(a, la).unwrap();
            let q = Prefix::new_truncate(b, lb).unwrap();
            let range_contains =
                p.first() <= q.first() && q.last() <= p.last();
            prop_assert_eq!(p.contains(&q), range_contains);
            // CIDR blocks are laminar: overlap iff nested
            let overlap = p.first().max(q.first()) <= p.last().min(q.last());
            prop_assert_eq!(p.overlaps(&q), overlap);
        }

        /// The generic machinery at 128-bit width mirrors the v4 laws.
        #[test]
        fn prop_v6_truncate_and_containment(a in any::<u128>(), la in 0u8..=128,
                                            b in any::<u128>(), lb in 0u8..=128) {
            let p = Prefix::<V6>::new_truncate(a, la).unwrap();
            let q = Prefix::<V6>::new_truncate(b, lb).unwrap();
            prop_assert!(Prefix::<V6>::new(p.addr(), p.len()).is_ok());
            prop_assert!(p.contains_addr(a));
            let range_contains = p.first() <= q.first() && q.last() <= p.last();
            prop_assert_eq!(p.contains(&q), range_contains);
            // parse/format round-trip
            let r: Prefix<V6> = p.to_string().parse().unwrap();
            prop_assert_eq!(p, r);
        }
    }
}
