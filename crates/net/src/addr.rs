//! Address helpers and inclusive address ranges, generic over the family.
//!
//! Addresses are carried as host-order integers throughout the workspace
//! (`u32` for v4, `u128` for v6): the simulator manipulates hundreds of
//! millions of them and the raw integer keeps snapshots compact and
//! comparisons branch-free. Conversion to and from the `std::net` address
//! types lives here so the rest of the code never repeats byte-order
//! fiddling.

use crate::error::NetError;
use crate::family::{AddrFamily, V4, V6};
use crate::prefix::Prefix;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Convert an [`Ipv4Addr`] into its host-order `u32` value.
///
/// ```
/// use tass_net::addr_to_u32;
/// assert_eq!(addr_to_u32("1.2.3.4".parse().unwrap()), 0x0102_0304);
/// ```
#[inline]
pub fn addr_to_u32(a: Ipv4Addr) -> u32 {
    u32::from(a)
}

/// Convert a host-order `u32` into an [`Ipv4Addr`].
///
/// ```
/// use tass_net::addr_from_u32;
/// assert_eq!(addr_from_u32(0x0102_0304).to_string(), "1.2.3.4");
/// ```
#[inline]
pub fn addr_from_u32(v: u32) -> Ipv4Addr {
    Ipv4Addr::from(v)
}

/// Convert an [`Ipv6Addr`] into its host-order `u128` value.
#[inline]
pub fn addr_to_u128(a: Ipv6Addr) -> u128 {
    u128::from(a)
}

/// Convert a host-order `u128` into an [`Ipv6Addr`].
#[inline]
pub fn addr_from_u128(v: u128) -> Ipv6Addr {
    Ipv6Addr::from(v)
}

/// Render a `u32` address in dotted-quad notation (convenience for logs).
pub fn fmt_addr(v: u32) -> String {
    addr_from_u32(v).to_string()
}

/// Render any family's address in its canonical text form.
pub fn fmt_family_addr<F: AddrFamily>(v: F::Addr) -> String {
    struct D<F: AddrFamily>(F::Addr);
    impl<F: AddrFamily> fmt::Display for D<F> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            F::fmt_addr(self.0, f)
        }
    }
    D::<F>(v).to_string()
}

/// An **inclusive** range of addresses `[first, last]`.
///
/// Inclusive bounds are deliberate: the whole space — `[0, u32::MAX]` for
/// v4, `[0, u128::MAX]` for v6 — is representable, which a half-open
/// range cannot do without widening. [`AddrRange::len`] saturates rather
/// than overflowing for the one uncountable case (the full v6 space);
/// every other length is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AddrRange<F: AddrFamily = V4> {
    first: F::Addr,
    last: F::Addr,
}

// Hand-written serde (the derive would bound `F: Serialize`); the byte
// format matches the pre-generic derived form.
impl<F: AddrFamily> serde::Serialize for AddrRange<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (String::from("first"), self.first.to_value()),
            (String::from("last"), self.last.to_value()),
        ])
    }
}

impl<F: AddrFamily> serde::Deserialize for AddrRange<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let first = F::Addr::from_value(serde::value_get(v, "first")?)?;
        let last = F::Addr::from_value(serde::value_get(v, "last")?)?;
        AddrRange::new(first, last).map_err(|e| serde::DeError(e.to_string()))
    }
}

impl AddrRange {
    /// The range covering the entire IPv4 space.
    pub const FULL: AddrRange = AddrRange {
        first: 0,
        last: u32::MAX,
    };
}

impl AddrRange<V6> {
    /// The range covering the entire IPv6 space, `[::, ff…ff]`.
    pub const FULL_V6: AddrRange<V6> = AddrRange {
        first: 0,
        last: u128::MAX,
    };
}

impl<F: AddrFamily> AddrRange<F> {
    /// Create a range; errors when `first > last`.
    pub fn new(first: F::Addr, last: F::Addr) -> Result<Self, NetError> {
        if first > last {
            return Err(NetError::EmptyRange);
        }
        Ok(AddrRange { first, last })
    }

    /// The range covering the family's entire space (the generic spelling
    /// of [`AddrRange::FULL`] / [`AddrRange::FULL_V6`]).
    pub fn full() -> Self {
        AddrRange {
            first: F::addr_from_u128(0),
            last: F::addr_from_u128(F::max_addr_u128()),
        }
    }

    /// First (lowest) address.
    #[inline]
    pub fn first(&self) -> F::Addr {
        self.first
    }

    /// Last (highest) address.
    #[inline]
    pub fn last(&self) -> F::Addr {
        self.last
    }

    /// Number of addresses in the range.
    ///
    /// Exact for every v4 range (up to 2³², hence `u64`) and every v6
    /// range except the uncountable full space `[::, ff…ff]`, whose 2¹²⁸
    /// saturates to `u128::MAX` ([`AddrRange::len_u128`] documents the
    /// same). No input overflows or panics.
    #[inline]
    pub fn len(&self) -> F::Wide {
        F::wide_from_u128(self.len_u128())
    }

    /// [`AddrRange::len`] as a `u128`, saturating only for the full v6
    /// space.
    #[inline]
    pub fn len_u128(&self) -> u128 {
        (F::addr_to_u128(self.last) - F::addr_to_u128(self.first)).saturating_add(1)
    }

    /// Ranges are never empty by construction; provided for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Does the range contain `addr`?
    #[inline]
    pub fn contains(&self, addr: F::Addr) -> bool {
        self.first <= addr && addr <= self.last
    }

    /// Do two ranges share at least one address?
    #[inline]
    pub fn overlaps(&self, other: &AddrRange<F>) -> bool {
        self.first <= other.last && other.first <= self.last
    }

    /// Are the ranges adjacent (other starts right after self or vice versa)?
    pub fn adjacent(&self, other: &AddrRange<F>) -> bool {
        let max = F::max_addr_u128();
        let (a, b) = (F::addr_to_u128(self.last), F::addr_to_u128(other.first));
        let (c, d) = (F::addr_to_u128(other.last), F::addr_to_u128(self.first));
        (a != max && a + 1 == b) || (c != max && c + 1 == d)
    }

    /// Merge two overlapping or adjacent ranges; `None` when disjoint.
    pub fn merge(&self, other: &AddrRange<F>) -> Option<AddrRange<F>> {
        if self.overlaps(other) || self.adjacent(other) {
            Some(AddrRange {
                first: self.first.min(other.first),
                last: self.last.max(other.last),
            })
        } else {
            None
        }
    }

    /// Intersection of two ranges, if any.
    pub fn intersect(&self, other: &AddrRange<F>) -> Option<AddrRange<F>> {
        if self.overlaps(other) {
            Some(AddrRange {
                first: self.first.max(other.first),
                last: self.last.min(other.last),
            })
        } else {
            None
        }
    }

    /// Decompose the range into the **minimal** list of CIDR prefixes whose
    /// union is exactly this range (the classic greedy largest-block-first
    /// algorithm). Result is sorted by address.
    ///
    /// ```
    /// use tass_net::AddrRange;
    /// let r: AddrRange = AddrRange::new(0x0A000000, 0x0A0000FF).unwrap(); // 10.0.0.0-10.0.0.255
    /// let cover = r.to_prefixes();
    /// assert_eq!(cover.len(), 1);
    /// assert_eq!(cover[0].to_string(), "10.0.0.0/24");
    /// ```
    pub fn to_prefixes(&self) -> Vec<Prefix<F>> {
        let first = F::addr_to_u128(self.first);
        let last = F::addr_to_u128(self.last);
        if first == 0 && last == F::max_addr_u128() {
            return vec![Prefix::zero()];
        }
        let mut out = Vec::new();
        let mut cur = first;
        // Track the remaining *count* rather than an exclusive end bound:
        // `last + 1` would overflow u128 for any v6 range ending at the
        // top of the space. The full-space early return above keeps the
        // count itself exact.
        let mut remaining = last - first + 1;
        while remaining > 0 {
            // Largest block starting at `cur`: limited by alignment of `cur`
            // and by the remaining span.
            let align = if cur == 0 {
                u32::from(F::BITS)
            } else {
                cur.trailing_zeros().min(u32::from(F::BITS))
            };
            // max block size by alignment; `align == 128` (a v6 range
            // starting at ::) would overflow the shift, but the span
            // bound below already caps the block (the full space was
            // early-returned), so saturate instead
            let max_by_align: u128 = if align >= 128 {
                u128::MAX
            } else {
                1u128 << align
            };
            // max block size by remaining span (round down to power of two)
            let max_by_span: u128 = {
                let b = 127 - remaining.leading_zeros();
                1u128 << b
            };
            let block = max_by_align.min(max_by_span);
            let len = F::BITS - block.trailing_zeros() as u8;
            out.push(
                Prefix::new(F::addr_from_u128(cur), len).expect("block is aligned by construction"),
            );
            cur = cur.wrapping_add(block);
            remaining -= block;
        }
        out
    }

    /// Iterate every address in the range.
    ///
    /// For the full v4 /0 this yields 2³² items — callers should size
    /// ranges sensibly (the scanner uses permutations instead of linear
    /// sweeps, and v6 ranges are only ever iterated at seeded-block
    /// scale).
    pub fn iter(&self) -> AddrRangeIter<F> {
        AddrRangeIter {
            next: F::addr_to_u128(self.first),
            remaining: self.len_u128(),
            _family: std::marker::PhantomData,
        }
    }
}

/// Iterator over the addresses of an [`AddrRange`].
#[derive(Debug, Clone)]
pub struct AddrRangeIter<F: AddrFamily = V4> {
    next: u128,
    remaining: u128,
    _family: std::marker::PhantomData<F>,
}

impl<F: AddrFamily> Iterator for AddrRangeIter<F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let v = F::addr_from_u128(self.next);
        self.next = self.next.wrapping_add(1);
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

impl ExactSizeIterator for AddrRangeIter {}

impl<F: AddrFamily> IntoIterator for AddrRange<F> {
    type Item = F::Addr;
    type IntoIter = AddrRangeIter<F>;

    fn into_iter(self) -> AddrRangeIter<F> {
        self.iter()
    }
}

impl<F: AddrFamily> From<Prefix<F>> for AddrRange<F> {
    fn from(p: Prefix<F>) -> Self {
        AddrRange {
            first: p.first(),
            last: p.last(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_roundtrip() {
        for v in [0u32, 1, 0x7F00_0001, 0xFFFF_FFFF, 0x0A00_0001] {
            assert_eq!(addr_to_u32(addr_from_u32(v)), v);
        }
    }

    #[test]
    fn u128_roundtrip_and_fmt() {
        for v in [0u128, 1, u128::from(u64::MAX) + 3, u128::MAX] {
            assert_eq!(addr_to_u128(addr_from_u128(v)), v);
        }
        assert_eq!(fmt_family_addr::<V6>(1), "::1");
        assert_eq!(fmt_family_addr::<V4>(0x7F00_0001), "127.0.0.1");
    }

    #[test]
    fn fmt_addr_dotted_quad() {
        assert_eq!(fmt_addr(0), "0.0.0.0");
        assert_eq!(fmt_addr(u32::MAX), "255.255.255.255");
        assert_eq!(fmt_addr(0x7F00_0001), "127.0.0.1");
    }

    #[test]
    fn range_rejects_inverted_bounds() {
        assert_eq!(AddrRange::<V4>::new(5, 4), Err(NetError::EmptyRange));
        assert!(AddrRange::<V4>::new(4, 4).is_ok());
    }

    #[test]
    fn full_range_len() {
        assert_eq!(AddrRange::FULL.len(), 1 << 32);
        assert!(AddrRange::FULL.contains(0));
        assert!(AddrRange::FULL.contains(u32::MAX));
        assert_eq!(AddrRange::full(), AddrRange::FULL);
    }

    #[test]
    fn full_v6_range_is_representable_and_len_saturates() {
        // The satellite regression: the whole-v6-space range must exist
        // and `len()` must not overflow — it saturates at u128::MAX
        // (2^128 is uncountable; everything below is exact).
        let full = AddrRange::<V6>::full();
        assert_eq!(full, AddrRange::FULL_V6);
        assert_eq!(full.first(), 0);
        assert_eq!(full.last(), u128::MAX);
        assert_eq!(full.len(), u128::MAX, "saturates, does not overflow");
        assert_eq!(full.len_u128(), u128::MAX);
        assert!(full.contains(0) && full.contains(u128::MAX));
        assert_eq!(full.to_prefixes(), vec![Prefix::<V6>::zero()]);
        // one below full is exact
        let almost = AddrRange::<V6>::new(1, u128::MAX).unwrap();
        assert_eq!(almost.len(), u128::MAX, "2^128 - 1, exact");
        let half = AddrRange::<V6>::new(0, u128::MAX >> 1).unwrap();
        assert_eq!(half.len(), 1u128 << 127);
    }

    #[test]
    fn v6_cover_of_top_of_space_does_not_overflow() {
        // regression: `[1, u128::MAX]` used to compute `last + 1` and
        // overflow; the cover must enumerate cleanly and sum to the
        // exact length
        let r = AddrRange::<V6>::new(1, u128::MAX).unwrap();
        let cover = r.to_prefixes();
        let total = cover.iter().fold(0u128, |acc, p| acc + p.size_u128());
        assert_eq!(total, u128::MAX, "2^128 - 1 addresses covered exactly");
        assert_eq!(cover.len(), 128, "one block per bit");
        for w in cover.windows(2) {
            assert!(w[0].last() < w[1].first(), "disjoint + sorted");
        }
        // and the v4 top-of-space analogue
        let r4: AddrRange = AddrRange::new(1, u32::MAX).unwrap();
        let total4: u64 = r4.to_prefixes().iter().map(|p| p.size()).sum();
        assert_eq!(total4, u64::from(u32::MAX));
    }

    #[test]
    fn v6_cover_of_bottom_of_space_does_not_overflow() {
        // regression: a v6 range starting at :: has alignment 128, and
        // `1u128 << 128` overflowed the alignment bound (debug panic;
        // in release a degenerate one-/128-per-address cover)
        let r = AddrRange::<V6>::new(0, 999).unwrap();
        let cover = r.to_prefixes();
        let total = cover.iter().fold(0u128, |acc, p| acc + p.size_u128());
        assert_eq!(total, 1000, "1000 addresses covered exactly");
        assert!(cover.len() <= 12, "greedy cover, not one /128 each");
        assert_eq!(cover[0].to_string(), "::/119", "largest block leads");
        for w in cover.windows(2) {
            assert!(w[0].last() < w[1].first(), "disjoint + sorted");
        }
        // an aligned power-of-two block at :: is a single prefix
        let b = AddrRange::<V6>::new(0, (1u128 << 64) - 1).unwrap();
        assert_eq!(b.to_prefixes(), vec![Prefix::<V6>::new(0, 64).unwrap()]);
    }

    #[test]
    fn v6_range_algebra_and_cover() {
        let base = 0x2001_0db8u128 << 96;
        let r = AddrRange::<V6>::new(base, base + 0xFF).unwrap();
        assert_eq!(r.len(), 256);
        let cover = r.to_prefixes();
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0].to_string(), "2001:db8::/120");
        let s = AddrRange::<V6>::new(base + 0x100, base + 0x1FF).unwrap();
        assert!(r.adjacent(&s));
        assert_eq!(r.merge(&s).unwrap().len(), 512);
        // no wrap-around adjacency at the space boundary
        let hi = AddrRange::<V6>::new(u128::MAX - 1, u128::MAX).unwrap();
        let lo = AddrRange::<V6>::new(0, 1).unwrap();
        assert!(!hi.adjacent(&lo));
        assert_eq!(hi.merge(&lo), None);
    }

    #[test]
    fn contains_and_overlap() {
        let r: AddrRange = AddrRange::new(10, 20).unwrap();
        assert!(r.contains(10) && r.contains(20) && r.contains(15));
        assert!(!r.contains(9) && !r.contains(21));
        let s = AddrRange::new(20, 30).unwrap();
        assert!(r.overlaps(&s));
        let t = AddrRange::new(21, 30).unwrap();
        assert!(!r.overlaps(&t));
        assert!(r.adjacent(&t));
        assert!(t.adjacent(&r));
    }

    #[test]
    fn merge_and_intersect() {
        let r: AddrRange = AddrRange::new(10, 20).unwrap();
        let s = AddrRange::new(15, 30).unwrap();
        assert_eq!(r.merge(&s), Some(AddrRange::new(10, 30).unwrap()));
        assert_eq!(r.intersect(&s), Some(AddrRange::new(15, 20).unwrap()));
        let t = AddrRange::new(40, 50).unwrap();
        assert_eq!(r.merge(&t), None);
        assert_eq!(r.intersect(&t), None);
        // adjacent merge
        let u = AddrRange::new(21, 25).unwrap();
        assert_eq!(r.merge(&u), Some(AddrRange::new(10, 25).unwrap()));
    }

    #[test]
    fn merge_at_space_boundary_no_overflow() {
        let hi: AddrRange = AddrRange::new(u32::MAX - 1, u32::MAX).unwrap();
        let lo = AddrRange::new(0, 1).unwrap();
        // The key property: no panic and no wrap-around merge or adjacency.
        assert!(!hi.adjacent(&lo));
        assert_eq!(hi.merge(&lo), None);
    }

    #[test]
    fn to_prefixes_aligned_block() {
        let r: AddrRange = AddrRange::new(0x0A00_0000, 0x0AFF_FFFF).unwrap();
        let c = r.to_prefixes();
        assert_eq!(c, vec!["10.0.0.0/8".parse().unwrap()]);
    }

    #[test]
    fn to_prefixes_unaligned() {
        // 10.0.0.1 - 10.0.0.6 => 1 + 2 + 2 + 1 addresses: /32 /31 /31 /32
        let r: AddrRange = AddrRange::new(0x0A00_0001, 0x0A00_0006).unwrap();
        let c = r.to_prefixes();
        let total: u64 = c.iter().map(|p| p.size()).sum();
        assert_eq!(total, r.len());
        // disjoint + sorted
        for w in c.windows(2) {
            assert!(w[0].last() < w[1].first());
        }
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn to_prefixes_full_space() {
        let c = AddrRange::FULL.to_prefixes();
        assert_eq!(c, vec![Prefix::new(0, 0).unwrap()]);
    }

    #[test]
    fn to_prefixes_covers_exactly() {
        let r: AddrRange = AddrRange::new(3, 17).unwrap();
        let c = r.to_prefixes();
        let mut addrs: Vec<u32> = c.iter().flat_map(|p| AddrRange::from(*p).iter()).collect();
        addrs.sort_unstable();
        let expect: Vec<u32> = (3..=17).collect();
        assert_eq!(addrs, expect);
    }

    #[test]
    fn iter_counts() {
        let r: AddrRange = AddrRange::new(100, 104).unwrap();
        let v: Vec<u32> = r.iter().collect();
        assert_eq!(v, vec![100, 101, 102, 103, 104]);
        assert_eq!(r.iter().len(), 5);
    }

    #[test]
    fn single_range() {
        let r: AddrRange = AddrRange::new(42, 42).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.to_prefixes(), vec![Prefix::new(42, 32).unwrap()]);
    }

    #[test]
    fn range_from_prefix() {
        let p: Prefix = "192.168.0.0/16".parse().unwrap();
        let r = AddrRange::from(p);
        assert_eq!(r.first(), 0xC0A8_0000);
        assert_eq!(r.last(), 0xC0A8_FFFF);
        assert_eq!(r.len(), 65536);
    }
}
