//! Monthly ground-truth snapshots, and the O(output) views over them.
//!
//! A [`Snapshot`] is what one full scan of the announced space would have
//! produced for one protocol in one month: the sorted set of responsive
//! addresses. The paper's evaluation uses 7 monthly snapshots × 4 protocols
//! from censys.io as ground truth; this module provides the same object,
//! sourced from the simulation, with the set operations the strategies
//! need (membership, intersection counting) and a compact binary
//! serialisation so generated universes can be cached on disk.
//!
//! # Cost model
//!
//! Matrix campaigns touch the same `(month, protocol)` snapshot from
//! every strategy, repetition, and worker, so per-cycle work must be
//! proportional to what a cycle *produces*, not to the size of the
//! universe. Four pieces enforce that:
//!
//! * **Shared storage.** A [`HostSet`] is immutable: an `Arc` around the
//!   one sorted `Vec` its constructor (or [`Snapshot::decode`]) built.
//!   Cloning one — into an address-hitlist plan, a view, a responder —
//!   is a reference-count bump, never a copy of the hosts.
//! * **Bulk prefix counting.** Rankings count hosts per prefix through
//!   [`PrefixCount::count_prefixes_into`], which sweeps an ascending
//!   prefix sequence (sorted view units, sorted plan prefixes) over the
//!   sorted host list with a galloping cursor — O(Σ log gapᵢ) total, no
//!   hashing, no lock, and no per-snapshot state beyond the hosts. One
//!   private span sweep on [`HostSet`] serves every bulk count and
//!   [`HostSetView::from_prefixes`]; it is generic over its prefix
//!   iterator and its sink, so each caller's sweep compiles to one loop
//!   with no dynamic call per prefix. [`PrefixCount`] is the trait
//!   rankings are generic over; a scalar [`PrefixCount::count_in_prefix`]
//!   query is one binary search.
//! * **Copy-free feedback.** A [`HostSetView`] is a shared [`HostSet`]
//!   plus sorted disjoint index ranges into it: the per-cycle
//!   "responsive set" of a simulated scan without cloning, sorting, or
//!   allocating anything proportional to the host count. A whole set
//!   (a full-scan cycle, a hitlist cycle's hits, an engine report) is a
//!   single `(0, n)` range; a prefix-plan cycle is the interval union of
//!   the per-prefix slices (so overlapping prefixes have explicit
//!   set-union semantics). A prefix view also keeps each source prefix's
//!   count, which its build sweep found anyway, so a strategy that
//!   re-counts the units it just planned reads them back instead of
//!   sweeping the view a second time. [`HostSetView::materialize`] is the
//!   escape hatch back to a [`HostSet`], and the serde form is
//!   byte-identical to the set's, so downstream digests cannot tell the
//!   difference.
//! * **Decode once.** [`Snapshot::decode`] parses the header and then
//!   makes one fused pass over the fixed-width LE address section,
//!   checking strict ascent while it fills the sorted `Vec` the
//!   [`HostSet`] shares. A month load therefore costs one sequential
//!   scan of the file, its resident memory is `len × width`
//!   ([`Snapshot::resident_bytes`]), and every later set operation is a
//!   plain slice search.

use crate::protocol::Protocol;
use std::fmt;
use std::sync::Arc;
use tass_net::{AddrFamily, Prefix, V4};

/// Anything that can report how many of its member hosts a prefix
/// covers. Density rankings are generic over this, so they can run
/// against a [`HostSet`] (binary search) or a per-cycle [`HostSetView`]
/// (range arithmetic) without materialising anything.
pub trait PrefixCount<F: AddrFamily = V4> {
    /// Count member hosts covered by `p`.
    fn count_in_prefix(&self, p: Prefix<F>) -> usize;

    /// The bulk sweep both bulk counts go through: one count per prefix
    /// to `sink`, in input order. A cursor remembers where the previous
    /// prefix began, so an ascending prefix sequence (sorted view units,
    /// sorted plan prefixes: the hot feedback-cycle case) costs short
    /// forward gallops instead of one full-width binary search per
    /// prefix. Out-of-order prefixes stay correct; they just gallop from
    /// the front again.
    fn sweep_prefix_counts(&self, prefixes: impl Iterator<Item = Prefix<F>>, sink: impl FnMut(u64))
    where
        Self: Sized;

    /// Bulk counting: append one count per prefix to `out`, in input
    /// order.
    fn count_prefixes_into(&self, prefixes: impl Iterator<Item = Prefix<F>>, out: &mut Vec<u64>)
    where
        Self: Sized,
    {
        self.sweep_prefix_counts(prefixes, |c| out.push(c));
    }

    /// Sum of the per-prefix counts, with no output allocation. This is
    /// what a plan-evaluation loop wants — it only ever summed the
    /// vector anyway.
    fn count_prefixes_total(&self, prefixes: impl Iterator<Item = Prefix<F>>) -> u64
    where
        Self: Sized,
    {
        let mut total = 0u64;
        self.sweep_prefix_counts(prefixes, |c| total += c);
        total
    }
}

/// `partition_point` found by exponential probing from the front of the
/// slice: O(log d) in the distance `d` to the answer instead of O(log n)
/// in the slice length. `pred` must be monotone (true on a prefix of the
/// slice), exactly as for `partition_point`.
fn gallop<T>(s: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut hi = 1usize;
    while hi < s.len() && pred(&s[hi]) {
        hi <<= 1;
    }
    let lo = hi >> 1;
    let hi = hi.min(s.len());
    lo + s[lo..hi].partition_point(pred)
}

/// A sorted, deduplicated set of responsive addresses, generic over the
/// address family (the default `HostSet` is IPv4, `HostSet<V6>` carries
/// `u128` addresses).
///
/// This is the "host set" unit of the whole evaluation: hitrates are
/// ratios of intersections of these sets.
///
/// The storage is immutable and shared: one ascending `Vec` behind an
/// `Arc`, built once by [`HostSet::from_addrs`],
/// [`HostSet::from_sorted_unique`] or [`Snapshot::decode`] (a corpus
/// month is decoded into it once per load). A clone is a reference-count
/// bump. Every set operation is a binary search, `partition_point` or
/// gallop over [`HostSet::as_slice`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct HostSet<F: AddrFamily = V4> {
    addrs: Arc<Vec<F::Addr>>,
}

impl<F: AddrFamily> HostSet<F> {
    /// Build from an arbitrary address list (sorted and deduplicated here).
    pub fn from_addrs(mut addrs: Vec<F::Addr>) -> Self {
        addrs.sort_unstable();
        addrs.dedup();
        HostSet::from_sorted_unique(addrs)
    }

    /// Build from a list that is already sorted and unique. The `Vec`
    /// becomes the shared storage; nothing is copied.
    ///
    /// Panics in debug builds if the precondition is violated.
    pub fn from_sorted_unique(addrs: Vec<F::Addr>) -> Self {
        debug_assert!(
            addrs.windows(2).all(|w| w[0] < w[1]),
            "addrs not sorted/unique"
        );
        HostSet {
            addrs: Arc::new(addrs),
        }
    }

    /// The members, ascending.
    pub fn as_slice(&self) -> &[F::Addr] {
        &self.addrs
    }

    /// Copy the members out into a fresh ascending `Vec`.
    pub fn to_vec(&self) -> Vec<F::Addr> {
        self.addrs.to_vec()
    }

    /// Always `false`: a host set is one heap `Vec`, never a view into
    /// a snapshot file buffer. Kept so callers that report the share of
    /// mapped months keep compiling; that share is now 0.
    pub fn is_mapped(&self) -> bool {
        false
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// First rank whose address is `>= addr`.
    pub fn lower_bound(&self, addr: F::Addr) -> usize {
        self.addrs.partition_point(|&a| a < addr)
    }

    /// First rank whose address is `> addr`.
    pub fn upper_bound(&self, addr: F::Addr) -> usize {
        self.addrs.partition_point(|&a| a <= addr)
    }

    /// Membership test (binary search).
    pub fn contains(&self, addr: F::Addr) -> bool {
        self.addrs.binary_search(&addr).is_ok()
    }

    /// Size of the intersection with another host set (linear merge).
    pub fn intersection_count(&self, other: &HostSet<F>) -> usize {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Count how many members fall within `[first, last]` (inclusive).
    /// O(log n) — used to count hosts per prefix.
    pub fn count_in_range(&self, first: F::Addr, last: F::Addr) -> usize {
        self.upper_bound(last) - self.lower_bound(first)
    }

    /// Count members covered by a prefix.
    pub fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        self.count_in_range(p.first(), p.last())
    }

    /// The one galloping span sweep: each prefix's members are the
    /// ranks `lo..hi`, and `sink(lo, hi)` receives them in input order.
    /// Ascending prefixes advance a cursor by galloping, so a whole
    /// sorted view costs O(Σ log gapᵢ) comparisons — not `k` full
    /// binary searches. A prefix that starts below its predecessor
    /// resets the cursor to the front. Bulk counts (here and, through
    /// range ranks, on a [`HostSetView`]) and
    /// [`HostSetView::from_prefixes`] are all this one loop.
    fn sweep_spans(
        &self,
        prefixes: impl Iterator<Item = Prefix<F>>,
        mut sink: impl FnMut(usize, usize),
    ) {
        let hosts = self.as_slice();
        // ranks `[..cursor]` are < the previous prefix's first address;
        // nested prefixes (next.first inside the previous span) keep the
        // cursor at `lo`, not `hi`, so the invariant holds under overlap.
        let mut cursor = 0usize;
        let mut prev_first: Option<F::Addr> = None;
        for p in prefixes {
            let (first, last) = (p.first(), p.last());
            if prev_first.is_some_and(|pf| first < pf) {
                cursor = 0;
            }
            let lo = cursor + gallop(&hosts[cursor..], |&a| a < first);
            let hi = lo + gallop(&hosts[lo..], |&a| a <= last);
            sink(lo, hi);
            cursor = lo;
            prev_first = Some(first);
        }
    }

    /// Iterate members ascending.
    pub fn iter(&self) -> impl Iterator<Item = F::Addr> + '_ {
        self.addrs.iter().copied()
    }
}

impl<F: AddrFamily> fmt::Debug for HostSet<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostSet").field("len", &self.len()).finish()
    }
}

// Serializes as the bare sorted address sequence; `from_addrs` on the
// way back re-establishes the sorted/deduplicated invariant, so the
// serde form is canonical: equal sets produce byte-equal JSON.
impl<F: AddrFamily> serde::Serialize for HostSet<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|a| a.to_value()).collect())
    }
}

impl<F: AddrFamily> serde::Deserialize for HostSet<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let addrs = <Vec<F::Addr> as serde::Deserialize>::from_value(v)?;
        Ok(HostSet::from_addrs(addrs))
    }
}

impl<F: AddrFamily> FromIterator<F::Addr> for HostSet<F> {
    fn from_iter<I: IntoIterator<Item = F::Addr>>(iter: I) -> Self {
        HostSet::from_addrs(iter.into_iter().collect())
    }
}

impl<F: AddrFamily> PrefixCount<F> for HostSet<F> {
    fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        HostSet::count_in_prefix(self, p)
    }

    fn sweep_prefix_counts(
        &self,
        prefixes: impl Iterator<Item = Prefix<F>>,
        mut sink: impl FnMut(u64),
    ) {
        self.sweep_spans(prefixes, |lo, hi| sink((hi - lo) as u64));
    }
}

/// One protocol's ground truth for one month, generic over the family:
/// the sorted responsive host set, shared as [`Arc<Snapshot>`] by the
/// `GroundTruth` sources. It holds nothing beyond its hosts, so
/// [`Snapshot::resident_bytes`] is its whole footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<F: AddrFamily = V4> {
    /// The protocol scanned.
    pub protocol: Protocol,
    /// Month index since the seeding scan (0 = t₀).
    pub month: u32,
    /// The responsive hosts.
    pub hosts: HostSet<F>,
}

impl<F: AddrFamily> Snapshot<F> {
    /// Construct a snapshot.
    pub fn new(protocol: Protocol, month: u32, hosts: HostSet<F>) -> Self {
        Snapshot {
            protocol,
            month,
            hosts,
        }
    }

    /// Number of responsive hosts (the paper's `N` at t₀).
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Bytes of memory this snapshot keeps resident: `len × width` of
    /// the host `Vec`. This is what a byte-budgeted month cache accounts
    /// evictions in.
    pub fn resident_bytes(&self) -> usize {
        self.hosts.len() * usize::from(F::BITS / 8)
    }
}

/// A copy-free view of a subset of one [`HostSet`]: the shared set plus
/// sorted, disjoint, non-empty half-open index ranges into it.
///
/// This is what a feedback cycle hands back as its responsive set.
/// Building one costs O(prefixes log n) — never O(hosts) — and all the
/// set operations the strategies use (`len`, `contains`,
/// `count_in_prefix`, ordered iteration) work directly on the ranges. A
/// whole set ([`HostSetView::full`], `From<HostSet>`) is the single
/// range `(0, n)`. Overlapping prefixes are resolved by interval union,
/// i.e. genuine set-union semantics. The serde form is the bare sorted
/// address sequence, byte-identical to the [`HostSet`] encoding.
///
/// A view built by [`HostSetView::from_prefixes`] also keeps each source
/// prefix with its member count, which its build sweep found anyway. A
/// bulk count whose prefixes begin with that same list — an adaptive
/// strategy re-counting the units it just planned — reads those counts
/// instead of sweeping again (see [`PrefixCount::sweep_prefix_counts`]).
#[derive(Clone)]
pub struct HostSetView<F: AddrFamily = V4> {
    hosts: HostSet<F>,
    /// Sorted, disjoint, non-empty half-open ranges into `hosts`.
    ranges: Vec<(usize, usize)>,
    /// `cum[i]` is the total number of members in `ranges[..i]`.
    cum: Vec<usize>,
    len: usize,
    /// The source prefixes of a prefix view, in input order, each with
    /// its member count; empty for a whole-set view.
    counted: Vec<(Prefix<F>, u64)>,
}

impl<F: AddrFamily> HostSetView<F> {
    /// A whole host set as a view — an `All`-plan cycle's responsive set,
    /// or any set a cycle produced outright. One `Arc` clone; no
    /// host-proportional allocation.
    pub fn full(hosts: HostSet<F>) -> Self {
        let n = hosts.len();
        let ranges = if n > 0 { vec![(0, n)] } else { Vec::new() };
        HostSetView {
            hosts,
            cum: vec![0; ranges.len()],
            len: n,
            ranges,
            counted: Vec::new(),
        }
    }

    /// The hosts covered by a prefix list, as the interval union of the
    /// per-prefix slices: overlapping prefixes contribute their union,
    /// never a double count. O(prefixes log hosts) to build; no
    /// host-proportional allocation.
    ///
    /// Each prefix's span `lo..hi` lies inside the union, so its count in
    /// the view is `hi − lo` even under overlap; the view keeps those
    /// counts for a later bulk count of the same prefixes.
    pub fn from_prefixes(hosts: HostSet<F>, prefixes: &[Prefix<F>]) -> Self {
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(prefixes.len());
        let mut counted = Vec::with_capacity(prefixes.len());
        let mut source = prefixes.iter();
        hosts.sweep_spans(prefixes.iter().copied(), |lo, hi| {
            let p = *source.next().expect("one span per source prefix");
            counted.push((p, (hi - lo) as u64));
            if lo < hi {
                spans.push((lo, hi));
            }
        });
        // Plan prefixes arrive sorted on the hot path (strategies plan in
        // address order), so the spans come out ordered by start and the
        // sort is skipped.
        if !spans.is_sorted_by_key(|&(s, _)| s) {
            spans.sort_unstable();
        }
        // Interval union: merge overlapping or adjacent spans.
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            match ranges.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => ranges.push((s, e)),
            }
        }
        let mut cum = Vec::with_capacity(ranges.len());
        let mut len = 0usize;
        for &(s, e) in &ranges {
            cum.push(len);
            len += e - s;
        }
        HostSetView {
            hosts,
            ranges,
            cum,
            len,
            counted,
        }
    }

    /// Number of hosts in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Does the view hold its whole host set? Then every count is a
    /// plain count on the set — the range arithmetic would be a no-op.
    fn is_full(&self) -> bool {
        self.len == self.hosts.len()
    }

    /// Members with host index < `idx`, given the partition index `r`
    /// (the first range whose start is >= `idx`).
    fn rank_at(&self, r: usize, idx: usize) -> usize {
        if r == 0 {
            return 0;
        }
        let (s, e) = self.ranges[r - 1];
        self.cum[r - 1] + idx.min(e) - s
    }

    /// Members with host index < `idx` (a rank query).
    fn rank(&self, idx: usize) -> usize {
        self.rank_at(self.ranges.partition_point(|&(s, _)| s < idx), idx)
    }

    /// Membership test (binary search, then a range lookup).
    pub fn contains(&self, addr: F::Addr) -> bool {
        let Ok(idx) = self.hosts.as_slice().binary_search(&addr) else {
            return false;
        };
        let i = self.ranges.partition_point(|&(s, _)| s <= idx);
        i > 0 && idx < self.ranges[i - 1].1
    }

    /// Count how many members fall within `[first, last]` (inclusive) —
    /// two binary searches plus two rank queries.
    pub fn count_in_range(&self, first: F::Addr, last: F::Addr) -> usize {
        let lo = self.hosts.lower_bound(first);
        let hi = self.hosts.upper_bound(last);
        self.rank(hi) - self.rank(lo)
    }

    /// Count members covered by a prefix.
    pub fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        self.count_in_range(p.first(), p.last())
    }

    /// Iterate members ascending: each range's sub-slice of the hosts in
    /// turn.
    pub fn iter(&self) -> impl Iterator<Item = F::Addr> + '_ {
        let hosts = self.hosts.as_slice();
        self.ranges
            .iter()
            .flat_map(move |&(s, e)| &hosts[s..e])
            .copied()
    }

    /// The escape hatch: the view as a [`HostSet`]. A whole set is
    /// shared (an `Arc` clone); any other view copies its members out,
    /// O(hosts in the view) — the only operation here that is.
    pub fn materialize(&self) -> HostSet<F> {
        if self.is_full() {
            return self.hosts.clone();
        }
        let hosts = self.hosts.as_slice();
        let mut out = Vec::with_capacity(self.len);
        for &(s, e) in &self.ranges {
            out.extend_from_slice(&hosts[s..e]);
        }
        // Disjoint ascending ranges over a sorted unique list.
        HostSet::from_sorted_unique(out)
    }
}

impl<F: AddrFamily> PrefixCount<F> for HostSetView<F> {
    fn count_in_prefix(&self, p: Prefix<F>) -> usize {
        HostSetView::count_in_prefix(self, p)
    }

    /// A leading run of prefixes equal to a prefix view's own source
    /// prefixes is answered from the counts the view kept. The rest go
    /// through the host sweep, plus a second galloping cursor over the
    /// view's ranges: counting a sorted view's units against a feedback
    /// cycle's responsive view is a single coordinated pass — not two
    /// binary searches plus two rank queries per unit.
    fn sweep_prefix_counts(
        &self,
        mut prefixes: impl Iterator<Item = Prefix<F>>,
        mut sink: impl FnMut(u64),
    ) {
        let mut stored = self.counted.iter();
        let diverged = loop {
            let Some(p) = prefixes.next() else {
                return;
            };
            match stored.next() {
                Some(&(q, c)) if q == p => sink(c),
                _ => break p,
            }
        };
        let prefixes = std::iter::once(diverged).chain(prefixes);
        if self.is_full() {
            return self.hosts.sweep_prefix_counts(prefixes, sink);
        }
        let ranges = &self.ranges[..];
        // range starts in `[..rcursor]` are < the previous span's `lo`
        let mut rcursor = 0usize;
        let mut prev_lo = 0usize;
        self.hosts.sweep_spans(prefixes, |lo, hi| {
            if lo < prev_lo {
                rcursor = 0;
            }
            let rlo = rcursor + gallop(&ranges[rcursor..], |&(s, _)| s < lo);
            let rhi = rlo + gallop(&ranges[rlo..], |&(s, _)| s < hi);
            sink((self.rank_at(rhi, hi) - self.rank_at(rlo, lo)) as u64);
            rcursor = rlo;
            prev_lo = lo;
        });
    }
}

impl<F: AddrFamily> From<HostSet<F>> for HostSetView<F> {
    fn from(hosts: HostSet<F>) -> Self {
        HostSetView::full(hosts)
    }
}

// Views compare as the sets they denote, whatever they share.
impl<F: AddrFamily> PartialEq for HostSetView<F> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<F: AddrFamily> Eq for HostSetView<F> {}

impl<F: AddrFamily> fmt::Debug for HostSetView<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostSetView")
            .field("len", &self.len())
            .field("ranges", &self.ranges.len())
            .finish()
    }
}

// Byte-identical to `HostSet`'s serde form: the bare sorted address
// sequence. A round trip comes back as a whole-set view of the members
// — what the view shared is not part of the wire format.
impl<F: AddrFamily> serde::Serialize for HostSetView<F> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|a| a.to_value()).collect())
    }
}

impl<F: AddrFamily> serde::Deserialize for HostSetView<F> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(HostSetView::full(HostSet::from_value(v)?))
    }
}

/// Errors decoding the binary snapshot format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes at the start.
    BadMagic,
    /// The input is a valid snapshot of the *other* address family
    /// (the magic identifies the family; a v6 snapshot cannot decode as
    /// a v4 one or vice versa).
    WrongFamily {
        /// Family the input encodes (`"IPv4"` / `"IPv6"`).
        found: &'static str,
        /// Family the decoder expected.
        expected: &'static str,
    },
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown protocol tag.
    BadProtocol(u8),
    /// Input shorter than the declared payload.
    Truncated,
    /// Addresses not strictly ascending (corrupt payload).
    Unsorted,
    /// The header declares a section offset that cannot hold a header
    /// (the offset must be at least the fixed header length).
    BadSection(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "snapshot: bad magic"),
            DecodeError::WrongFamily { found, expected } => {
                write!(f, "snapshot: {found} data, expected {expected}")
            }
            DecodeError::BadVersion(v) => write!(
                f,
                "snapshot: unsupported version {v}; this build reads version {VERSION} \
                 (re-run `tass-select ingest` to rebuild the corpus)"
            ),
            DecodeError::BadProtocol(p) => write!(f, "snapshot: unknown protocol tag {p}"),
            DecodeError::Truncated => write!(f, "snapshot: truncated input"),
            DecodeError::Unsorted => write!(f, "snapshot: addresses not sorted"),
            DecodeError::BadSection(off) => {
                write!(f, "snapshot: bad address-section offset {off}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC_V4: &[u8; 4] = b"TSS1";
const MAGIC_V6: &[u8; 4] = b"TSS6";
/// The one format version this build reads and [`Snapshot::encode`]
/// writes: an explicit, aligned address-section offset in the header.
const VERSION: u8 = 2;
/// Byte length of the fixed header: magic(4) version(1) protocol(1)
/// month(4) count(8) section_off(4).
const HEADER_LEN: usize = 22;
/// Where [`Snapshot::encode`] places the address section: the first 64-byte
/// boundary after the header, so fixed-width reads never straddle a
/// cache line more than the address width forces.
const SECTION_ALIGN: usize = 64;

/// Magic bytes for a family: `TSS1` keeps the pre-generic IPv4 format
/// byte-identical; 128-bit snapshots are tagged `TSS6`.
fn family_magic<F: AddrFamily>() -> &'static [u8; 4] {
    if F::BITS == 32 {
        MAGIC_V4
    } else {
        MAGIC_V6
    }
}

/// The 64-byte header block, as [`Snapshot::encode`] writes
/// it. Streaming writers emit this with a placeholder count and patch
/// it once the merged address count is known.
pub(crate) fn aligned_header<F: AddrFamily>(
    protocol: Protocol,
    month: u32,
    count: u64,
) -> [u8; SECTION_ALIGN] {
    let mut h = [0u8; SECTION_ALIGN];
    h[..4].copy_from_slice(family_magic::<F>());
    h[4] = VERSION;
    h[5] = protocol.index() as u8;
    h[6..10].copy_from_slice(&month.to_le_bytes());
    h[10..18].copy_from_slice(&count.to_le_bytes());
    h[18..22].copy_from_slice(&(SECTION_ALIGN as u32).to_le_bytes());
    h
}

/// A parsed snapshot header: everything before the address section.
struct SnapHeader {
    protocol: Protocol,
    month: u32,
    count: usize,
    /// Byte offset of the first address.
    section_off: usize,
}

/// Parse and bounds-check a snapshot header. Checks run in a fixed
/// order — magic, version, then the full header length — so a file of
/// another version is [`DecodeError::BadVersion`] however short it is.
/// On success the address section `[section_off, section_off +
/// count·W)` is guaranteed in bounds — address *content* (strict
/// ascent) is the caller's validation pass.
fn parse_header<F: AddrFamily>(data: &[u8]) -> Result<SnapHeader, DecodeError> {
    let width = usize::from(F::BITS / 8);
    let magic: &[u8; 4] = data
        .get(..4)
        .ok_or(DecodeError::Truncated)?
        .try_into()
        .expect("4-byte slice");
    if magic != family_magic::<F>() {
        return Err(if magic == MAGIC_V4 {
            DecodeError::WrongFamily {
                found: "IPv4",
                expected: F::NAME,
            }
        } else if magic == MAGIC_V6 {
            DecodeError::WrongFamily {
                found: "IPv6",
                expected: F::NAME,
            }
        } else {
            DecodeError::BadMagic
        });
    }
    let version = *data.get(4).ok_or(DecodeError::Truncated)?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    if data.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let ptag = data[5];
    let protocol = Protocol::from_index(ptag as usize).ok_or(DecodeError::BadProtocol(ptag))?;
    let month = u32::from_le_bytes(data[6..10].try_into().expect("4-byte slice"));
    let count64 = u64::from_le_bytes(data[10..18].try_into().expect("8-byte slice"));
    let count = usize::try_from(count64).map_err(|_| DecodeError::Truncated)?;
    let off = u32::from_le_bytes(data[18..22].try_into().expect("4-byte slice"));
    if (off as usize) < HEADER_LEN {
        return Err(DecodeError::BadSection(off));
    }
    let section_off = off as usize;
    let payload = count.checked_mul(width).ok_or(DecodeError::Truncated)?;
    if section_off > data.len() || data.len() - section_off < payload {
        return Err(DecodeError::Truncated);
    }
    Ok(SnapHeader {
        protocol,
        month,
        count,
        section_off,
    })
}

impl<F: AddrFamily> Snapshot<F> {
    /// Encode to the binary format:
    /// `magic(4) version=2(1) protocol(1) month(4 LE) count(8 LE)
    /// section_off(4 LE) pad` with the sorted fixed-width LE address
    /// section starting at `section_off`, the first 64-byte boundary.
    /// The address width is 4 bytes under the `TSS1` magic and 16 under
    /// `TSS6`. The whole file is returned as one exactly-sized `Vec`.
    pub fn encode(&self) -> Vec<u8> {
        let width = usize::from(F::BITS / 8);
        let mut buf = Vec::with_capacity(SECTION_ALIGN + width * self.hosts.len());
        buf.extend_from_slice(&aligned_header::<F>(
            self.protocol,
            self.month,
            self.hosts.len() as u64,
        ));
        for &a in self.hosts.as_slice() {
            buf.extend_from_slice(&F::addr_to_u128(a).to_le_bytes()[..width]);
        }
        buf
    }

    /// Decode the binary format as [`Snapshot::encode`] writes it. Any
    /// other version byte is [`DecodeError::BadVersion`]. One fused pass
    /// over the address section checks strict ascent and fills the host
    /// set's `Vec`.
    ///
    /// The decoder is family-checked: handing v6 bytes to a v4 decode
    /// (or vice versa) fails with [`DecodeError::WrongFamily`] rather
    /// than misreading addresses.
    pub fn decode(data: &[u8]) -> Result<Snapshot<F>, DecodeError> {
        let width = usize::from(F::BITS / 8);
        let h = parse_header::<F>(data)?;
        let section = &data[h.section_off..h.section_off + h.count * width];
        let mut addrs: Vec<F::Addr> = Vec::with_capacity(h.count);
        let mut raw = [0u8; 16];
        for chunk in section.chunks_exact(width) {
            raw[..width].copy_from_slice(chunk);
            let a = F::addr_from_u128(u128::from_le_bytes(raw));
            if addrs.last().is_some_and(|&prev| a <= prev) {
                return Err(DecodeError::Unsorted);
            }
            addrs.push(a);
        }
        Ok(Snapshot::new(
            h.protocol,
            h.month,
            HostSet::from_sorted_unique(addrs),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hs(v: &[u32]) -> HostSet {
        HostSet::from_addrs(v.to_vec())
    }

    #[test]
    fn from_addrs_sorts_and_dedups() {
        let s = hs(&[5, 1, 3, 3, 1]);
        assert_eq!(s.to_vec(), vec![1, 3, 5]);
        assert_eq!(s.as_slice(), [1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(!s.is_mapped());
        assert!(HostSet::<tass_net::V4>::default().is_empty());
    }

    #[test]
    fn contains_binary_search() {
        let s = hs(&[10, 20, 30]);
        assert!(s.contains(10) && s.contains(30));
        assert!(!s.contains(15) && !s.contains(0) && !s.contains(40));
    }

    #[test]
    fn intersection_count_merge() {
        let a = hs(&[1, 2, 3, 5, 8]);
        let b = hs(&[2, 3, 4, 8, 9]);
        assert_eq!(a.intersection_count(&b), 3);
        assert_eq!(b.intersection_count(&a), 3);
        assert_eq!(a.intersection_count(&HostSet::default()), 0);
        assert_eq!(a.intersection_count(&a), a.len());
    }

    #[test]
    fn range_and_prefix_counts() {
        let s = hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]);
        assert_eq!(s.count_in_range(0x0A00_0000, 0x0A00_00FF), 2);
        let p24: tass_net::Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(s.count_in_prefix(p24), 2);
        let p8: tass_net::Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(s.count_in_prefix(p8), 3);
        let all: tass_net::Prefix = "0.0.0.0/0".parse().unwrap();
        assert_eq!(s.count_in_prefix(all), 4);
        let none: tass_net::Prefix = "12.0.0.0/8".parse().unwrap();
        assert_eq!(s.count_in_prefix(none), 0);
    }

    #[test]
    fn count_at_space_boundaries() {
        let s = hs(&[0, u32::MAX]);
        assert_eq!(s.count_in_range(0, u32::MAX), 2);
        assert_eq!(s.count_in_range(1, u32::MAX - 1), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = Snapshot::new(Protocol::Https, 3, hs(&[1, 7, 0xFFFF_FFFF]));
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn encode_decode_empty() {
        let snap: Snapshot = Snapshot::new(Protocol::Ftp, 0, HostSet::default());
        let back = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.len(), 0);
        assert!(back.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Snapshot::<V4>::decode(b""), Err(DecodeError::Truncated));
        assert_eq!(
            Snapshot::<V4>::decode(b"XXXX..............."),
            Err(DecodeError::BadMagic)
        );
        // valid header but truncated payload
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2, 3]));
        let bytes = snap.encode();
        let cut = &bytes[..bytes.len() - 2];
        assert_eq!(Snapshot::<V4>::decode(cut), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_version_and_protocol() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1]));
        let mut bytes = snap.encode().to_vec();
        bytes[4] = 9; // version
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadVersion(9))
        );
        // the retired v1 layout: typed, and checked before the header
        // length, so even a bare magic + version byte names it
        bytes[4] = 1;
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadVersion(1))
        );
        assert_eq!(
            Snapshot::<V4>::decode(&bytes[..5]),
            Err(DecodeError::BadVersion(1))
        );
        let msg = DecodeError::BadVersion(1).to_string();
        assert!(msg.contains("version 2"), "{msg}");
        assert!(msg.contains("tass-select ingest"), "{msg}");
        let mut bytes = snap.encode().to_vec();
        bytes[5] = 77; // protocol tag
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadProtocol(77))
        );
    }

    #[test]
    fn decode_rejects_unsorted_payload() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2]));
        let mut bytes = snap.encode().to_vec();
        // swap the two addresses
        let n = bytes.len();
        bytes.swap(n - 8, n - 4);
        bytes.swap(n - 7, n - 3);
        bytes.swap(n - 6, n - 2);
        bytes.swap(n - 5, n - 1);
        assert_eq!(Snapshot::<V4>::decode(&bytes), Err(DecodeError::Unsorted));
    }

    #[test]
    fn decode_error_display() {
        for e in [
            DecodeError::BadMagic,
            DecodeError::WrongFamily {
                found: "IPv6",
                expected: "IPv4",
            },
            DecodeError::BadVersion(9),
            DecodeError::BadProtocol(8),
            DecodeError::Truncated,
            DecodeError::Unsorted,
            DecodeError::BadSection(4),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn encode_writes_the_aligned_layout() {
        let snap = Snapshot::new(
            Protocol::Http,
            2,
            hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]),
        );
        let v2 = snap.encode();
        assert_eq!(v2[4], 2); // version byte
        assert_eq!(v2.len(), 64 + 4 * 4);
        let from_v2 = Snapshot::<V4>::decode(&v2).unwrap();
        assert_eq!(from_v2, snap);
    }

    #[test]
    fn decoded_snapshot_matches_owned_ops() {
        let snap = Snapshot::new(
            Protocol::Http,
            2,
            hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]),
        );
        let decoded = Snapshot::<V4>::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.hosts.to_vec(), snap.hosts.to_vec());
        assert!(decoded.hosts.contains(0x0A00_0100));
        assert!(!decoded.hosts.contains(0x0A00_0003));
        let p24: tass_net::Prefix = "10.0.0.0/24".parse().unwrap();
        assert_eq!(decoded.hosts.count_in_prefix(p24), 2);
        assert_eq!(decoded.hosts.intersection_count(&snap.hosts), 4);
        assert_eq!(
            serde_json::to_string(&decoded.hosts).unwrap(),
            serde_json::to_string(&snap.hosts).unwrap()
        );
        let v = HostSetView::from_prefixes(decoded.hosts.clone(), &[p24]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![0x0A00_0001, 0x0A00_0002]);
    }

    #[test]
    fn resident_bytes_is_the_address_section() {
        let snap = Snapshot::new(Protocol::Http, 0, hs(&[1, 2, 3]));
        assert_eq!(snap.resident_bytes(), 12);
        // a decoded month holds only the address section, len x width
        let v2 = snap.encode();
        let section = v2.len() - 64;
        assert_eq!(section, 12);
        let from_v2 = Snapshot::<V4>::decode(&v2).unwrap();
        assert_eq!(from_v2.resident_bytes(), section);
    }

    #[test]
    fn aligned_truncation_at_every_boundary_is_typed() {
        let snap = Snapshot::new(Protocol::Cwmp, 2, hs(&[5, 6, 7]));
        let bytes = snap.encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Snapshot::<V4>::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_section_offset_is_typed() {
        let snap = Snapshot::new(Protocol::Http, 1, hs(&[1, 2]));
        let mut bytes = snap.encode().to_vec();
        bytes[18..22].copy_from_slice(&4u32.to_le_bytes());
        assert_eq!(
            Snapshot::<V4>::decode(&bytes),
            Err(DecodeError::BadSection(4))
        );
        // an offset past the end of the buffer is a truncation
        let mut bytes = snap.encode().to_vec();
        bytes[18..22].copy_from_slice(&10_000u32.to_le_bytes());
        assert_eq!(Snapshot::<V4>::decode(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn v6_encode_decode_roundtrip() {
        let hosts: HostSet<tass_net::V6> =
            HostSet::from_addrs(vec![1u128, 0x2600 << 112, u128::MAX]);
        let snap: Snapshot<tass_net::V6> = Snapshot::new(Protocol::Http, 4, hosts);
        let bytes = snap.encode();
        assert_eq!(&bytes[..4], b"TSS6");
        assert_eq!(bytes.len(), 64 + 3 * 16);
        let back = Snapshot::<tass_net::V6>::decode(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn cross_family_decode_is_a_typed_error() {
        let v4 = Snapshot::new(Protocol::Ftp, 1, hs(&[9])).encode();
        assert_eq!(
            Snapshot::<tass_net::V6>::decode(&v4),
            Err(DecodeError::WrongFamily {
                found: "IPv4",
                expected: "IPv6",
            })
        );
        let v6: Snapshot<tass_net::V6> =
            Snapshot::new(Protocol::Ftp, 1, HostSet::from_addrs(vec![9u128]));
        assert_eq!(
            Snapshot::<V4>::decode(&v6.encode()),
            Err(DecodeError::WrongFamily {
                found: "IPv6",
                expected: "IPv4",
            })
        );
    }

    #[test]
    fn full_view_is_the_whole_snapshot_without_copying() {
        let hosts = hs(&[1, 5, 9, 0x0A00_0000]);
        let v = HostSetView::full(hosts.clone());
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 5, 9, 0x0A00_0000]);
        assert_eq!(v.materialize(), hosts);
        // a whole-set view shares the set's storage, and so does its
        // materialisation
        assert!(std::ptr::eq(
            v.materialize().as_slice().as_ptr(),
            hosts.as_slice().as_ptr()
        ));
        assert!(v.contains(5) && !v.contains(6));
        let empty = HostSetView::full(hs(&[]));
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn prefix_view_unions_overlapping_prefixes() {
        let hosts = hs(&[
            0x0A00_0001,
            0x0A00_0002,
            0x0A00_0100,
            0x0A01_0000,
            0x0B00_0000,
        ]);
        // /24 nested inside /16 plus a disjoint /8: union, not double count
        let ps: Vec<tass_net::Prefix> = ["10.0.0.0/24", "10.0.0.0/16", "11.0.0.0/8"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let v = HostSetView::from_prefixes(hosts.clone(), &ps);
        assert_eq!(v.len(), 4);
        assert_eq!(
            v.materialize(),
            hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000])
        );
        // identical overlapping prefixes collapse to one range
        let twice = HostSetView::from_prefixes(hosts, &[ps[0], ps[0]]);
        assert_eq!(twice.len(), 2);
    }

    #[test]
    fn view_range_and_prefix_counts_match_materialised() {
        let hosts = hs(&[0x0A00_0001, 0x0A00_0002, 0x0A00_0100, 0x0B00_0000]);
        let ps: Vec<tass_net::Prefix> = ["10.0.0.0/24", "11.0.0.0/8"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let v = HostSetView::from_prefixes(hosts, &ps);
        let m = v.materialize();
        for (first, last) in [
            (0u32, u32::MAX),
            (0x0A00_0000, 0x0A00_00FF),
            (0x0A00_0002, 0x0B00_0000),
            (5, 4), // empty range
        ] {
            assert_eq!(v.count_in_range(first, last), m.count_in_range(first, last));
        }
        let p8: tass_net::Prefix = "10.0.0.0/8".parse().unwrap();
        assert_eq!(
            PrefixCount::count_in_prefix(&v, p8),
            PrefixCount::count_in_prefix(&m, p8)
        );
    }

    #[test]
    fn view_serde_is_byte_identical_to_hostset() {
        let hosts = hs(&[0x0A00_0001, 0x0A00_0002, 0x0B00_0000]);
        let ps: Vec<tass_net::Prefix> =
            ["10.0.0.0/24"].iter().map(|s| s.parse().unwrap()).collect();
        for v in [
            HostSetView::full(hosts.clone()),
            HostSetView::from_prefixes(hosts.clone(), &ps),
            HostSetView::full(hs(&[7, 9])),
            HostSetView::full(hs(&[])),
        ] {
            let eager = v.materialize();
            assert_eq!(
                serde_json::to_string(&v).unwrap(),
                serde_json::to_string(&eager).unwrap()
            );
            // round trip preserves the set (as a whole-set view)
            let back: HostSetView =
                serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn view_equality_is_set_equality_across_reprs() {
        // the same members, once as a whole set and once as a prefix
        // view over a larger set
        let full = HostSetView::full(hs(&[1, 2, 3]));
        let ps: Vec<tass_net::Prefix> = vec!["0.0.0.0/8".parse().unwrap()];
        let sub = HostSetView::from_prefixes(hs(&[1, 2, 3, 0x0A00_0000]), &ps);
        assert_eq!(full, sub);
        assert_ne!(full, HostSetView::full(hs(&[1, 2])));
        let from: HostSetView = hs(&[1, 2, 3]).into();
        assert_eq!(from, full);
        assert!(!format!("{full:?}").is_empty());
    }

    /// A v4 test address or prefix lifted into family `F`: v4 is
    /// unchanged, v6 keeps the low 32 bits under `2001:db8::/32` with
    /// prefix lengths shifted by 96, so the v6 run sees the v4 run's
    /// nesting, overlap and order at 128 bits.
    fn lift<F: AddrFamily>(a: u32) -> F::Addr {
        let high = if F::BITS == 32 {
            0
        } else {
            0x2001_0db8u128 << 96
        };
        F::addr_from_u128(high | u128::from(a))
    }

    fn lift_prefixes<F: AddrFamily>(specs: &[(u32, u8)]) -> Vec<Prefix<F>> {
        specs
            .iter()
            .map(|&(a, len)| Prefix::new_truncate(lift::<F>(a), len + (F::BITS - 32)).unwrap())
            .collect()
    }

    fn lift_hosts<F: AddrFamily>(hosts: &[u32]) -> HostSet<F> {
        hosts.iter().map(|&a| lift::<F>(a)).collect()
    }

    /// The view of `specs` over `hosts` equals the oracle set union of
    /// the per-prefix host subsets.
    fn assert_view_is_oracle_union<F: AddrFamily>(hosts: &[u32], specs: &[(u32, u8)]) {
        let hosts = lift_hosts::<F>(hosts);
        let prefixes = lift_prefixes::<F>(specs);
        let view = HostSetView::from_prefixes(hosts.clone(), &prefixes);
        let oracle: HostSet<F> = hosts
            .iter()
            .filter(|&a| prefixes.iter().any(|p| p.first() <= a && a <= p.last()))
            .collect();
        assert_eq!(view.materialize(), oracle.clone());
        assert_eq!(view.len(), oracle.len());
        assert_eq!(
            serde_json::to_string(&view).unwrap(),
            serde_json::to_string(&oracle).unwrap()
        );
    }

    proptest::proptest! {
        /// Overlap semantics, pinned: for *arbitrary* prefix lists —
        /// nested, duplicated, adjacent — the view equals the oracle
        /// set union of the per-prefix host subsets, over v4 and over
        /// the same inputs lifted to v6.
        #[test]
        fn prefix_view_equals_oracle_union(
            hosts in proptest::collection::vec(0u32..0x1000, 0..60),
            specs in proptest::collection::vec((0u32..0x1000, 20u8..=32), 0..8),
        ) {
            assert_view_is_oracle_union::<V4>(&hosts, &specs);
            assert_view_is_oracle_union::<tass_net::V6>(&hosts, &specs);
        }
    }

    /// One `PrefixCount` impl's bulk sweep against its scalar queries:
    /// `count_prefixes_into` per prefix, and `count_prefixes_total` as
    /// their sum.
    fn assert_bulk_counts_match_scalar<F: AddrFamily>(
        c: &impl PrefixCount<F>,
        queries: &[Prefix<F>],
    ) {
        let mut bulk = Vec::new();
        c.count_prefixes_into(queries.iter().copied(), &mut bulk);
        let scalar: Vec<u64> = queries
            .iter()
            .map(|&p| c.count_in_prefix(p) as u64)
            .collect();
        assert_eq!(bulk, scalar);
        assert_eq!(
            c.count_prefixes_total(queries.iter().copied()),
            scalar.iter().sum::<u64>()
        );
    }

    /// The bulk sweep of a host set, a prefix view over it and a
    /// whole-set view, each against its scalar counts.
    fn assert_sweeps_match_scalar<F: AddrFamily>(
        hosts: &[u32],
        view_specs: &[(u32, u8)],
        query_specs: &[(u32, u8)],
    ) {
        let hosts = lift_hosts::<F>(hosts);
        let queries = lift_prefixes::<F>(query_specs);
        let ranges = HostSetView::from_prefixes(hosts.clone(), &lift_prefixes::<F>(view_specs));
        let full = HostSetView::full(hosts.clone());
        assert_bulk_counts_match_scalar(&hosts, &queries);
        assert_bulk_counts_match_scalar(&ranges, &queries);
        assert_bulk_counts_match_scalar(&full, &queries);
    }

    proptest::proptest! {
        /// The bulk counting sweep, pinned against the scalar oracle for
        /// every `PrefixCount` impl: arbitrary prefix sequences (sorted
        /// or not, nested, duplicated) must count identically through
        /// `count_prefixes_into` on a `HostSet`, a prefix `HostSetView`
        /// and a whole-set view, over v4 and over the same inputs lifted
        /// to v6.
        #[test]
        fn bulk_count_sweep_matches_scalar_counts(
            hosts in proptest::collection::vec(0u32..0x1000, 0..60),
            view_specs in proptest::collection::vec((0u32..0x1000, 20u8..=32), 0..8),
            query_specs in proptest::collection::vec((0u32..0x1000, 18u8..=32), 0..24),
        ) {
            assert_sweeps_match_scalar::<V4>(&hosts, &view_specs, &query_specs);
            assert_sweeps_match_scalar::<tass_net::V6>(&hosts, &view_specs, &query_specs);
        }
    }

    /// A prefix view's bulk count of queries that begin with its own
    /// source prefixes — the whole list, a leading part, a leading part
    /// and then other prefixes, the whole list and then more — against
    /// the galloping sweep of the view's materialized set and the view's
    /// scalar counts.
    fn assert_stored_counts_match_sweep<F: AddrFamily>(
        hosts: &[u32],
        source_specs: &[(u32, u8)],
        cut: usize,
        extra_specs: &[(u32, u8)],
    ) {
        let hosts = lift_hosts::<F>(hosts);
        let source = lift_prefixes::<F>(source_specs);
        let extra = lift_prefixes::<F>(extra_specs);
        let view = HostSetView::from_prefixes(hosts, &source);
        let set = view.materialize();
        let lead = &source[..cut.min(source.len())];
        for queries in [
            source.clone(),
            lead.to_vec(),
            [lead, &extra].concat(),
            [&source[..], &extra].concat(),
        ] {
            let mut stored = Vec::new();
            view.count_prefixes_into(queries.iter().copied(), &mut stored);
            let mut swept = Vec::new();
            set.count_prefixes_into(queries.iter().copied(), &mut swept);
            assert_eq!(stored, swept, "{source:?} then {queries:?}");
            assert_bulk_counts_match_scalar(&view, &queries);
        }
    }

    proptest::proptest! {
        /// The counts a prefix view keeps answer a bulk count of its own
        /// source prefixes exactly as the galloping sweep does, for
        /// arbitrary source lists (unsorted, nested, overlapping,
        /// duplicated, with empty spans) and every way a query list can
        /// follow or leave them, over v4 and the same inputs lifted to
        /// v6.
        #[test]
        fn prefix_view_stored_counts_match_the_sweep(
            hosts in proptest::collection::vec(0u32..0x1000, 0..60),
            source_specs in proptest::collection::vec((0u32..0x1000, 20u8..=32), 0..10),
            cut in 0usize..10,
            extra_specs in proptest::collection::vec((0u32..0x1000, 18u8..=32), 0..6),
        ) {
            assert_stored_counts_match_sweep::<V4>(&hosts, &source_specs, cut, &extra_specs);
            assert_stored_counts_match_sweep::<tass_net::V6>(
                &hosts, &source_specs, cut, &extra_specs,
            );
        }
    }

    #[test]
    fn v6_truncation_at_every_boundary_is_typed() {
        let hosts: HostSet<tass_net::V6> = HostSet::from_addrs(vec![5u128, 6, 7]);
        let snap: Snapshot<tass_net::V6> = Snapshot::new(Protocol::Cwmp, 2, hosts);
        let bytes = snap.encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Snapshot::<tass_net::V6>::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }
}
