//! ZMap's address permutation: multiplicative-group iteration, generic
//! over the address family.
//!
//! To spread probes evenly over the Internet (and over every target
//! network's intrusion detection thresholds), ZMap iterates the IPv4 space
//! in the order of a random cyclic-group walk: pick a random primitive
//! root `g` of ℤ*_p for the prime `p = 2³² + 15`, then visit
//! `g¹, g², …, g^(p−1)` — a permutation of `1..p`, of which the 15 values
//! above 2³² are skipped. The walk needs O(1) state, is trivially
//! shardable (shard *i* of *k* visits exponents ≡ i (mod k)), and is
//! reproduced here exactly.
//!
//! The group is generic over the [`AddrFamily`]: for [`V4`] the modulus
//! lives in `u64` (the pre-generic API, bit for bit); for
//! [`V6`](crate::V6) it lives in `u128`. Modular multiplication
//! ([`mulmod_u128`]) has three width tiers, picked by the modulus:
//!
//! - **native** (m ≤ 2³²): operands already below `m` — every walk step —
//!   skip reduction, and the product and its remainder stay in `u64`.
//!   Every v4 prefix walk and every realistic v6 sub-prefix walk (a
//!   seeded /116 block, say) runs here. A walk in this tier
//!   ([`CyclicIter`], [`AddressIter`]) divides once, when it starts:
//!   each step reduces its product by a Barrett multiply against the
//!   precomputed `u64::MAX / m` instead of a hardware `%`;
//! - **wide** (m ≤ 2⁶⁴): a `u128` product reduced by `u128 %` — ZMap's
//!   full-space prime `2³² + 15` lands here;
//! - **limb** (m > 2⁶⁴): a double-and-add over 128-bit limbs, so the
//!   arithmetic is correct at any width. Whole-space v6 enumeration is
//!   not sensible (that is the point of topology-aware selection); the
//!   tier exists for correctness, not speed.
//!
//! The modulus is configurable so small groups can be tested exhaustively;
//! [`Cyclic::ipv4`] uses ZMap's prime.

use crate::family::{AddrFamily, V4};
use rand::Rng;
use std::marker::PhantomData;

/// ZMap's scanning prime: the smallest prime larger than 2³².
pub const ZMAP_PRIME: u64 = 4_294_967_311; // 2^32 + 15

/// `(a * b) mod m` without overflow (via u128).
#[inline]
pub fn mulmod(a: u64, b: u64, m: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

/// Widest modulus of the native tier: two operands below 2³² multiply
/// to below 2⁶⁴, so the product and its remainder stay in `u64`.
const NATIVE_MODULUS_MAX: u128 = 1 << 32;

/// `(a * b) mod m` at u128 width, in the narrowest tier the modulus
/// allows (see the module docs): native `u64` arithmetic up to 2³², a
/// `u128` product up to 2⁶⁴, a limb product above.
#[inline]
pub fn mulmod_u128(a: u128, b: u128, m: u128) -> u128 {
    if m <= NATIVE_MODULUS_MAX {
        return u128::from(mulmod_native(a, b, m as u64));
    }
    mulmod_wide(a, b, m)
}

/// The native tier (`m ≤ 2³²`): operands already below `m` are used as
/// they are, so a walk step is one `u64` multiply and one `u64` remainder.
#[inline]
fn mulmod_native(a: u128, b: u128, m: u64) -> u64 {
    debug_assert!(u128::from(m) <= NATIVE_MODULUS_MAX);
    let reduce = |x: u128| {
        if x < u128::from(m) {
            x as u64
        } else {
            (x % u128::from(m)) as u64
        }
    };
    reduce(a) * reduce(b) % m
}

/// Barrett reduction of a native-tier walk step: `(a * b) mod m` for
/// `a, b < m ≤ 2³²`, given `mu = u64::MAX / m`. Because `a·b < 2⁶⁴` and
/// `mu ≥ (2⁶⁴ − m) / m`, the quotient estimate `⌊a·b·mu / 2⁶⁴⌋` falls
/// short of `⌊a·b / m⌋` by at most one, so the correction loop subtracts
/// `m` at most once.
#[inline]
fn mulmod_barrett(a: u64, b: u64, m: u64, mu: u64) -> u64 {
    debug_assert!(a < m && b < m && u128::from(m) <= NATIVE_MODULUS_MAX);
    let x = a * b;
    let q = ((u128::from(x) * u128::from(mu)) >> 64) as u64;
    let mut r = x - q * m;
    while r >= m {
        r -= m;
    }
    r
}

/// The wide and limb tiers: a `u128` product when the modulus fits in
/// `u64`, otherwise a 256-bit-safe double-and-add.
fn mulmod_wide(a: u128, b: u128, m: u128) -> u128 {
    if let (Ok(a64), Ok(b64), Ok(m64)) =
        (u64::try_from(a % m), u64::try_from(b % m), u64::try_from(m))
    {
        return u128::from(mulmod(a64, b64, m64));
    }
    // Russian-peasant double-and-add: O(128) additions, each safe because
    // every intermediate stays below 2·m ≤ 2¹²⁹ via pre-reduction and the
    // subtract-on-overflow step.
    let (mut a, mut b) = (a % m, b % m);
    let mut acc: u128 = 0;
    while b > 0 {
        if b & 1 == 1 {
            acc = addmod_u128(acc, a, m);
        }
        a = addmod_u128(a, a, m);
        b >>= 1;
    }
    acc
}

/// `(a + b) mod m` for already-reduced operands, overflow-safe.
#[inline]
fn addmod_u128(a: u128, b: u128, m: u128) -> u128 {
    debug_assert!(a < m && b < m);
    let (sum, carried) = a.overflowing_add(b);
    if carried || sum >= m {
        // a + b − m < m holds in both cases; wrapping_sub realises the
        // 2¹²⁸-modular arithmetic when the addition carried
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// `(base ^ exp) mod m` at u128 width.
pub fn powmod_u128(mut base: u128, mut exp: u128, m: u128) -> u128 {
    let mut acc = 1u128 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mulmod_u128(acc, base, m);
        }
        base = mulmod_u128(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Primality test (Miller–Rabin; see [`is_prime_u128`]).
pub fn is_prime(n: u64) -> bool {
    is_prime_u128(u128::from(n))
}

/// Witness set for Miller–Rabin: the first **thirteen** primes decide
/// primality *deterministically* for every n < 3.3·10²⁴ ≈ 2⁸¹ — far
/// beyond any modulus a prefix-sized permutation can produce. (Twelve
/// are not enough: 318665857834031151167461 ≈ 2⁷⁸ is a strong
/// pseudoprime to every base up to 37.)
const MR_WITNESSES: [u128; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Miller–Rabin primality at u128 width: O(log² n) per witness instead
/// of the old O(√n) trial division, so the u128 modulus path costs the
/// same few dozen modular powers as the u64 one (deterministic below 2⁸¹,
/// vanishingly improbable to err above — no practical modulus gets
/// there).
pub fn is_prime_u128(n: u128) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &MR_WITNESSES {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    // n − 1 = d · 2^s with d odd
    let mut d = n - 1;
    let mut s = 0u32;
    while d & 1 == 0 {
        d >>= 1;
        s += 1;
    }
    'witness: for &a in &MR_WITNESSES {
        let mut x = powmod_u128(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mulmod_u128(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Distinct prime factors at u128 width (trial division; same cost note
/// as [`is_prime_u128`]).
pub fn prime_factors_u128(mut n: u128) -> Vec<u128> {
    let mut out = Vec::new();
    let mut d = 2u128;
    while d.saturating_mul(d) <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            while n.is_multiple_of(d) {
                n /= d;
            }
        }
        d += if d == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Errors constructing a cyclic permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CyclicError {
    /// The modulus is not prime.
    NotPrime(u128),
}

impl std::fmt::Display for CyclicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CyclicError::NotPrime(p) => write!(f, "{p} is not prime"),
        }
    }
}

impl std::error::Error for CyclicError {}

/// Draw a uniform value in `[lo, hi)` at u128 width, consuming the RNG
/// exactly like the pre-generic u64 draw whenever the bounds permit — the
/// v4 permutation's random generators are reproduced bit for bit.
fn random_range_u128<R: Rng + ?Sized>(rng: &mut R, lo: u128, hi: u128) -> u128 {
    if let (Ok(lo64), Ok(hi64)) = (u64::try_from(lo), u64::try_from(hi)) {
        u128::from(rng.random_range(lo64..hi64))
    } else {
        rng.random_range(lo..hi)
    }
}

/// A full-cycle permutation of `1..p` via a primitive root of ℤ*_p,
/// generic over the address family whose space it walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cyclic<F: AddrFamily = V4> {
    p: u128,
    generator: u128,
    _family: PhantomData<F>,
}

impl Cyclic {
    /// Build over the IPv4 scanning prime with a random primitive root.
    pub fn ipv4<R: Rng + ?Sized>(rng: &mut R) -> Cyclic {
        Cyclic::new(ZMAP_PRIME, rng).expect("ZMAP_PRIME is prime")
    }
}

impl<F: AddrFamily> Cyclic<F> {
    /// Build over ℤ*_p with a randomly chosen primitive root.
    pub fn new<R: Rng + ?Sized, W: Into<u128>>(
        p: W,
        rng: &mut R,
    ) -> Result<Cyclic<F>, CyclicError> {
        let p = p.into();
        if !is_prime_u128(p) {
            return Err(CyclicError::NotPrime(p));
        }
        Ok(Cyclic::with_factors(p, &prime_factors_u128(p - 1), rng))
    }

    /// Build over ℤ*_p from a prime `p` and the distinct prime factors of
    /// the group order `p − 1`, drawing the primitive root exactly as
    /// [`Cyclic::new`] does — the same RNG draws in the same order — so
    /// equal seeds give equal walks. A caller that builds many groups
    /// over one prime tests and factors it once and passes the factors
    /// here.
    ///
    /// The caller vouches for `p` and `factors_of_order`; debug builds
    /// check that `p` is prime and that the factors divide out `p − 1`.
    pub fn with_factors<R: Rng + ?Sized>(
        p: u128,
        factors_of_order: &[u128],
        rng: &mut R,
    ) -> Cyclic<F> {
        debug_assert!(is_prime_u128(p), "{p} is not prime");
        debug_assert_eq!(
            factors_of_order.iter().fold(p - 1, |mut n, &q| {
                while q > 1 && n.is_multiple_of(q) {
                    n /= q;
                }
                n
            }),
            1,
            "{factors_of_order:?} are not the prime factors of {}",
            p - 1
        );
        if p == 2 {
            // ℤ*_2 is the trivial group {1}; 1 generates it
            return Cyclic {
                p,
                generator: 1,
                _family: PhantomData,
            };
        }
        loop {
            let g = random_range_u128(rng, 2, p);
            if is_primitive_root(g, p, factors_of_order) {
                return Cyclic {
                    p,
                    generator: g,
                    _family: PhantomData,
                };
            }
        }
    }

    /// The generator.
    pub fn generator(&self) -> F::Wide {
        F::wide_from_u128(self.generator)
    }

    /// Group order (p − 1): the number of elements in the full cycle.
    pub fn order(&self) -> F::Wide {
        F::wide_from_u128(self.p - 1)
    }

    /// Iterate the whole group: `g¹, g², …, g^(p−1)`.
    pub fn iter(&self) -> CyclicIter<F> {
        self.iter_shard(0, 1)
    }

    /// Iterate shard `shard` of `total`: exponents `shard+1, shard+1+total,
    /// …` — together the shards partition the group, ZMap's `--shards`.
    ///
    /// Panics if `shard >= total` or `total == 0`.
    pub fn iter_shard(&self, shard: u64, total: u64) -> CyclicIter<F> {
        assert!(total > 0, "total shards must be > 0");
        assert!(shard < total, "shard index out of range");
        let order = self.p - 1;
        let first_exp = u128::from(shard) + 1;
        let remaining = if order >= first_exp {
            (order - first_exp) / u128::from(total) + 1
        } else {
            0
        };
        CyclicIter {
            cur: powmod_u128(self.generator, first_exp, self.p),
            step: powmod_u128(self.generator, u128::from(total), self.p),
            p: self.p,
            barrett_mu: barrett_mu(self.p),
            remaining,
            _family: PhantomData,
        }
    }

    /// Iterate group elements mapped to addresses `element − 1`, skipping
    /// elements above `limit` (for the IPv4 prime: `limit = 2³²` skips the
    /// 15 out-of-range values and yields every address exactly once).
    pub fn addresses<W: Into<u128>>(&self, shard: u64, total: u64, limit: W) -> AddressIter<F> {
        AddressIter {
            inner: self.iter_shard(shard, total),
            limit: limit.into(),
        }
    }
}

fn is_primitive_root(g: u128, p: u128, factors_of_order: &[u128]) -> bool {
    if g.is_multiple_of(p) {
        return false;
    }
    factors_of_order
        .iter()
        .all(|&q| powmod_u128(g, (p - 1) / q, p) != 1)
}

/// The Barrett constant `u64::MAX / p` of a native-tier modulus, `None`
/// for the wide and limb tiers.
fn barrett_mu(p: u128) -> Option<u64> {
    (p <= NATIVE_MODULUS_MAX).then(|| u64::MAX / p as u64)
}

/// Iterator over group elements (see [`Cyclic::iter_shard`]).
#[derive(Debug, Clone)]
pub struct CyclicIter<F: AddrFamily = V4> {
    cur: u128,
    step: u128,
    p: u128,
    /// `Some(u64::MAX / p)` in the native tier: steps reduce by
    /// [`mulmod_barrett`] instead of dividing
    barrett_mu: Option<u64>,
    remaining: u128,
    _family: PhantomData<F>,
}

impl<F: AddrFamily> CyclicIter<F> {
    /// The next group element of the walk, or `None` once it is done.
    #[inline]
    fn advance(&mut self) -> Option<u128> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let out = self.cur;
        self.cur = match self.barrett_mu {
            Some(mu) => u128::from(mulmod_barrett(
                self.cur as u64,
                self.step as u64,
                self.p as u64,
                mu,
            )),
            None => mulmod_u128(self.cur, self.step, self.p),
        };
        Some(out)
    }
}

impl<F: AddrFamily> Iterator for CyclicIter<F> {
    type Item = F::Wide;

    fn next(&mut self) -> Option<F::Wide> {
        self.advance().map(F::wide_from_u128)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

/// Iterator over addresses derived from group elements (see
/// [`Cyclic::addresses`]).
#[derive(Debug, Clone)]
pub struct AddressIter<F: AddrFamily = V4> {
    inner: CyclicIter<F>,
    limit: u128,
}

impl<F: AddrFamily> AddressIter<F> {
    /// An exhausted iterator, for callers that need a placeholder walk.
    pub fn empty() -> AddressIter<F> {
        AddressIter {
            inner: CyclicIter {
                cur: 0,
                step: 0,
                p: 1,
                barrett_mu: None,
                remaining: 0,
                _family: PhantomData,
            },
            limit: 0,
        }
    }
}

impl<F: AddrFamily> Iterator for AddressIter<F> {
    type Item = F::Addr;

    fn next(&mut self) -> Option<F::Addr> {
        while let Some(e) = self.inner.advance() {
            if e <= self.limit {
                return Some(F::addr_from_u128(e - 1));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::V6;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The v4 group over the prime `p` walked by the primitive root `g`,
    /// so a test can pin the order of the walk.
    fn with_generator(p: u64, g: u64) -> Cyclic {
        let (p, g) = (u128::from(p), u128::from(g));
        assert!(is_primitive_root(g, p, &prime_factors_u128(p - 1)));
        Cyclic {
            p,
            generator: g,
            _family: PhantomData,
        }
    }

    #[test]
    fn primality_basics() {
        assert!(is_prime(2) && is_prime(3) && is_prime(257) && is_prime(65537));
        assert!(!is_prime(0) && !is_prime(1) && !is_prime(4) && !is_prime(65535));
        assert!(is_prime(ZMAP_PRIME), "ZMap's prime must be prime");
        // above-u64 width
        assert!(is_prime_u128((1u128 << 64) + 13));
        assert!(!is_prime_u128(1u128 << 64));
        // strong pseudoprime to all twelve bases ≤ 37 — the composite
        // that forces the thirteenth witness (41) into MR_WITNESSES
        assert!(!is_prime_u128(318_665_857_834_031_151_167_461));
    }

    #[test]
    fn factorisation() {
        assert_eq!(prime_factors_u128(1), Vec::<u128>::new());
        assert_eq!(prime_factors_u128(12), vec![2, 3]);
        assert_eq!(prime_factors_u128(256), vec![2]);
        assert_eq!(prime_factors_u128(97), vec![97]);
        // p-1 for the ZMap prime: verify the product of factor powers
        let order = u128::from(ZMAP_PRIME - 1);
        let fs = prime_factors_u128(order);
        assert!(!fs.is_empty());
        for f in &fs {
            assert!(is_prime_u128(*f));
            assert_eq!(order % f, 0);
        }
    }

    #[test]
    fn powmod_matches_naive() {
        for (b, e, m) in [(2u128, 10u128, 1000u128), (3, 0, 7), (5, 3, 13), (7, 6, 13)] {
            let naive = (0..e).fold(1u128, |acc, _| acc * b % m);
            assert_eq!(powmod_u128(b, e, m), naive);
        }
    }

    #[test]
    fn wide_mulmod_agrees_with_narrow_and_handles_128_bits() {
        // narrow agreement
        for (a, b, m) in [(3u64, 5u64, 7u64), (u64::MAX, u64::MAX, ZMAP_PRIME)] {
            assert_eq!(
                mulmod_u128(u128::from(a), u128::from(b), u128::from(m)),
                u128::from(mulmod(a, b, m))
            );
        }
        // beyond u64: (2^64)·(2^64) mod (2^64+13) — peasant path.
        // 2^64 ≡ −13, so the product ≡ 169.
        let m = (1u128 << 64) + 13;
        assert_eq!(mulmod_u128(1u128 << 64, 1u128 << 64, m), 169);
        assert_eq!(powmod_u128(1u128 << 64, 2, m), 169);
        // identity laws at full width
        let big = u128::MAX - 58; // arbitrary reduced operand
        let m2 = u128::MAX - 56;
        assert_eq!(mulmod_u128(big, 1, m2), big);
        assert_eq!(mulmod_u128(1, big, m2), big);
    }

    #[test]
    fn native_tier_equals_wide_tier() {
        for m in [2u128, 3, 257, 4_294_967_291, 1 << 32] {
            assert!(m <= NATIVE_MODULUS_MAX, "{m} takes the native tier");
            // reduced operands at both ends of the range, plus unreduced
            // ones that need the native tier's own reduction
            let edge = [0, 1, 2, m / 2, m - 2, m - 1, m, m + 1, 3 * m + 7, u128::MAX];
            for &a in &edge {
                for &b in &edge {
                    assert_eq!(
                        u128::from(mulmod_native(a, b, m as u64)),
                        mulmod_wide(a, b, m),
                        "{a} * {b} mod {m}"
                    );
                }
            }
            let mut rng = SmallRng::seed_from_u64(m as u64);
            for _ in 0..1000 {
                let (a, b) = (rng.random_range(0..m), rng.random_range(0..m));
                assert_eq!(
                    mulmod_u128(a, b, m),
                    mulmod_wide(a, b, m),
                    "{a} * {b} mod {m}"
                );
            }
        }
        assert!(
            u128::from(ZMAP_PRIME) > NATIVE_MODULUS_MAX,
            "ZMap's prime takes the wide tier"
        );
    }

    #[test]
    fn barrett_step_equals_mulmod_at_the_tier_edges() {
        for m in [2u64, 3, 257, 65_537, 4_294_967_291, 1 << 32] {
            let mu = u64::MAX / m;
            let edge = [0, 1, 2, m / 2, m - 2, m - 1].map(|x| x.min(m - 1));
            for &a in &edge {
                for &b in &edge {
                    assert_eq!(
                        mulmod_barrett(a, b, m, mu),
                        mulmod(a, b, m),
                        "{a} * {b} mod {m}"
                    );
                }
            }
            let mut rng = SmallRng::seed_from_u64(m);
            for _ in 0..10_000 {
                let (a, b) = (rng.random_range(0..m), rng.random_range(0..m));
                assert_eq!(mulmod_barrett(a, b, m, mu), mulmod(a, b, m));
            }
        }
    }

    #[test]
    fn division_free_walk_is_the_mulmod_walk() {
        // primes at the native tier's edges; every shard of several
        // shardings walks the same elements, in the same order, as the
        // `mulmod_u128` recurrence
        for p in [3u64, 257, 65_537, 4_294_967_291] {
            let c: Cyclic = Cyclic::new(p, &mut SmallRng::seed_from_u64(p)).unwrap();
            let g = u128::from(c.generator());
            for total in [1u64, 2, 3, 7] {
                for shard in 0..total {
                    // exponents shard+1, shard+1+total, … up to p − 1
                    let len = (p - 1).saturating_sub(shard).div_ceil(total);
                    let n = usize::try_from(len).unwrap().min(50_000);
                    let step = powmod_u128(g, u128::from(total), u128::from(p));
                    let want: Vec<u64> = std::iter::successors(
                        Some(powmod_u128(g, u128::from(shard) + 1, u128::from(p))),
                        |&e| Some(mulmod_u128(e, step, u128::from(p))),
                    )
                    .take(n)
                    .map(|e| e as u64)
                    .collect();
                    let got: Vec<u64> = c.iter_shard(shard, total).take(n).collect();
                    assert_eq!(got, want, "p {p}, shard {shard}/{total}");
                    // the address walk shares the step, skipping elements
                    // above its limit
                    let limit = p / 2;
                    let want_addrs: Vec<u32> = want
                        .iter()
                        .filter(|&&e| e <= limit)
                        .map(|&e| (e - 1) as u32)
                        .collect();
                    let addrs: Vec<u32> = c
                        .addresses(shard, total, limit)
                        .take(want_addrs.len())
                        .collect();
                    assert_eq!(addrs, want_addrs, "p {p}, shard {shard}/{total}");
                }
                // the whole walk of a small group
                if p <= 65_537 {
                    let mut all: Vec<u64> =
                        (0..total).flat_map(|s| c.iter_shard(s, total)).collect();
                    all.sort_unstable();
                    assert_eq!(all, (1..p).collect::<Vec<u64>>(), "p {p}, {total} shards");
                }
            }
        }
    }

    #[test]
    fn with_factors_walk_equals_new_walk_at_every_v4_prefix_length() {
        for len in 0..=32u32 {
            let size = 1u128 << (32 - len);
            let p = (size + 1..).find(|&p| is_prime_u128(p)).unwrap();
            let factors = prime_factors_u128(p - 1);
            let mut rng_new = SmallRng::seed_from_u64(0x5EED ^ u64::from(len));
            let mut rng_memo = rng_new.clone();
            let built: Cyclic = Cyclic::new(p, &mut rng_new).unwrap();
            let memo: Cyclic = Cyclic::with_factors(p, &factors, &mut rng_memo);
            assert_eq!(built, memo, "/{len}");
            let walk = |c: &Cyclic| c.addresses(0, 1, size).take(256).collect::<Vec<u32>>();
            assert_eq!(walk(&built), walk(&memo), "/{len}");
            // both consumed the same draws
            assert_eq!(rng_new.random::<u64>(), rng_memo.random::<u64>(), "/{len}");
        }
    }

    #[test]
    fn full_cycle_is_permutation_small_prime() {
        let mut rng = SmallRng::seed_from_u64(5);
        let c: Cyclic = Cyclic::new(257u64, &mut rng).unwrap();
        let mut seen: Vec<u64> = c.iter().collect();
        assert_eq!(seen.len(), 256);
        seen.sort_unstable();
        let want: Vec<u64> = (1..257).collect();
        assert_eq!(seen, want, "cycle must visit every element once");
    }

    #[test]
    fn v6_cycle_is_permutation_small_prime() {
        let mut rng = SmallRng::seed_from_u64(5);
        let c: Cyclic<V6> = Cyclic::new(257u64, &mut rng).unwrap();
        let mut seen: Vec<u128> = c.iter().collect();
        assert_eq!(seen.len(), 256);
        seen.sort_unstable();
        let want: Vec<u128> = (1..257).collect();
        assert_eq!(seen, want);
        // and addresses land in u128 space
        let mut addrs: Vec<u128> = c.addresses(0, 1, 256u64).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, (0u128..256).collect::<Vec<_>>());
    }

    #[test]
    fn shards_partition_the_cycle() {
        let mut rng = SmallRng::seed_from_u64(6);
        let c: Cyclic = Cyclic::new(1009u64, &mut rng).unwrap();
        for total in [1u64, 2, 3, 7, 16] {
            let mut all: Vec<u64> = Vec::new();
            for shard in 0..total {
                all.extend(c.iter_shard(shard, total));
            }
            assert_eq!(all.len(), 1008, "total={total}");
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 1008, "shards must not overlap (total={total})");
        }
    }

    #[test]
    fn addresses_cover_limit_exactly() {
        let mut rng = SmallRng::seed_from_u64(7);
        // 1009 is prime; limit 1000 addresses => elements 1..=1000
        let c: Cyclic = Cyclic::new(1009u64, &mut rng).unwrap();
        let mut addrs: Vec<u32> = c.addresses(0, 1, 1000u64).collect();
        assert_eq!(addrs.len(), 1000);
        addrs.sort_unstable();
        let want: Vec<u32> = (0..1000).collect();
        assert_eq!(addrs, want);
    }

    #[test]
    fn sharded_addresses_partition() {
        let mut rng = SmallRng::seed_from_u64(8);
        let c: Cyclic = Cyclic::new(521u64, &mut rng).unwrap();
        let mut all: Vec<u32> = Vec::new();
        for shard in 0..4 {
            all.extend(c.addresses(shard, 4, 500u64));
        }
        assert_eq!(all.len(), 500);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 500);
    }

    #[test]
    fn smallest_prime_group_is_trivial_not_a_panic() {
        let mut rng = SmallRng::seed_from_u64(13);
        let c: Cyclic = Cyclic::new(2u64, &mut rng).unwrap();
        assert_eq!(c.generator(), 1);
        assert_eq!(c.order(), 1);
        assert_eq!(c.iter().collect::<Vec<u64>>(), vec![1]);
        assert_eq!(c.addresses(0, 1, 1u64).collect::<Vec<u32>>(), vec![0]);
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(
            Cyclic::<V4>::new(100u64, &mut rng),
            Err(CyclicError::NotPrime(100))
        );
        assert!(!is_primitive_root(1, 101, &prime_factors_u128(100)));
        // for p=7, the quadratic residues {1,2,4} are not primitive
        // roots; 3 is.
        assert!(is_primitive_root(3, 7, &[2, 3]));
        assert!(!is_primitive_root(2, 7, &[2, 3]));
    }

    #[test]
    #[should_panic(expected = "shard index out of range")]
    fn shard_bounds_checked() {
        let c: Cyclic = with_generator(7, 3);
        let _ = c.iter_shard(2, 2);
    }

    #[test]
    fn ipv4_group_spot_checks() {
        let mut rng = SmallRng::seed_from_u64(10);
        let c = Cyclic::ipv4(&mut rng);
        assert_eq!(c.p, u128::from(ZMAP_PRIME));
        assert_eq!(c.order(), (1 << 32) + 14);
        // first 100k elements of a shard are distinct
        let sample: Vec<u64> = c.iter_shard(0, 256).take(100_000).collect();
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sample.len());
        // elements are in range
        assert!(sample.iter().all(|&e| (1..ZMAP_PRIME).contains(&e)));
    }

    #[test]
    fn different_generators_different_orders() {
        let mut rng1 = SmallRng::seed_from_u64(11);
        let mut rng2 = SmallRng::seed_from_u64(12);
        let c1 = Cyclic::ipv4(&mut rng1);
        let c2 = Cyclic::ipv4(&mut rng2);
        assert_ne!(c1.generator(), c2.generator());
        let a: Vec<u64> = c1.iter().take(16).collect();
        let b: Vec<u64> = c2.iter().take(16).collect();
        assert_ne!(a, b, "different walks");
    }

    #[test]
    fn deterministic_walk_for_fixed_generator() {
        let c: Cyclic = with_generator(257, 3);
        let a: Vec<u64> = c.iter().take(10).collect();
        assert_eq!(
            a,
            vec![
                3,
                9,
                27,
                81,
                243,
                729 % 257,
                2187 % 257,
                6561 % 257,
                19683 % 257,
                59049 % 257
            ]
        );
    }

    #[test]
    fn v6_wide_modulus_walk_is_a_permutation_of_its_prefix() {
        // A prime above 2^64 exercises the peasant mulmod on every step;
        // the walk must still be duplicate-free and in range. A c·2^64+1
        // prime keeps p−1 smooth so the primitive-root factoring stays
        // cheap.
        let p = (0..)
            .map(|c| (2 * c + 3) << 64 | 1)
            .find(|&p| is_prime_u128(p))
            .unwrap();
        assert!(p > 1u128 << 64);
        let mut rng = SmallRng::seed_from_u64(3);
        let c: Cyclic<V6> = Cyclic::new(p, &mut rng).unwrap();
        let sample: Vec<u128> = c.iter().take(4096).collect();
        let mut dedup = sample.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), sample.len(), "no repeats in the walk head");
        assert!(sample.iter().all(|&e| (1..p).contains(&e)));
    }
}
