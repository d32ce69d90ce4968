//! SipHash-2-4, implemented from the reference specification.
//!
//! ZMap derives all per-probe state (TCP sequence numbers, source ports)
//! from a keyed hash of the destination, so responses can be validated
//! without keeping per-target state. ZMap does this with an output-reduced
//! cipher; we use SipHash-2-4, which serves the same purpose and has
//! published test vectors (Aumasson & Bernstein, "SipHash: a fast
//! short-input PRF", reference implementation `vectors_64`).
//!
//! `std`'s `DefaultHasher` is *not* used because its algorithm is
//! explicitly unspecified and seed handling is private — a validation hash
//! must be stable across runs and versions.

use tass_net::AddrFamily;

/// A SipHash-2-4 keyed hasher. Its one core, [`SipHash24::hash_words`],
/// is inlined into each caller; the per-probe inputs (a destination
/// address, an address and a port, an address and a fault direction) are
/// a handful of words built in registers, so a probe's digests cost a
/// few SipRounds each and no byte shuffling.
#[derive(Debug, Clone, Copy)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

#[inline]
fn rotl(x: u64, b: u32) -> u64 {
    x.rotate_left(b)
}

#[inline(always)]
fn sipround(v: &mut [u64; 4]) {
    v[0] = v[0].wrapping_add(v[1]);
    v[1] = rotl(v[1], 13);
    v[1] ^= v[0];
    v[0] = rotl(v[0], 32);
    v[2] = v[2].wrapping_add(v[3]);
    v[3] = rotl(v[3], 16);
    v[3] ^= v[2];
    v[0] = v[0].wrapping_add(v[3]);
    v[3] = rotl(v[3], 21);
    v[3] ^= v[0];
    v[2] = v[2].wrapping_add(v[1]);
    v[1] = rotl(v[1], 17);
    v[1] ^= v[2];
    v[2] = rotl(v[2], 32);
}

/// Absorb one message word: SipHash-2-4's two compression rounds.
#[inline(always)]
fn compress(v: &mut [u64; 4], m: u64) {
    v[3] ^= m;
    sipround(v);
    sipround(v);
    v[0] ^= m;
}

impl SipHash24 {
    /// Create a hasher from a 128-bit key given as two words
    /// (little-endian order, as in the reference implementation).
    pub const fn new(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1 }
    }

    /// The one SipHash-2-4 core: compress the message words `blocks`,
    /// then `last` — the final block, which carries the message length
    /// in its top byte and the trailing `len % 8` bytes below it — and
    /// finalise. Every digest in the crate comes from here: callers
    /// with a fixed-shape input (an address, an address and a port)
    /// build its words in registers, and [`SipHash24::hash`] packs a
    /// byte string into the same words.
    #[inline(always)]
    pub fn hash_words(&self, blocks: &[u64], last: u64) -> u64 {
        self.digest(blocks.iter().copied(), last)
    }

    /// The core over any word source, so a byte string is packed into
    /// words as it is compressed, with no buffer.
    #[inline(always)]
    fn digest(&self, blocks: impl Iterator<Item = u64>, last: u64) -> u64 {
        let mut v = [
            self.k0 ^ 0x736f6d6570736575,
            self.k1 ^ 0x646f72616e646f6d,
            self.k0 ^ 0x6c7967656e657261,
            self.k1 ^ 0x7465646279746573,
        ];
        for m in blocks {
            compress(&mut v, m);
        }
        compress(&mut v, last);
        v[2] ^= 0xff;
        sipround(&mut v);
        sipround(&mut v);
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    /// Hash a byte string to a 64-bit value: its little-endian 8-byte
    /// words, then the remaining bytes and the length as the final block.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let chunks = data.chunks_exact(8);
        let mut last = (data.len() as u64) << 56;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        let words = chunks.map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
        self.digest(words, last)
    }

    /// Hash a u64 (its 8 little-endian bytes).
    #[inline]
    pub fn hash_u64(&self, x: u64) -> u64 {
        self.hash_words(&[x], 8 << 56)
    }

    /// Derive a probe's stateless validation state from its destination,
    /// as ZMap does: one digest of the address's little-endian bytes (4
    /// for v4, 16 for v6) gives the TCP sequence number (its low 32
    /// bits) and the source port (its high 32 bits, mapped into the
    /// ephemeral range 32768–60999). Returns `(src_port, seq)`.
    #[inline]
    pub fn probe_validation<F: AddrFamily>(&self, daddr: F::Addr) -> (u16, u32) {
        let a = F::addr_to_u128(daddr);
        let h = if F::BITS == 32 {
            self.hash_words(&[], 4 << 56 | a as u64)
        } else {
            self.hash_words(&[a as u64, (a >> 64) as u64], 16 << 56)
        };
        let src_port = PROBE_PORT_BASE + ((h >> 32) % PROBE_PORT_SPAN) as u16;
        (src_port, h as u32)
    }
}

/// First source port of a probe ([`SipHash24::probe_validation`]).
const PROBE_PORT_BASE: u16 = 32768;
/// Width of the probe source-port range: ports 32768–60999, Linux's
/// default ephemeral range.
const PROBE_PORT_SPAN: u64 = 28232;

#[cfg(test)]
mod tests {
    use super::*;

    /// First 16 of the official SipHash-2-4 64-bit test vectors:
    /// key = 00 01 02 ... 0f, input = first n bytes of 00 01 02 ...
    const VECTORS: [u64; 16] = [
        0x726fdb47dd0e0e31,
        0x74f839c593dc67fd,
        0x0d6c8009d9a94f5a,
        0x85676696d7fb7e2d,
        0xcf2794e0277187b7,
        0x18765564cd99a68d,
        0xcbc9466e58fee3ce,
        0xab0200f58b01d137,
        0x93f5f5799a932462,
        0x9e0082df0ba9e4b0,
        0x7a5dbbc594ddb9f3,
        0xf4b32f46226bada7,
        0x751e8fbc860ee5fb,
        0x14ea5627c0843d90,
        0xf723ca908e7af2ee,
        0xa129ca6149be45e5,
    ];

    /// The official vectors' key, 00 01 02 ... 0f, as two LE words.
    fn vector_key() -> SipHash24 {
        SipHash24::new(0x0706050403020100, 0x0f0e0d0c0b0a0908)
    }

    #[test]
    fn official_vectors() {
        let hasher = vector_key();
        let input: Vec<u8> = (0..64).map(|i| i as u8).collect();
        for (n, want) in VECTORS.iter().enumerate() {
            let got = hasher.hash(&input[..n]);
            assert_eq!(got, *want, "vector {n} mismatch: {got:#x} != {want:#x}");
        }
    }

    #[test]
    fn hash_words_matches_official_vectors() {
        let hasher = vector_key();
        // input byte i is i, so word w holds bytes 8w..8w+8
        let word = |w: u64| (0..8).fold(0u64, |acc, i| acc | (8 * w + i) << (8 * i));
        for (n, want) in VECTORS.iter().enumerate() {
            let n = n as u64;
            let blocks: Vec<u64> = (0..n / 8).map(word).collect();
            let tail = (8 * (n / 8)..n).fold(0u64, |acc, b| acc | b << (8 * (b % 8)));
            let got = hasher.hash_words(&blocks, n << 56 | tail);
            assert_eq!(got, *want, "vector {n} mismatch: {got:#x} != {want:#x}");
        }
    }

    /// SipHash-2-4 fed one byte at a time, as the specification reads:
    /// an independent oracle for the word-packing in `hash`.
    fn bytewise(key: (u64, u64), data: &[u8]) -> u64 {
        let (k0, k1) = key;
        let mut v = [
            k0 ^ 0x736f6d6570736575,
            k1 ^ 0x646f72616e646f6d,
            k0 ^ 0x6c7967656e657261,
            k1 ^ 0x7465646279746573,
        ];
        let mut m = 0u64;
        for (i, &b) in data.iter().enumerate() {
            m |= u64::from(b) << (8 * (i % 8));
            if i % 8 == 7 {
                compress(&mut v, m);
                m = 0;
            }
        }
        compress(&mut v, m | (data.len() as u64) << 56);
        v[2] ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v);
        }
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    proptest::proptest! {
        #[test]
        fn hash_matches_bytewise_reference(
            key in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..41),
        ) {
            let h = SipHash24::new(key.0, key.1);
            proptest::prop_assert_eq!(h.hash(&data), bytewise(key, &data));
        }
    }

    #[test]
    fn probe_validation_hashes_the_address_bytes() {
        use tass_net::V6;
        let h = SipHash24::new(0xAA, 0xBB);
        let split = |d: u64| (32768 + ((d >> 32) % 28232) as u16, d as u32);
        for a in [0u128, 1, 0x2001_0db8 << 96 | 0x42, u128::MAX] {
            let want = split(h.hash(&a.to_le_bytes()));
            assert_eq!(h.probe_validation::<V6>(a), want, "{a:#x}");
        }
    }

    #[test]
    fn different_keys_different_hashes() {
        let a = SipHash24::new(1, 2);
        let b = SipHash24::new(1, 3);
        assert_ne!(a.hash(b"payload"), b.hash(b"payload"));
    }

    #[test]
    fn hash_u64_equals_bytes() {
        let h = SipHash24::new(7, 9);
        assert_eq!(h.hash_u64(0xDEADBEEF), h.hash(&0xDEADBEEFu64.to_le_bytes()));
    }

    #[test]
    fn probe_validation_stable_and_spread() {
        use tass_net::V4;
        let h = SipHash24::new(0xAA, 0xBB);
        let v1 = h.probe_validation::<V4>(0x0A000001);
        assert_eq!(
            v1,
            h.probe_validation::<V4>(0x0A000001),
            "must be deterministic"
        );
        // neighbouring addresses should not collide (sanity, not security)
        let collisions = (0u32..1000)
            .filter(|&i| h.probe_validation::<V4>(i).1 == h.probe_validation::<V4>(i + 1).1)
            .count();
        assert_eq!(collisions, 0);
        // every source port lies in the ephemeral range
        assert!((0u32..1000)
            .map(|i| h.probe_validation::<V4>(i).0)
            .all(|port| (32768..=60999).contains(&port)));
    }

    #[test]
    fn family_generic_validation_matches_v4() {
        use tass_net::{V4, V6};
        let h = SipHash24::new(0xAA, 0xBB);
        for a in [0u32, 1, 0x0A00_0001, u32::MAX] {
            // the sequence number is the low half of the 4-byte digest
            let digest = h.hash(&a.to_le_bytes());
            assert_eq!(h.probe_validation::<V4>(a).1, digest as u32);
        }
        // v6 hashes 16 bytes — a widened v4 address hashes differently
        assert_ne!(
            h.probe_validation::<V6>(1u128),
            h.probe_validation::<V4>(1u32)
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(vector_key().hash(b""), VECTORS[0]);
        assert_eq!(vector_key().hash_words(&[], 0), VECTORS[0]);
    }
}
