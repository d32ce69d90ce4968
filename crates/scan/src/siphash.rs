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

/// A SipHash-2-4 keyed hasher.
#[derive(Debug, Clone, Copy)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

#[inline]
fn rotl(x: u64, b: u32) -> u64 {
    x.rotate_left(b)
}

#[inline]
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

impl SipHash24 {
    /// Create a hasher from a 128-bit key given as two words
    /// (little-endian order, as in the reference implementation).
    pub fn new(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1 }
    }

    /// Create from 16 key bytes.
    pub fn from_key_bytes(key: &[u8; 16]) -> Self {
        let k0 = u64::from_le_bytes(key[0..8].try_into().expect("8 bytes"));
        let k1 = u64::from_le_bytes(key[8..16].try_into().expect("8 bytes"));
        SipHash24 { k0, k1 }
    }

    /// Hash a byte string to a 64-bit value.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut v = [
            self.k0 ^ 0x736f6d6570736575,
            self.k1 ^ 0x646f72616e646f6d,
            self.k0 ^ 0x6c7967656e657261,
            self.k1 ^ 0x7465646279746573,
        ];
        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            v[3] ^= m;
            sipround(&mut v);
            sipround(&mut v);
            v[0] ^= m;
        }
        // final block: remaining bytes + length in the top byte
        let rem = chunks.remainder();
        let mut last = (data.len() as u64) << 56;
        for (i, &b) in rem.iter().enumerate() {
            last |= u64::from(b) << (8 * i);
        }
        v[3] ^= last;
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^= last;
        v[2] ^= 0xff;
        sipround(&mut v);
        sipround(&mut v);
        sipround(&mut v);
        sipround(&mut v);
        v[0] ^ v[1] ^ v[2] ^ v[3]
    }

    /// Hash a u64 (little-endian bytes).
    pub fn hash_u64(&self, x: u64) -> u64 {
        self.hash(&x.to_le_bytes())
    }

    /// Derive a probe's stateless validation state from its destination,
    /// as ZMap does: one digest of the address's little-endian bytes (4
    /// for v4, 16 for v6) gives the TCP sequence number (its low 32
    /// bits) and the source port (its high 32 bits, mapped into the
    /// ephemeral range 32768–60999). Returns `(src_port, seq)`.
    #[inline]
    pub fn probe_validation<F: crate::wire::WireFamily>(&self, daddr: F::Addr) -> (u16, u32) {
        let h = self.hash(F::addr_bytes_le(daddr).as_ref());
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

    #[test]
    fn official_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let hasher = SipHash24::from_key_bytes(&key);
        let input: Vec<u8> = (0..64).map(|i| i as u8).collect();
        for (n, want) in VECTORS.iter().enumerate() {
            let got = hasher.hash(&input[..n]);
            assert_eq!(got, *want, "vector {n} mismatch: {got:#x} != {want:#x}");
        }
    }

    #[test]
    fn key_words_match_key_bytes() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let a = SipHash24::from_key_bytes(&key);
        let b = SipHash24::new(0x0706050403020100, 0x0f0e0d0c0b0a0908);
        assert_eq!(a.hash(b"hello"), b.hash(b"hello"));
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
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let hasher = SipHash24::from_key_bytes(&key);
        assert_eq!(hasher.hash(b""), VECTORS[0]);
    }
}
