//! Property tests for the wire codecs, in both families: arbitrary frame
//! specs round-trip, checksums self-verify, every single-bit corruption
//! of a frame is either detected by a checksum/structural check or
//! confined to unprotected bytes, truncation at every boundary fails
//! cleanly, frames of one family never parse as the other, and the
//! word-wide Internet checksum equals the RFC 1071 16-bit-word sum at
//! every length.
//!
//! The unprotected-byte sets differ by design, exactly as on real
//! networks: IPv4 leaves only the Ethernet MACs unchecksummed (the IP
//! header checksum covers TTL and friends), while IPv6 has no header
//! checksum at all — its traffic-class/flow-label bits and hop limit are
//! mutable in flight (routers decrement the hop limit without touching
//! any checksum), and only the pseudo-header (addresses, length, next
//! header) plus the TCP segment are protected.

use proptest::prelude::*;
use tass::net::V6;
use tass::scan::wire::{
    self, parse_frame, parse_frame_for, FrameBuf, FrameSpec, ETH_HDR_LEN, FRAME_LEN, FRAME_LEN_V6,
    IPV6_HDR_LEN,
};

fn arb_spec() -> impl Strategy<Value = FrameSpec> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        any::<u16>(),
        1u8..=255,
    )
        .prop_map(
            |(src_ip, dst_ip, src_port, dst_port, seq, ack, flags, window, ip_id, ttl)| FrameSpec {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                ip_id,
                ttl,
                ..FrameSpec::default()
            },
        )
}

fn arb_spec_v6() -> impl Strategy<Value = FrameSpec<V6>> {
    (
        any::<u128>(),
        any::<u128>(),
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        any::<u8>(),
        any::<u16>(),
        1u8..=255,
    )
        .prop_map(
            |(src_ip, dst_ip, src_port, dst_port, seq, ack, flags, window, ttl)| FrameSpec::<V6> {
                src_ip,
                dst_ip,
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                ttl,
                ..FrameSpec::default()
            },
        )
}

/// RFC 1071 as written: big-endian 16-bit words (an odd last byte padded
/// with zero), summed, folded to 16 bits and complemented.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum: u64 = data
        .chunks(2)
        .map(|pair| {
            u64::from(u16::from_be_bytes([
                pair[0],
                pair.get(1).copied().unwrap_or(0),
            ]))
        })
        .sum();
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[test]
fn checksum_equals_reference_on_fold_edges() {
    // all-zero strings sum to 0 (checksum 0xFFFF); all-0xFF strings sum
    // to multiples of 0xFFFF (checksum 0); the mixed patterns carry out
    // of every 16- and 32-bit lane
    let patterns: [&[u8]; 5] = [
        &[0x00],
        &[0xFF],
        &[0xFF, 0xFF, 0x00, 0x01],
        &[0x80, 0x00, 0x7F, 0xFF, 0xFF],
        &[0x00, 0x00, 0x00, 0x01, 0xFF, 0xFE],
    ];
    for pattern in patterns {
        let data: Vec<u8> = pattern.iter().copied().cycle().take(80).collect();
        for len in 0..=data.len() {
            assert_eq!(
                wire::internet_checksum(&data[..len]),
                reference_checksum(&data[..len]),
                "pattern {pattern:02X?}, length {len}"
            );
        }
    }
}

proptest! {
    #[test]
    fn prop_checksum_equals_16_bit_word_reference(
        data in proptest::collection::vec(any::<u8>(), 80..81),
    ) {
        // every length 0..=80, odd lengths included, as a prefix of one
        // random string per case
        for len in 0..=data.len() {
            prop_assert_eq!(
                wire::internet_checksum(&data[..len]),
                reference_checksum(&data[..len]),
                "length {}", len
            );
        }
    }

    #[test]
    fn prop_roundtrip(spec in arb_spec()) {
        let frame = FrameBuf::encode(&spec);
        prop_assert_eq!(frame.len(), FRAME_LEN);
        let parsed = parse_frame(&frame).expect("self-built frames parse");
        prop_assert_eq!(parsed.src_ip, spec.src_ip);
        prop_assert_eq!(parsed.dst_ip, spec.dst_ip);
        prop_assert_eq!(parsed.src_port, spec.src_port);
        prop_assert_eq!(parsed.dst_port, spec.dst_port);
        prop_assert_eq!(parsed.seq, spec.seq);
        prop_assert_eq!(parsed.ack, spec.ack);
        prop_assert_eq!(parsed.flags, spec.flags);
        prop_assert_eq!(parsed.window, spec.window);
        prop_assert_eq!(parsed.ttl, spec.ttl);
    }

    #[test]
    fn prop_v6_roundtrip(spec in arb_spec_v6()) {
        let frame = FrameBuf::encode(&spec);
        prop_assert_eq!(frame.len(), FRAME_LEN_V6);
        let parsed = parse_frame_for::<V6>(&frame).expect("self-built v6 frames parse");
        prop_assert_eq!(parsed.src_ip, spec.src_ip);
        prop_assert_eq!(parsed.dst_ip, spec.dst_ip);
        prop_assert_eq!(parsed.src_port, spec.src_port);
        prop_assert_eq!(parsed.dst_port, spec.dst_port);
        prop_assert_eq!(parsed.seq, spec.seq);
        prop_assert_eq!(parsed.ack, spec.ack);
        prop_assert_eq!(parsed.flags, spec.flags);
        prop_assert_eq!(parsed.window, spec.window);
        prop_assert_eq!(parsed.ttl, spec.ttl);
    }

    #[test]
    fn prop_checksums_self_verify(spec in arb_spec()) {
        let frame = FrameBuf::encode(&spec);
        let ip = &frame[ETH_HDR_LEN..ETH_HDR_LEN + 20];
        prop_assert_eq!(wire::internet_checksum(ip), 0);
        let tcp = &frame[ETH_HDR_LEN + 20..];
        prop_assert_eq!(wire::tcp_checksum(spec.src_ip, spec.dst_ip, tcp), 0);
    }

    #[test]
    fn prop_v6_checksum_self_verifies_over_pseudo_header(spec in arb_spec_v6()) {
        let frame = FrameBuf::encode(&spec);
        let tcp = &frame[ETH_HDR_LEN + IPV6_HDR_LEN..];
        prop_assert_eq!(wire::tcp_checksum_v6(spec.src_ip, spec.dst_ip, tcp), 0);
        // the pseudo-header binds the addresses: a different address pair
        // must not validate the same segment (checksum collisions aside,
        // flipping one bit of src changes one pseudo-header word)
        prop_assert_ne!(
            wire::tcp_checksum_v6(spec.src_ip ^ 1, spec.dst_ip, tcp),
            0
        );
    }

    #[test]
    fn prop_single_bit_corruption_detected_or_harmless(
        spec in arb_spec(),
        byte in 0usize..FRAME_LEN,
        bit in 0u8..8,
    ) {
        let frame = FrameBuf::encode(&spec);
        let mut bad = frame.to_vec();
        bad[byte] ^= 1 << bit;
        match parse_frame(&bad) {
            Err(_) => {} // detected — good
            Ok(parsed) => {
                // undetected flips may only live in unchecksummed bytes:
                // the Ethernet header (dst/src MAC — ethertype flips are
                // rejected as NotIpv4).
                prop_assert!(
                    byte < 12,
                    "undetected corruption outside the Ethernet MACs (byte {byte})"
                );
                // and the IP/TCP payload fields must be untouched
                prop_assert_eq!(parsed.src_ip, spec.src_ip);
                prop_assert_eq!(parsed.dst_ip, spec.dst_ip);
                prop_assert_eq!(parsed.seq, spec.seq);
            }
        }
    }

    #[test]
    fn prop_v6_single_bit_corruption_detected_or_harmless(
        spec in arb_spec_v6(),
        byte in 0usize..FRAME_LEN_V6,
        bit in 0u8..8,
    ) {
        let frame = FrameBuf::encode(&spec);
        let mut bad = frame.to_vec();
        bad[byte] ^= 1 << bit;
        match parse_frame_for::<V6>(&bad) {
            Err(_) => {} // detected — good
            Ok(parsed) => {
                // v6 has no header checksum; the unprotected bytes are the
                // Ethernet MACs (0..12), the traffic-class/flow-label bits
                // (14 low nibble, 15..18 — version flips are rejected),
                // and the hop limit (21). Addresses, length, and next
                // header are bound by structure or the pseudo-header.
                let harmless = byte < 12
                    || (14..18).contains(&byte)
                    || byte == ETH_HDR_LEN + 7; // hop limit
                prop_assert!(
                    harmless,
                    "undetected corruption in a protected byte ({byte})"
                );
                // the scanner-relevant fields must be untouched
                prop_assert_eq!(parsed.src_ip, spec.src_ip);
                prop_assert_eq!(parsed.dst_ip, spec.dst_ip);
                prop_assert_eq!(parsed.src_port, spec.src_port);
                prop_assert_eq!(parsed.dst_port, spec.dst_port);
                prop_assert_eq!(parsed.seq, spec.seq);
                prop_assert_eq!(parsed.ack, spec.ack);
                prop_assert_eq!(parsed.flags, spec.flags);
            }
        }
    }

    #[test]
    fn prop_truncation_never_panics(spec in arb_spec(), cut in 0usize..FRAME_LEN) {
        let frame = FrameBuf::encode(&spec);
        // any truncation parses to an error, never a panic
        prop_assert!(parse_frame(&frame[..cut]).is_err());
    }

    #[test]
    fn prop_v6_truncation_never_panics(spec in arb_spec_v6(), cut in 0usize..FRAME_LEN_V6) {
        let frame = FrameBuf::encode(&spec);
        prop_assert!(parse_frame_for::<V6>(&frame[..cut]).is_err());
    }

    #[test]
    fn prop_cross_family_parse_rejected(spec4 in arb_spec(), spec6 in arb_spec_v6()) {
        // a v4 frame never parses as v6 and vice versa, even padded or
        // truncated to the other family's length
        let f4 = FrameBuf::encode(&spec4);
        let f6 = FrameBuf::encode(&spec6);
        let mut f4_padded = f4.to_vec();
        f4_padded.resize(FRAME_LEN_V6, 0);
        prop_assert_eq!(
            parse_frame_for::<V6>(&f4_padded),
            Err(wire::WireError::NotIpv6)
        );
        prop_assert_eq!(parse_frame(&f6[..FRAME_LEN]), Err(wire::WireError::NotIpv4));
        prop_assert_eq!(parse_frame(&f6), Err(wire::WireError::NotIpv4));
        prop_assert!(parse_frame_for::<V6>(&f4).is_err());
    }
}
