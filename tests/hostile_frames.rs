//! Hostile frames on a live LAN, and the decode-once guarantee.
//!
//! Malformed discovery frames are injected through `Network::inject_frame`
//! into a running `LabConfig::fast()` lab, so every device model, the
//! router and the honeypot receive them through the shared frame decode:
//!
//! - a multicast mDNS query with a bad UDP checksum;
//! - a valid-checksum mDNS query whose DNS body is truncated;
//! - a valid-checksum mDNS query whose name is a compression pointer to
//!   itself;
//! - an SSDP `M-SEARCH ssdp:all` carrying a header flood.
//!
//! Nothing may panic and nothing may answer: with the injected frames
//! filtered out, the capture and the honeypot log match a twin lab that
//! never saw them (an answer would add frames, and any RNG draw would
//! shift every later frame). The `netsim.delivery.decodes` counter shows
//! that each delivered frame was parsed at most once, although each
//! multicast frame reaches every node.

use iotlan::netsim::stack::{self, Endpoint};
use iotlan::netsim::SimDuration;
use iotlan::telemetry;
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::wire::http::MAX_HEADERS;
use iotlan::wire::{dns, ssdp};
use iotlan::{Lab, LabConfig};
use std::net::Ipv4Addr;

const ATTACKER: Endpoint = Endpoint {
    mac: EthernetAddress([0x02, 0x66, 0x66, 0x00, 0x00, 0x01]),
    ip: Ipv4Addr::new(192, 168, 10, 250),
};

/// The service-enumeration query every mDNS advertiser answers.
fn services_query() -> Vec<u8> {
    dns::Message::mdns_query(&[("_services._dns-sd._udp.local", dns::RecordType::Ptr)]).to_bytes()
}

fn mdns_frame(payload: &[u8]) -> Vec<u8> {
    stack::udp_multicast(
        ATTACKER,
        dns::MDNS_GROUP_V4,
        dns::MDNS_PORT,
        dns::MDNS_PORT,
        payload,
    )
}

fn hostile_frames() -> Vec<Vec<u8>> {
    // Bad UDP checksum: offset 14 (Ethernet) + 20 (IPv4) + 6.
    let mut bad_checksum = mdns_frame(&services_query());
    bad_checksum[40] ^= 0x5a;
    bad_checksum[41] ^= 0xa5;
    assert!(stack::dissect(&bad_checksum).is_none());

    // Header claims one question; the name stops mid-label.
    let query = services_query();
    let truncated = mdns_frame(&query[..12 + 5]);

    // One question whose name points at itself (offset 12).
    let mut looped = vec![0u8; 12];
    looped[5] = 1; // qdcount
    looped.extend_from_slice(&[0xc0, 0x0c, 0x00, 0x0c, 0x00, 0x01]);
    let looped = mdns_frame(&looped);

    let mut flood = String::from(
        "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nMAN: \"ssdp:discover\"\r\nMX: 1\r\nST: ssdp:all\r\n",
    );
    for i in 0..4 * MAX_HEADERS {
        flood.push_str(&format!("X-Flood-{i}: x\r\n"));
    }
    flood.push_str("\r\n");
    let flood = stack::udp_multicast(
        ATTACKER,
        ssdp::SSDP_GROUP_V4,
        ssdp::SSDP_PORT,
        ssdp::SSDP_PORT,
        flood.as_bytes(),
    );

    for frame in [&truncated, &looped, &flood] {
        assert!(
            stack::dissect(frame).is_some(),
            "only the app layer is hostile"
        );
    }
    vec![bad_checksum, truncated, looped, flood]
}

/// Run a fast lab for a minute, injecting `hostile` halfway; return its
/// capture as `(micros, bytes)` without the attacker's frames, and the
/// honeypot's interaction count.
fn run(hostile: &[Vec<u8>]) -> (Vec<(u64, Vec<u8>)>, usize) {
    let mut lab = Lab::new(LabConfig::fast());
    lab.network.run_for(SimDuration::from_secs(30));
    for frame in hostile {
        lab.network.inject_frame(frame.clone());
    }
    lab.network.run_for(SimDuration::from_secs(30));
    let frames = lab
        .network
        .capture
        .frames()
        .filter(|f| f.src_mac() != ATTACKER.mac)
        .map(|f| (f.time.as_micros(), f.data().to_vec()))
        .collect();
    let interactions = lab
        .honeypot()
        .expect("fast lab has a honeypot")
        .interactions
        .len();
    (frames, interactions)
}

#[test]
fn hostile_discovery_frames_are_ignored_and_decoded_once() {
    let _guard = telemetry::test_guard();
    let benign = run(&[]);

    telemetry::reset_all();
    let hostile = run(&hostile_frames());
    let decodes = telemetry::metrics::counter("netsim.delivery.decodes").get();
    let frames = telemetry::metrics::counter("netsim.delivery.frames").get();
    let deliveries = telemetry::metrics::counter("netsim.frames_delivered").get();

    assert_eq!(
        hostile.0.len(),
        benign.0.len(),
        "a node answered a malformed frame"
    );
    assert!(
        hostile.0 == benign.0,
        "malformed frames changed benign traffic"
    );
    assert_eq!(hostile.1, benign.1, "the honeypot logged a malformed frame");

    // The counters saw the run: multicast fanout dwarfs the frame count,
    // yet no frame was decoded more than once.
    assert!(frames > 0 && deliveries > 10 * frames);
    assert!(decodes > 0);
    assert!(
        decodes <= frames,
        "{decodes} app-layer decodes for {frames} delivered frames"
    );
}
