//! The shared decode of one delivered frame.
//!
//! A multicast frame reaches every node on the LAN, and nearly every node
//! wants the same facts about it: its dissected layers and, for discovery
//! traffic, its mDNS or SSDP message. [`Network::deliver`] builds one
//! [`Delivery`] per frame and lends it to every listener through
//! [`Context::delivery`], so those facts are computed once per frame
//! instead of once per listener.
//!
//! [`Network::deliver`]: crate::Network
//! [`Context::delivery`]: crate::Context::delivery

use crate::stack::{self, Content, Dissected};
use iotlan_wire::{dns, ssdp};
use std::cell::OnceCell;

/// One frame on its way to its listeners, decoded at most once.
///
/// The layer dissection is computed when the delivery is built (one
/// `stack::dissect`, UDP/TCP checksums included). The application-layer
/// messages are parsed lazily: the first listener that asks for the DNS
/// (mDNS) or SSDP message pays for the parse, and every later listener
/// reads the cached result. Parsing is pure, so who pays first changes no
/// output.
pub struct Delivery<'f> {
    frame: &'f [u8],
    // Eager rather than a `OnceCell`: a cell holding a borrowed view would
    // make `Delivery` invariant in `'f`, and `Context` could then no longer
    // hand out a `&'a Delivery<'a>` that outlives its own `&mut` borrow.
    dissected: Option<Dissected<'f>>,
    dns: OnceCell<Option<dns::Message>>,
    ssdp: OnceCell<Option<ssdp::Message>>,
}

impl<'f> Delivery<'f> {
    /// Dissect `frame` for delivery.
    pub fn new(frame: &'f [u8]) -> Delivery<'f> {
        Delivery {
            frame,
            dissected: stack::dissect(frame),
            dns: OnceCell::new(),
            ssdp: OnceCell::new(),
        }
    }

    /// The delivered bytes, exactly as the listener's `on_frame` sees them.
    pub fn frame(&self) -> &'f [u8] {
        self.frame
    }

    /// The frame's layers, or `None` if any layer failed validation
    /// (listeners ignore malformed traffic).
    pub fn dissected(&self) -> Option<&Dissected<'f>> {
        self.dissected.as_ref()
    }

    /// The UDP payload (IPv4 or IPv6) of a frame that dissected as UDP.
    pub fn udp_payload(&self) -> Option<&'f [u8]> {
        match self.dissected.as_ref()?.content {
            Content::UdpV4 { payload, .. } | Content::UdpV6 { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The UDP payload parsed as a DNS message (mDNS on 5353, a stub
    /// resolver query on 53), or `None` if the frame is not UDP or the
    /// payload does not parse. Callers check the ports.
    pub fn dns(&self) -> Option<&dns::Message> {
        self.dns
            .get_or_init(|| self.decode(|payload| dns::Message::parse(payload).ok()))
            .as_ref()
    }

    /// The UDP payload parsed as an SSDP message, or `None` if the frame
    /// is not UDP or the payload does not parse. Callers check the ports.
    pub fn ssdp(&self) -> Option<&ssdp::Message> {
        self.ssdp
            .get_or_init(|| self.decode(|payload| ssdp::Message::parse(payload).ok()))
            .as_ref()
    }

    fn decode<T>(&self, parse: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
        let payload = self.udp_payload()?;
        iotlan_telemetry::counter!("netsim.delivery.decodes").incr();
        parse(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Endpoint;
    use iotlan_wire::ethernet::EthernetAddress;
    use std::net::Ipv4Addr;

    fn endpoint() -> Endpoint {
        Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: Ipv4Addr::new(192, 168, 10, 1),
        }
    }

    #[test]
    fn parses_dns_once_and_shares_the_result() {
        let query = dns::Message::mdns_query(&[("_hue._tcp.local", dns::RecordType::Ptr)]);
        let frame = stack::udp_multicast(
            endpoint(),
            dns::MDNS_GROUP_V4,
            dns::MDNS_PORT,
            dns::MDNS_PORT,
            &query.to_bytes(),
        );
        let delivery = Delivery::new(&frame);
        assert!(delivery.dissected().is_some());
        let first = delivery.dns().expect("a valid query parses");
        let second = delivery.dns().expect("cached");
        assert!(std::ptr::eq(first, second));
        assert_eq!(first.questions[0].name, "_hue._tcp.local");
        // Not SSDP, and a failed parse is cached as well.
        assert!(delivery.ssdp().is_none());
        assert!(delivery.ssdp().is_none());
    }

    #[test]
    fn malformed_frames_decode_to_nothing() {
        let mut frame = stack::udp_multicast(
            endpoint(),
            ssdp::SSDP_GROUP_V4,
            ssdp::SSDP_PORT,
            ssdp::SSDP_PORT,
            &ssdp::Message::msearch(ssdp::targets::ALL, 2).to_bytes(),
        );
        let last = frame.len() - 1;
        frame[last] ^= 0xff; // breaks the UDP checksum
        let delivery = Delivery::new(&frame);
        assert!(delivery.dissected().is_none());
        assert!(delivery.udp_payload().is_none());
        assert!(delivery.ssdp().is_none());
        assert!(delivery.dns().is_none());
    }
}
