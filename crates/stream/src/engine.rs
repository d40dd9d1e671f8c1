//! The single-pass streaming engine.
//!
//! `StreamEngine` consumes packets one at a time — either as decoded
//! frames (it implements [`iotlan_netsim::FrameSink`], so
//! `Capture::stream_into` / `Capture::drain_into` feed it directly) or as
//! raw pcap bytes in arbitrary chunks — and keeps two things:
//!
//! * The batch [`FlowTable`], with each flow's arrival times capped at
//!   [`EVENT_CAP`]. The report computes Fig. 1/4, Fig. 2 and App. D.1 from
//!   it with the functions the batch pipeline calls, so those outputs match
//!   the batch pipeline by construction. Packet and byte counts stay exact;
//!   only the App. D.1 input can be cut short, and
//!   [`StreamReport::periodicity_exact`] says whether it was.
//! * The Table 4 discovery→response correlator, the only implementation of
//!   Table 4. It matches every discovery frame against buffered responses
//!   and every response frame against buffered discoveries, so a pair is
//!   found whichever arrives first. Buffers are keyed by (device MAC,
//!   port), so a frame only visits events it could match. Capture record
//!   order can run behind stamps by a bounded skew (delayed sends are
//!   stamped ahead, at most ~30 s in the simulator), so events stay
//!   buffered for [`TABLE4_HORIZON_SECS`] behind the newest stamp.
//!
//! Each frame is dissected once, by [`FlowTable::add_frame`], which hands
//! the correlator the flow's index and the frame's key. State is
//! O(flows × [`EVENT_CAP`]) plus one horizon of Table 4 events: traffic
//! structure, not traffic length.

use iotlan_analysis::graph::{build_graph, DeviceGraph};
use iotlan_analysis::periodicity::{group_events, Group, GroupKey, PeriodicityReport};
use iotlan_analysis::prevalence::{passive_prevalence, Prevalence};
use iotlan_analysis::responses::{
    rows_from_records, CategoryResponseRow, DeviceRecord, EXCLUDED_PROTOCOLS, RESPONSE_WINDOW_SECS,
};
use iotlan_classify::flow::{Flow, FlowKey, FlowTable, Transport};
use iotlan_classify::rules::{classify_with_rules, paper_rules};
use iotlan_classify::Label;
use iotlan_devices::Catalog;
use iotlan_netsim::{Capture, FrameSink, SimTime, FRAME_OVERHEAD};
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::pcap::PcapStreamReader;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::size_of;
use std::net::Ipv4Addr;

/// Per-flow timestamp cap: below this the periodicity report is exact.
pub const EVENT_CAP: usize = 2048;

/// How long a Table 4 candidate event stays buffered behind the
/// high-water stamp. Must cover the 3 s response window plus the
/// simulator's maximum record-order/stamp skew (~30 s for delayed
/// sends); 64 s leaves a 2× margin.
pub const TABLE4_HORIZON_SECS: f64 = 64.0;

/// Buffers are pruned (and peak state re-measured) every this many packets.
const PRUNE_EVERY: u64 = 1024;

/// A flow's part in Table 4, fixed by its key and first frame. The
/// discovery and response roles hold the index of the flow's [`Bucket`],
/// so later frames reach it without a lookup.
#[derive(Clone, Copy)]
enum Role {
    None,
    /// Multicast/broadcast UDP from a catalog device.
    Discovery(usize),
    /// Unicast UDP towards a catalog device's IP.
    Response(usize),
}

/// A device MAC and one of its ports: discoveries sent from the port and
/// responses addressed to it can match.
type Port = (EthernetAddress, u16);

/// Table 4 events buffered under one [`Port`].
#[derive(Default)]
struct Bucket {
    /// Discoveries the device sent from the port: (time, flow index).
    discoveries: Vec<(f64, usize)>,
    /// Responses addressed to the port: (time, responder MAC).
    responses: Vec<(f64, EthernetAddress)>,
}

/// The online Table 4 correlator.
struct Correlator {
    device_macs: BTreeSet<EthernetAddress>,
    ip_to_mac: HashMap<Ipv4Addr, EthernetAddress>,
    /// Each flow's role, by flow index.
    roles: Vec<Role>,
    /// The bucket index of every port a role has named.
    ports: HashMap<Port, usize>,
    buckets: Vec<Bucket>,
    /// (discovery flow index, responder MAC) pairs found in the window.
    /// Labels, and so the excluded-protocol filter, wait for `records`.
    matches: BTreeSet<(usize, EthernetAddress)>,
}

/// The response came 0–3 s after the discovery (the batch f64 arithmetic).
fn in_window(discovery_secs: f64, response_secs: f64) -> bool {
    (0.0..=RESPONSE_WINDOW_SECS).contains(&(response_secs - discovery_secs))
}

impl Correlator {
    fn new(catalog: &Catalog) -> Correlator {
        let mut ip_to_mac = HashMap::new();
        for device in &catalog.devices {
            // First device wins on (hypothetical) duplicate IPs.
            ip_to_mac.entry(device.ip).or_insert(device.mac);
        }
        Correlator {
            device_macs: catalog.devices.iter().map(|d| d.mac).collect(),
            ip_to_mac,
            roles: Vec::new(),
            ports: HashMap::new(),
            buckets: Vec::new(),
            matches: BTreeSet::new(),
        }
    }

    fn bucket_of(&mut self, port: Port) -> usize {
        let buckets = &mut self.buckets;
        *self.ports.entry(port).or_insert_with(|| {
            buckets.push(Bucket::default());
            buckets.len() - 1
        })
    }

    fn role_of(&mut self, key: &FlowKey, first_dst_mac: EthernetAddress) -> Role {
        if !matches!(key.transport, Transport::Udp | Transport::UdpV6) {
            Role::None
        } else if first_dst_mac.is_multicast() {
            if self.device_macs.contains(&key.src_mac) {
                Role::Discovery(self.bucket_of((key.src_mac, key.src_port)))
            } else {
                Role::None
            }
        } else {
            match key.dst_ip.and_then(|ip| self.ip_to_mac.get(&ip)) {
                Some(&mac) => Role::Response(self.bucket_of((mac, key.dst_port))),
                None => Role::None,
            }
        }
    }

    /// One frame of flow `flow`; `dst_mac` is the frame's destination,
    /// which decides the role when the frame opens the flow. Neighbouring
    /// buffered events usually yield the same pair, so `last` skips the
    /// set insert for a repeat.
    fn on_frame(&mut self, secs: f64, flow: usize, key: &FlowKey, dst_mac: EthernetAddress) {
        if flow == self.roles.len() {
            let role = self.role_of(key, dst_mac);
            self.roles.push(role);
        }
        match self.roles[flow] {
            Role::Discovery(bucket) => {
                let bucket = &mut self.buckets[bucket];
                let mut last = None;
                for &(time, responder) in &bucket.responses {
                    if in_window(secs, time) && last != Some(responder) {
                        self.matches.insert((flow, responder));
                        last = Some(responder);
                    }
                }
                bucket.discoveries.push((secs, flow));
            }
            Role::Response(bucket) => {
                let bucket = &mut self.buckets[bucket];
                let mut last = None;
                for &(time, discovery) in &bucket.discoveries {
                    if in_window(time, secs) && last != Some(discovery) {
                        self.matches.insert((discovery, key.src_mac));
                        last = Some(discovery);
                    }
                }
                bucket.responses.push((secs, key.src_mac));
            }
            Role::None => {}
        }
    }

    /// Drop events older than `horizon` seconds.
    fn prune(&mut self, horizon: f64) {
        for bucket in &mut self.buckets {
            bucket.discoveries.retain(|&(time, _)| time >= horizon);
            bucket.responses.retain(|&(time, _)| time >= horizon);
        }
    }

    fn state_bytes(&self) -> usize {
        let events: usize = self
            .buckets
            .iter()
            .map(|bucket| {
                bucket.discoveries.len() * size_of::<(f64, usize)>()
                    + bucket.responses.len() * size_of::<(f64, EthernetAddress)>()
            })
            .sum();
        self.ports.len() * size_of::<(Port, usize)>()
            + self.buckets.len() * size_of::<Bucket>()
            + events
            + self.roles.len() * size_of::<Role>()
            + self.matches.len() * 32
    }

    /// Per-device Table 4 records, now that every flow's label is known.
    fn records(&self, flows: &[Flow], labels: &[Label]) -> BTreeMap<EthernetAddress, DeviceRecord> {
        let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
        for ((flow, role), label) in flows.iter().zip(&self.roles).zip(labels) {
            if matches!(role, Role::Discovery(_)) && !EXCLUDED_PROTOCOLS.contains(label) {
                records
                    .entry(flow.key.src_mac)
                    .or_default()
                    .discovery_protocols
                    .insert(label.to_string());
            }
        }
        for &(flow, responder) in &self.matches {
            let label = labels[flow];
            if EXCLUDED_PROTOCOLS.contains(&label) {
                continue;
            }
            let record = records.entry(flows[flow].key.src_mac).or_default();
            record.protocols_with_response.insert(label.to_string());
            record.responders.insert(responder);
        }
        records
    }
}

/// The single-pass engine. See the module docs for the design.
pub struct StreamEngine {
    table: FlowTable,
    table4: Correlator,
    max_stamp_secs: f64,

    reader: PcapStreamReader,
    pcap_bytes_pushed: u64,

    packets: u64,
    bytes: u64,
    streamed_bytes: u64,
    peak_state_bytes: usize,
}

impl StreamEngine {
    pub fn new(catalog: &Catalog) -> StreamEngine {
        StreamEngine {
            table: FlowTable::with_timestamp_cap(EVENT_CAP),
            table4: Correlator::new(catalog),
            max_stamp_secs: 0.0,
            reader: PcapStreamReader::new(),
            pcap_bytes_pushed: 0,
            packets: 0,
            bytes: 0,
            streamed_bytes: 0,
            peak_state_bytes: 0,
        }
    }

    /// Feed raw pcap file bytes; any chunking (down to one byte) yields
    /// identical results. Errors are the same the batch `read_pcap` would
    /// report, except that truncation is only diagnosed at [`finish`].
    ///
    /// [`finish`]: StreamEngine::finish
    pub fn push_pcap_chunk(&mut self, chunk: &[u8]) -> Result<(), iotlan_wire::Error> {
        self.pcap_bytes_pushed += chunk.len() as u64;
        self.reader.push(chunk);
        while let Some(packet) = self.reader.next_packet()? {
            let time = SimTime(u64::from(packet.ts_sec) * 1_000_000 + u64::from(packet.ts_usec));
            self.on_frame(time, &packet.data);
        }
        Ok(())
    }

    /// Packets consumed so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Current (not peak) resident state estimate in bytes.
    pub fn state_bytes(&self) -> usize {
        let flows: usize = self
            .table
            .flows
            .iter()
            .map(|flow| {
                // The flow, its index entry, and its heap buffers.
                size_of::<Flow>()
                    + size_of::<(FlowKey, usize)>()
                    + flow.payload_samples.iter().map(Vec::len).sum::<usize>()
                    + flow.timestamps.len() * size_of::<SimTime>()
            })
            .sum();
        flows + self.table4.state_bytes() + self.reader.buffered_bytes()
    }

    fn prune_and_measure(&mut self) {
        self.table4.prune(self.max_stamp_secs - TABLE4_HORIZON_SECS);
        self.peak_state_bytes = self.peak_state_bytes.max(self.state_bytes());
    }

    /// Finish the pass and build the report. Fails only when pcap bytes
    /// were pushed and the image was malformed or truncated mid-record.
    pub fn finish(mut self) -> Result<StreamReport, iotlan_wire::Error> {
        let _span = iotlan_telemetry::span!("stream.finish");
        if self.pcap_bytes_pushed > 0 {
            self.reader.finish()?;
        }
        self.prune_and_measure();
        iotlan_telemetry::counter!("stream.packets").add(self.packets);
        iotlan_telemetry::counter!("stream.flow_keys_created").add(self.table.len() as u64);

        let rules = paper_rules();
        let labels: Vec<Label> = self
            .table
            .flows
            .iter()
            .map(|flow| classify_with_rules(flow, &rules))
            .collect();
        Ok(StreamReport {
            packets: self.packets,
            bytes: self.bytes,
            streamed_bytes: self.streamed_bytes,
            peak_state_bytes: self.peak_state_bytes,
            records: self.table4.records(&self.table.flows, &labels),
            periodicity_groups: group_events(&self.table, &labels),
            periodicity_exact: self
                .table
                .flows
                .iter()
                .all(|flow| flow.timestamps.len() as u64 == flow.packets),
            table: self.table,
        })
    }
}

impl FrameSink for StreamEngine {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        self.packets += 1;
        self.bytes += data.len() as u64;
        self.streamed_bytes += (FRAME_OVERHEAD + data.len()) as u64;

        let secs = time.as_secs_f64();
        self.max_stamp_secs = self.max_stamp_secs.max(secs);
        if let Some((flow, evidence)) = self.table.add_frame(time, data) {
            self.table4
                .on_frame(secs, flow, &evidence.key, evidence.dst_mac);
        }
        if self.packets % PRUNE_EVERY == 0 {
            self.prune_and_measure();
        }
    }
}

/// The engine's output: the finished flow table and Table 4 records, with
/// accessors that render them through the batch analysis functions.
#[derive(Debug, Clone)]
pub struct StreamReport {
    pub packets: u64,
    pub bytes: u64,
    /// What an in-memory `Capture` of the same packets would occupy —
    /// the baseline for the bounded-memory claim.
    pub streamed_bytes: u64,
    /// Peak resident streaming state.
    pub peak_state_bytes: usize,
    /// The flow table, at most [`EVENT_CAP`] timestamps per flow.
    pub table: FlowTable,
    /// Table 4 evidence per discovering device.
    pub records: BTreeMap<EthernetAddress, DeviceRecord>,
    /// App. D.1 groups with their sorted event times, as
    /// `iotlan_analysis::periodicity::group_events` builds them.
    pub periodicity_groups: BTreeMap<GroupKey, Vec<f64>>,
    /// True when no flow's timestamp list hit [`EVENT_CAP`].
    pub periodicity_exact: bool,
}

impl StreamReport {
    /// The Fig. 1/4 device graph.
    pub fn graph(&self, catalog: &Catalog) -> DeviceGraph {
        build_graph(&self.table, catalog)
    }

    /// Fig. 2 passive prevalence.
    pub fn prevalence(&self, catalog: &Catalog) -> Prevalence {
        passive_prevalence(&self.table, catalog)
    }

    /// Table 4 rows.
    pub fn discovery_response_rows(&self, catalog: &Catalog) -> Vec<CategoryResponseRow> {
        rows_from_records(&self.records, catalog)
    }

    /// App. D.1 periodicity, identical to
    /// `iotlan_analysis::periodicity::analyze_periodicity` whenever
    /// [`periodicity_exact`](StreamReport::periodicity_exact) is true.
    pub fn periodicity(&self) -> PeriodicityReport {
        let groups = self
            .periodicity_groups
            .iter()
            .map(|(key, events)| Group::new(key.clone(), events.clone()))
            .collect();
        PeriodicityReport { groups }
    }

    /// Run manifest for a completed streaming pass: the bounded-memory
    /// claims (peak state vs. streamed bytes) and content digests of the
    /// rendered Fig. 1/2 artifacts. Everything in the deterministic section
    /// is a pure function of the input capture, so the manifest is
    /// byte-identical across thread counts.
    pub fn manifest(&self, catalog: &Catalog) -> iotlan_telemetry::Manifest {
        let mut manifest = iotlan_telemetry::Manifest::new("stream_pass");
        manifest.set("packets", self.packets);
        manifest.set("bytes", self.bytes);
        manifest.set("streamed_bytes", self.streamed_bytes);
        manifest.set("peak_state_bytes", self.peak_state_bytes);
        manifest.set("flow_keys", self.table.len());
        manifest.set("discovery_records", self.records.len());
        manifest.set("periodicity_groups", self.periodicity_groups.len());
        manifest.set("periodicity_exact", self.periodicity_exact);
        manifest.digest("graph.txt", self.graph(catalog).render().as_bytes());
        manifest.digest(
            "prevalence.txt",
            self.prevalence(catalog).render().as_bytes(),
        );
        manifest.attach_metrics();
        manifest.attach_host_info();
        manifest
    }
}

/// Stream one capture through a fresh engine.
pub fn stream_capture(capture: &Capture, catalog: &Catalog) -> StreamReport {
    let mut engine = StreamEngine::new(catalog);
    capture.stream_into(&mut engine);
    engine
        .finish()
        .expect("frame-fed engines cannot fail at finish")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_analysis::responses::render;
    use iotlan_devices::build_testbed;
    use iotlan_netsim::stack::{self, Endpoint};

    fn endpoint_of(catalog: &Catalog, name: &str) -> Endpoint {
        let d = catalog.find(name).unwrap();
        Endpoint {
            mac: d.mac,
            ip: d.ip,
        }
    }

    fn msearch_from(from: Endpoint) -> Vec<u8> {
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
        stack::udp_multicast(
            from,
            Ipv4Addr::new(239, 255, 255, 250),
            51234,
            1900,
            &msearch,
        )
    }

    fn ssdp_reply(from: Endpoint, to: Endpoint) -> Vec<u8> {
        let reply = iotlan_wire::ssdp::Message::response("upnp:rootdevice", "uuid-x", None, None)
            .to_bytes();
        stack::udp_unicast(from, to, 1900, 51234, &reply)
    }

    /// A small synthetic capture exercising every output: unicast UDP/TCP
    /// between devices (graph), mDNS multicast (prevalence + discovery), an
    /// SSDP M-SEARCH with a unicast reply (Table 4), and a periodic beacon.
    fn synthetic_capture(catalog: &Catalog) -> Capture {
        let nest = endpoint_of(catalog, "Google Nest Hub");
        let home = endpoint_of(catalog, "Google Home");
        let hue = endpoint_of(catalog, "Philips Hue Bridge");
        let mut frames: Vec<(SimTime, Vec<u8>)> = Vec::new();
        for i in 0..30u64 {
            frames.push((
                SimTime::from_secs(10 + i * 20),
                stack::udp_multicast(
                    nest,
                    Ipv4Addr::new(224, 0, 0, 251),
                    5353,
                    5353,
                    &iotlan_wire::dns::Message::mdns_query(&[(
                        "_googlecast._tcp.local",
                        iotlan_wire::dns::RecordType::Ptr,
                    )])
                    .to_bytes(),
                ),
            ));
        }
        frames.push((
            SimTime::from_secs(15),
            stack::udp_unicast(nest, home, 10001, 10002, b"cast-data"),
        ));
        frames.push((
            SimTime::from_secs(16),
            stack::tcp_segment(
                home,
                nest,
                &iotlan_wire::tcp::Repr::syn(40000, 8009, 1),
                &[],
            ),
        ));
        frames.push((SimTime::from_secs(50), msearch_from(nest)));
        frames.push((SimTime::from_secs(51), ssdp_reply(hue, nest)));
        frames.sort_by_key(|(time, _)| *time);
        Capture::from_frames(frames)
    }

    fn assert_equivalent(capture: &Capture, catalog: &Catalog, report: &StreamReport) {
        let table = FlowTable::from_capture(capture);
        let batch_graph = iotlan_analysis::graph::build_graph(&table, catalog);
        assert_eq!(report.graph(catalog).render(), batch_graph.render());
        let batch_prev = iotlan_analysis::prevalence::passive_prevalence(&table, catalog);
        assert_eq!(report.prevalence(catalog).render(), batch_prev.render());
        assert!(report.periodicity_exact);
        let stream_period = report.periodicity();
        let batch_period = iotlan_analysis::periodicity::analyze_periodicity(&table);
        assert_eq!(stream_period.groups.len(), batch_period.groups.len());
        for (s, b) in stream_period.groups.iter().zip(&batch_period.groups) {
            assert_eq!(s.key, b.key);
            assert_eq!(s.events, b.events);
            assert_eq!(s.periodic, b.periodic);
            assert_eq!(s.period_secs, b.period_secs);
        }
    }

    #[test]
    fn frame_fed_engine_matches_batch() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let report = stream_capture(&capture, &catalog);
        assert_eq!(report.packets, capture.frames().len() as u64);
        assert_equivalent(&capture, &catalog, &report);
        // The SSDP reply must have matched: Hue responded to the Nest Hub.
        let hub_mac = catalog.find("Google Nest Hub").unwrap().mac;
        let record = &report.records[&hub_mac];
        assert!(record.protocols_with_response.contains("SSDP"));
        assert_eq!(record.responders.len(), 1);
    }

    #[test]
    fn pcap_fed_engine_matches_at_any_chunk_size() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let image = capture.to_pcap();
        let whole = {
            let mut engine = StreamEngine::new(&catalog);
            engine.push_pcap_chunk(&image).unwrap();
            engine.finish().unwrap()
        };
        assert_equivalent(&capture, &catalog, &whole);
        for chunk_size in [1usize, 7, 4096] {
            let mut engine = StreamEngine::new(&catalog);
            for chunk in image.chunks(chunk_size) {
                engine.push_pcap_chunk(chunk).unwrap();
            }
            let report = engine.finish().unwrap();
            assert_eq!(report.packets, whole.packets);
            assert_eq!(report.records, whole.records);
            assert_equivalent(&capture, &catalog, &report);
        }
    }

    #[test]
    fn truncated_pcap_fails_at_finish_only() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let image = capture.to_pcap();
        let mut engine = StreamEngine::new(&catalog);
        engine.push_pcap_chunk(&image[..image.len() - 3]).unwrap();
        assert!(matches!(
            engine.finish(),
            Err(iotlan_wire::Error::Truncated)
        ));
    }

    #[test]
    fn peak_state_is_tracked_and_bounded() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let report = stream_capture(&capture, &catalog);
        assert!(report.peak_state_bytes > 0);
        assert!(report.streamed_bytes > 0);
    }

    #[test]
    fn timestamp_cap_clears_periodicity_exact() {
        let catalog = build_testbed();
        let nest = endpoint_of(&catalog, "Google Nest Hub");
        let home = endpoint_of(&catalog, "Google Home");
        let frames = (0..=EVENT_CAP as u64)
            .map(|i| {
                let frame = stack::udp_unicast(nest, home, 10001, 10002, b"x");
                (SimTime::from_secs(i), frame)
            })
            .collect();
        let report = stream_capture(&Capture::from_frames(frames), &catalog);
        assert!(!report.periodicity_exact);
        assert_eq!(report.table.flows[0].packets, EVENT_CAP as u64 + 1);
        assert_eq!(report.table.flows[0].timestamps.len(), EVENT_CAP);
    }

    #[test]
    fn msearch_with_reply_counts() {
        let catalog = build_testbed();
        let echo = endpoint_of(&catalog, "Amazon Echo Spot");
        let hue = endpoint_of(&catalog, "Philips Hue Bridge");
        // Hue responds unicast within 3 s to the same source port.
        let capture = Capture::from_frames(vec![
            (SimTime::from_secs(10), msearch_from(echo)),
            (SimTime::from_secs(11), ssdp_reply(hue, echo)),
        ]);
        let rows = stream_capture(&capture, &catalog).discovery_response_rows(&catalog);
        let echo_row = rows.iter().find(|r| r.category == "Amazon Echo").unwrap();
        assert_eq!(echo_row.devices, 1);
        assert!(echo_row.mean_discovery_protocols >= 1.0);
        assert!(echo_row.mean_protocols_with_response >= 1.0);
        assert!(echo_row.mean_devices_responded >= 1.0);
    }

    #[test]
    fn reply_recorded_before_its_discovery_counts() {
        let catalog = build_testbed();
        let echo = endpoint_of(&catalog, "Amazon Echo Spot");
        let hue = endpoint_of(&catalog, "Philips Hue Bridge");
        // Record order runs behind stamps: the reply is recorded first.
        let capture = Capture::from_frames(vec![
            (SimTime::from_secs(11), ssdp_reply(hue, echo)),
            (SimTime::from_secs(10), msearch_from(echo)),
        ]);
        let report = stream_capture(&capture, &catalog);
        let record = &report.records[&echo.mac];
        assert!(record.protocols_with_response.contains("SSDP"));
        assert!(record.responders.contains(&hue.mac));
    }

    #[test]
    fn late_reply_not_counted() {
        let catalog = build_testbed();
        let echo = endpoint_of(&catalog, "Amazon Echo Spot");
        let hue = endpoint_of(&catalog, "Philips Hue Bridge");
        // 10 seconds later: outside the window.
        let capture = Capture::from_frames(vec![
            (SimTime::from_secs(10), msearch_from(echo)),
            (SimTime::from_secs(20), ssdp_reply(hue, echo)),
        ]);
        let rows = stream_capture(&capture, &catalog).discovery_response_rows(&catalog);
        let echo_row = rows.iter().find(|r| r.category == "Amazon Echo").unwrap();
        assert_eq!(echo_row.mean_protocols_with_response, 0.0);
        assert!(render(&rows).contains("Amazon Echo"));
    }

    #[test]
    fn excluded_protocols_dont_create_rows() {
        let catalog = build_testbed();
        let echo = catalog.find("Amazon Echo Spot").unwrap();
        let echo_ep = Endpoint {
            mac: echo.mac,
            ip: echo.ip,
        };
        // Broadcast DHCP only: excluded protocol, so no Table 4 row.
        let discover = iotlan_wire::dhcpv4::Repr::discover(
            1,
            echo.mac,
            Some("amazon-xxxx".into()),
            None,
            vec![1, 3],
        );
        let capture = Capture::from_frames(vec![(
            SimTime::ZERO,
            stack::udp_broadcast(echo_ep, 68, 67, &discover.to_bytes()),
        )]);
        let rows = stream_capture(&capture, &catalog).discovery_response_rows(&catalog);
        assert!(rows.iter().all(|r| r.category != "Amazon Echo"));
    }
}
