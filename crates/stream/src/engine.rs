//! The single-pass streaming engine.
//!
//! `StreamEngine` consumes packets one at a time — either as decoded
//! frames (it implements [`iotlan_netsim::FrameSink`], so
//! `Capture::stream_into` / `Capture::drain_into` feed it directly) or as
//! raw pcap bytes in arbitrary chunks — and produces a [`StreamReport`]
//! whose figure/table outputs are byte-identical to the batch pipeline's
//! on the same input.
//!
//! ## Why byte-identity is achievable in one bounded pass
//!
//! Every batch analysis over a `FlowTable` turns out to depend on a
//! *per-key digest*, not on the full packet list (the one exception,
//! periodicity, is exact below a cap — see below):
//!
//! * A flow's classification label depends only on its key (transport,
//!   ports, source MAC) and its **first non-empty payload** — both
//!   available the moment they stream past, and immutable afterwards.
//! * The Fig. 1/4 graph qualifies flows by key + the **first frame's
//!   destination MAC** and then sums packets/bytes — additive, so it can
//!   be updated per packet.
//! * Fig. 2 prevalence is a per-device *set* of labels — determined by
//!   which keys exist, not how many packets each carried.
//! * Table 4 matches discovery and response *timestamps* within a 3 s
//!   window. Capture record order can run behind stamps by a bounded skew
//!   (delayed sends are stamped ahead, at most ~30 s in the simulator),
//!   so a pair of horizon-pruned buffers ([`TABLE4_HORIZON_SECS`]) sees
//!   every pair that the batch cross-join sees.
//! * App. D.1 periodicity sorts each group's event times before testing,
//!   so only the per-group time *multiset* matters. The engine caps
//!   per-key event lists at [`EVENT_CAP`]; below the cap the multiset is
//!   complete and the report is exact ([`StreamReport::periodicity_exact`]
//!   says so), above it the report degrades gracefully to a prefix sample.
//!
//! The residual per-key state (`KeyState`) is O(flow-key cardinality) —
//! traffic structure, not traffic length.

use crate::flowtab::{FlowRecord, FlowRecordSink, StreamFlowTable};
use crate::sketch::{CountMin, Distinct};
use iotlan_analysis::graph::{DeviceGraph, Edge, EdgeKind};
use iotlan_analysis::periodicity::{destination_bucket_of, Group, GroupKey, PeriodicityReport};
use iotlan_analysis::prevalence::{prevalence_from_observations, Prevalence};
use iotlan_analysis::responses::{
    rows_from_records, CategoryResponseRow, DeviceRecord, EXCLUDED_PROTOCOLS,
    RESPONSE_WINDOW_SECS,
};
use iotlan_classify::flow::{dissect_frame, Flow, FlowKey, FrameEvidence, Transport};
use iotlan_classify::rules::{classify_with_rules, paper_rules, Rule};
use iotlan_devices::Catalog;
use iotlan_netsim::{Capture, FrameSink, SimDuration, SimTime, FRAME_OVERHEAD};
use iotlan_util::pool;
use iotlan_wire::ethernet::EthernetAddress;
use iotlan_wire::pcap::PcapStreamReader;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;

/// Per-key packet-time cap: below this the periodicity report is exact.
pub const EVENT_CAP: usize = 2048;

/// How long a Table 4 candidate event stays buffered behind the
/// high-water stamp. Must cover the 3 s response window plus the
/// simulator's maximum record-order/stamp skew (~30 s for delayed
/// sends); 64 s leaves a 2× margin.
pub const TABLE4_HORIZON_SECS: f64 = 64.0;

/// Buffers are pruned (and peak state re-measured) every this many packets.
const PRUNE_EVERY: u64 = 1024;

/// Completed flow records queue at most this many entries before the
/// oldest are dropped (callers that want the record stream must drain).
const RECORD_QUEUE_CAP: usize = 4096;

/// Sticky per-flow-key state. Never evicted: analyses' byte-identity
/// depends on key digests surviving to `finish`, and key cardinality —
/// unlike packet count — is bounded by the traffic's structure.
struct KeyState {
    /// Insertion-order id, the compact handle Table 4 match sets use.
    id: u32,
    /// Destination MAC of the key's first frame (multicast detection).
    dst_mac: EthernetAddress,
    /// First non-empty payload — the classifier's only payload evidence.
    first_payload: Option<Vec<u8>>,
    packets: u64,
    bytes: u64,
    /// Packet times (seconds), capped at [`EVENT_CAP`].
    events: Vec<f64>,
    events_truncated: bool,
    /// Pre-resolved graph contribution: (sorted name pair, is_tcp).
    graph_pair: Option<((String, String), bool)>,
    /// Pre-resolved Table 4 role.
    table4: Table4Role,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Table4Role {
    None,
    /// Multicast/broadcast UDP from a catalog device.
    Discovery,
    /// Unicast UDP towards a catalog device's IP (the device's MAC).
    Response(EthernetAddress),
}

/// Cumulative transport mix + volume for one device pair; resolves to a
/// batch [`Edge`] at report time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeAccum {
    pub has_tcp: bool,
    pub has_udp: bool,
    pub packets: u64,
    pub bytes: u64,
}

struct DiscEvent {
    time: f64,
    key_id: u32,
    device: EthernetAddress,
    src_port: u16,
}

struct RespEvent {
    time: f64,
    device: EthernetAddress,
    dst_port: u16,
    responder: EthernetAddress,
}

/// Bounded queue of completed flow records (the flow-table sink).
struct RecordQueue {
    records: VecDeque<FlowRecord>,
    dropped: u64,
}

impl FlowRecordSink for RecordQueue {
    fn on_flow(&mut self, record: FlowRecord) {
        if self.records.len() >= RECORD_QUEUE_CAP {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(record);
    }
}

/// The single-pass engine. See the module docs for the design.
pub struct StreamEngine {
    rules: Vec<Rule>,
    device_macs: BTreeSet<EthernetAddress>,
    ip_names: HashMap<Ipv4Addr, String>,
    ip_to_mac: HashMap<Ipv4Addr, EthernetAddress>,

    keys: HashMap<FlowKey, KeyState>,
    key_order: Vec<FlowKey>,

    edges: BTreeMap<(String, String), EdgeAccum>,

    disc_buffer: Vec<DiscEvent>,
    resp_buffer: Vec<RespEvent>,
    /// (discovery key id, responder MAC) — label-independent, resolved
    /// (and excluded-protocol-filtered) at finish.
    matches: BTreeSet<(u32, EthernetAddress)>,
    max_stamp_secs: f64,

    flowtab: StreamFlowTable,
    record_queue: RecordQueue,

    port_packets: CountMin,
    peer_pairs: Distinct,

    reader: PcapStreamReader,
    pcap_bytes_pushed: u64,

    packets: u64,
    bytes: u64,
    streamed_bytes: u64,
    peak_state_bytes: usize,
}

impl StreamEngine {
    pub fn new(catalog: &Catalog) -> StreamEngine {
        let mut ip_to_mac = HashMap::new();
        for device in &catalog.devices {
            // First device wins on (hypothetical) duplicate IPs, matching
            // the batch pass's `.find()`.
            ip_to_mac.entry(device.ip).or_insert(device.mac);
        }
        StreamEngine {
            rules: paper_rules(),
            device_macs: catalog.devices.iter().map(|d| d.mac).collect(),
            ip_names: catalog.ip_map(),
            ip_to_mac,
            keys: HashMap::new(),
            key_order: Vec::new(),
            edges: BTreeMap::new(),
            disc_buffer: Vec::new(),
            resp_buffer: Vec::new(),
            matches: BTreeSet::new(),
            max_stamp_secs: 0.0,
            flowtab: StreamFlowTable::new(4096, SimDuration::from_secs(300)),
            record_queue: RecordQueue {
                records: VecDeque::new(),
                dropped: 0,
            },
            port_packets: CountMin::new(1024, 4, 0x10_7a11),
            peer_pairs: Distinct::new(512, 0x10_7a12),
            reader: PcapStreamReader::new(),
            pcap_bytes_pushed: 0,
            packets: 0,
            bytes: 0,
            streamed_bytes: 0,
            peak_state_bytes: 0,
        }
    }

    /// Replace the bounded flow table (capacity / idle timeout / record
    /// timestamp cap) used for the completed-flow record stream.
    pub fn with_flow_table(mut self, flowtab: StreamFlowTable) -> StreamEngine {
        self.flowtab = flowtab;
        self
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
            let time = SimTime(
                u64::from(packet.ts_sec) * 1_000_000 + u64::from(packet.ts_usec),
            );
            self.on_frame(time, &packet.data);
        }
        Ok(())
    }

    /// Completed flow records retired so far (drains the internal queue).
    pub fn drain_completed_flows(&mut self) -> Vec<FlowRecord> {
        self.record_queue.records.drain(..).collect()
    }

    /// Packets consumed so far.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Current (not peak) resident state estimate in bytes.
    pub fn state_bytes(&self) -> usize {
        let mut total = 0usize;
        for (key, state) in &self.keys {
            let _ = key;
            total += std::mem::size_of::<FlowKey>() + std::mem::size_of::<KeyState>();
            total += state.first_payload.as_ref().map_or(0, |p| p.len());
            total += state.events.len() * 8;
            if let Some(((a, b), _)) = &state.graph_pair {
                total += a.len() + b.len();
            }
        }
        total += self.key_order.len() * std::mem::size_of::<FlowKey>();
        total += self.disc_buffer.len() * std::mem::size_of::<DiscEvent>();
        total += self.resp_buffer.len() * std::mem::size_of::<RespEvent>();
        total += self.matches.len() * 32;
        for ((a, b), _) in &self.edges {
            total += a.len() + b.len() + std::mem::size_of::<EdgeAccum>() + 48;
        }
        total += self.port_packets.state_bytes() + self.peer_pairs.state_bytes();
        total += self.flowtab.state_bytes();
        total += self
            .record_queue
            .records
            .iter()
            .map(|r| std::mem::size_of::<FlowRecord>() + r.timestamps.len() * 8)
            .sum::<usize>();
        total += self.reader.buffered_bytes();
        total
    }

    fn prune_and_measure(&mut self) {
        let horizon = self.max_stamp_secs - TABLE4_HORIZON_SECS;
        self.disc_buffer.retain(|e| e.time >= horizon);
        self.resp_buffer.retain(|e| e.time >= horizon);
        let state = self.state_bytes();
        if state > self.peak_state_bytes {
            self.peak_state_bytes = state;
        }
    }

    /// Finish the pass and build the report. Fails only when pcap bytes
    /// were pushed and the image was malformed or truncated mid-record.
    pub fn finish(mut self) -> Result<StreamReport, iotlan_wire::Error> {
        let _span = iotlan_telemetry::span!("stream.finish");
        if self.pcap_bytes_pushed > 0 {
            self.reader.finish()?;
        }
        self.prune_and_measure();

        // Resolve every key's label once, with exactly the evidence the
        // batch classifier would see on the assembled flow.
        let mut labels: Vec<&'static str> = Vec::with_capacity(self.key_order.len());
        let mut protocol_packets = CountMin::new(1024, 4, 0x10_7a13);
        for key in &self.key_order {
            let state = &self.keys[key];
            let synthetic = Flow {
                key: *key,
                packets: state.packets,
                bytes: state.bytes,
                first_seen: SimTime::ZERO,
                last_seen: SimTime::ZERO,
                dst_mac: state.dst_mac,
                payload_samples: state.first_payload.iter().cloned().collect(),
                timestamps: Vec::new(),
            };
            let label = classify_with_rules(&synthetic, &self.rules);
            protocol_packets.insert_weighted(label.as_bytes(), state.packets);
            labels.push(label);
        }

        // Fig. 2: per-device observed-protocol sets.
        let mut observations: BTreeMap<EthernetAddress, BTreeSet<String>> = BTreeMap::new();
        for (key, label) in self.key_order.iter().zip(&labels) {
            if !self.device_macs.contains(&key.src_mac) {
                continue;
            }
            let set = observations.entry(key.src_mac).or_default();
            set.insert((*label).to_string());
            if key.src_ip.is_some() {
                set.insert("IPv4".into());
            }
        }

        // Table 4: discovery sets + match resolution, now that labels and
        // therefore the excluded-protocol filter are known.
        let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
        for (key, label) in self.key_order.iter().zip(&labels) {
            let state = &self.keys[key];
            if state.table4 == Table4Role::Discovery && !EXCLUDED_PROTOCOLS.contains(label) {
                records
                    .entry(key.src_mac)
                    .or_default()
                    .discovery_protocols
                    .insert((*label).to_string());
            }
        }
        for &(key_id, responder) in &self.matches {
            let key = &self.key_order[key_id as usize];
            let label = labels[key_id as usize];
            if EXCLUDED_PROTOCOLS.contains(&label) {
                continue;
            }
            let record = records.entry(key.src_mac).or_default();
            record.protocols_with_response.insert(label.to_string());
            record.responders.insert(responder);
        }

        // App. D.1: assemble (source, destination, protocol) groups from
        // the per-key event lists; sorting makes arrival order irrelevant.
        let mut periodicity_groups: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
        let mut periodicity_exact = true;
        for (key, label) in self.key_order.iter().zip(&labels) {
            let state = &self.keys[key];
            periodicity_exact &= !state.events_truncated;
            let group_key = GroupKey {
                src_mac: key.src_mac,
                destination: destination_bucket_of(state.dst_mac, key.dst_ip),
                protocol: (*label).to_string(),
            };
            periodicity_groups
                .entry(group_key)
                .or_default()
                .extend_from_slice(&state.events);
        }
        for events in periodicity_groups.values_mut() {
            events.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }

        let flows_retired = self.flowtab.retired();
        let mut queue = RecordQueue {
            records: std::mem::take(&mut self.record_queue.records),
            dropped: self.record_queue.dropped,
        };
        self.flowtab.finish(&mut queue);

        Ok(StreamReport {
            packets: self.packets,
            bytes: self.bytes,
            streamed_bytes: self.streamed_bytes,
            peak_state_bytes: self.peak_state_bytes,
            flow_keys: self.key_order.len(),
            edges: self.edges,
            observations,
            records,
            periodicity_groups,
            periodicity_exact,
            port_packets: self.port_packets,
            protocol_packets,
            peer_pairs: self.peer_pairs,
            flows_retired,
            records_dropped: queue.dropped,
            final_records: queue.records.into_iter().collect(),
        })
    }
}

impl FrameSink for StreamEngine {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        iotlan_telemetry::counter!("stream.packets").incr();
        self.packets += 1;
        self.bytes += data.len() as u64;
        self.streamed_bytes += (FRAME_OVERHEAD + data.len()) as u64;

        let secs = time.as_secs_f64();
        if secs > self.max_stamp_secs {
            self.max_stamp_secs = secs;
        }

        // Flow-record stream (bounded table, independent of the sticky
        // analysis state).
        self.flowtab.add_frame(time, data, &mut self.record_queue);

        let Some(FrameEvidence {
            key,
            dst_mac,
            payload,
        }) = dissect_frame(data)
        else {
            return;
        };

        // Sketches: per-packet, key-independent.
        self.port_packets.insert(&key.dst_port.to_le_bytes());
        let mut pair = [0u8; 12];
        pair[..6].copy_from_slice(&key.src_mac.0);
        pair[6..].copy_from_slice(&dst_mac.0);
        self.peer_pairs.insert(&pair);
        iotlan_telemetry::counter!("stream.sketch_updates").add(2);

        // Sticky per-key state.
        let is_new = !self.keys.contains_key(&key);
        if is_new {
            iotlan_telemetry::counter!("stream.flow_keys_created").incr();
            let multicast = dst_mac.is_multicast();
            let is_udp = matches!(key.transport, Transport::Udp | Transport::UdpV6);
            let graph_pair = if matches!(key.transport, Transport::Tcp | Transport::Udp)
                && !multicast
            {
                match (key.src_ip, key.dst_ip) {
                    (Some(src_ip), Some(dst_ip)) => {
                        match (self.ip_names.get(&src_ip), self.ip_names.get(&dst_ip)) {
                            (Some(src), Some(dst)) if src != dst => {
                                let pair = if src < dst {
                                    (src.clone(), dst.clone())
                                } else {
                                    (dst.clone(), src.clone())
                                };
                                Some((pair, key.transport == Transport::Tcp))
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                }
            } else {
                None
            };
            let table4 = if is_udp && multicast && self.device_macs.contains(&key.src_mac) {
                Table4Role::Discovery
            } else if is_udp && !multicast {
                match key.dst_ip.and_then(|ip| self.ip_to_mac.get(&ip)) {
                    Some(&mac) => Table4Role::Response(mac),
                    None => Table4Role::None,
                }
            } else {
                Table4Role::None
            };
            let id = self.key_order.len() as u32;
            self.key_order.push(key);
            self.keys.insert(
                key,
                KeyState {
                    id,
                    dst_mac,
                    first_payload: None,
                    packets: 0,
                    bytes: 0,
                    events: Vec::new(),
                    events_truncated: false,
                    graph_pair,
                    table4,
                },
            );
        }
        let state = self.keys.get_mut(&key).expect("key just ensured");
        state.packets += 1;
        state.bytes += data.len() as u64;
        if state.events.len() < EVENT_CAP {
            state.events.push(secs);
        } else {
            state.events_truncated = true;
        }
        if state.first_payload.is_none() {
            if let Some(p) = payload {
                if !p.is_empty() {
                    state.first_payload = Some(p.to_vec());
                }
            }
        }

        // Fig. 1/4 graph: additive per-packet update.
        if let Some(((a, b), is_tcp)) = &state.graph_pair {
            let accum = self
                .edges
                .entry((a.clone(), b.clone()))
                .or_default();
            accum.packets += 1;
            accum.bytes += data.len() as u64;
            if *is_tcp {
                accum.has_tcp = true;
            } else {
                accum.has_udp = true;
            }
        }

        // Table 4: event buffers + bidirectional window matching. The
        // window test reproduces the batch f64 arithmetic bit-for-bit:
        // delta = response_secs - discovery_secs ∈ [0, 3].
        match state.table4 {
            Table4Role::Discovery => {
                let key_id = state.id;
                for resp in &self.resp_buffer {
                    if resp.device != key.src_mac || resp.dst_port != key.src_port {
                        continue;
                    }
                    let delta = resp.time - secs;
                    if (0.0..=RESPONSE_WINDOW_SECS).contains(&delta) {
                        self.matches.insert((key_id, resp.responder));
                    }
                }
                self.disc_buffer.push(DiscEvent {
                    time: secs,
                    key_id,
                    device: key.src_mac,
                    src_port: key.src_port,
                });
            }
            Table4Role::Response(device_mac) => {
                for disc in &self.disc_buffer {
                    if disc.device != device_mac || disc.src_port != key.dst_port {
                        continue;
                    }
                    let delta = secs - disc.time;
                    if (0.0..=RESPONSE_WINDOW_SECS).contains(&delta) {
                        self.matches.insert((disc.key_id, key.src_mac));
                    }
                }
                self.resp_buffer.push(RespEvent {
                    time: secs,
                    device: device_mac,
                    dst_port: key.dst_port,
                    responder: key.src_mac,
                });
            }
            Table4Role::None => {}
        }

        if self.packets % PRUNE_EVERY == 0 {
            self.prune_and_measure();
        }
    }
}

/// The engine's output: mergeable raw accumulators plus accessors that
/// render them through the *batch* analysis code paths.
#[derive(Debug, Clone)]
pub struct StreamReport {
    pub packets: u64,
    pub bytes: u64,
    /// What an in-memory `Capture` of the same packets would occupy —
    /// the baseline for the bounded-memory claim.
    pub streamed_bytes: u64,
    /// Peak resident streaming state (max across merged shards).
    pub peak_state_bytes: usize,
    /// Distinct flow keys observed.
    pub flow_keys: usize,
    pub edges: BTreeMap<(String, String), EdgeAccum>,
    pub observations: BTreeMap<EthernetAddress, BTreeSet<String>>,
    pub records: BTreeMap<EthernetAddress, DeviceRecord>,
    pub periodicity_groups: BTreeMap<GroupKey, Vec<f64>>,
    /// True when no per-key event list hit [`EVENT_CAP`].
    pub periodicity_exact: bool,
    pub port_packets: CountMin,
    pub protocol_packets: CountMin,
    pub peer_pairs: Distinct,
    /// Flow records retired by eviction during the pass.
    pub flows_retired: u64,
    /// Records dropped because nobody drained the queue.
    pub records_dropped: u64,
    /// Records still live at finish (undrained tail of the record stream).
    pub final_records: Vec<FlowRecord>,
}

impl StreamReport {
    /// The Fig. 1/4 device graph, identical to
    /// `iotlan_analysis::graph::build_graph` on the batch flow table.
    pub fn graph(&self, catalog: &Catalog) -> DeviceGraph {
        let mut graph = DeviceGraph {
            nodes: catalog.devices.iter().map(|d| d.name.clone()).collect(),
            ..Default::default()
        };
        for (pair, accum) in &self.edges {
            let kind = match (accum.has_tcp, accum.has_udp) {
                (true, true) => EdgeKind::Both,
                (true, false) => EdgeKind::Tcp,
                _ => EdgeKind::Udp,
            };
            graph.edges.insert(
                pair.clone(),
                Edge {
                    kind,
                    packets: accum.packets,
                    bytes: accum.bytes,
                },
            );
        }
        graph
    }

    /// Fig. 2 passive prevalence, identical to
    /// `iotlan_analysis::prevalence::passive_prevalence`.
    pub fn prevalence(&self, catalog: &Catalog) -> Prevalence {
        prevalence_from_observations(&self.observations, catalog)
    }

    /// Table 4 rows, identical to
    /// `iotlan_analysis::responses::discovery_responses`.
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
    /// claims (peak state vs. streamed bytes), flow-table pressure, and
    /// content digests of the rendered Fig. 1/2 artifacts. Everything in
    /// the deterministic section is a pure function of the input capture,
    /// so the manifest is byte-identical across thread counts.
    pub fn manifest(&self, catalog: &Catalog) -> iotlan_telemetry::Manifest {
        let mut manifest = iotlan_telemetry::Manifest::new("stream_pass");
        manifest.set("packets", self.packets);
        manifest.set("bytes", self.bytes);
        manifest.set("streamed_bytes", self.streamed_bytes);
        manifest.set("peak_state_bytes", self.peak_state_bytes);
        manifest.set("flow_keys", self.flow_keys);
        manifest.set("edges", self.edges.len());
        manifest.set("observed_devices", self.observations.len());
        manifest.set("discovery_records", self.records.len());
        manifest.set("periodicity_groups", self.periodicity_groups.len());
        manifest.set("periodicity_exact", self.periodicity_exact);
        manifest.set("flows_retired", self.flows_retired);
        manifest.set("records_dropped", self.records_dropped);
        manifest.set("final_records", self.final_records.len());
        manifest.digest("graph.txt", self.graph(catalog).render().as_bytes());
        manifest.digest("prevalence.txt", self.prevalence(catalog).render().as_bytes());
        manifest.attach_metrics();
        manifest.attach_host_info();
        manifest
    }

    /// Merge another shard's report into this one (call in input order so
    /// merged reports are deterministic regardless of thread count).
    /// Additive accumulators sum, sets union, sketches merge; peak state
    /// takes the max, since shards stream concurrently, each within its
    /// own bound.
    pub fn merge(&mut self, other: &StreamReport) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.streamed_bytes += other.streamed_bytes;
        self.peak_state_bytes = self.peak_state_bytes.max(other.peak_state_bytes);
        self.flow_keys += other.flow_keys;
        for (pair, accum) in &other.edges {
            let mine = self.edges.entry(pair.clone()).or_default();
            mine.has_tcp |= accum.has_tcp;
            mine.has_udp |= accum.has_udp;
            mine.packets += accum.packets;
            mine.bytes += accum.bytes;
        }
        for (mac, protocols) in &other.observations {
            self.observations
                .entry(*mac)
                .or_default()
                .extend(protocols.iter().cloned());
        }
        for (mac, record) in &other.records {
            self.records.entry(*mac).or_default().merge(record);
        }
        for (key, events) in &other.periodicity_groups {
            let mine = self.periodicity_groups.entry(key.clone()).or_default();
            mine.extend_from_slice(events);
            mine.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }
        self.periodicity_exact &= other.periodicity_exact;
        self.port_packets.merge(&other.port_packets);
        self.protocol_packets.merge(&other.protocol_packets);
        self.peer_pairs.merge(&other.peer_pairs);
        self.flows_retired += other.flows_retired;
        self.records_dropped += other.records_dropped;
        self.final_records.extend(other.final_records.iter().cloned());
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

/// Household sharding: stream each capture on the deterministic pool and
/// merge the reports in input order. With disjoint households (separate
/// networks, as in the paper's crowd-scale analysis) the merged report
/// equals streaming the concatenated traffic; the result is bit-identical
/// at any `IOTLAN_THREADS` setting because per-shard work is independent
/// and the merge order is the input order.
pub fn stream_captures_sharded(captures: &[Capture], catalog: &Catalog) -> StreamReport {
    let reports = pool::par_map(captures, |_, capture| stream_capture(capture, catalog));
    let mut merged: Option<StreamReport> = None;
    for report in reports {
        match &mut merged {
            Some(m) => m.merge(&report),
            None => merged = Some(report),
        }
    }
    merged.unwrap_or_else(|| {
        StreamEngine::new(catalog)
            .finish()
            .expect("empty engine cannot fail")
    })
}

/// Pcap-shard variant of [`stream_captures_sharded`]: each shard is a pcap
/// file image, fed to its engine in `chunk_size`-byte chunks.
pub fn stream_pcaps_sharded(
    shards: &[Vec<u8>],
    chunk_size: usize,
    catalog: &Catalog,
) -> Result<StreamReport, iotlan_wire::Error> {
    let chunk_size = chunk_size.max(1);
    let reports = pool::par_map(shards, |_, image| -> Result<StreamReport, iotlan_wire::Error> {
        let mut engine = StreamEngine::new(catalog);
        for chunk in image.chunks(chunk_size) {
            engine.push_pcap_chunk(chunk)?;
        }
        engine.finish()
    });
    let mut merged: Option<StreamReport> = None;
    for report in reports {
        let report = report?;
        match &mut merged {
            Some(m) => m.merge(&report),
            None => merged = Some(report),
        }
    }
    match merged {
        Some(m) => Ok(m),
        None => Ok(StreamEngine::new(catalog)
            .finish()
            .expect("empty engine cannot fail")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_classify::flow::FlowTable;
    use iotlan_devices::build_testbed;
    use iotlan_netsim::stack::{self, Endpoint};

    fn endpoint_of(catalog: &Catalog, name: &str) -> Endpoint {
        let d = catalog.find(name).unwrap();
        Endpoint { mac: d.mac, ip: d.ip }
    }

    /// A small synthetic capture exercising every accumulator: unicast
    /// UDP/TCP between devices (graph), mDNS multicast (prevalence +
    /// discovery), an SSDP M-SEARCH with a unicast reply (Table 4), and a
    /// periodic beacon.
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
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 2).to_bytes();
        frames.push((
            SimTime::from_secs(50),
            stack::udp_multicast(
                nest,
                Ipv4Addr::new(239, 255, 255, 250),
                51234,
                1900,
                &msearch,
            ),
        ));
        let reply = iotlan_wire::ssdp::Message::response("upnp:rootdevice", "uuid-hue", None, None)
            .to_bytes();
        frames.push((
            SimTime::from_secs(51),
            stack::udp_unicast(hue, nest, 1900, 51234, &reply),
        ));
        frames.sort_by_key(|(time, _)| *time);
        Capture::from_frames(frames)
    }

    fn assert_equivalent(capture: &Capture, catalog: &Catalog, report: &StreamReport) {
        let table = FlowTable::from_capture(capture);
        let batch_graph = iotlan_analysis::graph::build_graph(&table, catalog);
        assert_eq!(report.graph(catalog).render(), batch_graph.render());
        let batch_prev = iotlan_analysis::prevalence::passive_prevalence(&table, catalog);
        assert_eq!(report.prevalence(catalog).render(), batch_prev.render());
        let batch_rows = iotlan_analysis::responses::discovery_responses(&table, catalog);
        assert_eq!(
            iotlan_analysis::responses::render(&report.discovery_response_rows(catalog)),
            iotlan_analysis::responses::render(&batch_rows),
        );
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
            assert_equivalent(&capture, &catalog, &report);
        }
    }

    #[test]
    fn sharded_merge_is_input_ordered_and_thread_invariant() {
        let catalog = build_testbed();
        let capture = synthetic_capture(&catalog);
        let shards: Vec<Capture> = vec![capture.clone(), capture.clone(), capture];
        let summarize = |r: &StreamReport| {
            (
                r.packets,
                r.graph(&catalog).render(),
                r.prevalence(&catalog).render(),
                r.peer_pairs.estimate().to_bits(),
            )
        };
        let base = summarize(&stream_captures_sharded(&shards, &catalog));
        for threads in [1usize, 4] {
            let report = pool::with_threads(threads, || stream_captures_sharded(&shards, &catalog));
            assert_eq!(summarize(&report), base);
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
}
