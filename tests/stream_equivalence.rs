//! Streaming/batch equivalence: the single-pass `iotlan-stream` engine
//! must reproduce the batch pipeline's figure and table outputs exactly —
//! on a real `Lab` capture and at any pcap chunk size (down to one byte).
//! Table 4 has one implementation, the engine's online correlator; it is
//! checked against an independent batch cross-join kept here as the
//! oracle. Property suites cover the KMV sketch's documented guarantees.

use iotlan::analysis::responses::{
    render, rows_from_records, DeviceRecord, EXCLUDED_PROTOCOLS, RESPONSE_WINDOW_SECS,
};
use iotlan::classify::flow::Transport;
use iotlan::classify::rules::{classify_with_rules, paper_rules};
use iotlan::classify::FlowTable;
use iotlan::devices::Catalog;
use iotlan::netsim::{Capture, SimDuration};
use iotlan::stream::engine::stream_capture;
use iotlan::stream::sketch::Distinct;
use iotlan::stream::{StreamEngine, StreamReport};
use iotlan::wire::ethernet::EthernetAddress;
use iotlan::{Lab, LabConfig};
use std::collections::BTreeMap;

/// A small but real lab run: 93 devices idling plus scripted interactions.
/// Built once and shared — the capture is read-only reference data.
fn lab_capture() -> &'static (Capture, Catalog) {
    static LAB: std::sync::OnceLock<(Capture, Catalog)> = std::sync::OnceLock::new();
    LAB.get_or_init(|| {
        let mut lab = Lab::new(LabConfig {
            seed: 21,
            idle_duration: SimDuration::from_mins(2),
            interactions: 10,
            with_honeypot: true,
        });
        lab.run_idle();
        lab.run_interactions(SimDuration::from_secs(30));
        (lab.network.capture.clone(), lab.catalog)
    })
}

/// The Table 4 oracle: the batch cross-join. Every multicast UDP flow from
/// a catalog device, with a non-excluded label, is a discovery; it drew a
/// response from every unicast UDP flow to that device's IP and discovery
/// source port with some packet 0–3 s after some discovery packet.
fn batch_discovery_records(
    table: &FlowTable,
    catalog: &Catalog,
) -> BTreeMap<EthernetAddress, DeviceRecord> {
    let rules = paper_rules();
    let is_udp = |t: Transport| matches!(t, Transport::Udp | Transport::UdpV6);
    let discoveries: Vec<_> = table
        .flows
        .iter()
        .filter(|flow| flow.is_multicast_or_broadcast() && is_udp(flow.key.transport))
        .filter(|flow| catalog.devices.iter().any(|d| d.mac == flow.key.src_mac))
        .map(|flow| (flow, classify_with_rules(flow, &rules)))
        .filter(|(_, protocol)| !EXCLUDED_PROTOCOLS.contains(protocol))
        .collect();
    let mut records: BTreeMap<EthernetAddress, DeviceRecord> = BTreeMap::new();
    for (flow, protocol) in &discoveries {
        let record = records.entry(flow.key.src_mac).or_default();
        record.discovery_protocols.insert(protocol.to_string());
    }
    for response in &table.flows {
        if response.is_multicast_or_broadcast() || !is_udp(response.key.transport) {
            continue;
        }
        let Some(device) = catalog
            .devices
            .iter()
            .find(|d| Some(d.ip) == response.key.dst_ip)
        else {
            continue;
        };
        for (discovery, protocol) in &discoveries {
            if discovery.key.src_mac != device.mac
                || discovery.key.src_port != response.key.dst_port
            {
                continue;
            }
            let in_window = response.timestamps.iter().any(|rt| {
                discovery.timestamps.iter().any(|dt| {
                    let delta = rt.as_secs_f64() - dt.as_secs_f64();
                    (0.0..=RESPONSE_WINDOW_SECS).contains(&delta)
                })
            });
            if in_window {
                let record = records.entry(device.mac).or_default();
                record.protocols_with_response.insert(protocol.to_string());
                record.responders.insert(response.key.src_mac);
            }
        }
    }
    records
}

/// The batch pipeline's rendered artifacts for `capture`, with the Table 4
/// oracle.
fn batch_renders(capture: &Capture, catalog: &Catalog) -> (String, String, String) {
    let table = FlowTable::from_capture(capture);
    (
        iotlan::analysis::graph::build_graph(&table, catalog).render(),
        iotlan::analysis::prevalence::passive_prevalence(&table, catalog).render(),
        render(&rows_from_records(
            &batch_discovery_records(&table, catalog),
            catalog,
        )),
    )
}

/// The streaming report's rendered artifacts, through the same batch
/// analysis code paths.
fn report_renders(report: &StreamReport, catalog: &Catalog) -> (String, String, String) {
    (
        report.graph(catalog).render(),
        report.prevalence(catalog).render(),
        render(&report.discovery_response_rows(catalog)),
    )
}

#[test]
fn lab_capture_streams_identically_at_every_chunk_size() {
    let (capture, catalog) = lab_capture();
    let batch = batch_renders(&capture, &catalog);
    let batch_table = FlowTable::from_capture(&capture);
    let batch_periodicity = iotlan::analysis::periodicity::analyze_periodicity(&batch_table);
    let batch_records = batch_discovery_records(&batch_table, &catalog);
    assert!(
        batch_records.values().any(|r| !r.responders.is_empty()),
        "the lab capture must exercise Table 4 matches"
    );

    // Direct frame-fed path first.
    let report = stream_capture(&capture, &catalog);
    assert_eq!(report.packets, capture.len() as u64);
    assert_eq!(report_renders(&report, &catalog), batch);
    assert_eq!(report.records, batch_records);
    assert!(
        report.periodicity_exact,
        "lab-scale keys must stay under EVENT_CAP"
    );
    let streamed_periodicity = report.periodicity();
    assert_eq!(
        streamed_periodicity.groups.len(),
        batch_periodicity.groups.len()
    );
    for (s, b) in streamed_periodicity
        .groups
        .iter()
        .zip(&batch_periodicity.groups)
    {
        assert_eq!(s.key, b.key);
        assert_eq!(s.events, b.events);
        assert_eq!(s.periodic, b.periodic);
        assert_eq!(s.period_secs, b.period_secs);
    }

    // Then the incremental pcap path at 1 B, 4 KiB and whole-file chunks.
    let image = capture.to_pcap();
    for chunk_size in [1usize, 4096, image.len()] {
        let mut engine = StreamEngine::new(&catalog);
        for chunk in image.chunks(chunk_size) {
            engine.push_pcap_chunk(chunk).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.packets, capture.len() as u64, "chunk {chunk_size}");
        assert_eq!(
            report_renders(&report, &catalog),
            batch,
            "chunk {chunk_size}"
        );
        assert_eq!(report.records, batch_records, "chunk {chunk_size}");
    }
}

iotlan_util::props! {
    /// KMV is exact below k distinct keys and within its documented
    /// relative standard error (1/sqrt(k-2)) above it.
    fn distinct_counter_within_documented_error(g) {
        let k = 256usize;
        let mut sketch = Distinct::new(k, g.u64());
        let base = g.u64();
        let n = g.int_in(1u64..=20_000);
        for i in 0..n {
            let key = (base.wrapping_add(i)).to_le_bytes();
            sketch.insert(&key);
            sketch.insert(&key); // duplicates never count
        }
        let estimate = sketch.estimate();
        if (n as usize) < k {
            assert_eq!(estimate, n as f64, "must be exact below k");
        } else {
            let rse = 1.0 / ((k as f64) - 2.0).sqrt();
            let relative = (estimate - n as f64).abs() / n as f64;
            assert!(
                relative < 6.0 * rse,
                "relative error {relative} exceeds 6x documented RSE {rse}"
            );
        }
    }

    /// KMV merges are associative and commutative: shard grouping can
    /// never change a merged estimate.
    fn sketch_merges_are_associative(g) {
        let seed = g.u64();
        let mut kmvs: Vec<Distinct> = (0..3).map(|_| Distinct::new(8, seed)).collect();
        for sketch_index in 0..3 {
            let items = g.vec_of(0, 60, |g| g.int_in(0u64..=40));
            for item in items {
                kmvs[sketch_index].insert(&item.to_le_bytes());
            }
        }
        // ((a + b) + c) == (a + (b + c)), as full-state equality.
        let mut kmv_left = kmvs[0].clone();
        kmv_left.merge(&kmvs[1]);
        kmv_left.merge(&kmvs[2]);
        let mut kmv_bc = kmvs[1].clone();
        kmv_bc.merge(&kmvs[2]);
        let mut kmv_right = kmvs[0].clone();
        kmv_right.merge(&kmv_bc);
        assert_eq!(kmv_left, kmv_right);
        let mut kmv_swapped = kmvs[1].clone();
        kmv_swapped.merge(&kmvs[0]);
        let mut kmv_ordered = kmvs[0].clone();
        kmv_ordered.merge(&kmvs[1]);
        assert_eq!(kmv_ordered, kmv_swapped, "KMV union must commute");
    }
}
