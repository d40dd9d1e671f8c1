//! Golden outputs: the bytes themselves, not just run-to-run agreement.
//!
//! The determinism tests compare one run with another, so a change that
//! alters behaviour deterministically passes them. This file pins fnv1a64
//! digests (the run manifests' digest function) of what `LabConfig::fast()`
//! produces at seed 42 after its idle capture plus one minute of
//! interactions: the capture pcap, the honeypot interaction log, the
//! Fig. 1–4, Table 1, 4 and 5 and App. D.1 renders, and the App. D.1
//! per-group verdicts (the render shows only aggregates, so a moved period
//! would otherwise go unnoticed). The same capture streamed through
//! `stream_capture` pins its Table 4 render and App. D.1 per-group
//! verdicts, and must stay under the engine's per-flow timestamp cap so
//! its periodicity is exact. Each digest must hold at one and at four pool
//! threads.
//!
//! A change that moves a digest must name the cause; the new value is the
//! one the failure message prints.

use iotlan::analysis::periodicity::Group;
use iotlan::analysis::responses;
use iotlan::experiments;
use iotlan::netsim::SimDuration;
use iotlan::stream::engine::stream_capture;
use iotlan::telemetry::digest_hex;
use iotlan::util::pool;
use iotlan::{Lab, LabConfig};

const GOLDEN: [(&str, &str); 13] = [
    ("capture.pcap", "e00db4ab3b06a438"),
    ("honeypot.log", "716798ec4268fd91"),
    ("fig1.txt", "fde4c69027cd8ac2"),
    ("fig2.txt", "d991359fad748177"),
    ("appd1.txt", "fc011309b3d5c6b4"),
    ("appd1.groups", "d4b721722e0654ce"),
    ("fig3.txt", "f96326592363ccf8"),
    ("fig4.txt", "eb9ff51e76352aef"),
    ("table1.txt", "0f2bc3541e4e1038"),
    ("table4.txt", "576aeec68e78e6c1"),
    ("table5.txt", "18c240bc11509c1c"),
    ("stream.table4.txt", "576aeec68e78e6c1"),
    ("stream.appd1.groups", "d4b721722e0654ce"),
];

/// One line per App. D.1 group: its key and verdict, with the period as raw
/// `f64` bits so any change to a detector's arithmetic shows.
fn appd1_groups(groups: &[Group]) -> String {
    groups
        .iter()
        .map(|g| {
            format!(
                "{} {} {} {} {} {:?}\n",
                g.key.src_mac,
                g.key.destination,
                g.key.protocol,
                g.decidable,
                g.periodic,
                g.period_secs.map(f64::to_bits),
            )
        })
        .collect()
}

fn fast_lab_digests() -> Vec<(&'static str, String)> {
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    lab.run_interactions(SimDuration::from_mins(1));
    let campaign = lab
        .honeypot()
        .expect("the fast lab deploys a honeypot")
        .campaign_manifest()
        .deterministic_json();
    let honeypot_log = campaign["digests"]["interactions.log"]
        .as_str()
        .expect("the campaign manifest digests its interaction log")
        .to_string();
    assert_eq!(
        lab.network.capture.len() as u64,
        lab.network.frames_sent(),
        "every frame sent is captured exactly once"
    );
    let appd1 = experiments::appd1_periodicity(&lab);
    let streamed = stream_capture(&lab.network.capture, &lab.catalog);
    assert!(
        streamed.periodicity_exact,
        "the golden capture must stay under the engine's timestamp cap"
    );
    vec![
        ("capture.pcap", digest_hex(&lab.network.capture.to_pcap())),
        ("honeypot.log", honeypot_log),
        (
            "fig1.txt",
            digest_hex(experiments::fig1_device_graph(&lab).render().as_bytes()),
        ),
        (
            "fig2.txt",
            digest_hex(experiments::fig2_prevalence(&lab, None).render().as_bytes()),
        ),
        ("appd1.txt", digest_hex(appd1.render().as_bytes())),
        (
            "appd1.groups",
            digest_hex(appd1_groups(&appd1.report.groups).as_bytes()),
        ),
        (
            "fig3.txt",
            digest_hex(experiments::fig3_crossval(&lab).render().as_bytes()),
        ),
        (
            "fig4.txt",
            digest_hex(experiments::fig4_vendor_clusters(&lab).render().as_bytes()),
        ),
        (
            "table1.txt",
            digest_hex(experiments::table1_exposure(&lab).render().as_bytes()),
        ),
        (
            "table4.txt",
            digest_hex(responses::render(&experiments::table4_responses(&lab)).as_bytes()),
        ),
        (
            "table5.txt",
            digest_hex(format!("{:?}", experiments::table5_payloads(&lab)).as_bytes()),
        ),
        (
            "stream.table4.txt",
            digest_hex(
                responses::render(&streamed.discovery_response_rows(&lab.catalog)).as_bytes(),
            ),
        ),
        (
            "stream.appd1.groups",
            digest_hex(appd1_groups(&streamed.periodicity().groups).as_bytes()),
        ),
    ]
}

fn check_golden(threads: usize) {
    let got = pool::with_threads(threads, fast_lab_digests);
    let mismatches: Vec<String> = GOLDEN
        .iter()
        .zip(&got)
        .filter(|((_, want), (_, have))| want != have)
        .map(|((name, want), (_, have))| format!("{name}: golden {want}, got {have}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests moved at threads={threads}:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn fast_lab_matches_golden_at_one_thread() {
    check_golden(1);
}

#[test]
fn fast_lab_matches_golden_at_four_threads() {
    check_golden(4);
}
