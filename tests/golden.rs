//! Golden outputs: the bytes themselves, not just run-to-run agreement.
//!
//! The determinism tests compare one run with another, so a change that
//! alters behaviour deterministically passes them. This file pins fnv1a64
//! digests (the run manifests' digest function) of what `LabConfig::fast()`
//! produces at seed 42 after its idle capture plus one minute of
//! interactions: the capture pcap, the honeypot interaction log, and the
//! Fig. 1 and Fig. 2 renders. Each digest must hold at one and at four pool
//! threads.
//!
//! A change that moves a digest must name the cause; the new value is the
//! one the failure message prints.

use iotlan::experiments;
use iotlan::netsim::SimDuration;
use iotlan::telemetry::digest_hex;
use iotlan::util::pool;
use iotlan::{Lab, LabConfig};

const GOLDEN: [(&str, &str); 4] = [
    ("capture.pcap", "e00db4ab3b06a438"),
    ("honeypot.log", "716798ec4268fd91"),
    ("fig1.txt", "fde4c69027cd8ac2"),
    ("fig2.txt", "d991359fad748177"),
];

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
