//! Golden outputs: the bytes themselves, not just run-to-run agreement.
//!
//! The determinism tests compare one run with another, so a change that
//! alters behaviour deterministically passes them. This file pins fnv1a64
//! digests (the run manifests' digest function) of what `LabConfig::fast()`
//! produces at seed 42 after its idle capture plus one minute of
//! interactions: the capture pcap, the honeypot interaction log, the
//! Fig. 1, Fig. 2 and App. D.1 renders, and the App. D.1 per-group verdicts
//! (the render shows only aggregates, so a moved period would otherwise go
//! unnoticed). Each digest must hold at one and at four pool threads.
//!
//! A change that moves a digest must name the cause; the new value is the
//! one the failure message prints.

use iotlan::experiments;
use iotlan::netsim::SimDuration;
use iotlan::telemetry::digest_hex;
use iotlan::util::pool;
use iotlan::{Lab, LabConfig};

const GOLDEN: [(&str, &str); 6] = [
    ("capture.pcap", "e00db4ab3b06a438"),
    ("honeypot.log", "716798ec4268fd91"),
    ("fig1.txt", "fde4c69027cd8ac2"),
    ("fig2.txt", "d991359fad748177"),
    ("appd1.txt", "fc011309b3d5c6b4"),
    ("appd1.groups", "d4b721722e0654ce"),
];

/// One line per App. D.1 group: its key and verdict, with the period as raw
/// `f64` bits so any change to a detector's arithmetic shows.
fn appd1_groups(appd1: &experiments::AppD1) -> String {
    appd1
        .report
        .groups
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
        ("appd1.groups", digest_hex(appd1_groups(&appd1).as_bytes())),
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
