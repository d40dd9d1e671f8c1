//! `reproduce`: regenerate every table and figure through
//! `core::experiments` from a `LabConfig::fast()` capture plus an app-test
//! slice, both built during set-up. This is what a user of the
//! reproduction runs; it barely touches the simulator once set up.

use super::{dissect_ns_per_frame, fastest, measure, simulator_layers, traffic_mix, Outcome, Rep};
use crate::checks::{Checks, Digests};
use crate::metrics::Values;
use crate::trace::{mirror_network, timed, Ledger, SharedLedger};
use crate::Settings;
use iotlan_core::analysis::responses;
use iotlan_core::apps::{build_population, AppCensusReport};
use iotlan_core::classify::crossval;
use iotlan_core::experiments as exp;
use iotlan_core::inspector::{dataset, infer};
use iotlan_core::netsim::SimDuration;
use iotlan_core::stream::estimate_identifier_space;
use iotlan_core::telemetry::fnv1a64;
use iotlan_core::util::pool;
use iotlan_core::{Lab, LabConfig};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Apps the phone exercises during set-up.
const APP_SLICE: usize = 160;
/// Untraced set-ups per run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 4;
/// Contiguous folds of the App. C.2 per-capture-file cross-validation.
const FOLDS: usize = 8;
/// KMV sketch size of the crowd-scale identifier-space estimate.
const SKETCH_K: usize = 256;

/// One built input: the lab after its capture and app tests.
struct Input {
    lab: Lab,
    apps: AppCensusReport,
    setup_s: f64,
    /// Per-layer set-up metrics (traced set-up only).
    layers: Values,
}

fn build_input(seed: u64, traced: bool, checks: &mut Checks) -> Input {
    let ledger: SharedLedger = Rc::new(RefCell::new(Ledger::default()));
    let setup = Instant::now();
    let (mut lab, new_s) = timed(|| {
        Lab::new(LabConfig {
            seed,
            ..LabConfig::fast()
        })
    });
    if traced {
        lab.network = mirror_network(&lab, &ledger);
    }
    let ((), idle_s) = timed(|| lab.run_idle());
    let ((), interactions_s) = timed(|| lab.run_interactions(SimDuration::from_mins(1)));
    lab.deploy_phone(build_population().into_iter().take(APP_SLICE).collect());
    let (runs, app_tests_s) = timed(|| lab.run_app_tests(APP_SLICE));
    let (apps, report_s) = timed(|| AppCensusReport::from_runs(&runs));
    let setup_s = setup.elapsed().as_secs_f64();

    checks.equal("reproduce: app tests completed", runs.len(), APP_SLICE);
    let capture = &lab.network.capture;
    checks.equal(
        "reproduce: frames captured vs sent",
        capture.len() as u64,
        lab.network.frames_sent(),
    );
    let mut layers = Values::new();
    if traced {
        let sent = lab.network.frames_sent();
        let busy_s = idle_s + interactions_s + app_tests_s;
        layers = simulator_layers(&ledger.borrow(), busy_s, sent, new_s);
        let honeypot = lab.honeypot().expect("fast lab deploys the honeypot");
        layers.extend([
            (
                "netsim.mcast_frame_share",
                traffic_mix(capture, &lab.network).frame_share,
            ),
            ("honeypot.interactions", honeypot.interactions.len() as f64),
            ("apps.run_app_tests_s", app_tests_s),
            ("apps.report_s", report_s),
        ]);
    }
    Input {
        lab,
        apps,
        setup_s,
        layers,
    }
}

/// Every artifact, rendered, with the wall time of each stage by metric.
fn artifacts(input: &Input, seed: u64) -> (Vec<(&'static str, String)>, Values) {
    let lab = &input.lab;
    let mut out = Vec::new();
    let mut times = Values::new();
    let mut stage = |metric: &'static str, name: &'static str, f: &mut dyn FnMut() -> String| {
        let (text, secs) = timed(&mut *f);
        times.insert(metric, secs);
        out.push((name, text));
    };
    stage("classify.flow_table_s", "flows.txt", &mut || {
        let table = lab.flow_table();
        format!("{} flows, {} packets", table.len(), table.total_packets())
    });
    stage("analysis.fig1_s", "fig1.txt", &mut || {
        exp::fig1_device_graph(lab).render()
    });
    stage("analysis.fig2_s", "fig2.txt", &mut || {
        exp::fig2_prevalence(lab, Some(&input.apps)).render()
    });
    stage("classify.crossval_s", "fig3.txt", &mut || {
        exp::fig3_crossval(lab).render()
    });
    stage("classify.crossval_folds_s", "appc2_folds.txt", &mut || {
        crossval::cross_validate_folds(&lab.flow_table(), FOLDS)
            .iter()
            .map(|fold| format!("{:?}\n{}", fold.agreement, fold.matrix.render()))
            .collect()
    });
    stage("analysis.fig4_s", "fig4.txt", &mut || {
        exp::fig4_vendor_clusters(lab).render()
    });
    stage("analysis.table1_s", "table1.txt", &mut || {
        exp::table1_exposure(lab).render()
    });
    stage("inspector.table2_s", "table2.txt", &mut || {
        exp::table2_entropy(seed).render()
    });
    stage("analysis.table3_s", "table3.txt", &mut || {
        exp::table3_inventory(&lab.catalog)
    });
    stage("analysis.table4_s", "table4.txt", &mut || {
        responses::render(&exp::table4_responses(lab))
    });
    stage("analysis.table5_s", "table5.txt", &mut || {
        format!("{:?}", exp::table5_payloads(lab))
    });
    stage("scan.catalog_s", "sec42.txt", &mut || {
        exp::sec42_active_scans(&lab.catalog).render()
    });
    stage("analysis.sec51_s", "sec51.txt", &mut || {
        exp::sec51_discovery_stats(lab).render()
    });
    stage("scan.vulns_s", "sec52.txt", &mut || {
        format!("{:?}", exp::sec52_vulnerabilities(&lab.catalog))
    });
    stage("analysis.sec6_s", "sec6.txt", &mut || {
        exp::sec6_exfiltration(&input.apps)
    });
    let mut groups = 0usize;
    stage("analysis.appd1_s", "appd1.txt", &mut || {
        let appd1 = exp::appd1_periodicity(lab);
        groups = appd1.report.groups.len();
        appd1.render()
    });
    let mut crowd = None;
    stage("inspector.dataset_s", "crowd_dataset.txt", &mut || {
        let data = dataset::generate(&dataset::GeneratorConfig {
            seed,
            ..Default::default()
        });
        let summary = format!(
            "{} households, {} devices",
            data.households.len(),
            data.device_count()
        );
        crowd = Some(data);
        summary
    });
    let crowd = crowd.expect("dataset stage ran");
    stage(
        "inspector.crowd_estimate_s",
        "crowd_estimate.txt",
        &mut || {
            let estimate = estimate_identifier_space(&crowd, SKETCH_K, seed);
            format!(
                "{} {:?} {:?} {:?}",
                estimate.analyzed_devices,
                estimate.name_bits(),
                estimate.uuid_bits(),
                estimate.mac_bits()
            )
        },
    );
    stage("inspector.score_s", "inference_score.txt", &mut || {
        format!("{:?}", infer::score(&crowd))
    });
    times.insert("analysis.periodicity.groups", groups as f64);
    (out, times)
}

pub fn run(settings: &Settings, checks: &mut Checks) -> Outcome {
    let seed = settings.seed;
    let failed_before = checks.failed();
    let input = build_input(seed, false, checks);
    let capture_digest = |input: &Input| fnv1a64(&input.lab.network.capture.to_pcap());
    let reference = capture_digest(&input);
    let mut setups = vec![input.setup_s];
    for _ in 1..SETUP_REPEATS {
        let again = build_input(seed, false, checks);
        checks.equal(
            "reproduce: set-up capture digest",
            capture_digest(&again),
            reference,
        );
        setups.push(again.setup_s);
    }
    let setup_s = fastest(&setups);
    let traced = settings.trace.then(|| build_input(seed, true, checks));
    if let Some(traced) = &traced {
        checks.equal(
            "reproduce: traced set-up capture digest",
            capture_digest(traced),
            reference,
        );
    }
    let setup_ok = checks.failed() == failed_before;
    let input = &input;
    let mix = traffic_mix(&input.lab.network.capture, &input.lab.network);
    let threads = pool::thread_count() as f64;

    let mut outcome = measure(settings, |trace_this| {
        if !setup_ok {
            return None;
        }
        let failed_before = checks.failed();
        let input = if trace_this {
            traced.as_ref().expect("traced set-up")
        } else {
            input
        };
        let capture = &input.lab.network.capture;
        let pool_before = pool::stats();
        let op = Instant::now();
        let (rendered, times) = artifacts(input, seed);
        let wall_s = op.elapsed().as_secs_f64();
        let pool_after = pool::stats();

        let mut digests = Digests::default();
        let (pcap, pcap_s) = timed(|| capture.to_pcap());
        digests.add("capture.pcap", &pcap);
        for (name, text) in &rendered {
            checks.check(!text.is_empty(), || format!("reproduce: {name} is empty"));
            digests.add(name, text.as_bytes());
        }
        let label = if trace_this { "traced" } else { "untraced" };
        checks.digests(&format!("reproduce {label}"), digests);
        if checks.failed() > failed_before {
            return None;
        }

        let values: Values = if trace_this {
            let mut values = times;
            values.extend(input.layers.iter().map(|(k, v)| (*k, *v)));
            let busy_s =
                (pool_after.total_busy_nanos() - pool_before.total_busy_nanos()) as f64 * 1e-9;
            values.extend([
                (
                    "pool.regions",
                    (pool_after.regions - pool_before.regions) as f64,
                ),
                (
                    "pool.tasks",
                    (pool_after.total_tasks() - pool_before.total_tasks()) as f64,
                ),
                ("pool.busy_s", busy_s),
                ("pool.utilization", busy_s / (wall_s * threads)),
                ("wire.dissect.ns_per_frame", dissect_ns_per_frame(capture)),
                ("wire.pcap.write_s", pcap_s),
            ]);
            values
        } else {
            let sim_s = input.lab.network.now().as_secs_f64();
            [
                ("wall_s", wall_s),
                ("frames_per_s", capture.len() as f64 / wall_s),
                ("sim_speed", sim_s / wall_s),
                ("state_mb", capture.arena_bytes() as f64 / 1e6),
            ]
            .into_iter()
            .collect()
        };
        black_box(&rendered);
        Some(Rep {
            wall_s,
            values,
            mix,
        })
    });
    match &traced {
        // The node wrappers run in set-up here, so that is where tracing
        // costs; the artifact pass is timed only around its calls.
        Some(traced) => {
            let overhead = traced.setup_s / setup_s - 1.0;
            outcome.values.insert("trace.overhead_frac", overhead);
        }
        None => {
            outcome.values.insert("setup_s", setup_s);
        }
    }
    outcome
}
