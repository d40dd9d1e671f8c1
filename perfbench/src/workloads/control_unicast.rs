//! `control_unicast`: a dense burst of companion-app control commands
//! (TP-Link SHP, HTTP, TLS) into a batch capture, then one wire-level SYN
//! probe to every modelled open TCP port. The simulator's delivery and
//! capture code runs on unicast TCP control traffic, and the capture arena
//! grows instead of being drained.

use super::{
    dissect_ns_per_frame, measure, simulator_layers, traffic_mix, Outcome, Rep, WARMUP_SECS,
};
use crate::checks::{Checks, Digests};
use crate::metrics::Values;
use crate::trace::{mirror_network, timed, Ledger, SharedLedger};
use crate::Settings;
use iotlan_core::netsim::stack::Endpoint;
use iotlan_core::netsim::{Capture, SimDuration};
use iotlan_core::scan::portscan::{probe_tcp_model, probe_tcp_wire, PortState};
use iotlan_core::{Lab, LabConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Control commands per repetition, spread over [`BURST_SECS`]. Dense
/// enough that unicast handlers outweigh the multicast discovery of the
/// probes' idle time (500 ms of simulation per probe).
const INTERACTIONS: u32 = 800_000;
const BURST_SECS: u64 = 60;

pub fn run(settings: &Settings, checks: &mut Checks) -> Outcome {
    let config = LabConfig {
        seed: settings.seed,
        idle_duration: SimDuration::from_secs(WARMUP_SECS),
        interactions: INTERACTIONS,
        with_honeypot: true,
    };
    measure(settings, |traced| {
        let failed_before = checks.failed();
        let ledger: SharedLedger = Rc::new(RefCell::new(Ledger::default()));

        // Set-up: the lab and its idle warm-up.
        let setup = Instant::now();
        let (mut lab, new_s) = timed(|| Lab::new(config.clone()));
        if traced {
            lab.network = mirror_network(&lab, &ledger);
        }
        lab.run_idle();
        lab.network.capture = Capture::new();
        *ledger.borrow_mut() = Ledger::default();
        let sent_before = lab.network.frames_sent();
        let setup_s = setup.elapsed().as_secs_f64();

        // The timed operation: the burst, then the probes.
        let sim_start = lab.network.now();
        let op = Instant::now();
        let ((), burst_s) = timed(|| lab.run_interactions(SimDuration::from_secs(BURST_SECS)));
        let targets: Vec<(Endpoint, u16, PortState)> = lab
            .catalog
            .devices
            .iter()
            .flat_map(|device| {
                let endpoint = Endpoint {
                    mac: device.mac,
                    ip: device.ip,
                };
                device.open_tcp.iter().map(move |service| {
                    (
                        endpoint,
                        service.port,
                        probe_tcp_model(device, service.port),
                    )
                })
            })
            .collect();
        let (wire, probe_s) = timed(|| {
            targets
                .iter()
                .map(|(endpoint, port, _)| probe_tcp_wire(&mut lab.network, *endpoint, *port))
                .collect::<Vec<PortState>>()
        });
        let wall_s = op.elapsed().as_secs_f64();
        let sim_s = (lab.network.now() - sim_start).as_secs_f64();

        // Output checks.
        let capture = &lab.network.capture;
        let sent = lab.network.frames_sent() - sent_before;
        checks.equal(
            "control_unicast: frames captured vs sent",
            capture.len() as u64,
            sent,
        );
        let agree = targets
            .iter()
            .zip(&wire)
            .filter(|((_, _, model), wire)| model == *wire)
            .count();
        checks.equal(
            "control_unicast: wire probes agreeing with the model",
            agree,
            targets.len(),
        );
        let mut digests = Digests::default();
        let (pcap, pcap_s) = timed(|| capture.to_pcap());
        digests.add("capture.pcap", &pcap);
        digests.add("probes.txt", format!("{wire:?}").as_bytes());
        let label = if traced { "traced" } else { "untraced" };
        checks.digests(&format!("control_unicast {label}"), digests);
        if checks.failed() > failed_before {
            return None;
        }

        let mix = traffic_mix(capture, &lab.network);
        let values: Values = if traced {
            let ledger = ledger.borrow();
            let mut values = simulator_layers(&ledger, burst_s + probe_s, sent, new_s);
            let honeypot = lab.honeypot().expect("control lab deploys the honeypot");
            values.extend([
                ("netsim.mcast_frame_share", mix.frame_share),
                ("honeypot.interactions", honeypot.interactions.len() as f64),
                ("scan.probe.calls", targets.len() as f64),
                ("scan.probe.busy_s", probe_s),
                (
                    "scan.probe.agree_frac",
                    agree as f64 / targets.len().max(1) as f64,
                ),
                ("wire.dissect.ns_per_frame", dissect_ns_per_frame(capture)),
                ("wire.pcap.write_s", pcap_s),
            ]);
            values
        } else {
            [
                ("setup_s", setup_s),
                ("wall_s", wall_s),
                ("frames_per_s", capture.len() as f64 / wall_s),
                ("sim_speed", sim_s / wall_s),
                ("state_mb", capture.arena_bytes() as f64 / 1e6),
            ]
            .into_iter()
            .collect()
        };
        Some(Rep {
            wall_s,
            values,
            mix,
        })
    })
}
