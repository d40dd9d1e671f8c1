//! `idle_stream`: the paper's idle collection, streamed. An idle lab (no
//! interactions, honeypot on) runs through `Lab::run_streaming` into a
//! `StreamEngine`, then `finish()` and the cheap report views (Fig. 1
//! graph, Fig. 2 prevalence, Table 4 rows). Multicast discovery dominates
//! the simulator's time here.

use super::{measure, simulator_layers, MixCounter, Outcome, Rep, WARMUP_SECS};
use crate::checks::{Checks, Digests};
use crate::metrics::Values;
use crate::trace::{mirror_network, timed, Ledger, SharedLedger, TimedSink};
use crate::Settings;
use iotlan_core::analysis::responses;
use iotlan_core::netsim::{Capture, FrameSink, SimDuration, SimTime};
use iotlan_core::stream::{StreamEngine, StreamReport};
use iotlan_core::telemetry::fnv1a64;
use iotlan_core::wire::ethernet::EthernetAddress;
use iotlan_core::{Lab, LabConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Simulated idle time streamed per repetition.
const IDLE_SECS: u64 = 600;
/// The AP buffers at most this much simulated time between drains.
const WINDOW_SECS: u64 = 10;

/// Digests and counts every drained frame, then forwards it to the engine.
/// It keeps no frames, so the heap the run reports is the program's.
struct Tee<S> {
    /// fnv1a64 chained over (previous digest, time, fnv1a64 of the frame).
    digest: u64,
    mix: MixCounter,
    engine: S,
}

impl<S: FrameSink> FrameSink for Tee<S> {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        let mut link = [0u8; 24];
        link[..8].copy_from_slice(&self.digest.to_le_bytes());
        link[8..16].copy_from_slice(&time.as_micros().to_le_bytes());
        link[16..].copy_from_slice(&fnv1a64(data).to_le_bytes());
        self.digest = fnv1a64(&link);
        let mac = |at: usize| EthernetAddress(data[at..at + 6].try_into().expect("6 bytes"));
        self.mix.add(mac(6), mac(0));
        self.engine.on_frame(time, data);
    }
}

impl<S> Tee<S> {
    fn with_engine<T>(self, wrap: impl FnOnce(S) -> T) -> Tee<T> {
        Tee {
            digest: self.digest,
            mix: self.mix,
            engine: wrap(self.engine),
        }
    }
}

/// Stream the lab's idle run into `sink`; returns the run's wall seconds.
fn stream(lab: &mut Lab, sink: &mut impl FrameSink) -> f64 {
    let window = SimDuration::from_secs(WINDOW_SECS);
    timed(|| lab.run_streaming(SimDuration::ZERO, window, sink)).1
}

pub fn run(settings: &Settings, checks: &mut Checks) -> Outcome {
    let config = LabConfig {
        seed: settings.seed,
        idle_duration: SimDuration::from_secs(IDLE_SECS),
        interactions: 0,
        with_honeypot: true,
    };
    measure(settings, |traced| {
        let failed_before = checks.failed();
        let ledger: SharedLedger = Rc::new(RefCell::new(Ledger::default()));

        // Set-up: the lab, its warm-up, and an empty engine.
        let setup = Instant::now();
        let (mut lab, new_s) = timed(|| Lab::new(config.clone()));
        if traced {
            lab.network = mirror_network(&lab, &ledger);
        }
        lab.network.run_for(SimDuration::from_secs(WARMUP_SECS));
        lab.network.capture = Capture::new();
        *ledger.borrow_mut() = Ledger::default();
        let sent_before = lab.network.frames_sent();
        let tee = Tee {
            digest: 0,
            mix: MixCounter::new(&lab.network),
            engine: StreamEngine::new(&lab.catalog),
        };
        let setup_s = setup.elapsed().as_secs_f64();

        // The timed operation: stream, finish, render the views.
        let op = Instant::now();
        let (tee, run_s, sink_s, engine_tally) = if traced {
            let mut sink = TimedSink::new(tee.with_engine(TimedSink::new));
            let run_s = stream(&mut lab, &mut sink);
            let engine_tally = sink.inner.engine.tally;
            let tee = sink.inner.with_engine(|engine| engine.inner);
            (tee, run_s, sink.tally.secs(), Some(engine_tally))
        } else {
            let mut tee = tee;
            let run_s = stream(&mut lab, &mut tee);
            (tee, run_s, 0.0, None)
        };
        let (report, finish_s) = timed(|| tee.engine.finish());
        let report: StreamReport = report.expect("frame-fed engine has no pcap errors");
        let (views, views_s) = timed(|| {
            [
                report.graph(&lab.catalog).render(),
                report.prevalence(&lab.catalog).render(),
                responses::render(&report.discovery_response_rows(&lab.catalog)),
            ]
        });
        let wall_s = op.elapsed().as_secs_f64();

        // Output checks.
        let mix = tee.mix.mix();
        let sent = lab.network.frames_sent() - sent_before;
        checks.equal("idle_stream: frames drained vs sent", mix.frames, sent);
        checks.equal(
            "idle_stream: frames drained vs streamed",
            mix.frames,
            report.packets,
        );
        checks.check(views.iter().all(|view| !view.is_empty()), || {
            "idle_stream: an empty report view".into()
        });
        let mut digests = Digests::default();
        digests.add("frames.fnv", &tee.digest.to_le_bytes());
        for (name, view) in ["fig1_graph.txt", "fig2_prevalence.txt", "table4_rows.txt"]
            .iter()
            .zip(&views)
        {
            digests.add(name, view.as_bytes());
        }
        let label = if traced { "traced" } else { "untraced" };
        checks.digests(&format!("idle_stream {label}"), digests);
        if checks.failed() > failed_before {
            return None;
        }

        let sim_s = IDLE_SECS as f64;
        let values: Values = match engine_tally {
            None => [
                ("setup_s", setup_s),
                ("wall_s", wall_s),
                ("frames_per_s", mix.frames as f64 / wall_s),
                ("sim_speed", sim_s / wall_s),
                ("state_mb", report.peak_state_bytes as f64 / 1e6),
            ]
            .into_iter()
            .collect(),
            Some(engine_tally) => {
                let ledger = ledger.borrow();
                let busy_s = run_s - sink_s;
                let mut values = simulator_layers(&ledger, busy_s, sent, new_s);
                let honeypot = lab.honeypot().expect("idle lab deploys the honeypot");
                values.extend([
                    ("netsim.mcast_frame_share", mix.frame_share),
                    ("honeypot.interactions", honeypot.interactions.len() as f64),
                    ("stream.on_frame.calls", engine_tally.calls as f64),
                    ("stream.on_frame.busy_s", engine_tally.secs()),
                    ("stream.finish_s", finish_s),
                    ("stream.views_s", views_s),
                    ("stream.state_peak_bytes", report.peak_state_bytes as f64),
                    (
                        "analysis.periodicity.groups",
                        report.periodicity_groups.len() as f64,
                    ),
                ]);
                values
            }
        };
        Some(Rep {
            wall_s,
            values,
            mix,
        })
    })
}
