//! The three workloads and the repetition loop they share.

pub mod control_unicast;
pub mod idle_stream;
pub mod reproduce;

use crate::metrics::{self, Values};
use crate::trace::Ledger;
use crate::Settings;
use iotlan_core::netsim::{stack, Capture, Network};
use iotlan_core::wire::ethernet::EthernetAddress;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Simulated idle time every simulation workload runs before it is timed:
/// the nodes' start-up burst (DHCP, EAPOL, first announcements) is set-up.
pub const WARMUP_SECS: u64 = 30;

/// Untraced repetitions a run makes at least, so every reported value has
/// three samples however long one repetition takes. A run also stops once its
/// traced or its untraced repetitions have failed this many times.
const MIN_REPEATS: usize = 3;

/// Multicast share of a run's frames and of their deliveries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    pub frames: u64,
    pub frame_share: f64,
    pub delivery_share: f64,
}

/// Counts a frame stream's multicast share on a given network: a
/// multicast frame reaches every node but its sender, a unicast frame the
/// node owning its destination MAC, if any.
pub struct MixCounter {
    nodes: BTreeSet<EthernetAddress>,
    frames: u64,
    mcast_frames: u64,
    deliveries: u64,
    mcast_deliveries: u64,
}

impl MixCounter {
    pub fn new(network: &Network) -> MixCounter {
        MixCounter {
            nodes: (0..network.node_count())
                .map(|id| network.node(id).mac())
                .collect(),
            frames: 0,
            mcast_frames: 0,
            deliveries: 0,
            mcast_deliveries: 0,
        }
    }

    pub fn add(&mut self, src: EthernetAddress, dst: EthernetAddress) {
        self.frames += 1;
        if dst.is_multicast() {
            let fanout = self.nodes.len() as u64 - u64::from(self.nodes.contains(&src));
            self.mcast_frames += 1;
            self.mcast_deliveries += fanout;
            self.deliveries += fanout;
        } else {
            self.deliveries += u64::from(self.nodes.contains(&dst));
        }
    }

    pub fn mix(&self) -> Mix {
        Mix {
            frames: self.frames,
            frame_share: self.mcast_frames as f64 / self.frames.max(1) as f64,
            delivery_share: self.mcast_deliveries as f64 / self.deliveries.max(1) as f64,
        }
    }
}

/// The traffic mix of a batch capture taken on `network`.
pub fn traffic_mix(capture: &Capture, network: &Network) -> Mix {
    let mut counter = MixCounter::new(network);
    for frame in capture.frames() {
        counter.add(frame.src_mac(), frame.dst_mac());
    }
    counter.mix()
}

/// `stack::dissect` replayed over every frame of `capture`: wall
/// nanoseconds per frame.
pub fn dissect_ns_per_frame(capture: &Capture) -> f64 {
    let start = Instant::now();
    let parsed = capture
        .frames()
        .filter(|frame| stack::dissect(black_box(frame.data())).is_some())
        .count();
    black_box(parsed);
    start.elapsed().as_nanos() as f64 / capture.len().max(1) as f64
}

/// Per-layer metrics of a simulator run timed by the node wrappers:
/// `busy_s` is the wall time spent in the network's event loop (sink time
/// excluded), and `sent` the frames it transmitted.
pub fn simulator_layers(ledger: &Ledger, busy_s: f64, sent: u64, new_s: f64) -> Values {
    let callbacks_s = ledger.callback_nanos() as f64 * 1e-9;
    let devices = ledger.device_frames();
    let mcast = ledger.device_mcast;
    [
        ("core.lab.new_s", new_s),
        ("netsim.run.busy_s", busy_s),
        ("netsim.self_s", busy_s - callbacks_s),
        ("netsim.frames_sent", sent as f64),
        ("netsim.deliveries", ledger.deliveries as f64),
        (
            "netsim.fanout",
            ledger.deliveries as f64 / sent.max(1) as f64,
        ),
        (
            "netsim.mcast_delivery_share",
            ledger.mcast_deliveries as f64 / ledger.deliveries.max(1) as f64,
        ),
        ("devices.on_frame.calls", devices.calls as f64),
        ("devices.on_frame.busy_s", devices.secs()),
        ("devices.on_frame.mcast.calls", mcast.calls as f64),
        ("devices.on_frame.mcast.busy_s", mcast.secs()),
        (
            "devices.on_frame.mcast.ns_per_call",
            mcast.nanos as f64 / mcast.calls.max(1) as f64,
        ),
        (
            "devices.on_frame.ucast.calls",
            ledger.device_ucast.calls as f64,
        ),
        ("devices.on_frame.ucast.busy_s", ledger.device_ucast.secs()),
        ("devices.on_frame.mdns.busy_s", ledger.device_mdns.secs()),
        ("devices.on_frame.ssdp.busy_s", ledger.device_ssdp.secs()),
        ("devices.on_frame.bcast.busy_s", ledger.device_bcast.secs()),
        ("devices.on_timer.calls", ledger.device_timer.calls as f64),
        ("devices.on_timer.busy_s", ledger.device_timer.secs()),
        ("router.on_frame.calls", ledger.router_frame.calls as f64),
        ("router.on_frame.busy_s", ledger.router_frame.secs()),
        (
            "honeypot.on_frame.calls",
            ledger.honeypot_frame.calls as f64,
        ),
        ("honeypot.on_frame.busy_s", ledger.honeypot_frame.secs()),
    ]
    .into_iter()
    .collect()
}

/// What one repetition measured. `values` holds end-to-end metrics for an
/// untraced repetition and per-layer metrics for a traced one; `None`
/// marks a repetition whose output checks failed.
pub struct Rep {
    pub wall_s: f64,
    pub values: Values,
    pub mix: Mix,
}

/// A finished run: the metrics it reports, taken over its repetitions.
pub struct Outcome {
    pub values: Values,
    pub mix: Mix,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    /// Share of the attempted repetitions whose checks all passed.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, values: &Values) {
        for (name, value) in values {
            self.0.entry(name).or_default().push(*value);
        }
    }

    fn medians(&self) -> Values {
        self.0
            .iter()
            .map(|(name, values)| (*name, median(values)))
            .collect()
    }

    /// Each end-to-end metric at its best over the repetitions: the least
    /// value of a "lower" metric, the greatest of a "higher" one.
    fn best(&self) -> Values {
        self.0
            .iter()
            .map(|(name, values)| {
                let higher = metrics::END_TO_END
                    .iter()
                    .any(|metric| metric.name == *name && metric.better == "higher");
                let pick = if higher { f64::max } else { f64::min };
                (*name, values.iter().copied().reduce(pick).unwrap_or(0.0))
            })
            .collect()
    }
}

/// The least of `values`: the fastest of identical repetitions.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Repeat `rep(traced)` for `settings.seconds`, and at least
/// [`MIN_REPEATS`] times. An untraced run reports each end-to-end metric
/// at its best over the repetitions. The repetitions run the same seeded
/// computation, and their checks confirm identical outputs, so they differ
/// only by how much the host slowed them; that noise only ever adds time.
/// The best repetition is the program's own cost, and it varies far less
/// from run to run on a shared host than the median does. A traced run alternates untraced and
/// traced repetitions and reports the traced medians of the per-layer
/// metrics, plus the tracing overhead: the ratio of the traced to the
/// untraced median wall time, minus one.
pub fn measure(settings: &Settings, mut rep: impl FnMut(bool) -> Option<Rep>) -> Outcome {
    let start = Instant::now();
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, [0usize; 2]);
    let mut mix = Mix::default();
    let mut index = 0usize;
    loop {
        let done_min = if settings.trace {
            !untraced_walls.is_empty() && traced_walls.len() >= 2
        } else {
            untraced_walls.len() >= MIN_REPEATS
        };
        if done_min && start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
        // A run whose checks keep failing, traced or not, stops.
        if failed.iter().any(|&n| n >= MIN_REPEATS) {
            break;
        }
        let trace_this = settings.trace && index % 2 == 1;
        index += 1;
        iotlan_core::telemetry::reset_all();
        attempted += 1;
        match rep(trace_this) {
            None => failed[usize::from(trace_this)] += 1,
            Some(result) => {
                mix = result.mix;
                if trace_this {
                    traced_walls.push(result.wall_s);
                    traced.push(&result.values);
                } else {
                    untraced_walls.push(result.wall_s);
                    untraced.push(&result.values);
                }
            }
        }
    }
    let values = if settings.trace {
        let mut values = traced.medians();
        if !traced_walls.is_empty() && !untraced_walls.is_empty() {
            values.insert(
                "trace.overhead_frac",
                median(&traced_walls) / median(&untraced_walls) - 1.0,
            );
        }
        values
    } else {
        untraced.best()
    };
    Outcome {
        values,
        mix,
        attempted,
        failed: failed.iter().sum::<usize>() as u64,
    }
}
