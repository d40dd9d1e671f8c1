//! Outside-in per-layer timing for the traced run.
//!
//! Nothing here reaches inside the simulator: [`mirror_network`] rebuilds
//! the network `Lab::new` builds, from the same public constructors and in
//! the same order, with every node wrapped in a [`TimedNode`] that times
//! its callbacks; [`TimedSink`] does the same for a `FrameSink`. The
//! wrappers forward `as_any`, so code that downcasts nodes (the honeypot
//! log, the router's DHCP observations) sees the real node.

use iotlan_core::devices::Device;
use iotlan_core::honeypot::Honeypot;
use iotlan_core::netsim::router::Router;
use iotlan_core::netsim::{Context, FrameSink, Network, Node, SimTime};
use iotlan_core::wire::ethernet::EthernetAddress;
use iotlan_core::Lab;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Calls into one layer and the wall time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub nanos: u64,
}

impl Tally {
    fn add(&mut self, nanos: u64) {
        self.calls += 1;
        self.nanos += nanos;
    }

    pub fn secs(&self) -> f64 {
        self.nanos as f64 * 1e-9
    }
}

/// Which layer a wrapped node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Router,
    Device,
    Honeypot,
}

/// Destination MACs of the discovery groups, IPv4 and IPv6.
const MDNS_MACS: [[u8; 6]; 2] = [
    [0x01, 0x00, 0x5e, 0x00, 0x00, 0xfb],
    [0x33, 0x33, 0x00, 0x00, 0x00, 0xfb],
];
const SSDP_MACS: [[u8; 6]; 2] = [
    [0x01, 0x00, 0x5e, 0x7f, 0xff, 0xfa],
    [0x33, 0x33, 0x00, 0x00, 0x00, 0x0c],
];
const BROADCAST_MAC: [u8; 6] = [0xff; 6];

/// Every callback the wrapped nodes received, by layer and frame kind.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub device_mcast: Tally,
    pub device_ucast: Tally,
    pub device_mdns: Tally,
    pub device_ssdp: Tally,
    pub device_bcast: Tally,
    pub device_timer: Tally,
    pub router_frame: Tally,
    pub honeypot_frame: Tally,
    /// `on_start` of every node and the timers of the router and honeypot.
    pub other: Tally,
    /// `on_frame` calls on any node, and those of multicast frames.
    pub deliveries: u64,
    pub mcast_deliveries: u64,
}

impl Ledger {
    fn on_frame(&mut self, role: Role, frame: &[u8], nanos: u64) {
        let dst: [u8; 6] = frame[..6]
            .try_into()
            .expect("delivered frames hold a header");
        let multicast = dst[0] & 1 == 1;
        self.deliveries += 1;
        self.mcast_deliveries += u64::from(multicast);
        match role {
            Role::Router => self.router_frame.add(nanos),
            Role::Honeypot => self.honeypot_frame.add(nanos),
            Role::Device if !multicast => self.device_ucast.add(nanos),
            Role::Device => {
                self.device_mcast.add(nanos);
                if MDNS_MACS.contains(&dst) {
                    self.device_mdns.add(nanos);
                } else if SSDP_MACS.contains(&dst) {
                    self.device_ssdp.add(nanos);
                } else if dst == BROADCAST_MAC {
                    self.device_bcast.add(nanos);
                }
            }
        }
    }

    pub fn device_frames(&self) -> Tally {
        Tally {
            calls: self.device_mcast.calls + self.device_ucast.calls,
            nanos: self.device_mcast.nanos + self.device_ucast.nanos,
        }
    }

    /// Wall time spent inside any wrapped node callback.
    pub fn callback_nanos(&self) -> u64 {
        self.device_frames().nanos
            + self.device_timer.nanos
            + self.router_frame.nanos
            + self.honeypot_frame.nanos
            + self.other.nanos
    }
}

pub type SharedLedger = Rc<RefCell<Ledger>>;

/// A node whose callbacks are timed into a shared [`Ledger`].
pub struct TimedNode {
    inner: Box<dyn Node>,
    mac: EthernetAddress,
    role: Role,
    ledger: SharedLedger,
}

impl TimedNode {
    pub fn wrap(inner: Box<dyn Node>, role: Role, ledger: &SharedLedger) -> Box<dyn Node> {
        Box::new(TimedNode {
            mac: inner.mac(),
            inner,
            role,
            ledger: Rc::clone(ledger),
        })
    }
}

impl Node for TimedNode {
    fn mac(&self) -> EthernetAddress {
        self.mac
    }

    fn on_start(&mut self, ctx: &mut Context) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        let nanos = start.elapsed().as_nanos() as u64;
        self.ledger.borrow_mut().other.add(nanos);
    }

    fn on_frame(&mut self, ctx: &mut Context, frame: &[u8]) {
        let start = Instant::now();
        self.inner.on_frame(ctx, frame);
        let nanos = start.elapsed().as_nanos() as u64;
        self.ledger.borrow_mut().on_frame(self.role, frame, nanos);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        let start = Instant::now();
        self.inner.on_timer(ctx, token);
        let nanos = start.elapsed().as_nanos() as u64;
        let mut ledger = self.ledger.borrow_mut();
        match self.role {
            Role::Device => ledger.device_timer.add(nanos),
            Role::Router | Role::Honeypot => ledger.other.add(nanos),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The network `Lab::new` assembles — router, the catalog's devices in
/// catalog order, then the honeypot — with every node timed. Node ids and
/// the network seed match the lab's, so the run replays the same events.
pub fn mirror_network(lab: &Lab, ledger: &SharedLedger) -> Network {
    let mut network = Network::new(lab.config.seed);
    network.add_node(TimedNode::wrap(
        Box::new(Router::new()),
        Role::Router,
        ledger,
    ));
    for device in &lab.catalog.devices {
        let node = Box::new(Device::new(device.clone()));
        network.add_node(TimedNode::wrap(node, Role::Device, ledger));
    }
    if let Some(honeypot) = lab.honeypot() {
        let endpoint = honeypot.endpoint();
        let node = Box::new(Honeypot::new(endpoint.mac, endpoint.ip));
        network.add_node(TimedNode::wrap(node, Role::Honeypot, ledger));
    }
    network
}

/// A `FrameSink` whose `on_frame` calls are timed.
pub struct TimedSink<S> {
    pub inner: S,
    pub tally: Tally,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S) -> TimedSink<S> {
        TimedSink {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<S: FrameSink> FrameSink for TimedSink<S> {
    fn on_frame(&mut self, time: SimTime, data: &[u8]) {
        let start = Instant::now();
        self.inner.on_frame(time, data);
        self.tally.add(start.elapsed().as_nanos() as u64);
    }
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}
