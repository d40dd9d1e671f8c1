//! Periodicity analysis (Appendix D.1): "we use an approach that combines
//! Discrete Fourier Transformation (DFT) and autocorrelation. We check
//! periodicity for traffic from each unique (destination, protocol) tuple"
//! — ports are excluded "as the randomization of port number is prevalent
//! on IoT devices".
//!
//! Findings to reproduce: ~88% of discovery-protocol flows are periodic,
//! ~580 periodic (destination, protocol) groups, ~6.2 per device.

use iotlan_classify::flow::{Flow, FlowTable};
use iotlan_classify::rules::{classify_with_rules, paper_rules};
use iotlan_classify::Label;
use iotlan_wire::ethernet::EthernetAddress;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Key for the paper's periodicity grouping: (source device, destination,
/// protocol) — ports deliberately ignored.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GroupKey {
    pub src_mac: EthernetAddress,
    /// Destination: IP string or "multicast"/"broadcast" bucket.
    pub destination: String,
    pub protocol: String,
}

/// One analyzed group.
#[derive(Debug, Clone)]
pub struct Group {
    pub key: GroupKey,
    pub events: Vec<f64>,
    /// Enough events (>=4) to assess periodicity at all.
    pub decidable: bool,
    pub periodic: bool,
    /// Detected period in seconds (when periodic).
    pub period_secs: Option<f64>,
    /// Whether the protocol is a discovery protocol.
    pub discovery: bool,
}

impl Group {
    /// Analyze one group from its sorted event times with [`detect`].
    pub fn new(key: GroupKey, events: Vec<f64>) -> Group {
        let period = detect(&events);
        Group {
            decidable: events.len() >= 4,
            periodic: period.is_some(),
            period_secs: period,
            discovery: DISCOVERY_PROTOCOLS.contains(&key.protocol.as_str()),
            key,
            events,
        }
    }
}

/// Aggregate report.
#[derive(Debug, Clone)]
pub struct PeriodicityReport {
    pub groups: Vec<Group>,
}

impl PeriodicityReport {
    /// Fraction of *decidable* discovery groups flagged periodic (paper
    /// ≈ 88%). Groups with fewer than four events cannot be assessed and
    /// are excluded, as in any spectral method.
    pub fn discovery_periodic_fraction(&self) -> f64 {
        let (mut decidable, mut periodic) = (0usize, 0usize);
        for group in self.groups.iter().filter(|g| g.discovery && g.decidable) {
            decidable += 1;
            periodic += usize::from(group.periodic);
        }
        if decidable == 0 {
            return 0.0;
        }
        periodic as f64 / decidable as f64
    }

    /// Count of periodic groups (paper ≈ 580).
    pub fn periodic_group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.periodic).count()
    }

    /// Periodic groups per device (paper ≈ 6.2).
    pub fn periodic_groups_per_device(&self) -> f64 {
        let mut devices: std::collections::BTreeSet<EthernetAddress> =
            std::collections::BTreeSet::new();
        for group in &self.groups {
            devices.insert(group.key.src_mac);
        }
        if devices.is_empty() {
            return 0.0;
        }
        self.periodic_group_count() as f64 / devices.len() as f64
    }
}

/// Protocols the paper treats as discovery traffic (App. D.1).
const DISCOVERY_PROTOCOLS: &[Label] = &[
    "mDNS", "SSDP", "ARP", "DHCP", "ICMPv6", "TuyaLP", "TPLINK_SHP", "LIFX", "COAP", "IGMP",
];

/// The App. D.1 detector chain over one group's sorted event times. The
/// paper combines DFT and autocorrelation; a group is periodic when any of
/// the three detectors accepts (regularity converges fastest, so it runs
/// first). Returns the period in seconds.
pub fn detect(events: &[f64]) -> Option<f64> {
    interval_regularity_periodic(events)
        .or_else(|| autocorrelation_periodic(events))
        .or_else(|| dft_periodic(events))
}

/// Autocorrelation-based periodicity test on event times (seconds).
///
/// Computes the normalized autocorrelation of the binned event series and
/// accepts when some non-zero lag exceeds `0.5`. Robust to jitter because
/// the bin width adapts to the median inter-arrival.
///
/// The series is mostly empty bins, so each lag's centred sum is expanded
/// as `cross[lag] - mean·(Σ head + Σ tail) + (bins - lag)·mean²`: the cross
/// products come from pairs of occupied bins closer than the largest lag,
/// and the head/tail sums from a prefix sum. Cost is O(bins + pairs)
/// instead of O(bins²), never more.
pub fn autocorrelation_periodic(events: &[f64]) -> Option<f64> {
    if events.len() < 4 {
        return None;
    }
    let mut intervals: Vec<f64> = events.windows(2).map(|w| w[1] - w[0]).collect();
    intervals.retain(|&i| i > 0.0);
    if intervals.is_empty() {
        return None;
    }
    intervals.sort_by(f64::total_cmp);
    let median = intervals[intervals.len() / 2];
    if median <= 0.0 {
        return None;
    }
    // Bin the series at half the median interval.
    let bin = (median / 2.0).max(1e-3);
    let span = events.last().unwrap() - events[0];
    let bins = ((span / bin).ceil() as usize + 1).min(4096);
    let mut series = vec![0.0f64; bins];
    for &t in events {
        let index = (((t - events[0]) / bin) as usize).min(bins - 1);
        series[index] += 1.0;
    }
    let mean = series.iter().sum::<f64>() / bins as f64;
    let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var == 0.0 {
        return None;
    }
    let max_lag = bins / 2;
    let occupied = occupied_bins(&series);
    let mut cross = vec![0.0f64; max_lag];
    for (a, &(i, count_i)) in occupied.iter().enumerate() {
        for &(j, count_j) in &occupied[a + 1..] {
            let lag = j - i;
            if lag >= max_lag {
                break;
            }
            cross[lag] += count_i * count_j;
        }
    }
    let mut prefix = Vec::with_capacity(bins + 1);
    let mut running = 0.0f64;
    prefix.push(running);
    for &count in &series {
        running += count;
        prefix.push(running);
    }
    let total = running;
    let mut best_lag = 0usize;
    let mut best = 0.0f64;
    for lag in 1..max_lag {
        let acc = cross[lag] - mean * (prefix[bins - lag] + total - prefix[lag])
            + (bins - lag) as f64 * mean * mean;
        let r = acc / var;
        if r > best {
            best = r;
            best_lag = lag;
        }
    }
    if best > 0.5 && best_lag > 0 {
        Some(best_lag as f64 * bin)
    } else {
        None
    }
}

/// The `(index, count)` of every non-empty bin, in index order.
fn occupied_bins(series: &[f64]) -> Vec<(usize, f64)> {
    series
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0.0)
        .map(|(index, &count)| (index, count))
        .collect()
}

/// Inter-arrival regularity test: a group whose intervals have a low
/// coefficient of variation is periodic with the median interval as the
/// period. This is the short-series workhorse — the paper's five-day
/// capture gave every group hundreds of events; shorter captures need a
/// detector that converges by four.
pub fn interval_regularity_periodic(events: &[f64]) -> Option<f64> {
    if events.len() < 4 {
        return None;
    }
    let intervals: Vec<f64> = events.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = intervals.iter().sum::<f64>() / intervals.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    let var = intervals
        .iter()
        .map(|i| (i - mean) * (i - mean))
        .sum::<f64>()
        / intervals.len() as f64;
    let cv = var.sqrt() / mean;
    if cv < 0.25 {
        Some(mean)
    } else {
        None
    }
}

/// Bins of the DFT series; the spectrum is taken at k = 1..DFT_BINS/2.
const DFT_BINS: usize = 1024;

/// `(cos, sin)` of 2πj/DFT_BINS for j in 0..DFT_BINS: every twiddle factor
/// the DFT needs, read at index (n·k) mod DFT_BINS.
fn twiddles() -> &'static [(f64, f64)] {
    static TABLE: OnceLock<Vec<(f64, f64)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..DFT_BINS)
            .map(|j| {
                let phase = 2.0 * std::f64::consts::PI * j as f64 / DFT_BINS as f64;
                (phase.cos(), phase.sin())
            })
            .collect()
    })
}

/// DFT-based dominant-period detection: a direct DFT of the event series
/// binned into 1024 bins over its span, evaluated at k = 1..511. Returns the
/// dominant period when its spectral power exceeds ten times the mean power.
///
/// The transform sums only over occupied bins, on the raw counts: for
/// k = 1..511 the twiddles of all bins sum to zero, so centring the series
/// on its mean would change nothing. Twiddles come from a shared table.
/// Cost is (occupied bins) × 511 multiply-adds.
pub fn dft_periodic(events: &[f64]) -> Option<f64> {
    if events.len() < 4 {
        return None;
    }
    let span = events.last().unwrap() - events[0];
    if span <= 0.0 {
        return None;
    }
    let bin = span / DFT_BINS as f64;
    let mut series = vec![0.0f64; DFT_BINS];
    for &t in events {
        let index = (((t - events[0]) / bin) as usize).min(DFT_BINS - 1);
        series[index] += 1.0;
    }
    let occupied = occupied_bins(&series);
    // Every bin equal: the centred series and its spectrum are exactly zero,
    // which the sum over raw counts would only approximate.
    if occupied.len() == DFT_BINS && occupied.iter().all(|&(_, count)| count == occupied[0].1) {
        return None;
    }
    let table = twiddles();
    let mut best_k = 0usize;
    let mut best_power = 0.0f64;
    let mut total_power = 0.0f64;
    for k in 1..DFT_BINS / 2 {
        let (mut re, mut im) = (0.0f64, 0.0f64);
        for &(n, count) in &occupied {
            let (cos, sin) = table[(n * k) & (DFT_BINS - 1)];
            re += count * cos;
            im += count * sin;
        }
        let power = re * re + im * im;
        total_power += power;
        if power > best_power {
            best_power = power;
            best_k = k;
        }
    }
    if best_k == 0 || total_power == 0.0 {
        return None;
    }
    let mean_power = total_power / (DFT_BINS / 2 - 1) as f64;
    if best_power > 10.0 * mean_power {
        Some(span / best_k as f64)
    } else {
        None
    }
}

/// Analyze a flow table, grouping by (source, destination, protocol).
pub fn analyze_periodicity(table: &FlowTable) -> PeriodicityReport {
    let rules = paper_rules();
    let labels: Vec<Label> = table
        .flows
        .iter()
        .map(|flow| classify_with_rules(flow, &rules))
        .collect();
    let groups = group_events(table, &labels)
        .into_iter()
        .map(|(key, events)| Group::new(key, events))
        .collect();
    PeriodicityReport { groups }
}

/// Each (source, destination, protocol) group's arrival times in seconds,
/// sorted. `labels[i]` is the classification of `table.flows[i]`; the
/// destination is the flow's first-frame bucket: "broadcast",
/// "multicast:<ip>", or the unicast IP (the MAC for non-IP flows).
pub fn group_events(table: &FlowTable, labels: &[Label]) -> BTreeMap<GroupKey, Vec<f64>> {
    let mut groups: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
    for (flow, label) in table.flows.iter().zip(labels) {
        let key = GroupKey {
            src_mac: flow.key.src_mac,
            destination: destination_bucket(flow),
            protocol: label.to_string(),
        };
        let entry = groups.entry(key).or_default();
        entry.extend(flow.timestamps.iter().map(|t| t.as_secs_f64()));
    }
    for events in groups.values_mut() {
        events.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    groups
}

fn destination_bucket(flow: &Flow) -> String {
    if flow.dst_mac.is_broadcast() {
        "broadcast".into()
    } else if flow.dst_mac.is_multicast() {
        match flow.key.dst_ip {
            Some(ip) => format!("multicast:{ip}"),
            None => "multicast".into(),
        }
    } else {
        match flow.key.dst_ip {
            Some(ip) => ip.to_string(),
            None => flow.dst_mac.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotlan_util::check::Gen;

    /// Reference for [`autocorrelation_periodic`]: the O(bins²) dense sum
    /// over the mean-centred series.
    fn autocorrelation_periodic_dense(events: &[f64]) -> Option<f64> {
        if events.len() < 4 {
            return None;
        }
        let mut intervals: Vec<f64> = events.windows(2).map(|w| w[1] - w[0]).collect();
        intervals.retain(|&i| i > 0.0);
        if intervals.is_empty() {
            return None;
        }
        intervals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = intervals[intervals.len() / 2];
        if median <= 0.0 {
            return None;
        }
        let bin = (median / 2.0).max(1e-3);
        let span = events.last().unwrap() - events[0];
        let bins = ((span / bin).ceil() as usize + 1).min(4096);
        let mut series = vec![0.0f64; bins];
        for &t in events {
            let index = (((t - events[0]) / bin) as usize).min(bins - 1);
            series[index] += 1.0;
        }
        let mean = series.iter().sum::<f64>() / bins as f64;
        let var: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
        if var == 0.0 {
            return None;
        }
        let max_lag = bins / 2;
        let mut best_lag = 0usize;
        let mut best = 0.0f64;
        for lag in 1..max_lag {
            let mut acc = 0.0;
            for i in 0..bins - lag {
                acc += (series[i] - mean) * (series[i + lag] - mean);
            }
            let r = acc / var;
            if r > best {
                best = r;
                best_lag = lag;
            }
        }
        if best > 0.5 && best_lag > 0 {
            Some(best_lag as f64 * bin)
        } else {
            None
        }
    }

    /// Reference for [`dft_periodic`]: the dense DFT of the mean-centred
    /// series, one `cos`/`sin` pair per bin per frequency.
    fn dft_periodic_dense(events: &[f64]) -> Option<f64> {
        if events.len() < 4 {
            return None;
        }
        let span = events.last().unwrap() - events[0];
        if span <= 0.0 {
            return None;
        }
        let bin = span / DFT_BINS as f64;
        let mut series = vec![0.0f64; DFT_BINS];
        for &t in events {
            let index = (((t - events[0]) / bin) as usize).min(DFT_BINS - 1);
            series[index] += 1.0;
        }
        let mean = series.iter().sum::<f64>() / DFT_BINS as f64;
        for value in &mut series {
            *value -= mean;
        }
        let mut best_k = 0usize;
        let mut best_power = 0.0f64;
        let mut total_power = 0.0f64;
        for k in 1..DFT_BINS / 2 {
            let omega = 2.0 * std::f64::consts::PI * k as f64 / DFT_BINS as f64;
            let (mut re, mut im) = (0.0f64, 0.0f64);
            for (n, &v) in series.iter().enumerate() {
                let phase = omega * n as f64;
                re += v * phase.cos();
                im += v * phase.sin();
            }
            let power = re * re + im * im;
            total_power += power;
            if power > best_power {
                best_power = power;
                best_k = k;
            }
        }
        if best_k == 0 || total_power == 0.0 {
            return None;
        }
        let mean_power = total_power / (DFT_BINS / 2 - 1) as f64;
        if best_power > 10.0 * mean_power {
            Some(span / best_k as f64)
        } else {
            None
        }
    }

    /// A sorted event series of one of the shapes the kernels must agree
    /// on, with its shape's name.
    fn arbitrary_series(g: &mut Gen) -> (&'static str, Vec<f64>) {
        let uniform = |g: &mut Gen, lo: f64, hi: f64| lo + (hi - lo) * g.rng().gen_f64();
        let shape = g.int_in(0..7u8);
        let mut events: Vec<f64> = match shape {
            // Jittered periodic, period from milliseconds to ten minutes.
            0 => {
                let period = 10f64.powf(uniform(g, -3.0, 2.8));
                let jitter = uniform(g, 0.0, 0.5) * period;
                let count = 4 + g.len(200);
                (0..count)
                    .map(|i| i as f64 * period + uniform(g, -jitter, jitter))
                    .collect()
            }
            // Random arrivals with exponential gaps.
            1 => {
                let scale = 10f64.powf(uniform(g, -2.0, 2.0));
                let mut t = uniform(g, 0.0, 1000.0);
                (0..4 + g.len(200))
                    .map(|_| {
                        t += -scale * (1.0 - g.rng().gen_f64()).ln();
                        t
                    })
                    .collect()
            }
            // Bursts of near-simultaneous events, far apart.
            2 => {
                let mut out = Vec::new();
                let mut t = 0.0;
                for _ in 0..g.int_in(1..=8u32) {
                    t += uniform(g, 1.0, 3600.0);
                    for _ in 0..g.int_in(1..=30u32) {
                        out.push(t + uniform(g, 0.0, 0.05));
                    }
                }
                out
            }
            // Periodic on an exact grid, with duplicate timestamps and
            // several events per bin.
            3 => {
                let period = f64::from(g.int_in(1..=120u32));
                let mut out = Vec::new();
                for i in 0..4 + g.len(150) {
                    for _ in 0..g.int_in(1..=3u32) {
                        out.push(i as f64 * period);
                    }
                }
                out
            }
            // Fewer than four events.
            4 => (0..g.int_in(0..4usize))
                .map(|_| uniform(g, 0.0, 100.0))
                .collect(),
            // Every bin occupied: a micro-grid finer than the 1 ms
            // autocorrelation bin, one to three events per point. Either at
            // least 1024 points (every DFT bin), or past 4.1 s so the
            // autocorrelation series clamps to 4096 bins, all occupied.
            5 => {
                let (step, points) = if g.bool() {
                    (uniform(g, 1e-4, 1e-3), 1024 + g.len(1024))
                } else {
                    (uniform(g, 0.9e-3, 1e-3), 4600 + g.len(1000))
                };
                let mut out = Vec::new();
                for i in 0..points {
                    for _ in 0..g.int_in(1..=3u32) {
                        out.push(i as f64 * step);
                    }
                }
                out
            }
            // A dense regular head and a far tail: hits the 4096-bin clamp.
            _ => {
                let step = uniform(g, 0.01, 5.0);
                let mut out: Vec<f64> = (0..4 + g.len(100)).map(|i| i as f64 * step).collect();
                let last = *out.last().unwrap();
                for _ in 0..g.int_in(1..=5u32) {
                    out.push(last + step * uniform(g, 5000.0, 50000.0));
                }
                out
            }
        };
        events.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let name = [
            "periodic", "random", "bursty", "grid", "short", "dense", "clamped",
        ][usize::from(shape)];
        (name, events)
    }

    iotlan_util::props! {
        /// The sparse kernels return bit-identical verdicts and periods to
        /// the dense reference sums.
        fn sparse_kernels_match_dense_references(g) {
            let (shape, events) = arbitrary_series(g);
            assert_eq!(
                autocorrelation_periodic(&events).map(f64::to_bits),
                autocorrelation_periodic_dense(&events).map(f64::to_bits),
                "autocorrelation differs on a {shape} series of {} events",
                events.len()
            );
            assert_eq!(
                dft_periodic(&events).map(f64::to_bits),
                dft_periodic_dense(&events).map(f64::to_bits),
                "DFT differs on a {shape} series of {} events",
                events.len()
            );
        }
    }

    #[test]
    fn constant_dft_series_has_no_period() {
        // 1024 evenly spaced points fill every DFT bin equally. At eleven
        // events a point, the rounding left in a sum over raw counts would
        // pass the 10× power test.
        let events: Vec<f64> = (0..1024)
            .flat_map(|i| std::iter::repeat_n(i as f64 * 0.5, 11))
            .collect();
        assert_eq!(dft_periodic_dense(&events), None);
        assert_eq!(dft_periodic(&events), None);
    }

    fn periodic_events(period: f64, count: usize, jitter: f64) -> Vec<f64> {
        // Deterministic pseudo-jitter.
        (0..count)
            .map(|i| {
                let j = ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5;
                i as f64 * period + j * jitter
            })
            .collect()
    }

    #[test]
    fn autocorrelation_detects_clean_period() {
        let events = periodic_events(20.0, 50, 0.0);
        let period = autocorrelation_periodic(&events).expect("periodic");
        assert!((period - 20.0).abs() < 2.0, "period {period}");
    }

    #[test]
    fn autocorrelation_tolerates_jitter() {
        let events = periodic_events(20.0, 60, 2.0);
        assert!(autocorrelation_periodic(&events).is_some());
    }

    #[test]
    fn random_events_not_periodic() {
        // Exponential-ish arrivals via deterministic scrambling.
        let mut t = 0.0;
        let events: Vec<f64> = (0..60)
            .map(|i| {
                t += 1.0 + ((i * 48271) % 97) as f64;
                t
            })
            .collect();
        assert!(autocorrelation_periodic(&events).is_none());
        assert!(dft_periodic(&events).is_none());
    }

    #[test]
    fn dft_detects_period() {
        let events = periodic_events(30.0, 64, 0.5);
        let period = dft_periodic(&events).expect("periodic");
        assert!((period - 30.0).abs() < 5.0, "period {period}");
    }

    #[test]
    fn regularity_detector() {
        let events = periodic_events(25.0, 6, 2.0);
        let period = interval_regularity_periodic(&events).expect("periodic");
        assert!((period - 25.0).abs() < 3.0, "period {period}");
        // Irregular arrivals rejected.
        let irregular = vec![0.0, 3.0, 50.0, 52.0, 120.0, 121.0];
        assert!(interval_regularity_periodic(&irregular).is_none());
    }

    #[test]
    fn too_few_events_undecided() {
        assert!(autocorrelation_periodic(&[1.0, 2.0]).is_none());
        assert!(interval_regularity_periodic(&[1.0, 2.0]).is_none());
        assert!(dft_periodic(&[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn grouping_ignores_ports() {
        use iotlan_classify::flow::FlowTable;
        use iotlan_netsim::stack::{self, Endpoint};
        use iotlan_netsim::SimTime;
        let src = Endpoint {
            mac: EthernetAddress([2, 0, 0, 0, 0, 1]),
            ip: std::net::Ipv4Addr::new(192, 168, 10, 2),
        };
        let mut table = FlowTable::default();
        // Same destination+protocol, rotating source ports: one group.
        let msearch = iotlan_wire::ssdp::Message::msearch("ssdp:all", 1).to_bytes();
        for i in 0..30u64 {
            let frame = stack::udp_multicast(
                src,
                std::net::Ipv4Addr::new(239, 255, 255, 250),
                40000 + (i as u16 * 7),
                1900,
                &msearch,
            );
            table.add_frame(SimTime::from_secs(i * 20), &frame);
        }
        let report = analyze_periodicity(&table);
        let ssdp_groups: Vec<&Group> = report
            .groups
            .iter()
            .filter(|g| g.key.protocol == "SSDP")
            .collect();
        assert_eq!(ssdp_groups.len(), 1, "ports must not split groups");
        assert!(ssdp_groups[0].periodic);
        let period = ssdp_groups[0].period_secs.unwrap();
        assert!((period - 20.0).abs() < 3.0, "period {period}");
        assert!(report.discovery_periodic_fraction() > 0.99);
    }
}
