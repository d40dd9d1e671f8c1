//! The benchmark's metric catalogue — the single source the JSON output,
//! `--describe` and the consistency check against `BENCHMARK.json` use.

use iotlan_core::util::json::{self, Value};
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 3] = ["idle_stream", "control_unicast", "reproduce"];

/// One metric: its name, unit, which direction is better, and — for the
/// per-layer metrics — the end-to-end metric it should move and the
/// workloads on which it should move it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const SIM: &str = "idle_stream control_unicast";
const IDLE: &str = "idle_stream";
const CONTROL: &str = "control_unicast";
const REPRO: &str = "reproduce";
const ALL: &str = "idle_stream control_unicast reproduce";

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", "", ALL),
    m("wall_s", "s", "lower", "", ALL),
    m("frames_per_s", "1/s", "higher", "", ALL),
    m("sim_speed", "s/s", "higher", "", ALL),
    m("peak_heap_mb", "MB", "lower", "", ALL),
    m("state_mb", "MB", "lower", "", ALL),
    m("checks_ok_frac", "frac", "higher", "", ALL),
];

/// Reported by every traced run (`--trace 1`). A layer a workload does not
/// call reads 0 on that workload.
pub const PER_LAYER: &[Metric] = &[
    m("netsim.run.busy_s", "s", "lower", "frames_per_s", SIM),
    m("netsim.self_s", "s", "lower", "frames_per_s", CONTROL),
    m("netsim.frames_sent", "count", "lower", "frames_per_s", SIM),
    m("netsim.deliveries", "count", "lower", "frames_per_s", IDLE),
    m("netsim.fanout", "ratio", "lower", "frames_per_s", IDLE),
    m(
        "netsim.mcast_frame_share",
        "frac",
        "lower",
        "frames_per_s",
        IDLE,
    ),
    m(
        "netsim.mcast_delivery_share",
        "frac",
        "lower",
        "frames_per_s",
        IDLE,
    ),
    m(
        "devices.on_frame.calls",
        "count",
        "lower",
        "frames_per_s sim_speed",
        SIM,
    ),
    m(
        "devices.on_frame.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        SIM,
    ),
    m(
        "devices.on_frame.mcast.calls",
        "count",
        "lower",
        "frames_per_s sim_speed",
        IDLE,
    ),
    m(
        "devices.on_frame.mcast.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        IDLE,
    ),
    m(
        "devices.on_frame.mcast.ns_per_call",
        "ns",
        "lower",
        "frames_per_s sim_speed",
        IDLE,
    ),
    m(
        "devices.on_frame.ucast.calls",
        "count",
        "lower",
        "frames_per_s sim_speed",
        CONTROL,
    ),
    m(
        "devices.on_frame.ucast.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        CONTROL,
    ),
    m(
        "devices.on_frame.mdns.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        IDLE,
    ),
    m(
        "devices.on_frame.ssdp.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        IDLE,
    ),
    m(
        "devices.on_frame.bcast.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        IDLE,
    ),
    m(
        "devices.on_timer.calls",
        "count",
        "lower",
        "frames_per_s sim_speed",
        SIM,
    ),
    m(
        "devices.on_timer.busy_s",
        "s",
        "lower",
        "frames_per_s sim_speed",
        SIM,
    ),
    m(
        "router.on_frame.calls",
        "count",
        "lower",
        "frames_per_s",
        SIM,
    ),
    m("router.on_frame.busy_s", "s", "lower", "frames_per_s", SIM),
    m(
        "honeypot.on_frame.calls",
        "count",
        "lower",
        "frames_per_s",
        SIM,
    ),
    m(
        "honeypot.on_frame.busy_s",
        "s",
        "lower",
        "frames_per_s",
        SIM,
    ),
    m(
        "honeypot.interactions",
        "count",
        "higher",
        "frames_per_s",
        SIM,
    ),
    m("stream.on_frame.calls", "count", "lower", "wall_s", IDLE),
    m("stream.on_frame.busy_s", "s", "lower", "wall_s", IDLE),
    m("stream.finish_s", "s", "lower", "wall_s", IDLE),
    m("stream.views_s", "s", "lower", "wall_s", IDLE),
    m(
        "stream.state_peak_bytes",
        "bytes",
        "lower",
        "state_mb",
        IDLE,
    ),
    m(
        "wire.dissect.ns_per_frame",
        "ns",
        "lower",
        "wall_s",
        "control_unicast reproduce",
    ),
    m(
        "wire.pcap.write_s",
        "s",
        "lower",
        "wall_s",
        "control_unicast reproduce",
    ),
    m("classify.flow_table_s", "s", "lower", "wall_s", REPRO),
    m("classify.crossval_s", "s", "lower", "wall_s", REPRO),
    m("classify.crossval_folds_s", "s", "lower", "wall_s", REPRO),
    m("analysis.fig1_s", "s", "lower", "wall_s", REPRO),
    m("analysis.fig2_s", "s", "lower", "wall_s", REPRO),
    m("analysis.fig4_s", "s", "lower", "wall_s", REPRO),
    m("analysis.table1_s", "s", "lower", "wall_s", REPRO),
    m("analysis.table3_s", "s", "lower", "wall_s", REPRO),
    m("analysis.table4_s", "s", "lower", "wall_s", REPRO),
    m("analysis.table5_s", "s", "lower", "wall_s", REPRO),
    m("analysis.sec51_s", "s", "lower", "wall_s", REPRO),
    m("analysis.sec6_s", "s", "lower", "wall_s", REPRO),
    m("analysis.appd1_s", "s", "lower", "wall_s", REPRO),
    m(
        "analysis.periodicity.groups",
        "count",
        "higher",
        "wall_s",
        REPRO,
    ),
    m("scan.catalog_s", "s", "lower", "wall_s", REPRO),
    m("scan.vulns_s", "s", "lower", "wall_s", REPRO),
    m("scan.probe.calls", "count", "lower", "wall_s", CONTROL),
    m("scan.probe.busy_s", "s", "lower", "wall_s", CONTROL),
    m(
        "scan.probe.agree_frac",
        "frac",
        "higher",
        "checks_ok_frac",
        CONTROL,
    ),
    m("inspector.dataset_s", "s", "lower", "wall_s", REPRO),
    m("inspector.table2_s", "s", "lower", "wall_s", REPRO),
    m("inspector.crowd_estimate_s", "s", "lower", "wall_s", REPRO),
    m("inspector.score_s", "s", "lower", "wall_s", REPRO),
    m("apps.run_app_tests_s", "s", "lower", "setup_s", REPRO),
    m("apps.report_s", "s", "lower", "setup_s", REPRO),
    m("pool.regions", "count", "lower", "wall_s", REPRO),
    m("pool.tasks", "count", "lower", "wall_s", REPRO),
    m("pool.busy_s", "s", "lower", "wall_s", REPRO),
    m("pool.utilization", "frac", "higher", "wall_s", REPRO),
    m("core.lab.new_s", "s", "lower", "setup_s", ALL),
    m("trace.overhead_frac", "frac", "lower", "", ALL),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The JSON object of one run: `metrics` holds every metric of `catalogue`
/// (a layer the workload did not call reads 0), by name with its unit.
pub fn result_line(
    catalogue: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    for name in values.keys() {
        assert!(
            catalogue.iter().any(|metric| metric.name == *name),
            "metric {name} is not in the catalogue"
        );
    }
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|metric| {
            let value = values.get(metric.name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "{} is not finite: {value}", metric.name);
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Check that `BENCHMARK.json` lists exactly this catalogue (names, units,
/// directions, in order) and these workloads.
pub fn check_benchmark_json(text: &str) -> Result<(), String> {
    let doc = json::from_str(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let names = |key: &str| -> Result<Vec<(String, String, String)>, String> {
        let list = doc
            .get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))?;
        Ok(list
            .iter()
            .map(|entry| {
                let field = |f: &str| {
                    entry
                        .get(f)
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect())
    };
    let expect = |catalogue: &[Metric]| -> Vec<(String, String, String)> {
        catalogue
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect()
    };
    if names("end_to_end")? != expect(END_TO_END) {
        return Err("BENCHMARK.json end_to_end differs from the benchmark's catalogue".into());
    }
    if names("per_layer")? != expect(PER_LAYER) {
        return Err("BENCHMARK.json per_layer differs from the benchmark's catalogue".into());
    }
    let workloads: Vec<String> = names("workloads")?.into_iter().map(|(n, _, _)| n).collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    Ok(())
}

/// `--describe`: every metric by name and unit, with the per-layer claim map.
pub fn describe() -> String {
    let mut out = String::from("end-to-end (untraced runs, --trace 0):\n");
    for metric in END_TO_END {
        out.push_str(&format!(
            "  {:<36} {:<6} {:<7} {}\n",
            metric.name, metric.unit, metric.better, metric.on
        ));
    }
    out.push_str("per-layer (traced runs, --trace 1): name unit better | moves | on\n");
    for metric in PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<6} {:<7} | {:<22} | {}\n",
            metric.name, metric.unit, metric.better, metric.moves, metric.on
        ));
    }
    out
}
