//! Overhead budget for the observability layer.
//!
//! Runs the same fully-instrumented workload — a `Lab::fast()` idle
//! capture, whose inner loop crosses the netsim counters, capture gauges,
//! device counters and lab spans on every frame — twice: once with
//! telemetry enabled (the default) and once runtime-disabled via
//! `telemetry::set_enabled(false)`, which leaves only the per-call-site
//! `enabled()` load in place. The emitted `{"type":"overhead",…}` line is
//! the repo's pinned claim that instrumentation costs <5% of end-to-end
//! wall clock.
//!
//! A second line prices the raw counter hot path (increments/sec, enabled
//! vs disabled) so a regression in the metric primitives themselves is
//! visible before it is diluted by a full lab run.

use iotlan_core::{telemetry, Lab, LabConfig};
use iotlan_util::bench::Criterion;
use iotlan_util::json;
use std::time::Instant;

/// Median wall-clock nanoseconds over `reps` runs of `f`.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn emit_overhead(id: &str, enabled_ns: f64, disabled_ns: f64) {
    let mut line = json::Map::new();
    line.insert("type".into(), json::Value::from("overhead"));
    line.insert("id".into(), json::Value::from(id));
    line.insert("enabled_ns".into(), json::Value::from(enabled_ns));
    line.insert("disabled_ns".into(), json::Value::from(disabled_ns));
    line.insert(
        "overhead_pct".into(),
        json::Value::from((enabled_ns - disabled_ns) / disabled_ns.max(1.0) * 100.0),
    );
    println!("{}", json::Value::Object(line));
}

fn lab_idle_run() {
    // reset_all keeps the trace buffer bounded across reps (and costs the
    // same on both sides of the comparison).
    telemetry::reset_all();
    let mut lab = Lab::new(LabConfig::fast());
    lab.run_idle();
    std::hint::black_box(lab.network.capture.len());
}

fn counter_run(increments: u64) {
    for i in 0..increments {
        telemetry::counter!("bench.telemetry_hot").add(i & 1);
    }
}

fn bench(criterion: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let reps = if quick { 3 } else { 7 };
    let increments: u64 = if quick { 200_000 } else { 2_000_000 };

    // Harness-timed medians for trajectory tracking.
    let mut group = criterion.benchmark_group("perf_telemetry");
    group.bench_function("lab_idle_telemetry_on", |b| b.iter(lab_idle_run));
    telemetry::set_enabled(false);
    group.bench_function("lab_idle_telemetry_off", |b| b.iter(lab_idle_run));
    telemetry::set_enabled(true);
    group.finish();

    // Machine-readable overhead lines: end-to-end lab run…
    let enabled_ns = median_ns(reps, lab_idle_run);
    telemetry::set_enabled(false);
    let disabled_ns = median_ns(reps, lab_idle_run);
    telemetry::set_enabled(true);
    emit_overhead("lab_idle", enabled_ns, disabled_ns);

    // …and the raw counter primitive.
    let counter_enabled_ns = median_ns(reps, || counter_run(increments));
    telemetry::set_enabled(false);
    let counter_disabled_ns = median_ns(reps, || counter_run(increments));
    telemetry::set_enabled(true);
    emit_overhead("counter_increment", counter_enabled_ns, counter_disabled_ns);
    telemetry::reset_all();
}

iotlan_util::bench_main!(bench);
