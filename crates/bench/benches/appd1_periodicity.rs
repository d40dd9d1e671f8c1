//! Appendix D.1: DFT+autocorrelation periodicity of discovery traffic.
//!
//! Besides the `{"type":"bench",…}` median, emits a
//! `{"type":"throughput",…}` JSON line with the groups analyzed per wall
//! second on `bench_lab` (fastest of three passes; one with `--quick`), for
//! the trajectory recorded by `scripts/bench_perf.sh`.

use iotlan_bench::bench_lab;
use iotlan_core::analysis::periodicity;
use iotlan_core::experiments;
use iotlan_util::bench::Criterion;
use iotlan_util::json;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let lab = bench_lab();
    let appd1 = experiments::appd1_periodicity(&lab);
    println!("{}", appd1.render());
    let table = lab.flow_table();
    c.bench_function("appd1/periodicity_analysis", |b| {
        b.iter(|| periodicity::analyze_periodicity(&table))
    });

    // Machine-readable throughput line: (source, destination, protocol)
    // groups through the detector chain per wall second.
    let mut fastest = f64::INFINITY;
    let mut groups = 0;
    for _ in 0..if quick { 1 } else { 3 } {
        let start = Instant::now();
        groups = periodicity::analyze_periodicity(&table).groups.len();
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    let mut line = json::Map::new();
    line.insert("type".into(), json::Value::from("throughput"));
    line.insert("id".into(), json::Value::from("appd1_periodicity"));
    line.insert("groups".into(), json::Value::from(groups as u64));
    line.insert(
        "groups_per_sec".into(),
        json::Value::from(groups as f64 / fastest.max(1e-9)),
    );
    println!("{}", json::Value::Object(line));
}

iotlan_util::bench_main!(bench);
