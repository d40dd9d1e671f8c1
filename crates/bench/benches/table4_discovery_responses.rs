//! Table 4: discovery protocols and responses per device category.

use iotlan_util::bench::Criterion;
use iotlan_bench::bench_lab;
use iotlan_core::analysis::responses;
use iotlan_core::experiments;

fn bench(c: &mut Criterion) {
    let lab = bench_lab();
    let rows = experiments::table4_responses(&lab);
    println!("== Table 4 — discovery protocols and responses ==");
    println!("paper: Echo 3.65 disc / 1.82 resp / 9.47 devices; Google 4.0/3.0/5.14");
    println!("{}", responses::render(&rows));
    c.bench_function("table4/table4_responses", |b| {
        b.iter(|| experiments::table4_responses(&lab))
    });
}

iotlan_util::bench_main!(bench);
