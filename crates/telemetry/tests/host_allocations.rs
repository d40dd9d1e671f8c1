//! With the counting allocator installed, a manifest's host section
//! carries the process allocation count (the unit tests cover its absence
//! on the system allocator).

use iotlan_telemetry::Manifest;
use iotlan_util::alloc::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn allocations_reported_when_counting() {
    let mut manifest = Manifest::new("counted_run");
    manifest.attach_host_info();
    let full = manifest.to_json();
    let count = full["host"]["allocations"]
        .as_u64()
        .expect("allocation count present when counting");
    assert!(count > 0);
}
