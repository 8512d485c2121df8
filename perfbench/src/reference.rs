//! The machine-speed reference: a fixed computation, owned by the benchmark
//! and independent of the simulator, timed before the first workload batch
//! and after every batch.
//!
//! On a shared host the same binary runs up to a third slower for minutes at
//! a time while neighbours load the core. The reference slows with it, so
//! every timing of a batch is scaled by `REFERENCE_NS / reference time`:
//! timings are reported at the speed of a machine on which the reference
//! takes [`REFERENCE_NS`]. A change to the simulator cannot move the
//! reference, so whatever it gains or loses shows in full.

use std::collections::BTreeMap;
use std::time::Instant;

/// The reference's time on the machine the bounds were set on (2 shared
/// vCPUs of an Intel Xeon host, uncontended), nanoseconds.
pub const REFERENCE_NS: f64 = 4.0e6;

/// Times the reference computation: the fastest of three repetitions, so an
/// interrupt inside one does not count.
pub fn reference_ns() -> f64 {
    (0..3).map(|_| once()).min().expect("three repetitions") as f64
}

/// The reference's work has the simulator's shape: ordered-map inserts and
/// lookups, small vector allocations, a sort.
fn once() -> u64 {
    let started = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for _ in 0..20_000 {
        let key = next() % 8_192;
        map.entry(key).or_default().push(next());
    }
    let mut values: Vec<u64> = map.values().flatten().copied().collect();
    values.sort_unstable();
    let mut sum = values.iter().fold(0u64, |acc, v| acc.wrapping_add(*v));
    for _ in 0..20_000 {
        if let Some(list) = map.get(&(next() % 8_192)) {
            sum = sum.wrapping_add(list.len() as u64);
        }
    }
    std::hint::black_box(sum);
    started.elapsed().as_nanos() as u64
}
