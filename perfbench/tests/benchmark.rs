//! The benchmark's own checks: the timing wrapper changes no report, a
//! second seed changes the inputs and still passes every output check, and
//! `BENCHMARK.json` names exactly the workloads and metrics this program
//! prints. Run in release mode: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use perfbench::drive::RunStats;
use perfbench::timed::Timed;
use perfbench::trace;
use perfbench::workloads::{
    fuzz_grid, oneshot_inputs, oneshot_scenario, run_fuzz_case, soak_inputs, soak_scenario,
    soak_wal, stream_driver, stream_inputs, stream_scenario, Workload,
};
use perfbench::{END_TO_END, PER_LAYER};
use uba_bench::fuzz::{run_case, FuzzCase};
use uba_core::sim::{ConsensusFactory, TotalOrderFactory};
use uba_simnet::rng::derive_seed;

/// The soak's leak gate reads the process-wide count of live payload
/// allocations, so tests that run simulations take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn traced<R>(f: impl FnOnce() -> R) -> R {
    trace::set_enabled(true);
    let result = f();
    trace::set_enabled(false);
    result
}

#[test]
fn the_wrapper_leaves_every_report_unchanged() {
    let _serial = serial();
    let seed = derive_seed(1, 0);

    let plain = oneshot_scenario(seed)
        .build(ConsensusFactory::new(oneshot_inputs(seed)))
        .run()
        .unwrap();
    let wrapped = traced(|| {
        oneshot_scenario(seed)
            .build(Timed::<_, false>(ConsensusFactory::new(oneshot_inputs(
                seed,
            ))))
            .run()
            .unwrap()
    });
    assert_eq!(plain, wrapped, "oneshot");

    let inputs = stream_inputs(seed);
    let plain = stream_scenario(seed)
        .build(stream_driver(&inputs, |factory| factory))
        .run()
        .unwrap();
    let wrapped = traced(|| {
        stream_scenario(seed)
            .build(Timed::<_, true>(stream_driver(&inputs, Timed::<_, false>)))
            .run()
            .unwrap()
    });
    assert_eq!(plain, wrapped, "stream");

    let soak = |wrap: bool| {
        let inputs = soak_inputs(seed);
        let scenario = soak_scenario(seed, inputs.churn);
        let factory = TotalOrderFactory::new(inputs.plan);
        if wrap {
            traced(|| {
                scenario
                    .build(Timed::<_, false>(factory))
                    .wal_config(soak_wal())
                    .traffic_gc()
                    .run()
                    .unwrap()
            })
        } else {
            scenario
                .build(factory)
                .wal_config(soak_wal())
                .traffic_gc()
                .run()
                .unwrap()
        }
    };
    let plain = soak(false);
    assert!(plain.recovery.is_some(), "the soak restarts nodes");
    assert_eq!(plain, soak(true), "soak");
}

#[test]
fn fuzz_runs_report_what_the_fuzz_harness_reports() {
    let _serial = serial();
    let grid = fuzz_grid(1, 0);
    traced(|| {
        for index in 0..grid.len() {
            let case = FuzzCase::from_sweep(&grid.case(index));
            let ours = run_fuzz_case(&case, index, &mut RunStats::default());
            assert_eq!(ours, run_case(&case), "{}", case.describe());
        }
    });
}

#[test]
fn a_second_seed_changes_the_inputs_and_passes_every_check() {
    let _serial = serial();
    let (a, b) = (derive_seed(1, 0), derive_seed(2, 0));
    assert_ne!(oneshot_inputs(a), oneshot_inputs(b));
    assert_ne!(stream_inputs(a).batches, stream_inputs(b).batches);
    assert_ne!(soak_inputs(a).victims, soak_inputs(b).victims);
    assert_ne!(fuzz_grid(1, 0).case(0).spec, fuzz_grid(2, 0).case(0).spec);
    for workload in Workload::ALL {
        for seed in [1, 2] {
            let runs = workload.batch(seed, 0);
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            assert!(
                attempted > 0,
                "{} seed {seed} attempted nothing",
                workload.name()
            );
            assert_eq!(failed, 0, "{} seed {seed}", workload.name());
        }
    }
}

#[test]
fn benchmark_json_names_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", workload.name())),
            "workload {}",
            workload.name()
        );
    }
    let entries = |section: &str| json.split(section).nth(1).expect(section).to_string();
    let end_to_end = entries("\"end_to_end\"");
    for (name, unit, _) in END_TO_END {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(end_to_end.contains(&entry), "end-to-end {name}");
    }
    let per_layer = entries("\"per_layer\"");
    for (name, unit, _, _) in PER_LAYER {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
        assert!(per_layer.contains(&entry), "per-layer {name}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        4 + END_TO_END.len() + PER_LAYER.len()
    );
}
