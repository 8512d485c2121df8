//! `perfbench --workload <oneshot|stream|soak|fuzz> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs the workload's first batch untimed, then the workload for
//! `--seconds` (whole runs), fails on any drift in exact counts between the
//! two executions of the first batch, and prints every end-to-end
//! metric (`--trace 0`) or, after a traced pass over the same runs, every
//! per-layer metric (`--trace 1`). End-to-end timings are scaled to the
//! speed of the benchmark's reference machine, measured between batches
//! (`perfbench::reference`). The last line of standard output is the
//! result object; the lines before it give each metric with its unit and
//! sample count. Exit status: 0 when every output check passed, 1 when one
//! failed (the result is still printed), 2 on a usage or measurement error
//! (nothing printed).

use std::path::Path;
use std::process::ExitCode;

use perfbench::workloads::Workload;
use perfbench::{
    count_drift, describe, end_to_end, measure, peak_rss_mb, per_layer, result_json, trace, Metric,
    END_TO_END, PER_LAYER,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: traced.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let name = args.workload.name();
    trace::set_enabled(false);
    // The first batch runs once before timing starts: it warms caches and
    // the allocator, and its counts must repeat exactly in the measured pass.
    let warmup = measure(args.workload, args.seed, 0.0, Some(1))?;
    let untraced = measure(args.workload, args.seed, args.seconds as f64, None)?;
    let rss_mb = peak_rss_mb()?;
    let mut drift = count_drift("repeat", &untraced.counts, &warmup.counts);
    println!(
        "{name} seed={} counts(batch 0): {:?}",
        args.seed, warmup.counts[0]
    );

    let metrics: Vec<Metric> = if args.trace {
        trace::set_enabled(true);
        let traced = measure(
            args.workload,
            args.seed,
            0.0,
            Some(untraced.workload_batches),
        );
        let layers = trace::layers();
        trace::set_enabled(false);
        let traced = traced?;
        drift.extend(count_drift("traced", &untraced.counts, &traced.counts));
        let path = format!(".bench_trace/{name}-{}.jsonl", args.seed);
        let kept =
            trace::write_spans(Path::new(&path)).map_err(|err| format!("writing {path}: {err}"))?;
        println!("{kept} spans written to {path}");
        for (metric, _, layer, moves) in PER_LAYER {
            println!("map: {metric:<32} layer={layer:<20} moves {moves}");
        }
        per_layer(&traced, &layers, &untraced)
    } else {
        end_to_end(&untraced, rss_mb)?
    };
    let printed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let declared: Vec<(&str, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _, _)| (name, unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name, unit))
            .collect()
    };
    if printed != declared {
        return Err(format!(
            "printed metrics {printed:?} differ from {declared:?}"
        ));
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", bad.name));
    }
    for metric in &metrics {
        println!("{}", describe(metric));
    }
    for line in &drift {
        println!("count drift: {line}");
    }
    let (attempted, failed) = (untraced.attempted, untraced.failed);
    println!(
        "failed_frac {:.6} ({failed} of {attempted} operations failed their output checks)",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = drift.is_empty() && failed == 0 && attempted > 0;
    Ok((correct, result_json(correct, attempted, failed, &metrics)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, result)) => {
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
