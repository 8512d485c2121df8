//! The repository benchmark: four workloads over the simulator, their
//! end-to-end metrics from an untraced pass, and a per-layer split from a
//! traced pass over the same runs.
//!
//! Layers are timed from outside, around calls into their public functions:
//! `Harness::step_round` and `ScenarioBuilder::build` ([`drive`]),
//! `Protocol::step` and the factory's `snapshotter` through the [`timed`]
//! wrapper, and `attach_verdicts`; the engine's own counters
//! (`phase_timings`, `queued_envelopes`, `wal_entries`, `recovery_restarts`,
//! `MuxNode::work`, `shared::allocations`) are read after each round or run.
//! Everything runs on one thread, on the synchronous engine, stepping nodes
//! serially. End-to-end timings are scaled to the [`reference`] machine
//! speed, batch by batch; per-layer timings are raw.

pub mod drive;
pub mod reference;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use drive::{Counts, RunStats, BUILD, CHECKER, GEN};
use stats::Samples;
use timed::{CORE, MUX, REPLAY, SNAPSHOT};
use workloads::Workload;

/// A seed no tuning of this benchmark looked at: a claimed gain must also
/// hold on it.
pub const HELD_OUT_SEED: u64 = 0x5EED_0FF5;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// How it was measured, for the human-readable lines.
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        note,
    }
}

/// The end-to-end metrics, every workload reporting every one:
/// `(name, unit, definition)`. Every timing is taken at the reference
/// machine speed (see [`reference`]).
#[rustfmt::skip]
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "median per-run input generation plus harness assembly"),
    ("runs_per_s", "1/s", "runs (scenarios, cases, streams, soak horizons) built, run and checked per second; median over workload batches"),
    ("decided_req_per_s", "1/s", "decided requests per second (decided runs, stream requests, finalised soak events, passing fuzz cases); median over workload batches"),
    ("round_ms_iqm", "ms", "interquartile mean (mean of the middle half) of step_round latency"),
    ("round_ms_p95", "ms", "95th-percentile step_round latency"),
    ("req_latency_ms_iqm", "ms", "interquartile mean of the wall time from the start of a request's arrival round to the end of the round a correct node decided it"),
    ("req_latency_ms_p99", "ms", "99th percentile of the same"),
    ("req_latency_rounds_p50", "rounds", "median of the same latency in rounds (exact)"),
    ("req_latency_rounds_p99", "rounds", "99th percentile in rounds (exact)"),
    ("msgs_per_decision", "msgs", "logical correct messages per decided run, instance or finalised event (exact)"),
    ("peak_rss_mb", "MB", "peak resident set size of the benchmark process"),
];

/// The per-layer metrics of the traced pass and how they interact with the
/// end-to-end ones: `(name, unit, layer, what it should move)`. Times and
/// counts are per run; everything runs serially, so a layer's self-time
/// share caps what a change to it can save.
#[rustfmt::skip]
pub const PER_LAYER: &[(&str, &str, &str, &str)] = &[
    ("core.step_ms", "ms/run", "protocols", "runs_per_s@oneshot, round_ms_iqm@soak"),
    ("core.step_calls", "count/run", "protocols", "runs_per_s@oneshot"),
    ("engine.rounds", "count/run", "engine", "req_latency_rounds_p50@stream"),
    ("engine.produce_ms", "ms/run", "engine", "runs_per_s@oneshot"),
    ("engine.deliver_ms", "ms/run", "engine", "runs_per_s@oneshot"),
    ("engine.adversary_ms", "ms/run", "engine", "runs_per_s@fuzz"),
    ("engine.bookkeeping_ms", "ms/run", "engine", "round_ms_iqm@soak"),
    ("shared.build_ms", "ms/run", "message plane", "runs_per_s@oneshot, decided_req_per_s@stream"),
    ("shared.allocs", "count/run", "message plane", "runs_per_s@oneshot, decided_req_per_s@stream"),
    ("shared.allocs_per_msg", "ratio", "message plane", "runs_per_s@oneshot"),
    ("engine.msgs", "count/run", "delivery/dedup", "msgs_per_decision@oneshot"),
    ("engine.deliveries", "count/run", "delivery/dedup", "runs_per_s@oneshot"),
    ("engine.deliveries_per_msg", "ratio", "delivery/dedup", "runs_per_s@oneshot"),
    ("engine.queued_envelopes_peak", "count", "delivery/dedup", "peak_rss_mb@soak"),
    ("wal.entries_peak", "count", "WAL", "peak_rss_mb@soak"),
    ("wal.snapshots", "count/run", "WAL", "round_ms_iqm@soak"),
    ("wal.snapshot_ms", "ms/run", "WAL", "round_ms_iqm@soak"),
    ("mem.proxy_peak", "count", "WAL", "peak_rss_mb@soak"),
    ("recovery.restarts", "count/run", "recovery", "round_ms_p95@soak"),
    ("recovery.replay_ms", "ms/run", "recovery", "round_ms_p95@soak"),
    ("recovery.restart_round_ms_p50", "ms", "recovery", "round_ms_p95@soak"),
    ("recovery.plain_round_ms_p50", "ms", "recovery", "round_ms_iqm@soak"),
    ("recovery.stalled_chains", "count/run", "recovery", "none until restarted nodes catch up (req_latency_rounds_p99@soak)"),
    ("adversary.msgs", "count/run", "adversary", "runs_per_s@fuzz"),
    ("mux.step_ms", "ms/run", "stream demux", "decided_req_per_s@stream"),
    ("mux.self_ms", "ms/run", "stream demux", "decided_req_per_s@stream, req_latency_ms_iqm@stream"),
    ("mux.envelopes_indexed", "count/run", "stream demux", "decided_req_per_s@stream"),
    ("mux.slot_steps", "count/run", "stream demux", "decided_req_per_s@stream"),
    ("mux.dropped_retired", "count/run", "stream demux", "decided_req_per_s@stream"),
    ("mux.retired_drop_ratio", "ratio", "stream demux", "decided_req_per_s@stream"),
    ("checker.ms", "ms/run", "checker and margins", "runs_per_s@fuzz"),
    ("checker.calls", "count/run", "checker and margins", "runs_per_s@fuzz"),
    ("sim.build_ms", "ms/run", "assembly", "setup_s@all, runs_per_s@fuzz"),
    ("workload.gen_ms", "ms/run", "inputs", "setup_s@all"),
    ("trace.overhead", "%", "tracing", "none (reported, never gated)"),
    ("trace.coverage", "%", "tracing", "none (reported, never gated)"),
];

/// Round samples a batch needs so its p95 round latency has 10 beyond it.
pub const MIN_ROUNDS: u64 = 200;
/// Latency observations a batch needs so its p99 has 10 beyond it.
pub const MIN_LATENCIES: u64 = 1_000;
/// Batches a pass completes at least, so the median over batches can
/// outvote one batch that a burst of machine noise hit.
pub const MIN_BATCHES: usize = 3;
/// Measuring stops here even when fewer batches have completed.
pub const MAX_SECONDS: f64 = 120.0;

/// The timing statistics of one batch: consecutive runs, closed at the end
/// of a workload batch (a run, or a fuzz grid pass) once its samples support
/// every reported tail. End-to-end timings are medians over batches, so a
/// burst of machine noise moves at most the batches it hits.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Median set-up time of its runs, seconds.
    pub setup_s: stats::Quantile,
    /// `step_round` latency, ms: interquartile mean and p95.
    pub round_ms: [stats::Quantile; 2],
    /// Request latency, ms: interquartile mean and p99.
    pub latency_ms: [stats::Quantile; 2],
    /// Median `step_round` and request latency, ms (printed beside the
    /// means).
    pub p50_ms: [stats::Quantile; 2],
    /// Request latency, rounds: median and p99.
    pub latency_rounds: [stats::Quantile; 2],
}

#[derive(Default)]
struct OpenBatch {
    runs: u64,
    setup_s: Samples,
    round_ms: Samples,
    latency_ms: Samples,
    latency_rounds: Samples,
}

impl OpenBatch {
    fn supported(&self) -> bool {
        self.round_ms.len() >= MIN_ROUNDS && self.latency_ms.len() >= MIN_LATENCIES
    }

    fn close(self) -> Result<Batch, String> {
        Ok(Batch {
            setup_s: quantile(&self.setup_s, 0.5, "setup_s")?,
            round_ms: [
                iqm(&self.round_ms, "round_ms")?,
                quantile(&self.round_ms, 0.95, "round_ms")?,
            ],
            latency_ms: [
                iqm(&self.latency_ms, "req_latency_ms")?,
                quantile(&self.latency_ms, 0.99, "req_latency_ms")?,
            ],
            p50_ms: [
                quantile(&self.round_ms, 0.5, "round_ms")?,
                quantile(&self.latency_ms, 0.5, "req_latency_ms")?,
            ],
            latency_rounds: [
                quantile(&self.latency_rounds, 0.5, "req_latency_rounds")?,
                quantile(&self.latency_rounds, 0.99, "req_latency_rounds")?,
            ],
        })
    }
}

/// One pass over a workload's runs, reduced as each run completes.
#[derive(Default)]
pub struct Pass {
    /// Completed batches.
    pub batches: Vec<Batch>,
    open: OpenBatch,
    /// Exact counts of each workload batch, in order.
    pub counts: Vec<Counts>,
    /// Workload batches executed.
    pub workload_batches: u64,
    /// Runs executed.
    pub runs: u64,
    /// Runs per second of each workload batch.
    pub run_rates: Samples,
    /// Decided requests per second of each workload batch.
    pub decided_rates: Samples,
    /// The reference scale of each workload batch: [`reference::REFERENCE_NS`]
    /// over the reference's time around the batch.
    pub scales: Samples,
    /// Wall time of the whole pass, seconds.
    pub seconds: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// Decisions the messages bought.
    pub decisions: u64,
    /// Summed exact counts.
    pub totals: Counts,
    /// Summed engine phase slots, nanoseconds.
    pub phases: BTreeMap<&'static str, u64>,
    /// Summed stalled soak chains.
    pub stalled: u64,
    /// Largest queued-envelope count after any round.
    pub queued_peak: u64,
    /// Largest log record count after any round.
    pub wal_peak: u64,
    /// Largest memory proxy after any round.
    pub proxy_peak: u64,
    /// Latencies of rounds in which a crash/restart cycle completed (traced
    /// pass only).
    pub restart_round_ms: Samples,
    /// Latencies of the other rounds (traced pass only).
    pub plain_round_ms: Samples,
}

impl Pass {
    /// Adds one workload batch's runs; `scale` converts its timings to the
    /// reference speed (times are multiplied by it, rates divided).
    fn add_batch(&mut self, runs: Vec<RunStats>, scale: f64) -> Result<(), String> {
        let mut counts = Counts::default();
        let scaled_s = runs.iter().map(|run| run.wall_ns).sum::<u64>() as f64 / 1e9 * scale;
        let decided: u64 = runs.iter().map(|run| run.decided).sum();
        self.run_rates.add(runs.len() as f64 / scaled_s, 1);
        self.decided_rates.add(decided as f64 / scaled_s, 1);
        self.scales.add(scale, 1);
        for run in runs {
            counts += run.counts;
            self.runs += 1;
            self.attempted += run.attempted;
            self.failed += run.failed;
            self.decisions += run.decisions;
            self.stalled += run.stalled;
            self.queued_peak = self.queued_peak.max(run.queued_peak);
            self.wal_peak = self.wal_peak.max(run.wal_peak);
            self.proxy_peak = self.proxy_peak.max(run.proxy_peak);
            for &(slot, ns) in &run.phases {
                *self.phases.entry(slot).or_default() += ns;
            }
            if trace::enabled() {
                for (&ms, &restart) in run.round_ms.iter().zip(&run.restart_round) {
                    let samples = if restart {
                        &mut self.restart_round_ms
                    } else {
                        &mut self.plain_round_ms
                    };
                    samples.add(ms, 1);
                }
            }
            let open = &mut self.open;
            open.runs += 1;
            open.setup_s.add(run.setup_ns() as f64 / 1e9 * scale, 1);
            for &ms in &run.round_ms {
                open.round_ms.add(ms * scale, 1);
            }
            open.latency_ms.extend(&run.latency_ms.scaled(scale));
            open.latency_rounds.extend(&run.latency_rounds);
        }
        self.totals += counts;
        self.counts.push(counts);
        self.workload_batches += 1;
        if self.open.supported() {
            let batch = std::mem::take(&mut self.open).close()?;
            self.batches.push(batch);
        }
        Ok(())
    }
}

/// Runs batches `0, 1, …` of `workload` until `seconds` have passed, at
/// least [`MIN_BATCHES`] timing batches are complete and no batch is open
/// (at most [`MAX_SECONDS`]), or exactly `batches` workload batches when
/// given. The reference is timed before the first batch and after each; a
/// batch's scale comes from the mean of the two timings around it.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    batches: Option<u64>,
) -> Result<Pass, String> {
    let started = Instant::now();
    let mut pass = Pass::default();
    let mut before = reference::reference_ns();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let done = match batches {
            Some(limit) => pass.workload_batches >= limit,
            None => {
                elapsed >= MAX_SECONDS
                    || (elapsed >= seconds
                        && pass.batches.len() >= MIN_BATCHES
                        && pass.open.runs == 0)
            }
        };
        if done {
            break;
        }
        let runs = workload.batch(seed, pass.workload_batches);
        let after = reference::reference_ns();
        pass.add_batch(runs, 2.0 * reference::REFERENCE_NS / (before + after))?;
        before = after;
    }
    pass.seconds = started.elapsed().as_secs_f64();
    Ok(pass)
}

/// Every difference in exact counts between two passes over the same
/// workload batches (`b` may cover a prefix of `a`'s).
pub fn count_drift(label: &str, a: &[Counts], b: &[Counts]) -> Vec<String> {
    let mut drift = Vec::new();
    if b.len() > a.len() {
        drift.push(format!("{label}: {} batches against {}", b.len(), a.len()));
    }
    for (index, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            drift.push(format!("{label}: batch {index} counts {x:?} then {y:?}"));
        }
    }
    drift
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn quantile(samples: &Samples, p: f64, what: &str) -> Result<stats::Quantile, String> {
    samples.quantile(p).map_err(|err| format!("{what}: {err}"))
}

fn iqm(samples: &Samples, what: &str) -> Result<stats::Quantile, String> {
    samples.iqm().map_err(|err| format!("{what}: {err}"))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("reading /proc/self/status: {err}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|err| format!("parsing {line:?}: {err}"))?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass, rss_mb: f64) -> Result<Vec<Metric>, String> {
    if pass.batches.is_empty() {
        return Err(format!(
            "no batch gathered {MIN_ROUNDS} rounds and {MIN_LATENCIES} latencies in {MAX_SECONDS} s"
        ));
    }
    let batches = pass.batches.len();
    // The median over batches of one per-batch value.
    let median = |value: &dyn Fn(&Batch) -> f64| -> f64 {
        let samples: Samples = pass.batches.iter().map(value).collect();
        samples.quantile(0.5).expect("at least one batch").value
    };
    let samples = |q: &dyn Fn(&Batch) -> stats::Quantile| -> u64 {
        pass.batches.iter().map(|b| q(b).samples).sum()
    };
    let timing = |name: &'static str,
                  unit: &'static str,
                  label: &str,
                  q: &dyn Fn(&Batch) -> stats::Quantile| {
        metric(
            name,
            unit,
            median(&|b| q(b).value),
            format!("{label}, median of {batches} batches, n={}", samples(q)),
        )
    };
    Ok(vec![
        timing("setup_s", "s", "p50 of runs", &|b| b.setup_s),
        metric(
            "runs_per_s",
            "1/s",
            quantile(&pass.run_rates, 0.5, "runs_per_s")?.value,
            format!(
                "median of {} workload batches, {} runs in {:.3} s, reference scale p50 {:.4}",
                pass.workload_batches,
                pass.runs,
                pass.seconds,
                quantile(&pass.scales, 0.5, "scale")?.value
            ),
        ),
        metric(
            "decided_req_per_s",
            "1/s",
            quantile(&pass.decided_rates, 0.5, "decided_req_per_s")?.value,
            format!("median of {} workload batches", pass.workload_batches),
        ),
        timing(
            "round_ms_iqm",
            "ms",
            &format!(
                "interquartile mean (p50 {:.6} ms)",
                median(&|b| b.p50_ms[0].value)
            ),
            &|b| b.round_ms[0],
        ),
        timing("round_ms_p95", "ms", "tail p95", &|b| b.round_ms[1]),
        timing(
            "req_latency_ms_iqm",
            "ms",
            &format!(
                "interquartile mean (p50 {:.6} ms)",
                median(&|b| b.p50_ms[1].value)
            ),
            &|b| b.latency_ms[0],
        ),
        timing("req_latency_ms_p99", "ms", "tail p99", &|b| b.latency_ms[1]),
        timing("req_latency_rounds_p50", "rounds", "p50", &|b| {
            b.latency_rounds[0]
        }),
        timing("req_latency_rounds_p99", "rounds", "tail p99", &|b| {
            b.latency_rounds[1]
        }),
        metric(
            "msgs_per_decision",
            "msgs",
            ratio(pass.totals.msgs, pass.decisions),
            format!("{} msgs / {} decisions", pass.totals.msgs, pass.decisions),
        ),
        metric("peak_rss_mb", "MB", rss_mb, "VmHWM".into()),
    ])
}

fn median_or_zero(samples: &Samples) -> (f64, u64) {
    samples
        .quantile(0.5)
        .map_or((0.0, 0), |q| (q.value, q.samples))
}

/// The per-layer metrics of a traced pass. `untraced` is the untraced pass
/// over the same runs, for the tracing overhead.
pub fn per_layer(
    traced: &Pass,
    layers: &BTreeMap<&'static str, trace::LayerTime>,
    untraced: &Pass,
) -> Vec<Metric> {
    let runs = traced.runs;
    let per_run = |value: f64| value / runs as f64;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6;
    let counts = &traced.totals;
    let phase = |slot: &str| traced.phases.get(slot).copied().unwrap_or(0);
    let produce = phase("produce");
    let engine_total: u64 = traced.phases.values().sum();
    let stepped = layer(CORE).under_round_ns + layer(MUX).under_round_ns;
    let (restart_p50, restart_n) = median_or_zero(&traced.restart_round_ms);
    let (plain_p50, plain_n) = median_or_zero(&traced.plain_round_ms);
    let over = |total: String| format!("{total} over {runs} runs");
    let count = |name, value: u64, what: &str| {
        metric(
            name,
            "count/run",
            per_run(value as f64),
            over(format!("{value} {what}")),
        )
    };
    let time = |name, ns: u64, what: &str| {
        metric(
            name,
            "ms/run",
            per_run(ms(ns)),
            over(format!("{what} {:.3} ms", ms(ns))),
        )
    };
    vec![
        time("core.step_ms", layer(CORE).self_ns, "self"),
        count("core.step_calls", layer(CORE).calls, "calls"),
        count("engine.rounds", counts.rounds, "rounds"),
        time(
            "engine.produce_ms",
            produce,
            "slot, includes protocol steps,",
        ),
        time("engine.deliver_ms", phase("deliver"), "slot"),
        time("engine.adversary_ms", phase("adversary"), "slot"),
        time(
            "engine.bookkeeping_ms",
            phase("step"),
            "`step` slot, includes WAL, snapshots and replay,",
        ),
        time(
            "shared.build_ms",
            produce.saturating_sub(stepped),
            "produce minus top-level protocol steps,",
        ),
        count("shared.allocs", counts.allocs, "allocations"),
        metric(
            "shared.allocs_per_msg",
            "ratio",
            ratio(counts.allocs, counts.msgs),
            format!("{} / {} msgs", counts.allocs, counts.msgs),
        ),
        count("engine.msgs", counts.msgs, "msgs"),
        count("engine.deliveries", counts.deliveries, "deliveries"),
        metric(
            "engine.deliveries_per_msg",
            "ratio",
            ratio(counts.deliveries, counts.msgs),
            format!("{} / {} msgs", counts.deliveries, counts.msgs),
        ),
        metric(
            "engine.queued_envelopes_peak",
            "count",
            traced.queued_peak as f64,
            "max after any round".into(),
        ),
        metric(
            "wal.entries_peak",
            "count",
            traced.wal_peak as f64,
            "max after any round".into(),
        ),
        count("wal.snapshots", counts.snapshots, "snapshots"),
        time("wal.snapshot_ms", layer(SNAPSHOT).self_ns, "self"),
        metric(
            "mem.proxy_peak",
            "count",
            traced.proxy_peak as f64,
            "live Shared + queued envelopes + WAL records".into(),
        ),
        count("recovery.restarts", counts.restarts, "restarts"),
        time("recovery.replay_ms", layer(REPLAY).self_ns, "self"),
        metric(
            "recovery.restart_round_ms_p50",
            "ms",
            restart_p50,
            format!("median, n={restart_n}"),
        ),
        metric(
            "recovery.plain_round_ms_p50",
            "ms",
            plain_p50,
            format!("median, n={plain_n}"),
        ),
        count(
            "recovery.stalled_chains",
            traced.stalled,
            "restarted nodes missing a finalisable event",
        ),
        count("adversary.msgs", counts.byzantine, "msgs"),
        time("mux.step_ms", layer(MUX).total_ns, "inclusive"),
        time("mux.self_ms", layer(MUX).self_ns, "self"),
        count(
            "mux.envelopes_indexed",
            counts.mux.envelopes_indexed,
            "envelopes",
        ),
        count("mux.slot_steps", counts.mux.slot_steps, "slot steps"),
        count(
            "mux.dropped_retired",
            counts.mux.dropped_retired,
            "envelopes",
        ),
        metric(
            "mux.retired_drop_ratio",
            "ratio",
            ratio(counts.mux.dropped_retired, counts.mux.envelopes_indexed),
            "dropped / indexed".into(),
        ),
        time("checker.ms", layer(CHECKER).total_ns, "attach_verdicts"),
        count("checker.calls", layer(CHECKER).calls, "calls"),
        time(
            "sim.build_ms",
            layer(BUILD).total_ns,
            "ScenarioBuilder::build",
        ),
        time("workload.gen_ms", layer(GEN).total_ns, "input generation"),
        metric(
            "trace.overhead",
            "%",
            (traced.seconds / untraced.seconds - 1.0) * 100.0,
            format!(
                "{:.3} s traced vs {:.3} s untraced",
                traced.seconds, untraced.seconds
            ),
        ),
        metric(
            "trace.coverage",
            "%",
            ratio(engine_total, layer(trace::ROUND).total_ns) * 100.0,
            "engine phase slots / step_round wall".into(),
        ),
    ]
}

/// The human-readable line of one metric.
pub fn describe(metric: &Metric) -> String {
    format!(
        "{:<32} {:>16.6} {:<10} {}",
        metric.name, metric.value, metric.unit, metric.note
    )
}

/// The result object: the last line of the benchmark's standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.iter().enumerate() {
        let separator = if index == 0 { "" } else { ", " };
        write!(
            out,
            "{separator}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}
