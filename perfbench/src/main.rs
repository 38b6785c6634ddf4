//! End-to-end benchmark of the SP2 HPM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_270d|campaign_faulted_270d|serve_burst> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record > perfbench/expected.json
//! ```
//!
//! Run from the repository root. Each run sets its workload up twice
//! (the median is `setup_s`), then repeats timed iterations until
//! `--seconds` of timed work have accumulated, and at least three, checks
//! every output against `expected.json`, and prints the environment
//! stamp, a summary, and as its last line one JSON result. With
//! `--trace 1` it alternates untraced and traced iterations and prints
//! the per-layer metrics and the layer tree instead of the end-to-end
//! metrics. See `perfbench/README.md` for the workloads and metrics.

mod digest;
mod env;
mod stats;
mod tree;
mod workloads;

use sp2_core::Json;
use sp2_trace::MetricsSnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tree::Tree;

/// Input variants per workload: `--seed` picks `seed % VARIANTS`, and
/// `expected.json` records the digest of each.
pub const VARIANTS: usize = 8;

/// A run repeats its set-up `SETUP_REPS` times; `setup_s` is the
/// median. Two, because a cold library build takes about ten seconds,
/// and a third would make a run's set-up longer than its measurement.
const SETUP_REPS: usize = 2;

/// Timed iterations per run, at the least, unless a workload asks for
/// more: with three, the median rejects one slow iteration, which the
/// median of two (their mean) cannot.
const MIN_ITERS: usize = 3;

/// End-to-end metrics (untraced runs), as named in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_days_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("submits_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("paper_err", "ratio"),
];

/// Per-layer metrics (traced runs), as named in `BENCHMARK.json`. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("power2.library_build_s", "s"),
    ("power2.sim_cycles_per_s", "1/s"),
    ("power2.kernels_measured", "count"),
    ("power2.ff_detected", "count"),
    ("power2.ff_fallback", "count"),
    ("power2.ff_extrapolated_fraction", "ratio"),
    ("power2.sigcache_hit_rate", "ratio"),
    ("workload.trace_generate_s", "s"),
    ("cluster.campaign_s", "s"),
    ("cluster.events", "count"),
    ("cluster.sweeps", "count"),
    ("cluster.sweeps_elided", "count"),
    ("cluster.elision_rate", "ratio"),
    ("cluster.phase.advance_s", "s"),
    ("cluster.phase.sample_s", "s"),
    ("cluster.phase.schedule_s", "s"),
    ("cluster.phase.faults_s", "s"),
    ("cluster.worker_utilization", "ratio"),
    ("rs2hpm.sweeps", "count"),
    ("rs2hpm.sweep_mean_us", "us"),
    ("rs2hpm.anomalies", "count"),
    ("pbs.jobs_started", "count"),
    ("pbs.jobs_requeued", "count"),
    ("pbs.queue_depth_max", "count"),
    ("core.experiment.table1_s", "s"),
    ("core.experiment.table2_s", "s"),
    ("core.experiment.table3_s", "s"),
    ("core.experiment.table4_s", "s"),
    ("core.experiment.fig1_s", "s"),
    ("core.experiment.fig2_s", "s"),
    ("core.experiment.fig3_s", "s"),
    ("core.experiment.fig4_s", "s"),
    ("core.experiment.fig5_s", "s"),
    ("core.experiment.calibration_s", "s"),
    ("core.experiment.iowait_s", "s"),
    ("core.experiment.toplev_s", "s"),
    ("core.experiment.availability_s", "s"),
    ("core.experiment.summary_s", "s"),
    ("archive.write_s", "s"),
    ("archive.read_s", "s"),
    ("archive.bytes_per_sample", "B"),
    ("export.json_s", "s"),
    ("export.bytes", "B"),
    ("serve.fresh_ms", "ms"),
    ("serve.replay_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("unattributed", "s"),
];

/// Per-layer readings keyed by metric name.
pub type Layers = BTreeMap<String, f64>;

/// What one timed iteration measured and how its outputs checked out.
pub struct IterOut {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Operations attempted (a submission, or a whole iteration).
    pub ops: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Failure descriptions, printed before the result.
    pub problems: Vec<String>,
    /// Latency of each operation.
    pub latencies_ms: Vec<f64>,
    /// Campaign-days the engine simulated.
    pub sim_days: f64,
    /// Paper error of this iteration's `summary`, when it is the
    /// workload's deterministic reference input.
    pub paper_err: Option<f64>,
    /// Traced only: the snapshot at the end of the timed region, the
    /// layer tree, and readings the workload takes itself.
    pub snap: Option<MetricsSnapshot>,
    pub tree: Option<Tree>,
    pub layers: Layers,
}

/// One benchmark workload.
pub trait Workload {
    /// Threads the workload keeps busy (capped at `nproc`).
    fn threads(&self) -> usize;
    /// Timed iterations a run makes at the least.
    fn min_iters(&self) -> usize {
        MIN_ITERS
    }
    /// One set-up repetition; traced set-ups return layer readings.
    fn setup(&mut self, traced: bool) -> Result<Layers, String>;
    /// One timed iteration plus its output checks.
    fn iterate(&mut self, traced: bool) -> Result<IterOut, String>;
    /// Stops whatever the set-up started.
    fn teardown(&mut self) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.record && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Scratch directory for a run's artifacts and result store, inside
/// the build directory of the checkout; removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(tag: &str) -> Result<WorkDir, String> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let dir = base
            .join("perfbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The result line. Values keep every digit; a reading that is not a
/// number (the median of no samples) reads 0.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut body = Json::obj();
    for &(name, unit, v) in metrics {
        let v = if v.is_finite() { v } else { 0.0 };
        body = body.field(name, Json::obj().field("value", v).field("unit", unit));
    }
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", body)
        .to_string_compact()
}

/// Engine, daemon and batch-system readings of one traced iteration.
fn engine_layers(snap: &MetricsSnapshot) -> Layers {
    use tree::{count, seconds};
    let mut m = Layers::new();
    let sweeps = count(snap, "cluster.sweeps");
    let elided = count(snap, "cluster.sweeps_elided");
    for (key, v) in [
        ("cluster.campaign_s", seconds(snap, "cluster.campaign")),
        ("cluster.events", count(snap, "cluster.events")),
        ("cluster.sweeps", sweeps),
        ("cluster.sweeps_elided", elided),
        (
            "cluster.elision_rate",
            if sweeps > 0.0 { elided / sweeps } else { 0.0 },
        ),
        (
            "cluster.phase.advance_s",
            seconds(snap, "cluster.phase.advance"),
        ),
        (
            "cluster.phase.sample_s",
            seconds(snap, "cluster.phase.sample"),
        ),
        (
            "cluster.phase.schedule_s",
            seconds(snap, "cluster.phase.schedule"),
        ),
        (
            "cluster.phase.faults_s",
            seconds(snap, "cluster.phase.faults"),
        ),
        (
            "cluster.worker_utilization",
            count(snap, "cluster.worker_utilization"),
        ),
        ("rs2hpm.sweeps", count(snap, "rs2hpm.sweep")),
        ("rs2hpm.sweep_mean_us", count(snap, "rs2hpm.sweep_mean_us")),
        ("rs2hpm.anomalies", count(snap, "rs2hpm.anomalies")),
        ("pbs.jobs_started", count(snap, "pbs.jobs_started")),
        ("pbs.jobs_requeued", count(snap, "pbs.jobs_requeued")),
        ("pbs.queue_depth_max", count(snap, "pbs.queue_depth_max")),
    ] {
        m.insert(key.into(), v);
    }
    for exp in sp2_core::all_experiments() {
        let id = exp.id();
        m.insert(
            format!("core.experiment.{id}_s"),
            seconds(snap, &format!("core.experiment.{id}")),
        );
    }
    m
}

/// Kernel-measurement readings since the last metrics reset and
/// signature-cache clear.
pub fn power2_layers(snap: &MetricsSnapshot, library_build_s: f64) -> Layers {
    use tree::count;
    [
        ("power2.library_build_s", library_build_s),
        (
            "power2.sim_cycles_per_s",
            count(snap, "power2.simulated_cycles_per_sec"),
        ),
        ("power2.kernels_measured", count(snap, "power2.kernel_runs")),
        (
            "power2.ff_detected",
            count(snap, "power2.fastforward.detected_runs"),
        ),
        (
            "power2.ff_fallback",
            count(snap, "power2.fastforward.fallback_runs"),
        ),
        (
            "power2.ff_extrapolated_fraction",
            count(snap, "power2.fastforward.extrapolated_fraction"),
        ),
        (
            "power2.sigcache_hit_rate",
            count(snap, "power2.sigcache.hit_rate"),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Median of each reading over several layer maps.
fn median_layers(maps: &[Layers]) -> Layers {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            all.entry(k.clone()).or_default().push(*v);
        }
    }
    all.into_iter()
        .map(|(k, vs)| (k, stats::median(&vs)))
        .collect()
}

/// Median of a reading over iterations.
fn median_of(iters: &[IterOut], f: impl Fn(&IterOut) -> f64) -> f64 {
    stats::median(&iters.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    setup_s: &[f64],
    untraced: &[IterOut],
    paper_err: Option<f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let walls: Vec<f64> = untraced.iter().map(|o| o.wall_s).collect();
    if let Some(spread) = stats::iqr_share(&walls) {
        println!("wall_s spread within the run (IQR/median): {spread:.4}");
    }
    let lat: Vec<f64> = untraced
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    let ops: u64 = untraced.iter().map(|o| o.ops).sum();
    println!("submit latency over {} samples", lat.len());
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(setup_s)),
        ("wall_s", stats::median(&walls)),
        ("cpu_s", median_of(untraced, |o| o.cpu_s)),
        (
            "sim_days_per_s",
            median_of(untraced, |o| o.sim_days / o.wall_s),
        ),
        ("submit_p50_ms", stats::percentile(&lat, 0.5)),
        ("submit_p90_ms", stats::percentile(&lat, 0.9)),
        ("submits_per_s", ops as f64 / walls.iter().sum::<f64>()),
        ("peak_rss_mb", env::peak_rss_mb()?),
        ("paper_err", paper_err.unwrap_or(f64::NAN)),
    ]
    .into_iter()
    .collect();
    Ok(END_TO_END
        .iter()
        .map(|&(name, unit)| (name, unit, values[name]))
        .collect())
}

/// The per-layer metrics of a traced run: set-up readings, then the
/// median of each traced iteration's readings, then the overhead of
/// tracing against the same run's untraced iterations.
fn per_layer(
    setup_layers: &[Layers],
    untraced: &[IterOut],
    traced: &[IterOut],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut layers = median_layers(setup_layers);
    let per_iter: Vec<Layers> = traced
        .iter()
        .map(|o| {
            let mut m = o.snap.as_ref().map(engine_layers).unwrap_or_default();
            m.extend(o.layers.clone());
            if let Some(t) = &o.tree {
                m.insert("unattributed".into(), t.unattributed_s());
            }
            m
        })
        .collect();
    layers.extend(median_layers(&per_iter));
    layers.insert(
        "trace_overhead".into(),
        median_of(traced, |o| o.wall_s) / median_of(untraced, |o| o.wall_s) - 1.0,
    );
    if let Some(t) = traced.iter().rev().find_map(|o| o.tree.as_ref()) {
        println!("layer tree of the last traced iteration:");
        for line in t.render() {
            println!("  {line}");
        }
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, layers.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let variant = (args.seed % VARIANTS as u64) as usize;
    let expected = digest::Expected::recorded()?;
    let work = WorkDir::create(&args.workload)?;
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "repro_270d" => Box::new(workloads::repro::Repro::new(
            expected.get("repro_270d", 0)?,
            work.0.clone(),
        )),
        "campaign_faulted_270d" => Box::new(workloads::faulted::Faulted::new(
            variant,
            expected.get("campaign_faulted_270d", variant)?,
        )),
        "serve_burst" => Box::new(workloads::serve::ServeBurst::new(
            variant,
            expected.get("serve_burst", variant)?,
            work.0.clone(),
        )),
        other => return Err(format!("unknown workload {other}")),
    };
    println!(
        "{}",
        env::stamp(&args.workload, args.seed, args.trace, w.threads())
    );

    // The untraced measurements must not pay for instrumentation that a
    // previous step switched on process-wide.
    sp2_trace::set_enabled(false);
    sp2_trace::set_recording(false);

    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let layers = w.setup(args.trace)?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_layers.push(layers);
    }

    let mut untraced: Vec<IterOut> = Vec::new();
    let mut traced: Vec<IterOut> = Vec::new();
    let mut timed = 0.0;
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    while timed < args.seconds || untraced.len() + traced.len() < w.min_iters() {
        for &traced_iter in modes {
            let out = w.iterate(traced_iter)?;
            println!(
                "iteration {} traced={traced_iter}: wall {:.6} s, cpu {:.6} s, {} ops",
                untraced.len() + traced.len(),
                out.wall_s,
                out.cpu_s,
                out.ops
            );
            timed += out.wall_s;
            if traced_iter {
                traced.push(out);
            } else {
                untraced.push(out);
            }
        }
    }
    w.teardown()?;
    sp2_trace::set_enabled(false);

    let all = untraced.iter().chain(&traced);
    let attempted: u64 = all.clone().map(|o| o.ops).sum();
    let failed: u64 = all.clone().map(|o| o.failed).sum();
    let mut problems: Vec<String> = all.clone().flat_map(|o| o.problems.clone()).collect();
    let errs: Vec<f64> = all.clone().filter_map(|o| o.paper_err).collect();
    if errs.iter().any(|e| e.to_bits() != errs[0].to_bits()) {
        problems.push(format!("paper_err differs between iterations: {errs:?}"));
    }
    for t in traced.iter().filter_map(|o| o.tree.as_ref()) {
        if let Err(e) = t.check() {
            problems.push(e);
        }
    }
    let correct = failed == 0 && problems.is_empty();
    for p in &problems {
        println!("FAILED {p}");
    }
    println!(
        "iterations {} untraced, {} traced; ops {attempted}; failed_frac {}",
        untraced.len(),
        traced.len(),
        failed as f64 / attempted.max(1) as f64
    );

    let metrics = if args.trace {
        per_layer(&setup_layers, &untraced, &traced)
    } else {
        end_to_end(&setup_s, &untraced, errs.first().copied())?
    };
    for (name, unit, v) in &metrics {
        println!("{name:<36} {v:>16.6} {unit}");
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    drop(work);
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.record {
        workloads::record().map(|doc| {
            println!("{doc}");
            true
        })
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[("wall_s", "s", 1.25), ("x", "ms", f64::NAN)]);
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
    }
}
