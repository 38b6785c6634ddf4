//! A/B harness for the steady-state fast-forward engine.
//!
//! Not a criterion bench: this is the perf-trajectory artifact CI tracks.
//! It times the cycle-by-cycle reference against the fast-forward path on
//! the long kernels the engine targets, re-measures the workload library
//! and a short campaign both ways, verifies bit-identity on every pair,
//! and writes the readings to `BENCH_fastforward.json` in the working
//! directory.

use sp2_core::Json;
use sp2_power2::{
    set_fast_forward_enabled, Detail, FastForward, KernelRun, MachineConfig, Node, SignatureCache,
};
use sp2_workload::{
    blocked_matmul_kernel, seqaccess_kernel, trace, CampaignSpec, JobMix, WorkloadLibrary,
};
use std::time::Instant;

fn main() {
    let machine = MachineConfig::nas_sp2();
    let mut kernels_json: Vec<Json> = Vec::new();

    for kernel in [
        blocked_matmul_kernel(2_000_000),
        seqaccess_kernel(2_000_000),
    ] {
        let t0 = Instant::now();
        let full = Node::with_seed(machine, 1)
            .run_kernel(KernelRun::new(&kernel).fast_forward(FastForward::Off))
            .stats;
        let full_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let reported = Node::with_seed(machine, 1).run_kernel(
            KernelRun::new(&kernel)
                .fast_forward(FastForward::On)
                .detail(Detail::Full),
        );
        let report = reported.fast_forward.unwrap_or_default();
        let fast = reported.stats;
        let fast_s = t0.elapsed().as_secs_f64();

        assert_eq!(
            full, fast,
            "{}: fast-forward must be bit-identical",
            kernel.name
        );
        let speedup = full_s / fast_s.max(1e-9);
        println!(
            "{:<24} full {:>8.3}s  fast-forward {:>8.3}s  speedup {:>7.1}x  extrapolated {:>5.1}%",
            kernel.name,
            full_s,
            fast_s,
            speedup,
            report.extrapolated_fraction() * 100.0
        );
        kernels_json.push(
            Json::obj()
                .field("kernel", kernel.name.as_str())
                .field("iters", kernel.iters)
                .field("full_s", full_s)
                .field("fast_forward_s", fast_s)
                .field("speedup", speedup)
                .field("detected", report.detected())
                .field("period", report.period)
                .field("detected_at_iter", report.detected_at_iter)
                .field("extrapolated_fraction", report.extrapolated_fraction()),
        );
    }

    // Campaign-scale A/B: the measurement phase (workload library +
    // handler signatures) plus a short serial campaign, with the global
    // switch toggled and the signature cache cleared between phases so
    // both sides actually simulate.
    let config = sp2_cluster::ClusterConfig::default();
    let days = 2u32;
    let mix = JobMix::nas();
    let spec = CampaignSpec {
        days,
        ..Default::default()
    };

    let campaign = |label: &str, enabled: bool| {
        SignatureCache::global().clear();
        set_fast_forward_enabled(enabled);
        // Measurement phase: every kernel signature the campaign needs
        // (workload library + handler/daemon kernels) — where the
        // fast-forward actually runs.
        let t0 = Instant::now();
        let library = WorkloadLibrary::build(&config.machine, 1998);
        let measure_s = t0.elapsed().as_secs_f64();
        // Event phase: replays the cached signatures; fast-forward
        // can't help here, so this stays flat across the A/B.
        let jobs = trace::generate(&spec, &mix, &library);
        let t0 = Instant::now();
        let result = sp2_cluster::run_campaign(
            &config,
            &library,
            &jobs,
            days,
            &sp2_cluster::FaultPlan::none(),
            sp2_cluster::EngineConfig::default()
                .engine(sp2_cluster::EngineKind::Reference)
                .threads(1)
                .into(),
        )
        .expect("campaign runs");
        let campaign_s = t0.elapsed().as_secs_f64();
        println!("{label:<12} measurement {measure_s:>8.3}s  campaign {campaign_s:>8.3}s");
        (measure_s, campaign_s, result)
    };

    let (measure_full_s, campaign_full_s, full_result) = campaign("full", false);
    let (measure_fast_s, campaign_fast_s, fast_result) = campaign("fast-forward", true);
    set_fast_forward_enabled(true);
    assert_eq!(
        full_result.job_reports, fast_result.job_reports,
        "campaign datasets must be bit-identical under fast-forward"
    );

    let doc = Json::obj()
        .field("schema", "sp2.bench.fastforward.v1")
        .field("kernels", kernels_json)
        .field("campaign_days", days)
        .field("measurement_full_s", measure_full_s)
        .field("measurement_fast_forward_s", measure_fast_s)
        .field(
            "measurement_speedup",
            measure_full_s / measure_fast_s.max(1e-9),
        )
        .field("campaign_full_s", campaign_full_s)
        .field("campaign_fast_forward_s", campaign_fast_s);
    // Land the artifact at the workspace root regardless of the CWD
    // cargo bench hands us (it differs between cargo versions).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fastforward.json");
    std::fs::write(path, doc.to_string_pretty() + "\n").expect("write BENCH_fastforward.json");
    println!("wrote BENCH_fastforward.json");
}
