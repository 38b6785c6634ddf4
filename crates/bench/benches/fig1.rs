//! Regenerates Figure 1 (system performance history) through the
//! experiment registry and benchmarks the daily aggregation plus a short
//! end-to-end campaign.

use criterion::{criterion_group, criterion_main, Criterion};
use sp2_bench::bench_system;
use sp2_cluster::{run_campaign, ClusterConfig, EngineConfig, EngineKind, FaultPlan};
use sp2_core::experiments::{experiment, ExperimentInput};
use sp2_core::Json;
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn bench(c: &mut Criterion) {
    let mut sys = bench_system();
    let campaign = sys.campaign().expect("campaign runs");
    let e = experiment("fig1").expect("registered");
    let d = e.run(ExperimentInput::of(campaign)).expect("runs");
    let stat = |key: &str| d.json.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    println!(
        "Figure 1: mean {:.2} Gflops, util {:.0}%, max day {:.2}, max 15-min {:.2}",
        stat("mean_gflops"),
        stat("mean_utilization") * 100.0,
        stat("max_daily_gflops"),
        stat("max_15min_gflops")
    );
    c.bench_function("fig1/analysis", |b| {
        b.iter(|| e.run(ExperimentInput::of(campaign)))
    });

    // End-to-end: a 3-day campaign through PBS + daemon + paging.
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 1998);
    let spec = CampaignSpec {
        days: 3,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let mut g = c.benchmark_group("fig1");
    g.sample_size(10);
    g.bench_function("campaign_3day", |b| {
        b.iter(|| {
            run_campaign(
                &config,
                &library,
                &jobs,
                spec.days,
                &FaultPlan::none(),
                EngineConfig::default().engine(EngineKind::Reference).into(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
