//! Bit-reproducibility: the whole campaign is a pure function of its
//! seeds — including the fault seed — so two runs produce identical
//! datasets (the property the bench harness and EXPERIMENTS.md
//! regeneration rely on), and an empty fault plan leaves the engine
//! bit-identical to a fault-free run at any thread count.

use sp2_repro::cluster::{
    run_campaign, CampaignResult, ClusterConfig, EngineConfig, EngineKind, FaultPlan,
};
use sp2_repro::workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn fixture(days: u32, seed: u64) -> (ClusterConfig, WorkloadLibrary, CampaignSpec) {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 123);
    let spec = CampaignSpec {
        days,
        seed,
        ..Default::default()
    };
    (config, library, spec)
}

#[test]
fn identical_seeds_identical_campaigns() {
    let run = || {
        let (config, library, spec) = fixture(3, 45);
        let jobs = trace::generate(&spec, &JobMix::nas(), &library);
        run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            EngineConfig::default().engine(EngineKind::Reference).into(),
        )
        .expect("campaign runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.t, y.t);
        assert_eq!(x.total, y.total);
    }
    assert_eq!(a.job_reports.len(), b.job_reports.len());
    for (x, y) in a.job_reports.iter().zip(&b.job_reports) {
        assert_eq!(x.job_id, y.job_id);
        assert_eq!(x.total, y.total);
    }
    assert_eq!(a.pbs_records, b.pbs_records);
}

#[test]
fn different_seeds_different_campaigns() {
    let run = |seed: u64| {
        let (config, library, spec) = fixture(3, seed);
        let jobs = trace::generate(&spec, &JobMix::nas(), &library);
        run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            EngineConfig::default().engine(EngineKind::Reference).into(),
        )
        .expect("campaign runs")
    };
    let a = run(1);
    let b = run(2);
    // The traces differ, so the datasets must differ somewhere.
    let a_total: u64 = a
        .samples
        .iter()
        .map(|s| s.total.user.iter().sum::<u64>())
        .sum();
    let b_total: u64 = b
        .samples
        .iter()
        .map(|s| s.total.user.iter().sum::<u64>())
        .sum();
    assert_ne!(a_total, b_total);
}

/// Field-by-field identity of two campaign results.
fn assert_campaigns_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.days, b.days);
    assert_eq!(a.node_count, b.node_count);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.t, y.t);
        assert_eq!(x.nodes_sampled, y.nodes_sampled);
        assert_eq!(x.nodes_total, y.nodes_total);
        assert_eq!(x.anomalies, y.anomalies);
        assert_eq!(x.total, y.total);
        assert_eq!(x.rates.mflops.to_bits(), y.rates.mflops.to_bits());
    }
    assert_eq!(a.job_reports.len(), b.job_reports.len());
    for (x, y) in a.job_reports.iter().zip(&b.job_reports) {
        assert_eq!(x.job_id, y.job_id);
        assert_eq!(x.total, y.total);
        assert_eq!(x.rates.mflops.to_bits(), y.rates.mflops.to_bits());
    }
    assert_eq!(a.pbs_records, b.pbs_records);
}

#[test]
fn parallel_campaigns_bit_identical_at_any_thread_count() {
    let (config, library, spec) = fixture(2, 45);
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let serial = run_campaign(
        &config,
        &library,
        &jobs,
        spec.days,
        &FaultPlan::none(),
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("campaign runs");
    for threads in [1, 2, 8] {
        let parallel = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            EngineConfig::default()
                .engine(EngineKind::Reference)
                .threads(threads)
                .into(),
        )
        .expect("campaign runs");
        assert_campaigns_identical(&serial, &parallel);
    }
}

#[test]
fn faulted_campaigns_bit_identical_per_fault_seed() {
    let (config, library, spec) = fixture(2, 45);
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let plan = FaultPlan::generate(config.nodes, spec.days, 1.5, 77);
    assert!(!plan.is_empty());
    let a = run_campaign(
        &config,
        &library,
        &jobs,
        spec.days,
        &plan,
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("campaign runs");
    let b = run_campaign(
        &config,
        &library,
        &jobs,
        spec.days,
        &plan,
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("campaign runs");
    assert!(a.faults.enabled);
    assert_campaigns_identical(&a, &b);

    // A different fault seed must perturb the run.
    let other = FaultPlan::generate(config.nodes, spec.days, 1.5, 78);
    let c = run_campaign(
        &config,
        &library,
        &jobs,
        spec.days,
        &other,
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("campaign runs");
    assert_ne!(
        (a.faults.outages, a.faults.missed_sweeps, a.samples.len()),
        (c.faults.outages, c.faults.missed_sweeps, c.samples.len()),
        "different fault seeds must shuffle the degradation"
    );
}

#[test]
fn faulted_campaigns_bit_identical_across_thread_counts() {
    let (config, library, spec) = fixture(2, 45);
    let jobs = trace::generate(&spec, &JobMix::nas(), &library);
    let plan = FaultPlan::generate(config.nodes, spec.days, 1.5, 77);
    let serial = run_campaign(
        &config,
        &library,
        &jobs,
        spec.days,
        &plan,
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("campaign runs");
    for threads in [2, 8] {
        let parallel = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &plan,
            EngineConfig::default()
                .engine(EngineKind::Reference)
                .threads(threads)
                .into(),
        )
        .expect("campaign runs");
        assert_campaigns_identical(&serial, &parallel);
    }
}

#[test]
fn replications_match_individually_run_campaigns() {
    use sp2_repro::cluster::run_replications;
    let (config, library, base) = fixture(1, 90);
    let mix = JobMix::nas();
    let reps =
        run_replications(&config, &library, &mix, &base, 3, &FaultPlan::none()).expect("reps run");
    assert_eq!(reps.len(), 3);
    for (i, rep) in reps.iter().enumerate() {
        let spec = CampaignSpec {
            seed: base.seed + i as u64,
            ..base
        };
        let jobs = trace::generate(&spec, &mix, &library);
        let solo = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            EngineConfig::default().engine(EngineKind::Reference).into(),
        )
        .expect("campaign runs");
        assert_campaigns_identical(rep, &solo);
    }
}
