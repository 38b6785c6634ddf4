//! Equivalence suite for the batch node engine.
//!
//! The batch engine's contract (DESIGN.md "Batch node engine") is that
//! its campaigns are *bit-identical* to the reference per-node engine:
//! every daemon sample, per-job counter report, PBS accounting record,
//! and fault summary — u64 counters compared exactly, f64 rates compared
//! to the bit. The contract must hold at every worker-pool size (the
//! work-stealing pool may execute lane adds in any order) and under the
//! workloads that stress its plan interning and delta caching hardest:
//! skewed job mixes full of wide jobs and churn, and fault plans that
//! crash, reboot, and glitch nodes mid-campaign.

use sp2_repro::cluster::{run_campaign, ClusterConfig, EngineConfig, EngineKind, FaultPlan};
use sp2_repro::workload::{trace, CampaignSpec, JobMix, SubmittedJob, WorkloadLibrary};

/// A mix deliberately unlike the NAS production mix: dominated by wide
/// jobs (maximum plan sharing, drain pressure) and single-node stragglers
/// (maximum activity churn), with most wide jobs oversubscribed. This is
/// the adversarial case for the batch engine's interning and delta
/// caches.
fn skewed_mix() -> JobMix {
    JobMix {
        node_weights: vec![(1, 20.0), (16, 2.0), (64, 8.0), (128, 10.0)],
        big_job_paging_prob: 0.9,
        short_job_prob: 0.35,
        ..JobMix::nas()
    }
}

/// Runs one campaign on the reference engine, then re-runs it on the
/// batch engine at 1, 2, and 8 worker threads (and the reference engine
/// on an 8-thread pool as a control) and asserts every dataset is
/// bit-identical.
fn assert_engines_equivalent(mix: &JobMix, days: u32, seed: u64, faults: &FaultPlan) {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 42);
    let spec = CampaignSpec {
        days,
        seed,
        ..Default::default()
    };
    let jobs = trace::generate(&spec, mix, &library);
    let reference = run_campaign(
        &config,
        &library,
        &jobs,
        days,
        faults,
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("reference runs");

    let mut runs = vec![(
        "reference/8",
        EngineConfig::default()
            .engine(EngineKind::Reference)
            .threads(8),
    )];
    for threads in [1usize, 2, 8] {
        runs.push(("batch", EngineConfig::default().threads(threads)));
    }
    for (label, engine) in runs {
        let other = run_campaign(&config, &library, &jobs, days, faults, engine.into())
            .expect("campaign runs");
        let tag = format!("{label} threads={:?}", engine.threads);
        assert_eq!(reference.samples, other.samples, "{tag}: samples");
        assert_eq!(reference.job_reports, other.job_reports, "{tag}: jobs");
        assert_eq!(reference.pbs_records, other.pbs_records, "{tag}: pbs");
        assert_eq!(reference.faults, other.faults, "{tag}: faults");
        // `==` on f64 admits -0.0 == +0.0; the contract is stronger, so
        // spot-check the derived rates to the bit as well.
        for (a, b) in reference.samples.iter().zip(&other.samples) {
            assert_eq!(
                a.rates.mflops.to_bits(),
                b.rates.mflops.to_bits(),
                "{tag}: mflops bits"
            );
            assert_eq!(
                a.rates.mips.to_bits(),
                b.rates.mips.to_bits(),
                "{tag}: mips bits"
            );
        }
    }
}

/// Runs a hand-crafted trace on the reference engine, then on the batch
/// engine with elision forced off (`--no-fast-forward`) and forced on,
/// each at 1 and 8 worker threads, and asserts every dataset is
/// bit-identical. This is the event-transparency proof harness: the
/// traces below are built so specific event classes pop *inside*
/// otherwise-steady sweep runs.
fn assert_adversarial_equivalent(
    build: impl Fn(&WorkloadLibrary) -> Vec<SubmittedJob>,
    days: u32,
    faults: &FaultPlan,
) {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 42);
    let jobs = build(&library);
    let reference = run_campaign(
        &config,
        &library,
        &jobs,
        days,
        faults,
        EngineConfig::default().engine(EngineKind::Reference).into(),
    )
    .expect("reference runs");

    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        for ff in [false, true] {
            runs.push(EngineConfig::default().threads(threads).fast_forward(ff));
        }
    }
    for engine in runs {
        let other =
            run_campaign(&config, &library, &jobs, days, faults, engine.into()).expect("runs");
        let tag = format!(
            "threads={:?} fast_forward={:?}",
            engine.threads, engine.fast_forward
        );
        assert_eq!(reference.samples, other.samples, "{tag}: samples");
        assert_eq!(reference.job_reports, other.job_reports, "{tag}: jobs");
        assert_eq!(reference.pbs_records, other.pbs_records, "{tag}: pbs");
        assert_eq!(reference.faults, other.faults, "{tag}: faults");
        for (a, b) in reference.samples.iter().zip(&other.samples) {
            assert_eq!(
                a.rates.mflops.to_bits(),
                b.rates.mflops.to_bits(),
                "{tag}: mflops bits"
            );
        }
    }
    // `run_campaign` pushed the explicit fast-forward switch into
    // the process global; put the default back for neighboring tests.
    sp2_repro::power2::set_fast_forward_enabled(true);
}

/// A machine-filling job plus a storm of wide submits that can only
/// queue behind it: every `Submit` pops inside a steady sweep run but
/// starts nothing (PBS blocked), so an event-transparent gather must
/// absorb them all. The tail of single-node submits lands after the
/// machine drains, exercising the opposite case — a mutating `Submit`
/// that ends the run and defers its schedule pass past the elided
/// window.
fn blocked_submit_storm(library: &WorkloadLibrary) -> Vec<SubmittedJob> {
    let program = library.programs()[0].id;
    let mut jobs = vec![SubmittedJob {
        submit_s: 0.0,
        nodes: 144,
        duration_s: 90_000.0,
        requested_walltime_s: 100_000.0,
        program,
    }];
    for i in 0..30 {
        jobs.push(SubmittedJob {
            submit_s: 1_000.0 + i as f64 * 2_500.0,
            nodes: 64,
            duration_s: 2_000.0,
            requested_walltime_s: 4_000.0,
            program,
        });
    }
    for i in 0..3 {
        jobs.push(SubmittedJob {
            submit_s: 150_000.0 + i as f64 * 5_000.0,
            nodes: 1,
            duration_s: 1_500.0,
            requested_walltime_s: 3_000.0,
            program,
        });
    }
    jobs
}

#[test]
fn blocked_submit_storm_is_elision_transparent() {
    assert_adversarial_equivalent(blocked_submit_storm, 2, &FaultPlan::none());
}

#[test]
fn blocked_submit_storm_is_elision_transparent_under_faults() {
    let faults = FaultPlan::generate(144, 2, 1.0, 23);
    assert_adversarial_equivalent(blocked_submit_storm, 2, &faults);
}

#[test]
fn stale_finish_mid_run_is_elision_transparent() {
    // A 4-node job is killed by an outage at t=10 000 and requeued; its
    // attempt-0 Finish stays in the heap and pops at t=50 000, deep
    // inside the steady window while attempt 1 is still computing. The
    // stale pop must not shatter the elided run.
    let mut faults = FaultPlan::none();
    faults.add_outage(0, 10_000.0, 12_000.0);
    assert_adversarial_equivalent(
        |library| {
            vec![SubmittedJob {
                submit_s: 0.0,
                nodes: 4,
                duration_s: 50_000.0,
                requested_walltime_s: 60_000.0,
                program: library.programs()[0].id,
            }]
        },
        2,
        &faults,
    );
}

#[test]
fn repeated_node_down_is_elision_transparent() {
    // Overlapping outage windows on one node: the second NodeDown pops
    // while the node is already down, and the leftover NodeUp pops after
    // the node is already back — both inside steady sweep runs on an
    // otherwise-idle machine. Run with and without a job in the machine.
    let mut faults = FaultPlan::none();
    faults.add_outage(5, 9_000.0, 30_000.0);
    faults.add_outage(5, 15_000.0, 20_000.0);
    assert_adversarial_equivalent(|_| Vec::new(), 1, &faults);
    assert_adversarial_equivalent(
        |library| {
            vec![SubmittedJob {
                submit_s: 500.0,
                nodes: 16,
                duration_s: 40_000.0,
                requested_walltime_s: 50_000.0,
                program: library.programs()[0].id,
            }]
        },
        1,
        &faults,
    );
}

#[test]
fn nas_mix_campaigns_are_bit_identical_across_engines_and_threads() {
    assert_engines_equivalent(&JobMix::nas(), 2, 7, &FaultPlan::none());
}

#[test]
fn skewed_mix_campaigns_are_bit_identical() {
    assert_engines_equivalent(&skewed_mix(), 2, 1998, &FaultPlan::none());
}

#[test]
fn faulted_campaigns_are_bit_identical() {
    // Outages, daemon restarts, glitches, kills, and requeues all cross
    // the engine boundary (set_activity(None), reboot, raw snapshots).
    let faults = FaultPlan::generate(144, 2, 2.0, 11);
    assert_engines_equivalent(&JobMix::nas(), 2, 7, &faults);
}

#[test]
fn skewed_faulted_campaigns_are_bit_identical() {
    let faults = FaultPlan::generate(144, 2, 1.5, 5);
    assert_engines_equivalent(&skewed_mix(), 2, 3, &faults);
}
