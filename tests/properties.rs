//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use sp2_repro::cluster::{run_campaign, ClusterConfig, EngineConfig, EngineKind, FaultPlan};
use sp2_repro::hpm::{
    nas_selection, CounterDelta, CounterSelection, EventSet, Hpm, Mode, SchedulePlan, Signal,
    SignalGroup,
};
use sp2_repro::isa::{AddrGen, AddrPattern};
use sp2_repro::power2::{Cache, CacheConfig};
use sp2_repro::stats::{centered_moving_average, trailing_moving_average, Histogram, Summary};
use sp2_repro::workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn arb_signal() -> impl Strategy<Value = Signal> {
    prop::sample::select(Signal::ALL.to_vec())
}

proptest! {
    /// EventSet scaling is monotone and exact at unit scale.
    #[test]
    fn eventset_scaling(counts in prop::collection::vec((arb_signal(), 0u64..1_000_000), 0..8),
                        num in 1u64..1000, den in 1u64..1000) {
        let mut e = EventSet::new();
        for (s, n) in &counts {
            e.bump(*s, *n);
        }
        let scaled = e.scaled(num, den);
        for s in Signal::ALL {
            let orig = e.get(s);
            let got = scaled.get(s);
            // got ≈ orig * num / den, within rounding.
            let exact = orig as f64 * num as f64 / den as f64;
            prop_assert!((got as f64 - exact).abs() <= 0.5 + 1e-9);
        }
        prop_assert_eq!(e.scaled(1, 1), e);
    }

    /// Counter absorb + delta roundtrips every watched signal, in both
    /// modes, regardless of magnitude (64-bit virtualization).
    #[test]
    fn hpm_delta_roundtrip(user in 0u64..u64::MAX / 4, system in 0u64..u64::MAX / 4,
                           signal in arb_signal()) {
        let sel = nas_selection();
        prop_assume!(sel.watches(signal));
        prop_assume!(!signal.has_div_erratum());
        let mut hpm = Hpm::new(sel.clone());
        let before = hpm.snapshot();
        let mut u = EventSet::new();
        u.bump(signal, user);
        hpm.absorb(&u, Mode::User);
        let mut s = EventSet::new();
        s.bump(signal, system);
        hpm.absorb(&s, Mode::System);
        let d = CounterDelta::between(&before, &hpm.snapshot());
        let slot = sel.slot_of(signal).unwrap();
        prop_assert_eq!(d.user[slot], user);
        prop_assert_eq!(d.system[slot], system);
    }

    /// The divide erratum loses div counts for any magnitude.
    #[test]
    fn div_erratum_always_loses(divs in 1u64..u64::MAX / 4) {
        let sel = nas_selection();
        let mut hpm = Hpm::new(sel.clone());
        let mut e = EventSet::new();
        e.bump(Signal::Fpu0Div, divs);
        hpm.absorb(&e, Mode::User);
        let slot = sel.slot_of(Signal::Fpu0Div).unwrap();
        prop_assert_eq!(hpm.snapshot().user[slot], 0);
    }

    /// Histogram conserves mass (within clamping into the last bin).
    #[test]
    fn histogram_mass_conserved(items in prop::collection::vec((0usize..200, 0.0f64..1e6), 0..50)) {
        let mut h = Histogram::new(144);
        let mut expected = 0.0;
        for (cat, w) in &items {
            h.add(*cat, *w);
            expected += w;
        }
        prop_assert!((h.total() - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// Moving averages stay within the series' min..max envelope.
    #[test]
    fn moving_average_bounded(series in prop::collection::vec(-1e6f64..1e6, 1..100),
                              window in 1usize..20) {
        let lo = series.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in trailing_moving_average(&series, window) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        for v in centered_moving_average(&series, window) {
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    /// Welford summary matches naive two-pass statistics.
    #[test]
    fn summary_matches_naive(series in prop::collection::vec(-1e4f64..1e4, 2..200)) {
        let s = Summary::of(&series);
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let var = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.std() - var.sqrt()).abs() < 1e-5 * var.sqrt().max(1.0));
    }

    /// Cache behaviour: hits + misses = accesses, and a working set that
    /// fits in one way's worth of sets never self-conflicts.
    #[test]
    fn cache_accounting(addrs in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut cache = Cache::new(CacheConfig {
            bytes: 64 * 1024,
            ways: 4,
            line_bytes: 256,
        });
        let mut hits = 0u32;
        let mut misses = 0u32;
        for &a in &addrs {
            if cache.access(a, false).hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        prop_assert_eq!(hits + misses, addrs.len() as u32);
        let distinct_lines: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / 256).collect();
        prop_assert!(misses as usize >= distinct_lines.len().min(cache.config().lines()) / 4,
            "misses cannot be fewer than cold-fills modulo capacity");
        // Re-walking the same addresses yields pure hits when no set is
        // oversubscribed (conflict misses need > `ways` lines per set).
        let mut per_set = std::collections::HashMap::new();
        for &l in &distinct_lines {
            *per_set.entry(l % 64).or_insert(0u32) += 1;
        }
        if per_set.values().all(|&n| n <= 4) {
            for &a in &addrs {
                prop_assert!(cache.access(a, false).hit);
            }
        }
    }

    /// The counter-group scheduler covers any request exactly: every
    /// requested signal is watched by at least one pass, nothing else
    /// is, and every pass is a hardware-valid selection.
    #[test]
    fn schedule_plan_covers_exactly_the_request(
        wanted in prop::collection::vec(arb_signal(), 0..40),
    ) {
        let plan = SchedulePlan::minimal(&wanted);
        let requested: std::collections::HashSet<Signal> = wanted.iter().copied().collect();
        for s in Signal::ALL {
            if requested.contains(&s) {
                prop_assert!(plan.coverage(s) >= 1, "{s:?} uncovered");
            } else {
                prop_assert_eq!(plan.coverage(s), 0, "{:?} watched unrequested", s);
            }
        }
        // The deduplicated request round-trips through the plan.
        let planned: std::collections::HashSet<Signal> =
            plan.requested().iter().copied().collect();
        prop_assert_eq!(planned, requested);
        for pass in plan.passes() {
            // Re-validating each pass proves it respects every group's
            // slot budget (CounterSelection::new rejects oversubscription).
            let signals: Vec<Signal> = pass.signals().collect();
            prop_assert!(CounterSelection::new(&signals).is_ok());
        }
    }

    /// The scheduler emits exactly the minimum pass count — the largest
    /// ⌈signals-in-group / group-slots⌉ — and the plan is a pure
    /// function of the request.
    #[test]
    fn schedule_plan_is_minimal_and_deterministic(
        wanted in prop::collection::vec(arb_signal(), 0..40),
    ) {
        let mut per_group = [0usize; 5];
        let mut seen = std::collections::HashSet::new();
        for &s in &wanted {
            if seen.insert(s) {
                per_group[s.group().ordinal()] += 1;
            }
        }
        let minimum = per_group
            .iter()
            .zip(SignalGroup::ALL)
            .map(|(n, g)| n.div_ceil(g.slots()))
            .max()
            .unwrap_or(0);
        let plan = SchedulePlan::minimal(&wanted);
        prop_assert_eq!(plan.n_passes(), minimum);
        prop_assert_eq!(SchedulePlan::min_passes(&wanted), minimum);
        prop_assert_eq!(&plan, &SchedulePlan::minimal(&wanted));
        // Forcing fewer passes than the minimum is a typed error, never
        // an invalid plan.
        if minimum > 1 {
            prop_assert!(SchedulePlan::with_passes(&wanted, minimum - 1).is_err());
        }
    }

    /// Stretching a plan past its minimum keeps coverage exact (every
    /// requested signal still watched, nothing extra) and the sweep
    /// rotation visits every pass once per cycle.
    #[test]
    fn stretched_plans_keep_exact_coverage(
        wanted in prop::collection::vec(arb_signal(), 1..40),
        extra in 0usize..3,
    ) {
        let minimum = SchedulePlan::min_passes(&wanted);
        let n = minimum + extra;
        let plan = SchedulePlan::with_passes(&wanted, n).expect("n >= minimum");
        prop_assert_eq!(plan.n_passes(), n);
        for &s in plan.requested() {
            prop_assert!(plan.coverage(s) >= 1);
            prop_assert!(plan.coverage(s) <= n);
        }
        // Sweeps 1..=n rotate through every pass exactly once.
        let mut hit = vec![false; n];
        for sweep in 1..=n as u64 {
            hit[plan.pass_for_sweep(sweep)] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "rotation skipped a pass");
        prop_assert_eq!(plan.pass_for_sweep(0), 0, "sweep 0 is the baseline pass");
    }

    /// Address generators are deterministic and respect their windows.
    #[test]
    fn addrgen_deterministic(seed_base in 0u64..1 << 30, n in 1usize..200) {
        let pattern = AddrPattern::Seq {
            base: seed_base,
            stride: 8,
            span: 1 << 20,
        };
        let mut a = AddrGen::new(pattern);
        let mut b = AddrGen::new(pattern);
        for _ in 0..n {
            let x = a.next_addr();
            prop_assert_eq!(x, b.next_addr());
            prop_assert!(x >= seed_base && x < seed_base + (1 << 20));
        }
    }
}

/// Shared one-day fixture for the fault-plan properties below (the
/// library measurement dominates setup cost, so build it once).
fn fault_fixture() -> &'static (
    ClusterConfig,
    WorkloadLibrary,
    Vec<sp2_repro::workload::SubmittedJob>,
    u32,
) {
    use std::sync::OnceLock;
    static FIX: OnceLock<(
        ClusterConfig,
        WorkloadLibrary,
        Vec<sp2_repro::workload::SubmittedJob>,
        u32,
    )> = OnceLock::new();
    FIX.get_or_init(|| {
        let config = ClusterConfig::default();
        let library = WorkloadLibrary::build(&config.machine, 5);
        let spec = CampaignSpec {
            days: 1,
            seed: 3,
            ..Default::default()
        };
        let jobs = trace::generate(&spec, &JobMix::nas(), &library);
        (config, library, jobs, spec.days)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whatever the fault plan does, the daemon's coverage ledger stays
    /// sane: no sample ever claims more nodes than exist, and every
    /// aggregate rate stays finite — including under a 100 % outage
    /// where nothing at all is sampled.
    #[test]
    fn faulted_campaigns_keep_coverage_and_rates_sane(
        rate in 0.0f64..20.0,
        seed in 0u64..1_000,
        dark in 0u8..2,
    ) {
        let total_outage = dark == 1;
        let (config, library, jobs, days) = fault_fixture();
        let horizon = *days as f64 * 86_400.0;
        // Outage windows must not overlap per node (the generator never
        // produces overlaps), so the dark-machine case starts from an
        // empty plan rather than stacking onto generated windows.
        let mut plan = if total_outage {
            FaultPlan::none()
        } else {
            FaultPlan::generate(config.nodes, *days, rate, seed)
        };
        if total_outage {
            // Every node dark for the whole campaign.
            for node in 0..config.nodes {
                plan.add_outage(node, 0.0, horizon + 1.0);
            }
        }
        let r = run_campaign(config, library, jobs, *days, &plan, EngineConfig::default().engine(EngineKind::Reference).into())
            .expect("campaign survives any fault plan");
        for s in &r.samples {
            prop_assert!(s.nodes_sampled <= s.nodes_total,
                "sample at t={} claims {}/{} nodes", s.t, s.nodes_sampled, s.nodes_total);
            prop_assert!(s.rates.mflops.is_finite());
            prop_assert!(s.rates.mips.is_finite());
            prop_assert!(s.coverage() >= 0.0 && s.coverage() <= 1.0);
        }
        let cov = r.coverage();
        prop_assert!(cov.covered <= cov.total + 1e-9);
        prop_assert!(cov.fraction() >= 0.0 && cov.fraction() <= 1.0);
        for d in r.daily_node_rates() {
            prop_assert!(d.mflops.is_finite());
            prop_assert!(d.mips.is_finite());
        }
        prop_assert!(r.mean_daily_gflops().is_finite());
        if total_outage {
            prop_assert_eq!(cov.fraction(), 0.0, "nothing was sampled");
        }
    }
}
