//! The flight recorder's contract, end to end: recording observes the
//! campaign without perturbing it (results bit-identical with the
//! recorder on or off, across thread counts), the interval time series
//! covers a month-scale campaign without ring drops, and the Chrome
//! trace export round-trips through the JSON parser with every phase and
//! job span intact and zero silently-dropped events.

use sp2_repro::cluster::{
    run_campaign, CampaignResult, ClusterConfig, EngineConfig, EngineKind, FaultPlan,
};
use sp2_repro::core::{metrics, timeline, Json};
use sp2_repro::trace::{self, events, recorder};
use sp2_repro::workload::{CampaignSpec, JobMix, WorkloadLibrary};

/// A mix whose widest request fits an 8-node machine.
fn small_mix() -> JobMix {
    JobMix {
        node_weights: vec![(1, 5.0), (2, 3.0), (4, 7.0), (8, 13.0)],
        ..JobMix::nas()
    }
}

/// A faulted campaign on a small machine (tests run unoptimized; eight
/// nodes keep a month of simulated time affordable).
fn small_campaign(days: u32, threads: usize) -> CampaignResult {
    let config = ClusterConfig::builder()
        .nodes(8)
        .drain_threshold(4)
        .build()
        .expect("valid config");
    let library = WorkloadLibrary::build(&config.machine, 42);
    let spec = CampaignSpec {
        days,
        seed: 7,
        ..Default::default()
    };
    let jobs = sp2_repro::workload::trace::generate(&spec, &small_mix(), &library);
    let faults = FaultPlan::generate(8, days, 1.0, 1996);
    run_campaign(
        &config,
        &library,
        &jobs,
        days,
        &faults,
        EngineConfig::default()
            .engine(EngineKind::Reference)
            .threads(threads)
            .into(),
    )
    .expect("campaign runs")
}

fn assert_same_campaign(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x, y, "sample drifted under recording");
    }
    assert_eq!(a.job_reports, b.job_reports, "job epilogues drifted");
    assert_eq!(a.pbs_records.len(), b.pbs_records.len());
    assert_eq!(a.faults, b.faults);
}

/// One test (not several) because the recording flag is process-global
/// and the test harness runs functions in parallel.
#[test]
fn recorder_is_invisible_bounded_and_exportable() {
    // --- Baseline: recording off, serial. -------------------------
    trace::set_enabled(false);
    trace::set_recording(false);
    let baseline = small_campaign(31, 1);

    // --- Recorded: recorder on, two workers. ----------------------
    events::reset();
    recorder::reset();
    metrics::reset();
    timeline::enable_recording(1);
    let recorded = small_campaign(31, 2);
    let series = recorder::series();
    timeline::disable_recording();
    trace::set_enabled(false);

    // Recording never feeds back into the engine: the campaign is
    // bit-identical with the recorder on or off, across thread counts.
    assert_same_campaign(&baseline, &recorded);

    // The interval series holds a month of sweeps without recycling.
    assert_eq!(series.cadence, 1);
    assert_eq!(series.dropped, 0, "default ring must hold 31 days");
    // Exactly one interval per daemon sample after the shared baseline
    // pass — the recorder and the daemon miss the same fault-hit sweeps.
    assert_eq!(series.samples.len(), recorded.samples.len() - 1);
    assert!(
        series.samples.len() > 30 * 90,
        "a month-long history, got {}",
        series.samples.len()
    );
    // Counters were moving: the advance phase ran in every interval.
    let advance = series.points("cluster.phase.advance");
    assert_eq!(advance.len(), series.samples.len());
    assert!(
        advance.iter().filter(|&&(_, v)| v > 0.0).count() > 0,
        "advance phase never measured"
    );

    // The terminal render is the non-empty per-phase history the CLI
    // prints for `sp2 timeline`.
    let rendered = timeline::render_timeline(&series);
    for needle in [
        "phase advance",
        "phase sample",
        "phase schedule",
        "jobs started",
        "queue depth",
    ] {
        assert!(rendered.contains(needle), "missing {needle}:\n{rendered}");
    }
    assert!(
        rendered.contains('▁') || rendered.contains('█'),
        "sparklines missing:\n{rendered}"
    );

    // The timeline JSON round-trips through the parser bit-for-bit.
    let doc = timeline::timeline_json(&series);
    let parsed = Json::parse(&doc.to_string_pretty()).expect("timeline JSON parses");
    assert!(parsed.bits_eq(&doc));
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(timeline::SCHEMA)
    );

    // --- Chrome trace export from a short faulted campaign. -------
    // A fresh, shorter run so the default event capacity holds every
    // span (the drop-oldest policy is exercised in unit tests).
    events::reset();
    recorder::reset();
    timeline::enable_recording(1);
    let traced = small_campaign(7, 1);
    timeline::disable_recording();
    trace::set_enabled(false);
    assert!(traced.faults.enabled);

    assert_eq!(
        events::dropped(),
        0,
        "a week-long 8-node campaign must fit the default capacity"
    );
    let drained = events::drain();
    assert!(!drained.is_empty());
    let has = |cat: &str, name_part: &str| {
        drained
            .iter()
            .any(|e| e.cat == cat && e.name.contains(name_part))
    };
    assert!(has("phase", "campaign"), "campaign span missing");
    assert!(has("phase", "advance"), "advance phase spans missing");
    assert!(has("phase", "sample"), "sample phase spans missing");
    assert!(has("phase", "schedule"), "schedule phase spans missing");
    assert!(has("rs2hpm", "daemon sweep"), "daemon sweep spans missing");
    assert!(has("pbs", "wait"), "job queue-wait spans missing");
    assert!(has("pbs", "run"), "job run spans missing");
    assert!(has("pbs", "epilogue"), "job epilogue marks missing");

    let chrome = timeline::chrome_trace(&drained, events::dropped());
    let text = chrome.to_string_pretty();
    let parsed = Json::parse(&text).expect("chrome trace parses");
    assert!(parsed.bits_eq(&chrome), "export must round-trip exactly");
    assert_eq!(
        parsed.get("dropped_events").and_then(Json::as_f64),
        Some(0.0)
    );
    let trace_events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // Both clocks are present as separate trace processes, and every
    // drained event (plus the two process_name records) made it out.
    assert_eq!(trace_events.len(), drained.len() + 2);
    let pid_of = |e: &Json| e.get("pid").and_then(Json::as_f64);
    assert!(trace_events.iter().any(|e| pid_of(e) == Some(1.0)));
    assert!(trace_events.iter().any(|e| pid_of(e) == Some(2.0)));

    events::reset();
    recorder::reset();
}
