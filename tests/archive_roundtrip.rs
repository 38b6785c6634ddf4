//! Archive round-trip: the epilogue report files are the campaign's
//! durable record ("written to a file for later processing and viewing",
//! §3). The same campaign is archived through both codecs — the RS2HPM
//! text format and the sp2-archive/v1 columnar container — and both must
//! reproduce every counter and every derived rate **bit-for-bit**, the
//! property the paper's own later analysis of its nine-month archive
//! depended on.

use sp2_repro::cluster::{
    run_campaign, CampaignResult, ClusterConfig, EngineConfig, EngineKind, FaultPlan,
};
use sp2_repro::core::archive::{self, rate_report_fields, ArchiveCodec, ColumnarCodec, TextCodec};
use sp2_repro::rs2hpm::JobCounterReport;
use sp2_repro::workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};

fn five_day_campaign() -> CampaignResult {
    let config = ClusterConfig::default();
    let library = WorkloadLibrary::build(&config.machine, 31);
    let spec = CampaignSpec {
        days: 5,
        seed: 17,
        ..Default::default()
    };
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
}

/// Every f64 must come back with the identical bit pattern — not merely
/// within epsilon. `to_bits` equality is the whole contract.
fn assert_reports_bitwise_equal(orig: &[JobCounterReport], parsed: &[JobCounterReport], tag: &str) {
    assert_eq!(orig.len(), parsed.len(), "{tag}: report count");
    for (o, p) in orig.iter().zip(parsed) {
        assert_eq!(o.job_id, p.job_id, "{tag}: job id");
        assert_eq!(o.nodes, p.nodes, "{tag}: node count");
        assert_eq!(o.total, p.total, "{tag}: counter lanes");
        assert_eq!(
            o.start.to_bits(),
            p.start.to_bits(),
            "{tag}: start of job {}",
            o.job_id
        );
        assert_eq!(
            o.end.to_bits(),
            p.end.to_bits(),
            "{tag}: end of job {}",
            o.job_id
        );
        for (i, (a, b)) in rate_report_fields(&o.rates)
            .iter()
            .zip(rate_report_fields(&p.rates).iter())
            .enumerate()
        {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{tag}: rate field {i} of job {}",
                o.job_id
            );
        }
    }
}

#[test]
fn reports_survive_both_codecs_bit_for_bit() {
    let campaign = five_day_campaign();
    assert!(!campaign.job_reports.is_empty());
    let selection = &campaign.selection;

    let codecs: [&dyn ArchiveCodec; 2] = [&TextCodec, &ColumnarCodec];
    for codec in codecs {
        let bytes = codec
            .encode_reports(selection, &campaign.job_reports)
            .expect("encodes");
        let parsed = codec
            .decode_reports(selection, &bytes)
            .expect("own archive parses");
        assert_reports_bitwise_equal(&campaign.job_reports, &parsed, codec.name());

        // Figure-level check: per-node rates derived from the archive
        // match exactly (a sum of bit-identical terms is bit-identical).
        let live: f64 = campaign
            .job_reports
            .iter()
            .map(JobCounterReport::mflops_per_node)
            .sum();
        let replay: f64 = parsed.iter().map(JobCounterReport::mflops_per_node).sum();
        assert_eq!(
            live.to_bits(),
            replay.to_bits(),
            "{}: derived figure drifted",
            codec.name()
        );
        for (o, p) in campaign.job_reports.iter().zip(&parsed) {
            assert_eq!(o.paging_suspected(), p.paging_suspected());
        }
    }
}

#[test]
fn columnar_is_denser_than_text() {
    let campaign = five_day_campaign();
    let selection = &campaign.selection;
    let text = TextCodec
        .encode_reports(selection, &campaign.job_reports)
        .expect("encodes");
    let columnar = ColumnarCodec
        .encode_reports(selection, &campaign.job_reports)
        .expect("encodes");
    assert!(
        columnar.len() * 2 < text.len(),
        "delta+varint columns should be well under half the text size \
         (columnar {} bytes vs text {} bytes)",
        columnar.len(),
        text.len()
    );
}

#[test]
fn whole_campaign_container_round_trips() {
    let campaign = five_day_campaign();
    let lines = vec![
        r#"{"event":"dataset","seq":0,"experiment":"table2","doc":{"mflops":66.1}}"#.to_string(),
    ];
    let buf = archive::write_campaign_archive(Vec::new(), &campaign, &lines).expect("writes");
    let loaded = archive::read_archive(&buf[..]).expect("reads");
    assert_eq!(loaded.dataset_lines, lines, "dataset bytes are verbatim");
    let replay = loaded.campaign.expect("campaign present");
    assert_eq!(replay.days, campaign.days);
    assert_eq!(replay.node_count, campaign.node_count);
    assert_eq!(replay.machine, campaign.machine);
    assert_eq!(replay.selection, campaign.selection);
    assert_eq!(replay.samples, campaign.samples, "samples bitwise");
    assert_eq!(replay.job_reports, campaign.job_reports, "reports bitwise");
    assert_eq!(replay.pbs_records, campaign.pbs_records);
    assert_eq!(replay.faults, campaign.faults);
}
