//! `campaign_faulted_270d`: warm campaign work with faults. The library
//! is built in set-up; each iteration runs the NAS 270-day campaign at
//! fault rate 1.0 plus its fault-free twin on one worker, the
//! campaign-only experiments, and a columnar archive write and
//! read-back of the faulted campaign. The seed picks the fault plan,
//! and every iteration of a run, traced or untraced, uses that plan, so
//! `trace_overhead` compares like with like. No kernel is measured
//! here, so a signature-layer change must show no change; faults break
//! the engine's elision windows while the twin elides, so the engine
//! runs both ways.

use super::{dataset_lines, err, make_cold};
use crate::digest::{self, Digest};
use crate::env::Clock;
use crate::tree::Tracer;
use crate::{power2_layers, IterOut, Layers, Workload, VARIANTS};
use sp2_cluster::{run_campaign_cfg_cancellable, ClusterConfig, EngineConfig, FaultPlan};
use sp2_core::archive::{read_archive, write_campaign_archive};
use sp2_core::system::{DEFAULT_FAULT_SEED, DEFAULT_LIBRARY_SEED};
use sp2_core::{experiment_or_err, Dataset, ExperimentInput, SelectionKind, Sp2System};
use sp2_power2::FastForward;
use sp2_workload::{trace, CampaignSpec, JobMix, WorkloadLibrary};
use std::time::Instant;

const DAYS: u32 = 270;
const FAULT_RATE: f64 = 1.0;
const EXPERIMENTS: [&str; 7] = [
    "table2",
    "table3",
    "fig1",
    "fig3",
    "fig5",
    "availability",
    "summary",
];

fn fault_seed(variant: usize) -> u64 {
    DEFAULT_FAULT_SEED + variant as u64
}

fn build_library() -> WorkloadLibrary {
    WorkloadLibrary::build_with(
        &ClusterConfig::default().machine,
        DEFAULT_LIBRARY_SEED,
        FastForward::Auto,
    )
}

/// The digest of an iteration's outputs: every dataset line, then the
/// archive bytes.
fn outputs_digest(lines: &[String], archive: &[u8]) -> String {
    let mut d = Digest::default();
    for l in lines {
        d.line(l);
    }
    d.update(archive);
    d.hex()
}

pub struct Faulted {
    /// The input variant: it picks the fault plan.
    variant: usize,
    /// Recorded digest of the variant.
    expected: String,
    library: Option<WorkloadLibrary>,
}

impl Faulted {
    pub fn new(variant: usize, expected: String) -> Faulted {
        Faulted {
            variant,
            expected,
            library: None,
        }
    }
}

impl Workload for Faulted {
    fn threads(&self) -> usize {
        1
    }

    fn setup(&mut self, traced: bool) -> Result<Layers, String> {
        make_cold();
        sp2_trace::set_enabled(traced);
        let t = Instant::now();
        self.library = Some(build_library());
        let build_s = t.elapsed().as_secs_f64();
        sp2_trace::set_enabled(false);
        Ok(if traced {
            power2_layers(&sp2_core::metrics::snapshot(), build_s)
        } else {
            Layers::new()
        })
    }

    fn iterate(&mut self, traced: bool) -> Result<IterOut, String> {
        let library = self.library.as_ref().ok_or("iterate before setup")?;
        let variant = self.variant;
        let fault_seed = fault_seed(variant);
        sp2_core::metrics::reset();
        sp2_trace::set_enabled(traced);
        let engine = EngineConfig::default().threads(1).metrics(traced);
        let config = ClusterConfig::default();
        let spec = CampaignSpec {
            days: DAYS,
            ..CampaignSpec::default()
        };
        let mut t = Tracer::new(traced);
        let clock = Clock::start();

        let jobs = t.span("workload.trace_generate", || {
            trace::generate(&spec, &JobMix::nas(), library)
        });
        let (faulted, twin) = t
            .span("cluster.run_campaign", || {
                let plan = FaultPlan::generate(config.nodes, DAYS, FAULT_RATE, fault_seed);
                let run = |plan: &FaultPlan| {
                    run_campaign_cfg_cancellable(&config, library, &jobs, DAYS, plan, &engine, None)
                };
                Ok::<_, sp2_cluster::CampaignError>((run(&plan)?, run(&FaultPlan::none())?))
            })
            .map_err(|e| e.to_string())?;
        let mut sys = Sp2System::builder()
            .config(config)
            .library(library.clone())
            .spec(spec)
            .engine(engine)
            .faults(FAULT_RATE)
            .fault_seed(fault_seed)
            .build();
        sys.preload_campaign(SelectionKind::Nas, true, faulted);
        sys.preload_campaign(SelectionKind::Nas, false, twin);
        let mut datasets: Vec<Dataset> = Vec::with_capacity(EXPERIMENTS.len());
        for id in EXPERIMENTS {
            let exp = experiment_or_err(id).map_err(err)?;
            let d = t
                .span(&format!("core.experiment.{id}"), || sys.dataset(exp))
                .map_err(err)?;
            datasets.push(d);
        }
        let campaign = sys.campaign().map_err(err)?;
        let (lines, bytes) = t
            .span("archive.write", || {
                let lines = dataset_lines(&datasets);
                let bytes = write_campaign_archive(Vec::new(), campaign, &lines)?;
                Ok::<_, sp2_core::Sp2Error>((lines, bytes))
            })
            .map_err(err)?;
        let archive = t
            .span("archive.read", || read_archive(bytes.as_slice()))
            .map_err(err)?;

        let (wall_s, cpu_s) = clock.stop();
        let snap = traced.then(sp2_core::metrics::snapshot);
        sp2_trace::set_enabled(false);
        let tree = traced.then(|| t.finish(wall_s));

        let samples = campaign.samples.len();
        // The paper's run is the fault-free twin; its error against the
        // paper is the same for every fault seed.
        let twin = sys.baseline_for(SelectionKind::Nas).map_err(err)?;
        let twin_summary = experiment_or_err("summary")
            .and_then(|e| e.run(ExperimentInput::of(twin)))
            .map_err(err)?;

        let mut problems = Vec::new();
        let got = outputs_digest(&lines, &bytes);
        if got != self.expected {
            problems.push(format!(
                "campaign_faulted_270d variant {variant} digest {got}, recorded {}",
                self.expected
            ));
        }
        let reread = archive.campaign.ok_or("archive lost its campaign")?;
        let rewritten =
            write_campaign_archive(Vec::new(), &reread, &archive.dataset_lines).map_err(err)?;
        if archive.dataset_lines != lines || rewritten != bytes {
            problems.push("archive read-back differs from what was written".into());
        }

        let mut layers = Layers::new();
        if let Some(tree) = &tree {
            for (key, span) in [
                ("workload.trace_generate_s", "workload.trace_generate"),
                ("archive.write_s", "archive.write"),
                ("archive.read_s", "archive.read"),
            ] {
                layers.insert(key.into(), tree.total(span));
            }
            layers.insert(
                "archive.bytes_per_sample".into(),
                bytes.len() as f64 / samples.max(1) as f64,
            );
        }
        Ok(IterOut {
            wall_s,
            cpu_s,
            ops: 1,
            failed: u64::from(!problems.is_empty()),
            problems,
            latencies_ms: vec![wall_s * 1e3],
            sim_days: 2.0 * f64::from(DAYS),
            paper_err: Some(digest::paper_err(&twin_summary.json)?),
            snap,
            tree,
            layers,
        })
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.library = None;
        Ok(())
    }
}

/// The reference: `Sp2System` running its own campaigns, one variant
/// at a time.
pub fn reference_digests() -> Result<Vec<String>, String> {
    let library = build_library();
    (0..VARIANTS)
        .map(|v| {
            let mut sys = Sp2System::builder()
                .library(library.clone())
                .days(DAYS)
                .threads(1)
                .faults(FAULT_RATE)
                .fault_seed(fault_seed(v))
                .build();
            let mut datasets = Vec::new();
            for id in EXPERIMENTS {
                datasets.push(
                    sys.dataset(experiment_or_err(id).map_err(err)?)
                        .map_err(err)?,
                );
            }
            let lines = dataset_lines(&datasets);
            let bytes = write_campaign_archive(Vec::new(), sys.campaign().map_err(err)?, &lines)
                .map_err(err)?;
            Ok(outputs_digest(&lines, &bytes))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_lines_and_archive_bytes() {
        let lines = vec!["{\"a\":1}".to_string()];
        let base = outputs_digest(&lines, b"SP2A\x00\x01");
        assert_ne!(base, outputs_digest(&lines, b"SP2A\x00\x03"));
        assert_ne!(
            base,
            outputs_digest(&["{\"a\":2}".to_string()], b"SP2A\x00\x01")
        );
        assert_eq!(digest::of_lines(["{\"a\":1}"]), outputs_digest(&lines, b""));
    }
}
