//! `repro_270d`: the paper's own run, cold. Every iteration forgets the
//! measured kernel signatures, builds the workload library, runs the
//! NAS 270-day campaign (and the io-aware twin `iowait` needs) through
//! `Sp2System` on a 2-worker pool, runs all 14 experiments, and writes
//! every dataset's JSON artifact. Kernel measurement dominates, so this
//! is where kernel-layer work shows. Set-up warms the kernel simulator
//! with one cold measurement of a probe kernel, then forgets it.

use super::{cap_threads, dataset_lines, err, make_cold};
use crate::digest;
use crate::env::Clock;
use crate::tree::Tracer;
use crate::{power2_layers, IterOut, Layers, Workload};
use sp2_cluster::{ClusterConfig, EngineConfig};
use sp2_core::system::DEFAULT_LIBRARY_SEED;
use sp2_core::{all_experiments, Dataset, Sp2System};
use sp2_power2::SignatureCache;
use sp2_workload::kernels::seqaccess_kernel;
use std::path::PathBuf;

const DAYS: u32 = 270;

/// Iterations of the set-up's probe kernel: a sequential-access kernel
/// the simulator cannot fast-forward, so its cost is steady.
const PROBE_ITERS: u64 = 4_000_000;

/// The paper error of the `summary` dataset among `datasets`.
fn summary_err(datasets: &[Dataset]) -> Result<f64, String> {
    let s = datasets
        .iter()
        .find(|d| d.id == "summary")
        .ok_or("no summary dataset")?;
    digest::paper_err(&s.json)
}

pub struct Repro {
    threads: usize,
    expected: String,
    out_dir: PathBuf,
}

impl Repro {
    pub fn new(expected: String, work: PathBuf) -> Repro {
        let out_dir = work.join("experiments");
        // `Dataset::write_artifact` writes under this directory.
        std::env::set_var("SP2_EXPERIMENTS_DIR", &out_dir);
        Repro {
            threads: cap_threads(2),
            expected,
            out_dir,
        }
    }

    /// A cold process state and an empty artifact directory.
    fn prepare(&self) -> Result<(), String> {
        make_cold();
        let _ = std::fs::remove_dir_all(&self.out_dir);
        std::fs::create_dir_all(&self.out_dir).map_err(|e| e.to_string())
    }
}

impl Workload for Repro {
    fn threads(&self) -> usize {
        self.threads
    }

    /// An iteration takes about ten seconds and single iterations vary
    /// by up to ±15% on a shared host: the median of four rejects one
    /// outlier on either side and keeps a run near 45 seconds.
    fn min_iters(&self) -> usize {
        4
    }

    /// Everything the iteration measures starts cold, so set-up only
    /// warms the process: one kernel measured through the global
    /// signature cache, which is then cleared again.
    fn setup(&mut self, _traced: bool) -> Result<Layers, String> {
        make_cold();
        SignatureCache::global().measure(
            &seqaccess_kernel(PROBE_ITERS),
            &ClusterConfig::default().machine,
            DEFAULT_LIBRARY_SEED,
        );
        make_cold();
        Ok(Layers::new())
    }

    fn iterate(&mut self, traced: bool) -> Result<IterOut, String> {
        self.prepare()?;
        let engine = EngineConfig::default()
            .threads(self.threads)
            .metrics(traced);
        let mut t = Tracer::new(traced);
        let clock = Clock::start();

        let mut sys = t.span("power2.library_build", || {
            Sp2System::builder().days(DAYS).engine(engine).build()
        });
        let exps = all_experiments();
        let mut kinds = Vec::new();
        for e in exps.iter().filter(|e| e.needs_campaign()) {
            if !kinds.contains(&e.selection()) {
                kinds.push(e.selection());
            }
        }
        t.span("core.campaign", || {
            kinds
                .iter()
                .try_for_each(|k| sys.campaign_for(*k).map(|_| ()))
        })
        .map_err(err)?;
        let mut datasets: Vec<Dataset> = Vec::with_capacity(exps.len());
        for e in exps {
            let d = t
                .span(&format!("core.experiment.{}", e.id()), || sys.dataset(*e))
                .map_err(err)?;
            datasets.push(d);
        }
        t.span("export.json", || {
            datasets
                .iter()
                .try_for_each(|d| d.write_artifact().map(|_| ()))
        })
        .map_err(err)?;

        let (wall_s, cpu_s) = clock.stop();
        let snap = traced.then(sp2_core::metrics::snapshot);
        sp2_trace::set_enabled(false);
        let tree = traced.then(|| t.finish(wall_s));

        let lines = dataset_lines(&datasets);
        let got = digest::of_lines(lines.iter().map(String::as_str));
        let mut problems = Vec::new();
        if got != self.expected {
            problems.push(format!(
                "repro_270d dataset digest {got}, recorded {}",
                self.expected
            ));
        }
        let mut export_bytes = 0u64;
        for d in &datasets {
            let path = self.out_dir.join(format!("{}.json", d.id));
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            export_bytes += bytes.len() as u64;
            if bytes != format!("{}\n", d.json.to_string_pretty()).into_bytes() {
                problems.push(format!("exported {} differs from its dataset", d.id));
            }
        }

        let mut layers = Layers::new();
        if let (Some(snap), Some(tree)) = (&snap, &tree) {
            layers = power2_layers(snap, tree.total("power2.library_build"));
            layers.insert("export.json_s".into(), tree.total("export.json"));
            layers.insert("export.bytes".into(), export_bytes as f64);
        }
        Ok(IterOut {
            wall_s,
            cpu_s,
            ops: 1,
            failed: u64::from(!problems.is_empty()),
            problems,
            latencies_ms: vec![wall_s * 1e3],
            sim_days: f64::from(DAYS) * kinds.len() as f64,
            paper_err: Some(summary_err(&datasets)?),
            snap,
            tree,
            layers,
        })
    }

    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// The reference: the plain `Sp2System::run_all` on one thread.
pub fn reference_digest() -> Result<String, String> {
    let mut sys = Sp2System::builder().days(DAYS).threads(1).build();
    let datasets = sys.run_all().map_err(err)?;
    let lines = dataset_lines(&datasets);
    Ok(digest::of_lines(lines.iter().map(String::as_str)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_power2::{MachineConfig, SignatureCache};

    /// Every repro iteration must start cold: after `make_cold` the next
    /// measurement of a kernel the cache already held is a miss.
    #[test]
    fn make_cold_forgets_measured_signatures() {
        let cache = SignatureCache::global();
        let kernel = sp2_workload::kernels::seqaccess_kernel(64);
        let config = MachineConfig::default();
        cache.measure(&kernel, &config, 7);
        cache.measure(&kernel, &config, 7);
        assert!(cache.hits() >= 1 && !cache.is_empty());
        make_cold();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.measure(&kernel, &config, 7);
        assert_eq!((cache.hits(), cache.misses()), (0, 1), "re-measured cold");
    }
}
