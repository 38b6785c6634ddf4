//! The three workloads and the reference runs that record their
//! expected digests.

pub mod faulted;
pub mod repro;
pub mod serve;

use sp2_core::{Dataset, Json, Sp2Error};
use sp2_power2::SignatureCache;

/// Forgets every measured kernel signature and zeroes the metrics, so
/// the next library build measures every kernel again, as in a fresh
/// process.
pub fn make_cold() {
    SignatureCache::global().clear();
    sp2_core::metrics::reset();
}

/// Each dataset as one compact JSON line, in order.
pub fn dataset_lines(datasets: &[Dataset]) -> Vec<String> {
    datasets
        .iter()
        .map(|d| d.json.to_string_compact())
        .collect()
}

pub fn err(e: Sp2Error) -> String {
    e.to_string()
}

/// Threads for a workload that asks for `want`, never more than the
/// host's cores.
pub fn cap_threads(want: usize) -> usize {
    want.min(crate::env::nproc()).max(1)
}

/// Runs every workload's reference path on every input variant and
/// renders the digests as the `expected.json` document. The reference
/// paths are the plain `Sp2System` and `serve::run_local` entry points
/// on one thread, so the benchmark's own layered and multi-threaded
/// paths are checked against them.
pub fn record() -> Result<String, String> {
    eprintln!("recording repro_270d…");
    let repro = repro::reference_digest()?;
    eprintln!("recording campaign_faulted_270d…");
    let faulted = faulted::reference_digests()?;
    eprintln!("recording serve_burst…");
    let serve = serve::reference_digests()?;
    let arr = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::Str).collect());
    Ok(Json::obj()
        .field("schema", "sp2-perfbench-digests/v1")
        .field("repro_270d", arr(vec![repro]))
        .field("campaign_faulted_270d", arr(faulted))
        .field("serve_burst", arr(serve))
        .to_string_pretty())
}
