//! Host readings: process CPU time, peak RSS, and the environment stamp
//! printed with every result.

use crate::digest::Digest;
use sp2_core::Json;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User+system CPU seconds consumed by every thread of this process.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and
    // CLOCK_PROCESS_CPUTIME_ID is a valid clock; the call writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Wall and CPU time of one timed region.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            cpu: cpu_s(),
            wall: Instant::now(),
        }
    }

    /// `(wall_s, cpu_s)` since [`Clock::start`].
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_s() - self.cpu)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Hash of every file under the workspace's `crates/` tree and its
/// manifests, so a result names the exact sources it measured even in a
/// checkout that is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in &files {
        let Ok(bytes) = std::fs::read(f) else {
            return "unknown".into();
        };
        d.line(&f.to_string_lossy());
        d.update(&bytes);
    }
    d.hex()
}

/// The environment stamp, one JSON object line. `oversubscribed` is
/// true when the run keeps more threads busy than the host has cores;
/// the workloads cap their pools at `nproc`, so it reads false unless a
/// cap is bypassed.
pub fn stamp(workload: &str, seed: u64, trace: bool, worker_threads: usize) -> String {
    let nproc = nproc();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let env = Json::obj()
        .field("workload", workload)
        .field("seed", seed)
        .field("trace", trace)
        .field("nproc", nproc)
        .field("worker_threads", worker_threads)
        .field("oversubscribed", worker_threads > nproc)
        .field("profile", profile)
        .field("commit", command_line("git", &["rev-parse", "HEAD"]))
        .field("source_digest", source_digest())
        .field("rustc", command_line("rustc", &["--version"]));
    Json::obj().field("env", env).to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let c = Clock::start();
        let mut x = 0u64;
        while c.stop().1 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (wall, cpu) = c.stop();
        assert!(cpu >= 0.01 && wall > 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
