//! `serve_burst`: a closed loop against an in-process `sp2 serve` on
//! loopback. Set-up builds the workload library cold, starts a server
//! and warms its shared library with one submission. Each iteration is
//! a burst: two client connections each send 50 two-day
//! `table2 fig1 summary` submissions back to back, every one waiting for
//! its result before the next. Seeds are distinct except that every
//! fifth submission repeats the other client's previous one, so the
//! dedup path runs too. Every burst sends the same submissions (the
//! input variant sets their order) to a server started afresh and
//! warmed with one submission, so bursts do equal work and each is
//! checked against the recorded digest. The simulation is small here,
//! so the protocol, the JSON codec and the job table own the latency.

use super::{cap_threads, err, make_cold};
use crate::digest::{self, Digest};
use crate::env::Clock;
use crate::stats::median;
use crate::tree::{nested, Layer, Tracer};
use crate::{power2_layers, IterOut, Layers, Workload, VARIANTS};
use sp2_cluster::{ClusterConfig, EngineConfig};
use sp2_core::serve::{run_local, Client, ServeConfig, Server, ServerHandle};
use sp2_core::system::DEFAULT_LIBRARY_SEED;
use sp2_core::{Json, Submission};
use sp2_power2::FastForward;
use sp2_workload::WorkloadLibrary;
use std::collections::hash_map::{Entry, HashMap};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

const CLIENTS: usize = 2;
const PER_CLIENT: usize = 50;
const DAYS: u32 = 2;
const EXPERIMENTS: [&str; 3] = ["table2", "fig1", "summary"];
const WARM_SEED: u64 = 1;

/// Campaign seed of client `client`'s `i`-th submission in a burst.
/// A burst serves the same 80 distinct two-day campaigns whatever the
/// input variant, so runs with different seeds do the same work; the
/// variant rotates the order in which the clients send them. Every
/// fifth submission repeats the other client's previous one, which is
/// in flight or finished when it arrives.
fn seed(variant: usize, client: usize, i: usize) -> u64 {
    let slot = (i + 5 * variant) % PER_CLIENT;
    let (client, slot) = if slot % 5 == 4 {
        (1 - client, slot - 1)
    } else {
        (client, slot)
    };
    1_000_000 + 2 * slot as u64 + client as u64
}

fn submission(seed: u64) -> Result<Submission, String> {
    Submission::builder()
        .days(DAYS)
        .seed(seed)
        .experiments(EXPERIMENTS)
        .build()
        .map_err(err)
}

fn engine() -> EngineConfig {
    EngineConfig::default().threads(1)
}

/// One waited submission as a client saw it.
struct Submitted {
    seed: u64,
    latency_ms: f64,
    /// Served from an existing job (dedup) or the store.
    replay: bool,
    done: bool,
    lines: Vec<String>,
}

/// Submits and waits through the program's own client. With the
/// server's metrics switched on, a `metrics` event follows the terminal
/// event; `Client::submit_and_wait` returns before it, so it is drained
/// here, or the next submission would read it as its header.
fn submit(client: &mut Client, seed: u64, traced: bool) -> Result<Submitted, String> {
    let sub = submission(seed)?;
    let t = Instant::now();
    let outcome = client.submit_and_wait(&sub).map_err(err)?;
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    if traced {
        let line = client.recv_line().map_err(err)?.unwrap_or_default();
        if !line.starts_with("{\"event\":\"metrics\"") {
            return Err(format!("expected a metrics event, got {line:.80}"));
        }
    }
    let flag = |k: &str| outcome.header.get(k) == Some(&Json::Bool(true));
    Ok(Submitted {
        seed,
        latency_ms,
        replay: flag("dedup") || flag("stored"),
        done: outcome.is_done(),
        lines: outcome.dataset_lines,
    })
}

fn client_burst(
    addr: SocketAddr,
    variant: usize,
    client: usize,
    traced: bool,
) -> Result<Vec<Submitted>, String> {
    let mut conn = Client::connect(addr).map_err(err)?;
    (0..PER_CLIENT)
        .map(|i| submit(&mut conn, seed(variant, client, i), traced))
        .collect()
}

/// Paper error of the `summary` dataset among a submission's lines.
fn lines_paper_err(lines: &[String]) -> Result<f64, String> {
    for l in lines {
        let doc = Json::parse(l).map_err(|e| format!("dataset line: {e}"))?;
        if doc.get("experiment").and_then(Json::as_str) == Some("summary") {
            return digest::paper_err(doc.get("doc").ok_or("line has no doc")?);
        }
    }
    Err("no summary dataset line".into())
}

pub struct ServeBurst {
    variant: usize,
    expected: String,
    work: PathBuf,
    campaigns: usize,
    server: Option<ServerHandle>,
    /// Servers started so far; each gets an empty store of its own.
    servers: usize,
    /// `run_local` lines and milliseconds of each submission seed.
    local: HashMap<u64, (Vec<String>, f64)>,
    /// Paper error of the warm-up submission's summary: a fixed input,
    /// so the figure is the same for every seed.
    paper_err: Option<f64>,
}

impl ServeBurst {
    pub fn new(variant: usize, expected: String, work: PathBuf) -> ServeBurst {
        ServeBurst {
            variant,
            expected,
            work,
            campaigns: cap_threads(CLIENTS),
            server: None,
            servers: 0,
            local: HashMap::new(),
            paper_err: None,
        }
    }

    /// Stops the running server, if any, and starts a fresh one on an
    /// empty store, warmed with one submission.
    fn fresh_server(&mut self, traced: bool) -> Result<(), String> {
        self.teardown()?;
        self.servers += 1;
        let server = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_dir: self.work.join(format!("store-{}", self.servers)),
            campaigns: self.campaigns,
            engine: engine(),
        })
        .map_err(err)?;
        let warm = submit(
            &mut Client::connect(server.addr()).map_err(err)?,
            WARM_SEED,
            traced,
        )?;
        self.server = Some(server);
        if !warm.done {
            return Err("warm-up submission failed".into());
        }
        self.paper_err = Some(lines_paper_err(&warm.lines)?);
        Ok(())
    }
}

impl Workload for ServeBurst {
    fn threads(&self) -> usize {
        self.campaigns
    }

    /// Cold library build, a fresh server over an empty store, and one
    /// warm-up submission.
    fn setup(&mut self, traced: bool) -> Result<Layers, String> {
        self.teardown()?;
        make_cold();
        sp2_trace::set_enabled(traced);
        let t = Instant::now();
        WorkloadLibrary::build_with(
            &ClusterConfig::default().machine,
            DEFAULT_LIBRARY_SEED,
            FastForward::Auto,
        );
        let build_s = t.elapsed().as_secs_f64();
        let layers = if traced {
            power2_layers(&sp2_core::metrics::snapshot(), build_s)
        } else {
            Layers::new()
        };
        self.fresh_server(traced)?;
        sp2_trace::set_enabled(false);
        Ok(layers)
    }

    fn iterate(&mut self, traced: bool) -> Result<IterOut, String> {
        let addr = self.server.as_ref().ok_or("iterate before setup")?.addr();
        let variant = self.variant;
        sp2_core::metrics::reset();
        sp2_trace::set_enabled(traced);
        let before = traced.then(sp2_core::metrics::snapshot);
        let clock = Clock::start();

        let lanes: Vec<Result<Vec<Submitted>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| s.spawn(move || client_burst(addr, variant, c, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });

        let (wall_s, cpu_s) = clock.stop();
        let snap = traced.then(sp2_core::metrics::snapshot);
        let lanes = lanes.into_iter().collect::<Result<Vec<_>, _>>()?;
        let all: Vec<&Submitted> = lanes.iter().flatten().collect();

        // Correctness: every streamed result equals the in-process run
        // of the same submission, and the burst matches the recorded
        // digest.
        let local = &mut self.local;
        let mut problems = Vec::new();
        let mut failed = 0;
        for s in &all {
            if let Entry::Vacant(slot) = local.entry(s.seed) {
                let t = Instant::now();
                let lines = run_local(&submission(s.seed)?, engine()).map_err(err)?;
                slot.insert((lines, t.elapsed().as_secs_f64() * 1e3));
            }
            if !s.done || s.lines != local[&s.seed].0 {
                failed += 1;
                problems.push(format!(
                    "serve_burst seed {}: streamed bytes differ from run_local",
                    s.seed
                ));
            }
        }
        let mut d = Digest::default();
        all.iter().flat_map(|s| &s.lines).for_each(|l| d.line(l));
        if d.hex() != self.expected {
            failed = all.len() as u64;
            problems.push(format!(
                "serve_burst digest {}, recorded {}",
                d.hex(),
                self.expected
            ));
        }

        let mut layers = Layers::new();
        let mut tree = None;
        if let (Some(before), Some(after)) = (&before, &snap) {
            let lat = |replay: bool| -> Vec<f64> {
                all.iter()
                    .filter(|s| s.replay == replay)
                    .map(|s| s.latency_ms)
                    .collect()
            };
            let overhead: Vec<f64> = all
                .iter()
                .filter(|s| !s.replay)
                .map(|s| s.latency_ms - local[&s.seed].1)
                .collect();
            layers.insert("serve.fresh_ms".into(), median(&lat(false)));
            layers.insert("serve.replay_ms".into(), median(&lat(true)));
            layers.insert("serve.overhead_ms".into(), median(&overhead));
            // Clients are parallel lanes: the tree is their average.
            let mut submit = Layer {
                name: "serve.submit".into(),
                total_s: all.iter().map(|s| s.latency_ms * 1e-3).sum(),
                children: nested(before, after, true),
            };
            submit.scale(CLIENTS as f64);
            let mut t = Tracer::new(true);
            t.add(submit);
            tree = Some(t.finish(wall_s));
        }
        let out = IterOut {
            wall_s,
            cpu_s,
            ops: all.len() as u64,
            failed,
            problems,
            latencies_ms: all.iter().map(|s| s.latency_ms).collect(),
            sim_days: f64::from(DAYS) * all.iter().filter(|s| !s.replay).count() as f64,
            paper_err: self.paper_err,
            snap,
            tree,
            layers,
        };
        sp2_trace::set_enabled(false);
        self.fresh_server(false)?;
        Ok(out)
    }

    fn teardown(&mut self) -> Result<(), String> {
        match self.server.take() {
            Some(s) => s.shutdown().map_err(err),
            None => Ok(()),
        }
    }
}

/// The reference: `run_local` of every submission of a burst.
pub fn reference_digests() -> Result<Vec<String>, String> {
    (0..VARIANTS)
        .map(|v| {
            let mut d = Digest::default();
            for c in 0..CLIENTS {
                for i in 0..PER_CLIENT {
                    for l in run_local(&submission(seed(v, c, i))?, engine()).map_err(err)? {
                        d.line(&l);
                    }
                }
            }
            Ok(d.hex())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_five_submissions_repeats_the_other_client() {
        let burst = |v: usize| -> Vec<u64> {
            (0..CLIENTS)
                .flat_map(|c| (0..PER_CLIENT).map(move |i| seed(v, c, i)))
                .collect()
        };
        let distinct = |mut s: Vec<u64>| {
            s.sort_unstable();
            s.dedup();
            s
        };
        let seeds = burst(3);
        assert_eq!(distinct(seeds.clone()).len(), seeds.len() * 4 / 5);
        assert_eq!(seed(3, 0, 4 + 5 * 7), seed(3, 1, 3 + 5 * 7));
        assert_eq!(
            distinct(burst(2)),
            distinct(seeds.clone()),
            "every variant serves the same campaigns"
        );
        assert_ne!(burst(2), seeds, "in another order");
    }
}
