//! The campaign event loop.
//!
//! The loop itself is engine-agnostic: node state lives behind
//! [`Engine`], which is either the reference `Vec<NodeState>` walk or
//! the struct-of-arrays [`NodeBank`] batch engine. Both produce
//! bit-identical campaigns (the equivalence suite proves it at every
//! thread count). [`run_campaign`] is the one entry point; its
//! [`RunOptions`] select the engine, a cancellation token, and an
//! out-of-core sample sink.

use crate::activity::ActivityPlan;
use crate::engine::{EngineConfig, EngineKind, NodeBank};
use crate::faults::FaultPlan;
use crate::paging::PagingModel;
use crate::result::{CampaignResult, FaultSummary};
use crate::state::NodeState;
use rayon::prelude::*;
use sp2_hpm::{nas_selection, CounterSelection, CounterSnapshot};
use sp2_pbs::{JobId, JobOutcome, JobRecord, JobSpec, Pbs, PbsError};
use sp2_power2::handler::{daemon_sample_signature, page_fault_signature};
use sp2_power2::{KernelSignature, MachineConfig};
use sp2_rs2hpm::{BottleneckSplit, Daemon, JobCounterReport, SampleSink, SAMPLE_INTERVAL_S};
use sp2_switch::SwitchConfig;
use sp2_workload::{CampaignSpec, JobMix, SubmittedJob, WorkloadLibrary};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// How many times a job may run before PBS gives up on it: the first
/// attempt plus up to two requeues after node failures.
const MAX_JOB_ATTEMPTS: u32 = 3;

/// Machine-level configuration of the simulated SP2.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Node count (144 at NAS).
    pub nodes: usize,
    /// Per-node machine parameters.
    pub machine: MachineConfig,
    /// Switch parameters.
    pub switch: SwitchConfig,
    /// Paging model parameters.
    pub paging: PagingModel,
    /// PBS drain threshold (64 at NAS).
    pub drain_threshold: u32,
    /// Counter selection every node's monitor runs (Table 1's at NAS;
    /// swap in [`sp2_hpm::io_aware_selection`] for the §7 extension).
    pub selection: CounterSelection,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 144,
            machine: MachineConfig::nas_sp2(),
            switch: SwitchConfig::default(),
            paging: PagingModel::default(),
            drain_threshold: 64,
            selection: nas_selection(),
        }
    }
}

impl ClusterConfig {
    /// Starts a validated builder seeded with the NAS defaults. Prefer
    /// this over field-struct construction: the builder rejects machine
    /// descriptions the simulator would silently mishandle.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig::default(),
        }
    }
}

/// A [`ClusterConfig`] that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// `nodes == 0`: a machine with no nodes can run no jobs.
    NoNodes,
    /// The drain threshold exceeds the machine size, so draining could
    /// never gather enough nodes and wide jobs would starve forever.
    DrainExceedsNodes { drain_threshold: u32, nodes: usize },
    /// An empty counter selection: the monitors would count nothing and
    /// every downstream rate would be zero.
    EmptySelection,
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::NoNodes => write!(f, "cluster must have at least one node"),
            ClusterConfigError::DrainExceedsNodes {
                drain_threshold,
                nodes,
            } => write!(
                f,
                "drain threshold {drain_threshold} exceeds machine size {nodes}"
            ),
            ClusterConfigError::EmptySelection => {
                write!(f, "counter selection must watch at least one signal")
            }
        }
    }
}

impl std::error::Error for ClusterConfigError {}

/// Validated construction for [`ClusterConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Machine size in nodes.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Per-node machine parameters.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.config.machine = machine;
        self
    }

    /// Switch parameters.
    pub fn switch(mut self, switch: SwitchConfig) -> Self {
        self.config.switch = switch;
        self
    }

    /// Paging model parameters.
    pub fn paging(mut self, paging: PagingModel) -> Self {
        self.config.paging = paging;
        self
    }

    /// PBS drain threshold.
    pub fn drain_threshold(mut self, drain_threshold: u32) -> Self {
        self.config.drain_threshold = drain_threshold;
        self
    }

    /// Counter selection every node's monitor runs.
    pub fn selection(mut self, selection: CounterSelection) -> Self {
        self.config.selection = selection;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> Result<ClusterConfig, ClusterConfigError> {
        let c = self.config;
        if c.nodes == 0 {
            return Err(ClusterConfigError::NoNodes);
        }
        if c.drain_threshold as usize > c.nodes {
            return Err(ClusterConfigError::DrainExceedsNodes {
                drain_threshold: c.drain_threshold,
                nodes: c.nodes,
            });
        }
        if c.selection.is_empty() {
            return Err(ClusterConfigError::EmptySelection);
        }
        Ok(c)
    }
}

/// A campaign that could not run to completion.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The dedicated worker pool could not be built.
    ThreadPool(String),
    /// PBS rejected a request the simulation issued (e.g. a trace job
    /// requesting more nodes than the configured machine has).
    Pbs(PbsError),
    /// The campaign's [`CancelToken`] was raised mid-run. Partial state
    /// is discarded; the campaign produced no result.
    Cancelled,
    /// The caller's [`SampleSink`] failed while samples were being
    /// spilled out of core (e.g. the archive's disk filled up).
    Spill(String),
    /// A rotated campaign was given a plan with no passes (an empty
    /// signal request plans nothing to rotate through).
    EmptyPlan,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::ThreadPool(e) => write!(f, "building the worker pool failed: {e}"),
            CampaignError::Pbs(e) => write!(f, "batch system rejected a request: {e}"),
            CampaignError::Cancelled => write!(f, "campaign cancelled"),
            CampaignError::Spill(e) => write!(f, "spilling samples failed: {e}"),
            CampaignError::EmptyPlan => write!(f, "rotation plan has no passes"),
        }
    }
}

/// Cooperative cancellation handle for a running campaign.
///
/// The campaign service hands one of these to every job it schedules;
/// raising it makes the event loop bail out with
/// [`CampaignError::Cancelled`] at the next event boundary (one relaxed
/// atomic load per event — the check never perturbs results, it only
/// decides whether the loop keeps going). Tokens are sharable
/// (`Arc<CancelToken>`) and idempotent: cancelling twice is fine, and a
/// token raised before the run starts cancels it at the first event.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: std::sync::atomic::AtomicBool,
}

impl CancelToken {
    /// A fresh, un-raised token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the token; every campaign holding it bails at its next
    /// event boundary.
    pub fn cancel(&self) {
        self.cancelled
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether the token has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl std::error::Error for CampaignError {}

impl From<PbsError> for CampaignError {
    fn from(e: PbsError) -> Self {
        CampaignError::Pbs(e)
    }
}

/// Event kinds, ordered by time then kind for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// A job submission (index into the trace).
    Submit(usize),
    /// A running job's `attempt`-th run finishes. Stale events (the
    /// attempt was killed by a node failure) are ignored on pop.
    Finish(JobId, u32),
    /// The RS2HPM daemon's 15-minute sample (1-based sweep index).
    Sample(u64),
    /// A node fails.
    NodeDown(usize),
    /// A node is repaired and rebooted.
    NodeUp(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Scheduled {
    t: f64,
    seq: u64,
    ev: Ev,
}

impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct RunningJob {
    spec: JobSpec,
    nodes: Vec<usize>,
    start: f64,
    attempt: u32,
    prologue: Vec<CounterSnapshot>,
}

/// Per-campaign scratch for the job prologue/epilogue path. Retired
/// snapshot buffers and emptied prologue vectors cycle through these
/// pools instead of being dropped, so after warm-up a job start or
/// finish performs no heap allocation: prologues are drawn from
/// `prologues` + `snaps`, the epilogue batch is `epilogue` reused
/// across every Finish event, and a completed (or killed) job's buffers
/// all return here.
#[derive(Default)]
struct JobScratch {
    /// Retired [`CounterSnapshot`] buffers, ready to be overwritten.
    snaps: Vec<CounterSnapshot>,
    /// Retired prologue vectors (emptied, capacity kept).
    prologues: Vec<Vec<CounterSnapshot>>,
    /// The epilogue batch, drained back into `snaps` after each report.
    epilogue: Vec<CounterSnapshot>,
}

impl JobScratch {
    /// Returns a finished or killed job's prologue buffers to the pools.
    fn recycle(&mut self, mut prologue: Vec<CounterSnapshot>) {
        self.snaps.append(&mut prologue);
        self.prologues.push(prologue);
    }
}

/// The node-state engine behind the event loop: same operations, same
/// results, two implementations (see the module docs).
// One Engine exists per campaign, so the size gap between the variants
// costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Reference(Vec<NodeState>),
    Batch(NodeBank),
}

impl Engine {
    fn new(kind: EngineKind, selection: &CounterSelection, nodes: usize) -> Self {
        match kind {
            EngineKind::Reference => Engine::Reference(
                (0..nodes)
                    .map(|_| NodeState::new(selection.clone()))
                    .collect(),
            ),
            EngineKind::Batch => Engine::Batch(NodeBank::new(selection.clone(), nodes)),
        }
    }

    fn set_activity(&mut self, node: usize, t: f64, plan: Option<ActivityPlan>) {
        match self {
            Engine::Reference(nodes) => nodes[node].set_activity(t, plan),
            Engine::Batch(bank) => bank.set_activity(node, t, plan),
        }
    }

    /// Puts every listed node on `plan` at `t` — the job start/finish
    /// path. Equivalent to [`Engine::set_activity`] per node; the batch
    /// engine interns the plan once and hands the other nodes refcount
    /// bumps instead of a deep plan comparison each.
    fn set_activity_many(&mut self, targets: &[usize], t: f64, plan: ActivityPlan) {
        match self {
            Engine::Reference(nodes) => {
                for &n in targets {
                    nodes[n].set_activity(t, Some(plan.clone()));
                }
            }
            Engine::Batch(bank) => bank.set_activity_many(targets, t, plan),
        }
    }

    fn snapshot(&self, node: usize) -> CounterSnapshot {
        match self {
            Engine::Reference(nodes) => nodes[node].hpm().snapshot(),
            Engine::Batch(bank) => bank.snapshot(node),
        }
    }

    /// [`Engine::snapshot`] into an existing snapshot, reusing its
    /// buffers (the sweep loop recycles retired daemon baselines).
    fn snapshot_into(&self, node: usize, out: &mut CounterSnapshot) {
        match self {
            Engine::Reference(nodes) => nodes[node].hpm().snapshot_into(out),
            Engine::Batch(bank) => bank.snapshot_into(node, out),
        }
    }

    /// Advances every listed node to `t`, then snapshots them all into
    /// `out` — the job prologue/epilogue path, equivalent to
    /// [`Engine::snapshot_at`] per node. The batch engine resolves the
    /// distinct `(plan, dt)` deltas once for the whole allocation and
    /// reads every node's lanes in one pass; snapshot buffers are drawn
    /// from `pool` (retired ones go back via the caller), so the path
    /// allocates nothing once the pool is warm.
    fn snapshot_many_at(
        &mut self,
        targets: &[usize],
        t: f64,
        out: &mut Vec<CounterSnapshot>,
        pool: &mut Vec<CounterSnapshot>,
    ) {
        debug_assert!(out.is_empty(), "callers drain the batch back to the pool");
        out.clear();
        match self {
            Engine::Reference(nodes) => {
                for &n in targets {
                    nodes[n].advance(t);
                    match pool.pop() {
                        Some(mut s) => {
                            nodes[n].hpm().snapshot_into(&mut s);
                            out.push(s);
                        }
                        None => out.push(nodes[n].hpm().snapshot()),
                    }
                }
            }
            Engine::Batch(bank) => {
                bank.advance_many(targets, t);
                for &n in targets {
                    match pool.pop() {
                        Some(s) => out.push(s),
                        None => out.push(bank.snapshot(n)),
                    }
                }
                bank.snapshot_many_into(targets, out);
            }
        }
    }

    fn reboot(&mut self, node: usize, t: f64) {
        match self {
            Engine::Reference(nodes) => nodes[node].reboot(t),
            Engine::Batch(bank) => bank.reboot(node, t),
        }
    }

    /// Advances every node to `t` — the sampling pass's hot path.
    fn advance_all(&mut self, t: f64, chunk: usize) {
        match self {
            Engine::Reference(nodes) => {
                if sp2_trace::enabled() {
                    // Worker-busy time is clocked per worker chunk, not
                    // per node: one Instant pair per chunk keeps the
                    // traced path inside the overhead budget while still
                    // summing all on-worker time. Chunking never changes
                    // results — nodes are independent and each advances
                    // exactly once.
                    nodes.par_chunks_mut(chunk).for_each(|chunk| {
                        let t0 = std::time::Instant::now();
                        for n in chunk.iter_mut() {
                            n.advance(t);
                        }
                        crate::metrics::ADVANCE_BUSY_NS.add(t0.elapsed().as_nanos() as u64);
                    });
                } else {
                    nodes.par_iter_mut().for_each(|n| n.advance(t));
                }
            }
            Engine::Batch(bank) => {
                if sp2_trace::enabled() {
                    let t0 = std::time::Instant::now();
                    bank.advance_all(t);
                    crate::metrics::ADVANCE_BUSY_NS.add(t0.elapsed().as_nanos() as u64);
                } else {
                    bank.advance_all(t);
                }
            }
        }
    }
}

/// How a campaign runs: the engine configuration it runs under, an
/// optional cancellation token, and an optional out-of-core sample
/// sink. [`RunOptions::default`] is the batch engine on the caller's
/// pool, uncancellable, with samples resident; an [`EngineConfig`]
/// converts into options that change only the engine.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Engine kind, worker pool, and measurement switches. Results are
    /// bit-identical under every setting.
    pub engine: EngineConfig,
    /// Polled at every event boundary; once raised, the run returns
    /// [`CampaignError::Cancelled`]. The campaign service uses this so a
    /// `cancel` request reclaims the pool mid-campaign.
    pub cancel: Option<&'a CancelToken>,
    /// When given, every finalized [`sp2_rs2hpm::SystemSample`] is
    /// drained into the sink as the campaign runs (the interval
    /// reference stays resident) and [`CampaignResult::samples`] comes
    /// back empty — year-scale campaigns aggregate in bounded memory.
    /// Sink failures abort the run with [`CampaignError::Spill`].
    pub spill: Option<&'a mut dyn SampleSink>,
}

impl From<EngineConfig> for RunOptions<'_> {
    fn from(engine: EngineConfig) -> Self {
        RunOptions {
            engine,
            cancel: None,
            spill: None,
        }
    }
}

/// Runs the full campaign: replays `trace` through PBS on the simulated
/// machine for `days` days, injecting `faults`, and returns every dataset
/// the paper's evaluation uses.
///
/// Applies the engine configuration's switches, builds a dedicated
/// worker pool if `threads` is set (inheriting the caller's pool
/// otherwise), and selects the node engine. With [`FaultPlan::none`] the
/// result is bit-identical under every engine, thread count, and switch
/// setting; with a generated plan it is fully determined by the trace
/// seed and the fault seed.
pub fn run_campaign(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    opts: RunOptions<'_>,
) -> Result<CampaignResult, CampaignError> {
    let engine = opts.engine;
    engine.apply();
    let run = || {
        let _campaign_span = crate::metrics::CAMPAIGN.span();
        let _campaign_ev = sp2_trace::events::span("campaign", "phase");
        crate::metrics::RAYON_THREADS.set(rayon::current_num_threads() as f64);
        Campaign::new(config, library, trace, days, faults, opts).run()
    };
    match engine.threads {
        Some(threads) => rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| CampaignError::ThreadPool(e.to_string()))?
            .install(run),
        None => run(),
    }
}

/// [`run_campaign`] with an engine configuration and an optional
/// cancellation token. Kept only for the benchmark harness, which calls
/// it by this name; everything else calls [`run_campaign`].
pub fn run_campaign_cfg_cancellable(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    trace: &[SubmittedJob],
    days: u32,
    faults: &FaultPlan,
    engine: &EngineConfig,
    cancel: Option<&CancelToken>,
) -> Result<CampaignResult, CampaignError> {
    run_campaign(
        config,
        library,
        trace,
        days,
        faults,
        RunOptions {
            engine: *engine,
            cancel,
            spill: None,
        },
    )
}

/// Publishes the newest sweep's top-down bottleneck split as live
/// gauges (percent of cycles per category). Gated on recording so the
/// hot loop pays nothing when tracing is off; gauges never feed back
/// into engine state, so bit-identity between engines is unaffected.
fn publish_toplev_gauges(selection: &CounterSelection, daemon: &Daemon) {
    if !sp2_trace::recording() {
        return;
    }
    let Some(sample) = daemon.samples().last() else {
        return;
    };
    let Some(split) = BottleneckSplit::from_delta(selection, &sample.total) else {
        return;
    };
    crate::metrics::TOPLEV_DISPATCH.set(split.dispatch * 100.0);
    crate::metrics::TOPLEV_FPU.set(split.fpu * 100.0);
    crate::metrics::TOPLEV_DCACHE_TLB.set(split.dcache_tlb * 100.0);
    crate::metrics::TOPLEV_ICACHE.set(split.icache * 100.0);
    crate::metrics::TOPLEV_IO_WAIT.set(split.io_wait * 100.0);
}

/// One campaign's event loop: the state the RS2HPM daemon's sweeps and
/// PBS's prologue/epilogue hooks act on, with one method per event arm.
/// `'a` borrows the campaign's inputs, `'o` its [`RunOptions`].
struct Campaign<'a, 'o> {
    config: &'a ClusterConfig,
    library: &'a WorkloadLibrary,
    trace: &'a [SubmittedJob],
    faults: &'a FaultPlan,
    cancel: Option<&'o CancelToken>,
    spill: Option<&'o mut dyn SampleSink>,
    days: u32,
    horizon: f64,
    handler: KernelSignature,
    idle_plan: ActivityPlan,
    engine: Engine,
    pbs: Pbs,
    daemon: Daemon,
    /// The event heap, time-ordered with ties broken by `seq`.
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    running: HashMap<JobId, RunningJob>,
    /// Runs so far per trace job (requeues after node failures).
    attempts: Vec<u32>,
    down: Vec<bool>,
    scratch: JobScratch,
    /// The sweep batch, reused across samples: `collect_batch` moves
    /// each fresh snapshot in as a node's new baseline and leaves the
    /// retired one behind, so after the first two sweeps the sampling
    /// pass recycles the same buffers and allocates nothing.
    sweep_batch: Vec<Option<CounterSnapshot>>,
    /// Advance-tick chunk size: the node count is fixed for the whole
    /// campaign, so it is derived once.
    advance_chunk: usize,
    /// Longest steady run [`Campaign::sample`] gathers; 1 disables
    /// cluster-interval elision.
    max_run: usize,
    job_reports: Vec<JobCounterReport>,
    pbs_records: Vec<JobRecord>,
    summary: FaultSummary,
}

impl<'a, 'o> Campaign<'a, 'o> {
    /// Boots the machine idle, queues every submission, sweep, and
    /// outage inside the horizon, and takes the daemon's baseline pass.
    fn new(
        config: &'a ClusterConfig,
        library: &'a WorkloadLibrary,
        trace: &'a [SubmittedJob],
        days: u32,
        faults: &'a FaultPlan,
        opts: RunOptions<'o>,
    ) -> Self {
        let RunOptions {
            engine: engine_cfg,
            cancel,
            spill,
        } = opts;
        let horizon = days as f64 * 86_400.0;
        let daemon_sig = daemon_sample_signature(&config.machine);
        let idle_plan = ActivityPlan::idle(&daemon_sig, &config.paging);
        let mut engine = Engine::new(engine_cfg.engine, &config.selection, config.nodes);
        for n in 0..config.nodes {
            engine.set_activity(n, 0.0, Some(idle_plan.clone()));
        }
        // Cluster-interval fast-forward: the batch engine may elide runs
        // of steady sweeps (see `Campaign::sample`). The reference engine
        // never does — it is the baseline the elision is proven against —
        // and `--no-fast-forward` forces full stepping for A/B runs, the
        // same switch that governs the kernel-level fast-forward. The
        // switch is read from the config when set (one read per
        // campaign, immune to other threads flipping the process global
        // mid-run) and from the global otherwise. Spilling campaigns cap
        // the run so samples can leave the process between runs.
        let steady_ff = engine_cfg.engine == EngineKind::Batch
            && engine_cfg
                .fast_forward
                .unwrap_or_else(sp2_power2::fast_forward_enabled);
        let max_run = match (steady_ff, spill.is_some()) {
            (false, _) => 1,
            (true, true) => engine_cfg.spill_max_run,
            (true, false) => usize::MAX,
        };
        let mut campaign = Campaign {
            config,
            library,
            trace,
            faults,
            cancel,
            spill,
            days,
            horizon,
            handler: page_fault_signature(&config.machine),
            idle_plan,
            engine,
            pbs: Pbs::new(config.nodes).with_drain_threshold(config.drain_threshold),
            daemon: Daemon::new(config.selection.clone(), config.nodes),
            heap: BinaryHeap::new(),
            seq: 0,
            running: HashMap::new(),
            attempts: vec![0; trace.len()],
            down: vec![false; config.nodes],
            scratch: JobScratch::default(),
            sweep_batch: vec![None; config.nodes],
            advance_chunk: config
                .nodes
                .div_ceil(rayon::current_num_threads().max(1))
                .max(1),
            max_run,
            job_reports: Vec::new(),
            pbs_records: Vec::new(),
            summary: FaultSummary {
                enabled: !faults.is_empty(),
                node_downtime_s: faults.node_downtime_s(horizon),
                ..FaultSummary::default()
            },
        };

        for (i, job) in trace.iter().enumerate() {
            if job.submit_s < horizon {
                campaign.push(job.submit_s, Ev::Submit(i));
            }
        }
        let mut sweep = 0u64;
        let mut t_sample = SAMPLE_INTERVAL_S;
        while t_sample <= horizon {
            sweep += 1;
            campaign.push(t_sample, Ev::Sample(sweep));
            t_sample += SAMPLE_INTERVAL_S;
        }
        for outage in faults.outages() {
            if outage.start < horizon {
                campaign.push(outage.start, Ev::NodeDown(outage.node));
                campaign.push(outage.end, Ev::NodeUp(outage.node));
                campaign.summary.outages += 1;
            }
        }

        // Baseline daemon pass at t=0 (flight-recorder sweep 0 only
        // baselines the interval series, exactly like the daemon itself).
        campaign.snapshot_sweep(&[]);
        campaign
            .daemon
            .collect_batch(&mut campaign.sweep_batch, 0.0);
        sp2_trace::recorder::on_sweep(0, 0.0);
        campaign
    }

    fn push(&mut self, t: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            t,
            seq: self.seq,
            ev,
        }));
    }

    /// Pops and dispatches events until the horizon, then closes out.
    fn run(mut self) -> Result<CampaignResult, CampaignError> {
        while let Some(Reverse(Scheduled { t, ev, .. })) = self.heap.pop() {
            if t > self.horizon {
                break;
            }
            if self.cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(CampaignError::Cancelled);
            }
            crate::metrics::EVENTS.inc();
            match ev {
                Ev::Submit(i) => {
                    self.submit(i)?;
                    self.start_jobs(t);
                }
                Ev::Finish(id, attempt) => self.finish(id, attempt, t)?,
                Ev::Sample(k) => self.sample(k, t)?,
                Ev::NodeDown(node) => self.node_down(node, t)?,
                Ev::NodeUp(node) => self.node_up(node, t),
            }
        }
        self.close_out()
    }

    /// Hands trace job `i` to PBS's queue.
    fn submit(&mut self, i: usize) -> Result<(), PbsError> {
        let job = &self.trace[i];
        self.pbs.submit(JobSpec {
            id: JobId(i as u64),
            nodes: job.nodes,
            requested_walltime_s: job.requested_walltime_s,
            payload: i as u64,
        })
    }

    /// Starts every job PBS can place at `now`: prologue snapshots, the
    /// job's activity plan on its nodes, and its Finish event.
    fn start_jobs(&mut self, now: f64) {
        let _sched_span = crate::metrics::SCHEDULE.span();
        let _sched_ev = sp2_trace::events::span("schedule", "phase");
        let (config, trace) = (self.config, self.trace);
        for started in self.pbs.schedule(now) {
            let submitted = &trace[started.spec.payload as usize];
            let attempt = self.attempts[started.spec.payload as usize];
            // Queue wait in simulated time; a requeued attempt's wait
            // began at the kill, which the kill site records instead.
            if sp2_trace::recording() && attempt == 0 {
                sp2_trace::events::sim_span(
                    format!("job {} wait", started.spec.id.0),
                    "pbs",
                    submitted.submit_s,
                    now,
                );
            }
            let plan = ActivityPlan::for_job(
                self.library.program(submitted.program),
                self.library.signature_of(submitted.program),
                &self.handler,
                &config.switch,
                &config.paging,
                config.machine.memory_bytes,
                started.spec.nodes,
            );
            let mut prologue = self.scratch.prologues.pop().unwrap_or_default();
            self.engine.snapshot_many_at(
                &started.nodes,
                now,
                &mut prologue,
                &mut self.scratch.snaps,
            );
            self.engine.set_activity_many(&started.nodes, now, plan);
            // PBS enforces the walltime limit: a job that would run past
            // its request is killed at the limit (no checkpointing on
            // the SP2, so killed means gone).
            self.push(
                now + submitted.residency_s(),
                Ev::Finish(started.spec.id, attempt),
            );
            self.running.insert(
                started.spec.id,
                RunningJob {
                    spec: started.spec,
                    nodes: started.nodes,
                    start: now,
                    attempt,
                    prologue,
                },
            );
        }
    }

    /// Ends a job's run at `end`: its "job N run" span and `marker`
    /// instant on the trace, and its PBS accounting record.
    fn close_job(&mut self, job: &RunningJob, end: f64, marker: &str, outcome: JobOutcome) {
        let id = job.spec.id.0;
        if sp2_trace::recording() {
            sp2_trace::events::sim_span(format!("job {id} run"), "pbs", job.start, end);
            sp2_trace::events::sim_instant(format!("job {id} {marker}"), "pbs", end);
        }
        self.pbs_records.push(JobRecord {
            id,
            nodes: job.spec.nodes,
            start: job.start,
            end,
            outcome,
        });
    }

    /// A job's `attempt`-th run completes: epilogue snapshots and the
    /// job's counter report, its nodes back to idle, and a schedule
    /// pass. Finish events of killed attempts are stale and ignored.
    fn finish(&mut self, id: JobId, attempt: u32, t: f64) -> Result<(), CampaignError> {
        if self.running.get(&id).map(|j| j.attempt) != Some(attempt) {
            return Ok(()); // stale: this attempt was killed by a node failure
        }
        let Some(mut job) = self.running.remove(&id) else {
            return Ok(());
        };
        let scratch = &mut self.scratch;
        self.engine
            .snapshot_many_at(&job.nodes, t, &mut scratch.epilogue, &mut scratch.snaps);
        self.engine
            .set_activity_many(&job.nodes, t, self.idle_plan.clone());
        self.job_reports.push(JobCounterReport::from_snapshots(
            &self.config.selection,
            id.0,
            job.start,
            t,
            &job.prologue,
            &scratch.epilogue,
        ));
        scratch.recycle(std::mem::take(&mut job.prologue));
        scratch.snaps.append(&mut scratch.epilogue);
        self.pbs.finish(id, t)?;
        self.close_job(&job, t, "epilogue", JobOutcome::Completed);
        self.start_jobs(t);
        Ok(())
    }

    /// The daemon's `k`-th sweep at `t`. Gathers the steady run this
    /// sweep starts, then elides or steps each of its sweeps.
    fn sample(&mut self, k: u64, t: f64) -> Result<(), CampaignError> {
        let faults = self.faults;
        if faults.sweep_missed(k) {
            self.summary.missed_sweeps += 1;
            return Ok(());
        }
        if faults.restart_before_sweep(k) {
            self.daemon.restart();
            self.summary.daemon_restarts += 1;
        }
        let mut run = vec![(k, t)];
        let deferred_submit = self.gather_run(&mut run)?;
        let active = self.down.iter().filter(|&&d| !d).count();
        // A glitched first sweep may leave truncated baselines behind
        // without tripping the plausibility check (early in a campaign
        // the truncated delta can still be under PLAUSIBLE_DELTA_MAX),
        // which would poison the template below — push the clone point
        // one sweep further out so the template's baselines come from an
        // untruncated snapshot.
        let min_template = if faults.glitched_nodes(k).is_empty() {
            2
        } else {
            3
        };
        for (i, &(kk, tt)) in run.iter().enumerate() {
            // A run sweep at i >= 2 can clone run[i-1]'s sample:
            // run[i-1] sits one clean, exactly-900 s interval after
            // run[i-2], which advanced every node — so its per-node
            // deltas are pure one-interval deltas, and every later sweep
            // in the run repeats them exactly. Full coverage (no
            // anomalies, no re-baselining nodes) makes the daemon side a
            // pure replay too. Scale-apply the lane deltas, replay the
            // sample with only the timestamp changed: bit-identical to
            // stepping (the equivalence suite runs with this path on).
            let steady = i >= min_template
                && self
                    .daemon
                    .samples()
                    .last()
                    .is_some_and(|s| s.anomalies == 0 && s.nodes_sampled == active);
            if steady && run.len() - i >= 2 && self.elide(&run[i..]) {
                break;
            }
            self.step(kk, tt);
        }
        // Out-of-core path: everything before the newest sample is final
        // (samples only ever append), so it can leave the process now.
        // The newest one stays — it is the interval reference for the
        // next sweep and the fast-forward's replay template.
        if let Some(sink) = self.spill.as_mut() {
            self.daemon
                .drain_samples(&mut **sink, 1)
                .map_err(|e| CampaignError::Spill(e.to_string()))?;
        }
        // A gather-absorbed Submit whose job fits runs its schedule pass
        // now, after the window it trailed on the heap has been applied
        // — same order the reference loop would process it in.
        if let Some(t_sub) = deferred_submit {
            self.start_jobs(t_sub);
        }
        Ok(())
    }

    /// Extends `run` — a sweep `(k, t)` — to the steady run it starts:
    /// every Sample event ahead of it on the heap that keeps the cadence
    /// (next index, no fault interaction of its own), peeking *past*
    /// events that provably leave node state alone. Non-mutating events
    /// are executed here at their correct timestamps — PBS bookkeeping,
    /// metrics, fault accounting all happen exactly as they would
    /// stepping — so between two gathered sweeps no job, outage, or
    /// glitch touches any node, which is the precondition for the
    /// cluster-interval fast-forward. The classification (see DESIGN
    /// §4c):
    ///   - Submit that only queues (`Pbs::would_start` is false):
    ///     submitted here; starts nothing.
    ///   - Finish for a superseded attempt: dropped here, exactly as the
    ///     stale check in [`Campaign::finish`] would.
    ///   - NodeDown for an already-down node / NodeUp for an already-up
    ///     node: dropped, as their arms would.
    ///
    /// A Submit that *would* start a job still ends the run, but the
    /// submit itself is absorbed and its schedule pass deferred (the
    /// returned time) to after the gathered window is applied — the
    /// gathered sweeps all precede it in heap order, so this reproduces
    /// the reference event order exactly.
    fn gather_run(&mut self, run: &mut Vec<(u64, f64)>) -> Result<Option<f64>, CampaignError> {
        let faults = self.faults;
        while run.len() < self.max_run {
            let Some(&Reverse(next)) = self.heap.peek() else {
                break;
            };
            if next.t > self.horizon {
                break;
            }
            match next.ev {
                Ev::Sample(kk) => {
                    let prev_k = run[run.len() - 1].0;
                    if kk != prev_k + 1
                        || faults.sweep_missed(kk)
                        || faults.restart_before_sweep(kk)
                        || !faults.glitched_nodes(kk).is_empty()
                    {
                        break;
                    }
                    run.push((kk, next.t));
                }
                Ev::Finish(id, attempt) => {
                    if self.running.get(&id).map(|j| j.attempt) == Some(attempt) {
                        break; // live finish: real node-state mutation
                    }
                }
                Ev::NodeDown(node) => {
                    if !self.down[node] {
                        break; // real outage
                    }
                }
                Ev::NodeUp(node) => {
                    if self.down[node] {
                        break; // real recovery
                    }
                }
                Ev::Submit(i) => {
                    crate::metrics::EVENTS.inc();
                    self.heap.pop();
                    self.submit(i)?;
                    if self.pbs.would_start() {
                        // Starting now would advance nodes past the
                        // gathered sweep times; apply the window first,
                        // then schedule at the submit's own timestamp.
                        return Ok(Some(next.t));
                    }
                    self.start_jobs(next.t);
                    continue;
                }
            }
            crate::metrics::EVENTS.inc();
            self.heap.pop();
        }
        Ok(None)
    }

    /// Replays a steady run on the batch engine: scale-applies the lane
    /// deltas for every sweep of `run` at once, snapshots the final
    /// state, and has the daemon replay the template sample at each
    /// sweep time. Returns false, touching nothing, on the reference
    /// engine (which never gathers runs).
    fn elide(&mut self, run: &[(u64, f64)]) -> bool {
        let Engine::Batch(bank) = &mut self.engine else {
            return false;
        };
        let _ff_span = crate::metrics::ADVANCE.span();
        let _ff_ev = sp2_trace::events::span("cluster fast-forward", "phase");
        let steps = run.len() as u64;
        crate::metrics::SWEEPS.add(steps);
        crate::metrics::SWEEPS_ELIDED.add(steps);
        bank.advance_steady(SAMPLE_INTERVAL_S, steps, run[run.len() - 1].1);
        self.snapshot_sweep(&[]);
        let times: Vec<f64> = run.iter().map(|&(_, t)| t).collect();
        self.daemon
            .fast_forward_steady(&times, &mut self.sweep_batch);
        // Replayed sweeps share one steady-state delta, so a single
        // gauge update covers the whole run.
        publish_toplev_gauges(&self.config.selection, &self.daemon);
        for &(k, t) in run {
            sp2_trace::recorder::on_sweep(k, t);
        }
        true
    }

    /// One stepped sweep. Batched sampling pass: advance every node's
    /// counters to `t` (the engine parallelizes over its pool when the
    /// bank is big enough), then snapshot serially in index order. The
    /// daemon folds the batch in index order, so the sample is
    /// bit-identical at any thread count and under either engine.
    fn step(&mut self, k: u64, t: f64) {
        {
            let advance_span = crate::metrics::ADVANCE.span();
            let _advance_ev = sp2_trace::events::span("advance", "phase");
            self.engine.advance_all(t, self.advance_chunk);
            drop(advance_span);
        }
        let _sample_span = crate::metrics::SAMPLE.span();
        let _sample_ev = sp2_trace::events::span("sample", "phase");
        let faults = self.faults;
        let glitched = faults.glitched_nodes(k);
        self.snapshot_sweep(glitched);
        let down = &self.down;
        self.summary.glitches += glitched.iter().filter(|&&g| !down[g]).count();
        self.daemon.collect_batch(&mut self.sweep_batch, t);
        crate::metrics::SWEEPS.inc();
        publish_toplev_gauges(&self.config.selection, &self.daemon);
        sp2_trace::recorder::on_sweep(k, t);
    }

    /// Fills the sweep batch from the engine, reusing the retired
    /// baselines' buffers. Down nodes are skipped exactly as the real
    /// cron script skipped unavailable nodes; `glitched` nodes return
    /// their raw 32-bit registers.
    fn snapshot_sweep(&mut self, glitched: &[usize]) {
        for (n, slot) in self.sweep_batch.iter_mut().enumerate() {
            if self.down[n] {
                *slot = None;
                continue;
            }
            let mut snap = match slot.take() {
                Some(mut s) => {
                    self.engine.snapshot_into(n, &mut s);
                    s
                }
                None => self.engine.snapshot(n),
            };
            if glitched.contains(&n) {
                snap = snap.truncate_to_hardware();
            }
            *slot = Some(snap);
        }
    }

    /// A node fails: its counters freeze, the job on it (if any) is
    /// killed and requeued while attempts remain, and PBS reschedules.
    fn node_down(&mut self, node: usize, t: f64) -> Result<(), CampaignError> {
        if self.down[node] {
            return Ok(());
        }
        {
            let _fault_span = crate::metrics::FAULT_SWEEP.span();
            let _fault_ev = sp2_trace::events::span("fault", "phase");
            if sp2_trace::recording() {
                sp2_trace::events::sim_instant(format!("node {node} down"), "fault", t);
            }
            self.down[node] = true;
            // The node crashes: counters freeze at `t` (they advanced
            // while the job computed up to the crash).
            self.engine.set_activity(node, t, None);
            if let Some(id) = self.pbs.take_node_offline(node) {
                let killed = self.pbs.kill(id, t)?;
                if let Some(mut job) = self.running.remove(&id) {
                    // Surviving siblings drop back to idle; no epilogue
                    // runs for a killed job — its prologue buffers go
                    // straight back to the scratch pool.
                    self.scratch.recycle(std::mem::take(&mut job.prologue));
                    for &n in &job.nodes {
                        if n != node && !self.down[n] {
                            self.engine.set_activity(n, t, Some(self.idle_plan.clone()));
                        }
                    }
                    let requeued = job.attempt + 1 < MAX_JOB_ATTEMPTS;
                    let marker = if requeued { "requeue" } else { "kill" };
                    self.close_job(&job, t, marker, JobOutcome::NodeFailure { requeued });
                    self.summary.jobs_killed += 1;
                    if requeued {
                        self.attempts[id.0 as usize] += 1;
                        self.summary.jobs_requeued += 1;
                        self.pbs.requeue(killed.spec);
                    }
                }
            }
        }
        self.start_jobs(t);
        Ok(())
    }

    /// A node is repaired and rebooted: the monitor state did not
    /// survive, so the daemon will re-baseline it.
    fn node_up(&mut self, node: usize, t: f64) {
        if !self.down[node] {
            return;
        }
        {
            let _fault_span = crate::metrics::FAULT_SWEEP.span();
            let _fault_ev = sp2_trace::events::span("fault", "phase");
            if sp2_trace::recording() {
                sp2_trace::events::sim_instant(format!("node {node} up"), "fault", t);
            }
            self.down[node] = false;
            self.engine.reboot(node, t);
            self.engine
                .set_activity(node, t, Some(self.idle_plan.clone()));
            self.pbs.bring_node_online(node);
        }
        self.start_jobs(t);
    }

    /// Closes out still-running jobs at the horizon (partial records for
    /// utilization accounting; no epilogue report — the epilogue never
    /// ran, exactly as on a machine powered down mid-job) and assembles
    /// the result.
    fn close_out(mut self) -> Result<CampaignResult, CampaignError> {
        let horizon = self.horizon;
        let mut ids: Vec<JobId> = self.running.keys().copied().collect();
        ids.sort(); // HashMap iteration order is nondeterministic
        for id in ids {
            let Some(job) = self.running.remove(&id) else {
                continue;
            };
            self.pbs.finish(id, horizon)?;
            self.close_job(&job, horizon, "horizon", JobOutcome::Horizon);
        }

        crate::metrics::SIMULATED_S.add(horizon as u64);
        let samples = match self.spill {
            Some(sink) => {
                // Flush the tail (including the resident interval
                // reference); the sink holds the whole series, the
                // result carries none of it.
                self.daemon
                    .drain_samples(sink, 0)
                    .map_err(|e| CampaignError::Spill(e.to_string()))?;
                Vec::new()
            }
            None => self.daemon.samples().to_vec(),
        };
        Ok(CampaignResult {
            days: self.days,
            node_count: self.config.nodes,
            machine: self.config.machine,
            selection: self.config.selection.clone(),
            samples,
            job_reports: self.job_reports,
            pbs_records: self.pbs_records,
            faults: self.summary,
        })
    }
}

/// Runs `replications` independent campaigns whose traces derive from
/// `base_spec` with per-replication seeds (`seed + index`), sharded
/// across the rayon pool. Every replication replays the same `faults`
/// plan, so replication spread isolates workload variance from fault
/// variance.
///
/// Replications are embarrassingly parallel: each generates its own
/// submission trace and replays it on its own simulated machine. The
/// merge is deterministic — results come back ordered by replication
/// index regardless of how the shards were scheduled — so serial and
/// parallel runs produce bit-identical result vectors.
pub fn run_replications(
    config: &ClusterConfig,
    library: &WorkloadLibrary,
    mix: &JobMix,
    base_spec: &CampaignSpec,
    replications: usize,
    faults: &FaultPlan,
) -> Result<Vec<CampaignResult>, CampaignError> {
    (0..replications as u64)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|rep| {
            let spec = CampaignSpec {
                seed: base_spec.seed.wrapping_add(rep),
                ..*base_spec
            };
            let jobs = sp2_workload::trace::generate(&spec, mix, library);
            // The default (batch) engine: bit-identical to the reference
            // and much faster, which compounds across replications.
            run_campaign(
                config,
                library,
                &jobs,
                spec.days,
                faults,
                RunOptions::default(),
            )
        })
        .collect::<Vec<Result<CampaignResult, CampaignError>>>()
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2_workload::{trace, CampaignSpec, JobMix};

    /// A small but real campaign used by several tests.
    fn small_campaign() -> CampaignResult {
        small_campaign_with(&FaultPlan::none())
    }

    fn small_campaign_with(faults: &FaultPlan) -> CampaignResult {
        let config = ClusterConfig::default();
        let library = WorkloadLibrary::build(&config.machine, 42);
        let spec = CampaignSpec {
            days: 7,
            seed: 7,
            ..Default::default()
        };
        let jobs = trace::generate(&spec, &JobMix::nas(), &library);
        let reference = EngineConfig::default().engine(EngineKind::Reference);
        run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            faults,
            reference.into(),
        )
        .expect("campaign runs")
    }

    #[test]
    fn campaign_produces_all_datasets() {
        let r = small_campaign();
        assert_eq!(r.days, 7);
        assert_eq!(r.node_count, 144);
        // 7 days of 15-minute samples plus the baseline pass.
        assert_eq!(r.samples.len(), 7 * 96 + 1);
        assert!(!r.job_reports.is_empty(), "jobs must have completed");
        assert!(r.pbs_records.len() >= r.job_reports.len());
        assert!(!r.faults.enabled, "no faults were injected");
        assert!(r.pbs_records.iter().all(|rec| rec.outcome
            != JobOutcome::NodeFailure { requeued: true }
            && rec.outcome != JobOutcome::NodeFailure { requeued: false }));
    }

    #[test]
    fn sampled_rates_are_plausible() {
        let r = small_campaign();
        // Machine-wide Mflops per sample: 0 ≤ x ≤ 144 x peak.
        let peak = 144.0 * MachineConfig::nas_sp2().peak_mflops();
        for s in &r.samples {
            assert!(s.rates.mflops >= 0.0);
            assert!(s.rates.mflops < peak, "sample exceeds machine peak");
        }
        let busy_samples = r.samples.iter().filter(|s| s.rates.mflops > 100.0).count();
        assert!(busy_samples > 50, "the machine must actually compute");
    }

    #[test]
    fn job_reports_match_pbs_records() {
        let r = small_campaign();
        for report in &r.job_reports {
            let rec = r
                .pbs_records
                .iter()
                .find(|rec| rec.id == report.job_id)
                .expect("every epilogue has an accounting record");
            assert_eq!(rec.nodes, report.nodes);
            assert!((rec.start - report.start).abs() < 1e-6);
            assert!((rec.end - report.end).abs() < 1e-6);
        }
    }

    #[test]
    fn determinism() {
        let a = small_campaign();
        let b = small_campaign();
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.job_reports.len(), b.job_reports.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.total, y.total);
        }
    }

    #[test]
    fn dedicated_nodes_never_double_booked() {
        // Indirectly verified: PBS enforces it; here we check that no
        // report ever spans more nodes than requested.
        let r = small_campaign();
        for report in &r.job_reports {
            assert!(report.nodes >= 1 && report.nodes <= 144);
        }
    }

    #[test]
    fn faulted_campaign_is_deterministic_and_degraded() {
        let plan = FaultPlan::generate(144, 7, 1.0, 1996);
        let a = small_campaign_with(&plan);
        let b = small_campaign_with(&plan);
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.total, y.total);
            assert_eq!(x.nodes_sampled, y.nodes_sampled);
        }
        assert!(a.faults.enabled);
        assert_eq!(a.faults, b.faults);
        // The plan injected real degradation.
        assert!(a.faults.outages > 0);
        assert!(a.samples.len() < 7 * 96 + 1, "missed sweeps drop samples");
        assert!(
            a.samples.iter().any(|s| s.has_gap()),
            "outages must leave coverage gaps"
        );
    }

    #[test]
    fn node_failures_kill_and_requeue_jobs() {
        let plan = FaultPlan::generate(144, 7, 2.0, 11);
        let r = small_campaign_with(&plan);
        assert!(r.faults.jobs_killed > 0, "a 2x fault rate must hit jobs");
        assert!(r.faults.jobs_requeued > 0);
        assert!(r.faults.jobs_requeued <= r.faults.jobs_killed);
        let killed = r
            .pbs_records
            .iter()
            .filter(|rec| matches!(rec.outcome, JobOutcome::NodeFailure { .. }))
            .count();
        assert_eq!(killed, r.faults.jobs_killed);
        // A requeued job eventually reappears: some id has both a
        // NodeFailure record and a later Completed/Horizon record.
        let reran = r.pbs_records.iter().any(|rec| {
            matches!(rec.outcome, JobOutcome::NodeFailure { requeued: true })
                && r.pbs_records
                    .iter()
                    .any(|r2| r2.id == rec.id && r2.start >= rec.end && r2.outcome != rec.outcome)
        });
        assert!(reran, "requeued jobs must get another attempt");
    }

    #[test]
    fn batch_engine_matches_reference_bitwise() {
        // The full equivalence suite (tests/engine_equivalence.rs) runs
        // larger campaigns across thread counts; this is the fast smoke
        // version: one small faulted campaign, both engines, every
        // dataset compared with `==` (u64 counters and exact f64s).
        let config = ClusterConfig::builder()
            .nodes(24)
            .drain_threshold(12)
            .build()
            .expect("valid config");
        let library = WorkloadLibrary::build(&config.machine, 42);
        let spec = CampaignSpec {
            days: 2,
            seed: 3,
            ..Default::default()
        };
        // The NAS mix includes jobs wider than this scaled-down machine;
        // keep the ones that fit (PBS rejects oversized requests).
        let jobs: Vec<_> = trace::generate(&spec, &JobMix::nas(), &library)
            .into_iter()
            .filter(|j| j.nodes as usize <= 24)
            .collect();
        let plan = FaultPlan::generate(24, 2, 1.5, 9);
        let reference_engine = EngineConfig::default().engine(EngineKind::Reference);
        let reference = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &plan,
            reference_engine.into(),
        )
        .expect("reference runs");
        let batch = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &plan,
            EngineConfig::default().into(),
        )
        .expect("batch runs");
        assert_eq!(reference.samples, batch.samples);
        assert_eq!(reference.job_reports, batch.job_reports);
        assert_eq!(reference.pbs_records, batch.pbs_records);
        assert_eq!(reference.faults, batch.faults);
    }

    #[test]
    fn spilled_campaign_matches_resident_samples_bitwise() {
        let config = ClusterConfig::builder()
            .nodes(16)
            .drain_threshold(8)
            .build()
            .expect("valid config");
        let library = WorkloadLibrary::build(&config.machine, 42);
        let spec = CampaignSpec {
            days: 2,
            seed: 3,
            ..Default::default()
        };
        let jobs: Vec<_> = trace::generate(&spec, &JobMix::nas(), &library)
            .into_iter()
            .filter(|j| j.nodes as usize <= 16)
            .collect();
        let resident = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            EngineConfig::default().into(),
        )
        .expect("resident runs");
        let mut spilled: Vec<sp2_rs2hpm::SystemSample> = Vec::new();
        let r = run_campaign(
            &config,
            &library,
            &jobs,
            spec.days,
            &FaultPlan::none(),
            RunOptions {
                spill: Some(&mut spilled),
                ..EngineConfig::default().into()
            },
        )
        .expect("spilling run succeeds");
        assert!(r.samples.is_empty(), "the sink holds the series");
        assert_eq!(spilled, resident.samples, "spill is bit-identical");
        assert_eq!(r.job_reports, resident.job_reports);
        assert_eq!(r.pbs_records, resident.pbs_records);
    }

    #[test]
    fn glitches_surface_as_anomalies_not_garbage_rates() {
        let plan = FaultPlan::generate(144, 7, 2.0, 5);
        assert!(plan.glitch_count() > 0);
        let r = small_campaign_with(&plan);
        let anomalies: usize = r.samples.iter().map(|s| s.anomalies).sum();
        assert!(anomalies > 0, "glitches must be detected");
        let peak = 144.0 * MachineConfig::nas_sp2().peak_mflops();
        for s in &r.samples {
            assert!(
                s.rates.mflops < peak,
                "a wrapped delta leaked into the rates"
            );
        }
    }
}
