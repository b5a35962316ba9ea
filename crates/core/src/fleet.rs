//! The fleet executor: many campaigns, one machine, every core busy.
//!
//! The paper's end-state is facility-scale autonomous science — swarms of
//! concurrent discovery campaigns sharing infrastructure (§5.3, §6). This
//! module runs M independent [`run_campaign`] instances across N OS
//! threads with three guarantees:
//!
//! 1. **Bit-reproducibility at any parallelism.** Every campaign's seed is
//!    derived from the fleet master seed via
//!    [`evoflow_sim::RngRegistry::shard_seed`], a pure function of
//!    `(master_seed, index)`. Which thread runs a campaign — or how many
//!    threads exist — cannot change any result, so
//!    [`run_campaign_fleet`] returns an identical [`FleetReport`] at
//!    `threads = 1` and `threads = 64`.
//! 2. **Load balancing over heterogeneous cells.** A `[Static × Single]`
//!    campaign finishes orders of magnitude sooner than
//!    `[Intelligent × Swarm]`. Workers claim chunks of task indices from
//!    one shared atomic cursor: a single `fetch_add` hands out the next
//!    chunk, and a worker that finishes its chunk claims the next, so no
//!    thread idles while work remains.
//! 3. **Deterministic aggregation.** Workers buffer results locally;
//!    the coordinator folds them in task order using
//!    [`evoflow_sim::SampleStats::merge`], so the per-cell distributions
//!    are independent of completion order.
//!
//! Every entry point — fresh run, crash test, resume, and the
//! multi-tenant service's three — fills a list of per-campaign result
//! slots through one private executor: a fresh run passes empty slots, a
//! resume passes the checkpoint's, and a crash test passes a commit cap.
//! Every resume checks its checkpoint through one handshake, which
//! refuses a mismatch with a [`FleetResumeError`].
//!
//! Wall-clock timing deliberately lives *outside* [`FleetReport`]
//! (callers time the call; [`run_campaign_fleet_profiled`] returns a
//! [`FleetTiming`] beside its report): a report that embedded its own
//! elapsed time could never be byte-identical across thread counts.
//!
//! ```
//! use evoflow_core::{run_campaign_fleet, Cell, FleetConfig, MaterialsSpace};
//! use evoflow_sim::SimDuration;
//!
//! let space = MaterialsSpace::generate(3, 8, 42);
//! let mut cfg = FleetConfig::new(7);
//! cfg.horizon = SimDuration::from_days(1);
//! cfg.push_cell(Cell::autonomous_science(), 2);
//! cfg.push_cell(Cell::traditional_wms(), 2);
//!
//! cfg.threads = 1;
//! let serial = run_campaign_fleet(&space, &cfg);
//! cfg.threads = 4;
//! let parallel = run_campaign_fleet(&space, &cfg);
//!
//! // Same master seed ⇒ identical results, regardless of thread count.
//! assert_eq!(serial.total_experiments, parallel.total_experiments);
//! assert_eq!(serial.reports.len(), 4);
//! assert_eq!(serial.per_cell.len(), 2);
//! ```

use crate::campaign::{
    run_campaign, run_campaign_profiled, run_campaign_recorded, CampaignConfig, CampaignReport,
};
use crate::domain::MaterialsSpace;
use crate::ledger::{CampaignEvent, CampaignLedger, FleetLedger};
use crate::matrix::Cell;
use crate::profile::{PhaseBreakdown, PhaseProfiler};
use evoflow_sim::{ChaosSchedule, ChaosSpec, RngRegistry, SampleStats, SimDuration};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Stream label under which fleet campaign seeds are derived from the
/// master seed (`RngRegistry::shard_seed(FLEET_SHARD_LABEL, index)`).
pub const FLEET_SHARD_LABEL: &str = "fleet-campaign";

/// Configuration for a campaign fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Master seed; every campaign's seed is derived from it by index.
    pub master_seed: u64,
    /// Worker threads. **0 means "one per host core"**
    /// (`available_parallelism()`) — the one host-dependent knob in the
    /// config: results never change with it, but anything that
    /// *records* the thread count must pin an explicit value to stay
    /// byte-identical across machines.
    pub threads: usize,
    /// Per-campaign configs, in shard order. Their `seed` fields are
    /// overwritten with derived shard seeds at run time.
    pub campaigns: Vec<CampaignConfig>,
    /// Horizon applied by [`FleetConfig::push_cell`] to new campaigns.
    pub horizon: SimDuration,
    /// Experiment cap applied by [`FleetConfig::push_cell`].
    pub max_experiments: u64,
}

impl FleetConfig {
    /// An empty fleet with the given master seed (30-day horizon,
    /// effectively unbounded experiment budget).
    pub fn new(master_seed: u64) -> Self {
        FleetConfig {
            master_seed,
            threads: 0,
            campaigns: Vec::new(),
            horizon: SimDuration::from_days(30),
            max_experiments: 1_000_000,
        }
    }

    /// Append `replications` campaigns at `cell`, inheriting the fleet's
    /// horizon and budget. Returns `&mut self` for chaining.
    pub fn push_cell(&mut self, cell: Cell, replications: usize) -> &mut Self {
        for _ in 0..replications {
            // Placeholder seed: overwritten with the derived shard seed.
            let mut c = CampaignConfig::for_cell(cell, 0);
            c.horizon = self.horizon;
            c.max_experiments = self.max_experiments;
            self.campaigns.push(c);
        }
        self
    }

    /// Append one fully customised campaign config.
    pub fn push_campaign(&mut self, cfg: CampaignConfig) -> &mut Self {
        self.campaigns.push(cfg);
        self
    }

    /// Worker threads that will actually be used.
    ///
    /// When [`threads`](FleetConfig::threads) is 0 this consults
    /// `available_parallelism()` and therefore **varies across hosts**;
    /// pin an explicit thread count wherever the value ends up in a
    /// host-independent artifact.
    pub fn effective_threads(&self) -> usize {
        let n = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.threads
        };
        n.max(1).min(self.campaigns.len().max(1))
    }

    /// The campaign configs with their derived shard seeds filled in —
    /// the exact inputs the fleet will execute, in shard order.
    pub fn sharded_campaigns(&self) -> Vec<CampaignConfig> {
        let reg = RngRegistry::new(self.master_seed);
        self.campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut c = c.clone();
                c.seed = reg.shard_seed(FLEET_SHARD_LABEL, i as u64);
                c
            })
            .collect()
    }
}

/// Five-number-free summary of a per-campaign metric across one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl From<&SampleStats> for DistSummary {
    fn from(s: &SampleStats) -> Self {
        DistSummary {
            mean: s.mean(),
            std_dev: s.std_dev(),
            min: s.min(),
            max: s.max(),
        }
    }
}

/// Aggregated outcomes for every campaign that ran at one matrix cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Cell label (e.g. `"Intelligent × Swarm(k=4)"`).
    pub cell_label: String,
    /// Campaigns that ran at this cell.
    pub campaigns: usize,
    /// Total experiments across those campaigns.
    pub experiments: u64,
    /// Total distinct discoveries (summed; campaigns are independent).
    pub distinct_discoveries: u64,
    /// Distribution of per-campaign discoveries per simulated week.
    pub discoveries_per_week: DistSummary,
    /// Distribution of per-campaign samples per simulated day.
    pub samples_per_day: DistSummary,
    /// Best score any campaign at this cell measured.
    pub best_score: f64,
}

/// Outcome of a fleet run. Pure function of `(space, FleetConfig minus
/// threads)`: thread count never changes any field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Master seed the shard seeds were derived from.
    pub master_seed: u64,
    /// Per-campaign reports, in shard (task) order.
    pub reports: Vec<CampaignReport>,
    /// Per-cell aggregates, in first-appearance order of the cell label.
    pub per_cell: Vec<CellSummary>,
    /// Total experiments across the fleet.
    pub total_experiments: u64,
    /// Total above-threshold measurements across the fleet.
    pub total_hits: u64,
    /// Summed distinct discoveries across the fleet.
    pub total_distinct_discoveries: u64,
    /// Best score measured anywhere in the fleet.
    pub best_score: f64,
    /// Total simulated inference tokens consumed.
    pub tokens: u64,
}

impl FleetReport {
    /// Fold per-campaign reports (in shard order) into a fleet report.
    ///
    /// Public so property tests can verify that the parallel executor's
    /// aggregation equals the merge of independent serial runs.
    pub fn from_reports(master_seed: u64, reports: Vec<CampaignReport>) -> Self {
        // Group by cell label, preserving first-appearance order.
        struct CellAcc {
            label: String,
            campaigns: usize,
            experiments: u64,
            distinct: u64,
            dpw: SampleStats,
            spd: SampleStats,
            best: f64,
        }
        let mut cells: Vec<CellAcc> = Vec::new();
        let mut total_experiments = 0u64;
        let mut total_hits = 0u64;
        let mut total_distinct = 0u64;
        let mut best_score = f64::NEG_INFINITY;
        let mut tokens = 0u64;
        for r in &reports {
            total_experiments += r.experiments;
            total_hits += r.total_hits;
            total_distinct += r.distinct_discoveries as u64;
            best_score = best_score.max(r.best_score);
            tokens += r.tokens;
            let acc = match cells.iter_mut().find(|c| c.label == r.cell_label) {
                Some(acc) => acc,
                None => {
                    cells.push(CellAcc {
                        label: r.cell_label.clone(),
                        campaigns: 0,
                        experiments: 0,
                        distinct: 0,
                        dpw: SampleStats::new(),
                        spd: SampleStats::new(),
                        best: f64::NEG_INFINITY,
                    });
                    cells.last_mut().expect("just pushed")
                }
            };
            acc.campaigns += 1;
            acc.experiments += r.experiments;
            acc.distinct += r.distinct_discoveries as u64;
            acc.dpw.record(r.discoveries_per_week);
            acc.spd.record(r.samples_per_day);
            acc.best = acc.best.max(r.best_score);
        }
        let per_cell = cells
            .into_iter()
            .map(|c| CellSummary {
                cell_label: c.label,
                campaigns: c.campaigns,
                experiments: c.experiments,
                distinct_discoveries: c.distinct,
                discoveries_per_week: DistSummary::from(&c.dpw),
                samples_per_day: DistSummary::from(&c.spd),
                best_score: c.best,
            })
            .collect();
        FleetReport {
            master_seed,
            per_cell,
            total_experiments,
            total_hits,
            total_distinct_discoveries: total_distinct,
            best_score: if best_score.is_finite() {
                best_score
            } else {
                0.0
            },
            tokens,
            reports,
        }
    }
}

/// Wall-clock measurements of a profiled fleet run — kept out of
/// [`FleetReport`] so reports stay byte-identical across thread counts.
#[derive(Debug, Clone, Copy)]
pub struct FleetTiming {
    /// Worker threads actually used.
    pub threads: usize,
    /// Elapsed wall-clock time for the whole fleet.
    pub wall_clock: Duration,
}

/// A lock-free claim queue over task indices, claiming tasks in
/// *chunks*.
///
/// One shared cursor replaces the old per-task claim flags: a single
/// `fetch_add` claims the next `chunk` task indices at once, so the
/// atomic-RMW (and its cache-line ping between workers) is amortized
/// over K tasks instead of paid per task — and a worker that exhausts
/// its chunk transparently "steals" the next one, so no worker idles
/// while tasks remain. The chunk size bounds tail imbalance at
/// `threads × (chunk − 1)` tasks, so it scales down as
/// `tasks / (threads × 4)` and never below 1 (the old one-task-per-claim
/// behaviour is the `chunk == 1` special case).
struct TaskQueue {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl TaskQueue {
    fn new(tasks: usize, threads: usize) -> Self {
        TaskQueue {
            next: AtomicUsize::new(0),
            len: tasks,
            chunk: (tasks / (threads.max(1) * 4)).max(1),
        }
    }

    /// Claim the next chunk of unclaimed task indices (empty ⇒ `None`).
    /// Exactly `ceil(len / chunk)` claims succeed across all workers,
    /// regardless of interleaving; each index is handed out exactly once.
    fn claim(&self) -> Option<std::ops::Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::AcqRel);
        if start >= self.len {
            return None;
        }
        Some(start..(start + self.chunk).min(self.len))
    }
}

/// Claim-side counters from one fleet execution — the *steal* phase of
/// [`crate::profile`]. `claims` counts successful chunk claims (a pure
/// function of task count and thread count); `nanos` is wall time inside
/// `claim` and is only measured when profiling is on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StealStats {
    pub(crate) claims: u64,
    pub(crate) nanos: u64,
}

/// The one executor behind every fleet and service entry point: run
/// `run(&configs[i])` for each index `i` in `order` whose slot is still
/// empty, across `threads` workers, and store each result in `slots[i]`.
///
/// A fresh run passes empty slots, a resume passes the checkpoint's
/// committed slots (so only the missing campaigns run), and a crash test
/// passes a commit `cap`: workers stop claiming once that many results
/// have committed, and a campaign that finishes after the cap is
/// *discarded* — exactly the in-flight work a coordinator `kill -9`
/// loses. `None` commits everything.
///
/// One thread runs the pending indices serially in `order`, with no
/// thread machinery and no claims. More threads pull chunks of the
/// pending list from a [`TaskQueue`]. With `time_steals` each claim is
/// wall-timed, the *steal* phase of a profiled fleet run; without it the
/// claim path reads no clock.
pub(crate) fn fill_slots<R, F>(
    slots: &mut [Option<R>],
    configs: &[CampaignConfig],
    order: &[usize],
    threads: usize,
    cap: Option<usize>,
    time_steals: bool,
    run: F,
) -> StealStats
where
    R: Send,
    F: Fn(&CampaignConfig) -> R + Sync,
{
    let pending: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&i| slots[i].is_none())
        .collect();
    let cap = cap.unwrap_or(usize::MAX);
    if pending.is_empty() || cap == 0 {
        return StealStats::default();
    }
    if threads <= 1 {
        for &i in pending.iter().take(cap) {
            slots[i] = Some(run(&configs[i]));
        }
        return StealStats::default();
    }
    let queue = TaskQueue::new(pending.len(), threads);
    let commits = AtomicUsize::new(0);
    let (queue, commits, pending, run) = (&queue, &commits, &pending, &run);
    let collected: Vec<(Vec<(usize, R)>, StealStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    let mut steals = StealStats::default();
                    'claiming: while commits.load(Ordering::Acquire) < cap {
                        let started = time_steals.then(Instant::now);
                        let claimed = queue.claim();
                        if let Some(t) = started {
                            steals.nanos += t.elapsed().as_nanos() as u64;
                        }
                        let Some(range) = claimed else {
                            break;
                        };
                        steals.claims += 1;
                        for &i in &pending[range] {
                            // Commit-or-discard: the crash point is a
                            // total order on completions, so work
                            // finishing after it is lost, like a real
                            // kill -9 — and the rest of a chunk claimed
                            // past the cap is in-flight work the crash
                            // never ran.
                            if commits.load(Ordering::Acquire) >= cap {
                                break 'claiming;
                            }
                            let result = run(&configs[i]);
                            if commits.fetch_add(1, Ordering::AcqRel) < cap {
                                local.push((i, result));
                            }
                        }
                    }
                    (local, steals)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    let mut steals = StealStats::default();
    for (local, s) in collected {
        for (i, result) in local {
            slots[i] = Some(result);
        }
        steals.claims += s.claims;
        steals.nanos += s.nanos;
    }
    steals
}

/// `n` empty result slots.
pub(crate) fn empty_slots<R>(n: usize) -> Vec<Option<R>> {
    (0..n).map(|_| None).collect()
}

/// Unwrap slots that [`fill_slots`] filled without a cap.
pub(crate) fn filled<R>(slots: Vec<Option<R>>) -> Vec<R> {
    slots
        .into_iter()
        .map(|s| s.expect("checkpointed or just run"))
        .collect()
}

/// Pair a checkpoint's committed reports with their ledgers, slot by
/// slot (the handshake has already checked that presence agrees).
pub(crate) fn paired_slots(
    completed: &[Option<CampaignReport>],
    ledgers: &[Option<CampaignLedger>],
) -> Vec<Option<(CampaignReport, CampaignLedger)>> {
    completed
        .iter()
        .zip(ledgers)
        .map(|(r, l)| r.clone().zip(l.clone()))
        .collect()
}

/// Split report-and-ledger slots into a checkpoint's two slot lists.
pub(crate) fn split_slots(
    slots: Vec<Option<(CampaignReport, CampaignLedger)>>,
) -> (Vec<Option<CampaignReport>>, Vec<Option<CampaignLedger>>) {
    slots.into_iter().map(|s| s.unzip()).unzip()
}

/// [`fill_slots`] over a fleet's shards, in shard order.
fn fill_fleet<R: Send>(
    cfg: &FleetConfig,
    shards: &[CampaignConfig],
    slots: &mut [Option<R>],
    cap: Option<usize>,
    time_steals: bool,
    run: impl Fn(&CampaignConfig) -> R + Sync,
) -> StealStats {
    let order: Vec<usize> = (0..shards.len()).collect();
    let threads = cfg.effective_threads();
    fill_slots(slots, shards, &order, threads, cap, time_steals, run)
}

/// Run a fleet of campaigns: M campaigns sharded across N worker threads,
/// deterministic regardless of N. See the module docs for the design.
pub fn run_campaign_fleet(space: &MaterialsSpace, cfg: &FleetConfig) -> FleetReport {
    complete_fleet(
        space,
        cfg,
        &cfg.sharded_campaigns(),
        empty_slots(cfg.campaigns.len()),
    )
}

/// Run every empty slot of a plain fleet and aggregate.
fn complete_fleet(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    shards: &[CampaignConfig],
    mut slots: Vec<Option<CampaignReport>>,
) -> FleetReport {
    fill_fleet(cfg, shards, &mut slots, None, false, |c| {
        run_campaign(space, c)
    });
    FleetReport::from_reports(cfg.master_seed, filled(slots))
}

/// A durable record of a partially executed fleet: which campaigns
/// committed their reports before the coordinator died, and the derived
/// shard seeds that make re-running the rest exact.
///
/// The unit of fleet checkpointing is the *campaign*: each campaign is a
/// pure function of `(space, config, shard seed)`, so a resume re-derives
/// the missing results bit-for-bit no matter which subset happened to
/// commit, which workers ran what, or how many threads either run used.
/// That is why [`resume_campaign_fleet`] produces a [`FleetReport`]
/// byte-identical to the uninterrupted run's.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Master seed of the interrupted fleet.
    pub master_seed: u64,
    /// Derived shard seed per campaign, in shard order — the resume
    /// handshake: a checkpoint only resumes against a config that derives
    /// the same seeds.
    pub shard_seeds: Vec<u64>,
    /// Committed per-campaign reports, in shard order (`None` = lost or
    /// never run; re-executed on resume).
    pub completed: Vec<Option<CampaignReport>>,
}

impl FleetCheckpoint {
    /// An empty checkpoint for `cfg` (nothing committed yet).
    pub fn empty(cfg: &FleetConfig) -> Self {
        FleetCheckpoint {
            master_seed: cfg.master_seed,
            shard_seeds: seeds_of(&cfg.sharded_campaigns()),
            completed: empty_slots(cfg.campaigns.len()),
        }
    }

    /// Record a committed campaign report.
    pub fn record(&mut self, index: usize, report: CampaignReport) {
        self.completed[index] = Some(report);
    }

    /// Campaigns whose reports committed.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|c| c.is_some()).count()
    }

    /// Campaigns still to run (lost in flight or never claimed).
    pub fn remaining_count(&self) -> usize {
        self.completed.len() - self.completed_count()
    }

    /// Whether every campaign committed.
    pub fn is_complete(&self) -> bool {
        self.remaining_count() == 0
    }
}

fn seeds_of(shards: &[CampaignConfig]) -> Vec<u64> {
    shards.iter().map(|c| c.seed).collect()
}

/// Why a fleet or service resume was refused: the checkpoint failed the
/// one resume handshake that every fleet and service resume runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetResumeError {
    /// The checkpoint's slot count does not match the config's.
    ShapeMismatch {
        /// The longest of the checkpoint's seed, report and ledger
        /// lists. A checkpoint whose own lists disagree in length can
        /// therefore report the config's count here.
        checkpoint: usize,
        /// Campaigns the config runs.
        fleet: usize,
    },
    /// A derived seed differs from the checkpoint's — the checkpoint
    /// belongs to a different fleet or session (or the config drifted),
    /// so splicing its reports would fabricate results.
    SeedMismatch {
        /// First slot whose seed disagrees.
        index: usize,
    },
    /// A slot has a committed report without its ledger (or a ledger
    /// without its report) — the checkpoint was assembled
    /// inconsistently, so splicing it would desynchronise the report
    /// from the audit trail.
    LedgerMismatch {
        /// First slot whose report/ledger presence disagrees.
        index: usize,
    },
}

impl std::fmt::Display for FleetResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetResumeError::ShapeMismatch { checkpoint, fleet } => write!(
                f,
                "checkpoint has {checkpoint} campaigns, config has {fleet}"
            ),
            FleetResumeError::SeedMismatch { index } => write!(
                f,
                "slot {index}'s derived seed differs from the checkpoint — \
                 checkpoint does not belong to this config"
            ),
            FleetResumeError::LedgerMismatch { index } => write!(
                f,
                "slot {index} has a committed report and ledger that disagree \
                 on presence — the checkpoint is inconsistent"
            ),
        }
    }
}

impl std::error::Error for FleetResumeError {}

/// The one resume handshake, shared by every fleet and service resume.
///
/// `seeds` are the seeds the config derives. The checkpoint's seed list,
/// its committed reports, and (for recording resumes) its ledgers must
/// all have that length, its seeds must match them, and each slot's
/// report and ledger must agree on presence — or splicing the
/// checkpoint would fabricate results.
pub(crate) fn check_handshake(
    seeds: &[u64],
    checkpoint_seeds: &[u64],
    completed: &[Option<CampaignReport>],
    ledgers: Option<&[Option<CampaignLedger>]>,
) -> Result<(), FleetResumeError> {
    let n = seeds.len();
    let ledger_len = ledgers.map_or(n, <[_]>::len);
    if checkpoint_seeds.len() != n || completed.len() != n || ledger_len != n {
        return Err(FleetResumeError::ShapeMismatch {
            checkpoint: checkpoint_seeds.len().max(completed.len()).max(ledger_len),
            fleet: n,
        });
    }
    if let Some(index) = seeds.iter().zip(checkpoint_seeds).position(|(a, b)| a != b) {
        return Err(FleetResumeError::SeedMismatch { index });
    }
    if let Some(index) = ledgers.and_then(|ledgers| {
        ledgers
            .iter()
            .zip(completed)
            .position(|(l, r)| l.is_some() != r.is_some())
    }) {
        return Err(FleetResumeError::LedgerMismatch { index });
    }
    Ok(())
}

/// Derive the seeded crash point for a fleet of `campaigns` campaigns:
/// the number of commits after which the coordinator dies. Pure function
/// of `(chaos_seed, campaigns)`, drawn through the
/// [`evoflow_sim::chaos`] machinery so fleet kills and task-level chaos
/// share one schedule vocabulary.
pub fn fleet_death_point(chaos_seed: u64, campaigns: usize) -> usize {
    ChaosSchedule::derive(
        &RngRegistry::new(chaos_seed),
        &ChaosSpec::fatal(),
        campaigns,
    )
    .death
    .map(|d| d.after_commits as usize)
    .unwrap_or(0)
}

/// Run a fleet until `max_completions` campaigns have committed, then
/// die — the chaos-engineering entry point for fleet crash tests.
///
/// Work in flight at the crash point is lost (a finished campaign whose
/// commit lost the race is discarded), exactly like a coordinator
/// `kill -9`. Which campaigns committed depends on scheduling and is
/// *not* deterministic across thread counts — that is the point: the
/// resume invariant must hold from any crash state, and
/// [`resume_campaign_fleet`] reconstructs the identical [`FleetReport`]
/// from every one of them.
pub fn run_campaign_fleet_until(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    max_completions: usize,
) -> FleetCheckpoint {
    let shards = cfg.sharded_campaigns();
    let mut completed = empty_slots(shards.len());
    fill_fleet(
        cfg,
        &shards,
        &mut completed,
        Some(max_completions),
        false,
        |c| run_campaign(space, c),
    );
    FleetCheckpoint {
        master_seed: cfg.master_seed,
        shard_seeds: seeds_of(&shards),
        completed,
    }
}

/// Resume an interrupted fleet from a [`FleetCheckpoint`]: re-run only
/// the campaigns that never committed, splice the reports in shard
/// order, and aggregate.
///
/// Because shard seeds are pure functions of `(master seed, index)` and
/// campaigns never observe each other, the result is **byte-identical**
/// to the report of an uninterrupted [`run_campaign_fleet`] — at any
/// thread count on either side of the crash.
pub fn resume_campaign_fleet(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    checkpoint: &FleetCheckpoint,
) -> Result<FleetReport, FleetResumeError> {
    let shards = cfg.sharded_campaigns();
    check_handshake(
        &seeds_of(&shards),
        &checkpoint.shard_seeds,
        &checkpoint.completed,
        None,
    )?;
    Ok(complete_fleet(
        space,
        cfg,
        &shards,
        checkpoint.completed.clone(),
    ))
}

// ---- ledger-recording execution ---------------------------------------------

/// Run a fleet with full event recording: every campaign emits its ledger
/// alongside its report, and the per-campaign ledgers are merged in
/// deterministic shard order into one [`FleetLedger`].
///
/// The report equals [`run_campaign_fleet`]'s exactly (recording never
/// perturbs a campaign), and both the report *and the merged ledger* are
/// byte-identical at any thread count.
pub fn run_campaign_fleet_recorded(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
) -> (FleetReport, FleetLedger) {
    complete_recorded(
        space,
        cfg,
        &cfg.sharded_campaigns(),
        empty_slots(cfg.campaigns.len()),
    )
}

/// Record every empty slot of a recording fleet, then aggregate the
/// reports and merge the ledgers in shard order.
fn complete_recorded(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    shards: &[CampaignConfig],
    mut slots: Vec<Option<(CampaignReport, CampaignLedger)>>,
) -> (FleetReport, FleetLedger) {
    fill_fleet(cfg, shards, &mut slots, None, false, |c| {
        run_campaign_recorded(space, c)
    });
    let (reports, campaigns) = filled(slots).into_iter().unzip();
    (
        FleetReport::from_reports(cfg.master_seed, reports),
        FleetLedger {
            master_seed: cfg.master_seed,
            campaigns,
        },
    )
}

/// Run a *recording* fleet with hot-path phase profiling: every campaign
/// runs under [`run_campaign_profiled`], the executor's chunk-claim path
/// is wall-timed as the *steal* phase, and the per-campaign breakdowns
/// are merged **in shard order** — so every count in the returned
/// [`PhaseBreakdown`] is byte-identical across reruns, and every count
/// but the steal phase's claims (a pure function of task and thread
/// count) across thread counts too (only `nanos` is wall-clock). The report and ledger are identical to
/// [`run_campaign_fleet_recorded`]'s: profiling observes, never perturbs.
pub fn run_campaign_fleet_profiled(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
) -> (FleetReport, FleetLedger, PhaseBreakdown, FleetTiming) {
    let shards = cfg.sharded_campaigns();
    let threads = cfg.effective_threads();
    let started = Instant::now();
    let mut slots = empty_slots(shards.len());
    let steals = fill_fleet(cfg, &shards, &mut slots, None, true, |c| {
        let mut ledger = CampaignLedger::new();
        let mut prof = PhaseProfiler::enabled();
        let report = run_campaign_profiled(space, c, &mut [&mut ledger], &mut prof);
        (report, ledger, prof.breakdown())
    });
    let mut reports = Vec::with_capacity(slots.len());
    let mut campaigns = Vec::with_capacity(slots.len());
    let mut merged = PhaseProfiler::enabled();
    for (report, ledger, breakdown) in filled(slots) {
        reports.push(report);
        campaigns.push(ledger);
        merged.merge(&breakdown);
    }
    merged.add_steals(steals.claims, steals.nanos);
    let timing = FleetTiming {
        threads,
        wall_clock: started.elapsed(),
    };
    (
        FleetReport::from_reports(cfg.master_seed, reports),
        FleetLedger {
            master_seed: cfg.master_seed,
            campaigns,
        },
        merged.breakdown(),
        timing,
    )
}

/// A durable record of a partially executed *recording* fleet: the plain
/// [`FleetCheckpoint`] plus the committed campaigns' event ledgers and a
/// fleet-level audit trail of the crash itself.
///
/// The audit `events` (checkpoint taken, coordinator killed) are
/// deliberately *not* part of the merged [`FleetLedger`]: the merged
/// ledger must stay byte-identical to the uninterrupted run's, and the
/// uninterrupted run never crashed. The crash's own history lives here,
/// with the checkpoint it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetLedgerCheckpoint {
    /// The underlying fleet checkpoint (reports + seed handshake).
    pub fleet: FleetCheckpoint,
    /// Committed per-campaign ledgers, in shard order (`None` = lost or
    /// never run; re-recorded on resume).
    pub ledgers: Vec<Option<CampaignLedger>>,
    /// Fleet-level audit trail of the interrupted run.
    pub events: Vec<CampaignEvent>,
}

/// The audit trail of a kill: the coordinator died after the commits it
/// truly absorbed (a cap larger than the fleet never fires mid-run), and
/// the checkpoint holds them.
pub(crate) fn kill_events(committed: usize, total: usize) -> Vec<CampaignEvent> {
    vec![
        CampaignEvent::CoordinatorKilled {
            after_commits: committed,
        },
        CampaignEvent::CheckpointTaken { committed, total },
    ]
}

/// Run a recording fleet until `max_completions` campaigns have
/// committed, then die — the ledger-carrying analogue of
/// [`run_campaign_fleet_until`]. Each committed campaign's report *and*
/// ledger survive in the checkpoint; in-flight work loses both.
pub fn run_campaign_fleet_recorded_until(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    max_completions: usize,
) -> FleetLedgerCheckpoint {
    let shards = cfg.sharded_campaigns();
    let mut slots = empty_slots(shards.len());
    fill_fleet(
        cfg,
        &shards,
        &mut slots,
        Some(max_completions),
        false,
        |c| run_campaign_recorded(space, c),
    );
    let (completed, ledgers) = split_slots(slots);
    let fleet = FleetCheckpoint {
        master_seed: cfg.master_seed,
        shard_seeds: seeds_of(&shards),
        completed,
    };
    FleetLedgerCheckpoint {
        events: kill_events(fleet.completed_count(), fleet.completed.len()),
        fleet,
        ledgers,
    }
}

/// Resume an interrupted recording fleet: re-record only the campaigns
/// that never committed, splice reports *and ledgers* in shard order,
/// and aggregate.
///
/// Both the [`FleetReport`] and the merged [`FleetLedger`] are
/// **byte-identical** to the uninterrupted
/// [`run_campaign_fleet_recorded`] outputs — at any thread count on
/// either side of the crash. The kill+resume boundary is therefore
/// invisible to any downstream audit that replays the ledger.
pub fn resume_campaign_fleet_recorded(
    space: &MaterialsSpace,
    cfg: &FleetConfig,
    checkpoint: &FleetLedgerCheckpoint,
) -> Result<(FleetReport, FleetLedger), FleetResumeError> {
    let shards = cfg.sharded_campaigns();
    let fleet = &checkpoint.fleet;
    check_handshake(
        &seeds_of(&shards),
        &fleet.shard_seeds,
        &fleet.completed,
        Some(&checkpoint.ledgers),
    )?;
    let slots = paired_slots(&fleet.completed, &checkpoint.ledgers);
    Ok(complete_recorded(space, cfg, &shards, slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Cell;
    use evoflow_agents::Pattern;
    use evoflow_sm::IntelligenceLevel;

    fn space() -> MaterialsSpace {
        MaterialsSpace::generate(3, 8, 20260610)
    }

    fn small_fleet(threads: usize) -> FleetConfig {
        let mut cfg = FleetConfig::new(99);
        cfg.horizon = SimDuration::from_days(1);
        cfg.threads = threads;
        cfg.push_cell(Cell::new(IntelligenceLevel::Static, Pattern::Single), 2);
        cfg.push_cell(
            Cell::new(IntelligenceLevel::Intelligent, Pattern::Swarm { k: 4 }),
            2,
        );
        cfg
    }

    #[test]
    fn fleet_is_thread_count_invariant() {
        let space = space();
        let serial = run_campaign_fleet(&space, &small_fleet(1));
        let two = run_campaign_fleet(&space, &small_fleet(2));
        let four = run_campaign_fleet(&space, &small_fleet(4));
        assert_eq!(serial, two);
        assert_eq!(serial, four);
    }

    #[test]
    fn shard_seeds_differ_between_campaigns() {
        let cfg = small_fleet(1);
        let seeds: std::collections::BTreeSet<u64> =
            cfg.sharded_campaigns().iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), 4, "all four campaigns get distinct seeds");
    }

    #[test]
    fn aggregation_totals_match_reports() {
        let space = space();
        let report = run_campaign_fleet(&space, &small_fleet(2));
        let sum: u64 = report.reports.iter().map(|r| r.experiments).sum();
        assert_eq!(report.total_experiments, sum);
        assert_eq!(report.per_cell.len(), 2);
        assert_eq!(
            report.per_cell.iter().map(|c| c.campaigns).sum::<usize>(),
            4
        );
        let cell_sum: u64 = report.per_cell.iter().map(|c| c.experiments).sum();
        assert_eq!(report.total_experiments, cell_sum);
    }

    #[test]
    fn empty_fleet_is_empty_report() {
        let report = run_campaign_fleet(&space(), &FleetConfig::new(1));
        assert_eq!(report.reports.len(), 0);
        assert_eq!(report.total_experiments, 0);
        assert_eq!(report.best_score, 0.0);
    }

    #[test]
    fn timing_reports_requested_threads() {
        let space = space();
        let (_, _, _, timing) = run_campaign_fleet_profiled(&space, &small_fleet(3));
        assert_eq!(timing.threads, 3);
        assert!(timing.wall_clock.as_nanos() > 0);
    }

    #[test]
    fn killed_fleet_resumes_to_identical_report() {
        let space = space();
        let cfg = small_fleet(2);
        let uninterrupted = run_campaign_fleet(&space, &cfg);
        for kill_after in 0..=4usize {
            let ckpt = run_campaign_fleet_until(&space, &cfg, kill_after);
            assert!(ckpt.completed_count() <= kill_after);
            let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
            assert_eq!(resumed, uninterrupted, "kill_after={kill_after}");
        }
    }

    #[test]
    fn resume_reruns_only_missing_campaigns() {
        let space = space();
        let mut cfg = small_fleet(1);
        cfg.threads = 1;
        let ckpt = run_campaign_fleet_until(&space, &cfg, 2);
        // Serial kill is deterministic: the first two shards committed.
        assert_eq!(ckpt.completed_count(), 2);
        assert!(ckpt.completed[0].is_some() && ckpt.completed[1].is_some());
        assert_eq!(ckpt.remaining_count(), 2);
        assert!(!ckpt.is_complete());
        let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
        // The checkpointed reports are spliced, not recomputed: the
        // resumed report's first shards are the very ones checkpointed.
        assert_eq!(&resumed.reports[0], ckpt.completed[0].as_ref().unwrap());
        assert_eq!(&resumed.reports[1], ckpt.completed[1].as_ref().unwrap());
    }

    #[test]
    fn checkpoint_refuses_a_different_fleet() {
        let space = space();
        let cfg = small_fleet(1);
        let ckpt = run_campaign_fleet_until(&space, &cfg, 1);

        let mut other_seed = small_fleet(1);
        other_seed.master_seed = 100;
        assert_eq!(
            resume_campaign_fleet(&space, &other_seed, &ckpt),
            Err(FleetResumeError::SeedMismatch { index: 0 })
        );

        let mut bigger = small_fleet(1);
        bigger.push_cell(Cell::traditional_wms(), 1);
        assert!(matches!(
            resume_campaign_fleet(&space, &bigger, &ckpt),
            Err(FleetResumeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_checkpoint_resume_equals_full_run() {
        let space = space();
        let cfg = small_fleet(2);
        let resumed = resume_campaign_fleet(&space, &cfg, &FleetCheckpoint::empty(&cfg)).unwrap();
        assert_eq!(resumed, run_campaign_fleet(&space, &cfg));
    }

    #[test]
    fn complete_checkpoint_resume_recomputes_nothing() {
        let space = space();
        let cfg = small_fleet(1);
        let ckpt = run_campaign_fleet_until(&space, &cfg, cfg.campaigns.len());
        assert!(ckpt.is_complete());
        let resumed = resume_campaign_fleet(&space, &cfg, &ckpt).unwrap();
        assert_eq!(resumed, run_campaign_fleet(&space, &cfg));
    }

    #[test]
    fn inconsistent_ledger_checkpoint_is_refused() {
        let space = space();
        let cfg = small_fleet(1);
        let mut ckpt = run_campaign_fleet_recorded_until(&space, &cfg, 2);
        assert!(ckpt.fleet.completed[0].is_some());
        let mut short = ckpt.clone();
        short.ledgers.pop(); // only the ledger list is short
        assert_eq!(
            resume_campaign_fleet_recorded(&space, &cfg, &short).unwrap_err(),
            FleetResumeError::ShapeMismatch {
                checkpoint: 4,
                fleet: 4
            }
        );
        ckpt.ledgers[0] = None; // committed report, ledger lost
        assert_eq!(
            resume_campaign_fleet_recorded(&space, &cfg, &ckpt).unwrap_err(),
            FleetResumeError::LedgerMismatch { index: 0 }
        );
    }

    /// Configs whose seed is their slot index, so a runner can tell
    /// which slot it ran.
    fn indexed_configs(n: usize) -> Vec<CampaignConfig> {
        (0..n as u64)
            .map(|i| CampaignConfig::for_cell(Cell::traditional_wms(), i))
            .collect()
    }

    #[test]
    fn fill_slots_runs_each_empty_slot_once_in_order() {
        let configs = indexed_configs(6);
        let mut slots = vec![None, Some(100), None, Some(300), None, None];
        let ran = std::sync::Mutex::new(Vec::new());
        fill_slots(
            &mut slots,
            &configs,
            &[5, 0, 3, 1, 4, 2],
            1,
            None,
            false,
            |c| {
                ran.lock().unwrap().push(c.seed);
                c.seed
            },
        );
        // Pre-filled slots 1 and 3 never re-run; the rest run once each,
        // in `order`.
        assert_eq!(ran.into_inner().unwrap(), vec![5, 0, 4, 2]);
        assert_eq!(
            slots,
            vec![Some(0), Some(100), Some(2), Some(300), Some(4), Some(5)]
        );
    }

    #[test]
    fn fill_slots_commits_exactly_the_cap_across_threads() {
        let configs = indexed_configs(8);
        let order: Vec<usize> = (0..8).collect();
        for cap in 0..=9 {
            let mut slots = empty_slots::<u64>(8);
            slots[2] = Some(2);
            slots[6] = Some(6);
            fill_slots(&mut slots, &configs, &order, 2, Some(cap), false, |c| {
                c.seed
            });
            let committed = slots.iter().filter(|s| s.is_some()).count() - 2;
            assert_eq!(committed, cap.min(6), "cap={cap}");
            for (i, s) in slots.iter().enumerate() {
                assert!(
                    s.is_none_or(|seed| seed == i as u64),
                    "slot {i} holds {s:?}"
                );
            }
        }
    }

    #[test]
    fn fill_slots_with_cap_zero_runs_nothing() {
        let configs = indexed_configs(4);
        let runs = AtomicUsize::new(0);
        for threads in [1, 2] {
            let mut slots = empty_slots::<u64>(4);
            fill_slots(
                &mut slots,
                &configs,
                &[0, 1, 2, 3],
                threads,
                Some(0),
                false,
                |c| {
                    runs.fetch_add(1, Ordering::Relaxed);
                    c.seed
                },
            );
            assert!(slots.iter().all(Option::is_none));
        }
        assert_eq!(runs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recorded_kill_audit_trail_reflects_actual_commits() {
        let space = space();
        let cfg = small_fleet(1);
        // Cap beyond the fleet: everything commits, and the audit trail
        // must say so rather than echoing the configured cap.
        let ckpt = run_campaign_fleet_recorded_until(&space, &cfg, 100);
        assert!(ckpt.fleet.is_complete());
        assert!(ckpt.events.contains(&CampaignEvent::CoordinatorKilled {
            after_commits: cfg.campaigns.len()
        }));
    }

    #[test]
    fn fleet_death_point_is_seeded_and_in_range() {
        for seed in 0..30u64 {
            assert_eq!(fleet_death_point(seed, 8), fleet_death_point(seed, 8));
            assert!((1..=8).contains(&fleet_death_point(seed, 8)));
        }
        assert_eq!(fleet_death_point(1, 0), 0);
        let distinct: std::collections::BTreeSet<usize> =
            (0..30).map(|s| fleet_death_point(s, 8)).collect();
        assert!(distinct.len() > 1, "death points must vary with the seed");
    }

    #[test]
    fn task_queue_claims_each_task_once() {
        // 17 tasks / 2 workers ⇒ chunk = 2: every index handed out
        // exactly once, in exactly ceil(17/2) = 9 chunk claims, no
        // matter how claims interleave.
        let q = TaskQueue::new(17, 2);
        assert_eq!(q.chunk, 2);
        let mut seen = std::collections::BTreeSet::new();
        let mut claims = 0u64;
        while let Some(range) = q.claim() {
            claims += 1;
            for i in range {
                assert!(seen.insert(i), "task {i} claimed twice");
            }
        }
        assert_eq!(seen.len(), 17);
        assert_eq!(claims, 9);
        assert!(q.claim().is_none(), "drained queue must stay drained");
    }

    #[test]
    fn task_queue_chunk_scales_with_load_and_never_hits_zero() {
        assert_eq!(TaskQueue::new(12, 2).chunk, 1);
        assert_eq!(TaskQueue::new(800, 4).chunk, 50);
        assert_eq!(TaskQueue::new(3, 16).chunk, 1);
        assert_eq!(TaskQueue::new(0, 2).chunk, 1);
    }
}
