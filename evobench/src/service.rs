//! `service`: back-to-back `run_service` sessions at `threads = nproc`.
//!
//! Each session has six weighted tenants plus a hostile one submitting
//! at 10× their rate, and per-tenant `max_queued` quotas, so some
//! submissions are refused at the door (policy, not failure). Every
//! campaign is short (1–2 simulated days), so the time goes to
//! `plan_service`, admission, the fleet executor's chunked claiming, and
//! ledger merging. It is the only workload that uses every core: a
//! change that made one campaign parallel would help `discovery` but
//! steal cores here.

use crate::layers::PhaseTotals;
use crate::report::{
    self, HostSpeed, Kernel, Metric, Outcome, Setups, Timed, UnitRuns, UnitSample,
};
use crate::trace::{self, Tracer};
use crate::{cheap_planners, Args};
use evoflow_agents::Pattern;
use evoflow_core::{
    plan_service, run_campaign_profiled, run_campaign_recorded, run_service, CampaignConfig,
    CampaignLedger, CampaignReport, Cell, CoordinationMode, FleetLedger, MaterialsSpace,
    PhaseProfiler, ServiceConfig, ServicePlan, ServiceReport, TenantSpec,
};
use evoflow_sim::{RngRegistry, SimDuration};
use evoflow_sm::IntelligenceLevel;
use std::time::{Duration, Instant};

/// Seeds of the landscape family every run uses. Sessions rotate
/// through it, so runs on different workload seeds do the same kind of
/// work.
const LANDSCAPE_SEEDS: [u64; 4] = [20_260_505, 20_260_606, 20_260_707, 20_260_808];
const LANDSCAPES: usize = LANDSCAPE_SEEDS.len();
/// Sessions in the deck (one pass).
const SESSIONS: usize = 100;
/// Well-behaved tenants and their fair-share weights.
const WEIGHTS: [u32; 6] = [1, 1, 2, 2, 3, 3];
/// Submissions per well-behaved tenant per session.
const PER_TENANT: usize = 24;
/// The hostile tenant submits this many times as often.
const FLOOD: usize = 10;
/// Per-tenant queue quota.
const MAX_QUEUED: usize = 3;

/// One session and the landscape it runs on.
struct Session {
    /// Landscape index.
    land: usize,
    /// The session.
    cfg: ServiceConfig,
}

/// Every input of a run, generated from the seed.
struct Deck {
    /// The landscapes.
    spaces: Vec<MaterialsSpace>,
    /// Sessions in run order.
    sessions: Vec<Session>,
}

fn session(
    master_seed: u64,
    threads: usize,
    mut pick: impl FnMut(usize) -> usize,
) -> ServiceConfig {
    let mut cfg = ServiceConfig::new(master_seed);
    cfg.threads = threads;
    for (t, &w) in WEIGHTS.iter().enumerate() {
        cfg.push_tenant(
            TenantSpec::new(format!("lab-{t}"))
                .with_weight(w)
                .with_max_queued(MAX_QUEUED),
        );
    }
    cfg.push_tenant(TenantSpec::new("flood").with_max_queued(MAX_QUEUED));
    let planners = cheap_planners();
    let mut campaign = || {
        let pattern = [Pattern::Single, Pattern::Mesh][pick(2)];
        let mut c = CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Learning, pattern), 0)
            .with_planner(planners[pick(planners.len())].clone());
        c.horizon = SimDuration::from_hours(24 * (1 + pick(2) as u64));
        c.coordination = Some(CoordinationMode::Autonomous);
        c
    };
    for _ in 0..PER_TENANT {
        for t in 0..WEIGHTS.len() {
            cfg.submit(format!("lab-{t}"), campaign());
        }
        for _ in 0..FLOOD {
            cfg.submit("flood", campaign());
        }
    }
    cfg
}

/// Generate the deck; returns it with the landscape-generation time (ms).
fn deck(seed: u64) -> (Deck, f64) {
    let reg = RngRegistry::new(seed);
    let t = Instant::now();
    let spaces: Vec<MaterialsSpace> = LANDSCAPE_SEEDS
        .iter()
        .map(|&s| MaterialsSpace::generate(3, 8, s))
        .collect();
    let space_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut rng = reg.stream("service-deck");
    let sessions = (0..SESSIONS)
        .map(|s| Session {
            land: s % LANDSCAPES,
            cfg: session(
                reg.shard_seed("service-session", s as u64),
                report::nproc(),
                |n| rng.below(n),
            ),
        })
        .collect();
    (Deck { spaces, sessions }, space_ms)
}

/// Warm-up sessions per set-up.
const WARM_SESSIONS: usize = 8;

/// One set-up: generate the deck, then warm up on fixed-shape sessions
/// (every submission a 2-day Mesh campaign of one planner). Records its
/// timings in `setups` and returns the deck.
fn setup(seed: u64, setups: &mut Setups) -> Deck {
    let t = Instant::now();
    let (d, ms) = deck(seed);
    for w in 0..WARM_SESSIONS {
        let warm = session(seed, report::nproc(), |n| if n == 2 { 1 } else { w % n });
        let out = run_service(&d.spaces[0], &warm);
        std::hint::black_box(out.expect("warm-up sessions are valid configs"));
    }
    setups.wall_s.push(t.elapsed().as_secs_f64());
    setups.space_ms.push(ms);
    d
}

/// Untraced passes over the deck.
struct Passes {
    /// One sample per session (`None` if its first run failed), its wall
    /// the lower quartile of its passes at reference host speed.
    units: Vec<Option<UnitSample>>,
    /// Per session that ran, the lower quartile of its passes as the wall
    /// clock read them.
    wall_s: Vec<f64>,
    /// The host-speed witness's summary.
    speed: String,
    /// First-pass session reports (the science outcome).
    first: Vec<ServiceReport>,
    passes: usize,
    attempted: u64,
    failed: u64,
}

/// Whole passes over the deck until `budget` elapses, calling `between`
/// after every pass but the last.
fn untraced(deck: &Deck, budget: Duration, between: &mut dyn FnMut()) -> Passes {
    let mut p = Passes {
        units: Vec::with_capacity(deck.sessions.len()),
        wall_s: Vec::new(),
        speed: String::new(),
        first: Vec::new(),
        passes: 0,
        attempted: 0,
        failed: 0,
    };
    let mut speed = HostSpeed::new(Kernel::Chase);
    let mut runs = UnitRuns::default();
    let start = Instant::now();
    loop {
        for (i, s) in deck.sessions.iter().enumerate() {
            p.attempted += 1;
            let at = speed.mark();
            let t = Instant::now();
            let out = run_service(&deck.spaces[s.land], &s.cfg);
            let wall_s = t.elapsed().as_secs_f64();
            let sample = match out {
                Ok((report, ledger)) => {
                    runs.push(i, at, wall_s);
                    p.failed += u64::from(!consistent(&s.cfg, &report, &ledger));
                    let sample = UnitSample {
                        wall_s,
                        campaigns: report.fleet.reports.len() as u64,
                        experiments: report.fleet.total_experiments,
                    };
                    if p.passes == 0 {
                        p.first.push(report);
                    }
                    Some(sample)
                }
                Err(_) => {
                    p.failed += 1;
                    None
                }
            };
            if p.passes == 0 {
                p.units.push(sample);
            }
        }
        p.passes += 1;
        if start.elapsed() >= budget {
            speed.mark();
            // A session whose first run failed has no sample; one that
            // failed later keeps the runs that completed.
            for (u, s) in p.units.iter_mut().zip(runs.reference_s(&speed)) {
                if let (Some(u), Some(s)) = (u, s) {
                    u.wall_s = s;
                }
            }
            p.wall_s = p
                .units
                .iter()
                .zip(runs.wall_s())
                .filter_map(|(u, s)| u.and(s))
                .collect();
            p.speed = speed.note();
            return p;
        }
        between();
    }
}

impl Passes {
    /// The sessions that ran.
    fn samples(&self) -> Vec<UnitSample> {
        self.units.iter().flatten().copied().collect()
    }
}

/// A session's books must balance: every submission admitted or
/// refused, one report and one ledger per admitted campaign.
fn consistent(cfg: &ServiceConfig, report: &ServiceReport, ledger: &FleetLedger) -> bool {
    let admitted: usize = report.tenants.iter().map(|t| t.admitted).sum();
    let rejected: usize = report.tenants.iter().map(|t| t.rejected).sum();
    admitted + rejected == cfg.submissions.len()
        && report.fleet.reports.len() == admitted
        && ledger.campaigns.len() == admitted
        && report.rejected.len() == rejected
}

/// The session report must not depend on the thread count: one session
/// per run, at one thread and at `nproc`.
fn thread_invariant(space: &MaterialsSpace, cfg: &ServiceConfig) -> bool {
    let mut serial = cfg.clone();
    serial.threads = 1;
    let json = |r: &ServiceReport| serde_json::to_string(r).expect("service reports serialize");
    match (run_service(space, &serial), run_service(space, cfg)) {
        (Ok((a, la)), Ok((b, lb))) => json(&a) == json(&b) && la == lb,
        _ => false,
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let setup = |setups: &mut Setups| setup(args.seed, setups);
    if args.trace {
        let (deck, setups) = report::set_up_all(Kernel::Chase, setup);
        return traced(args, &deck, &setups.space_ms);
    }
    let (deck, p, setups, cpu_per_wall) =
        report::timed_run(Kernel::Chase, setup, |deck, between| {
            untraced(deck, Duration::from_secs(args.seconds), between)
        });
    let first = &deck.sessions[0];
    let invariant = thread_invariant(&deck.spaces[first.land], &first.cfg);
    let science: Vec<&CampaignReport> = p.first.iter().flat_map(|r| &r.fleet.reports).collect();
    let units = p.samples();
    let wall_s: f64 = units.iter().map(|u| u.wall_s).sum();
    let submissions: u64 = units.iter().map(|u| u.campaigns).sum();
    let timed = Timed {
        setup_s: setups.setup_s,
        setup_wall_s: setups.wall_s,
        units,
        wall_s: p.wall_s.clone(),
        science,
    };
    let waits: Vec<f64> = p.first.iter().map(|r| r.p99_wait_rounds as f64).collect();
    let rejected: usize = p.first.iter().map(|r| r.rejected.len()).sum();
    let mut extra = vec![
        Metric::new("submissions_per_s", submissions as f64 / wall_s, "1/s"),
        Metric::new("queue_wait_rounds_p99", report::median(&waits), "rounds"),
    ];
    extra.extend(report::wall_clock(&timed)?);
    Ok(Outcome {
        attempted: p.attempted + 1,
        failed: p.failed + u64::from(!invariant),
        metrics: report::end_to_end(&timed)?,
        extra,
        notes: vec![
            format!(
                "service sessions={} deck={} passes={} threads={} refused_under_quota={rejected} of {} first-pass submissions (each session's wall is the lower quartile of its passes at reference host speed); 1-thread vs {}-thread session identical: {invariant}",
                p.attempted,
                deck.sessions.len(),
                p.passes,
                report::nproc(),
                deck.sessions.iter().map(|s| s.cfg.submissions.len()).sum::<usize>(),
                report::nproc()
            ),
            format!("noise cpu_s/wall_s={cpu_per_wall:.3}"),
            p.speed,
        ],
    })
}

/// The campaigns a session executes: each admitted submission's config
/// under its admission-derived seed.
fn admitted_configs(cfg: &ServiceConfig, plan: &ServicePlan) -> Vec<CampaignConfig> {
    plan.admitted
        .iter()
        .map(|a| {
            let mut c = cfg.submissions[a.submission_index].campaign.clone();
            c.seed = a.seed;
            c
        })
        .collect()
}

fn traced(args: &Args, deck: &Deck, space_ms: &[f64]) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let n = deck.sessions.len();
    let base = untraced(deck, budget / 2, &mut || {});
    let passes = base.passes;
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    let threads = report::nproc();

    let mut t = Tracer::new();
    let root = t.open("bench.run", 0, None);
    // (service.run span, plan ns, admitted campaigns, deck index, plan)
    let mut runs: Vec<(usize, u64, u64, usize, ServicePlan)> = Vec::new();
    let (mut submissions, mut rejected, mut rounds) = (0u64, 0u64, 0u64);
    // Traced walls per session, folded as the untraced side folds them.
    let mut speed = HostSpeed::new(Kernel::Chase);
    let mut traced_runs = UnitRuns::default();
    for pass in 0..passes {
        for (i, s) in deck.sessions.iter().enumerate() {
            let g = (pass * n + i) as u64;
            let space = &deck.spaces[s.land];
            let at = speed.mark();
            let ses = t.open("service.session", g, Some(root));
            let (pl, plan) = t.span("service.plan", g, Some(ses), || plan_service(&s.cfg));
            let (run, out) = t.span("service.run", g, Some(ses), || run_service(space, &s.cfg));
            t.close(ses);
            attempted += 1;
            submissions += s.cfg.submissions.len() as u64;
            let (Ok(plan), Ok((report, ledger))) = (plan, out) else {
                failed += 1;
                continue;
            };
            failed += u64::from(!consistent(&s.cfg, &report, &ledger));
            traced_runs.push(i, at, t.get(ses).dur_ns() as f64 / 1e9);
            rejected += plan.rejected.len() as u64;
            rounds += plan.rounds as u64;
            let plan_ns = t.get(pl).dur_ns();
            runs.push((run, plan_ns, report.fleet.reports.len() as u64, i, plan));
        }
    }
    t.close(root);
    speed.mark();
    // Compare the sessions that ran on both sides.
    let (mut base_wall_s, mut traced_wall_s, mut pass_experiments) = (0.0, 0.0, 0u64);
    for (u, traced) in base.units.iter().zip(traced_runs.reference_s(&speed)) {
        if let (Some(u), Some(traced)) = (u, traced) {
            base_wall_s += u.wall_s;
            traced_wall_s += traced;
            pass_experiments += u.experiments;
        }
    }
    let overhead_share = traced_wall_s / base_wall_s - 1.0;

    // ---- probe: each admitted campaign of the first sessions, serially,
    // as the service runs it (recorded), profiled -----------------------
    let mut totals = PhaseTotals::default();
    let probe_start = Instant::now();
    let (mut serial_ns, mut fleet_ns, mut probed) = (0u64, 0u64, 0usize);
    for &(run, plan_ns, _, i, ref plan) in &runs {
        if probed > 0 && probe_start.elapsed() >= budget / 4 {
            break;
        }
        let s = &deck.sessions[i];
        let space = &deck.spaces[s.land];
        for c in admitted_configs(&s.cfg, plan) {
            // Unprofiled for the serial cost the fleet spreads over its
            // threads, then profiled for the phase split.
            let w = Instant::now();
            std::hint::black_box(run_campaign_recorded(space, &c));
            serial_ns += w.elapsed().as_nanos() as u64;
            let mut ledger = CampaignLedger::new();
            let mut prof = PhaseProfiler::enabled();
            let w = Instant::now();
            let r = run_campaign_profiled(space, &c, &mut [&mut ledger], &mut prof);
            let wall = w.elapsed().as_nanos() as u64;
            totals.add(1, wall, &prof.breakdown(), r.experiments, r.total_hits);
        }
        fleet_ns += t.get(run).dur_ns().saturating_sub(plan_ns);
        probed += 1;
    }
    let serial_per_campaign = serial_ns as f64 / totals.campaigns.max(1) as f64;
    let busy_share = serial_ns as f64 / (threads as f64 * fleet_ns.max(1) as f64);
    // Inside each opaque `run_service`: its own planning pass, then the
    // campaigns' share of the fleet's wall (serial cost ÷ threads); the
    // rest of `service.run` is executor, merging and idle cores.
    for &(run, plan_ns, campaigns, _, _) in &runs {
        t.derived(run, "service.plan", plan_ns);
        let campaign_ns = serial_per_campaign * campaigns as f64 / threads as f64;
        t.derived(run, "campaign.run", campaign_ns as u64);
    }
    let sessions = runs.len().max(1) as f64;
    let plan_ns: u64 = runs.iter().map(|r| r.1).sum();
    let run_ns: u64 = runs.iter().map(|r| t.get(r.0).dur_ns()).sum();
    let tasks: u64 = runs.iter().map(|r| r.2).sum();
    let extra = vec![
        Metric::new("fleet.tasks", tasks as f64 / sessions, "count"),
        Metric::new("fleet.busy_share", busy_share, "share"),
        Metric::new(
            "service.plan_us_per_submission",
            plan_ns as f64 / 1e3 / submissions.max(1) as f64,
            "us",
        ),
        Metric::new(
            "service.execute_s",
            run_ns.saturating_sub(plan_ns) as f64 / 1e9 / sessions,
            "s",
        ),
        Metric::new("service.admitted", tasks as f64 / sessions, "count"),
        Metric::new("service.rejected", rejected as f64 / sessions, "count"),
        Metric::new("service.rounds", rounds as f64 / sessions, "count"),
        Metric::new(
            "traced.experiments_per_s",
            pass_experiments as f64 / traced_wall_s,
            "1/s",
        ),
        Metric::new(
            "untraced.experiments_per_s",
            pass_experiments as f64 / base_wall_s,
            "1/s",
        ),
    ];
    let mut notes = vec![format!(
        "traced passes={passes} sessions={} threads={threads} probe: {probed} sessions, {} campaigns run serially",
        runs.len(),
        totals.campaigns
    )];
    notes.extend(trace::layer_table(t.spans()));
    notes.push(trace::write_trace("service", args.seed, &t)?);
    Ok(Outcome {
        attempted,
        failed,
        metrics: totals.metrics(overhead_share, space_ms),
        extra,
        notes,
    })
}
