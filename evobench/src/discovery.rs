//! `discovery`: one client runs surrogate-backed campaigns back to back,
//! unrecorded.
//!
//! The deck is a fixed design: every surrogate-backed planner
//! (`surrogate`, `agentic`, `meta`, `ensemble`) × every composition
//! (Single, Mesh, Swarm) × nine horizons, 108 campaigns, whose
//! experiment counts run from 120 to 810, so the surrogate's
//! observation count falls both below and at `SURROGATE_CAP` (800). The
//! landscapes come from a fixed family; the seed picks the campaign
//! seeds and the order. Most time goes to the RBF kernel inside planner
//! `propose`, and to KG/PROV ingest for `agentic` and `ensemble`; the
//! ledger wire format, replay and the service are never touched.

use crate::layers::{phase_spans, PhaseTotals};
use crate::report::{
    self, HostSpeed, Kernel, Metric, Outcome, Setups, Timed, UnitRuns, UnitSample,
};
use crate::trace::{self, Tracer};
use crate::Args;
use evoflow_agents::Pattern;
use evoflow_core::{
    run_campaign, run_campaign_profiled, CampaignConfig, CampaignEvent, CampaignLedger,
    CampaignReport, Cell, CoordinationMode, KnowledgeSink, LedgerObserver, MaterialsSpace, Phase,
    PhaseBreakdown, PhaseProfiler, PlannerKind,
};
use evoflow_learn::{AccScratch, RbfSurrogate};
use evoflow_sim::{RngRegistry, SimDuration, SimRng};
use evoflow_sm::IntelligenceLevel;
use std::time::{Duration, Instant};

/// Seeds of the landscape family every run uses. Units rotate through
/// it, so runs on different workload seeds do the same kind of work;
/// the workload seed picks the campaign seeds and the order.
const LANDSCAPE_SEEDS: [u64; 4] = [20_260_101, 20_260_202, 20_260_303, 20_260_404];
const LANDSCAPES: usize = LANDSCAPE_SEEDS.len();
/// Experiments each campaign of a planner × composition targets: nine
/// evenly spread levels up to just past `SURROGATE_CAP` (800), so the
/// surrogate's observation count falls both below and at the cap, and
/// campaign costs spread without gaps for a percentile to fall into.
const TARGETS: [u64; 9] = [120, 205, 290, 375, 460, 545, 630, 715, 810];
/// Compositions, with the experiments an autonomous campaign completes
/// per simulated day (batch 4 per lane; 1, 4 and 8 lanes).
const SHAPES: [(Pattern, u64); 3] = [
    (Pattern::Single, 36),
    (Pattern::Mesh, 146),
    (Pattern::Swarm { k: 4 }, 296),
];
/// Observations a planner's surrogate keeps before it admits only
/// near-threshold points (`evoflow_core::planner::SURROGATE_CAP`).
const SURROGATE_CAP: usize = 800;
/// The surrogate bandwidth, acquisition weight and candidate pool size
/// planners use.
const BANDWIDTH: f64 = 0.12;
const KAPPA: f64 = 0.6;
const POOL: usize = 48;
/// Literature hints `agentic` and `ensemble` assimilate before their
/// first experiment.
const LITERATURE_HINTS: usize = 5;

fn planners() -> [PlannerKind; 4] {
    [
        PlannerKind::Surrogate,
        PlannerKind::Agentic,
        PlannerKind::meta(),
        PlannerKind::ensemble(),
    ]
}

/// One campaign of the deck.
struct Entry {
    /// Which landscape it runs on.
    land: usize,
    /// The campaign.
    cfg: CampaignConfig,
}

/// Every input of a run, generated from the seed.
struct Deck {
    /// The landscapes.
    spaces: Vec<MaterialsSpace>,
    /// Campaigns in run order.
    entries: Vec<Entry>,
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
    let mut rng = reg.stream("discovery-deck");
    let mut entries = Vec::new();
    for planner in planners() {
        for (pattern, per_day) in SHAPES {
            for target in TARGETS {
                let mut cfg = CampaignConfig::for_cell(
                    Cell::new(IntelligenceLevel::Intelligent, pattern),
                    reg.shard_seed("discovery-campaign", entries.len() as u64),
                )
                .with_planner(planner.clone());
                cfg.horizon = SimDuration::from_hours(target * 24 / per_day);
                cfg.coordination = Some(CoordinationMode::Autonomous);
                // Campaigns rotate through the landscapes, so every seed
                // runs the same mix.
                entries.push(Entry {
                    land: entries.len() % LANDSCAPES,
                    cfg,
                });
            }
        }
    }
    rng.shuffle(&mut entries);
    (Deck { spaces, entries }, space_ms)
}

/// One set-up: generate the deck, then warm up on every planner ×
/// composition at the three lowest targets. Records its timings in
/// `setups` and returns the deck.
fn setup(seed: u64, setups: &mut Setups) -> Deck {
    let t = Instant::now();
    let (d, ms) = deck(seed);
    for planner in planners() {
        for (pattern, per_day) in SHAPES {
            for target in &TARGETS[..3] {
                let mut cfg = CampaignConfig::for_cell(
                    Cell::new(IntelligenceLevel::Intelligent, pattern),
                    seed,
                )
                .with_planner(planner.clone());
                cfg.horizon = SimDuration::from_hours(target * 24 / per_day);
                cfg.coordination = Some(CoordinationMode::Autonomous);
                std::hint::black_box(run_campaign(&d.spaces[0], &cfg));
            }
        }
    }
    setups.wall_s.push(t.elapsed().as_secs_f64());
    setups.space_ms.push(ms);
    d
}

/// Untraced passes over the deck.
struct Passes {
    /// One sample per deck entry, its wall the lower quartile of its
    /// passes at reference host speed.
    units: Vec<UnitSample>,
    /// Per deck entry, the lower quartile of its passes as the wall clock
    /// read them.
    wall_s: Vec<f64>,
    /// The host-speed witness's summary.
    speed: String,
    /// Reports of the first pass (the science outcome).
    first: Vec<CampaignReport>,
    digests: Vec<u64>,
    passes: usize,
    attempted: u64,
    failed: u64,
}

/// Whole passes over the deck until `budget` elapses, calling `between`
/// after every pass but the last.
fn untraced(deck: &Deck, budget: Duration, between: &mut dyn FnMut()) -> Passes {
    let n = deck.entries.len();
    let mut p = Passes {
        units: Vec::with_capacity(n),
        wall_s: Vec::new(),
        speed: String::new(),
        first: Vec::with_capacity(n),
        digests: Vec::with_capacity(n),
        passes: 0,
        attempted: 0,
        failed: 0,
    };
    let mut speed = HostSpeed::new(Kernel::Rbf);
    let mut runs = UnitRuns::default();
    let start = Instant::now();
    loop {
        for (i, e) in deck.entries.iter().enumerate() {
            let at = speed.mark();
            let t = Instant::now();
            let r = run_campaign(&deck.spaces[e.land], &e.cfg);
            let wall_s = t.elapsed().as_secs_f64();
            runs.push(i, at, wall_s);
            p.attempted += 1;
            let digest = report_digest(&r);
            if p.passes == 0 {
                // A campaign that ran no experiment measured nothing.
                p.failed += u64::from(r.experiments == 0);
                p.units.push(UnitSample {
                    wall_s,
                    campaigns: 1,
                    experiments: r.experiments,
                });
                p.digests.push(digest);
                p.first.push(r);
            } else {
                // Same inputs, different report: the run is not a pure
                // function of its inputs.
                p.failed += u64::from(digest != p.digests[i]);
            }
        }
        p.passes += 1;
        if start.elapsed() >= budget {
            speed.mark();
            for (u, s) in p.units.iter_mut().zip(runs.reference_s(&speed)) {
                u.wall_s = s.expect("every campaign ran");
            }
            p.wall_s = runs.wall_s().into_iter().flatten().collect();
            p.speed = speed.note();
            return p;
        }
        between();
    }
}

/// FNV-1a digest of a campaign report's JSON encoding: two reports with
/// the same digest are byte-identical for every practical purpose.
fn report_digest(report: &CampaignReport) -> u64 {
    evoflow_sim::fnv1a(
        serde_json::to_string(report)
            .expect("campaign reports serialize")
            .as_bytes(),
    )
}

fn run_digest(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    evoflow_sim::fnv1a(&bytes)
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let setup = |setups: &mut Setups| setup(args.seed, setups);
    if args.trace {
        let (deck, setups) = report::set_up_all(Kernel::Rbf, setup);
        return traced(args, &deck, &setups.space_ms);
    }
    let (deck, p, setups, cpu_per_wall) = report::timed_run(Kernel::Rbf, setup, |deck, between| {
        untraced(deck, Duration::from_secs(args.seconds), between)
    });
    let timed = Timed {
        setup_s: setups.setup_s,
        setup_wall_s: setups.wall_s,
        units: p.units,
        wall_s: p.wall_s,
        science: p.first.iter().collect(),
    };
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        metrics: report::end_to_end(&timed)?,
        extra: report::wall_clock(&timed)?,
        notes: vec![
            format!(
                "discovery campaigns={} deck={} passes={} (each campaign's wall is the lower quartile of its passes at reference host speed)",
                p.attempted,
                deck.entries.len(),
                p.passes
            ),
            format!("digest {:016x} (every CampaignReport of one pass)", run_digest(&p.digests)),
            format!("noise cpu_s/wall_s={cpu_per_wall:.3}"),
            p.speed,
        ],
    })
}

// ---- traced run -------------------------------------------------------------

/// One captured iteration: candidates proposed, then the measured
/// results (design point, score) in order.
#[derive(Default)]
struct Iteration {
    proposed: usize,
    results: Vec<(Vec<f64>, f64)>,
}

/// What the surrogate replay needs from one captured campaign.
struct Capture {
    /// Observations the planner's surrogate starts with.
    start_obs: usize,
    threshold: f64,
    /// The campaign's iterations, in order.
    iterations: Vec<Iteration>,
    /// Candidates scored against a surrogate (`propose.score` count).
    scored: u64,
    /// Candidate proposals in the stream.
    proposed: u64,
    /// Propose calls (`propose` count).
    propose_calls: u64,
    /// Ensemble ACL messages in the stream.
    acl_messages: u64,
    /// Whether the campaign records knowledge (its sink ingests events).
    records_knowledge: bool,
    /// Events the campaign's knowledge sink ingested.
    events: u64,
}

fn capture(ledger: &CampaignLedger, prof: &PhaseBreakdown) -> Capture {
    let mut c = Capture {
        start_obs: 0,
        threshold: 0.0,
        iterations: Vec::new(),
        scored: prof.count_of(Phase::ProposeScore),
        proposed: 0,
        propose_calls: prof.count_of(Phase::Propose),
        acl_messages: 0,
        records_knowledge: false,
        events: ledger.len() as u64,
    };
    let mut pending: std::collections::VecDeque<Vec<f64>> = Default::default();
    for event in &ledger.events {
        match event {
            CampaignEvent::CampaignStarted {
                planner,
                threshold,
                records_knowledge,
                ..
            } => {
                c.threshold = *threshold;
                c.records_knowledge = *records_knowledge;
                let bootstraps = planner.starts_with("agentic") || planner.starts_with("ensemble");
                c.start_obs = if bootstraps { LITERATURE_HINTS } else { 0 };
            }
            CampaignEvent::IterationStarted { .. } => c.iterations.push(Iteration::default()),
            CampaignEvent::CandidateProposed { params, .. } => {
                c.proposed += 1;
                pending.push_back(params.clone());
                if let Some(it) = c.iterations.last_mut() {
                    it.proposed += 1;
                }
            }
            CampaignEvent::ResultObserved { score, .. } => {
                if let (Some(params), Some(it)) = (pending.pop_front(), c.iterations.last_mut()) {
                    it.results.push((params, *score));
                }
            }
            CampaignEvent::IterationEnded { .. } => pending.clear(),
            CampaignEvent::EnsembleMessage { .. } => c.acl_messages += 1,
            _ => {}
        }
    }
    c
}

/// Candidates scored in each iteration: the campaign's `propose.score`
/// count apportioned by proposals (exact for `surrogate`, which scores a
/// fixed pool per proposal; an even-spread estimate for the others).
fn scored_per_iteration(c: &Capture) -> Vec<u64> {
    let proposed: u64 = c.iterations.iter().map(|it| it.proposed as u64).sum();
    let mut given = 0u64;
    let mut seen = 0u64;
    c.iterations
        .iter()
        .map(|it| {
            seen += it.proposed as u64;
            let upto = c.scored * seen / proposed.max(1);
            let s = upto - given;
            given = upto;
            s
        })
        .collect()
}

/// Surrogate replay of one capture. With `timed` false only counts are
/// returned; otherwise the scoring (and, separately, the observe-only
/// replay) is timed. Returns (pairs, observes, score_ns, observe_ns).
fn replay_surrogate(c: &Capture, rng: &mut SimRng, timed: bool) -> (u64, u64, u64, u64) {
    let dim = 3;
    let admit =
        |s: &RbfSurrogate, score: f64| s.len() < SURROGATE_CAP || score >= 0.8 * c.threshold;
    let bootstrap = |rng: &mut SimRng| {
        let mut s = RbfSurrogate::new(BANDWIDTH);
        for _ in 0..c.start_obs {
            let x: Vec<f64> = (0..dim).map(|_| rng.uniform()).collect();
            s.observe(&x, -rng.uniform());
        }
        s
    };
    // Observe-only replay: its wall time over its calls is observe_ns.
    let mut s = bootstrap(rng);
    let t = Instant::now();
    let mut observes = 0u64;
    for it in &c.iterations {
        for (x, score) in &it.results {
            if admit(&s, *score) {
                s.observe(x, -score);
                observes += 1;
            }
        }
    }
    let observe_ns = if timed {
        t.elapsed().as_nanos() as u64
    } else {
        0
    };
    // Scoring replay: each iteration scores its candidates against the
    // observations the planner held when it proposed.
    let mut s = bootstrap(rng);
    let mut acc = AccScratch::default();
    let mut cands = Vec::new();
    let mut out = Vec::new();
    let (mut pairs, mut score_ns) = (0u64, 0u64);
    for (it, scored) in c.iterations.iter().zip(scored_per_iteration(c)) {
        pairs += scored * s.len() as u64;
        if timed {
            // Score in pools of the planners' size, as `recommend` does.
            let mut left = scored as usize;
            while left > 0 {
                let pool = left.min(POOL);
                left -= pool;
                cands.clear();
                cands.extend((0..pool * dim).map(|_| rng.uniform()));
                out.clear();
                let t = Instant::now();
                s.score_batch_with(dim, &cands, KAPPA, &mut acc, &mut out);
                score_ns += t.elapsed().as_nanos() as u64;
                std::hint::black_box(&out);
            }
        }
        for (x, score) in &it.results {
            if admit(&s, *score) {
                s.observe(x, -score);
            }
        }
    }
    (pairs, observes, score_ns, observe_ns)
}

fn traced(args: &Args, deck: &Deck, space_ms: &[f64]) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let n = deck.entries.len();
    // Untraced passes first (half the budget), then the same number of
    // traced passes over the same campaigns.
    let base = untraced(deck, budget / 2, &mut || {});
    let passes = base.passes;
    let mut attempted = base.attempted;
    let mut failed = base.failed;

    let mut t = Tracer::new();
    let root = t.open("bench.run", 0, None);
    let mut totals = PhaseTotals::default();
    let mut captures: Vec<Capture> = Vec::with_capacity(n);
    // Streams of the knowledge-recording campaigns, for the ingest probe.
    let mut kept: Vec<CampaignLedger> = Vec::new();
    // (campaign span, planner.propose, campaign.observe, campaign.emit, deck index)
    let mut spans: Vec<(usize, usize, usize, usize, usize)> = Vec::new();
    // Traced walls per campaign, folded as the untraced side folds them.
    let mut speed = HostSpeed::new(Kernel::Rbf);
    let mut traced_runs = UnitRuns::default();
    for pass in 0..passes {
        for (i, e) in deck.entries.iter().enumerate() {
            let group = (pass * n + i) as u64;
            let at = speed.mark();
            let mut ledger = CampaignLedger::new();
            let mut prof = PhaseProfiler::enabled();
            let (id, r) = t.span("discovery.campaign", group, Some(root), || {
                run_campaign_profiled(&deck.spaces[e.land], &e.cfg, &mut [&mut ledger], &mut prof)
            });
            let b = prof.breakdown();
            let wall = t.get(id).dur_ns();
            traced_runs.push(i, at, wall as f64 / 1e9);
            totals.add(1, wall, &b, r.experiments, r.total_hits);
            let (model, observe, emit) = phase_spans(&mut t, id, &b);
            spans.push((id, model, observe, emit, i));
            attempted += 1;
            // Profiling and observing must never perturb the campaign.
            failed += u64::from(report_digest(&r) != base.digests[i]);
            if pass == 0 {
                let c = capture(&ledger, &b);
                if c.records_knowledge {
                    kept.push(ledger);
                }
                captures.push(c);
            }
        }
    }
    t.close(root);
    speed.mark();
    let base_wall_s: f64 = base.units.iter().map(|u| u.wall_s).sum();
    let traced_wall_s: f64 = traced_runs.reference_s(&speed).into_iter().flatten().sum();
    let overhead_share = traced_wall_s / base_wall_s - 1.0;
    let pass_experiments: u64 = base.units.iter().map(|u| u.experiments).sum();

    // ---- layer probes, outside the traced wall --------------------------
    // Surrogate: exact pair and observe counts for every capture; kernel
    // time on captures in deck order until a quarter of the budget.
    let mut rng = SimRng::from_seed_u64(0x5eed);
    let probe_budget = budget / 4;
    let probe_start = Instant::now();
    let (mut t_pairs, mut t_obs, mut score_ns, mut observe_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut counts = Vec::with_capacity(n);
    for c in &captures {
        let timed = probe_start.elapsed() < probe_budget;
        let (pairs, obs, s_ns, o_ns) = replay_surrogate(c, &mut rng, timed);
        if timed {
            t_pairs += pairs;
            t_obs += obs;
            score_ns += s_ns;
            observe_ns += o_ns;
        }
        counts.push((pairs, obs));
    }
    let ns_per_pair = score_ns as f64 / t_pairs.max(1) as f64;
    let ns_per_observe = observe_ns as f64 / t_obs.max(1) as f64;

    // Knowledge: the kept streams of knowledge-recording campaigns
    // through a fresh sink each.
    let (mut kn_events, mut kn_ns, mut kn_nodes, mut kn_acts) = (0u64, 0u64, 0u64, 0u64);
    for ledger in &kept {
        let mut sink = KnowledgeSink::new();
        let t0 = Instant::now();
        sink.on_batch(&ledger.events);
        kn_ns += t0.elapsed().as_nanos() as u64;
        kn_events += ledger.len() as u64;
        kn_nodes += sink.node_count() as u64;
        kn_acts += sink.activity_count() as u64;
    }
    let kn_campaigns = kept.len() as u64;
    let ns_per_event = kn_ns as f64 / kn_events.max(1) as f64;

    // Hang the probe estimates under the opaque phases they live in.
    let mut pairs_traced = 0u64;
    // Campaigns whose surrogate estimate exceeded their model time.
    let mut clipped = 0u64;
    for &(_, model, observe, emit, i) in &spans {
        let (pairs, obs) = counts[i];
        pairs_traced += pairs;
        let estimate = (ns_per_pair * pairs as f64) as u64;
        clipped += u64::from(estimate > t.get(model).dur_ns());
        t.derived(model, "surrogate.score", estimate);
        t.derived(
            observe,
            "surrogate.observe",
            (ns_per_observe * obs as f64) as u64,
        );
        if captures[i].records_knowledge {
            t.derived(
                emit,
                "knowledge.ingest",
                (ns_per_event * captures[i].events as f64) as u64,
            );
        }
    }

    let scored: u64 = captures.iter().map(|c| c.scored).sum();
    let proposed: u64 = captures.iter().map(|c| c.proposed).sum();
    let rejected: u64 = base.first.iter().map(|r| r.rejected_proposals).sum();
    let ensemble: Vec<&Capture> = deck
        .entries
        .iter()
        .zip(&captures)
        .filter(|(e, _)| matches!(e.cfg.planner, Some(PlannerKind::Ensemble { .. })))
        .map(|(_, c)| c)
        .collect();
    let acl = ensemble.iter().map(|c| c.acl_messages).sum::<u64>() as f64
        / ensemble.iter().map(|c| c.proposed).sum::<u64>().max(1) as f64;
    let propose_calls: u64 = captures.iter().map(|c| c.propose_calls).sum();
    let extra = vec![
        Metric::new("surrogate.score_ns_per_pair", ns_per_pair, "ns"),
        Metric::new("surrogate.observe_ns", ns_per_observe, "ns"),
        Metric::new("surrogate.pairs", pairs_traced as f64, "count"),
        Metric::new(
            "planner.scored_per_proposal",
            scored as f64 / propose_calls.max(1) as f64,
            "count",
        ),
        Metric::new(
            "planner.rejected_share",
            rejected as f64 / (rejected + proposed).max(1) as f64,
            "share",
        ),
        Metric::new("knowledge.ingest_ns_per_event", ns_per_event, "ns"),
        Metric::new(
            "knowledge.nodes",
            kn_nodes as f64 / kn_campaigns.max(1) as f64,
            "count",
        ),
        Metric::new(
            "knowledge.activities",
            kn_acts as f64 / kn_campaigns.max(1) as f64,
            "count",
        ),
        Metric::new("protocol.acl_messages_per_proposal", acl, "count"),
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
        "traced passes={passes} campaigns={} probe: surrogate timed on {t_pairs} of {} pairs, knowledge on {kn_campaigns} campaigns",
        totals.campaigns,
        counts.iter().map(|c| c.0).sum::<u64>()
    )];
    notes.push(format!(
        "surrogate.score estimate clipped to planner.propose on {clipped} of {} campaigns",
        spans.len()
    ));
    notes.extend(trace::layer_table(t.spans()));
    notes.push(trace::write_trace("discovery", args.seed, &t)?);
    Ok(Outcome {
        attempted,
        failed,
        metrics: totals.metrics(overhead_share, space_ms),
        extra,
        notes,
    })
}
