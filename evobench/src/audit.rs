//! `audit`: repeated, bounded-size cycles of four steps —
//!
//! 1. record a fleet of cheap-planner campaigns (grid, adaptive,
//!    evidence, bandit, swarm; autonomous; long horizons) with
//!    `run_campaign_fleet_recorded`;
//! 2. persist it with `FleetLedger::to_bytes(Binary)`;
//! 3. decode it with `FleetLedger::from_bytes`;
//! 4. audit it with `replay_fleet_ledger_bytes`.
//!
//! The ledger write path (emit, encode) sits beside its read path
//! (decode, fold), so a change that speeds one at the other's cost
//! shows. Planner time is small (no surrogate). Each cycle is bounded, so
//! peak memory stays flat however long the run. The fleet runs on one
//! thread: `service` is the workload that uses every core.

use crate::layers::{phase_spans, PhaseTotals};
use crate::report::{
    self, HostSpeed, Kernel, Metric, Outcome, Setups, Timed, UnitRuns, UnitSample,
};
use crate::trace::{self, Tracer};
use crate::{cheap_planners, Args};
use evoflow_agents::Pattern;
use evoflow_core::{
    replay_fleet_ledger, replay_fleet_ledger_bytes, run_campaign_fleet_profiled,
    run_campaign_fleet_recorded, CampaignConfig, CampaignReport, Cell, CoordinationMode,
    FleetConfig, FleetLedger, FleetReport, LedgerEncoding, MaterialsSpace, Phase, PlannerKind,
};
use evoflow_sim::{RngRegistry, SimDuration};
use evoflow_sm::IntelligenceLevel;
use std::time::{Duration, Instant};

/// Seeds of the landscape family every run uses. Units rotate through
/// it, so runs on different workload seeds do the same kind of work;
/// the workload seed picks the campaign seeds and the order.
const LANDSCAPE_SEEDS: [u64; 4] = [20_260_101, 20_260_202, 20_260_303, 20_260_404];
const LANDSCAPES: usize = LANDSCAPE_SEEDS.len();
/// Cycles in the deck (one pass): 2 000 campaigns, enough for a steady
/// first-hit median.
const CYCLES: usize = 200;
/// Campaigns recorded per cycle: two per cheap planner. Ten ledgers per
/// cycle keep the peak memory from hinging on one ledger's growth.
const CAMPAIGNS: usize = 10;
/// Range of campaign horizons, days.
const HORIZON_DAYS: (u64, u64) = (20, 65);

/// One cycle's fleet and the landscape it records on.
struct Cycle {
    /// Landscape index.
    land: usize,
    /// The fleet (one thread).
    fleet: FleetConfig,
}

/// Every input of a run, generated from the seed.
struct Deck {
    /// The landscapes.
    spaces: Vec<MaterialsSpace>,
    /// Cycles in run order.
    cycles: Vec<Cycle>,
}

fn campaign(planner: PlannerKind, days: u64) -> CampaignConfig {
    let mut cfg =
        CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Learning, Pattern::Single), 0)
            .with_planner(planner);
    cfg.horizon = SimDuration::from_days(days);
    cfg.coordination = Some(CoordinationMode::Autonomous);
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
    let mut rng = reg.stream("audit-deck");
    let mut cycles: Vec<Cycle> = (0..CYCLES)
        .map(|c| {
            let mut fleet = FleetConfig::new(reg.shard_seed("audit-fleet", c as u64));
            fleet.threads = 1;
            // Every cycle records the same horizons, evenly spaced over
            // the range; the pairing with planners rotates by cycle, so
            // every deck holds each pairing equally often.
            for (k, planner) in cheap_planners()
                .into_iter()
                .cycle()
                .take(CAMPAIGNS)
                .enumerate()
            {
                let step = (k + c) % CAMPAIGNS;
                let days = HORIZON_DAYS.0
                    + step as u64 * (HORIZON_DAYS.1 - HORIZON_DAYS.0) / (CAMPAIGNS as u64 - 1);
                fleet.push_campaign(campaign(planner, days));
            }
            Cycle {
                land: c % LANDSCAPES,
                fleet,
            }
        })
        .collect();
    rng.shuffle(&mut cycles);
    (Deck { spaces, cycles }, space_ms)
}

/// One untraced cycle's measurements.
struct CycleOut {
    sample: UnitSample,
    replay_s: f64,
    events: u64,
    bytes: u64,
    /// Output checks that failed (0, 1 or 2).
    failed: u64,
    reports: Vec<CampaignReport>,
}

/// Run the four steps, then check the outputs: the decoded ledger must
/// equal the recorded one, and the replayed report must be
/// byte-identical to the live one.
fn cycle(space: &MaterialsSpace, fleet: &FleetConfig) -> CycleOut {
    let t = Instant::now();
    let (live, ledger) = run_campaign_fleet_recorded(space, fleet);
    let bytes = ledger.to_bytes(LedgerEncoding::Binary);
    let decoded = FleetLedger::from_bytes(&bytes);
    let r = Instant::now();
    let replayed = replay_fleet_ledger_bytes(&bytes);
    let replay_s = r.elapsed().as_secs_f64();
    let wall_s = t.elapsed().as_secs_f64();
    let failed =
        u64::from(decoded.as_ref() != Ok(&ledger)) + u64::from(!same_report(&replayed, &live));
    CycleOut {
        sample: UnitSample {
            wall_s,
            campaigns: live.reports.len() as u64,
            experiments: live.total_experiments,
        },
        replay_s,
        events: ledger.total_events() as u64,
        bytes: bytes.len() as u64,
        failed,
        reports: live.reports,
    }
}

fn same_report<E>(replayed: &Result<FleetReport, E>, live: &FleetReport) -> bool {
    let json = |r: &FleetReport| serde_json::to_string(r).expect("fleet reports serialize");
    matches!(replayed, Ok(r) if json(r) == json(live))
}

/// One set-up: generate the deck, then warm up on three fixed-size
/// cycles (the deck's planners at 40 days). Records its timings in
/// `setups` and returns the deck.
fn setup(seed: u64, setups: &mut Setups) -> Deck {
    let t = Instant::now();
    let (d, ms) = deck(seed);
    for w in 0..3 {
        let mut warm = FleetConfig::new(seed + w);
        warm.threads = 1;
        for planner in cheap_planners().into_iter().cycle().take(CAMPAIGNS) {
            warm.push_campaign(campaign(planner, 40));
        }
        std::hint::black_box(cycle(&d.spaces[0], &warm).failed);
    }
    setups.wall_s.push(t.elapsed().as_secs_f64());
    setups.space_ms.push(ms);
    d
}

/// Untraced passes over the deck.
struct Passes {
    /// Per cycle: first-pass measurements and reports, with the wall and
    /// replay times replaced by the lower quartiles of the cycle's passes at
    /// reference host speed.
    cycles: Vec<CycleOut>,
    /// Per cycle, the lower quartile of its passes as the wall clock
    /// read them.
    wall_s: Vec<f64>,
    /// The host-speed witness's summary.
    speed: String,
    passes: usize,
    attempted: u64,
    failed: u64,
}

/// Whole passes over the deck until `budget` elapses, calling `between`
/// after every pass but the last.
fn untraced(deck: &Deck, budget: Duration, between: &mut dyn FnMut()) -> Passes {
    let mut p = Passes {
        cycles: Vec::with_capacity(deck.cycles.len()),
        wall_s: Vec::new(),
        speed: String::new(),
        passes: 0,
        attempted: 0,
        failed: 0,
    };
    let mut speed = HostSpeed::new(Kernel::Chase);
    let (mut walls, mut replays) = (UnitRuns::default(), UnitRuns::default());
    let start = Instant::now();
    loop {
        for (i, c) in deck.cycles.iter().enumerate() {
            let at = speed.mark();
            let out = cycle(&deck.spaces[c.land], &c.fleet);
            walls.push(i, at, out.sample.wall_s);
            replays.push(i, at, out.replay_s);
            p.attempted += 1;
            p.failed += u64::from(out.failed > 0);
            if p.passes == 0 {
                p.cycles.push(out);
            }
        }
        p.passes += 1;
        if start.elapsed() >= budget {
            speed.mark();
            let scaled = walls
                .reference_s(&speed)
                .into_iter()
                .zip(replays.reference_s(&speed));
            for (c, (wall, replay)) in p.cycles.iter_mut().zip(scaled) {
                c.sample.wall_s = wall.expect("every cycle ran");
                c.replay_s = replay.expect("every cycle ran");
            }
            p.wall_s = walls.wall_s().into_iter().flatten().collect();
            p.speed = speed.note();
            return p;
        }
        between();
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
    let timed = Timed {
        setup_s: setups.setup_s,
        setup_wall_s: setups.wall_s,
        units: p.cycles.iter().map(|c| c.sample).collect(),
        wall_s: p.wall_s,
        science: p.cycles.iter().flat_map(|c| &c.reports).collect(),
    };
    let events: u64 = p.cycles.iter().map(|c| c.events).sum();
    let bytes: u64 = p.cycles.iter().map(|c| c.bytes).sum();
    let replay_s: f64 = p.cycles.iter().map(|c| c.replay_s).sum();
    let mut extra = vec![
        Metric::new("replay_events_per_s", events as f64 / replay_s, "1/s"),
        Metric::new("ledger_bytes_per_event", bytes as f64 / events as f64, "B"),
    ];
    extra.extend(report::wall_clock(&timed)?);
    Ok(Outcome {
        attempted: p.attempted,
        failed: p.failed,
        metrics: report::end_to_end(&timed)?,
        extra,
        notes: vec![
            format!(
                "audit cycles={} deck={} passes={} campaigns/cycle={CAMPAIGNS} events/cycle={} (each cycle's wall and replay time are the lower quartiles of its passes at reference host speed)",
                p.attempted,
                deck.cycles.len(),
                p.passes,
                events / p.cycles.len() as u64
            ),
            format!("noise cpu_s/wall_s={cpu_per_wall:.3}"),
            p.speed,
        ],
    })
}

fn traced(args: &Args, deck: &Deck, space_ms: &[f64]) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let n = deck.cycles.len();
    let base = untraced(deck, budget / 2, &mut || {});
    let passes = base.passes;
    let (mut attempted, mut failed) = (base.attempted, base.failed);

    let mut t = Tracer::new();
    let root = t.open("bench.run", 0, None);
    let mut totals = PhaseTotals::default();
    let (mut encode_ns, mut decode_ns, mut stream_ns) = (0u64, 0u64, 0u64);
    let (mut events, mut bytes) = (0u64, 0u64);
    // Traced walls per cycle, folded as the untraced side folds them.
    let mut speed = HostSpeed::new(Kernel::Chase);
    let mut traced_runs = UnitRuns::default();
    // Decoded ledgers of the first cycles, for the fold and encoder probes.
    let mut kept: Vec<FleetLedger> = Vec::new();
    for pass in 0..passes {
        for (i, c) in deck.cycles.iter().enumerate() {
            let g = (pass * n + i) as u64;
            let space = &deck.spaces[c.land];
            let at = speed.mark();
            let cyc = t.open("audit.cycle", g, Some(root));
            let (rec, (live, ledger, prof, _)) = t.span("fleet.record", g, Some(cyc), || {
                run_campaign_fleet_profiled(space, &c.fleet)
            });
            let (enc, wire) = t.span("wire.encode", g, Some(cyc), || {
                ledger.to_bytes(LedgerEncoding::Binary)
            });
            let (dec, decoded) = t.span("wire.decode", g, Some(cyc), || {
                FleetLedger::from_bytes(&wire)
            });
            let (rep, replayed) = t.span("replay.stream", g, Some(cyc), || {
                replay_fleet_ledger_bytes(&wire)
            });
            t.close(cyc);
            phase_spans(&mut t, rec, &prof);
            t.derived(
                rec,
                "fleet.steal",
                crate::layers::nanos_of(&prof, Phase::Steal),
            );
            totals.add(
                live.reports.len() as u64,
                t.get(rec).dur_ns(),
                &prof,
                live.total_experiments,
                live.total_hits,
            );
            encode_ns += t.get(enc).dur_ns();
            decode_ns += t.get(dec).dur_ns();
            stream_ns += t.get(rep).dur_ns();
            traced_runs.push(i, at, t.get(cyc).dur_ns() as f64 / 1e9);
            events += ledger.total_events() as u64;
            bytes += wire.len() as u64;
            attempted += 1;
            let ok = decoded.as_ref() == Ok(&ledger) && same_report(&replayed, &live);
            failed += u64::from(!ok);
            if let (true, Ok(d)) = (kept.len() < 8, decoded) {
                kept.push(d);
            }
        }
    }
    t.close(root);
    speed.mark();
    let base_wall_s: f64 = base.cycles.iter().map(|c| c.sample.wall_s).sum();
    let traced_wall_s: f64 = traced_runs.reference_s(&speed).into_iter().flatten().sum();
    let overhead_share = traced_wall_s / base_wall_s - 1.0;
    let pass_experiments: u64 = base.cycles.iter().map(|c| c.sample.experiments).sum();

    // ---- probes, outside the traced wall --------------------------------
    let (mut fold_ns, mut fold_events) = (0u64, 0u64);
    let (mut segments, mut hits, mut misses) = (0u64, 0u64, 0u64);
    let mut buf = Vec::new();
    for ledger in &kept {
        let f = Instant::now();
        let folded = replay_fleet_ledger(ledger);
        fold_ns += f.elapsed().as_nanos() as u64;
        failed += u64::from(folded.is_err());
        attempted += 1;
        fold_events += ledger.total_events() as u64;
        for c in &ledger.campaigns {
            let stats = c.encode_binary_into(&mut buf);
            segments += stats.segments;
            hits += stats.intern_hits;
            misses += stats.intern_misses;
        }
    }
    let cycles = (passes * n) as f64;
    let per_event = |ns: u64| ns as f64 / events.max(1) as f64;
    let extra = vec![
        Metric::new("wire.encode_ns_per_event", per_event(encode_ns), "ns"),
        Metric::new("wire.decode_ns_per_event", per_event(decode_ns), "ns"),
        Metric::new(
            "wire.bytes_per_event",
            bytes as f64 / events.max(1) as f64,
            "B",
        ),
        Metric::new(
            "wire.segments",
            segments as f64 / kept.len().max(1) as f64,
            "count",
        ),
        Metric::new(
            "wire.intern_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            "share",
        ),
        Metric::new(
            "replay.fold_ns_per_event",
            fold_ns as f64 / fold_events.max(1) as f64,
            "ns",
        ),
        Metric::new("replay.stream_ns_per_event", per_event(stream_ns), "ns"),
        Metric::new("fleet.tasks", totals.campaigns as f64 / cycles, "count"),
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
        "traced passes={passes} cycles={} probe: fold and encoder stats on {} cycles",
        passes * n,
        kept.len()
    )];
    notes.extend(trace::layer_table(t.spans()));
    notes.push(trace::write_trace("audit", args.seed, &t)?);
    Ok(Outcome {
        attempted,
        failed,
        metrics: totals.metrics(overhead_share, space_ms),
        extra,
        notes,
    })
}
