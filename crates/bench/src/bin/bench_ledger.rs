//! **Ledger-replay smoke — is the event stream a faithful audit record?**
//!
//! Gates (ISSUE 5 + ISSUE 7), each fatal on regression:
//!
//! 1. **Per-planner replay** — for every planner kind, a recorded
//!    campaign's serialized ledger is byte-identical on rerun, and
//!    `replay_ledger` rebuilds the live `CampaignReport` byte-for-byte
//!    with identical provenance/knowledge counts. The same ledger encoded
//!    as `EVWL` binary must stream-replay (`replay_ledger_bytes`) to the
//!    identical report and decode back to the identical JSON bytes.
//! 2. **Compression** — summed across all planner ledgers, the binary
//!    encoding is at least 5× smaller than the JSON encoding.
//! 3. **Tamper refusal** — flipping a single bit at sampled offsets of a
//!    binary ledger, or truncating it at sampled lengths, is always
//!    refused by the checksummed decoder (never a silently-wrong replay).
//! 4. **Streaming replay throughput** — binary replay sustains a floor
//!    events/second rate (raw numbers are printed, never serialized, so
//!    the summary stays byte-diffable).
//! 5. **Fleet merge invariance** — the merged `FleetLedger` is
//!    byte-identical at 1, 2, and 4 worker threads; `replay_fleet_ledger`
//!    and the streaming `replay_fleet_ledger_bytes` both rebuild the live
//!    `FleetReport`.
//! 6. **Crash accountability** — killing the coordinator at the seeded
//!    death point and resuming reproduces both the report and the merged
//!    ledger byte-for-byte (the testbed's A3 rung).
//!
//! Artifacts: every serialized ledger/report — including the `.evwl`
//! binary forms — is written to `LEDGER_DETERMINISM_DIR` when set, so the
//! CI job can byte-diff two independent process runs (catching
//! nondeterminism that hides inside a single process).

use evoflow_bench::{print_table, write_bench_summary};
use evoflow_core::{
    fleet_death_point, replay_fleet_ledger, replay_fleet_ledger_bytes, replay_ledger,
    replay_ledger_bytes, resume_campaign_fleet_recorded, run_campaign_fleet_recorded,
    run_campaign_fleet_recorded_until, run_campaign_recorded, CampaignConfig, CampaignLedger, Cell,
    FleetConfig, LedgerEncoding, MaterialsSpace, PlannerKind, WireEncodeStats,
};
use evoflow_sim::SimDuration;
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

const CHAOS_SEED: u64 = 404;
/// Compression gate: binary must be at least this many times smaller.
const SIZE_RATIO_FLOOR: f64 = 5.0;
/// Throughput gate floor, in replayed events per second: more than 10x
/// below what the streaming decoder sustains on a 2-vCPU VM (5-10 M
/// events/s), so the boolean stays stable on a slow CI runner yet fails
/// if replay falls by an order of magnitude.
const REPLAY_EVENTS_PER_SEC_FLOOR: f64 = 500_000.0;
/// Tamper battery samples roughly this many offsets per ledger.
const TAMPER_SAMPLES: usize = 512;

fn emit_artifact(dir: &Option<PathBuf>, name: &str, bytes: &[u8]) {
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir).expect("create determinism dir");
        std::fs::write(dir.join(name), bytes).expect("write determinism artifact");
    }
}

#[derive(Serialize)]
struct PlannerRow {
    planner: String,
    events: usize,
    json_bytes: usize,
    bin_bytes: usize,
    rerun_identical: bool,
    replay_identical: bool,
    bin_replay_identical: bool,
    bin_round_trip: bool,
    prov_match: bool,
}

struct PlannerBattery {
    rows: Vec<PlannerRow>,
    json_total: usize,
    bin_total: usize,
    /// The last (meta-planner) binary ledger, reused by the tamper and
    /// throughput batteries.
    sample_bin: Vec<u8>,
    sample_events: usize,
    /// Deterministic encode counters summed across every planner ledger
    /// (the allocation-proxy view of the wire fast path).
    encode_stats: WireEncodeStats,
    /// Every ledger encoded through one reused buffer matched the
    /// fresh-allocation `to_bytes` bytes exactly.
    reuse_identical: bool,
}

fn planner_battery(
    space: &MaterialsSpace,
    artifact_dir: &Option<PathBuf>,
    failures: &mut Vec<String>,
) -> PlannerBattery {
    let mut kinds = PlannerKind::all_concrete();
    kinds.push(PlannerKind::meta());
    let mut rows = Vec::new();
    let (mut json_total, mut bin_total) = (0usize, 0usize);
    let mut sample_bin = Vec::new();
    let mut sample_events = 0;
    let mut encode_stats = WireEncodeStats::default();
    let mut reuse_identical = true;
    // One reused output buffer across every planner's encode — the fast
    // path the campaign service uses; its bytes must match `to_bytes`.
    let mut reuse_buf = Vec::new();
    for kind in kinds {
        let mut cfg = CampaignConfig::for_cell(
            Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh),
            17,
        )
        .with_planner(kind.clone());
        cfg.horizon = SimDuration::from_days(1);
        cfg.coordination = Some(evoflow_core::CoordinationMode::Autonomous);
        cfg.max_experiments = 2_000;

        let (live, ledger) = run_campaign_recorded(space, &cfg);
        let ledger_bytes = serde_json::to_string(&ledger).expect("ledger serializes");
        let bin = ledger.to_bytes(LedgerEncoding::Binary);
        let stats = ledger.encode_binary_into(&mut reuse_buf);
        if reuse_buf != bin {
            reuse_identical = false;
            failures.push(format!(
                "{}: reused-buffer encode diverged from to_bytes",
                kind.label()
            ));
        }
        encode_stats.events += stats.events;
        encode_stats.segments += stats.segments;
        encode_stats.intern_hits += stats.intern_hits;
        encode_stats.intern_misses += stats.intern_misses;
        emit_artifact(
            artifact_dir,
            &format!("ledger_{}.json", kind.label()),
            ledger_bytes.as_bytes(),
        );
        emit_artifact(artifact_dir, &format!("ledger_{}.evwl", kind.label()), &bin);

        let (_, rerun) = run_campaign_recorded(space, &cfg);
        let rerun_identical =
            serde_json::to_string(&rerun).expect("ledger serializes") == ledger_bytes;
        if !rerun_identical {
            failures.push(format!("{}: ledger rerun diverged", kind.label()));
        }

        let live_report = serde_json::to_string(&live).expect("report serializes");
        let (replay_identical, prov_match) = match replay_ledger(&ledger) {
            Ok(outcome) => (
                serde_json::to_string(&outcome.report).expect("report serializes") == live_report,
                outcome.provenance.activity_count() == live.prov_activities
                    && outcome.knowledge.node_count() == live.kg_nodes,
            ),
            Err(e) => {
                failures.push(format!("{}: replay refused: {e}", kind.label()));
                (false, false)
            }
        };
        if !replay_identical {
            failures.push(format!("{}: replayed report diverged", kind.label()));
        }
        if !prov_match {
            failures.push(format!("{}: provenance counts diverged", kind.label()));
        }

        // The binary form must stream-replay to the same report and decode
        // back to the exact legacy JSON bytes (lossless round-trip).
        let bin_replay_identical = replay_ledger_bytes(&bin)
            .map(|o| serde_json::to_string(&o.report).expect("serialize") == live_report)
            .unwrap_or(false);
        if !bin_replay_identical {
            failures.push(format!("{}: binary stream replay diverged", kind.label()));
        }
        let bin_round_trip = evoflow_core::CampaignLedger::from_bytes(&bin)
            .map(|l| serde_json::to_string(&l).expect("serialize") == ledger_bytes)
            .unwrap_or(false);
        if !bin_round_trip {
            failures.push(format!("{}: binary decode lost information", kind.label()));
        }

        json_total += ledger_bytes.len();
        bin_total += bin.len();
        sample_events = ledger.len();
        rows.push(PlannerRow {
            planner: kind.descriptor(),
            events: ledger.len(),
            json_bytes: ledger_bytes.len(),
            bin_bytes: bin.len(),
            rerun_identical,
            replay_identical,
            bin_replay_identical,
            bin_round_trip,
            prov_match,
        });
        sample_bin = bin;
    }
    PlannerBattery {
        rows,
        json_total,
        bin_total,
        sample_bin,
        sample_events,
        encode_stats,
        reuse_identical,
    }
}

#[derive(Serialize)]
struct WireGates {
    json_bytes_total: usize,
    bin_bytes_total: usize,
    size_ratio: f64,
    size_ratio_floor: f64,
    size_gate: bool,
    bit_flips_tested: usize,
    bit_flips_all_refused: bool,
    truncations_tested: usize,
    truncations_all_refused: bool,
    replay_throughput_ok: bool,
    /// Deterministic encode counters summed across every planner ledger:
    /// the allocation-proxy view of the buffer-reuse fast path. A string
    /// field that hits the intern table costs one varint instead of one
    /// heap string.
    encode: WireEncodeStats,
    /// Reused-buffer encodes were byte-identical to fresh `to_bytes`.
    buffer_reuse_identical: bool,
}

/// Compression + tamper + throughput gates over the meta-planner's binary
/// ledger (wall-clock numbers are printed here, never serialized).
fn wire_battery(battery: &PlannerBattery, failures: &mut Vec<String>) -> WireGates {
    let size_ratio = battery.json_total as f64 / battery.bin_total.max(1) as f64;
    let size_gate = size_ratio >= SIZE_RATIO_FLOOR;
    if !size_gate {
        failures.push(format!(
            "wire: binary only {size_ratio:.2}x smaller than JSON (floor {SIZE_RATIO_FLOOR}x)"
        ));
    }

    // Single-bit flips at sampled offsets: every one must be refused.
    let bin = &battery.sample_bin;
    let stride = (bin.len() / TAMPER_SAMPLES).max(1);
    let mut flips = 0usize;
    let mut flips_refused = true;
    for offset in (0..bin.len()).step_by(stride) {
        let mut tampered = bin.clone();
        tampered[offset] ^= 0x01;
        flips += 1;
        if replay_ledger_bytes(&tampered).is_ok() {
            flips_refused = false;
            failures.push(format!("wire: bit flip at byte {offset} replayed cleanly"));
        }
    }

    // Truncation at sampled lengths (including the empty prefix): every
    // one must be refused — a cut-off ledger is never a valid shorter one.
    let mut cuts = 0usize;
    let mut cuts_refused = true;
    for cut in (0..bin.len()).step_by(stride) {
        cuts += 1;
        if replay_ledger_bytes(&bin[..cut]).is_ok() {
            cuts_refused = false;
            failures.push(format!("wire: truncation to {cut} bytes replayed cleanly"));
        }
    }

    // Streaming replay throughput: best of a few repeats, gated against a
    // floor far below the decoder's real rate so the boolean never flaps.
    let mut best_events_per_sec = 0f64;
    for _ in 0..5 {
        let t0 = Instant::now();
        replay_ledger_bytes(bin).expect("untampered binary replays");
        let secs = t0.elapsed().as_secs_f64().max(1e-9);
        best_events_per_sec = best_events_per_sec.max(battery.sample_events as f64 / secs);
    }
    let replay_throughput_ok = best_events_per_sec >= REPLAY_EVENTS_PER_SEC_FLOOR;
    if !replay_throughput_ok {
        failures.push(format!(
            "wire: streaming replay at {best_events_per_sec:.0} events/s \
             (floor {REPLAY_EVENTS_PER_SEC_FLOOR})"
        ));
    }
    // Encode and decode cost of the same ledger, best of the same repeats
    // (stdout only: wall clock never enters the summary).
    let ledger = CampaignLedger::from_bytes(bin).expect("untampered binary decodes");
    let mut out = Vec::new();
    let (mut encode_ns, mut decode_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let t0 = Instant::now();
        ledger.encode_binary_into(&mut out);
        encode_ns = encode_ns.min(t0.elapsed().as_secs_f64() * 1e9);
        let t0 = Instant::now();
        std::hint::black_box(CampaignLedger::from_bytes(bin).expect("untampered binary decodes"));
        decode_ns = decode_ns.min(t0.elapsed().as_secs_f64() * 1e9);
    }
    let per_event = |ns: f64| ns / battery.sample_events.max(1) as f64;
    println!(
        "\n  wire: {} -> {} bytes ({size_ratio:.2}x), {flips} bit flips + {cuts} truncations \
         refused, streaming replay {best_events_per_sec:.0} events/s \
         (floor {REPLAY_EVENTS_PER_SEC_FLOOR}), encode {:.0} ns/event, decode {:.0} ns/event",
        battery.json_total,
        battery.bin_total,
        per_event(encode_ns),
        per_event(decode_ns),
    );
    println!(
        "  encode: {} events in {} segments, intern {} hits / {} misses, reuse {}",
        battery.encode_stats.events,
        battery.encode_stats.segments,
        battery.encode_stats.intern_hits,
        battery.encode_stats.intern_misses,
        if battery.reuse_identical {
            "ok"
        } else {
            "FAIL"
        },
    );

    WireGates {
        json_bytes_total: battery.json_total,
        bin_bytes_total: battery.bin_total,
        size_ratio,
        size_ratio_floor: SIZE_RATIO_FLOOR,
        size_gate,
        bit_flips_tested: flips,
        bit_flips_all_refused: flips_refused,
        truncations_tested: cuts,
        truncations_all_refused: cuts_refused,
        replay_throughput_ok,
        encode: battery.encode_stats,
        buffer_reuse_identical: battery.reuse_identical,
    }
}

#[derive(Serialize)]
struct FleetGates {
    campaigns: usize,
    kill_after: usize,
    total_events: usize,
    fleet_json_bytes: usize,
    fleet_bin_bytes: usize,
    thread_invariant: bool,
    replay_identical: bool,
    bin_replay_identical: bool,
    resume_identical: bool,
}

fn fleet_battery(
    space: &MaterialsSpace,
    artifact_dir: &Option<PathBuf>,
    failures: &mut Vec<String>,
) -> FleetGates {
    let mut cfg = FleetConfig::new(1234);
    cfg.horizon = SimDuration::from_days(2);
    cfg.threads = 1;
    cfg.push_cell(Cell::traditional_wms(), 3);
    cfg.push_cell(Cell::autonomous_science(), 3);
    cfg.push_cell(
        Cell::new(IntelligenceLevel::Learning, evoflow_agents::Pattern::Mesh),
        3,
    );

    let (report, ledger) = run_campaign_fleet_recorded(space, &cfg);
    let report_bytes = serde_json::to_string(&report).expect("report serializes");
    let ledger_bytes = serde_json::to_string(&ledger).expect("ledger serializes");
    let fleet_bin = ledger.to_bytes(LedgerEncoding::Binary);
    emit_artifact(artifact_dir, "fleet_report.json", report_bytes.as_bytes());
    emit_artifact(artifact_dir, "fleet_ledger.json", ledger_bytes.as_bytes());
    emit_artifact(artifact_dir, "fleet_ledger.evwl", &fleet_bin);

    let mut thread_invariant = true;
    for threads in [2usize, 4] {
        let mut c = cfg.clone();
        c.threads = threads;
        let (r, l) = run_campaign_fleet_recorded(space, &c);
        if serde_json::to_string(&r).expect("serialize") != report_bytes
            || serde_json::to_string(&l).expect("serialize") != ledger_bytes
        {
            thread_invariant = false;
            failures.push(format!(
                "fleet: {threads}-thread ledger diverged from serial"
            ));
        }
    }

    let replay_identical = replay_fleet_ledger(&ledger)
        .map(|r| serde_json::to_string(&r).expect("serialize") == report_bytes)
        .unwrap_or(false);
    if !replay_identical {
        failures.push("fleet: replayed report diverged".to_string());
    }

    // The binary fleet ledger must stream-replay (shard by shard, bounded
    // memory) to the same report the live run produced.
    let bin_replay_identical = replay_fleet_ledger_bytes(&fleet_bin)
        .map(|r| serde_json::to_string(&r).expect("serialize") == report_bytes)
        .unwrap_or(false);
    if !bin_replay_identical {
        failures.push("fleet: binary stream replay diverged".to_string());
    }

    let kill_after = fleet_death_point(CHAOS_SEED, cfg.campaigns.len());
    let ckpt = run_campaign_fleet_recorded_until(space, &cfg, kill_after);
    let resume_identical = resume_campaign_fleet_recorded(space, &cfg, &ckpt)
        .map(|(r, l)| {
            serde_json::to_string(&r).expect("serialize") == report_bytes
                && serde_json::to_string(&l).expect("serialize") == ledger_bytes
        })
        .unwrap_or(false);
    if !resume_identical {
        failures.push(format!("fleet: kill@{kill_after} + resume left a seam"));
    }

    FleetGates {
        campaigns: cfg.campaigns.len(),
        kill_after,
        total_events: ledger.total_events(),
        fleet_json_bytes: ledger_bytes.len(),
        fleet_bin_bytes: fleet_bin.len(),
        thread_invariant,
        replay_identical,
        bin_replay_identical,
        resume_identical,
    }
}

fn main() {
    println!("ledger-replay smoke: event streams as the audit substrate");
    let space = MaterialsSpace::generate(3, 8, 555);
    let artifact_dir = std::env::var_os("LEDGER_DETERMINISM_DIR").map(PathBuf::from);
    let mut failures: Vec<String> = Vec::new();

    let battery = planner_battery(&space, &artifact_dir, &mut failures);
    print_table(
        "Per-planner recorded campaign: rerun bytes + replay audit",
        &[
            "planner", "events", "json", "evwl", "rerun", "replay", "stream", "decode", "prov",
        ],
        &battery
            .rows
            .iter()
            .map(|r| {
                let flag = |ok: bool| if ok { "ok" } else { "FAIL" }.to_string();
                vec![
                    r.planner.clone(),
                    r.events.to_string(),
                    r.json_bytes.to_string(),
                    r.bin_bytes.to_string(),
                    flag(r.rerun_identical),
                    flag(r.replay_identical),
                    flag(r.bin_replay_identical),
                    flag(r.bin_round_trip),
                    flag(r.prov_match),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let wire = wire_battery(&battery, &mut failures);
    let fleet = fleet_battery(&space, &artifact_dir, &mut failures);
    println!(
        "\n  fleet: {} campaigns, {} events ({} json / {} evwl bytes), kill@{} — \
         thread-invariant {}, replay {}, stream {}, resume {}",
        fleet.campaigns,
        fleet.total_events,
        fleet.fleet_json_bytes,
        fleet.fleet_bin_bytes,
        fleet.kill_after,
        fleet.thread_invariant,
        fleet.replay_identical,
        fleet.bin_replay_identical,
        fleet.resume_identical,
    );

    let pass = failures.is_empty();
    println!(
        "\n  [{}] {}",
        if pass { "PASS" } else { "FAIL" },
        if pass {
            "every ledger replayed byte-identically; binary gates held".to_string()
        } else {
            failures.join("; ")
        }
    );

    #[derive(Serialize)]
    struct Out {
        planners: Vec<PlannerRow>,
        wire: WireGates,
        fleet: FleetGates,
        failures: Vec<String>,
        pass: bool,
    }
    let out = Out {
        planners: battery.rows,
        wire,
        fleet,
        failures,
        pass,
    };
    write_bench_summary("ledger", &out);

    if !pass {
        std::process::exit(1);
    }
}
