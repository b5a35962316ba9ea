//! **Propose-path harness — is the optimized surrogate hot path
//! bit-identical, and how much does a proposal cost?**
//!
//! The propose overhaul (flat surrogate storage, cached incumbents,
//! batched acquisition scoring, incremental anchors) is only allowed to
//! change *wall-clock*, never trajectories. This binary gates that
//! contract end to end:
//!
//! * **Bit-identity.** For every surrogate-backed planner (surrogate,
//!   agentic, meta, ensemble) a seeded campaign is run and its ledger's
//!   proposal→result stream is replayed into a mirrored pair of
//!   surrogates: the optimized [`RbfSurrogate`] and the retained naive
//!   [`NaiveRbfSurrogate`] reference. At every step the cached
//!   incumbent must match the reference's full rescan bit-for-bit, and
//!   on periodic seeded candidate pools every batched prediction and
//!   acquisition score must match the naive per-candidate path
//!   bit-for-bit (`f64::to_bits` equality, not epsilon), and the
//!   certified [`RbfSurrogate::argmax_acquisition`] must pick the naive
//!   path's first maximal score.
//! * **Overhead budget.** The profiled propose phase must average under
//!   [`PROPOSE_BUDGET_NANOS`] per proposal. Wall-clock lives on stdout
//!   and in the exit code only — never in the artifact.
//! * **Determinism.** Phase counts and the ledger are identical on
//!   rerun; CI additionally runs this binary twice and byte-diffs
//!   `BENCH_propose.json`.
//!
//! Read `BENCH_propose.json` as: one entry per planner with its
//! proposal/anchor/model/score counts (the `propose.*` sub-phase
//! taxonomy of `evoflow_core::profile`) plus the mirror-replay check
//! counts; `equivalence_mismatches` and `argmax_mismatches` must be 0
//! everywhere, and `refined_candidates` ÷ `argmax_checks` is how many
//! candidates per pool the certified argmax's filter could not prune.

use evoflow_bench::{print_table, write_bench_summary};
use evoflow_core::{
    run_campaign_profiled, CampaignConfig, CampaignEvent, CampaignLedger, Cell, MaterialsSpace,
    Phase, PhaseBreakdown, PhaseProfiler, PlannerKind,
};
use evoflow_learn::{AccScratch, NaiveRbfSurrogate, RbfSurrogate};
use evoflow_sim::{SimDuration, SimRng};
use evoflow_sm::IntelligenceLevel;
use serde::Serialize;
use std::collections::VecDeque;

/// Acquisition exploration weight used by the analysis agents.
const KAPPA: f64 = 0.6;
/// Candidates per seeded comparison pool.
const POOL: usize = 16;
/// Compare a candidate pool every this many mirrored observations.
const POOL_EVERY: usize = 8;
/// Surrogate bandwidth, matching [`evoflow_agents::AnalysisAgent`].
const BANDWIDTH: f64 = 0.12;
/// Propose overhead budget: mean nanoseconds per proposal, umbrella
/// phase (anchor + model + score). Wall-clock gate — exit code only.
const PROPOSE_BUDGET_NANOS: u64 = 2_000_000;

fn nanos_of(bd: &PhaseBreakdown, phase: Phase) -> u64 {
    bd.phases
        .iter()
        .find(|s| s.phase == phase.name())
        .map(|s| s.nanos)
        .unwrap_or(0)
}

/// What a mirror replay checked and found.
#[derive(Default)]
struct Mirror {
    observations: u64,
    /// Bit-identity checks (incumbents, predictions, scores) and misses.
    checks: u64,
    mismatches: u64,
    /// Certified-vs-naive argmax checks (one per pool) and misses.
    argmax_checks: u64,
    argmax_mismatches: u64,
    /// Candidates the certified argmax's filter kept, over all pools.
    refined: u64,
}

/// Replay a campaign ledger's proposal→result stream into mirrored
/// optimized/naive surrogates, bit-comparing incumbents, predictions,
/// and acquisition scores, and checking the certified argmax against
/// the naive first maximum.
fn mirror_replay(ledger: &CampaignLedger, dim: usize, lanes: usize, seed: u64) -> Mirror {
    let mut fast = RbfSurrogate::new(BANDWIDTH);
    let mut naive = NaiveRbfSurrogate::new(BANDWIDTH);
    let mut pending: Vec<VecDeque<Vec<f64>>> = vec![VecDeque::new(); lanes];
    let mut rng = SimRng::from_seed_u64(seed ^ 0x9E3779B97F4A7C15);
    let mut scratch = AccScratch::default();
    let (mut cands, mut preds, mut scores) = (Vec::new(), Vec::new(), Vec::new());
    let mut out = Mirror::default();

    let mut compare_pool = |fast: &RbfSurrogate, naive: &NaiveRbfSurrogate, out: &mut Mirror| {
        cands.clear();
        for _ in 0..POOL * dim {
            cands.push(rng.uniform());
        }
        preds.clear();
        fast.predict_batch_with(dim, &cands, &mut scratch, &mut preds);
        scores.clear();
        fast.score_batch_with(dim, &cands, KAPPA, &mut scratch, &mut scores);
        let (mut naive_best, mut naive_max) = (0, f64::NAN);
        for j in 0..POOL {
            let c = &cands[j * dim..(j + 1) * dim];
            let (nm, nu) = naive.predict(c);
            let ns = naive.acquisition(c, KAPPA);
            out.checks += 3;
            out.mismatches += u64::from(preds[j].0.to_bits() != nm.to_bits());
            out.mismatches += u64::from(preds[j].1.to_bits() != nu.to_bits());
            out.mismatches += u64::from(scores[j].to_bits() != ns.to_bits());
            if j == 0 || ns > naive_max {
                (naive_best, naive_max) = (j, ns);
            }
        }
        let certified = fast.argmax_acquisition(dim, &cands, KAPPA, &mut scratch);
        out.argmax_checks += 1;
        out.argmax_mismatches += u64::from(certified != naive_best);
        out.refined += scratch.survivors() as u64;
    };

    // Degenerate pass: the empty surrogate must already agree.
    compare_pool(&fast, &naive, &mut out);

    for ev in &ledger.events {
        match ev {
            CampaignEvent::CandidateProposed { lane, params, .. } => {
                pending[*lane].push_back(params.clone());
            }
            CampaignEvent::ResultObserved { lane, score, .. } => {
                let params = pending[*lane]
                    .pop_front()
                    .expect("every result follows its lane's proposal");
                // Mirror the analysis agents: minimize the negated score.
                fast.observe(&params, -score);
                naive.observe(&params, -score);
                out.observations += 1;
                let fb = fast.best().map(|(x, y)| (x.to_vec(), y.to_bits()));
                let nb = naive.best().map(|(x, y)| (x.to_vec(), y.to_bits()));
                out.checks += 1;
                out.mismatches += u64::from(fb != nb);
                if (out.observations as usize).is_multiple_of(POOL_EVERY) {
                    compare_pool(&fast, &naive, &mut out);
                }
            }
            _ => {}
        }
    }
    out
}

fn config(kind: &PlannerKind, seed: u64) -> CampaignConfig {
    let pattern = evoflow_agents::Pattern::Swarm { k: 4 };
    let mut cfg = CampaignConfig::for_cell(Cell::new(IntelligenceLevel::Optimizing, pattern), seed);
    cfg.horizon = SimDuration::from_days(5);
    cfg.with_planner(kind.clone())
}

#[derive(Serialize)]
struct PlannerOut {
    planner: String,
    experiments: u64,
    proposals: u64,
    anchor_scans: u64,
    model_calls: u64,
    candidates_scored: u64,
    observations_mirrored: u64,
    equivalence_checks: u64,
    equivalence_mismatches: u64,
    argmax_checks: u64,
    argmax_mismatches: u64,
    refined_candidates: u64,
}

#[derive(Serialize)]
struct Out {
    kappa: f64,
    pool: usize,
    budget_nanos_per_proposal: u64,
    planners: Vec<PlannerOut>,
    equivalence_ok: bool,
    overhead_within_budget: bool,
}

fn main() {
    let space = MaterialsSpace::generate(3, 8, 777);
    let kinds: Vec<(&str, PlannerKind)> = vec![
        ("surrogate", PlannerKind::Surrogate),
        ("agentic", PlannerKind::Agentic),
        ("meta", PlannerKind::meta()),
        ("ensemble", PlannerKind::ensemble()),
    ];

    let mut rows = Vec::new();
    let mut planners = Vec::new();
    for (i, (label, kind)) in kinds.iter().enumerate() {
        let seed = 4100 + i as u64;
        let cfg = config(kind, seed);
        let lanes = cfg.effective_lanes();
        let mut ledger = CampaignLedger::new();
        let mut prof = PhaseProfiler::enabled();
        let report = run_campaign_profiled(&space, &cfg, &mut [&mut ledger], &mut prof);
        let bd = prof.breakdown();

        // ---- Gate: deterministic on rerun --------------------------------
        let mut ledger2 = CampaignLedger::new();
        let mut prof2 = PhaseProfiler::enabled();
        run_campaign_profiled(&space, &cfg, &mut [&mut ledger2], &mut prof2);
        assert_eq!(ledger, ledger2, "{label}: ledger changed on rerun");
        assert_eq!(
            bd.counts_only(),
            prof2.breakdown().counts_only(),
            "{label}: phase counts changed on rerun"
        );

        // ---- Gate: optimized surrogate ≡ naive reference, bit for bit ----
        let mirror = mirror_replay(&ledger, space.dim(), lanes, seed);
        assert_eq!(
            mirror.mismatches, 0,
            "{label}: optimized surrogate drifted from the naive reference"
        );
        assert_eq!(
            mirror.argmax_mismatches, 0,
            "{label}: certified argmax drifted from the naive first maximum"
        );

        // ---- Gate: propose overhead within budget (wall-clock, stdout) ---
        let proposals = bd.count_of(Phase::Propose);
        let per_proposal = nanos_of(&bd, Phase::Propose) / proposals.max(1);
        assert!(
            per_proposal <= PROPOSE_BUDGET_NANOS,
            "{label}: propose cost {per_proposal} ns/proposal exceeds \
             budget {PROPOSE_BUDGET_NANOS}"
        );

        rows.push(vec![
            (*label).to_string(),
            proposals.to_string(),
            bd.count_of(Phase::ProposeAnchor).to_string(),
            bd.count_of(Phase::ProposeScore).to_string(),
            mirror.observations.to_string(),
            mirror.checks.to_string(),
            format!(
                "{:.2}",
                mirror.refined as f64 / mirror.argmax_checks.max(1) as f64
            ),
            format!("{:.1}", per_proposal as f64 / 1e3),
        ]);
        planners.push(PlannerOut {
            planner: (*label).to_string(),
            experiments: report.experiments,
            proposals,
            anchor_scans: bd.count_of(Phase::ProposeAnchor),
            model_calls: bd.count_of(Phase::ProposeModel),
            candidates_scored: bd.count_of(Phase::ProposeScore),
            observations_mirrored: mirror.observations,
            equivalence_checks: mirror.checks,
            equivalence_mismatches: mirror.mismatches,
            argmax_checks: mirror.argmax_checks,
            argmax_mismatches: mirror.argmax_mismatches,
            refined_candidates: mirror.refined,
        });
    }

    print_table(
        "Propose path: bit-identity mirror + overhead (µs/proposal is wall-clock)",
        &[
            "planner",
            "proposals",
            "anchors",
            "scored",
            "mirrored",
            "checks",
            "refined/pool",
            "µs/prop",
        ],
        &rows,
    );
    println!(
        "  [PASS] optimized surrogate bit-identical to naive reference, \
         certified argmax equal to the naive first maximum, across {} planners",
        planners.len()
    );
    println!("  [PASS] propose overhead within {PROPOSE_BUDGET_NANOS} ns/proposal budget");

    let equivalence_ok = planners
        .iter()
        .all(|p| p.equivalence_mismatches == 0 && p.argmax_mismatches == 0);
    let out = Out {
        kappa: KAPPA,
        pool: POOL,
        budget_nanos_per_proposal: PROPOSE_BUDGET_NANOS,
        planners,
        equivalence_ok,
        overhead_within_budget: true,
    };
    write_bench_summary("propose", &out);
}
