//! Per-layer accounting shared by the workloads' traced runs.

use crate::report::{self, Metric};
use crate::trace::Tracer;
use evoflow_core::{Phase, PhaseBreakdown};

/// Wall nanoseconds a profile recorded for one phase.
pub fn nanos_of(b: &PhaseBreakdown, phase: Phase) -> u64 {
    b.phases
        .iter()
        .find(|s| s.phase == phase.name())
        .map(|s| s.nanos)
        .unwrap_or(0)
}

/// The phase children every profiled campaign span gets, derived from
/// its `PhaseProfiler` breakdown one phase at a time (never
/// `total_nanos`, which counts `propose.model` inside `propose` twice).
/// Returns the ids of `planner.propose`, `campaign.observe` and
/// `campaign.emit`, under which layer probes hang their estimates.
pub fn phase_spans(t: &mut Tracer, parent: usize, b: &PhaseBreakdown) -> (usize, usize, usize) {
    let propose = t.derived(parent, "campaign.propose", nanos_of(b, Phase::Propose));
    t.derived(
        propose,
        "campaign.anchor",
        nanos_of(b, Phase::ProposeAnchor),
    );
    let model = t.derived(propose, "planner.propose", nanos_of(b, Phase::ProposeModel));
    t.derived(parent, "campaign.execute", nanos_of(b, Phase::Execute));
    let observe = t.derived(parent, "campaign.observe", nanos_of(b, Phase::Observe));
    let emit = t.derived(parent, "campaign.emit", nanos_of(b, Phase::Emit));
    (model, observe, emit)
}

/// Phase totals accumulated over profiled campaigns.
#[derive(Default)]
pub struct PhaseTotals {
    /// Campaigns folded in.
    pub campaigns: u64,
    /// Wall of those campaigns (ns).
    pub wall_ns: u64,
    /// `propose`, `execute`, `observe`, `emit` nanoseconds.
    pub phase_ns: [u64; 4],
    /// Propose calls.
    pub proposals: u64,
    /// Simulated experiments.
    pub experiments: u64,
    /// Above-threshold measurements.
    pub hits: u64,
}

impl PhaseTotals {
    /// Fold one profiled campaign (or fleet) in.
    pub fn add(
        &mut self,
        campaigns: u64,
        wall_ns: u64,
        b: &PhaseBreakdown,
        experiments: u64,
        hits: u64,
    ) {
        self.campaigns += campaigns;
        self.wall_ns += wall_ns;
        for (slot, phase) in [Phase::Propose, Phase::Execute, Phase::Observe, Phase::Emit]
            .into_iter()
            .enumerate()
        {
            self.phase_ns[slot] += nanos_of(b, phase);
        }
        self.proposals += b.count_of(Phase::Propose);
        self.experiments += experiments;
        self.hits += hits;
    }

    /// The shared per-layer metrics: per-campaign phase times, propose
    /// calls, hit rate, then `trace.overhead_share` and the set-up split.
    pub fn metrics(&self, overhead_share: f64, space_ms: &[f64]) -> Vec<Metric> {
        let per = |ns: u64| ns as f64 / self.campaigns.max(1) as f64;
        let phases: u64 = self.phase_ns.iter().sum();
        vec![
            Metric::registered("setup.space_generate_ms", report::median(space_ms)),
            Metric::registered("campaign.propose_ns", per(self.phase_ns[0])),
            Metric::registered("campaign.execute_ns", per(self.phase_ns[1])),
            Metric::registered("campaign.observe_ns", per(self.phase_ns[2])),
            Metric::registered("campaign.emit_ns", per(self.phase_ns[3])),
            Metric::registered(
                "campaign.other_ns",
                per(self.wall_ns.saturating_sub(phases)),
            ),
            Metric::registered("campaign.proposals", per(self.proposals)),
            Metric::registered(
                "planner.hit_rate",
                self.hits as f64 / self.experiments.max(1) as f64,
            ),
            Metric::registered("trace.overhead_share", overhead_share),
        ]
    }
}
