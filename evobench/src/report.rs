//! Metric names, units, percentiles, the host fingerprint, and the
//! result line.

use evoflow_core::CampaignReport;
use serde::Value;
use std::time::Instant;

/// End-to-end metrics every timed run reports, with their units. The
/// same names, in the same order, are the `end_to_end` list of
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("experiments_per_s", "1/s"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
    ("distinct_discoveries", "count"),
    ("first_hit_sim_h_p50", "h"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units — the
/// `per_layer` list of `BENCHMARK.json`. Each workload also prints the
/// per-layer metrics only it exercises (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.space_generate_ms", "ms"),
    ("campaign.propose_ns", "ns"),
    ("campaign.execute_ns", "ns"),
    ("campaign.observe_ns", "ns"),
    ("campaign.emit_ns", "ns"),
    ("campaign.other_ns", "ns"),
    ("campaign.proposals", "count"),
    ("planner.hit_rate", "share"),
    ("trace.overhead_share", "share"),
];

/// Samples a percentile needs beyond its rank before it is reported.
pub const MIN_BEYOND: usize = 10;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: &'static str,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `count`, …).
    pub unit: &'static str,
}

impl Metric {
    /// A metric with an explicit unit (the printed-only metrics).
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }

    /// A metric whose unit is looked up in [`END_TO_END`] / [`PER_LAYER`].
    pub fn registered(name: &'static str, value: f64) -> Metric {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        Metric { name, value, unit }
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters drawn from letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `values`, refused unless
/// at least [`MIN_BEYOND`] samples lie beyond its rank — a p90 needs 100
/// samples, a p50 needs 20.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it; {MIN_BEYOND} needed",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Plain median (mean of the middle pair for even counts) — for small
/// repeated measurements such as set-up time, where no tail is reported.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One timed unit of work: a campaign, an audit cycle, or a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitSample {
    /// Wall seconds the unit took; once a run ends, the lower quartile
    /// of its passes at reference host speed (see [`UnitRuns`]).
    pub wall_s: f64,
    /// Campaigns the unit ran.
    pub campaigns: u64,
    /// Simulated experiments the unit completed.
    pub experiments: u64,
}

/// Kernel timings on either side of a unit that set its speed divisor.
const SPEED_WINDOW: usize = 4;

/// 3-d points the RBF kernel scores against.
const RBF_POINTS: usize = 256;
/// Candidates the RBF kernel scores.
const RBF_CANDIDATES: usize = 48;
/// Slots of the chase kernel's ring: 128 KiB of `u32`, L2-sized.
const CHASE_RING: usize = 32 * 1024;
/// Hops the chase kernel makes: twice round the ring.
const CHASE_HOPS: usize = 2 * CHASE_RING / 4;

/// The reference kernels: fixed work of the kind a workload's units do,
/// so that a busy host slows the kernel about as much as the units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// RBF scoring, `exp` over 3-d distances: floating-point bound, like
    /// the surrogate scoring that dominates `discovery`.
    Rbf,
    /// A dependent pointer chase through an L2-sized ring: bound by
    /// cache latency, like the event, ledger and bookkeeping work of
    /// `audit` and `service`.
    Chase,
}

impl Kernel {
    /// Time the kernel is taken to need: a unit's wall is reported as
    /// if the host ran the kernel in exactly this long. Each is close to
    /// the kernel's median on a 2-vCPU Xeon VM, so reported times read
    /// close to that host's wall clock.
    pub(crate) fn reference_s(self) -> f64 {
        match self {
            Kernel::Rbf => 100e-6,
            Kernel::Chase => 85e-6,
        }
    }
}

/// The host's momentary speed, witnessed by a fixed reference
/// [`Kernel`] timed before every unit of work.
///
/// A shared host can run the same code 20–30% slower for seconds at a
/// time (a busy sibling hyperthread, a lower clock). Taking each unit's
/// fastest pass does not remove that, because a whole run can fall in a
/// slow stretch. The kernel is the benchmark's own code, never the
/// program's, and it does the same work every time. Its time next to a
/// unit tells how fast the host was just then, and
/// [`scale`](Self::scale) divides that out. A change to the program
/// moves the unit's time and not the kernel's, so it still shows in
/// full. The program must do no work between units (every workload is a
/// closed loop whose calls return when their work is done), or that
/// work would slow the kernel and flatter the program.
pub(crate) struct HostSpeed {
    kernel: Kernel,
    /// The RBF kernel's points (empty for the chase).
    points: Vec<f64>,
    /// The chase kernel's ring (empty for RBF).
    ring: Vec<u32>,
    /// Seconds of each kernel run, in run order.
    kernel_s: Vec<f64>,
}

impl HostSpeed {
    /// Build the kernel's fixed inputs.
    pub(crate) fn new(kernel: Kernel) -> HostSpeed {
        // xorshift64: fixed inputs, no dependence on the workload seed.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut points, mut ring) = (Vec::new(), Vec::new());
        match kernel {
            Kernel::Rbf => {
                points = (0..RBF_POINTS * 3)
                    .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
                    .collect();
            }
            Kernel::Chase => {
                // Sattolo's shuffle: one cycle through every slot, in an
                // order the prefetcher cannot guess.
                ring = (0..CHASE_RING as u32).collect();
                for i in (1..CHASE_RING).rev() {
                    let j = (next() % i as u64) as usize;
                    ring.swap(i, j);
                }
            }
        }
        HostSpeed {
            kernel,
            points,
            ring,
            kernel_s: Vec::new(),
        }
    }

    /// Run the kernel once and time it. Returns the mark of the unit
    /// timed next, for [`scale`](Self::scale).
    pub(crate) fn mark(&mut self) -> usize {
        // Bring the inputs back into cache first, untimed: the unit
        // before may have evicted them, and how much it evicted depends
        // on the program, which the kernel must not.
        let warm =
            self.points.iter().sum::<f64>() + self.ring.iter().map(|&s| f64::from(s)).sum::<f64>();
        std::hint::black_box(warm);
        let t = Instant::now();
        match self.kernel {
            Kernel::Rbf => {
                let mut acc = 0.0;
                for c in 0..RBF_CANDIDATES {
                    let x = [c as f64 / RBF_CANDIDATES as f64, 0.5, 0.25];
                    for p in self.points.chunks_exact(3) {
                        let d2 =
                            (p[0] - x[0]).powi(2) + (p[1] - x[1]).powi(2) + (p[2] - x[2]).powi(2);
                        acc += (-d2 / 0.0288).exp();
                    }
                }
                std::hint::black_box(acc);
            }
            Kernel::Chase => {
                let mut slot = 0usize;
                for _ in 0..CHASE_HOPS {
                    slot = self.ring[slot] as usize;
                }
                std::hint::black_box(slot);
            }
        }
        self.kernel_s.push(t.elapsed().as_secs_f64());
        self.kernel_s.len()
    }

    /// `secs`, measured right after [`mark`](Self::mark) returned `at`,
    /// at reference host speed.
    pub(crate) fn scale(&self, at: usize, secs: f64) -> f64 {
        scale_at(&self.kernel_s, at, secs, self.kernel.reference_s())
    }

    /// `secs`, measured between the kernel run that returned mark `at`
    /// and the one after it, at reference host speed: scaled by the mean
    /// of those two runs alone.
    pub(crate) fn scale_between(&self, at: usize, secs: f64) -> f64 {
        let pair = &self.kernel_s[at - 1..=at];
        secs * self.kernel.reference_s() * 2.0 / (pair[0] + pair[1])
    }

    /// Median and fastest kernel time, for the run's notes.
    pub(crate) fn note(&self) -> String {
        if self.kernel_s.is_empty() {
            return "host-speed kernel never ran".into();
        }
        let fastest = self.kernel_s.iter().copied().fold(f64::INFINITY, f64::min);
        format!(
            "host-speed kernel={:?} runs={} median_us={:.1} fastest_us={:.1} reference_us={:.1}",
            self.kernel,
            self.kernel_s.len(),
            median(&self.kernel_s) * 1e6,
            fastest * 1e6,
            self.kernel.reference_s() * 1e6
        )
    }
}

/// `secs` × `reference_s` ÷ the median of the kernel times in the window
/// of [`SPEED_WINDOW`] runs before mark `at` and as many from it on (the
/// runs that bracket the unit).
fn scale_at(kernel_s: &[f64], at: usize, secs: f64, reference_s: f64) -> f64 {
    let lo = at.saturating_sub(SPEED_WINDOW);
    let hi = (at + SPEED_WINDOW).min(kernel_s.len());
    secs * reference_s / median(&kernel_s[lo..hi])
}

/// Every timed run of every unit in a run, each with the
/// [`HostSpeed`] mark taken just before it.
#[derive(Debug, Default)]
pub(crate) struct UnitRuns {
    runs: Vec<Vec<(usize, f64)>>,
}

impl UnitRuns {
    /// Record that unit `unit` took `secs`, timed right after mark `at`.
    pub(crate) fn push(&mut self, unit: usize, at: usize, secs: f64) {
        if self.runs.len() <= unit {
            self.runs.resize_with(unit + 1, Vec::new);
        }
        self.runs[unit].push((at, secs));
    }

    /// Per unit, the lower quartile of its runs at reference host speed
    /// (`None` for a unit that never completed a run).
    ///
    /// The kernel tracks the host's speed only roughly, so a unit's
    /// faster runs are the ones least slowed by what it missed. The
    /// lower quartile rather than the fastest run: the fastest of more
    /// runs reads lower, and a run on a fast host makes more passes.
    pub(crate) fn reference_s(&self, speed: &HostSpeed) -> Vec<Option<f64>> {
        self.fold(|at, secs| speed.scale(at, secs))
    }

    /// Per unit, the lower quartile of its runs as the wall clock read
    /// them.
    pub(crate) fn wall_s(&self) -> Vec<Option<f64>> {
        self.fold(|_, secs| secs)
    }

    fn fold(&self, f: impl Fn(usize, f64) -> f64) -> Vec<Option<f64>> {
        self.runs
            .iter()
            .map(|runs| {
                let mut v: Vec<f64> = runs.iter().map(|&(at, secs)| f(at, secs)).collect();
                v.sort_by(f64::total_cmp);
                // Nearest rank: the fastest of up to 4 runs, the 2nd of 5 to 8.
                v.get(v.len().div_ceil(4).max(1) - 1).copied()
            })
            .collect()
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Set-up timings of a run: one entry per repetition.
pub struct Setups {
    /// Seconds of each set-up at reference host speed.
    pub setup_s: Vec<f64>,
    /// Seconds of each set-up as the wall clock read them; a workload's
    /// set-up records its own time here.
    pub wall_s: Vec<f64>,
    /// Landscape-generation milliseconds of each set-up.
    pub space_ms: Vec<f64>,
    /// Witness for `setup_s`: one kernel run before each set-up and one
    /// after.
    speed: HostSpeed,
}

impl Setups {
    fn new(kernel: Kernel) -> Setups {
        Setups {
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            space_ms: Vec::new(),
            speed: HostSpeed::new(kernel),
        }
    }

    /// Whether all [`SETUP_REPS`] repetitions have run.
    pub fn done(&self) -> bool {
        self.setup_s.len() >= SETUP_REPS
    }

    /// Run one set-up between two kernel runs, and scale the time it
    /// recorded by their mean.
    fn run<D>(&mut self, setup: &mut impl FnMut(&mut Setups) -> D) -> D {
        let at = self.speed.mark();
        let deck = setup(self);
        self.speed.mark();
        let wall = *self.wall_s.last().expect("a set-up records its time");
        self.setup_s.push(self.speed.scale_between(at, wall));
        deck
    }
}

/// Set up [`SETUP_REPS`] times for a traced run. Returns the first
/// set-up's deck and every repetition's timings.
pub(crate) fn set_up_all<D>(
    kernel: Kernel,
    mut setup: impl FnMut(&mut Setups) -> D,
) -> (D, Setups) {
    let mut setups = Setups::new(kernel);
    let deck = setups.run(&mut setup);
    while !setups.done() {
        setups.run(&mut setup);
    }
    (deck, setups)
}

/// A timed run's measured window: set up once, then run `passes` with
/// the remaining set-ups between passes, so their median spans the run
/// instead of one moment of it. Returns the first set-up's deck, what
/// `passes` returned, every set-up's timings, and CPU-seconds ÷
/// wall-seconds over the passes (see [`NoiseWitness`]).
pub(crate) fn timed_run<D, P>(
    kernel: Kernel,
    mut setup: impl FnMut(&mut Setups) -> D,
    passes: impl FnOnce(&D, &mut dyn FnMut()) -> P,
) -> (D, P, Setups, f64) {
    let mut setups = Setups::new(kernel);
    let deck = setups.run(&mut setup);
    let witness = NoiseWitness::start();
    let p = passes(&deck, &mut || {
        if !setups.done() {
            setups.run(&mut setup);
        }
    });
    let cpu_per_wall = witness.ratio();
    while !setups.done() {
        setups.run(&mut setup);
    }
    (deck, p, setups, cpu_per_wall)
}

/// What every workload's timed run hands back for the shared end-to-end
/// metrics.
pub struct Timed<'a> {
    /// Seconds of each set-up repetition at reference host speed.
    pub setup_s: Vec<f64>,
    /// Seconds of each set-up repetition as the wall clock read them.
    pub setup_wall_s: Vec<f64>,
    /// One sample per unit of the deck, its wall at reference speed.
    pub units: Vec<UnitSample>,
    /// Per unit, the lower quartile of its passes as the wall clock
    /// read them.
    pub wall_s: Vec<f64>,
    /// The campaign reports of one pass over the deck — the science
    /// outcome, a pure function of the seed.
    pub science: Vec<&'a CampaignReport>,
}

/// The end-to-end metrics of [`END_TO_END`], in order.
pub fn end_to_end(t: &Timed<'_>) -> Result<Vec<Metric>, String> {
    let [per_s, p50, p90] = timings(&t.units, t.units.iter().map(|u| u.wall_s))?;
    if t.science.is_empty() {
        return Err("no campaign reports to score".into());
    }
    let distinct = t
        .science
        .iter()
        .map(|r| r.distinct_discoveries as f64)
        .sum::<f64>()
        / t.science.len() as f64;
    let first_hits: Vec<f64> = t
        .science
        .iter()
        .filter_map(|r| r.time_to_first_hours)
        .collect();
    Ok(vec![
        Metric::registered("setup_s", median(&t.setup_s)),
        Metric::registered("experiments_per_s", per_s),
        Metric::registered("campaign_ms_p50", p50),
        Metric::registered("campaign_ms_p90", p90),
        Metric::registered("distinct_discoveries", distinct),
        Metric::registered("first_hit_sim_h_p50", percentile(&first_hits, 0.5)?),
        Metric::registered("peak_rss_mb", peak_rss_mb()),
    ])
}

/// The timings of [`end_to_end`] as the wall clock read them, with no
/// host-speed scaling: printed beside the result line, so the scaling
/// can be checked against the raw clock.
pub fn wall_clock(t: &Timed<'_>) -> Result<Vec<Metric>, String> {
    let [per_s, p50, p90] = timings(&t.units, t.wall_s.iter().copied())?;
    Ok(vec![
        Metric::new("wall.setup_s", median(&t.setup_wall_s), "s"),
        Metric::new("wall.experiments_per_s", per_s, "1/s"),
        Metric::new("wall.campaign_ms_p50", p50, "ms"),
        Metric::new("wall.campaign_ms_p90", p90, "ms"),
    ])
}

/// Experiments per second, and the p50 and p90 of milliseconds per
/// campaign, of `units` that took `secs` each.
fn timings(units: &[UnitSample], secs: impl Iterator<Item = f64>) -> Result<[f64; 3], String> {
    let (mut experiments, mut total_s) = (0u64, 0.0);
    let mut per_campaign_ms = Vec::with_capacity(units.len());
    for (u, s) in units.iter().zip(secs) {
        experiments += u.experiments;
        total_s += s;
        per_campaign_ms.push(1e3 * s / u.campaigns.max(1) as f64);
    }
    Ok([
        experiments as f64 / total_s,
        percentile(&per_campaign_ms, 0.5)?,
        percentile(&per_campaign_ms, 0.9)?,
    ])
}

/// What a workload run hands to `main` for printing.
pub struct Outcome {
    /// Units of work attempted (campaigns, cycles, sessions, checks).
    pub attempted: u64,
    /// Attempted units whose call returned `Err` or whose output check
    /// failed. A refusal under quota is policy, not failure.
    pub failed: u64,
    /// The metrics of the final JSON line: exactly [`END_TO_END`] for a
    /// timed run, exactly [`PER_LAYER`] for a traced one.
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics, printed but not in the JSON line.
    pub extra: Vec<Metric>,
    /// Free-form lines (digests, trace summaries) printed before the
    /// metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Failed operations out of attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Check that a run reports exactly the registered metrics for its mode,
/// in registry order, each under a valid name and a finite value.
pub fn check_metric_set(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let expected = if trace { PER_LAYER } else { END_TO_END };
    let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    if got != want {
        return Err(format!("reported metrics {got:?}, expected {want:?}"));
    }
    for m in metrics {
        if !valid_name(m.name) || !m.value.is_finite() {
            return Err(format!("metric {} = {} is not reportable", m.name, m.value));
        }
    }
    Ok(())
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(out.failed == 0)),
        ("attempted".into(), Value::U64(out.attempted)),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:")
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(f64::NAN)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User plus system CPU seconds this process has used, all threads,
/// from `/proc/self/stat` (Linux clock ticks at `USER_HZ` = 100).
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / 100.0,
        _ => f64::NAN,
    }
}

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `nproc`, compiler, target and CPU model: numbers from different host
/// classes are never compared.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host nproc={} rustc=\"{}\" target={} cpu=\"{}\"",
        nproc(),
        env!("EVOBENCH_RUSTC"),
        env!("EVOBENCH_TARGET"),
        cpu
    )
}

/// Wall and process-CPU clocks started together: CPU-seconds ÷
/// wall-seconds over a window witnesses descheduling (a single-threaded
/// run that reads well under 1.0 was starved, not slow).
pub struct NoiseWitness {
    wall: Instant,
    cpu_s: f64,
}

impl NoiseWitness {
    /// Start both clocks.
    pub fn start() -> NoiseWitness {
        NoiseWitness {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// CPU-seconds ÷ wall-seconds since [`start`](Self::start).
    pub fn ratio(&self) -> f64 {
        (process_cpu_s() - self.cpu_s) / self.wall.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn name_rule_refuses_bad_names() {
        assert!(valid_name("surrogate.score_ns_per_pair"));
        assert!(valid_name("1st-pass.ok"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/inside"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&ninety_nine, 0.9).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let twenty: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Ok(10.0));
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&nineteen, 0.5).is_err());
    }

    #[test]
    fn scaling_divides_out_the_bracketing_kernel_median() {
        // Kernel runs 0..8: the host is twice as slow from run 4 on.
        let r = 100e-6;
        let kernel: Vec<f64> = (0..8).map(|i| if i < 4 { 1.0 } else { 2.0 } * r).collect();
        // Early unit: window runs 0..5 has median 1x.
        assert_eq!(scale_at(&kernel, 1, 0.5, r), 0.5);
        // Late unit: window runs 3..8 has median 2x, so half the wall.
        assert_eq!(scale_at(&kernel, 7, 0.5, r), 0.25);
        // Mark 4 brackets four runs at each speed: the median is 1.5x.
        assert!((scale_at(&kernel, 4, 0.3, r) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unit_runs_fold_to_each_units_lower_quartile() {
        let mut speed = HostSpeed::new(Kernel::Chase);
        let marks: Vec<usize> = (0..5).map(|_| speed.mark()).collect();
        let mut runs = UnitRuns::default();
        for (k, secs) in [0.3, 0.1, 0.2].into_iter().enumerate() {
            runs.push(0, marks[k], secs);
        }
        runs.push(2, marks[0], 0.4);
        for (k, secs) in [0.5, 0.9, 0.6, 0.8, 0.7].into_iter().enumerate() {
            runs.push(3, marks[k], secs);
        }
        assert_eq!(runs.wall_s(), vec![Some(0.1), None, Some(0.4), Some(0.6)]);
        let reference = runs.reference_s(&speed);
        assert!(reference[0].is_some_and(|s| s.is_finite() && s > 0.0));
        assert_eq!(reference[1], None);
    }

    #[test]
    fn both_kernels_run_and_time() {
        for kernel in [Kernel::Rbf, Kernel::Chase] {
            let mut speed = HostSpeed::new(kernel);
            assert_eq!((speed.mark(), speed.mark()), (1, 2));
            assert!(speed.kernel_s.iter().all(|s| *s > 0.0), "{kernel:?}");
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_set_must_match_the_registry() {
        let e2e: Vec<Metric> = END_TO_END
            .iter()
            .map(|(n, _)| Metric::registered(n, 1.0))
            .collect();
        assert!(check_metric_set(&e2e, false).is_ok());
        assert!(check_metric_set(&e2e, true).is_err());
        assert!(check_metric_set(&e2e[1..], false).is_err());
        let mut bad = e2e.clone();
        bad[0].value = f64::NAN;
        assert!(check_metric_set(&bad, false).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::registered("setup_s", 0.25)],
            extra: Vec::new(),
            notes: Vec::new(),
        };
        let v: Value = serde_json::from_str(&result_line(&out)).expect("valid JSON");
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }
}
