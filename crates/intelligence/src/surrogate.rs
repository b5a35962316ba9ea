//! RBF surrogate model + Bayesian optimization (expected improvement).
//!
//! This is the "ML-guided parameter selection" → "automated tuning" pair of
//! §3.2's existing-system mapping: a cheap model of an expensive objective,
//! plus an acquisition loop that balances exploration and exploitation —
//! `δ* = argmin_δ J(δ)` made concrete.
//!
//! The surrogate is the innermost kernel of the campaign propose path
//! (every surrogate-backed planner scores tens of candidates against
//! hundreds of observations per proposal), so its layout is tuned for
//! that loop:
//!
//! * **Contiguous flat storage.** Observations live in one stride-`dim`
//!   `Vec<f64>` instead of a `Vec<Vec<f64>>` — one allocation that grows
//!   amortized, no pointer chase per observation when scanning.
//! * **Cached incumbent.** [`observe`](RbfSurrogate::observe) maintains
//!   the best index as observations arrive, so
//!   [`best`](RbfSurrogate::best) and every [`acquisition`] call are
//!   O(1) instead of rescanning all values per candidate.
//! * **Batched scoring.** [`score_batch_with`](RbfSurrogate::score_batch_with)
//!   scores a whole candidate pool in one pass over the observations
//!   with reused scratch buffers, preserving the exact float-op order of
//!   the naive per-candidate path — predictions are bit-identical, which
//!   the [`mod@reference`] module and `bench_propose` gate.
//! * **Certified argmax.** A planner only needs the *index* of the best
//!   candidate, so [`argmax_acquisition`](RbfSurrogate::argmax_acquisition)
//!   returns exactly the index a strict-`>` scan over
//!   [`score_batch_with`](RbfSurrogate::score_batch_with) picks, but calls
//!   libm `exp` only for candidates that can still win. A filter pass
//!   computes each candidate's exact `d2`, `min_d2` and uncertainty, and
//!   approximate kernel weights `w̃ᵢ = max(exp_approx(xᵢ), 1e-300)` from a
//!   branch-free polynomial that vectorizes. Its approximate score `s̃`
//!   differs from the exact score `s` by at most a bound `B`, built from
//!   four terms (`m` observations with values `vᵢ`, `V = max|vᵢ|`,
//!   `u = 2^-53`, `γₙ = n·u / (1 − n·u)`):
//!   1. *Weights.* `exp_approx` is within ε/10 of `f64::exp` (ε =
//!      `EXP_APPROX_EPS`; the Taylor remainder is under 7.4e-9, and a
//!      unit test sweeps it). Its argument `d2·(−1/2h²)` differs from the
//!      exact `−d2/(2h²)` by at most 3u·|x| ≤ 3u·708, under 3e-13 in
//!      `e^x`. The `1e-300` floor is monotone, so it keeps a relative
//!      error. Hence `w̃ᵢ = wᵢ(1 + δᵢ)` with `|δᵢ| ≤ ε`.
//!   2. *Mean, in real arithmetic.* Both means are convex combinations
//!      of the `vᵢ`. Each normalised weight moves by the factor
//!      `(1 + δᵢ)/(1 + δ̄)`, so by at most `2ε/(1 − ε)` relative. Centred
//!      on `c = (max v + min v)/2` this gives
//!      `|μ̃ − μ| = |Σ (α̃ᵢ − αᵢ)(vᵢ − c)| ≤ ε/(1 − ε)·(max v − min v)`.
//!   3. *Rounding of the sums.* Summing `m` weights and `m` products and
//!      dividing puts each path's computed mean within `2γ_{m+2}·V` of
//!      its real mean, so `4γ_{m+2}·V` for the pair. A product `w·v` that
//!      underflows loses at most 2^-1075, against a weight sum of at
//!      least `m·1e-300`: `UNDERFLOW_SLACK` covers it.
//!   4. *Finishing ops.* `κ·unc` is bit-identical in both paths.
//!      `incumbent − mean`, the final add, and the pruning comparisons'
//!      `s̃ ± B` round once each, on operands below `2V + |κ|`:
//!      `16u·(2V + |κ|)` covers all of them.
//!
//!   A candidate `j` with `s̃ⱼ + B < max_k(s̃ₖ − B)` has
//!   `sⱼ ≤ s̃ⱼ + B < s̃ₖ − B ≤ sₖ`. It is strictly below another
//!   candidate's exact score, so it can neither win nor tie, and is
//!   pruned. The candidate `k` at the maximum always survives. So the
//!   first maximum over the survivors, in index order, is the first
//!   maximum over the pool. A lone survivor is returned without
//!   re-scoring. Several are re-scored by the exact path. If
//!   `2(m + 2)·V` or `κ` is not finite, `B` is infinite (a sum could
//!   overflow), and any non-finite `s̃` voids the filter too: then the
//!   whole pool gets the exact scan. Correctness needs `B` to be a
//!   valid bound, never a tight one. A loose `B` only costs re-scoring.

use crate::objective::Objective;
use evoflow_sim::SimRng;
use serde::{Deserialize, Serialize};

pub mod reference;

/// Reusable per-candidate accumulators for
/// [`RbfSurrogate::score_batch_with`] /
/// [`RbfSurrogate::predict_batch_with`]. One instance can be shared by
/// every surrogate in a planner pool — the buffers are resized to the
/// candidate count on each call and carry no state between calls.
///
/// [`RbfSurrogate::argmax_acquisition`] reuses the same accumulators
/// for its filter pass and keeps its own candidate columns and scores
/// here too, so a propose loop allocates nothing per call. The one
/// thing read back after a call is its survivor count.
#[derive(Debug, Clone, Default)]
pub struct AccScratch {
    wsum: Vec<f64>,
    vsum: Vec<f64>,
    min_d2: Vec<f64>,
    /// Candidate coordinates transposed to one contiguous column per
    /// dimension (the filter's SoA layout).
    cols: Vec<f64>,
    /// Per-candidate squared distance to the current observation.
    d2: Vec<f64>,
    /// Per-candidate approximate acquisition score.
    approx: Vec<f64>,
    /// Candidates the last `argmax_acquisition` call could not prune.
    survivors: usize,
}

impl AccScratch {
    /// Reset the accumulators for `n` candidates.
    fn reset(&mut self, n: usize) {
        self.wsum.clear();
        self.wsum.resize(n, 0.0);
        self.vsum.clear();
        self.vsum.resize(n, 0.0);
        self.min_d2.clear();
        self.min_d2.resize(n, f64::INFINITY);
    }

    /// How many candidates the last
    /// [`RbfSurrogate::argmax_acquisition`] call kept as possible
    /// winners: 1 when the filter alone settled the argmax, the whole
    /// pool when it fell back to the exact scan.
    pub fn survivors(&self) -> usize {
        self.survivors
    }
}

/// Full scoring scratch for a propose loop: candidate buffer, score
/// buffer, and the accumulator set, all reused across iterations. A
/// planner pool (e.g. `MetaPlanner`'s surrogate-backed children) can
/// share one behind an `Rc<RefCell<_>>` — proposals are sequential
/// within a campaign, and every call resizes the buffers it uses.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    /// Flat stride-`dim` candidate coordinates.
    pub candidates: Vec<f64>,
    /// One acquisition score (or prediction slot) per candidate.
    pub scores: Vec<f64>,
    /// Per-candidate accumulators for the batched kernels.
    pub acc: AccScratch,
}

/// A Gaussian-kernel RBF regressor with Nadaraya–Watson weighting.
///
/// Chosen over full kriging because it needs no linear solves (no external
/// linear-algebra dependency) while still giving smooth interpolation and a
/// distance-based uncertainty proxy — all BO here needs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RbfSurrogate {
    /// Flat observation coordinates, stride [`dim`](Self::dim).
    points: Vec<f64>,
    values: Vec<f64>,
    /// Coordinates per observation (fixed by the first `observe`).
    dim: usize,
    /// Cached incumbent: index of the first minimal value, maintained by
    /// `observe` so `best` never rescans.
    best_idx: Option<usize>,
    /// Kernel bandwidth.
    pub bandwidth: f64,
}

impl RbfSurrogate {
    /// Create an empty surrogate with the given kernel bandwidth.
    pub fn new(bandwidth: f64) -> Self {
        RbfSurrogate {
            points: Vec::new(),
            values: Vec::new(),
            dim: 0,
            best_idx: None,
            bandwidth: bandwidth.max(1e-6),
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the surrogate has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `i`-th observed point.
    fn point(&self, i: usize) -> &[f64] {
        &self.points[i * self.dim..(i + 1) * self.dim]
    }

    /// Add an observation.
    ///
    /// Non-finite coordinates or values are rejected (with a debug
    /// assertion): a NaN observation would poison the cached incumbent
    /// and make every downstream comparison lie. Points whose
    /// dimensionality differs from the first observation's are rejected
    /// the same way — flat storage is stride-`dim` by construction.
    pub fn observe(&mut self, x: &[f64], y: f64) {
        let finite = y.is_finite() && x.iter().all(|v| v.is_finite());
        debug_assert!(finite, "non-finite observation ({x:?}, {y})");
        if !finite {
            return;
        }
        if self.values.is_empty() {
            self.dim = x.len();
        } else if x.len() != self.dim {
            // Flat storage is stride-`dim`; points of any other length
            // cannot be stored. Dropped silently (not asserted): test
            // fixtures legitimately mix literature-bootstrap dims with
            // a smaller probe dim, and the old nested storage merely
            // zip-truncated such points into noise anyway.
            return;
        }
        self.points.extend_from_slice(x);
        self.values.push(y);
        let idx = self.values.len() - 1;
        // First minimal value wins ties, matching a front-to-back scan.
        if self.best_idx.map(|b| y < self.values[b]).unwrap_or(true) {
            self.best_idx = Some(idx);
        }
    }

    /// Best (lowest) observed value, if any. O(1) — the incumbent is
    /// maintained by [`observe`](Self::observe) — and total: only finite
    /// values are ever stored, so no comparison can fail.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        let idx = self.best_idx?;
        Some((self.point(idx), self.values[idx]))
    }

    /// The incumbent value with the empty-surrogate default the
    /// acquisition uses.
    fn incumbent(&self) -> f64 {
        self.best_idx.map(|b| self.values[b]).unwrap_or(0.0)
    }

    fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum()
    }

    /// Predict `(mean, uncertainty)` at `x`. Uncertainty is a distance-to-
    /// data proxy in \[0,1\]: 0 on top of data, →1 far from all data.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        if self.values.is_empty() {
            return (0.0, 1.0);
        }
        let h2 = self.bandwidth * self.bandwidth;
        let mut wsum = 0.0;
        let mut vsum = 0.0;
        let mut min_d2 = f64::INFINITY;
        for (i, v) in self.values.iter().enumerate() {
            let d2 = Self::sq_dist(self.point(i), x);
            min_d2 = min_d2.min(d2);
            let w = (-d2 / (2.0 * h2)).exp().max(1e-300);
            wsum += w;
            vsum += w * v;
        }
        let mean = vsum / wsum;
        let uncertainty = 1.0 - (-min_d2 / (2.0 * h2)).exp();
        (mean, uncertainty)
    }

    /// [`predict`](Self::predict) for a flat stride-`dim` candidate
    /// buffer in one pass over the observations, appending one
    /// `(mean, uncertainty)` pair per candidate to `out`.
    ///
    /// The accumulation visits observations in storage order for every
    /// candidate — exactly the order the naive per-candidate loop uses —
    /// so results are bit-identical to calling `predict` per candidate.
    pub fn predict_batch_with(
        &self,
        dim: usize,
        candidates: &[f64],
        scratch: &mut AccScratch,
        out: &mut Vec<(f64, f64)>,
    ) {
        let n = self.accumulate(dim, candidates, scratch);
        let h2 = self.bandwidth * self.bandwidth;
        for j in 0..n {
            if self.values.is_empty() {
                out.push((0.0, 1.0));
            } else {
                let mean = scratch.vsum[j] / scratch.wsum[j];
                let uncertainty = 1.0 - (-scratch.min_d2[j] / (2.0 * h2)).exp();
                out.push((mean, uncertainty));
            }
        }
    }

    /// Score a flat stride-`dim` candidate buffer under the
    /// exploration-weighted [`acquisition`], one score per candidate
    /// appended to `out`, in a single cache-friendly pass over the
    /// observations with reused scratch buffers.
    ///
    /// Bit-identical to calling [`acquisition`] per candidate (gated by
    /// `bench_propose` and the `surrogate_equivalence` battery): the
    /// per-candidate accumulators see observations in the same order and
    /// the finishing ops are identical, and the incumbent is the cached
    /// O(1) one.
    pub fn score_batch_with(
        &self,
        dim: usize,
        candidates: &[f64],
        kappa: f64,
        scratch: &mut AccScratch,
        out: &mut Vec<f64>,
    ) {
        let n = self.accumulate(dim, candidates, scratch);
        let h2 = self.bandwidth * self.bandwidth;
        let incumbent = self.incumbent();
        for j in 0..n {
            let (mean, unc) = if self.values.is_empty() {
                (0.0, 1.0)
            } else {
                let mean = scratch.vsum[j] / scratch.wsum[j];
                let unc = 1.0 - (-scratch.min_d2[j] / (2.0 * h2)).exp();
                (mean, unc)
            };
            out.push((incumbent - mean) + kappa * unc);
        }
    }

    /// [`score_batch_with`](Self::score_batch_with) with a throwaway
    /// scratch, for callers outside the hot loop.
    pub fn score_batch(&self, dim: usize, candidates: &[f64], kappa: f64, out: &mut Vec<f64>) {
        let mut scratch = AccScratch::default();
        self.score_batch_with(dim, candidates, kappa, &mut scratch, out);
    }

    /// The index [`score_batch_with`](Self::score_batch_with)'s first
    /// maximal score would pick (a strict-`>` scan from index 0; 0 for
    /// an empty pool), computed without scoring every candidate
    /// exactly. See the module docs' *certified argmax* for the bound
    /// that makes this exact.
    ///
    /// A filter pass scores the pool with `exp_approx` weights and
    /// prunes every candidate whose score, even at the top of its error
    /// band, falls below another candidate's at the bottom of its band.
    /// A lone survivor is the answer; several are re-scored exactly by
    /// [`acquisition`] in index order. A non-finite bound or approximate
    /// score keeps the whole pool, which then gets the full exact scan.
    /// [`AccScratch::survivors`] reports how many candidates survived.
    pub fn argmax_acquisition(
        &self,
        dim: usize,
        candidates: &[f64],
        kappa: f64,
        scratch: &mut AccScratch,
    ) -> usize {
        let stride = dim.max(1);
        let n = candidates.len() / stride;
        if n <= 1 || self.values.is_empty() {
            // Every score of an empty surrogate is `kappa`: the first wins.
            scratch.survivors = n;
            return 0;
        }
        let bound = self.filter(dim, candidates, kappa, scratch);
        let approx = &scratch.approx;
        let certified = bound.is_finite() && approx.iter().all(|s| s.is_finite());
        // The best lower end of any candidate's band; nothing whose upper
        // end falls below it can be the argmax.
        let floor = approx
            .iter()
            .fold(f64::NEG_INFINITY, |t, s| t.max(s - bound));
        let can_win = |j: usize| !certified || approx[j] + bound >= floor;
        scratch.survivors = (0..n).filter(|&j| can_win(j)).count();
        if scratch.survivors == 1 {
            return (0..n).find(|&j| can_win(j)).expect("one survivor");
        }
        let mut best: Option<(usize, f64)> = None;
        for j in (0..n).filter(|&j| can_win(j)) {
            let s = acquisition(self, &candidates[j * stride..j * stride + dim], kappa);
            if best.is_none_or(|(_, b)| s > b) {
                best = Some((j, s));
            }
        }
        best.map_or(0, |(j, _)| j)
    }

    /// The certified argmax's filter pass: one observations-outer sweep
    /// over the candidates' SoA columns computing the exact `d2`,
    /// `min_d2` and uncertainty, but `exp_approx` kernel weights.
    /// Leaves one approximate score per candidate in `scratch.approx` and
    /// returns the bound `B` on |approximate − exact| score.
    fn filter(&self, dim: usize, candidates: &[f64], kappa: f64, scratch: &mut AccScratch) -> f64 {
        let stride = dim.max(1);
        let n = candidates.len() / stride;
        // `sq_dist` zips, so only the shared leading coordinates count.
        let kdim = dim.min(self.dim);
        scratch.reset(n);
        let AccScratch {
            wsum,
            vsum,
            min_d2,
            cols,
            d2,
            approx,
            ..
        } = scratch;
        cols.clear();
        for k in 0..kdim {
            cols.extend((0..n).map(|j| candidates[j * stride + k]));
        }
        // With no shared coordinates every `d2` stays the empty sum.
        d2.clear();
        d2.resize(n, Self::sq_dist(&[], &[]));
        let d2 = &mut d2[..];
        let h2 = self.bandwidth * self.bandwidth;
        let neg_inv_2h2 = -1.0 / (2.0 * h2);
        let (wsum, vsum, min_d2) = (&mut wsum[..n], &mut vsum[..n], &mut min_d2[..n]);
        for (i, &v) in self.values.iter().enumerate() {
            let p = self.point(i);
            // `sq_dist`'s op order: the first square, then the rest added
            // left to right (its `-0.0` sum seed leaves a square as is).
            for (k, (&pk, col)) in p.iter().zip(cols.chunks_exact(n)).enumerate() {
                if k == 0 {
                    for (d, x) in d2.iter_mut().zip(col) {
                        *d = (pk - x).powi(2);
                    }
                } else {
                    for (d, x) in d2.iter_mut().zip(col) {
                        *d += (pk - x).powi(2);
                    }
                }
            }
            let accs = min_d2.iter_mut().zip(wsum.iter_mut()).zip(vsum.iter_mut());
            for (((mn, ws), vs), &d) in accs.zip(d2.iter()) {
                // `f64::min` without its NaN fix-up, in one `minpd`: the
                // same value, as `mn` is never NaN and a NaN `d` keeps it.
                *mn = if d < *mn { d } else { *mn };
                let w = exp_approx(d * neg_inv_2h2);
                let w = if w > 1e-300 { w } else { 1e-300 };
                *ws += w;
                *vs += w * v;
            }
        }
        let incumbent = self.incumbent();
        approx.clear();
        approx.extend((0..n).map(|j| {
            let mean = vsum[j] / wsum[j];
            let unc = 1.0 - (-min_d2[j] / (2.0 * h2)).exp();
            (incumbent - mean) + kappa * unc
        }));
        self.score_bound(kappa)
    }

    /// The bound `B` on |approximate − exact| acquisition score, term
    /// for term as derived in the module docs. Infinite when the values
    /// are large enough for a sum to overflow, or `kappa` is not finite.
    fn score_bound(&self, kappa: f64) -> f64 {
        let (mut vmin, mut vmax) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &self.values {
            vmin = vmin.min(v);
            vmax = vmax.max(v);
        }
        let vabs = vmax.max(-vmin);
        let m = self.values.len() as f64;
        if !(2.0 * (m + 2.0) * vabs).is_finite() || !kappa.is_finite() {
            return f64::INFINITY;
        }
        let u = f64::EPSILON / 2.0;
        let gamma = (m + 2.0) * u / (1.0 - (m + 2.0) * u);
        let weights = EXP_APPROX_EPS / (1.0 - EXP_APPROX_EPS) * (vmax - vmin);
        let sums = 4.0 * gamma * vabs + UNDERFLOW_SLACK;
        let finish = 16.0 * u * (2.0 * vabs + kappa.abs());
        weights + sums + finish
    }

    /// The shared inner pass: stream the observations once, feeding every
    /// candidate's `(wsum, vsum, min_d2)` accumulators. Candidate `j`'s
    /// accumulators receive contributions in observation order whichever
    /// loop is outermost, which is what keeps the batch bit-identical to
    /// the naive path. Returns the candidate count.
    fn accumulate(&self, dim: usize, candidates: &[f64], scratch: &mut AccScratch) -> usize {
        let stride = dim.max(1);
        let n = candidates.len() / stride;
        scratch.reset(n);
        if self.values.is_empty() {
            return n;
        }
        let h2 = self.bandwidth * self.bandwidth;
        for (i, v) in self.values.iter().enumerate() {
            let p = self.point(i);
            for j in 0..n {
                let x = &candidates[j * stride..j * stride + dim];
                let d2 = Self::sq_dist(p, x);
                scratch.min_d2[j] = scratch.min_d2[j].min(d2);
                let w = (-d2 / (2.0 * h2)).exp().max(1e-300);
                scratch.wsum[j] += w;
                scratch.vsum[j] += w * v;
            }
        }
        n
    }
}

/// Relative error bound of `exp_approx` against `f64::exp` that the
/// certified argmax's bound assumes. The unit tests sweep the kernel at
/// a tenth of it; the slack covers the weight argument's own rounding.
const EXP_APPROX_EPS: f64 = 1e-7;

/// Absolute slack for products `w·v` that underflow: each loses at most
/// 2^-1075, and every weight is at least `1e-300`, so the mean moves by
/// at most 2^-1075 / 1e-300 ≈ 2.5e-24 per path.
const UNDERFLOW_SLACK: f64 = 1e-23;

/// `e^x` for `x ≤ 0` to relative error `EXP_APPROX_EPS`, without a
/// libm call or a branch, so a loop of it vectorizes. Arguments below
/// −708 are clamped there: `e^−708` is already under the `1e-300`
/// weight floor, which is all the kernel weights need.
///
/// `x = k·ln 2 + r` with `k` rounded to nearest (the 1.5·2^52 shift
/// leaves it in the low mantissa bits) and `|r| ≤ ln 2 / 2`; `e^r` is
/// its degree-7 Taylor polynomial, whose relative error is at most
/// `r^8/8! · e^|r|`, under 7.4e-9; `2^k` is built from `k`'s bits.
#[inline(always)]
fn exp_approx(x: f64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    const C: [f64; 8] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
    ];
    // `>` (not `f64::max`) maps NaN to the clamp too, in one `maxpd`.
    let x = if x > -708.0 { x } else { -708.0 };
    let t = x * std::f64::consts::LOG2_E + SHIFT;
    let k = t - SHIFT;
    // One-constant reduction: `k·ln 2` is off by under 2e-13 for
    // |k| ≤ 1022, far inside the bound.
    let r = x - k * std::f64::consts::LN_2;
    // Estrin's scheme: a short dependency chain for the out-of-order core.
    let r2 = r * r;
    let p = (C[0] + C[1] * r)
        + r2 * (C[2] + C[3] * r)
        + r2 * r2 * ((C[4] + C[5] * r) + r2 * (C[6] + C[7] * r));
    // The low 12 bits of `t`'s mantissa hold `k` mod 4096; shifted into
    // the exponent field and rebiased they make `2^k` for −1022 ≤ k ≤ 0.
    let scale = f64::from_bits((t.to_bits() << 52).wrapping_add(1023 << 52));
    p * scale
}

/// Expected-improvement-style acquisition: improvement of the predicted
/// mean over the incumbent, plus an exploration bonus proportional to
/// uncertainty. Higher is better. The incumbent is the surrogate's cached
/// one — O(1), not a rescan of every value per candidate.
pub fn acquisition(surrogate: &RbfSurrogate, x: &[f64], kappa: f64) -> f64 {
    let incumbent = surrogate.incumbent();
    let (mean, unc) = surrogate.predict(x);
    (incumbent - mean) + kappa * unc
}

/// Configuration for the Bayesian-optimization loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BoConfig {
    /// Random initial samples before the model drives.
    pub init_samples: usize,
    /// Candidate points scored per iteration.
    pub candidates_per_iter: usize,
    /// Exploration weight κ in the acquisition.
    pub kappa: f64,
    /// RBF kernel bandwidth.
    pub bandwidth: f64,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            init_samples: 8,
            candidates_per_iter: 64,
            kappa: 0.5,
            bandwidth: 0.15,
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptResult {
    /// Best point found.
    pub best_x: Vec<f64>,
    /// Best value found.
    pub best_y: f64,
    /// Objective evaluations used.
    pub evals: u64,
    /// Best-so-far trace, one entry per evaluation.
    pub trace: Vec<f64>,
}

/// Run Bayesian optimization for `budget` evaluations of `f`.
///
/// The candidate pool is drawn first (scoring consumes no randomness, so
/// the draw sequence matches the old interleaved loop) and its winner
/// picked by [`RbfSurrogate::argmax_acquisition`] with scratch reused
/// across iterations: the first maximal score, exactly as a strict-`>`
/// scan over [`RbfSurrogate::score_batch_with`] would pick it.
pub fn bayes_opt<O: Objective>(
    f: &mut O,
    budget: u64,
    cfg: BoConfig,
    rng: &mut SimRng,
) -> OptResult {
    bo_loop(f, budget, cfg, rng, RbfSurrogate::argmax_acquisition)
}

/// The [`bayes_opt`] loop with the pool's argmax as a parameter, so the
/// tests can run it against the exact scan.
fn bo_loop<O: Objective>(
    f: &mut O,
    budget: u64,
    cfg: BoConfig,
    rng: &mut SimRng,
    argmax: impl Fn(&RbfSurrogate, usize, &[f64], f64, &mut AccScratch) -> usize,
) -> OptResult {
    let dim = f.dim();
    let mut surrogate = RbfSurrogate::new(cfg.bandwidth);
    let mut trace = Vec::with_capacity(budget as usize);
    let mut best_x = vec![0.5; dim];
    let mut best_y = f64::INFINITY;
    let mut cands: Vec<f64> = Vec::new();
    let mut scratch = AccScratch::default();

    for i in 0..budget {
        let x: Vec<f64> = if (i as usize) < cfg.init_samples || surrogate.is_empty() {
            (0..dim).map(|_| rng.uniform()).collect()
        } else {
            // Draw the candidate pool (half global, half near incumbent),
            // then pick its acquisition argmax.
            let incumbent = surrogate
                .best()
                .map(|(p, _)| p)
                .expect("non-empty")
                .to_vec();
            cands.clear();
            for c in 0..cfg.candidates_per_iter.max(1) {
                if c % 2 == 0 {
                    for _ in 0..dim {
                        cands.push(rng.uniform());
                    }
                } else {
                    for v in &incumbent {
                        cands.push((v + rng.normal_with(0.0, 0.1)).clamp(0.0, 1.0));
                    }
                }
            }
            let bi = argmax(&surrogate, dim, &cands, cfg.kappa, &mut scratch);
            cands[bi * dim..(bi + 1) * dim].to_vec()
        };

        let y = f.eval(&x);
        surrogate.observe(&x, y);
        if y < best_y {
            best_y = y;
            best_x = x;
        }
        trace.push(best_y);
    }

    OptResult {
        best_x,
        best_y,
        evals: budget,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{Rastrigin, Sphere};

    #[test]
    fn surrogate_interpolates() {
        let mut s = RbfSurrogate::new(0.2);
        s.observe(&[0.0, 0.0], 1.0);
        s.observe(&[1.0, 1.0], 3.0);
        let (at_a, unc_a) = s.predict(&[0.0, 0.0]);
        assert!((at_a - 1.0).abs() < 0.05, "at_a {at_a}");
        assert!(unc_a < 0.01);
        let (_, unc_far) = s.predict(&[0.5, 0.9]);
        assert!(unc_far > unc_a);
        let (mid, _) = s.predict(&[0.5, 0.5]);
        assert!(mid > 1.0 && mid < 3.0);
    }

    #[test]
    fn empty_surrogate_is_maximally_uncertain() {
        let s = RbfSurrogate::new(0.2);
        assert_eq!(s.predict(&[0.3]), (0.0, 1.0));
        assert!(s.best().is_none());
    }

    #[test]
    fn cached_incumbent_tracks_first_minimum() {
        let mut s = RbfSurrogate::new(0.2);
        s.observe(&[0.1], 2.0);
        s.observe(&[0.2], 1.0);
        s.observe(&[0.3], 1.0); // tie: first minimum keeps the incumbency
        s.observe(&[0.4], 5.0);
        let (p, v) = s.best().expect("non-empty");
        assert_eq!((p, v), (&[0.2][..], 1.0));
    }

    #[test]
    fn best_is_total_when_nan_was_observed() {
        // The old implementation panicked in `best()` via
        // `.expect("finite values")`; now the poison is rejected at the
        // door and every query stays total.
        let mut s = RbfSurrogate::new(0.2);
        s.observe(&[0.5], 1.0);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s2 = s.clone();
            s2.observe(&[0.6], f64::NAN);
            s2.observe(&[f64::INFINITY], 0.1);
            s2.observe(&[0.7], f64::NEG_INFINITY);
            s2
        }));
        // Debug builds assert; release builds reject silently. Either
        // way a surrogate that saw NaN input keeps answering.
        if let Ok(s2) = poisoned {
            assert_eq!(s2.len(), 1);
            let (p, v) = s2.best().expect("finite observation retained");
            assert_eq!((p, v), (&[0.5][..], 1.0));
            assert!(s2.predict(&[0.5]).0.is_finite());
        }
        assert_eq!(s.best().map(|(_, v)| v), Some(1.0));
    }

    #[test]
    fn score_batch_matches_per_candidate_acquisition() {
        let mut s = RbfSurrogate::new(0.15);
        let mut rng = SimRng::from_seed_u64(5);
        for _ in 0..40 {
            let x = [rng.uniform(), rng.uniform(), rng.uniform()];
            s.observe(&x, rng.uniform() * 4.0 - 2.0);
        }
        let dim = 3;
        let cands: Vec<f64> = (0..32 * dim).map(|_| rng.uniform()).collect();
        let mut batch = Vec::new();
        s.score_batch(dim, &cands, 0.6, &mut batch);
        assert_eq!(batch.len(), 32);
        for (j, b) in batch.iter().enumerate() {
            let naive = acquisition(&s, &cands[j * dim..(j + 1) * dim], 0.6);
            assert_eq!(naive.to_bits(), b.to_bits(), "candidate {j}");
        }
        // Empty surrogate: acquisition degenerates to kappa.
        let empty = RbfSurrogate::new(0.15);
        let mut out = Vec::new();
        empty.score_batch(dim, &cands[..dim], 0.6, &mut out);
        assert_eq!(out, vec![0.6]);
    }

    /// The reference argmax: exact scores, strict-`>` scan from index 0.
    fn exact_argmax(
        s: &RbfSurrogate,
        dim: usize,
        cands: &[f64],
        kappa: f64,
        scratch: &mut AccScratch,
    ) -> usize {
        let mut scores = Vec::new();
        s.score_batch_with(dim, cands, kappa, scratch, &mut scores);
        let mut bi = 0;
        for (j, v) in scores.iter().enumerate().skip(1) {
            if *v > scores[bi] {
                bi = j;
            }
        }
        bi
    }

    #[test]
    fn exp_approx_is_within_a_tenth_of_its_bound() {
        // Dense sweep of [-745, 0]: the raw relative error wherever
        // `f64::exp` is normal, and the floored kernel weights (what the
        // argmax bound uses) everywhere, subnormal tail included.
        let tol = EXP_APPROX_EPS / 10.0;
        let steps = 2_000_000;
        let mut worst = 0.0f64;
        for i in 0..=steps {
            let x = -745.0 * i as f64 / steps as f64;
            let (a, e) = (exp_approx(x), x.exp());
            if x >= -708.0 {
                worst = worst.max((a - e).abs() / e);
            }
            let (wa, we) = (a.max(1e-300), e.max(1e-300));
            assert!((wa - we).abs() <= tol * we, "x {x}: {wa} vs {we}");
        }
        assert!(worst <= tol, "worst relative error {worst}");
        assert_eq!(exp_approx(0.0), 1.0);
        assert_eq!(exp_approx(-0.0), 1.0);
        assert_eq!(exp_approx(f64::NAN), exp_approx(-708.0));
        assert_eq!(exp_approx(f64::NEG_INFINITY), exp_approx(-708.0));
    }

    #[test]
    fn filter_scores_stay_within_the_bound() {
        // The bound must cover the actual gap on every candidate, and
        // still be small enough to prune.
        let mut rng = SimRng::from_seed_u64(77);
        let mut scratch = AccScratch::default();
        for (case, &(m, scale, bw)) in [
            (1usize, 1.0, 0.12),
            (40, 1.0, 0.05),
            (300, 1e3, 0.3),
            (800, 1.0, 0.12),
            (1200, 1e6, 0.7),
        ]
        .iter()
        .enumerate()
        {
            let dim = 1 + case % 4;
            let mut s = RbfSurrogate::new(bw);
            for _ in 0..m {
                let x: Vec<f64> = (0..dim).map(|_| rng.uniform()).collect();
                s.observe(&x, (rng.uniform() * 2.0 - 1.0) * scale);
            }
            let cands: Vec<f64> = (0..48 * dim).map(|_| rng.uniform() * 1.2 - 0.1).collect();
            let bound = s.filter(dim, &cands, 0.6, &mut scratch);
            let mut exact = Vec::new();
            s.score_batch(dim, &cands, 0.6, &mut exact);
            for (j, (a, e)) in scratch.approx.iter().zip(&exact).enumerate() {
                assert!(
                    (a - e).abs() <= bound,
                    "case {case} cand {j}: {a} vs {e}, B {bound}"
                );
            }
            assert!(bound <= 1e-6 * scale.max(1.0), "case {case}: B {bound}");
        }
    }

    #[test]
    fn argmax_acquisition_matches_exact_scan_and_prunes() {
        let mut s = RbfSurrogate::new(0.12);
        let mut rng = SimRng::from_seed_u64(21);
        let dim = 3;
        let mut scratch = AccScratch::default();
        let mut pruned_to_one = 0;
        for round in 0..60 {
            for _ in 0..10 {
                let x = [rng.uniform(), rng.uniform(), rng.uniform()];
                s.observe(&x, rng.uniform() * 2.0 - 1.0);
            }
            let cands: Vec<f64> = (0..48 * dim).map(|_| rng.uniform()).collect();
            let fast = s.argmax_acquisition(dim, &cands, 0.6, &mut scratch);
            pruned_to_one += usize::from(scratch.survivors() == 1);
            assert_eq!(
                fast,
                exact_argmax(&s, dim, &cands, 0.6, &mut scratch),
                "round {round}"
            );
        }
        // The filter is far tighter than the score gaps on such pools.
        assert!(pruned_to_one >= 55, "only {pruned_to_one} of 60");
        // Empty pools and empty surrogates pick index 0.
        assert_eq!(s.argmax_acquisition(dim, &[], 0.6, &mut scratch), 0);
        let empty = RbfSurrogate::new(0.12);
        assert_eq!(
            empty.argmax_acquisition(dim, &[0.1; 6], 0.6, &mut scratch),
            0
        );
        // Zero-width points (`sq_dist` of nothing): every `d2` is the
        // empty sum, so the weights tie and the uncertainty decides.
        let mut flat = RbfSurrogate::new(0.12);
        flat.observe(&[], 1.0);
        flat.observe(&[], -2.0);
        let fast = flat.argmax_acquisition(0, &[0.0; 5], 0.6, &mut scratch);
        assert_eq!(fast, exact_argmax(&flat, 0, &[0.0; 5], 0.6, &mut scratch));
        // A non-finite kappa voids the bound: the exact scan decides.
        let cands: Vec<f64> = (0..8 * dim).map(|_| rng.uniform()).collect();
        let fast = s.argmax_acquisition(dim, &cands, f64::NAN, &mut scratch);
        assert_eq!(scratch.survivors(), 8);
        assert_eq!(fast, exact_argmax(&s, dim, &cands, f64::NAN, &mut scratch));
    }

    #[test]
    fn bayes_opt_trace_matches_the_exact_argmax_loop() {
        for (seed, budget) in [(10u64, 60u64), (12, 90), (31, 120)] {
            let cfg = BoConfig::default();
            let fast = bayes_opt(
                &mut Rastrigin::new(3),
                budget,
                cfg,
                &mut SimRng::from_seed_u64(seed),
            );
            let exact = bo_loop(
                &mut Rastrigin::new(3),
                budget,
                cfg,
                &mut SimRng::from_seed_u64(seed),
                exact_argmax,
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast.trace), bits(&exact.trace), "seed {seed}");
            assert_eq!(bits(&fast.best_x), bits(&exact.best_x), "seed {seed}");
            assert_eq!(fast.best_y.to_bits(), exact.best_y.to_bits());
        }
    }

    #[test]
    fn acquisition_prefers_unexplored_when_kappa_high() {
        let mut s = RbfSurrogate::new(0.1);
        s.observe(&[0.5, 0.5], 1.0);
        let near = acquisition(&s, &[0.5, 0.5], 2.0);
        let far = acquisition(&s, &[0.05, 0.95], 2.0);
        assert!(far > near, "far {far} near {near}");
    }

    #[test]
    fn bo_beats_random_on_sphere() {
        let mut rng = SimRng::from_seed_u64(10);
        let mut f = Sphere::new(3);
        let bo = bayes_opt(&mut f, 60, BoConfig::default(), &mut rng);

        // Pure random baseline with the same budget and a fresh stream.
        let mut rng2 = SimRng::from_seed_u64(11);
        let mut f2 = Sphere::new(3);
        let mut best_rand = f64::INFINITY;
        for _ in 0..60 {
            let x: Vec<f64> = (0..3).map(|_| rng2.uniform()).collect();
            best_rand = best_rand.min(f2.eval(&x));
        }
        assert!(
            bo.best_y < best_rand,
            "bo {:.4} vs random {:.4}",
            bo.best_y,
            best_rand
        );
        assert_eq!(bo.evals, 60);
        assert_eq!(bo.trace.len(), 60);
    }

    #[test]
    fn bo_trace_is_monotone_nonincreasing() {
        let mut rng = SimRng::from_seed_u64(12);
        let mut f = Rastrigin::new(2);
        let r = bayes_opt(&mut f, 40, BoConfig::default(), &mut rng);
        for w in r.trace.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}
