//! Bit-identity battery for the optimized surrogate hot path.
//!
//! The flat-storage [`RbfSurrogate`] (stride-`dim` points, cached
//! incumbent, batched accumulator kernels) must be *bit-identical* —
//! `f64::to_bits` equality, not epsilon-close — to the retained
//! [`NaiveRbfSurrogate`] reference (nested `Vec<Vec<f64>>` storage,
//! full-rescan incumbent, per-candidate loops) on every observable:
//! `predict`, `best`, and the acquisition score, over arbitrary
//! observation sets including extreme-magnitude floats, signed zeros,
//! dimension-drifting points (both sides drop them), and degenerate
//! empty / single-point surrogates.
//!
//! The certified [`RbfSurrogate::argmax_acquisition`] must pick exactly
//! the index a strict-`>` scan over the reference's acquisition scores
//! picks, ties and all.

use evoflow_learn::{acquisition, AccScratch, NaiveRbfSurrogate, RbfSurrogate};
use proptest::prelude::*;

/// Finite floats spanning the interesting range: the unit-ish cube the
/// campaigns live in (listed thrice to dominate the union), large
/// magnitudes that overflow `exp` into the `1e-300` weight floor, and
/// subnormal-adjacent tinies.
fn finite_extreme() -> BoxedStrategy<f64> {
    prop_oneof![
        -1.5f64..1.5,
        -1.5f64..1.5,
        -1.5f64..1.5,
        -1e6f64..1e6,
        Just(1e300),
        Just(-1e300),
        Just(1e-300),
        Just(-1e-300),
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN),
    ]
    .boxed()
}

fn pair_bits(p: (f64, f64)) -> (u64, u64) {
    (p.0.to_bits(), p.1.to_bits())
}

fn best_bits(b: Option<(&[f64], f64)>) -> Option<(Vec<u64>, u64)> {
    b.map(|(x, y)| (x.iter().map(|v| v.to_bits()).collect(), y.to_bits()))
}

/// Assert every observable of the pair agrees bit-for-bit on a query
/// pool: `best`, per-candidate `predict`, batched predict, batched
/// scores, the throwaway-scratch batch, and the free `acquisition`.
fn assert_identical(
    fast: &RbfSurrogate,
    naive: &NaiveRbfSurrogate,
    dim: usize,
    queries: &[Vec<f64>],
    kappa: f64,
    scratch: &mut AccScratch,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.len(), naive.len());
    prop_assert_eq!(best_bits(fast.best()), best_bits(naive.best()));

    let mut flat = Vec::with_capacity(queries.len() * dim);
    for q in queries {
        flat.extend_from_slice(q);
    }
    let mut preds = Vec::new();
    fast.predict_batch_with(dim, &flat, scratch, &mut preds);
    let mut scores = Vec::new();
    fast.score_batch_with(dim, &flat, kappa, scratch, &mut scores);
    let mut scores_throwaway = Vec::new();
    fast.score_batch(dim, &flat, kappa, &mut scores_throwaway);

    for (j, q) in queries.iter().enumerate() {
        prop_assert_eq!(pair_bits(fast.predict(q)), pair_bits(naive.predict(q)));
        prop_assert_eq!(pair_bits(preds[j]), pair_bits(naive.predict(q)));
        let ns = naive.acquisition(q, kappa).to_bits();
        prop_assert_eq!(scores[j].to_bits(), ns);
        prop_assert_eq!(scores_throwaway[j].to_bits(), ns);
        prop_assert_eq!(acquisition(fast, q, kappa).to_bits(), ns);
    }
    Ok(())
}

/// Observation values: unit-ish, up to ±1e6, and a handful of repeated
/// values (flat stretches of a landscape).
fn observed_value() -> BoxedStrategy<f64> {
    prop_oneof![
        -1.5f64..1.5,
        -1e6f64..1e6,
        (0usize..4).prop_map(|v| v as f64 - 1.5),
    ]
    .boxed()
}

/// Coordinates: mostly near the unit cube, sometimes far outside it.
fn coordinate() -> BoxedStrategy<f64> {
    prop_oneof![-0.2f64..1.2, -0.2f64..1.2, -0.2f64..1.2, -1e3f64..1e3].boxed()
}

/// The reference argmax: the naive surrogate's acquisition per
/// candidate, strict-`>` scan from index 0.
fn naive_argmax(naive: &NaiveRbfSurrogate, dim: usize, pool: &[f64], kappa: f64) -> usize {
    let scores: Vec<f64> = pool
        .chunks(dim)
        .map(|c| naive.acquisition(c, kappa))
        .collect();
    let mut bi = 0;
    for (j, s) in scores.iter().enumerate().skip(1) {
        if *s > scores[bi] {
            bi = j;
        }
    }
    bi
}

proptest! {
    /// The certified argmax equals the naive first-maximum argmax on
    /// arbitrary surrogates (up to 1 200 observations, past the planners'
    /// 800 cap) and pools, including a candidate sitting on an
    /// observation, duplicated winners (the tie goes to the lowest
    /// index) and single-candidate pools.
    #[test]
    fn certified_argmax_is_the_naive_first_maximum(
        dim in 1usize..7,
        obs in prop::collection::vec(
            (prop::collection::vec(coordinate(), 6), observed_value()),
            0..1200,
        ),
        pool in prop::collection::vec(prop::collection::vec(coordinate(), 6), 1..64),
        on_obs in any::<usize>(),
        dup in any::<usize>(),
        bandwidth in 0.01f64..1.5,
        kappa in 0.0f64..2.0,
    ) {
        let mut fast = RbfSurrogate::new(bandwidth);
        let mut naive = NaiveRbfSurrogate::new(bandwidth);
        for (x, y) in &obs {
            fast.observe(&x[..dim], *y);
            naive.observe(&x[..dim], *y);
        }
        let mut flat: Vec<f64> = pool.iter().flat_map(|c| c[..dim].to_vec()).collect();
        let n = pool.len();
        // One candidate sits exactly on an observation (d2 = 0).
        if let Some((x, _)) = obs.get(on_obs % obs.len().max(1)) {
            let slot = on_obs % n;
            flat[slot * dim..(slot + 1) * dim].copy_from_slice(&x[..dim]);
        }
        let mut scratch = AccScratch::default();
        let check = |flat: &[f64], scratch: &mut AccScratch| -> usize {
            let want = naive_argmax(&naive, dim, flat, kappa);
            prop_assert_eq!(fast.argmax_acquisition(dim, flat, kappa, scratch), want);
            want
        };
        let winner = check(&flat, &mut scratch);
        // A single-candidate pool.
        check(&flat[..dim], &mut scratch);
        // Copy the winner to a lower index: the exact tie must go there.
        if winner > 0 {
            let slot = dup % winner;
            flat.copy_within(winner * dim..(winner + 1) * dim, slot * dim);
            prop_assert!(check(&flat, &mut scratch) <= slot);
        }
        // A pool that is one candidate repeated ties everywhere: index 0.
        let same: Vec<f64> = flat[..dim].repeat(n);
        prop_assert_eq!(check(&same, &mut scratch), 0);
    }

    /// Arbitrary observation streams keep the optimized surrogate
    /// bit-identical to the naive reference at every step — including
    /// the empty prefix, after the first point, and through extreme
    /// values and dropped dimension-drifting points.
    #[test]
    fn flat_surrogate_is_bit_identical_to_naive(
        dim in 1usize..4,
        // Coordinates are drawn at width 5 and truncated to `dim` in
        // the body (the vendored proptest has no `prop_flat_map`);
        // `drift == 0` widens a point to `dim + 1` so both sides must
        // silently drop it.
        obs in prop::collection::vec(
            (prop::collection::vec(finite_extreme(), 5), finite_extreme(), 0usize..10),
            0..24,
        ),
        queries in prop::collection::vec(prop::collection::vec(finite_extreme(), 4), 1..8),
        bandwidth in 0.01f64..1.5,
        kappa in 0.0f64..2.0,
    ) {
        let queries: Vec<Vec<f64>> = queries.iter().map(|q| q[..dim].to_vec()).collect();
        let mut fast = RbfSurrogate::new(bandwidth);
        let mut naive = NaiveRbfSurrogate::new(bandwidth);
        let mut scratch = AccScratch::default();

        // Degenerate: the empty pair must already agree everywhere.
        assert_identical(&fast, &naive, dim, &queries, kappa, &mut scratch)?;

        for (coords, y, drift) in &obs {
            let width = if *drift == 0 { dim + 1 } else { dim };
            let x = &coords[..width];
            fast.observe(x, *y);
            naive.observe(x, *y);
            // The cached incumbent must track the reference's full
            // rescan after every single observation (single-point
            // surrogates included), not just at the end.
            prop_assert_eq!(best_bits(fast.best()), best_bits(naive.best()));
        }
        assert_identical(&fast, &naive, dim, &queries, kappa, &mut scratch)?;
    }

    /// Ties on the minimum: the cached incumbent keeps the *first*
    /// minimal observation, exactly like the reference's
    /// front-to-back `min_by` rescan.
    #[test]
    fn cached_incumbent_breaks_ties_like_the_rescan(
        values in prop::collection::vec(0usize..6, 1..32),
        bandwidth in 0.05f64..1.0,
    ) {
        let mut fast = RbfSurrogate::new(bandwidth);
        let mut naive = NaiveRbfSurrogate::new(bandwidth);
        for (i, v) in values.iter().enumerate() {
            // Coarse integer-valued scores force repeated exact ties.
            let y = *v as f64 - 3.0;
            let x = [i as f64 / 32.0];
            fast.observe(&x, y);
            naive.observe(&x, y);
            prop_assert_eq!(best_bits(fast.best()), best_bits(naive.best()));
        }
    }
}

/// Exact expectations on the degenerate surrogates, beyond agreement:
/// empty predicts `(0.0, 1.0)` with score `kappa`, a single point
/// interpolates itself.
#[test]
fn degenerate_surrogates_exact_values() {
    let fast = RbfSurrogate::new(0.2);
    assert_eq!(fast.best(), None);
    assert_eq!(fast.predict(&[0.5, 0.5]), (0.0, 1.0));
    let mut scores = Vec::new();
    fast.score_batch(2, &[0.5, 0.5], 0.7, &mut scores);
    assert_eq!(scores, vec![0.7]);

    let mut fast = RbfSurrogate::new(0.2);
    let mut naive = NaiveRbfSurrogate::new(0.2);
    fast.observe(&[0.25, 0.75], -1.5);
    naive.observe(&[0.25, 0.75], -1.5);
    let (mean, unc) = fast.predict(&[0.25, 0.75]);
    assert_eq!(mean, -1.5);
    assert_eq!(unc, 0.0);
    assert_eq!(fast.best(), Some((&[0.25, 0.75][..], -1.5)));
    assert_eq!(
        fast.predict(&[0.9, 0.1]).0.to_bits(),
        naive.predict(&[0.9, 0.1]).0.to_bits()
    );
}
