//! Scaled-dot-product and multi-head attention (Eqs. 18–20 of the paper),
//! specialized for the server-side personalization aggregator.
//!
//! The aggregator treats the `K` uploaded public-critic parameter vectors as
//! a `K × P` token matrix. Each head projects the (standardized) tokens into
//! a `d_k`-dimensional subspace with seeded random projections — the
//! federated analogue of frozen `W^Q/W^K` matrices shared by server
//! configuration rather than trained, so that every round measures model
//! similarity in the *same* subspaces and the mixing weights are stable and
//! reproducible. Head outputs (the `K × K` row-stochastic score matrices)
//! are averaged, mirroring how the paper derives a single weight vector
//! `w_k` per client from the concatenated heads.

use pfrl_tensor::{init, ops, Matrix};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Configuration of the multi-head attention weight generator.
#[derive(Debug, Clone)]
pub struct MultiHeadConfig {
    /// Number of attention heads (paper default: 4).
    pub heads: usize,
    /// Per-head projection dimension `d_k`.
    pub d_k: usize,
    /// Seed for the frozen per-head projection matrices; all federation
    /// rounds of one experiment share it.
    pub seed: u64,
    /// Inverse-softmax-temperature applied to scores: larger sharpens the
    /// weight distribution toward the most similar clients.
    pub temperature: f32,
    /// Per-row score sparsification: keep only the `k` largest scores in
    /// each client's row (per head, before the softmax) and mask the rest
    /// to `-inf`, so every client mixes with at most `k` peers and the
    /// downstream mixing drops from O(K²·P) to O(K·k·P). `None` keeps the
    /// dense path. Any `k >= K` reproduces the dense weights bit-for-bit
    /// (the mask pass is skipped entirely).
    pub top_k: Option<usize>,
}

impl MultiHeadConfig {
    /// Default sparsity for large federations: each client row keeps its 8
    /// strongest peers — wide enough that the Fig. 11 twin structure (a
    /// handful of same-environment clients) survives masking, small enough
    /// that mixing cost grows linearly in K.
    pub const PAPER_TOP_K: usize = 8;
}

impl Default for MultiHeadConfig {
    fn default() -> Self {
        Self { heads: 4, d_k: 16, seed: 0x5EED_A77E, temperature: 4.0, top_k: None }
    }
}

/// Plain scaled-dot-product attention (Eq. 18):
/// `softmax(Q·Kᵀ / sqrt(d_k)) · V`. Returns `(output, weights)`.
///
/// # Panics
/// If `q.cols() != k.cols()` or `k.rows() != v.rows()`.
pub fn scaled_dot_product_attention(q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, Matrix) {
    let mut ws = AttentionWorkspace::default();
    scaled_dot_product_attention_into(q, k, v, &mut ws);
    let AttentionWorkspace { context, scores, .. } = ws;
    (context, scores)
}

/// Reusable buffers for [`scaled_dot_product_attention_into`]: the scores
/// and context matrices plus the transpose scratch of the `Q·Kᵀ` kernel.
/// One workspace cycled through same-shaped calls stops allocating after
/// the first.
#[derive(Debug, Clone, Default)]
pub struct AttentionWorkspace {
    /// Row-stochastic attention weights from the last call.
    pub scores: Matrix,
    /// Attention output (`scores · V`) from the last call.
    pub context: Matrix,
    kt_scratch: Matrix,
}

impl AttentionWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`scaled_dot_product_attention`] into a reusable workspace; results land
/// in `ws.context` / `ws.scores` and are bitwise identical to the
/// allocating form.
pub fn scaled_dot_product_attention_into(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    ws: &mut AttentionWorkspace,
) {
    assert_eq!(q.cols(), k.cols(), "attention: Q/K feature dims differ");
    assert_eq!(k.rows(), v.rows(), "attention: K/V token counts differ");
    ops::matmul_transpose_b_into(q, k, &mut ws.scores, &mut ws.kt_scratch);
    ops::scale(&mut ws.scores, 1.0 / (k.cols() as f32).sqrt());
    ops::softmax_rows(&mut ws.scores);
    ops::matmul_into(&ws.scores, v, &mut ws.context);
}

/// Standardizes one row to zero mean and unit L2 norm, in place.
///
/// Raw parameter vectors share a common initialization offset that dominates
/// dot products; removing the per-row mean and scale makes the attention
/// scores reflect the *direction* in which each critic has moved — i.e.
/// what its environment taught it.
fn standardize_row(row: &mut [f32]) {
    let mean = ops::mean(row);
    row.iter_mut().for_each(|v| *v -= mean);
    let norm = ops::dot(row, row).sqrt();
    if norm > 0.0 {
        let inv = 1.0 / norm;
        row.iter_mut().for_each(|v| *v *= inv);
    }
}

/// Masks every entry of `row` except its `keep` largest to `-inf`, so the
/// following softmax assigns them exactly `0.0` weight. Selection is a
/// linear-time partition (`select_nth_unstable_by`) on a reusable
/// `(score, column)` scratch; ties break toward the lower column index so
/// the kept set is a deterministic function of the scores alone.
fn mask_all_but_top_k(row: &mut [f32], keep: usize, sel: &mut Vec<(f32, usize)>) {
    debug_assert!(keep >= 1 && keep < row.len());
    sel.clear();
    sel.extend(row.iter().enumerate().map(|(i, &v)| (v, i)));
    sel.select_nth_unstable_by(keep - 1, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in &sel[keep..] {
        row[i] = f32::NEG_INFINITY;
    }
}

/// Per-head reusable buffers of [`AttentionScratch`]: the cached frozen
/// projection plus the projection/score/transpose/top-k scratch. Each head
/// owns its buffers so heads can run on the rayon pool without sharing
/// mutable state.
#[derive(Debug, Clone, Default)]
struct HeadScratch {
    wq: Matrix,
    q: Matrix,
    scores: Matrix,
    qt_scratch: Matrix,
    sel: Vec<(f32, usize)>,
}

/// Reusable workspace for [`multi_head_attention_weights_into`]: the token
/// matrix, one buffer set per head, and the cached frozen projections
/// (which depend only on `(seed, P, d_k)`, so steady-state rounds skip the
/// Gaussian sampling entirely). One workspace cycled through same-shaped
/// rounds stops allocating after the first.
#[derive(Debug, Clone, Default)]
pub struct AttentionScratch {
    tokens: Matrix,
    heads: Vec<HeadScratch>,
    proj_key: Option<(u64, usize, usize)>,
}

impl AttentionScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Generates the `K × K` row-stochastic attention weight matrix
/// `W^{(m)} = (w_1, …, w_K)` from `K` flat client parameter vectors
/// (Algorithm 1, line 11).
///
/// Row `k` of the result are the mixing weights for client `k`'s
/// personalized model.
///
/// # Panics
/// If `client_params` is empty or lengths disagree.
pub fn multi_head_attention_weights(client_params: &[Vec<f32>], cfg: &MultiHeadConfig) -> Matrix {
    let mut ws = AttentionScratch::default();
    let mut out = Matrix::default();
    multi_head_attention_weights_into(client_params, cfg, false, &mut ws, &mut out);
    out
}

/// [`multi_head_attention_weights`] into a reusable workspace; the weight
/// matrix lands in `out`, bitwise identical to the allocating form at any
/// `parallel` setting.
///
/// The parallel path is bit-identical to the sequential one by
/// construction: row standardization is elementwise-independent and
/// in-place; each head computes into its own `HeadScratch` with the same
/// sequential kernels either way; and head outputs are reduced into `out`
/// in fixed head order only after every head has finished. Thread count
/// therefore never changes any float operation or its order.
pub fn multi_head_attention_weights_into(
    client_params: &[Vec<f32>],
    cfg: &MultiHeadConfig,
    parallel: bool,
    ws: &mut AttentionScratch,
    out: &mut Matrix,
) {
    let k = client_params.len();
    assert!(k > 0, "attention weights need at least one client");
    if let Some(kk) = cfg.top_k {
        assert!(kk >= 1, "top_k must keep at least one score per row");
    }
    let p = client_params[0].len();
    ws.tokens.resize(k, p);
    for (i, cp) in client_params.iter().enumerate() {
        assert_eq!(cp.len(), p, "client {i} parameter length mismatch");
        ws.tokens.row_mut(i).copy_from_slice(cp);
    }
    if parallel && p > 0 {
        ws.tokens.as_mut_slice().par_chunks_mut(p).for_each(standardize_row);
    } else {
        for r in 0..k {
            standardize_row(ws.tokens.row_mut(r));
        }
    }

    let heads = cfg.heads.max(1);
    let sigma = 1.0 / (p as f32).sqrt();
    // Frozen random projections, derived per head from the seed and cached
    // across rounds. The Q and K projections are tied (W^Q_h = W^K_h): with
    // independent projections the expected score between any two tokens is
    // zero and carries no similarity signal; with tied Gaussian projections
    // of variance σ² the expected raw score is `d_k·σ²·cos(tᵢ, tⱼ)`, so
    // each head measures cosine similarity in its own random subspace.
    let proj_key = (cfg.seed, p, cfg.d_k);
    if ws.proj_key != Some(proj_key) {
        ws.heads.clear();
        ws.proj_key = Some(proj_key);
    }
    while ws.heads.len() < heads {
        let h = ws.heads.len();
        let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(h as u64));
        let wq = init::sample_gaussian(p, cfg.d_k, sigma, &mut rng);
        ws.heads.push(HeadScratch { wq, ..HeadScratch::default() });
    }

    let tokens = &ws.tokens;
    // Undo the d_k·σ² expectation factor, then apply the temperature.
    let score_scale = cfg.temperature / (cfg.d_k as f32 * sigma * sigma);
    let run_head = |hs: &mut HeadScratch| {
        ops::matmul_into(tokens, &hs.wq, &mut hs.q);
        ops::matmul_transpose_b_into(&hs.q, &hs.q, &mut hs.scores, &mut hs.qt_scratch);
        ops::scale(&mut hs.scores, score_scale);
        if let Some(keep) = cfg.top_k {
            if keep < k {
                for r in 0..k {
                    mask_all_but_top_k(hs.scores.row_mut(r), keep, &mut hs.sel);
                }
            }
        }
        // Masked entries become exp(-inf) = exact 0.0 under the max-shifted
        // softmax, so a kept entry's weight never depends on masked columns.
        ops::softmax_rows(&mut hs.scores);
    };
    if parallel {
        ws.heads[..heads].par_iter_mut().for_each(run_head);
    } else {
        ws.heads[..heads].iter_mut().for_each(run_head);
    }

    out.resize(k, k);
    out.fill_zero();
    for hs in &ws.heads[..heads] {
        ops::add_assign(out, &hs.scores);
    }
    ops::scale(out, 1.0 / heads as f32);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_sums(m: &Matrix) -> Vec<f32> {
        (0..m.rows()).map(|r| m.row(r).iter().sum()).collect()
    }

    #[test]
    fn sdpa_uniform_when_scores_equal() {
        let q = Matrix::filled(2, 4, 1.0);
        let k = Matrix::filled(3, 4, 1.0);
        let v = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let (out, w) = scaled_dot_product_attention(&q, &k, &v);
        for r in 0..2 {
            for c in 0..3 {
                assert!((w[(r, c)] - 1.0 / 3.0).abs() < 1e-5);
            }
            assert!((out[(r, 0)] - 2.0).abs() < 1e-5);
        }
    }

    #[test]
    fn sdpa_selects_matching_key() {
        // Query aligned with key 0 and orthogonal to key 1, large magnitude
        // so the softmax saturates.
        let q = Matrix::from_rows(&[&[10.0, 0.0]]);
        let k = Matrix::from_rows(&[&[10.0, 0.0], &[0.0, 10.0]]);
        let v = Matrix::from_rows(&[&[1.0], &[-1.0]]);
        let (out, w) = scaled_dot_product_attention(&q, &k, &v);
        assert!(w[(0, 0)] > 0.99, "weights {:?}", w);
        assert!(out[(0, 0)] > 0.98);
    }

    #[test]
    fn weights_are_row_stochastic() {
        let params: Vec<Vec<f32>> =
            (0..5).map(|i| (0..64).map(|j| ((i * 64 + j) as f32 * 0.37).sin()).collect()).collect();
        let w = multi_head_attention_weights(&params, &MultiHeadConfig::default());
        assert_eq!(w.shape(), (5, 5));
        for s in row_sums(&w) {
            assert!((s - 1.0).abs() < 1e-4, "row sum {s}");
        }
        assert!(w.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// The Fig. 11 property: twin clients (same environment ⇒ near-identical
    /// critics) attend to each other more than to dissimilar clients.
    #[test]
    fn twins_attend_to_each_other() {
        let mut rng = SmallRng::seed_from_u64(3);
        let base: Vec<f32> = (0..128)
            .map(|_| init::sample_uniform(1, 1, -1.0, 1.0, &mut rng).as_slice()[0])
            .collect();
        let mut twin = base.clone();
        // Small perturbation: same environment, different rollout noise.
        for v in twin.iter_mut() {
            *v += 0.01;
        }
        let other1: Vec<f32> = (0..128)
            .map(|_| init::sample_uniform(1, 1, -1.0, 1.0, &mut rng).as_slice()[0])
            .collect();
        let other2: Vec<f32> = (0..128)
            .map(|_| init::sample_uniform(1, 1, -1.0, 1.0, &mut rng).as_slice()[0])
            .collect();
        let w = multi_head_attention_weights(
            &[base, twin, other1, other2],
            &MultiHeadConfig::default(),
        );
        // Client 0's weight on its twin (1) exceeds its weights on 2 and 3.
        assert!(w[(0, 1)] > w[(0, 2)], "{:?}", w);
        assert!(w[(0, 1)] > w[(0, 3)], "{:?}", w);
        assert!(w[(1, 0)] > w[(1, 2)] && w[(1, 0)] > w[(1, 3)], "{:?}", w);
    }

    #[test]
    fn deterministic_given_seed() {
        let params: Vec<Vec<f32>> =
            (0..3).map(|i| (0..32).map(|j| (i + j) as f32 * 0.1).collect()).collect();
        let cfg = MultiHeadConfig::default();
        let a = multi_head_attention_weights(&params, &cfg);
        let b = multi_head_attention_weights(&params, &cfg);
        assert_eq!(a, b);
        let other = MultiHeadConfig { seed: 7, ..cfg };
        let c = multi_head_attention_weights(&params, &other);
        assert_ne!(a, c);
    }

    #[test]
    fn single_head_single_client_degenerates_to_one() {
        let w = multi_head_attention_weights(
            &[vec![0.5; 16]],
            &MultiHeadConfig { heads: 1, ..Default::default() },
        );
        assert_eq!(w.shape(), (1, 1));
        assert!((w[(0, 0)] - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn empty_clients_panic() {
        let _ = multi_head_attention_weights(&[], &MultiHeadConfig::default());
    }

    fn varied_params(k: usize, p: usize) -> Vec<Vec<f32>> {
        (0..k).map(|i| (0..p).map(|j| ((i * p + j) as f32 * 0.29).sin()).collect()).collect()
    }

    #[test]
    fn top_k_at_least_cohort_size_is_bitwise_dense() {
        let params = varied_params(6, 48);
        let dense = multi_head_attention_weights(&params, &MultiHeadConfig::default());
        for kk in [6, 7, 100] {
            let sparse = multi_head_attention_weights(
                &params,
                &MultiHeadConfig { top_k: Some(kk), ..Default::default() },
            );
            assert_eq!(sparse, dense, "top_k={kk} diverged from dense");
        }
    }

    #[test]
    fn top_k_rows_stay_stochastic_with_exact_zeros_elsewhere() {
        let params = varied_params(8, 48);
        let cfg = MultiHeadConfig { top_k: Some(2), ..Default::default() };
        let w = multi_head_attention_weights(&params, &cfg);
        for r in 0..8 {
            let row = w.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sum {sum}");
            // Each head keeps 2 columns; the head-average can light up at
            // most heads*2 columns, and every masked column is exact 0.0.
            let nonzero = row.iter().filter(|&&v| v != 0.0).count();
            assert!(nonzero <= cfg.heads * 2, "row {r}: {nonzero} nonzero");
            assert!(nonzero >= 1);
        }
    }

    #[test]
    fn into_form_matches_allocating_form_and_reuses_scratch() {
        let mut ws = AttentionScratch::new();
        let mut out = Matrix::filled(3, 7, f32::NAN);
        // Cycle the same workspace through different cohort sizes and both
        // sparsities; every call must match the fresh allocating result.
        for (k, top_k) in [(5, None), (3, Some(2)), (7, Some(2)), (7, None)] {
            let params = varied_params(k, 32);
            let cfg = MultiHeadConfig { top_k, ..Default::default() };
            multi_head_attention_weights_into(&params, &cfg, false, &mut ws, &mut out);
            assert_eq!(out, multi_head_attention_weights(&params, &cfg), "k={k} {top_k:?}");
        }
    }

    #[test]
    fn parallel_path_is_bitwise_sequential() {
        let params = varied_params(16, 64);
        for top_k in [None, Some(3)] {
            let cfg = MultiHeadConfig { top_k, ..Default::default() };
            let mut seq = Matrix::default();
            let mut par = Matrix::default();
            multi_head_attention_weights_into(
                &params,
                &cfg,
                false,
                &mut AttentionScratch::new(),
                &mut seq,
            );
            multi_head_attention_weights_into(
                &params,
                &cfg,
                true,
                &mut AttentionScratch::new(),
                &mut par,
            );
            assert_eq!(seq, par, "{top_k:?}: parallel attention diverged");
        }
    }

    #[test]
    fn top_k_selection_breaks_ties_toward_lower_index() {
        let mut row = [1.0, 5.0, 5.0, 5.0, 0.0];
        let mut sel = Vec::new();
        mask_all_but_top_k(&mut row, 2, &mut sel);
        assert_eq!(row, [f32::NEG_INFINITY, 5.0, 5.0, f32::NEG_INFINITY, f32::NEG_INFINITY]);
    }
}
