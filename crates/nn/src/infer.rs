//! Grad-free forward kernels for the inference hot path.
//!
//! The serving engine (`mga-serve`) must produce predictions **bitwise
//! identical** to the tape-based training forward pass while paying for
//! none of its machinery — no node slots, no gradient bookkeeping, no op
//! recording. These helpers re-enter the *same* numeric kernels the tape
//! ops call ([`crate::tensor::matmul_into`] with its i-k-j blocked
//! accumulation, [`crate::ew::bias_act`] for the row-broadcast bias +
//! activation), so every output element is computed by the identical
//! instruction sequence in the identical order: parity is structural, not
//! approximate.
//!
//! All functions write into caller-provided buffers and allocate nothing;
//! the serving engine recycles its buffers through an [`crate::arena::Arena`].

use crate::ew;
use crate::simd;
use crate::tape::FusedAct;
use crate::tensor::{self, Tensor};

/// Row-broadcast bias + activation over `out` — the tail of every fused
/// linear kernel, kept in one place so the activation expressions can
/// never drift between callers.
pub fn apply_bias_act(out: &mut [f32], brow: &[f32], act: FusedAct) {
    match act {
        FusedAct::Identity => ew::bias_act(out, brow, |z| z),
        FusedAct::Relu => ew::bias_act(out, brow, |z| z.max(0.0)),
        FusedAct::Sigmoid => ew::bias_act(out, brow, |z| 1.0 / (1.0 + (-z).exp())),
        FusedAct::Tanh => ew::bias_act(out, brow, f32::tanh),
    }
}

/// `out[..rows*n] = act(x · w + b)` for row-major `x` (`rows × k`) and a
/// weight tensor `w` (`k × n`) with bias `b` (`1 × n`) — the grad-free
/// twin of the tape's `FusedLinear` op (same zero-fill, same matmul
/// kernel, same fused bias+activation pass, hence bitwise-identical
/// results row for row).
pub fn fused_linear_into(
    out: &mut [f32],
    x: &[f32],
    rows: usize,
    w: &Tensor,
    b: &Tensor,
    act: FusedAct,
) {
    fused_linear_with(simd::choose_matmul(w.cols()), out, x, rows, w, b, act);
}

/// [`fused_linear_into`] with a pre-resolved matmul panel — the frozen
/// inference plans resolve the kernel once per stage at compile time and
/// pass it here, keeping the per-request path branch-free.
pub fn fused_linear_with(
    panel: simd::PanelFn,
    out: &mut [f32],
    x: &[f32],
    rows: usize,
    w: &Tensor,
    b: &Tensor,
    act: FusedAct,
) {
    let (k, n) = w.shape();
    debug_assert_eq!(x.len(), rows * k, "input row length mismatch");
    debug_assert_eq!(out.len(), rows * n, "output buffer length mismatch");
    debug_assert_eq!(b.shape(), (1, n), "bias must be [1 x cols]");
    out.fill(0.0);
    tensor::matmul_into_with(panel, out, x, rows, k, w.data(), n);
    apply_bias_act(out, b.row_slice(0), act);
}

/// Index of the maximum element of `row` under `f32::total_cmp`, with
/// `Iterator::max_by`'s tie-breaking (last maximum wins) — the exact
/// expression the model's `predict` uses, so class decisions match it
/// even on ties and non-finite logits.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// [`argmax`] plus the top-1 − top-2 decision margin, for telemetry.
///
/// The winning index is decided by the **same comparator and tie-break**
/// as [`argmax`] (`total_cmp`, last maximum wins), so the class half of
/// the result is bitwise-interchangeable with it — the serving engine
/// uses this everywhere and stays prediction-identical to training.
/// Rows shorter than two elements have no runner-up; their margin is
/// defined as `0.0` (callers treat single-class heads as fully
/// confident).
pub fn argmax_margin(row: &[f32]) -> (usize, f32) {
    if row.len() < 2 {
        return (0, 0.0);
    }
    let mut best_i = 0usize;
    let mut best = row[0];
    let mut second = f32::NEG_INFINITY;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v.total_cmp(&best) != std::cmp::Ordering::Less {
            second = best;
            best = v;
            best_i = i;
        } else if v.total_cmp(&second) == std::cmp::Ordering::Greater {
            second = v;
        }
    }
    (best_i, best - second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        )
    }

    /// The grad-free kernel and the tape's FusedLinear op must agree to
    /// the bit for every activation, including on single rows (the
    /// serving fast path) and multi-row micro-batches.
    #[test]
    fn fused_linear_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for act in [
            FusedAct::Identity,
            FusedAct::Relu,
            FusedAct::Sigmoid,
            FusedAct::Tanh,
        ] {
            for rows in [1usize, 3, 17] {
                let (k, n) = (13, 9);
                let x = rand_tensor(&mut rng, rows, k);
                let w = rand_tensor(&mut rng, k, n);
                let b = rand_tensor(&mut rng, 1, n);

                let mut tape = Tape::new();
                let xv = tape.leaf_ref(&x);
                let wv = tape.leaf_ref(&w);
                let bv = tape.leaf_ref(&b);
                let y = tape.linear(xv, wv, bv, act);
                let want: Vec<u32> = tape.value(y).data().iter().map(|v| v.to_bits()).collect();

                let mut out = vec![f32::NAN; rows * n];
                fused_linear_into(&mut out, x.data(), rows, &w, &b, act);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "act {act:?} rows {rows} diverged from tape");
            }
        }
    }

    #[test]
    fn argmax_matches_predict_comparator() {
        assert_eq!(
            argmax(&[0.1, 0.5, 0.5, 0.2]),
            2,
            "max_by keeps the last maximum"
        );
        assert_eq!(argmax(&[-1.0, -2.0]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1e30]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn argmax_margin_class_matches_argmax() {
        // Hand-picked edge cases: ties (last wins), negatives, NaN
        // (total_cmp sorts positive NaN above +inf), short rows.
        let cases: Vec<Vec<f32>> = vec![
            vec![0.1, 0.5, 0.5, 0.2],
            vec![-1.0, -2.0],
            vec![f32::NEG_INFINITY, -1e30],
            vec![3.0],
            vec![],
            vec![f32::NAN, 1.0, 2.0],
            vec![1.0, f32::NAN],
            vec![2.0, 2.0, 2.0],
        ];
        for row in &cases {
            assert_eq!(argmax_margin(row).0, argmax(row), "row {row:?}");
        }
        // Randomized agreement sweep with frequent ties.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..500 {
            let n = rng.gen_range(1..9usize);
            let row: Vec<f32> = (0..n).map(|_| rng.gen_range(-2..3) as f32 * 0.5).collect();
            let (cls, margin) = argmax_margin(&row);
            assert_eq!(cls, argmax(&row), "row {row:?}");
            if n >= 2 {
                let mut sorted = row.clone();
                sorted.sort_by(|a, b| b.total_cmp(a));
                assert_eq!(margin, sorted[0] - sorted[1], "row {row:?}");
            } else {
                assert_eq!(margin, 0.0);
            }
        }
    }
}
