//! Multi-layer perceptron regressor (ReLU hidden layers, linear output).
//!
//! Training is fully batched: each mini-batch runs one blocked
//! `X · Wᵀ` matmul per layer forward ([`crate::matmul_transb`]) and two
//! matmuls per layer backward (`delta · W` for the downstream gradient,
//! `deltaᵀ · acts` for the weight gradient), all through reusable scratch
//! buffers — no per-sample allocation or scalar triple loop remains on
//! the training path.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::adam::Adam;
use crate::dataset::Dataset;
use crate::matrix::{gemv_acc, matmul, matmul_ta, matmul_transb, Matrix};
use crate::metrics::mse;
use crate::scaler::StandardScaler;
use crate::Regressor;

/// Hyper-parameters for [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpParams {
    /// Sizes of the hidden layers (the paper names models
    /// `<layers>-MLP-<neurons>`, e.g. `1-MLP-500` is `hidden: vec![500]`).
    pub hidden: Vec<usize>,
    /// Learning rate for Adam.
    pub lr: f64,
    /// Global-norm gradient clip (the paper uses 0.01).
    pub clip_norm: Option<f64>,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hard cap on training epochs.
    pub max_epochs: usize,
    /// Early-stopping patience: stop after this many epochs without
    /// validation improvement (the paper uses 100).
    pub patience: usize,
    /// Seed for weight initialisation and shuffling.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: vec![64],
            lr: 1e-3,
            clip_norm: Some(0.01),
            batch_size: 32,
            max_epochs: 400,
            patience: 100,
            seed: 0,
        }
    }
}

/// Fully connected feed-forward regressor.
///
/// Features are standardised internally. Training uses MSE loss, the
/// [`Adam`] optimiser with gradient clipping, and early stopping on the
/// validation dataset when one is supplied (matching §V-A of the paper).
#[derive(Debug, Clone)]
pub struct Mlp {
    params: MlpParams,
    /// Layer sizes including input and output: `[in, h1, ..., 1]`.
    sizes: Vec<usize>,
    /// Flat parameter buffer: per layer, weights (out*in) then biases (out).
    theta: Vec<f64>,
    scaler: Option<StandardScaler>,
}

impl Mlp {
    /// Creates an untrained MLP.
    pub fn new(params: MlpParams) -> Self {
        Mlp {
            params,
            sizes: Vec::new(),
            theta: Vec::new(),
            scaler: None,
        }
    }

    /// Total number of trainable parameters (0 before fit).
    pub fn n_params(&self) -> usize {
        self.theta.len()
    }

    fn layer_offsets(sizes: &[usize]) -> Vec<(usize, usize, usize)> {
        // (weight_offset, bias_offset, next_offset) per layer
        let mut offs = Vec::new();
        let mut cur = 0;
        for l in 0..sizes.len() - 1 {
            let w = sizes[l + 1] * sizes[l];
            let b = sizes[l + 1];
            offs.push((cur, cur + w, cur + w + b));
            cur += w + b;
        }
        offs
    }

    fn init(&mut self, n_features: usize, rng: &mut impl Rng) {
        let mut sizes = vec![n_features];
        sizes.extend_from_slice(&self.params.hidden);
        sizes.push(1);
        let offs = Self::layer_offsets(&sizes);
        let total = offs.last().map_or(0, |o| o.2);
        let mut theta = vec![0.0; total];
        for (l, &(w_off, b_off, _)) in offs.iter().enumerate() {
            // He initialisation for ReLU layers.
            let scale = (2.0 / sizes[l] as f64).sqrt();
            for w in &mut theta[w_off..b_off] {
                *w = (rng.gen::<f64>() * 2.0 - 1.0) * scale;
            }
        }
        self.sizes = sizes;
        self.theta = theta;
    }

    /// Batched forward pass over `batch` rows already gathered into
    /// `scratch.acts[0]`: every layer is one blocked `X · Wᵀ` matmul plus
    /// a bias/ReLU sweep, writing into the scratch's per-layer activation
    /// buffers.
    fn forward_batch(&self, batch: usize, scratch: &mut MlpScratch) {
        let offs = Self::layer_offsets(&self.sizes);
        let n_layers = self.sizes.len() - 1;
        for (l, &(w_off, b_off, _)) in offs.iter().enumerate() {
            let n_in = self.sizes[l];
            let n_out = self.sizes[l + 1];
            let (prev_acts, rest) = scratch.acts.split_at_mut(l + 1);
            let prev = &prev_acts[l][..batch * n_in];
            let out = &mut rest[0];
            out.resize(batch * n_out, 0.0);
            matmul_transb(
                prev,
                &self.theta[w_off..w_off + n_out * n_in],
                batch,
                n_in,
                n_out,
                &mut out[..batch * n_out],
            );
            let bias = &self.theta[b_off..b_off + n_out];
            let relu = l + 1 < n_layers;
            for row in out[..batch * n_out].chunks_exact_mut(n_out) {
                for (v, b) in row.iter_mut().zip(bias) {
                    *v += b;
                    if relu && *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    /// Batched backward pass over the activations left in `scratch` by
    /// [`Mlp::forward_batch`]; accumulates parameter gradients into `grad`
    /// and returns the batch's summed squared error.
    fn backward_batch(
        &self,
        batch: usize,
        targets: &[f64],
        scratch: &mut MlpScratch,
        grad: &mut [f64],
    ) -> f64 {
        let offs = Self::layer_offsets(&self.sizes);
        let n_layers = self.sizes.len() - 1;
        // Output delta: d(err^2)/d out = 2 * (out - y).
        let out_acts = &scratch.acts[n_layers][..batch];
        let mut sq_err = 0.0;
        let out_delta = &mut scratch.deltas[n_layers];
        out_delta.resize(batch, 0.0);
        for s in 0..batch {
            let err = out_acts[s] - targets[s];
            sq_err += err * err;
            out_delta[s] = 2.0 * err;
        }
        for l in (0..n_layers).rev() {
            let (w_off, b_off, _) = offs[l];
            let n_in = self.sizes[l];
            let n_out = self.sizes[l + 1];
            let (deltas_lo, deltas_hi) = scratch.deltas.split_at_mut(l + 1);
            let delta = &deltas_hi[0][..batch * n_out];
            let prev = &scratch.acts[l][..batch * n_in];
            // Bias gradient: per-output column sums of the delta matrix.
            for row in delta.chunks_exact(n_out) {
                for (g, d) in grad[b_off..b_off + n_out].iter_mut().zip(row) {
                    *g += d;
                }
            }
            // Weight gradient: dW += deltaᵀ · prev (blocked kernel).
            matmul_ta(
                delta,
                prev,
                batch,
                n_out,
                n_in,
                &mut grad[w_off..w_off + n_out * n_in],
            );
            if l > 0 {
                // Downstream delta: (delta · W) gated by ReLU'(prev).
                let next_delta = &mut deltas_lo[l];
                next_delta.resize(batch * n_in, 0.0);
                matmul(
                    delta,
                    &self.theta[w_off..w_off + n_out * n_in],
                    batch,
                    n_out,
                    n_in,
                    &mut next_delta[..batch * n_in],
                );
                for (nd, a) in next_delta[..batch * n_in].iter_mut().zip(prev) {
                    if *a <= 0.0 {
                        *nd = 0.0;
                    }
                }
            }
        }
        sq_err
    }

    /// Gathers dataset rows `idx` into `scratch.acts[0]` and the matching
    /// targets into `scratch.targets`.
    fn gather_batch(&self, data: &Dataset, idx: &[usize], scratch: &mut MlpScratch) {
        let n_in = self.sizes[0];
        let input = &mut scratch.acts[0];
        input.clear();
        input.reserve(idx.len() * n_in);
        scratch.targets.clear();
        for &i in idx {
            let (row, y) = data.sample(i);
            input.extend_from_slice(row);
            scratch.targets.push(y);
        }
    }

    fn eval(&self, data: &Dataset, scratch: &mut MlpScratch) -> f64 {
        let mut preds = Vec::with_capacity(data.len());
        let all: Vec<usize> = (0..data.len()).collect();
        for chunk in all.chunks(EVAL_CHUNK) {
            self.gather_batch(data, chunk, scratch);
            self.forward_batch(chunk.len(), scratch);
            preds.extend_from_slice(&self.acts_output(scratch)[..chunk.len()]);
        }
        mse(&preds, data.y())
    }

    fn acts_output<'s>(&self, scratch: &'s MlpScratch) -> &'s [f64] {
        &scratch.acts[self.sizes.len() - 1]
    }

    /// Single-row forward used by inference: one [`gemv_acc`] per layer
    /// over a pair of ping-pong buffers.
    fn forward_row(&self, x: &[f64]) -> f64 {
        let offs = Self::layer_offsets(&self.sizes);
        let n_layers = self.sizes.len() - 1;
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (l, &(w_off, b_off, _)) in offs.iter().enumerate() {
            let n_in = self.sizes[l];
            let n_out = self.sizes[l + 1];
            next.clear();
            next.extend_from_slice(&self.theta[b_off..b_off + n_out]);
            gemv_acc(
                &self.theta[w_off..w_off + n_out * n_in],
                n_out,
                n_in,
                &cur,
                &mut next,
            );
            if l + 1 < n_layers {
                for v in &mut next {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[0]
    }
}

/// Number of rows evaluated per forward chunk when scoring a dataset.
const EVAL_CHUNK: usize = 256;

/// Reusable training buffers: per-layer activation and delta matrices
/// (batch-major) plus the gathered target column. Allocated once per fit
/// and recycled across every mini-batch and epoch.
#[derive(Debug, Default)]
struct MlpScratch {
    acts: Vec<Vec<f64>>,
    deltas: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl MlpScratch {
    fn for_sizes(sizes: &[usize]) -> Self {
        MlpScratch {
            acts: sizes.iter().map(|_| Vec::new()).collect(),
            deltas: sizes.iter().map(|_| Vec::new()).collect(),
            targets: Vec::new(),
        }
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, train: &Dataset, val: Option<&Dataset>) {
        assert!(!train.is_empty(), "cannot fit MLP on an empty dataset");
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.params.seed);
        let scaler = StandardScaler::fit(train.x());
        let x = scaler.transform(train.x());
        let train_scaled = Dataset::new(x, train.y().to_vec()).expect("shape preserved");
        let val_scaled = val.map(|v| {
            Dataset::new(scaler.transform(v.x()), v.y().to_vec()).expect("shape preserved")
        });
        self.init(train.n_features(), &mut rng);
        self.scaler = None; // forward() during training uses pre-scaled data

        let mut adam = Adam::new(self.theta.len(), self.params.lr, self.params.clip_norm);
        let mut order: Vec<usize> = (0..train_scaled.len()).collect();
        let mut best_theta = self.theta.clone();
        let mut best_loss = f64::INFINITY;
        let mut stale = 0usize;
        let mut grad = vec![0.0; self.theta.len()];
        let mut scratch = MlpScratch::for_sizes(&self.sizes);
        for _epoch in 0..self.params.max_epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.params.batch_size.max(1)) {
                grad.iter_mut().for_each(|g| *g = 0.0);
                self.gather_batch(&train_scaled, chunk, &mut scratch);
                self.forward_batch(chunk.len(), &mut scratch);
                let targets = std::mem::take(&mut scratch.targets);
                self.backward_batch(chunk.len(), &targets, &mut scratch, &mut grad);
                scratch.targets = targets;
                let inv = 1.0 / chunk.len() as f64;
                grad.iter_mut().for_each(|g| *g *= inv);
                adam.step(&mut self.theta, &grad);
            }
            let monitored = val_scaled.as_ref().unwrap_or(&train_scaled);
            let loss = self.eval(monitored, &mut scratch);
            if loss + 1e-12 < best_loss {
                best_loss = loss;
                best_theta.copy_from_slice(&self.theta);
                stale = 0;
            } else {
                stale += 1;
                if stale >= self.params.patience {
                    break;
                }
            }
        }
        self.theta = best_theta;
        self.scaler = Some(scaler);
    }

    fn predict_row(&self, x: &[f64]) -> f64 {
        let scaler = self
            .scaler
            .as_ref()
            .expect("Mlp::predict_row called before fit");
        let z = scaler.transform_row(x);
        self.forward_row(&z)
    }

    /// Batched inference: scale the rows into one flat buffer and run the
    /// same chunked `X · Wᵀ` matmul forward pass training uses, instead of
    /// one `gemv` per row.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        let scaler = self
            .scaler
            .as_ref()
            .expect("Mlp::predict called before fit");
        let n_in = self.sizes[0];
        assert!(x.rows() == 0 || x.cols() == n_in, "feature count mismatch");
        let mut scratch = MlpScratch::for_sizes(&self.sizes);
        let mut preds = Vec::with_capacity(x.rows());
        for start in (0..x.rows()).step_by(EVAL_CHUNK) {
            let n = EVAL_CHUNK.min(x.rows() - start);
            let input = &mut scratch.acts[0];
            input.clear();
            input.extend_from_slice(&x.as_slice()[start * n_in..(start + n) * n_in]);
            for row in input.chunks_mut(n_in.max(1)) {
                scaler.transform_row_in_place(row);
            }
            self.forward_batch(n, &mut scratch);
            preds.extend_from_slice(&self.acts_output(&scratch)[..n]);
        }
        preds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonlinear_data(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * 4.0 - 2.0;
                vec![t, t * t]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[1] * 0.5 + r[0]).collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn learns_smooth_function() {
        let data = nonlinear_data(120);
        let mut m = Mlp::new(MlpParams {
            hidden: vec![32],
            max_epochs: 300,
            clip_norm: None,
            lr: 3e-3,
            ..MlpParams::default()
        });
        m.fit(&data, None);
        let preds = m.predict(data.x());
        let err = mse(&preds, data.y());
        assert!(err < 0.1, "mse {err}");
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let data = nonlinear_data(60);
        let (train, val) = data.split(0.25, 3);
        let mut m = Mlp::new(MlpParams {
            hidden: vec![16],
            max_epochs: 150,
            patience: 10,
            clip_norm: None,
            lr: 3e-3,
            ..MlpParams::default()
        });
        m.fit(&train, Some(&val));
        // Validation error should be finite and reasonable after restore.
        let preds = m.predict(val.x());
        assert!(mse(&preds, val.y()).is_finite());
    }

    #[test]
    fn batched_inference_matches_scalar_path() {
        let data = nonlinear_data(80);
        let mut m = Mlp::new(MlpParams {
            hidden: vec![24, 8],
            max_epochs: 60,
            ..MlpParams::default()
        });
        m.fit(&data, None);
        // More rows than one EVAL_CHUNK so the chunking seam is exercised.
        let rows: Vec<Vec<f64>> = (0..(EVAL_CHUNK + 37))
            .map(|i| {
                let t = i as f64 * 0.013 - 1.7;
                vec![t, t * t]
            })
            .collect();
        let batched = m.predict(&Matrix::from_rows(&rows).unwrap());
        let scalar: Vec<f64> = rows.iter().map(|r| m.predict_row(r)).collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = nonlinear_data(60);
        let params = MlpParams {
            hidden: vec![8],
            max_epochs: 30,
            ..MlpParams::default()
        };
        let mut a = Mlp::new(params.clone());
        let mut b = Mlp::new(params);
        a.fit(&data, None);
        b.fit(&data, None);
        assert_eq!(
            a.predict_row(data.sample(0).0),
            b.predict_row(data.sample(0).0)
        );
    }

    #[test]
    fn param_count_matches_architecture() {
        let data = nonlinear_data(20);
        let mut m = Mlp::new(MlpParams {
            hidden: vec![5],
            max_epochs: 1,
            ..MlpParams::default()
        });
        m.fit(&data, None);
        // 2 inputs -> 5 hidden -> 1 output: (2*5 + 5) + (5*1 + 1) = 21.
        assert_eq!(m.n_params(), 21);
    }
}
