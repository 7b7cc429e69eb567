//! Gradient-boosted regression trees (XGBoost-style boosting, LightGBM-style
//! histogram split finding).
//!
//! The paper's best stage-1 engine is "GBT-250" (250 boosted trees via
//! XGBoost). This module implements the same second-order boosting recipe:
//! per-round gradients/hessians of the squared loss, greedy splits
//! maximising the regularised gain, leaf weights `-G/(H+lambda)` and
//! shrinkage.
//!
//! Two split-finding strategies are available behind
//! [`GbtParams::split_strategy`]:
//!
//! * [`SplitStrategy::Exact`] — the classic exact greedy algorithm: at every
//!   node, every feature column is gathered and sorted and every boundary
//!   between adjacent distinct values is a candidate. `O(rows · log rows ·
//!   features)` *per node*, which dominates training at paper scale.
//! * [`SplitStrategy::Histogram`] (the default) — feature values are
//!   quantised once per fit into at most `max_bins` bins per feature
//!   ([`BinnedDataset`]: quantile cut points, `u8` bin codes stored
//!   column-major). Each node accumulates one (grad-sum, hess-sum, count)
//!   histogram per feature — in parallel across features for large nodes —
//!   and only bin boundaries are split candidates. A node's sibling
//!   histogram is derived with the parent-minus-child *subtraction trick*,
//!   so only the smaller child is ever scanned. Thresholds are real cut
//!   values, so trained trees are identical in form to exact trees and
//!   [`Regressor::predict_row`] is strategy-agnostic.
//!
//! When a feature has at most `max_bins` distinct values the binning is
//! lossless: cut points are the midpoints between adjacent distinct values —
//! the exact splitter's threshold formula — so histogram training considers
//! the same candidate *partitions* as exact training and grows the same row
//! splits (inside a child node's value gaps the chosen threshold may sit at
//! a different — equally valid — boundary; see the parity suite in
//! `tests/gbt_parity.rs`). A constant feature produces zero cut points and
//! can never be selected for a split.
//!
//! Both splitters write every tree straight into one flat node arena per
//! ensemble: a node is a `u32` feature, an f64 threshold and two `u32`
//! child indices, and a leaf holds `learning_rate * weight` and names
//! itself as both children. Batch prediction ([`Regressor::predict`])
//! walks the arena tree-major over blocks of rows, each row taking a
//! tree's depth in steps; training's per-tree prediction update uses the
//! same walk. It equals [`Regressor::predict_row`] bit for bit.
//!
//! ```
//! use perfbug_ml::{Dataset, Gbt, GbtParams, Regressor, SplitStrategy};
//!
//! let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
//! let y: Vec<f64> = rows.iter().map(|r| if r[0] < 2.5 { -1.0 } else { 2.0 }).collect();
//! let data = Dataset::from_rows(&rows, &y).unwrap();
//!
//! // Histogram split finding is the default...
//! let mut model = Gbt::new(GbtParams { n_trees: 60, ..GbtParams::default() });
//! model.fit(&data, None);
//! assert!((model.predict_row(&[0.5]) - -1.0).abs() < 0.1);
//!
//! // ...and the exact splitter stays available behind the same knob.
//! let mut exact = Gbt::new(GbtParams {
//!     n_trees: 60,
//!     split_strategy: SplitStrategy::Exact,
//!     ..GbtParams::default()
//! });
//! exact.fit(&data, None);
//! assert!((exact.predict_row(&[4.0]) - 2.0).abs() < 0.1);
//! ```

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::matrix::Matrix;
use crate::Regressor;

/// How split candidates are enumerated while growing trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitStrategy {
    /// Exact greedy split finding: sort every feature column at every node
    /// and consider every boundary between adjacent distinct values.
    Exact,
    /// Histogram split finding: quantise each feature into at most
    /// `max_bins` bins once per fit and consider only bin boundaries,
    /// with per-node gradient histograms and the subtraction trick.
    Histogram {
        /// Upper bound on bins per feature (clamped to `2..=256`; bin
        /// codes are stored as `u8`). 255 matches LightGBM's default.
        max_bins: u16,
    },
}

impl Default for SplitStrategy {
    fn default() -> Self {
        SplitStrategy::Histogram { max_bins: 255 }
    }
}

/// Hyper-parameters for [`Gbt`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbtParams {
    /// Number of boosted trees (the paper evaluates 150 and 250).
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// L2 regularisation on leaf weights (XGBoost's `lambda`).
    pub lambda: f64,
    /// Minimum gain required to split (XGBoost's `gamma`).
    pub gamma: f64,
    /// Minimum sum of hessians in a child (XGBoost's `min_child_weight`).
    pub min_child_weight: f64,
    /// Fraction of rows sampled per tree (1.0 disables subsampling).
    pub subsample: f64,
    /// Seed for row subsampling.
    pub seed: u64,
    /// Split-finding strategy (histogram by default; see [`SplitStrategy`]).
    pub split_strategy: SplitStrategy,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_trees: 250,
            max_depth: 4,
            learning_rate: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            seed: 0,
            split_strategy: SplitStrategy::default(),
        }
    }
}

// --------------------------------------------------------------------------
// Binned dataset
// --------------------------------------------------------------------------

/// Per-node, per-feature, per-bin gradient statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HistBin {
    grad: f64,
    hess: f64,
    count: u32,
}

/// Feature-parallel histogram construction kicks in above this
/// `rows x features` work size; below it, thread-spawn overhead dominates
/// the accumulation loop (tree nodes shrink geometrically with depth, so
/// deep nodes always stay serial).
const HIST_PARALLEL_WORK: usize = 1 << 17;

/// A dataset quantised for histogram split finding: per-feature quantile
/// cut points and `u8` bin codes stored column-major.
///
/// Built once per [`Gbt::fit`] and reused across every tree and boosting
/// round. Bin `b` of a feature holds the values `v` with
/// `cuts[b-1] <= v < cuts[b]`, so a split "code ≤ b" is exactly the tree
/// predicate `v < cuts[b]` — thresholds in trained trees are real feature
/// values, never bin indices.
///
/// When a feature has at most `max_bins` distinct values, every distinct
/// value receives its own bin and the cut points are the midpoints between
/// adjacent distinct values (the exact splitter's candidate formula);
/// otherwise cut points are chosen at (approximately) equal-frequency
/// quantiles of the column. A constant feature produces **zero** cut
/// points: it occupies a single bin and can never be selected for a split.
///
/// ```
/// use perfbug_ml::{BinnedDataset, Dataset};
///
/// let rows: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64, 7.0]).collect();
/// let y = vec![0.0; 8];
/// let binned = BinnedDataset::from_dataset(&Dataset::from_rows(&rows, &y).unwrap(), 255);
/// assert_eq!(binned.n_bins(0), 8); // 8 distinct values, lossless binning
/// assert_eq!(binned.cuts(0)[0], 0.5); // midpoints between adjacent values
/// assert_eq!(binned.n_bins(1), 1); // constant column: zero cuts, one bin
/// assert!(binned.cuts(1).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    n_rows: usize,
    /// Ascending cut points per feature; `cuts[f].len() + 1` bins.
    cuts: Vec<Vec<f64>>,
    /// Column-major bin codes: `codes[f * n_rows + r]`.
    codes: Vec<u8>,
    /// Flat histogram offsets per feature (`n_features + 1` entries).
    offsets: Vec<usize>,
}

impl BinnedDataset {
    /// Quantises `data` into at most `max_bins` bins per feature
    /// (`max_bins` is clamped to `2..=256`).
    pub fn from_dataset(data: &Dataset, max_bins: u16) -> Self {
        let max_bins = (max_bins as usize).clamp(2, 256);
        let n_rows = data.len();
        let n_features = data.n_features();
        let mut cuts = Vec::with_capacity(n_features);
        let mut codes = vec![0u8; n_features * n_rows];
        let mut offsets = Vec::with_capacity(n_features + 1);
        offsets.push(0);
        let mut column = Vec::with_capacity(n_rows);
        for f in 0..n_features {
            column.clear();
            column.extend((0..n_rows).map(|r| data.sample(r).0[f]));
            column.sort_by(f64::total_cmp);
            let feature_cuts = quantile_cuts(&column, max_bins);
            let col_codes = &mut codes[f * n_rows..(f + 1) * n_rows];
            for (r, code) in col_codes.iter_mut().enumerate() {
                let v = data.sample(r).0[f];
                *code = feature_cuts.partition_point(|&c| c <= v) as u8;
            }
            offsets.push(offsets[f] + feature_cuts.len() + 1);
            cuts.push(feature_cuts);
        }
        BinnedDataset {
            n_rows,
            cuts,
            codes,
            offsets,
        }
    }

    /// Number of samples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.cuts.len()
    }

    /// Number of bins of `feature` (1 for a constant feature).
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn n_bins(&self, feature: usize) -> usize {
        self.cuts[feature].len() + 1
    }

    /// The ascending cut points of `feature` (empty for a constant
    /// feature). Bin `b` holds values in `[cuts[b-1], cuts[b])`.
    ///
    /// # Panics
    ///
    /// Panics if `feature` is out of bounds.
    pub fn cuts(&self, feature: usize) -> &[f64] {
        &self.cuts[feature]
    }

    /// Total histogram slots across all features.
    fn total_bins(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// The bin codes of one feature column.
    fn feature_codes(&self, feature: usize) -> &[u8] {
        &self.codes[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    /// Accumulates the (grad, hess, count) histogram of one feature over
    /// `rows` into `bins` (pre-zeroed, `n_bins(feature)` long).
    fn accumulate_feature(
        &self,
        feature: usize,
        rows: &[u32],
        grad: &[f64],
        hess: &[f64],
        bins: &mut [HistBin],
    ) {
        let col = self.feature_codes(feature);
        for &r in rows {
            let r = r as usize;
            let bin = &mut bins[col[r] as usize];
            bin.grad += grad[r];
            bin.hess += hess[r];
            bin.count += 1;
        }
    }

    /// Builds the full per-feature histogram of one node into `hist`
    /// (length [`Self::total_bins`]), feature-parallel across up to
    /// `threads` workers when the node is large enough to amortise the
    /// spawns. Each feature is accumulated by exactly one thread in row
    /// order, so the result is bit-identical for any thread count.
    fn build_histogram(
        &self,
        rows: &[u32],
        grad: &[f64],
        hess: &[f64],
        hist: &mut [HistBin],
        threads: usize,
    ) {
        debug_assert_eq!(hist.len(), self.total_bins());
        hist.fill(HistBin::default());
        let n_features = self.n_features();
        let threads = threads.clamp(1, n_features.max(1));
        if threads == 1 || rows.len().saturating_mul(n_features) < HIST_PARALLEL_WORK {
            for f in 0..n_features {
                let (lo, hi) = (self.offsets[f], self.offsets[f + 1]);
                self.accumulate_feature(f, rows, grad, hess, &mut hist[lo..hi]);
            }
            return;
        }
        std::thread::scope(|scope| {
            let mut rest = hist;
            let mut f_start = 0;
            for t in 0..threads {
                // Near-equal contiguous feature chunks.
                let f_end = f_start + (n_features - f_start) / (threads - t);
                let width = self.offsets[f_end] - self.offsets[f_start];
                let (chunk, tail) = rest.split_at_mut(width);
                rest = tail;
                scope.spawn(move || {
                    let mut bins = chunk;
                    for f in f_start..f_end {
                        let width = self.offsets[f + 1] - self.offsets[f];
                        let (head, tail) = bins.split_at_mut(width);
                        self.accumulate_feature(f, rows, grad, hess, head);
                        bins = tail;
                    }
                });
                f_start = f_end;
            }
        });
    }
}

/// Chooses the cut points of one feature from its sorted column. Lossless
/// midpoint cuts when the column has at most `max_bins` distinct values,
/// (approximately) equal-frequency quantile cuts otherwise. A constant
/// column yields no cuts.
fn quantile_cuts(sorted: &[f64], max_bins: usize) -> Vec<f64> {
    // Run-length encode the distinct values.
    let mut distinct: Vec<(f64, usize)> = Vec::new();
    for &v in sorted {
        match distinct.last_mut() {
            Some((last, count)) if *last == v => *count += 1,
            _ => distinct.push((v, 1)),
        }
    }
    if distinct.len() <= 1 {
        return Vec::new();
    }
    let mut cuts = Vec::with_capacity(distinct.len().min(max_bins) - 1);
    if distinct.len() <= max_bins {
        // One bin per distinct value: cut points are the exact splitter's
        // midpoint thresholds, making the binning lossless.
        for pair in distinct.windows(2) {
            cuts.push((pair[0].0 + pair[1].0) / 2.0);
        }
        return cuts;
    }
    // Greedy equal-frequency quantiles: emit a cut whenever the cumulative
    // row count passes the next multiple of n/max_bins. A value heavier
    // than one whole stride additionally forces cuts on both of its
    // boundaries (its own bin, LightGBM-style) — without that, a dominant
    // value swallows every target and a feature the exact splitter can
    // split ends up with no cuts at all. Cuts stay strictly increasing
    // and are capped at max_bins - 1 so codes always fit in a u8.
    let stride = sorted.len() as f64 / max_bins as f64;
    let mut cum = 0usize;
    let mut next_target = stride;
    for pair in distinct.windows(2) {
        cum += pair[0].1;
        let heavy_boundary = pair[0].1 as f64 >= stride || pair[1].1 as f64 >= stride;
        if (cum as f64) >= next_target || heavy_boundary {
            cuts.push((pair[0].0 + pair[1].0) / 2.0);
            if cuts.len() == max_bins - 1 {
                break;
            }
            while (cum as f64) >= next_target {
                next_target += stride;
            }
        }
    }
    cuts
}

// --------------------------------------------------------------------------
// Trees
// --------------------------------------------------------------------------

/// Rows evaluated together by the tree-major batch walk: one tree's nodes
/// stay hot while every row of the block takes its steps through them.
const PREDICT_BLOCK: usize = 64;

/// One node of the ensemble's flat arena.
///
/// A split sends rows with `x[feature] < value` to `left` and every other
/// row (NaN included) to `right`. A leaf names itself as both children and
/// holds its contribution `learning_rate * weight` in `value`, so a walk
/// that takes more steps than the leaf's depth stays on it.
#[derive(Debug, Clone, Copy)]
struct FlatNode {
    value: f64,
    feature: u32,
    left: u32,
    right: u32,
}

impl FlatNode {
    fn is_leaf(&self) -> bool {
        self.left == self.right
    }

    /// The child a row whose `feature` column holds `v` is routed to (the
    /// node itself for a leaf).
    fn route(&self, v: f64) -> u32 {
        if v < self.value {
            self.left
        } else {
            self.right
        }
    }
}

/// One tree of the arena: its root node and the length of its longest
/// root-to-leaf path, which is the number of steps a walk takes.
#[derive(Debug, Clone, Copy)]
struct TreeRoot {
    root: u32,
    depth: u32,
}

/// Every tree of an ensemble in one node arena. Trees are stored in
/// boosting order and each tree's nodes in pre-order, so child indices
/// always point forward.
#[derive(Debug, Clone, Default)]
struct Forest {
    nodes: Vec<FlatNode>,
    trees: Vec<TreeRoot>,
}

impl Forest {
    /// Opens a new tree; the next node pushed is its root.
    fn start_tree(&mut self) {
        let root = self.next_index();
        self.trees.push(TreeRoot { root, depth: 0 });
    }

    fn next_index(&self) -> u32 {
        u32::try_from(self.nodes.len()).expect("GBT node arena exceeds u32 indices")
    }

    /// Appends a leaf at `depth` of the open tree.
    fn push_leaf(&mut self, value: f64, depth: usize) -> u32 {
        let me = self.next_index();
        self.nodes.push(FlatNode {
            value,
            feature: 0,
            left: me,
            right: me,
        });
        let tree = self
            .trees
            .last_mut()
            .expect("start_tree opens a tree first");
        tree.depth = tree.depth.max(depth as u32);
        me
    }

    /// Reserves a split's slot before its children are pushed, so the
    /// arena stays in pre-order; [`Forest::set_split`] fills it in.
    fn reserve_split(&mut self) -> u32 {
        self.push_leaf(0.0, 0)
    }

    fn set_split(&mut self, me: u32, feature: usize, threshold: f64, left: u32, right: u32) {
        self.nodes[me as usize] = FlatNode {
            value: threshold,
            feature: feature as u32,
            left,
            right,
        };
    }

    /// Tree `tree`'s leaf value for row `x`.
    fn eval(&self, tree: TreeRoot, x: &[f64]) -> f64 {
        let mut idx = tree.root;
        for _ in 0..tree.depth {
            let node = &self.nodes[idx as usize];
            idx = node.route(x[node.feature as usize]);
        }
        self.nodes[idx as usize].value
    }

    /// Adds tree `tree`'s leaf value to `acc[r]` for every row `r` of the
    /// row-major block `x` (`acc.len()` rows of `width` features). All rows
    /// take each step before any row takes the next one; `idx` is scratch
    /// of `acc.len()` entries.
    fn add_tree(&self, tree: TreeRoot, x: &[f64], width: usize, acc: &mut [f64], idx: &mut [u32]) {
        idx.fill(tree.root);
        for _ in 0..tree.depth {
            for (r, i) in idx.iter_mut().enumerate() {
                let node = &self.nodes[*i as usize];
                // `feature < width`: every split's feature indexes a
                // column of the training matrix, and callers pass
                // matrices of the same width.
                *i = node.route(x[r * width + node.feature as usize]);
            }
        }
        for (a, &i) in acc.iter_mut().zip(idx.iter()) {
            *a += self.nodes[i as usize].value;
        }
    }

    /// Runs `f(block rows, block output)` over consecutive blocks of at
    /// most [`PREDICT_BLOCK`] rows of the row-major `x`.
    fn for_each_block(
        x: &[f64],
        width: usize,
        out: &mut [f64],
        mut f: impl FnMut(&[f64], &mut [f64], &mut [u32]),
    ) {
        let mut idx = [0u32; PREDICT_BLOCK];
        for (b, acc) in out.chunks_mut(PREDICT_BLOCK).enumerate() {
            let start = b * PREDICT_BLOCK * width;
            let rows = &x[start..start + acc.len() * width];
            f(rows, acc, &mut idx[..acc.len()]);
        }
    }
}

/// Gradient-boosted tree ensemble for regression (squared loss).
#[derive(Debug, Clone)]
pub struct Gbt {
    params: GbtParams,
    hist_threads: Option<usize>,
    base_score: f64,
    forest: Forest,
    n_features: usize,
}

impl Gbt {
    /// Creates an untrained ensemble.
    pub fn new(params: GbtParams) -> Self {
        Gbt {
            params,
            hist_threads: None,
            base_score: 0.0,
            forest: Forest::default(),
            n_features: 0,
        }
    }

    /// Caps the worker threads used for feature-parallel histogram
    /// construction (default: `available_parallelism`). Training output
    /// is bit-identical for any value — each feature's histogram is
    /// accumulated by exactly one thread in row order — so this is purely
    /// a scheduling knob: callers whose fits already run inside a
    /// saturated worker pool (stage-1 training under the collection
    /// engine) pass 1 to avoid spawning nested threads per tree node.
    /// Not part of [`GbtParams`] on purpose: thread counts are an
    /// execution detail, not model/corpus identity.
    pub fn with_hist_threads(mut self, threads: usize) -> Self {
        self.hist_threads = Some(threads.max(1));
        self
    }

    /// Number of trees actually grown.
    pub fn n_trees(&self) -> usize {
        self.forest.trees.len()
    }

    /// Every split's `(feature, threshold)` across all trees, in tree
    /// order (pre-order within each tree). Introspection for feature
    /// audits and the exact-vs-histogram parity suite.
    pub fn split_thresholds(&self) -> Vec<(usize, f64)> {
        self.forest
            .nodes
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| (n.feature as usize, n.value))
            .collect()
    }

    /// The leaf entry of a node whose rows have gradient sum `g_sum` and
    /// hessian sum `h_sum`: the shrunken weight `learning_rate * weight`.
    fn leaf_value(&self, g_sum: f64, h_sum: f64) -> f64 {
        let weight = -g_sum / (h_sum + self.params.lambda);
        self.params.learning_rate * weight
    }

    /// Recursively grows the open tree of `forest` with exact splits,
    /// returning the index of the created node.
    fn grow(
        &self,
        forest: &mut Forest,
        data: &Dataset,
        rows: Vec<usize>,
        grad: &[f64],
        hess: &[f64],
        depth: usize,
    ) -> u32 {
        let g_sum: f64 = rows.iter().map(|&r| grad[r]).sum();
        let h_sum: f64 = rows.iter().map(|&r| hess[r]).sum();
        if depth >= self.params.max_depth || rows.len() < 2 {
            return forest.push_leaf(self.leaf_value(g_sum, h_sum), depth);
        }

        // Exact greedy: best split over every feature.
        let parent_score = g_sum * g_sum / (h_sum + self.params.lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted: Vec<(f64, f64, f64)> = Vec::with_capacity(rows.len());
        for feature in 0..data.n_features() {
            sorted.clear();
            for &r in &rows {
                sorted.push((data.sample(r).0[feature], grad[r], hess[r]));
            }
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for i in 0..sorted.len() - 1 {
                gl += sorted[i].1;
                hl += sorted[i].2;
                if sorted[i].0 == sorted[i + 1].0 {
                    continue; // cannot split between equal values
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + self.params.lambda) + gr * gr / (hr + self.params.lambda)
                        - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                    let threshold = (sorted[i].0 + sorted[i + 1].0) / 2.0;
                    best = Some((gain, feature, threshold));
                }
            }
        }

        match best {
            None => forest.push_leaf(self.leaf_value(g_sum, h_sum), depth),
            Some((_, feature, threshold)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
                    .into_iter()
                    .partition(|&r| data.sample(r).0[feature] < threshold);
                let me = forest.reserve_split();
                let left = self.grow(forest, data, left_rows, grad, hess, depth + 1);
                let right = self.grow(forest, data, right_rows, grad, hess, depth + 1);
                forest.set_split(me, feature, threshold, left, right);
                me
            }
        }
    }

    /// Grows one tree into `forest` with histogram split finding.
    fn grow_tree_hist(
        &self,
        forest: &mut Forest,
        binned: &BinnedDataset,
        rows: &[usize],
        grad: &[f64],
        hess: &[f64],
        threads: usize,
    ) {
        let rows: Vec<u32> = rows.iter().map(|&r| r as u32).collect();
        let mut hist = vec![HistBin::default(); binned.total_bins()];
        binned.build_histogram(&rows, grad, hess, &mut hist, threads);
        self.grow_hist(forest, binned, rows, hist, grad, hess, 0, threads);
    }

    /// Recursively grows the open tree of `forest` from per-feature
    /// histograms. `hist` is the node's own histogram (consumed: the larger
    /// child's histogram is derived from it in place via the subtraction
    /// trick).
    #[allow(clippy::too_many_arguments)]
    fn grow_hist(
        &self,
        forest: &mut Forest,
        binned: &BinnedDataset,
        rows: Vec<u32>,
        hist: Vec<HistBin>,
        grad: &[f64],
        hess: &[f64],
        depth: usize,
        threads: usize,
    ) -> u32 {
        // Node totals from the row list (not the bins): the same
        // summation order as the exact splitter, so leaf weights agree.
        let g_sum: f64 = rows.iter().map(|&r| grad[r as usize]).sum();
        let h_sum: f64 = rows.iter().map(|&r| hess[r as usize]).sum();
        if depth >= self.params.max_depth || rows.len() < 2 {
            return forest.push_leaf(self.leaf_value(g_sum, h_sum), depth);
        }

        let parent_score = g_sum * g_sum / (h_sum + self.params.lambda);
        let total = rows.len() as u32;
        let mut best: Option<(f64, usize, usize)> = None; // (gain, feature, cut index)
        for feature in 0..binned.n_features() {
            let bins = &hist[binned.offsets[feature]..binned.offsets[feature + 1]];
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut nl = 0u32;
            // Candidate b splits between bin b and b+1: threshold cuts[b].
            for (b, bin) in bins[..binned.cuts[feature].len()].iter().enumerate() {
                gl += bin.grad;
                hl += bin.hess;
                nl += bin.count;
                if nl == 0 {
                    continue; // nothing on the left yet
                }
                if nl == total {
                    break; // nothing left on the right
                }
                if hl < self.params.min_child_weight || (h_sum - hl) < self.params.min_child_weight
                {
                    continue;
                }
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                let gain = 0.5
                    * (gl * gl / (hl + self.params.lambda) + gr * gr / (hr + self.params.lambda)
                        - parent_score)
                    - self.params.gamma;
                if gain > 0.0 && best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, feature, b));
                }
            }
        }

        match best {
            None => forest.push_leaf(self.leaf_value(g_sum, h_sum), depth),
            Some((_, feature, cut_idx)) => {
                let threshold = binned.cuts[feature][cut_idx];
                let col = binned.feature_codes(feature);
                // code <= cut_idx  <=>  value < cuts[cut_idx]: the same
                // rows the trained tree will route left at inference.
                let (left_rows, right_rows): (Vec<u32>, Vec<u32>) = rows
                    .into_iter()
                    .partition(|&r| (col[r as usize] as usize) <= cut_idx);
                let me = forest.reserve_split();
                // Subtraction trick: scan only the smaller child; the
                // larger child's histogram is parent minus sibling.
                let small_is_left = left_rows.len() <= right_rows.len();
                let small = if small_is_left {
                    &left_rows
                } else {
                    &right_rows
                };
                let mut small_hist = vec![HistBin::default(); hist.len()];
                binned.build_histogram(small, grad, hess, &mut small_hist, threads);
                let mut large_hist = hist;
                for (l, s) in large_hist.iter_mut().zip(&small_hist) {
                    l.grad -= s.grad;
                    l.hess -= s.hess;
                    l.count -= s.count;
                }
                let (left_hist, right_hist) = if small_is_left {
                    (small_hist, large_hist)
                } else {
                    (large_hist, small_hist)
                };
                let left = self.grow_hist(
                    forest,
                    binned,
                    left_rows,
                    left_hist,
                    grad,
                    hess,
                    depth + 1,
                    threads,
                );
                let right = self.grow_hist(
                    forest,
                    binned,
                    right_rows,
                    right_hist,
                    grad,
                    hess,
                    depth + 1,
                    threads,
                );
                forest.set_split(me, feature, threshold, left, right);
                me
            }
        }
    }
}

impl Regressor for Gbt {
    fn fit(&mut self, train: &Dataset, _val: Option<&Dataset>) {
        assert!(!train.is_empty(), "cannot fit GBT on an empty dataset");
        assert!(
            train.len() <= u32::MAX as usize,
            "histogram GBT indexes rows as u32"
        );
        self.n_features = train.n_features();
        self.base_score = train.y().iter().sum::<f64>() / train.len() as f64;
        let mut forest = Forest::default();

        // Binning happens once per fit and is shared by every tree/round.
        let binned = match self.params.split_strategy {
            SplitStrategy::Histogram { max_bins } if self.params.max_depth > 0 => {
                Some(BinnedDataset::from_dataset(train, max_bins))
            }
            _ => None,
        };
        let threads = self
            .hist_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));

        let mut pred = vec![self.base_score; train.len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.params.seed);
        let all_rows: Vec<usize> = (0..train.len()).collect();
        // Squared loss: grad = pred - y, refilled each round; hess = 1.
        let mut grad = vec![0.0; train.len()];
        let hess = vec![1.0; train.len()];
        for _ in 0..self.params.n_trees {
            for ((g, p), y) in grad.iter_mut().zip(&pred).zip(train.y()) {
                *g = p - y;
            }
            let sampled = (self.params.subsample < 1.0).then(|| {
                let k = ((train.len() as f64) * self.params.subsample).max(1.0) as usize;
                let mut shuffled = all_rows.clone();
                shuffled.shuffle(&mut rng);
                shuffled.truncate(k);
                shuffled
            });
            let rows = sampled.as_deref().unwrap_or(&all_rows);
            forest.start_tree();
            match &binned {
                Some(b) => self.grow_tree_hist(&mut forest, b, rows, &grad, &hess, threads),
                None => {
                    self.grow(&mut forest, train, rows.to_vec(), &grad, &hess, 0);
                }
            }
            let tree = *forest.trees.last().expect("start_tree opened it");
            let width = self.n_features;
            Forest::for_each_block(train.x().as_slice(), width, &mut pred, |x, acc, idx| {
                forest.add_tree(tree, x, width, acc, idx)
            });
        }
        self.forest = forest;
    }

    fn predict_row(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.base_score
            + self
                .forest
                .trees
                .iter()
                .map(|&t| self.forest.eval(t, x))
                .sum::<f64>()
    }

    /// Tree-major batch inference over blocks of 64 rows. Each row adds
    /// its trees' leaf values in tree order, starting from the value
    /// `Iterator::<f64>::sum` starts from, and then adds `base_score`: the
    /// same sum as [`Regressor::predict_row`], bit for bit.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        assert!(
            x.rows() == 0 || x.cols() == self.n_features,
            "feature count mismatch"
        );
        let empty_sum = std::iter::empty::<f64>().sum::<f64>();
        let mut out = vec![empty_sum; x.rows()];
        let width = x.cols();
        Forest::for_each_block(x.as_slice(), width, &mut out, |rows, acc, idx| {
            for &tree in &self.forest.trees {
                self.forest.add_tree(tree, rows, width, acc, idx);
            }
        });
        out.into_iter().map(|sum| self.base_score + sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::mse;
    use proptest::prelude::*;
    use rand::Rng;

    /// Reference evaluator: walks each tree of the arena recursively from
    /// its root to a leaf, one row at a time, and sums with
    /// `Iterator::sum`.
    fn reference_predict_row(m: &Gbt, x: &[f64]) -> f64 {
        fn walk(nodes: &[FlatNode], i: u32, x: &[f64]) -> f64 {
            let n = nodes[i as usize];
            if n.is_leaf() {
                n.value
            } else if x[n.feature as usize] < n.value {
                walk(nodes, n.left, x)
            } else {
                walk(nodes, n.right, x)
            }
        }
        let trees = &m.forest.trees;
        m.base_score
            + trees
                .iter()
                .map(|t| walk(&m.forest.nodes, t.root, x))
                .sum::<f64>()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn compiled_predict_matches_recursive_reference(
            seed in 0u64..1_000_000,
            exact in any::<bool>(),
            max_depth in 0usize..9,
            subsample_pct in 40u32..101,
            n_train in 2usize..160,
            n_features in 1usize..5,
            n_trees in 1usize..12,
            rows_case in 0usize..5,
        ) {
            // Training values sit on a coarse grid (so both splitters see
            // repeats and ties) that includes both zeros.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let grid = |rng: &mut rand::rngs::StdRng| -> f64 {
                match rng.gen_range(0..12u32) {
                    0 => -0.0,
                    1 => 0.0,
                    k => (k as f64 - 6.0) * 0.75,
                }
            };
            let train_rows: Vec<Vec<f64>> = (0..n_train)
                .map(|_| (0..n_features).map(|_| grid(&mut rng)).collect())
                .collect();
            // An all-negative-zero target makes every leaf -0.0, which
            // pins the value the per-row sums start from.
            let y: Vec<f64> = if seed % 8 == 0 {
                vec![-0.0; n_train]
            } else {
                train_rows
                    .iter()
                    .map(|r| r.iter().enumerate().map(|(j, v)| (v * (j + 1) as f64).sin()).sum())
                    .collect()
            };
            let data = Dataset::from_rows(&train_rows, &y).unwrap();
            let split_strategy = if exact {
                SplitStrategy::Exact
            } else {
                SplitStrategy::Histogram { max_bins: 8 }
            };
            let mut m = Gbt::new(GbtParams {
                n_trees,
                max_depth,
                subsample: subsample_pct as f64 / 100.0,
                seed,
                split_strategy,
                ..GbtParams::default()
            });
            m.fit(&data, None);

            // Query rows mix the specials with values that equal a split
            // threshold exactly and values in between.
            let thresholds: Vec<f64> = m.split_thresholds().iter().map(|&(_, t)| t).collect();
            let n_rows = [0, 1, PREDICT_BLOCK - 1, PREDICT_BLOCK, PREDICT_BLOCK + 1][rows_case];
            let specials = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
            let flat: Vec<f64> = (0..n_rows * n_features)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    1 if !thresholds.is_empty() => thresholds[rng.gen_range(0..thresholds.len())],
                    _ => grid(&mut rng) + 0.3,
                })
                .collect();
            let x = Matrix::from_vec(n_rows, n_features, flat);

            let batch = m.predict(&x);
            let reference: Vec<f64> =
                (0..n_rows).map(|r| reference_predict_row(&m, x.row(r))).collect();
            let per_row: Vec<f64> = (0..n_rows).map(|r| m.predict_row(x.row(r))).collect();
            prop_assert_eq!(bits(&batch), bits(&reference));
            prop_assert_eq!(bits(&per_row), bits(&reference));
        }
    }

    fn wave_data(n: usize) -> Dataset {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * 6.0;
                vec![t, (t * 2.0).sin()]
            })
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0].sin() + 0.5 * r[1]).collect();
        Dataset::from_rows(&rows, &y).unwrap()
    }

    #[test]
    fn fits_nonlinear_function() {
        let data = wave_data(200);
        let mut m = Gbt::new(GbtParams {
            n_trees: 100,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let preds = m.predict(data.x());
        assert!(mse(&preds, data.y()) < 1e-3);
    }

    #[test]
    fn exact_strategy_fits_nonlinear_function() {
        let data = wave_data(200);
        let mut m = Gbt::new(GbtParams {
            n_trees: 100,
            split_strategy: SplitStrategy::Exact,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let preds = m.predict(data.x());
        assert!(mse(&preds, data.y()) < 1e-3);
    }

    #[test]
    fn more_trees_reduce_training_error() {
        let data = wave_data(200);
        let mut small = Gbt::new(GbtParams {
            n_trees: 5,
            ..GbtParams::default()
        });
        let mut large = Gbt::new(GbtParams {
            n_trees: 100,
            ..GbtParams::default()
        });
        small.fit(&data, None);
        large.fit(&data, None);
        let e_small = mse(&small.predict(data.x()), data.y());
        let e_large = mse(&large.predict(data.x()), data.y());
        assert!(e_large < e_small, "{e_large} !< {e_small}");
    }

    #[test]
    fn parallel_histogram_is_bit_identical_to_serial() {
        // Big enough that rows x features clears HIST_PARALLEL_WORK, so a
        // multi-thread call actually takes the scoped feature-parallel
        // path (the container running the suite may report a single
        // hardware thread, which would otherwise skip it).
        let (n, f) = (4096, 32);
        assert!(n * f >= HIST_PARALLEL_WORK);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..f).map(|j| ((i * (j + 2)) % 97) as f64 * 0.25).collect())
            .collect();
        let y = vec![0.0; n];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 64);
        let grad: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
        let hess = vec![1.0; n];
        let all_rows: Vec<u32> = (0..n as u32).collect();
        let mut serial = vec![HistBin::default(); binned.total_bins()];
        binned.build_histogram(&all_rows, &grad, &hess, &mut serial, 1);
        for threads in [2, 3, 5, 16] {
            let mut parallel = vec![HistBin::default(); binned.total_bins()];
            binned.build_histogram(&all_rows, &grad, &hess, &mut parallel, threads);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // Sanity: the histogram really covers every row for each feature.
        for feature in 0..binned.n_features() {
            let count: u32 = serial[binned.offsets[feature]..binned.offsets[feature + 1]]
                .iter()
                .map(|b| b.count)
                .sum();
            assert_eq!(count as usize, n);
        }
    }

    #[test]
    fn constant_target_predicts_constant() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 20];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let mut m = Gbt::new(GbtParams::default());
        m.fit(&data, None);
        assert!((m.predict_row(&[7.0]) - 4.2).abs() < 1e-9);
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let data = wave_data(100);
        let params = GbtParams {
            n_trees: 20,
            subsample: 0.7,
            seed: 9,
            ..GbtParams::default()
        };
        let mut a = Gbt::new(params);
        let mut b = Gbt::new(params);
        a.fit(&data, None);
        b.fit(&data, None);
        assert_eq!(a.predict(data.x()), b.predict(data.x()));
    }

    #[test]
    fn depth_zero_trees_are_stumps_of_mean() {
        let data = wave_data(50);
        let mut m = Gbt::new(GbtParams {
            n_trees: 3,
            max_depth: 0,
            ..GbtParams::default()
        });
        m.fit(&data, None);
        // Every tree is a single leaf; with grad = pred - y the first leaf
        // weight is -(sum residual)/(n + lambda) which is ~0 since base
        // score is the mean. Prediction stays near the mean everywhere.
        let mean = data.y().iter().sum::<f64>() / data.len() as f64;
        assert!((m.predict_row(data.sample(0).0) - mean).abs() < 0.05);
    }

    #[test]
    fn coarse_max_bins_still_learns() {
        let data = wave_data(200);
        let mut m = Gbt::new(GbtParams {
            n_trees: 60,
            split_strategy: SplitStrategy::Histogram { max_bins: 8 },
            ..GbtParams::default()
        });
        m.fit(&data, None);
        let base = data.y().iter().sum::<f64>() / data.len() as f64;
        let base_mse = mse(&vec![base; data.len()], data.y());
        let model_mse = mse(&m.predict(data.x()), data.y());
        assert!(
            model_mse < base_mse * 0.1,
            "8-bin model should still fit: {model_mse} vs baseline {base_mse}"
        );
    }

    #[test]
    fn binning_is_lossless_below_max_bins() {
        // 40 distinct values <= 255 bins: cut points are exactly the
        // midpoints between adjacent distinct values.
        let rows: Vec<Vec<f64>> = (0..120).map(|i| vec![(i % 40) as f64]).collect();
        let y = vec![0.0; 120];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 255);
        assert_eq!(binned.n_bins(0), 40);
        for (b, cut) in binned.cuts(0).iter().enumerate() {
            assert_eq!(*cut, b as f64 + 0.5);
        }
    }

    #[test]
    fn quantile_binning_caps_bin_count() {
        // 1000 distinct values with max_bins 16: at most 15 cuts, strictly
        // increasing, and every value codes to a valid bin.
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![(i as f64).sqrt()]).collect();
        let y = vec![0.0; 1000];
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 16);
        assert!(binned.n_bins(0) <= 16);
        assert!(binned.n_bins(0) >= 8, "quantiles should use most bins");
        let cuts = binned.cuts(0);
        assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn heavy_value_still_gets_cut_points() {
        // A dominant value used to swallow every quantile target: 30
        // singleton values (cumulative 30 < stride 37.5) followed by one
        // value holding 570 of 600 rows left the feature with zero cuts —
        // unsplittable under the default strategy while exact split it
        // fine. Heavy values now force boundary cuts (their own bin).
        let rows: Vec<Vec<f64>> = (0..600)
            .map(|i| vec![if i < 30 { i as f64 } else { 100.0 }])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] < 50.0 { -1.0 } else { 1.0 })
            .collect();
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 16);
        assert!(
            binned.n_bins(0) >= 2,
            "heavy-tailed feature must stay splittable"
        );
        assert!(binned.cuts(0).windows(2).all(|w| w[0] < w[1]));
        let mut m = Gbt::new(GbtParams {
            n_trees: 10,
            split_strategy: SplitStrategy::Histogram { max_bins: 16 },
            ..GbtParams::default()
        });
        m.fit(&data, None);
        assert!(
            m.split_thresholds().iter().any(|&(f, _)| f == 0),
            "model must split the heavy-tailed feature"
        );
        let preds = m.predict(data.x());
        assert!(mse(&preds, data.y()) < 0.1);
    }

    #[test]
    fn hist_threads_override_is_bit_identical() {
        // Large enough that the root node clears HIST_PARALLEL_WORK, so
        // the multi-thread fit really exercises the scoped parallel
        // histogram path; predictions must match the serial fit exactly.
        let (n, f) = (4096, 32);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..f).map(|j| ((i * (j + 2)) % 89) as f64 * 0.5).collect())
            .collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0] - r[f - 1]) * 0.1).collect();
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let params = GbtParams {
            n_trees: 3,
            ..GbtParams::default()
        };
        let mut serial = Gbt::new(params).with_hist_threads(1);
        let mut parallel = Gbt::new(params).with_hist_threads(4);
        serial.fit(&data, None);
        parallel.fit(&data, None);
        assert_eq!(serial.predict(data.x()), parallel.predict(data.x()));
        assert_eq!(serial.split_thresholds(), parallel.split_thresholds());
    }

    #[test]
    fn constant_feature_has_zero_cuts_and_is_never_split() {
        // Mirrors the StandardScaler constant-mask behaviour: a feature
        // with one distinct value carries no signal. It must produce zero
        // cut points and never appear in a trained tree.
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![7.5, i as f64]).collect();
        let y: Vec<f64> = (0..60).map(|i| if i < 30 { -1.0 } else { 1.0 }).collect();
        let data = Dataset::from_rows(&rows, &y).unwrap();
        let binned = BinnedDataset::from_dataset(&data, 255);
        assert_eq!(binned.n_bins(0), 1);
        assert!(binned.cuts(0).is_empty());
        for strategy in [
            SplitStrategy::Histogram { max_bins: 255 },
            SplitStrategy::Exact,
        ] {
            let mut m = Gbt::new(GbtParams {
                n_trees: 10,
                split_strategy: strategy,
                ..GbtParams::default()
            });
            m.fit(&data, None);
            assert!(
                m.split_thresholds().iter().all(|&(f, _)| f != 0),
                "{strategy:?} split on a constant feature"
            );
            assert!(!m.split_thresholds().is_empty());
        }
    }
}
