//! Gradient-boosted regression trees, from scratch.
//!
//! The paper trains a forest of 100 decision trees with the Yggdrasil
//! library to regress backtrack-target scores (§6.5). This module is a
//! self-contained replacement: CART regression trees fit with
//! squared-error splits, boosted by fitting each tree to the residuals
//! of the ensemble so far.

/// One internal split or leaf of a regression tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Index of the subtree for `x[feature] <= threshold`.
        left: usize,
        /// Index of the subtree for `x[feature] > threshold`.
        right: usize,
    },
}

/// A CART regression tree fit with squared-error splits.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree on `rows` (feature vectors) against `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, row arities differ, or lengths
    /// mismatch.
    pub fn fit(
        rows: &[Vec<f64>],
        targets: &[f64],
        max_depth: usize,
        min_samples_leaf: usize,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree on no samples");
        assert_eq!(rows.len(), targets.len(), "row/target length mismatch");
        let arity = rows[0].len();
        assert!(
            rows.iter().all(|r| r.len() == arity),
            "inconsistent feature arity"
        );
        let mut tree = RegressionTree { nodes: Vec::new() };
        let indices: Vec<u32> = (0..rows.len() as u32).collect();
        tree.grow(rows, targets, indices, max_depth, min_samples_leaf.max(1));
        tree
    }

    /// Predicts the target for one feature vector. A split on a feature
    /// past the end of `x` (a model loaded for wider rows) takes the
    /// right branch, so prediction never panics.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x.get(*feature).is_some_and(|v| v <= threshold) {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (splits + leaves).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A tree always has at least one node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn grow(
        &mut self,
        rows: &[Vec<f64>],
        targets: &[f64],
        indices: Vec<u32>,
        depth: usize,
        min_leaf: usize,
    ) -> usize {
        let mean = indices.iter().map(|&i| targets[i as usize]).sum::<f64>() / indices.len() as f64;
        if depth == 0 || indices.len() < 2 * min_leaf {
            return self.leaf(mean);
        }
        let Some((feature, threshold)) = best_split(rows, targets, &indices, min_leaf) else {
            return self.leaf(mean);
        };
        let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = indices
            .into_iter()
            .partition(|&i| rows[i as usize][feature] <= threshold);
        debug_assert!(left_idx.len() >= min_leaf && right_idx.len() >= min_leaf);
        let node = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean }); // placeholder
        let left = self.grow(rows, targets, left_idx, depth - 1, min_leaf);
        let right = self.grow(rows, targets, right_idx, depth - 1, min_leaf);
        self.nodes[node] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node
    }

    fn leaf(&mut self, value: f64) -> usize {
        self.nodes.push(Node::Leaf { value });
        self.nodes.len() - 1
    }
}

/// Finds the squared-error-optimal `(feature, threshold)` split, or
/// `None` if no split separates the samples with `min_leaf` on each
/// side.
fn best_split(
    rows: &[Vec<f64>],
    targets: &[f64],
    indices: &[u32],
    min_leaf: usize,
) -> Option<(usize, f64)> {
    let arity = rows[0].len();
    let total_sum: f64 = indices.iter().map(|&i| targets[i as usize]).sum();
    let n = indices.len() as f64;
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)

    let mut order: Vec<u32> = indices.to_vec();
    #[allow(clippy::needless_range_loop)] // feature indexes every row, not one slice
    for feature in 0..arity {
        order.sort_by(|&a, &b| {
            rows[a as usize][feature]
                .partial_cmp(&rows[b as usize][feature])
                .expect("features are finite")
        });
        let mut left_sum = 0.0;
        for (k, &i) in order.iter().enumerate().take(order.len() - 1) {
            left_sum += targets[i as usize];
            let left_n = (k + 1) as f64;
            let value = rows[i as usize][feature];
            let next = rows[order[k + 1] as usize][feature];
            if value == next {
                continue; // cannot split between equal values
            }
            if k + 1 < min_leaf || order.len() - (k + 1) < min_leaf {
                continue;
            }
            let right_sum = total_sum - left_sum;
            let right_n = n - left_n;
            // Maximizing sum-of-squared-means is equivalent to minimizing
            // the split's squared error.
            let gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
            let threshold = (value + next) / 2.0;
            if best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, feature, threshold));
            }
        }
    }
    // Require a real improvement over the unsplit node.
    let parent = total_sum * total_sum / n;
    best.filter(|&(gain, _, _)| gain > parent + 1e-12)
        .map(|(_, f, t)| (f, t))
}

/// A gradient-boosted ensemble of regression trees.
///
/// # Example
///
/// ```
/// use tela_learned::gbt::{Gbt, GbtParams};
///
/// // Learn y = x0 + 2*x1 on a small grid.
/// let rows: Vec<Vec<f64>> = (0..100)
///     .map(|i| vec![f64::from(i % 10), f64::from(i / 10)])
///     .collect();
/// let targets: Vec<f64> = rows.iter().map(|r| r[0] + 2.0 * r[1]).collect();
/// let model = Gbt::fit(&rows, &targets, &GbtParams::default());
/// let err = (model.predict(&[3.0, 4.0]) - 11.0).abs();
/// assert!(err < 1.0, "prediction error {err}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Gbt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
}

/// Hyperparameters for [`Gbt::fit`].
#[derive(Debug, Clone, Copy)]
pub struct GbtParams {
    /// Number of boosting rounds — the paper uses a forest of 100 trees
    /// (§7.3).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_trees: 100,
            learning_rate: 0.1,
            max_depth: 4,
            min_samples_leaf: 4,
        }
    }
}

impl Gbt {
    /// Fits the ensemble on `rows` against `targets` with least-squares
    /// boosting: every tree regresses the residual of the ensemble so
    /// far.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or lengths mismatch.
    pub fn fit(rows: &[Vec<f64>], targets: &[f64], params: &GbtParams) -> Self {
        assert!(!rows.is_empty(), "cannot fit on no samples");
        assert_eq!(rows.len(), targets.len());
        let base = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut residuals: Vec<f64> = targets.iter().map(|t| t - base).collect();
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            let tree =
                RegressionTree::fit(rows, &residuals, params.max_depth, params.min_samples_leaf);
            for (r, row) in residuals.iter_mut().zip(rows) {
                *r -= params.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        Gbt {
            base,
            learning_rate: params.learning_rate,
            trees,
        }
    }

    /// Predicts the target for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// Predicts a batch of feature vectors — the deployment path feeds
    /// all backtrack candidates as one batch (§6.5).
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Serializes to the line-oriented text format (see
    /// [`crate::persist`]).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "gbt v1 {:?} {:?} {}",
            self.base,
            self.learning_rate,
            self.trees.len()
        );
        for tree in &self.trees {
            let _ = writeln!(out, "tree {}", tree.nodes.len());
            for node in &tree.nodes {
                match node {
                    Node::Leaf { value } => {
                        let _ = writeln!(out, "leaf {value:?}");
                    }
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        let _ = writeln!(out, "split {feature} {threshold:?} {left} {right}");
                    }
                }
            }
        }
        out
    }

    /// Parses the text format produced by [`Gbt::to_text`].
    ///
    /// Every accepted model predicts in bounded time: a tree has at
    /// least one node, and a split's children come after it (the
    /// pre-order that [`Gbt::fit`] writes), so each walk ends at a leaf.
    /// Header counts are not trusted for allocation.
    ///
    /// # Errors
    ///
    /// Returns [`crate::persist::ModelParseError`] on malformed input.
    pub fn from_text(text: &str) -> Result<Self, crate::persist::ModelParseError> {
        use crate::persist::ModelParseError;
        let err = |line: usize, reason: &str| ModelParseError {
            line,
            reason: reason.to_string(),
        };
        let mut lines = text.lines().enumerate();
        let (lno, header) = lines.next().ok_or_else(|| err(1, "empty model"))?;
        let mut h = header.split_whitespace();
        if h.next() != Some("gbt") || h.next() != Some("v1") {
            return Err(err(lno + 1, "expected `gbt v1` header"));
        }
        let base: f64 = h
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(lno + 1, "bad base"))?;
        let learning_rate: f64 = h
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(lno + 1, "bad learning rate"))?;
        let n_trees: usize = h
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(lno + 1, "bad tree count"))?;
        let mut trees = Vec::new();
        for _ in 0..n_trees {
            let (lno, tline) = lines.next().ok_or_else(|| err(0, "missing tree header"))?;
            let mut t = tline.split_whitespace();
            if t.next() != Some("tree") {
                return Err(err(lno + 1, "expected `tree N`"));
            }
            let n_nodes: usize = t
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| err(lno + 1, "bad node count"))?;
            if n_nodes == 0 {
                return Err(err(lno + 1, "empty tree"));
            }
            let mut nodes = Vec::new();
            for index in 0..n_nodes {
                let (lno, nline) = lines.next().ok_or_else(|| err(0, "truncated tree"))?;
                let mut parts = nline.split_whitespace();
                match parts.next() {
                    Some("leaf") => {
                        let value: f64 = parts
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| err(lno + 1, "bad leaf value"))?;
                        nodes.push(Node::Leaf { value });
                    }
                    Some("split") => {
                        let feature: usize = parts
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| err(lno + 1, "bad split feature"))?;
                        let threshold: f64 = parts
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| err(lno + 1, "bad split threshold"))?;
                        let left: usize = parts
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| err(lno + 1, "bad left index"))?;
                        let right: usize = parts
                            .next()
                            .and_then(|x| x.parse().ok())
                            .ok_or_else(|| err(lno + 1, "bad right index"))?;
                        if left >= n_nodes || right >= n_nodes {
                            return Err(err(lno + 1, "child index out of range"));
                        }
                        if left <= index || right <= index {
                            return Err(err(lno + 1, "child index not after its split"));
                        }
                        nodes.push(Node::Split {
                            feature,
                            threshold,
                            left,
                            right,
                        });
                    }
                    _ => return Err(err(lno + 1, "expected `leaf` or `split`")),
                }
            }
            trees.push(RegressionTree { nodes });
        }
        Ok(Gbt {
            base,
            learning_rate,
            trees,
        })
    }

    /// Root-mean-squared error over a labelled set.
    pub fn rmse(&self, rows: &[Vec<f64>], targets: &[f64]) -> f64 {
        let sse: f64 = rows
            .iter()
            .zip(targets)
            .map(|(r, t)| {
                let e = self.predict(r) - t;
                e * e
            })
            .sum();
        (sse / rows.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64])
            .collect()
    }

    #[test]
    fn tree_fits_constant_data() {
        let rows = grid(20);
        let targets = vec![7.0; 20];
        let tree = RegressionTree::fit(&rows, &targets, 4, 1);
        assert_eq!(tree.predict(&[5.0, 1.0]), 7.0);
        assert_eq!(tree.len(), 1, "constant data needs a single leaf");
    }

    #[test]
    fn tree_learns_a_step_function() {
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let tree = RegressionTree::fit(&rows, &targets, 3, 1);
        assert_eq!(tree.predict(&[3.0]), 1.0);
        assert_eq!(tree.predict(&[33.0]), 5.0);
    }

    #[test]
    fn tree_respects_min_samples_leaf() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let tree = RegressionTree::fit(&rows, &targets, 10, 5);
        // Only one split (5|5) is possible.
        assert!(tree.len() <= 3);
    }

    #[test]
    fn tree_handles_duplicate_feature_values() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![(i % 2) as f64]).collect();
        let targets: Vec<f64> = (0..10).map(|i| (i % 2) as f64 * 10.0).collect();
        let tree = RegressionTree::fit(&rows, &targets, 4, 1);
        assert_eq!(tree.predict(&[0.0]), 0.0);
        assert_eq!(tree.predict(&[1.0]), 10.0);
    }

    #[test]
    fn gbt_reduces_training_rmse_with_more_trees() {
        let rows = grid(100);
        let targets: Vec<f64> = rows
            .iter()
            .map(|r| (r[0] - 3.0).abs() + 0.5 * r[1])
            .collect();
        let small = Gbt::fit(
            &rows,
            &targets,
            &GbtParams {
                n_trees: 2,
                ..GbtParams::default()
            },
        );
        let large = Gbt::fit(
            &rows,
            &targets,
            &GbtParams {
                n_trees: 60,
                ..GbtParams::default()
            },
        );
        assert!(large.rmse(&rows, &targets) < small.rmse(&rows, &targets));
    }

    #[test]
    fn gbt_learns_nonlinear_interaction() {
        // y = x0 * x1 needs interaction splits.
        let rows = grid(100);
        let targets: Vec<f64> = rows.iter().map(|r| r[0] * r[1]).collect();
        let model = Gbt::fit(&rows, &targets, &GbtParams::default());
        assert!(model.rmse(&rows, &targets) < 2.0);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let rows = grid(50);
        let targets: Vec<f64> = rows.iter().map(|r| r[0] + r[1]).collect();
        let model = Gbt::fit(&rows, &targets, &GbtParams::default());
        let batch = model.predict_batch(&rows);
        for (row, b) in rows.iter().zip(&batch) {
            assert_eq!(model.predict(row), *b);
        }
    }

    #[test]
    fn split_pointing_at_itself_is_rejected() {
        // Without the check `predict` would loop on node 0 forever.
        let text = "gbt v1 0 1 1\ntree 2\nsplit 0 0.5 0 1\nleaf 1\n";
        let e = Gbt::from_text(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("not after its split"), "{e}");
        let backwards = "gbt v1 0 1 1\ntree 3\nleaf 1\nsplit 0 0.5 2 0\nleaf 2\n";
        assert!(Gbt::from_text(backwards).is_err());
    }

    #[test]
    fn empty_tree_is_rejected() {
        let e = Gbt::from_text("gbt v1 0 1 1\ntree 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("empty tree"), "{e}");
    }

    #[test]
    fn huge_header_counts_do_not_preallocate() {
        let trees = format!("gbt v1 0 1 {}\n", u64::MAX);
        assert!(Gbt::from_text(&trees).is_err());
        let nodes = format!("gbt v1 0 1 1\ntree {}\nleaf 1\n", u64::MAX);
        assert!(Gbt::from_text(&nodes).is_err());
    }

    #[test]
    fn a_feature_past_the_row_takes_the_right_branch() {
        let model = Gbt::from_text("gbt v1 0 1 1\ntree 3\nsplit 9 0.5 1 2\nleaf 1\nleaf 2\n")
            .expect("well-formed model");
        assert_eq!(model.predict(&[0.0]), 2.0);
    }

    #[test]
    fn default_params_match_paper_forest_size() {
        assert_eq!(GbtParams::default().n_trees, 100);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn fitting_empty_set_panics() {
        let _ = Gbt::fit(&[], &[], &GbtParams::default());
    }
}
