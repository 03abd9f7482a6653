//! The program's inputs and defaults, and the seeded request streams.

use std::collections::VecDeque;

use mga_bench::{model_cfg, thread_dataset, RunOpts};
use mga_core::cv::{kfold_by_group, Fold};
use mga_core::model::{FusionModel, Modality, ModelConfig, TrainData};
use mga_core::omp::OmpTask;
use mga_core::OmpDataset;

use crate::stats::SplitMix;

/// Seed of the program's own randomness (IR2Vec seed vocabulary, model
/// initialisation): the program default, never the workload seed. The
/// workload seed only chooses inputs — the fold split and the request
/// streams — so every run measures the same program.
pub const PROGRAM_SEED: u64 = 42;

/// Folds of the loop-grouped cross-validation (§4.1.3).
pub const FOLDS: usize = 5;

/// The Fig. 4 dataset, its task encoding and the workload's fold split.
pub struct Ctx {
    pub ds: OmpDataset,
    pub task: OmpTask,
    pub folds: Vec<Fold>,
    pub cfg: ModelConfig,
    pub inputs: usize,
}

impl Ctx {
    /// Build the catalog IR, graphs, IR2Vec vectors and the simulated
    /// profiling sweep (full mode), then split folds by `seed`.
    pub fn build(seed: u64) -> Ctx {
        let opts = RunOpts {
            quick: false,
            seed: PROGRAM_SEED,
            quiet: true,
        };
        let ds = thread_dataset(opts);
        let task = OmpTask::new(&ds);
        let folds = kfold_by_group(&ds.groups(), FOLDS, seed);
        let inputs = ds.sizes.len();
        Ctx {
            ds,
            task,
            folds,
            cfg: model_cfg(opts, Modality::Multimodal, true),
            inputs,
        }
    }

    pub fn data(&self) -> TrainData<'_> {
        self.task.train_data(&self.ds)
    }

    pub fn kernels(&self) -> usize {
        self.ds.specs.len()
    }

    /// Train the model on `fold`'s training samples.
    pub fn fit_fold(&self, fold: usize) -> FusionModel {
        FusionModel::fit(
            self.cfg.clone(),
            &self.data(),
            &self.folds[fold].train,
            &self.task.codec.head_sizes(),
        )
    }

    /// Index of the sample (kernel, input) in the dataset.
    pub fn sample(&self, kernel: usize, input: usize) -> usize {
        let i = kernel * self.inputs + input;
        debug_assert_eq!(self.ds.samples[i].kernel, kernel);
        debug_assert_eq!(self.ds.samples[i].input, input);
        i
    }

    pub fn all_samples(&self) -> Vec<usize> {
        (0..self.ds.samples.len()).collect()
    }

    /// Achieved speedup over the default configuration when `classes`
    /// (one per head) is chosen for `sample`.
    pub fn achieved(&self, sample: usize, classes: &[usize]) -> f64 {
        let cfg_idx = self.task.codec.decode(classes);
        self.ds.achieved_speedup(&self.ds.samples[sample], cfg_idx)
    }
}

/// Per-sample classes the training-side `FusionModel::predict` gives:
/// `expected[i]` holds one class per head for sample `i`. Serving must
/// reproduce these exactly.
pub fn expected_classes(ctx: &Ctx, model: &FusionModel) -> Vec<Vec<usize>> {
    let all = ctx.all_samples();
    let per_head = model.predict(&ctx.data(), &all);
    (0..all.len())
        .map(|i| per_head.iter().map(|h| h[i]).collect())
        .collect()
}

/// Unseen-kernel request stream against an LRU cache of `resident`
/// kernels: each request names a kernel that is not among the last
/// `resident` distinct kernels requested, so with every request a miss
/// the cache never holds the next kernel. Kernels come in rounds that
/// name every kernel once, so every span of whole rounds has the same
/// kernel mix and a tail percentile over it does not hinge on how often
/// the largest kernels were drawn. The input (aux row) is drawn from the
/// kernel's inputs.
pub struct ColdStream {
    rng: SplitMix,
    recent: VecDeque<usize>,
    used: Vec<bool>,
    left: usize,
    resident: usize,
    inputs: usize,
}

impl ColdStream {
    pub fn new(seed: u64, kernels: usize, inputs: usize, resident: usize) -> ColdStream {
        assert!(
            resident < kernels,
            "stream needs a kernel outside the cache"
        );
        ColdStream {
            rng: SplitMix::new(seed, 1),
            recent: VecDeque::with_capacity(resident + 1),
            used: vec![false; kernels],
            left: kernels,
            resident,
            inputs,
        }
    }

    /// Next (kernel, input). A candidate always exists: `j` requests into
    /// a round, at most `resident - j` of the round's unused kernels are
    /// recent while `resident` is below the kernel count.
    pub fn next(&mut self) -> (usize, usize) {
        if self.left == 0 {
            self.used.fill(false);
            self.left = self.used.len();
        }
        let candidates: Vec<usize> = (0..self.used.len())
            .filter(|k| !self.used[*k] && !self.recent.contains(k))
            .collect();
        let kernel = candidates[self.rng.below(candidates.len())];
        self.used[kernel] = true;
        self.left -= 1;
        self.recent.push_back(kernel);
        if self.recent.len() > self.resident {
            self.recent.pop_front();
        }
        (kernel, self.rng.below(self.inputs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_stream_never_revisits_a_resident_kernel() {
        let mut s = ColdStream::new(9, 45, 30, 16);
        let seq: Vec<(usize, usize)> = (0..45 * 100).map(|_| s.next()).collect();
        for (j, &(k, i)) in seq.iter().enumerate() {
            assert!(k < 45 && i < 30);
            let lo = j.saturating_sub(16);
            assert!(seq[lo..j].iter().all(|&(p, _)| p != k), "revisit at {j}");
        }
        for round in seq.chunks_exact(45) {
            let kernels: std::collections::BTreeSet<usize> = round.iter().map(|p| p.0).collect();
            assert_eq!(kernels.len(), 45, "every round names every kernel once");
        }
    }
}
