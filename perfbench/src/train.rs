//! Training phases: the loop-grouped cross-validation of Fig. 4 and
//! repeated full-batch epochs over every sample.

use std::time::Instant;

use mga_core::model::{batch_targets, FusionModel, PreparedBatch};
use mga_core::omp::eval_model_fold;
use mga_nn::optim::AdamW;
use mga_obs::metrics;

use crate::run::Run;
use crate::setup::Ctx;
use crate::stats::fast_time;

/// Loop-grouped cross-validation, one fold at a time
/// (`eval_model_fold`: DAE pretrain, fit, predict on the validation
/// fold). Reports `fit_s` (lower quartile of the folds) and `cv_speedup`.
#[derive(Default)]
pub struct Cv {
    fold_s: Vec<f64>,
    achieved: Vec<f64>,
    short: u64,
}

impl Cv {
    pub fn fold(&mut self, run: &mut Run, ctx: &Ctx, fold: usize) {
        let fold = &ctx.folds[fold];
        let id = run.sp.open("cv.fold");
        let t0 = Instant::now();
        let eval = eval_model_fold(&ctx.ds, &ctx.task, ctx.cfg.clone(), fold);
        self.fold_s.push(t0.elapsed().as_secs_f64());
        run.sp.close(id, 1);
        self.short += u64::from(eval.pairs.len() != fold.val.len());
        self.achieved.extend(eval.pairs.iter().map(|p| p.achieved));
    }

    pub fn finish(self, run: &mut Run, ctx: &Ctx) {
        run.rep
            .phase("train.cv_folds", self.fold_s.len() as u64, self.short);
        run.rep.metric("fit_s", fast_time(&self.fold_s));
        let cv = cv_speedup(run, ctx, &self.achieved);
        run.rep.metric("cv_speedup", cv);
    }
}

/// Achieved speedups of `model`'s `predict` on `fold`'s validation
/// samples, appended to `out`.
pub fn fold_speedups(ctx: &Ctx, model: &FusionModel, fold: usize, out: &mut Vec<f64>) {
    let val = &ctx.folds[fold].val;
    let predicted = model.predict(&ctx.data(), val);
    for (j, &i) in val.iter().enumerate() {
        let classes: Vec<usize> = predicted.iter().map(|h| h[j]).collect();
        out.push(ctx.achieved(i, &classes));
    }
}

/// Geometric mean of the achieved speedups of every validation
/// prediction, gated on covering every sample and being finite.
pub fn cv_speedup(run: &mut Run, ctx: &Ctx, achieved: &[f64]) -> f64 {
    let usable = achieved.len() == ctx.ds.samples.len()
        && achieved.iter().all(|a| a.is_finite() && *a > 0.0);
    let cv = if usable {
        mga_core::metrics::geomean(achieved)
    } else {
        f64::NAN
    };
    run.rep.gate(
        "cv_speedup recomputed and finite",
        cv.is_finite() && cv > 0.0,
        format!("{cv:.6} over {} predictions", achieved.len()),
    );
    cv
}

/// Repeated `FusionModel::train_epoch` with AdamW on a fold-0 model and
/// the prepared batch of every sample: a fold's training set holds the
/// kernels the seed put in it, and its epoch costs what their graphs
/// cost, while every sample costs the same for every seed. Reports
/// `epoch_ms` (lower quartile of the epochs) and the per-epoch
/// gradient-reduce time the program's counter records.
pub struct Epochs<'m> {
    model: &'m mut FusionModel,
    prep: PreparedBatch,
    targets: Vec<Vec<u32>>,
    opt: AdamW,
    ms: Vec<f64>,
    bad: u64,
    reduce_ns: u64,
    steady_bytes: u64,
}

impl<'m> Epochs<'m> {
    pub fn new(ctx: &Ctx, model: &'m mut FusionModel) -> Epochs<'m> {
        let data = ctx.data();
        let samples = ctx.all_samples();
        let prep = model.prepare(&data, &samples);
        let targets = batch_targets(&data, &samples, model.head_sizes.len());
        // The optimizer `fit` trains with.
        let mut opt = AdamW::new(ctx.cfg.lr).with_weight_decay(0.001);
        // Warm-up: the first epochs plan the tape and fill the arenas.
        for _ in 0..3 {
            model.train_epoch(&prep, &targets, &mut opt);
        }
        Epochs {
            model,
            prep,
            targets,
            opt,
            ms: Vec::new(),
            bad: 0,
            reduce_ns: 0,
            steady_bytes: 0,
        }
    }

    /// Train epochs until `until` (at least one).
    pub fn step(&mut self, run: &mut Run, until: Instant) {
        let reduce = metrics::counter("train.microbatch.reduce_ns");
        let steady = metrics::counter("tape.steady_alloc_bytes");
        let (reduce0, steady0) = (reduce.get(), steady.get());
        run.gap.restart();
        loop {
            let id = run.sp.open("train.epoch");
            let t0 = Instant::now();
            let loss = self
                .model
                .train_epoch(&self.prep, &self.targets, &mut self.opt);
            self.ms.push(t0.elapsed().as_secs_f64() * 1e3);
            run.sp.close(id, 1);
            run.gap.beat();
            self.bad += u64::from(!loss.is_finite());
            if Instant::now() >= until {
                break;
            }
        }
        self.reduce_ns += reduce.get() - reduce0;
        self.steady_bytes += steady.get() - steady0;
    }

    pub fn finish(self, run: &mut Run) {
        let n = self.ms.len() as u64;
        run.rep.phase("train.epochs", n, self.bad);
        run.rep.gate(
            "epoch losses finite",
            self.bad == 0,
            format!("{} of {n} non-finite", self.bad),
        );
        run.rep.metric("epoch_ms", fast_time(&self.ms));
        run.rep
            .metric("core.reduce_ns_per_epoch", self.reduce_ns as f64 / n as f64);
        run.rep.prov("tape_steady_alloc_bytes", self.steady_bytes);
    }
}
