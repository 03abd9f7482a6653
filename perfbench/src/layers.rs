//! Per-layer calls of the traced run: each public call of a layer is
//! timed in its own span, named after the metric it feeds, on the
//! workload's own inputs (its fold split and trained model).

use mga_core::model::FusionModel;
use mga_dae::pretrain;
use mga_gnn::{GraphBatch, HeteroGnn};
use mga_graph::ProGraph;
use mga_nn::optim::AdamW;
use mga_nn::params::ParamSet;
use mga_nn::tape::Tape;
use mga_nn::tensor::Tensor;
use mga_serve::{EmbeddingCache, InferencePlan};
use mga_sim::openmp::{simulate, OmpConfig};
use mga_vec::{extract_triples, train_seed_embeddings, TransEConfig};
use rand::SeedableRng;

use crate::run::Run;
use crate::setup::{Ctx, PROGRAM_SEED};

/// Repetitions of calls that take milliseconds.
const REPS: usize = 5;
/// Repetitions of per-kernel calls over the catalog.
const KERNEL_REPS: usize = 3;
/// Calls per span for sub-microsecond calls.
const INNER: usize = 256;

/// Report the median per-call time of the spans named `name` as the
/// metric of the same name, scaled from ns.
fn record(run: &mut Run, name: &'static str, scale: f64) {
    if let Some(ns) = run.sp.median_ns(name) {
        run.rep.metric(name, ns * scale);
    }
}

const MS: f64 = 1e-6;
const US: f64 = 1e-3;

/// Time every layer's public call; each metric is the median per call.
pub fn measure(run: &mut Run, ctx: &Ctx, model: &FusionModel) {
    let data = ctx.data();
    let fold0 = &ctx.folds[0];
    let mut train_kernels: Vec<usize> = fold0
        .train
        .iter()
        .map(|&i| ctx.task.sample_kernel[i])
        .collect();
    train_kernels.dedup();

    // mga-kernels / mga-ir: the catalog.
    for _ in 0..REPS {
        let specs = run.sp.time(
            "kernels.catalog_ms",
            mga_kernels::catalog::openmp_thread_dataset,
        );
        std::hint::black_box(specs);
    }
    record(run, "kernels.catalog_ms", MS);
    // mga-graph and mga-vec encode: timed per request in the cold phase.
    record(run, "graph.build_us", US);
    record(run, "vec.encode_us", US);

    // mga-vec: the TransE seed vocabulary over the catalog triples, at
    // the dataset's settings.
    let triples: Vec<_> = ctx
        .ds
        .specs
        .iter()
        .flat_map(|s| extract_triples(&s.module))
        .collect();
    let tcfg = TransEConfig {
        dim: ctx.ds.vectors[0].len(),
        epochs: 25,
        ..TransEConfig::default()
    };
    for _ in 0..REPS {
        let emb = run.sp.time("vec.transe_ms", || {
            train_seed_embeddings(&triples, &tcfg, PROGRAM_SEED)
        });
        std::hint::black_box(emb);
    }
    record(run, "vec.transe_ms", MS);

    // mga-sim: the profiling sweep over every (kernel, input, config)
    // plus the default-config profiling run.
    let default_cfg = OmpConfig::default_for(&ctx.ds.cpu);
    let mut simulations = 0usize;
    for _ in 0..REPS {
        let id = run.sp.open("sim.profile_ms");
        let mut acc = 0.0;
        simulations = 0;
        for spec in &ctx.ds.specs {
            for &ws in &ctx.ds.sizes {
                for cfg in ctx.ds.space.iter().chain(std::iter::once(&default_cfg)) {
                    acc += simulate(spec, ws, cfg, &ctx.ds.cpu).runtime;
                    simulations += 1;
                }
            }
        }
        run.sp.close(id, 1);
        std::hint::black_box(acc);
    }
    record(run, "sim.profile_ms", MS);
    run.rep.metric("sim.simulations", simulations as f64);

    // mga-dae: pretrain on fold 0's training vectors, encode one row.
    let train_vecs: Vec<Vec<f32>> = train_kernels
        .iter()
        .map(|&k| ctx.ds.vectors[k].clone())
        .collect();
    let mut trained = None;
    for _ in 0..REPS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(PROGRAM_SEED);
        trained = Some(run.sp.time("dae.pretrain_ms", || {
            pretrain(&train_vecs, ctx.cfg.dae.clone(), &mut rng)
        }));
    }
    record(run, "dae.pretrain_ms", MS);
    let trained = trained.expect("REPS > 0");
    for _ in 0..KERNEL_REPS {
        for v in &ctx.ds.vectors {
            let row = [v.clone()];
            let code = run
                .sp
                .time("dae.encode_us", || trained.encode_vectors(&row));
            std::hint::black_box(code);
        }
    }
    record(run, "dae.encode_us", US);

    // mga-gnn / mga-nn: a benchmark-owned GNN at the Fig. 4 config over
    // fold 0's training graphs: batch, forward, backward, AdamW step.
    let graphs: Vec<&ProGraph> = train_kernels.iter().map(|&k| &ctx.ds.graphs[k]).collect();
    let mut batch = None;
    for _ in 0..REPS * 4 {
        batch = Some(run.sp.time("gnn.batch_ms", || GraphBatch::new(&graphs)));
    }
    record(run, "gnn.batch_ms", MS);
    let batch = batch.expect("REPS > 0");
    let mut rng = rand::rngs::StdRng::seed_from_u64(PROGRAM_SEED);
    let mut ps = ParamSet::new();
    let gnn = HeteroGnn::new(&mut ps, "gnn", &ctx.cfg.gnn, &mut rng);
    let target = Tensor::zeros(graphs.len(), ctx.cfg.gnn.dim);
    let mut opt = AdamW::new(ctx.cfg.lr);
    let mut tape = Tape::new();
    for _ in 0..REPS * 4 {
        tape.reset();
        let out = run
            .sp
            .time("gnn.forward_ms", || gnn.forward(&mut tape, &ps, &batch));
        let loss = tape.mse_loss(out, &target);
        run.sp.time("nn.backward_ms", || tape.backward(loss));
        ps.zero_grads();
        run.sp.time("nn.adamw_step_us", || {
            tape.accumulate_param_grads(&mut ps);
            opt.step(&mut ps);
        });
    }
    record(run, "gnn.forward_ms", MS);
    record(run, "nn.backward_ms", MS);
    record(run, "nn.adamw_step_us", US);
    for _ in 0..KERNEL_REPS {
        for g in &ctx.ds.graphs {
            let emb = run.sp.time("gnn.forward_single_us", || {
                let single = GraphBatch::single(g);
                let mut tape = Tape::new();
                let v = gnn.forward(&mut tape, &ps, &single);
                tape.value(v).get(0, 0)
            });
            std::hint::black_box(emb);
        }
    }
    record(run, "gnn.forward_single_us", US);
    for _ in 0..REPS * 40 {
        let id = run.sp.open("nn.pool_dispatch_us");
        mga_nn::pool::parallel_for(8, |i| {
            std::hint::black_box(i);
        });
        run.sp.close(id, 1);
    }
    record(run, "nn.pool_dispatch_us", US);

    // mga-core: prepare, predict, static embedding.
    for _ in 0..REPS {
        let prep = run
            .sp
            .time("core.prepare_ms", || model.prepare(&data, &fold0.train));
        std::hint::black_box(prep.num_samples());
    }
    record(run, "core.prepare_ms", MS);
    for _ in 0..REPS {
        let p = run
            .sp
            .time("core.predict_ms", || model.predict(&data, &fold0.val));
        std::hint::black_box(p);
    }
    record(run, "core.predict_ms", MS);
    for _ in 0..KERNEL_REPS {
        for (g, v) in ctx.ds.graphs.iter().zip(&ctx.ds.vectors) {
            let row = run
                .sp
                .time("core.static_embedding_us", || model.static_embedding(g, v));
            std::hint::black_box(row);
        }
    }
    record(run, "core.static_embedding_us", US);

    // mga-serve: plan compile, plan rows, cache miss + insert.
    let mut plan = None;
    for _ in 0..REPS * 4 {
        plan = Some(
            run.sp
                .time("serve.compile_us", || InferencePlan::compile(model)),
        );
    }
    record(run, "serve.compile_us", US);
    let plan = plan.expect("REPS > 0");
    let sd = plan.static_dim();
    let in_dim = plan.in_dim();
    let statics: Vec<Vec<f32>> = ctx
        .ds
        .graphs
        .iter()
        .zip(&ctx.ds.vectors)
        .map(|(g, v)| model.static_embedding(g, v))
        .collect();
    for (rows, span) in [(1usize, "serve.plan_row_ns"), (8, "serve.plan_batch8_ns")] {
        let mut x = vec![0f32; rows * in_dim];
        let mut h = vec![0f32; rows * plan.hidden()];
        let mut lg = vec![0f32; rows * plan.max_classes()];
        let mut cls = vec![0usize; rows * plan.num_heads()];
        for rep in 0..REPS * 8 {
            let id = run.sp.open(span);
            for it in 0..INNER {
                for r in 0..rows {
                    let i = fold0.val[(rep * INNER + it * rows + r) % fold0.val.len()];
                    let row = &mut x[r * in_dim..(r + 1) * in_dim];
                    row[..sd].copy_from_slice(&statics[ctx.task.sample_kernel[i]]);
                    plan.scale_aux_into(&mut row[sd..], &ctx.task.aux[i]);
                }
                plan.trunk_into(&x, rows, &mut h);
                plan.heads_into(&h, rows, &mut lg, &mut cls, None);
            }
            run.sp.close(id, INNER);
            std::hint::black_box(&cls);
        }
        record(run, span, 1.0);
    }
    let mut cache = EmbeddingCache::new(crate::serve::COLD_CACHE, sd);
    let kernels = ctx.kernels();
    for (k, row) in statics.iter().enumerate().take(crate::serve::COLD_CACHE) {
        cache.insert(k, row);
    }
    // Cycling through all kernels in order always misses an LRU cache
    // smaller than the catalog, so every insert evicts.
    let mut k = crate::serve::COLD_CACHE;
    for _ in 0..REPS * 8 {
        let id = run.sp.open("serve.cache_insert_ns");
        for _ in 0..INNER {
            let hit = cache.lookup(k).is_some();
            std::hint::black_box(hit);
            cache.insert(k, &statics[k]);
            k = (k + 1) % kernels;
        }
        run.sp.close(id, INNER);
    }
    record(run, "serve.cache_insert_ns", 1.0);
}
