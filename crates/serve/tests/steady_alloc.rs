//! The cluster's steady state touches no allocator.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up that fills every shard's embedding cache, spare buffers and
//! queues, whole rounds of `submit_ref` → `tick` → `drain` (into a
//! pre-reserved `Vec`, responses recycled to the shard that served them)
//! must make zero allocation calls on any thread.
//!
//! This binary holds a single test: the counter is process-wide, and a
//! second test running concurrently would allocate inside the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mga_core::cv::kfold_by_group;
use mga_core::dataset::OmpDataset;
use mga_core::model::{FusionModel, Modality, ModelConfig, TrainData};
use mga_core::omp::OmpTask;
use mga_dae::DaeConfig;
use mga_gnn::GnnConfig;
use mga_kernels::catalog::openmp_thread_dataset;
use mga_serve::{Cluster, ClusterConfig, Response, ServeConfig};
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;

struct Counting;

/// Allocation calls so far; a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One round of traffic: `per_round` borrowed submits, one tick, one
/// drain, every response handed back to the engine that served it.
/// Returns how many responses came back.
fn round(
    cluster: &mut Cluster<'_>,
    data: &TrainData<'_>,
    next_id: &mut u64,
    per_round: usize,
    shard_of: &mut [usize],
    out: &mut Vec<Response>,
) -> usize {
    let n = data.num_samples();
    for _ in 0..per_round {
        let id = *next_id;
        *next_id += 1;
        let i = id as usize % n;
        let shard = cluster
            .submit_ref(id, data.sample_kernel[i], &data.aux[i], None)
            .expect("steady load stays under capacity");
        shard_of[id as usize % shard_of.len()] = shard;
    }
    cluster.tick();
    cluster.drain(out);
    let got = out.len();
    for r in out.drain(..) {
        let shard = shard_of[r.id as usize % shard_of.len()];
        cluster.engine_mut(shard).recycle(r);
    }
    got
}

#[test]
fn warmed_submit_tick_drain_rounds_allocate_nothing() {
    let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(4).collect();
    let cpu = CpuSpec::comet_lake();
    let ds = OmpDataset::build(specs, vec![1e5, 1e7, 3e8], thread_space(&cpu), cpu, 16, 3);
    let task = OmpTask::new(&ds);
    let data = task.train_data(&ds);
    let cfg = ModelConfig {
        modality: Modality::Multimodal,
        use_aux: true,
        gnn: GnnConfig {
            dim: 12,
            layers: 1,
            update: mga_gnn::UpdateKind::Gru,
            homogeneous: false,
        },
        dae: DaeConfig {
            input_dim: 16,
            hidden_dim: 10,
            code_dim: 5,
            epochs: 5,
            ..DaeConfig::default()
        },
        hidden: 24,
        epochs: 5,
        lr: 0.02,
        seed: 5,
    };
    let folds = kfold_by_group(&ds.groups(), 4, 2);
    let model = FusionModel::fit(cfg, &data, &folds[0].train, &task.codec.head_sizes());

    for shards in [1usize, 4] {
        let max_batch = 4;
        let mut cluster = Cluster::new(
            &model,
            data.graphs,
            data.vectors,
            ClusterConfig {
                shards,
                queue_capacity: 64,
                serve: ServeConfig {
                    max_batch,
                    max_wait_ticks: 1,
                    // Every kernel stays resident: a miss would compute
                    // (and allocate) a fresh embedding.
                    cache_capacity: data.graphs.len(),
                    ..ServeConfig::default()
                },
                ..ClusterConfig::default()
            },
        );
        // Full ticks on a single shard, partial ones spread over four.
        let per_round = shards * max_batch;
        let mut out: Vec<Response> = Vec::with_capacity(64 * shards);
        let mut shard_of = vec![0usize; 4096];
        let mut next_id = 0u64;
        // Warm-up: several passes over every sample fill the caches and
        // every spare pool to its high-water mark.
        let warm_rounds = 4 * data.sample_kernel.len() / per_round + 8;
        for _ in 0..warm_rounds {
            round(
                &mut cluster,
                &data,
                &mut next_id,
                per_round,
                &mut shard_of,
                &mut out,
            );
        }

        let before = ALLOCS.load(Ordering::SeqCst);
        let mut served = 0;
        for _ in 0..200 {
            served += round(
                &mut cluster,
                &data,
                &mut next_id,
                per_round,
                &mut shard_of,
                &mut out,
            );
        }
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert!(served > 0, "{shards} shard(s): the window served nothing");
        assert_eq!(
            allocs, 0,
            "{shards} shard(s): {allocs} allocations over 200 warmed rounds ({served} responses)"
        );
    }
}
