//! Serving performance snapshot: times the `mga-serve` engine on the
//! Figure-4 configuration and writes `BENCH_serve.json` (one `{name,
//! iters, ns_per_iter}` record per line, same schema as
//! `BENCH_train.json`) so `bench_check` can gate serving regressions.
//!
//! Records:
//! * `serve_one_request` — the synchronous single-request fast path
//!   (cached static embedding + scaler + trunk/heads), the successor to
//!   `inference_one_sample` for deployment latency;
//! * `serve_throughput` — ns per request through the batched engine on
//!   a steady request stream (the record carries `requests_per_sec` too);
//! * `serve_p50` / `serve_p95` / `serve_p99` — per-request wall latency
//!   percentiles over that stream, measured by this driver (the engine
//!   never reads a clock on a batching-decision path; batching stays
//!   deterministic). Each is the median over several sessions, since
//!   any single session's tail is dominated by OS jitter;
//! * `serve_p50_engine` / `serve_p95_engine` / `serve_p99_engine` — the
//!   same percentiles as measured *inside* the engine by its
//!   `serve.lat.e2e` log₂ histogram. These are bucket-midpoint
//!   estimates (values move in ~1.5–2× steps), so CI gates them with a
//!   far looser threshold than the driver-side records; the bench
//!   asserts driver and engine p99 agree within 8× (see `DESIGN.md`
//!   § Serving observability for the bound's derivation);
//! * `serve_one_request_bare` — the fast path with `telemetry: false`,
//!   so the recorder + histogram overhead stays visible as the gap to
//!   `serve_one_request`.
//!
//! With `MGA_FLIGHT=<path>` set, the engine's flight history (request +
//! drift JSONL) is dumped at exit; `MGA_PROM_OUT=<path>` snapshots the
//! metrics registry in Prometheus text format.
//!
//! Usage: `cargo run --release --bin serve_bench [--quick] [--seed N]`.

use mga_bench::{
    exit_on_error, finish_run, manifest, model_cfg, parse_opts, thread_dataset, BenchError,
};
use mga_core::cv::kfold_by_group;
use mga_core::model::{FusionModel, Modality, TrainData};
use mga_core::omp::OmpTask;
use mga_serve::{Cluster, ClusterConfig, Engine, InferencePlan, Request, ServeConfig};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Median ns per call over timed batches (~0.5 s measurement per entry);
/// same discipline as `bench_report`.
fn time(name: &str, records: &mut Vec<String>, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let budget = Duration::from_millis(500);
    let mut samples = Vec::new();
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget || iters == 0 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
        iters += 1;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let ns = samples[samples.len() / 2];
    println!("{name:<28} {ns:>16.1} ns/iter  ({iters} iters)");
    records.push(format!(
        "{{\"name\": \"{name}\", \"iters\": {iters}, \"ns_per_iter\": {ns:.1}}}"
    ));
    ns
}

/// Drive `stream` (sample indices) through the engine in submit bursts
/// of 4 per tick. When `latencies` is given, records each request's
/// submit→drain wall time in ns (driver-side clock only).
fn session(
    engine: &mut Engine<'_>,
    data: &TrainData<'_>,
    stream: &[usize],
    mut latencies: Option<&mut Vec<f64>>,
) {
    let mut submit_at: Vec<Instant> = vec![Instant::now(); stream.len()];
    let mut out = Vec::with_capacity(stream.len());
    let complete = |out: &mut Vec<mga_serve::Response>,
                    latencies: &mut Option<&mut Vec<f64>>,
                    submit_at: &[Instant],
                    engine: &mut Engine<'_>| {
        for r in out.drain(..) {
            if let Some(lat) = latencies.as_deref_mut() {
                lat.push(submit_at[r.id as usize].elapsed().as_nanos() as f64);
            }
            engine.recycle(r);
        }
    };
    for (burst, chunk) in stream.chunks(4).enumerate() {
        for (j, &i) in chunk.iter().enumerate() {
            let id = (burst * 4 + j) as u64;
            submit_at[id as usize] = Instant::now();
            engine
                .submit(Request {
                    id,
                    kernel: data.sample_kernel[i],
                    aux: data.aux[i].clone(),
                })
                .expect("admit");
        }
        engine.tick();
        engine.drain(&mut out);
        complete(&mut out, &mut latencies, &submit_at, engine);
    }
    while engine.queue_depth() > 0 {
        engine.tick();
        engine.drain(&mut out);
        complete(&mut out, &mut latencies, &submit_at, engine);
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    exit_on_error("serve_bench", run());
}

fn run() -> Result<(), BenchError> {
    let opts = parse_opts();
    let ds = thread_dataset(opts);
    let task = OmpTask::new(&ds);
    let data = task.train_data(&ds);
    let folds = kfold_by_group(&ds.groups(), 5, opts.seed);
    let fold = &folds[0];
    let cfg = model_cfg(opts, Modality::Multimodal, true);

    println!(
        "serve_bench: Fig. 4 config, {} train / {} val samples, {} threads",
        fold.train.len(),
        fold.val.len(),
        mga_nn::pool::num_threads()
    );

    let mut man = manifest("serve_bench", opts);
    man.set_int("train_samples", fold.train.len() as i64)
        .set_int("val_samples", fold.val.len() as i64);

    let model = FusionModel::fit(cfg, &data, &fold.train, &task.codec.head_sizes());

    // Plan-compile cost is part of the deployment story: record it in
    // the manifest so regressions in compile time are visible, not just
    // per-request cost.
    let t0 = Instant::now();
    let f32_plan = InferencePlan::compile(&model);
    let compile_ns = t0.elapsed().as_nanos() as f64;
    man.set_float("plan_compile_ns", compile_ns)
        .set_int("plan_weight_bytes_f32", f32_plan.weight_bytes() as i64);
    drop(f32_plan);

    let serve_cfg = ServeConfig {
        max_batch: 8,
        max_wait_ticks: 2,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&model, data.graphs, data.vectors, serve_cfg.clone());
    let prep = model.prepare(&data, &fold.train);
    let warmed = engine.warm(&prep);
    man.set_int("warmed_kernels", warmed as i64);

    // Parity gate before timing anything: the engine must reproduce the
    // training-side predict exactly on the validation fold.
    let preds = model.predict(&data, &fold.val);
    let nh = engine.plan().num_heads();
    let mut cls = vec![0usize; nh];
    for (j, &i) in fold.val.iter().enumerate() {
        engine
            .serve_one(data.sample_kernel[i], &data.aux[i], &mut cls)
            .expect("serve");
        for (h, pred) in preds.iter().enumerate() {
            if cls[h] != pred[j] {
                return Err(BenchError::Invariant(format!(
                    "serving diverged from predict on sample {i} head {h}: {} vs {}",
                    cls[h], pred[j]
                )));
            }
        }
    }
    println!(
        "parity: engine == predict on all {} val samples\n",
        fold.val.len()
    );

    let mut records = Vec::new();

    // Single-request fast path (the inference_one_sample successor).
    let val0 = fold.val[0];
    let (k0, aux0) = (data.sample_kernel[val0], &data.aux[val0]);
    let one_ns = time("serve_one_request", &mut records, || {
        engine.serve_one(k0, aux0, &mut cls).expect("serve");
        std::hint::black_box(&cls);
    });

    // The same path with telemetry off, to keep the recorder +
    // histogram cost honest (the `serve_one_request` CI gate holds the
    // telemetry-on number; this record makes the overhead inspectable).
    {
        let mut bare = Engine::new(
            &model,
            data.graphs,
            data.vectors,
            ServeConfig {
                telemetry: false,
                ..serve_cfg.clone()
            },
        );
        bare.warm(&prep);
        let bare_ns = time("serve_one_request_bare", &mut records, || {
            bare.serve_one(k0, aux0, &mut cls).expect("serve");
            std::hint::black_box(&cls);
        });
        let overhead_pct = (one_ns - bare_ns) / bare_ns * 100.0;
        println!("    (telemetry overhead: {overhead_pct:+.1}%)");
        man.set_float("serve_one_request_bare_ns", bare_ns)
            .set_float("telemetry_overhead_pct", overhead_pct);
    }

    // Steady request stream for throughput and latency percentiles:
    // validation samples cycled to a fixed request count.
    let n_requests = if opts.quick { 512 } else { 2048 };
    let stream: Vec<usize> = (0..n_requests)
        .map(|r| fold.val[r % fold.val.len()])
        .collect();

    session(&mut engine, &data, &stream, None); // warm-up pass
    let budget = Duration::from_millis(500);
    let mut per_req = Vec::new();
    let start = Instant::now();
    let mut sessions = 0u64;
    while start.elapsed() < budget || sessions == 0 {
        let t0 = Instant::now();
        session(&mut engine, &data, &stream, None);
        per_req.push(t0.elapsed().as_nanos() as f64 / n_requests as f64);
        sessions += 1;
    }
    per_req.sort_by(|a, b| a.total_cmp(b));
    let thr_ns = per_req[per_req.len() / 2];
    let rps = 1e9 / thr_ns;
    println!(
        "{:<28} {thr_ns:>16.1} ns/iter  ({sessions} sessions, {rps:.0} req/s)",
        "serve_throughput"
    );
    records.push(format!(
        "{{\"name\": \"serve_throughput\", \"iters\": {sessions}, \"ns_per_iter\": {thr_ns:.1}, \"requests_per_sec\": {rps:.1}}}"
    ));

    // Tail percentiles are dominated by OS jitter in any single session,
    // so each percentile is the *median over several sessions* — stable
    // enough for a one-sided 15% CI gate.
    const LAT_SESSIONS: usize = 9;
    // Snapshot the engine-side e2e histogram here so the diff below
    // isolates exactly the latency sessions (warm-up, parity and
    // throughput traffic is excluded).
    let e2e_before = mga_obs::metrics::log_histogram("serve.lat.e2e").snapshot();
    let mut per_session: Vec<Vec<f64>> = Vec::with_capacity(LAT_SESSIONS);
    let mut latencies = Vec::with_capacity(n_requests);
    for _ in 0..LAT_SESSIONS {
        latencies.clear();
        session(&mut engine, &data, &stream, Some(&mut latencies));
        latencies.sort_by(|a, b| a.total_cmp(b));
        per_session.push(latencies.clone());
    }
    let e2e_engine = mga_obs::metrics::log_histogram("serve.lat.e2e")
        .snapshot()
        .diff(&e2e_before);
    let median_pctl = |p: f64| -> f64 {
        let mut vals: Vec<f64> = per_session.iter().map(|s| percentile(s, p)).collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        vals[vals.len() / 2]
    };
    let (p50, p99) = (median_pctl(50.0), median_pctl(99.0));
    for (name, ns) in [
        ("serve_p50", p50),
        ("serve_p95", median_pctl(95.0)),
        ("serve_p99", p99),
    ] {
        println!(
            "{name:<28} {ns:>16.1} ns/iter  ({n_requests} requests x {LAT_SESSIONS} sessions)"
        );
        records.push(format!(
            "{{\"name\": \"{name}\", \"iters\": {n_requests}, \"ns_per_iter\": {ns:.1}}}"
        ));
    }

    // Engine-side percentiles from the in-engine e2e histogram over the
    // same traffic. Every latency-session request must have been
    // observed, and the engine's p99 must agree with the driver's
    // within 8× — log-bucket midpoints contribute up to 2×, and the
    // driver additionally measures submit→drain (engine measures
    // submit→dispatch-complete), so modest disagreement is expected but
    // an order of magnitude means a broken clock or histogram.
    let expected = (LAT_SESSIONS * n_requests) as u64;
    if e2e_engine.count != expected {
        return Err(BenchError::Invariant(format!(
            "engine e2e histogram saw {} requests, expected {expected}",
            e2e_engine.count
        )));
    }
    let (p50_eng, p95_eng, p99_eng) = (
        e2e_engine.percentile(50.0) as f64,
        e2e_engine.percentile(95.0) as f64,
        e2e_engine.percentile(99.0) as f64,
    );
    for (name, ns) in [
        ("serve_p50_engine", p50_eng),
        ("serve_p95_engine", p95_eng),
        ("serve_p99_engine", p99_eng),
    ] {
        println!("{name:<28} {ns:>16.1} ns/iter  (engine-side histogram)");
        records.push(format!(
            "{{\"name\": \"{name}\", \"iters\": {expected}, \"ns_per_iter\": {ns:.1}}}"
        ));
    }
    let ratio = p99.max(p99_eng) / p99.min(p99_eng).max(1.0);
    println!("p99 agreement: driver {p99:.0} ns vs engine {p99_eng:.0} ns ({ratio:.2}x)");
    if ratio > 8.0 {
        return Err(BenchError::Invariant(format!(
            "driver p99 {p99:.0} ns and engine p99 {p99_eng:.0} ns disagree by {ratio:.1}x (bound 8x)"
        )));
    }

    let (hits, misses, evictions) = engine.cache().stats();
    println!(
        "\ncache: {hits} hits / {misses} misses / {evictions} evictions; \
         steady-state arena alloc {} bytes, {} buffer reuses",
        engine.steady_alloc_bytes(),
        engine.arena_reuse()
    );
    engine.publish_metrics();
    engine.dump_flight_if_enabled();
    man.set_float("serve_one_request_ns", one_ns)
        .set_float("serve_throughput_ns", thr_ns)
        .set_float("requests_per_sec", rps)
        .set_float("serve_p50_ns", p50)
        .set_float("serve_p99_ns", p99)
        .set_float("serve_p50_engine_ns", p50_eng)
        .set_float("serve_p99_engine_ns", p99_eng)
        .set_int("cache_hits", hits as i64)
        .set_int("cache_misses", misses as i64)
        .set_int("flight_recorded", engine.flight().total() as i64)
        .set_int("drift_events", engine.drift_events().len() as i64)
        .set_int("steady_alloc_bytes", engine.steady_alloc_bytes() as i64);

    // ── Cluster scaling curve: the same request stream through 1/2/4/8
    // shard clusters (shards tick serially on the caller thread). The
    // driver uses the zero-allocation `submit_ref` intake, so the curve
    // measures sharding overhead — routing, admission and per-shard
    // ticks — not the driver; the `cluster_scaling_8x` record is the
    // 8-shard / 1-shard ns ratio ×1000 (lower is better), which CI gates
    // so a change that inflates the cluster layer shows up as a
    // regression.
    let mut shard_ns = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let ccfg = ClusterConfig {
            shards,
            queue_capacity: 1 << 14,
            serve: serve_cfg.clone(),
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(&model, data.graphs, data.vectors, ccfg);
        for s in 0..shards {
            cluster.engine_mut(s).warm(&prep);
        }
        // Bursts scale with the shard count so every shard sees full
        // micro-batches; total request count is fixed.
        let burst = 8 * shards;
        let mut out = Vec::with_capacity(2 * burst);
        let mut run_once = |cluster: &mut Cluster<'_>| {
            for (b, chunk) in stream.chunks(burst).enumerate() {
                for (j, &i) in chunk.iter().enumerate() {
                    // Typed sheds are a valid outcome when the user arms
                    // an MGA_FAULT shard site; fault-free gate runs
                    // admit everything.
                    let _ = cluster.submit_ref(
                        (b * burst + j) as u64,
                        data.sample_kernel[i],
                        &data.aux[i],
                        None,
                    );
                }
                cluster.tick();
                cluster.drain(&mut out);
                out.clear();
            }
            cluster.flush();
            cluster.drain(&mut out);
            out.clear();
        };
        run_once(&mut cluster); // warm-up
        let budget = Duration::from_millis(300);
        let mut samples = Vec::new();
        let start = Instant::now();
        while start.elapsed() < budget || samples.is_empty() {
            let t0 = Instant::now();
            run_once(&mut cluster);
            samples.push(t0.elapsed().as_nanos() as f64 / n_requests as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let ns = samples[samples.len() / 2];
        let name = format!("cluster_throughput_shards{shards}");
        println!(
            "{name:<28} {ns:>16.1} ns/iter  ({} sessions, {:.0} req/s)",
            samples.len(),
            1e9 / ns
        );
        records.push(format!(
            "{{\"name\": \"{name}\", \"iters\": {}, \"ns_per_iter\": {ns:.1}}}",
            samples.len()
        ));
        man.set_float(&format!("cluster_throughput_shards{shards}_ns"), ns);
        shard_ns.push(ns);
        if shards == 8 {
            cluster.publish_metrics();
        }
    }
    let scaling_milli = 1000.0 * shard_ns[3] / shard_ns[0];
    println!(
        "{:<28} {scaling_milli:>16.1} ns/iter  (8-shard/1-shard ratio x1000; speedup {:.2}x)",
        "cluster_scaling_8x",
        shard_ns[0] / shard_ns[3]
    );
    records.push(format!(
        "{{\"name\": \"cluster_scaling_8x\", \"iters\": 1, \"ns_per_iter\": {scaling_milli:.1}}}"
    ));
    man.set_float("cluster_speedup_8x", shard_ns[0] / shard_ns[3]);

    // ── Offered-load sweep: arrivals from 0.25× to 2× the 4-shard
    // cluster's per-tick intake capacity against *bounded* queues (one
    // full micro-batch deep per shard, so a tick can absorb at most
    // `shards × max_batch` before admission starts refusing). Below
    // saturation nearly everything is admitted; past it, admission
    // sheds at the door — the per-load shed-rate records (shed per
    // mille of offered) keep the overload story visible in CI next to
    // raw throughput, and `cluster_saturation_throughput` is the ns per
    // *served* request at 2× offered load, i.e. the cluster's ceiling
    // with admission control doing its job.
    {
        let shards = 4usize;
        let per_tick_capacity = shards * serve_cfg.max_batch;
        let ticks = if opts.quick { 48 } else { 128 };
        let mut saturated_ns = 0.0f64;
        let mut shed_curve = Vec::new();
        println!();
        for &(load_milli, tag) in &[
            (250u64, "025"),
            (500, "050"),
            (1000, "100"),
            (1500, "150"),
            (2000, "200"),
        ] {
            let offered_per_tick = ((per_tick_capacity as u64 * load_milli) / 1000).max(1) as usize;
            let ccfg = ClusterConfig {
                shards,
                queue_capacity: serve_cfg.max_batch,
                serve: serve_cfg.clone(),
                ..ClusterConfig::default()
            };
            let mut cluster = Cluster::new(&model, data.graphs, data.vectors, ccfg);
            for s in 0..shards {
                cluster.engine_mut(s).warm(&prep);
            }
            let mut out = Vec::new();
            let mut next_id = 0u64;
            let mut run_once = |cluster: &mut Cluster<'_>, next_id: &mut u64| -> u64 {
                let offered = (ticks * offered_per_tick) as u64;
                for _ in 0..ticks {
                    for _ in 0..offered_per_tick {
                        let i = stream[(*next_id as usize) % stream.len()];
                        let _ =
                            cluster.submit_ref(*next_id, data.sample_kernel[i], &data.aux[i], None);
                        *next_id += 1;
                    }
                    cluster.tick();
                    cluster.drain(&mut out);
                    out.clear();
                }
                cluster.flush();
                cluster.drain(&mut out);
                out.clear();
                offered
            };
            run_once(&mut cluster, &mut next_id); // warm-up
            let accepted0 = cluster.accepted_total();
            let answered0 = cluster.answered_total();
            let budget = Duration::from_millis(200);
            let mut samples = Vec::new();
            let mut offered_total = 0u64;
            let start = Instant::now();
            while start.elapsed() < budget || samples.is_empty() {
                let t0 = Instant::now();
                offered_total += run_once(&mut cluster, &mut next_id);
                samples.push(t0.elapsed().as_nanos() as f64);
            }
            let served = cluster.answered_total() - answered0;
            let accepted = cluster.accepted_total() - accepted0;
            let shed = offered_total - accepted;
            let shed_permille = 1000.0 * shed as f64 / offered_total as f64;
            samples.sort_by(|a, b| a.total_cmp(b));
            let ns_per_served = samples[samples.len() / 2] / (served as f64 / samples.len() as f64);
            assert_eq!(
                accepted, served,
                "load {load_milli}: every accepted request must be answered"
            );
            println!(
                "cluster_load_{tag}            offered {offered_per_tick:>3}/tick  \
                 shed {shed_permille:>6.1}‰  {ns_per_served:>12.1} ns/served",
            );
            records.push(format!(
                "{{\"name\": \"cluster_shed_rate_{tag}\", \"iters\": {offered_total}, \"ns_per_iter\": {shed_permille:.1}}}"
            ));
            man.set_float(&format!("cluster_shed_permille_{tag}"), shed_permille);
            if load_milli == 2000 {
                saturated_ns = ns_per_served;
            }
            shed_curve.push(shed_permille);
        }
        // The curve must actually show admission control working: real
        // overload sheds, and the shed rate does not shrink as offered
        // load doubles past capacity.
        assert!(
            shed_curve[4] > 0.0,
            "2x offered load must shed against one-batch-deep queues"
        );
        assert!(
            shed_curve[0] <= shed_curve[4],
            "shed rate must not decrease from 0.25x to 2x offered load"
        );
        println!(
            "{:<28} {saturated_ns:>16.1} ns/iter  (per served request at 2x offered load)",
            "cluster_saturation_throughput"
        );
        records.push(format!(
            "{{\"name\": \"cluster_saturation_throughput\", \"iters\": 1, \"ns_per_iter\": {saturated_ns:.1}}}"
        ));
        man.set_float("cluster_saturation_throughput_ns", saturated_ns);
    }

    let path = "BENCH_serve.json";
    let mut fh = std::fs::File::create(path)?;
    for r in &records {
        writeln!(fh, "{r}")?;
    }
    println!("\nwrote {} records to {path}", records.len());
    finish_run(&mut man);
    Ok(())
}
