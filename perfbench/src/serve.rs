//! Serving phases: unseen-kernel (cold) requests on a small-cache
//! engine, and warm traffic through the sharded cluster on a logical
//! tick schedule plus synchronous warm requests.

use std::time::Instant;

use mga_core::model::{FusionModel, PreparedBatch};
use mga_graph::{build_module_graph, ProGraph, Relation};
use mga_obs::hist::HistSnapshot;
use mga_obs::{clock, metrics};
use mga_serve::{Cluster, ClusterConfig, Engine, Response, ServeConfig, ServeError};

use crate::run::Run;
use crate::setup::{ColdStream, Ctx};
use crate::stats::{
    fast_rate, fast_time, median, percentile, percentile_sorted, windows, SplitMix,
};

/// Cold engine cache: below the 45 catalog kernels, so the cold stream
/// can always name a kernel that is not resident.
pub const COLD_CACHE: usize = 16;
/// Cold-stream rounds per window: 22 rounds of the 45 catalog kernels
/// are 990 requests, 22 of each kernel, so every window holds the same
/// kernel mix and each kernel's median in it is over 22 requests.
const COLD_WINDOW_ROUNDS: usize = 22;

/// Untimed warm-up ticks of a fresh cluster at 1× load.
const HOT_WARMUP_TICKS: usize = 256;
/// Ticks per throughput/latency window: 1024 responses at 1× load, so
/// a window's p99 has 10 responses beyond it. Short windows keep a host
/// stall to few of them.
const HOT_WINDOW_TICKS: usize = 32;
/// Synchronous warm requests per timed batch.
const ONE_BATCH: usize = 256;
/// Submission-time ring, indexed by request id; far deeper than the
/// requests a cluster can hold at once.
const RING: usize = 1 << 16;
/// Queue-wait histogram width, in ticks.
const QUEUE_TICK_BUCKETS: usize = 64;

/// Offered load per tick, in halves of the per-tick batch capacity
/// (shards × max_batch), with its tag and shed-share metric.
const LOADS: [(usize, &str, &str); 3] = [
    (1, "050", "serve.shed_share.050"),
    (2, "100", "serve.shed_share.100"),
    (3, "150", "serve.shed_share.150"),
];

/// Smallest bucket index at or below which 99% of the counts lie.
fn histogram_p99(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    let rank = (total as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    for (ticks, &n) in counts.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return ticks as f64;
        }
    }
    0.0
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_shape(a: &ProGraph, b: &ProGraph) -> bool {
    a.num_nodes() == b.num_nodes()
        && Relation::ALL
            .iter()
            .all(|&r| a.num_edges(r) == b.num_edges(r))
}

/// Gate steady-state allocation of `engines`; returns their summed
/// cache hits and misses.
fn engine_gates(run: &mut Run, what: &str, engines: &[&Engine<'_>]) -> (u64, u64) {
    let (mut hits, mut misses, mut alloc) = (0, 0, 0);
    for e in engines {
        let (h, m, _) = e.cache().stats();
        hits += h;
        misses += m;
        alloc += e.steady_alloc_bytes();
    }
    run.rep.gate(
        format!("{what}: steady_alloc_bytes == 0"),
        alloc == 0,
        format!("{alloc} bytes over {} engine(s)", engines.len()),
    );
    (hits, misses)
}

// ---------------------------------------------------------------- cold

/// Unseen-kernel requests: build the kernel's graph and IR2Vec vector
/// from its IR, then `Engine::serve_one`, which misses the cache.
/// Reports `cold_p50_us` and `cold_p99_us`.
pub struct Cold<'a> {
    engine: Engine<'a>,
    stream: ColdStream,
    cls: Vec<usize>,
    lat_us: Vec<f64>,
    /// The kernel each entry of `lat_us` named.
    lat_kernel: Vec<usize>,
    attempted: u64,
    failed: u64,
    bad_cls: u64,
    bad_vec: u64,
    bad_graph: u64,
    kernels: usize,
}

impl<'a> Cold<'a> {
    /// A default-config engine with a cache of [`COLD_CACHE`] kernels,
    /// after one untimed round of the stream as warm-up, so timed
    /// windows start on a round boundary.
    pub fn new(ctx: &'a Ctx, model: &'a FusionModel, seed: u64) -> Cold<'a> {
        let cfg = ServeConfig {
            cache_capacity: COLD_CACHE,
            ..ServeConfig::default()
        };
        let mut engine = Engine::new(model, &ctx.ds.graphs, &ctx.ds.vectors, cfg);
        let mut stream = ColdStream::new(seed, ctx.kernels(), ctx.inputs, COLD_CACHE);
        let mut cls = vec![0usize; engine.plan().num_heads()];
        for _ in 0..ctx.kernels() {
            let (k, input) = stream.next();
            // A refusal here resurfaces in the measured phase's counts.
            let _ = engine.serve_one(k, &ctx.task.aux[ctx.sample(k, input)], &mut cls);
        }
        Cold {
            engine,
            stream,
            cls,
            lat_us: Vec::new(),
            lat_kernel: Vec::new(),
            attempted: 0,
            failed: 0,
            bad_cls: 0,
            bad_vec: 0,
            bad_graph: 0,
            kernels: ctx.kernels(),
        }
    }

    /// Serve cold requests until `until` (at least one).
    pub fn step(&mut self, run: &mut Run, ctx: &Ctx, expected: &[Vec<usize>], until: Instant) {
        run.gap.restart();
        loop {
            let (k, input) = self.stream.next();
            let i = ctx.sample(k, input);
            let module = &ctx.ds.specs[k].module;
            let (engine, cls) = (&mut self.engine, &mut self.cls);
            let t0 = Instant::now();
            let request = run.sp.open("cold.request");
            let graph = run.sp.time("graph.build_us", || build_module_graph(module));
            let vector = run
                .sp
                .time("vec.encode_us", || ctx.ds.embeddings.encode_module(module));
            let served = run.sp.time("serve.serve_one_miss", || {
                engine.serve_one(k, &ctx.task.aux[i], cls)
            });
            run.sp.close(request, 1);
            let done = Instant::now();
            run.gap.beat();
            self.attempted += 1;
            match served {
                Ok(()) => {
                    self.lat_us.push((done - t0).as_secs_f64() * 1e6);
                    self.lat_kernel.push(k);
                    self.bad_cls += u64::from(*cls != expected[i]);
                }
                Err(_) => self.failed += 1,
            }
            self.bad_vec += u64::from(!same_bits(&vector, &ctx.ds.vectors[k]));
            self.bad_graph += u64::from(!same_shape(&graph, &ctx.ds.graphs[k]));
            if done >= until {
                break;
            }
        }
    }

    pub fn finish(self, run: &mut Run) {
        let attempted = self.attempted;
        run.rep.phase("serve.cold_requests", attempted, self.failed);
        run.rep.gate(
            "cold: served classes == predict",
            self.bad_cls == 0,
            format!("{} of {} differ", self.bad_cls, self.lat_us.len()),
        );
        run.rep.gate(
            "cold: fresh vector == catalog (bitwise)",
            self.bad_vec == 0,
            format!("{} of {attempted} differ", self.bad_vec),
        );
        run.rep.gate(
            "cold: fresh graph == catalog (nodes, edges per relation)",
            self.bad_graph == 0,
            format!("{} of {attempted} differ", self.bad_graph),
        );
        let (hits, misses) = engine_gates(run, "cold", &[&self.engine]);
        run.rep.gate(
            "cold: cache hit share == 0",
            hits == 0,
            format!("{hits} hits, {misses} misses"),
        );
        run.rep.metric(
            "serve.cache_hit_share.cold",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        let window = COLD_WINDOW_ROUNDS * self.kernels;
        for (metric, p) in [("cold_p50_us", 50.0), ("cold_p99_us", 99.0)] {
            let per_window: Vec<f64> = windows(&self.lat_us, window)
                .zip(windows(&self.lat_kernel, window))
                .map(|(lat, kernel)| kernel_percentile(lat, kernel, self.kernels, p))
                .collect();
            let value = if per_window.is_empty() {
                f64::NAN
            } else {
                fast_time(&per_window)
            };
            run.rep.metric(metric, value);
        }
    }
}

/// Percentile `p` over kernels of each kernel's median latency in `lat`,
/// where `kernel[i]` is the kernel request `i` named. The catalog's
/// kernels fall into clusters of similar cost, so a percentile of the
/// requests themselves can sit in the gap between two clusters, where
/// the requests' jitter moves it by the width of the gap, and a host
/// stall that delays a few requests sets the tail. Each kernel's own
/// median is steady, and so is any percentile over kernels.
fn kernel_percentile(lat: &[f64], kernel: &[usize], kernels: usize, p: f64) -> f64 {
    let mut per_kernel = vec![Vec::new(); kernels];
    for (&l, &k) in lat.iter().zip(kernel) {
        per_kernel[k].push(l);
    }
    let medians: Vec<f64> = per_kernel
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    percentile(&medians, p)
}

// ----------------------------------------------------------------- hot

/// Drives a cluster tick by tick: seeded arrivals, one `tick`, one
/// `drain`; checks every response against `predict`.
struct LoadGen {
    gen: SplitMix,
    next_id: u64,
    submit_ns: Vec<u64>,
    sample_of: Vec<u32>,
    out: Vec<Response>,
    /// Submit-to-drain latency of responses since the last window.
    lat_ns: Vec<f64>,
    /// Responses by `completed_tick - enqueued_tick` since the last
    /// slice (the last bucket holds everything at least that late).
    queue_ticks: Vec<u64>,
    offered: u64,
    shed: u64,
    errors: u64,
    served: u64,
    mismatches: u64,
}

impl LoadGen {
    fn new(seed: u64) -> LoadGen {
        LoadGen {
            gen: SplitMix::new(seed, 2),
            next_id: 0,
            submit_ns: vec![0; RING],
            sample_of: vec![0; RING],
            out: Vec::with_capacity(1024),
            lat_ns: Vec::with_capacity(1 << 16),
            queue_ticks: vec![0; QUEUE_TICK_BUCKETS],
            offered: 0,
            shed: 0,
            errors: 0,
            served: 0,
            mismatches: 0,
        }
    }

    fn tick(
        &mut self,
        run: &mut Run,
        ctx: &Ctx,
        expected: &[Vec<usize>],
        cluster: &mut Cluster<'_>,
        arrivals: usize,
    ) {
        let n = ctx.ds.samples.len();
        let tick_span = run.sp.open("hot.tick");
        let id_span = run.sp.open("serve.submit_ns");
        for _ in 0..arrivals {
            let i = self.gen.below(n);
            let id = self.next_id;
            self.next_id += 1;
            let slot = id as usize & (RING - 1);
            self.sample_of[slot] = i as u32;
            self.submit_ns[slot] = clock::now_ns();
            self.offered += 1;
            match cluster.submit_ref(id, ctx.task.sample_kernel[i], &ctx.task.aux[i], None) {
                Ok(_) => {}
                Err(ServeError::QueueFull { .. }) | Err(ServeError::DeadlineExceeded { .. }) => {
                    self.shed += 1
                }
                Err(_) => self.errors += 1,
            }
        }
        run.sp.close(id_span, arrivals);
        run.sp.time("serve.tick_us", || cluster.tick());
        let out = &mut self.out;
        run.sp.time("serve.drain_us", || cluster.drain(out));
        run.sp.close(tick_span, 1);
        self.collect(expected, true);
    }

    /// Check drained responses; record latency when `timed`.
    fn collect(&mut self, expected: &[Vec<usize>], timed: bool) {
        let now = clock::now_ns();
        for r in self.out.drain(..) {
            let slot = r.id as usize & (RING - 1);
            let i = self.sample_of[slot] as usize;
            self.served += 1;
            self.mismatches += u64::from(r.classes != expected[i]);
            if timed {
                self.lat_ns
                    .push(now.saturating_sub(self.submit_ns[slot]) as f64);
                let waited = (r.completed_tick - r.enqueued_tick) as usize;
                self.queue_ticks[waited.min(QUEUE_TICK_BUCKETS - 1)] += 1;
            }
        }
    }

    fn finish(&mut self, expected: &[Vec<usize>], cluster: &mut Cluster<'_>) {
        cluster.flush();
        cluster.drain(&mut self.out);
        self.collect(expected, false);
    }
}

/// Latency histograms of the engines' serving stages, and the metric
/// each one's median feeds.
const STAGES: [(&str, &str); 5] = [
    ("serve.lat.queue_wait", "serve.stage.queue_wait_ns"),
    ("serve.lat.cache_lookup", "serve.stage.cache_lookup_ns"),
    ("serve.lat.scale_aux", "serve.stage.scale_aux_ns"),
    ("serve.lat.trunk", "serve.stage.trunk_ns"),
    ("serve.lat.heads", "serve.stage.heads_ns"),
];

/// Spans of the cluster calls timed at 1× load.
const CLUSTER_SPANS: [&str; 3] = ["serve.submit_ns", "serve.tick_us", "serve.drain_us"];

/// What one offered-load level accumulates over its slices.
#[derive(Default)]
struct Load {
    offered: u64,
    refused: u64,
    accepted: u64,
    answered: u64,
    rps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    queue_ticks: Vec<u64>,
    batches: u64,
    batched: u64,
    stages: Vec<HistSnapshot>,
    span_ns: [Vec<f64>; 3],
}

/// Warm traffic: the default 4-shard cluster, every kernel warmed on
/// every shard, on a logical-tick schedule at 0.5×, 1× and 1.5× of its
/// per-tick batch capacity (shards × max_batch); then synchronous
/// `serve_one` on resident kernels of a warmed default engine. Reports
/// `hot_rps`, `hot_p50_us`, `hot_p99_us` (1× load) and `hot_one_ns`.
pub struct Hot<'a> {
    cluster: Cluster<'a>,
    one: Engine<'a>,
    capacity: usize,
    drv: LoadGen,
    loads: [Load; 3],
    picks: Vec<usize>,
    cls: Vec<usize>,
    one_ns: Vec<f64>,
    one_attempted: u64,
    one_failed: u64,
    one_bad: u64,
}

impl<'a> Hot<'a> {
    pub fn new(
        ctx: &'a Ctx,
        model: &'a FusionModel,
        prep_all: &PreparedBatch,
        seed: u64,
    ) -> Hot<'a> {
        let ccfg = ClusterConfig::default();
        let capacity = ccfg.shards * ccfg.serve.max_batch;
        let mut cluster = Cluster::new(model, &ctx.ds.graphs, &ctx.ds.vectors, ccfg);
        for s in 0..cluster.shards() {
            cluster.engine_mut(s).warm(prep_all);
        }
        let mut one = Engine::new(
            model,
            &ctx.ds.graphs,
            &ctx.ds.vectors,
            ServeConfig::default(),
        );
        one.warm(prep_all);
        // Warm-up traffic at 1× load, cycling through every sample.
        let mut out = Vec::new();
        let n = ctx.ds.samples.len();
        let mut id = 0u64;
        for _ in 0..HOT_WARMUP_TICKS {
            for _ in 0..capacity {
                let i = id as usize % n;
                let _ = cluster.submit_ref(id, ctx.task.sample_kernel[i], &ctx.task.aux[i], None);
                id += 1;
            }
            cluster.tick();
            cluster.drain(&mut out);
            out.clear();
        }
        cluster.flush();
        cluster.drain(&mut out);
        let mut g = SplitMix::new(seed, 3);
        let picks = (0..ONE_BATCH).map(|_| g.below(n)).collect();
        let cls = vec![0usize; one.plan().num_heads()];
        Hot {
            cluster,
            one,
            capacity,
            drv: LoadGen::new(seed),
            loads: Default::default(),
            picks,
            cls,
            one_ns: Vec::new(),
            one_attempted: 0,
            one_failed: 0,
            one_bad: 0,
        }
    }

    /// Until `until`: synchronous requests (15% of the slice), then each
    /// load level in turn (0.5× and 1.5× get 15%, 1× gets 55%). The
    /// synchronous requests go first so the shard workers, idle since
    /// the previous round, are parked rather than winding down.
    pub fn step(&mut self, run: &mut Run, ctx: &Ctx, expected: &[Vec<usize>], until: Instant) {
        let slice = until.saturating_duration_since(Instant::now());
        self.one_slice(run, ctx, expected, Instant::now() + slice.mul_f64(0.15));
        for (li, (halves, _, _)) in LOADS.iter().enumerate() {
            let share = if *halves == 2 { 0.55 } else { 0.15 };
            let sub_until = Instant::now() + slice.mul_f64(share);
            self.load_slice(
                run,
                ctx,
                expected,
                li,
                self.capacity * halves / 2,
                sub_until,
            );
        }
    }

    fn load_slice(
        &mut self,
        run: &mut Run,
        ctx: &Ctx,
        expected: &[Vec<usize>],
        li: usize,
        arrivals: usize,
        until: Instant,
    ) {
        let cluster = &mut self.cluster;
        let drv = &mut self.drv;
        let (offered0, refused0) = (drv.offered, drv.shed + drv.errors);
        let (accepted0, answered0) = (cluster.accepted_total(), cluster.answered_total());
        let batches = metrics::counter("serve.batches");
        let batched = metrics::counter("serve.batched_requests");
        let (batches0, batched0) = (batches.get(), batched.get());
        let stages0: Vec<HistSnapshot> = STAGES
            .iter()
            .map(|(h, _)| metrics::log_histogram(h).snapshot())
            .collect();
        let mark = run.sp.len();
        drv.lat_ns.clear();
        drv.queue_ticks.fill(0);
        let load = &mut self.loads[li];
        run.gap.restart();
        loop {
            let w0 = Instant::now();
            let served0 = drv.served;
            for _ in 0..HOT_WINDOW_TICKS {
                drv.tick(run, ctx, expected, cluster, arrivals);
                run.gap.beat();
            }
            let now = Instant::now();
            load.rps
                .push((drv.served - served0) as f64 / (now - w0).as_secs_f64());
            let lat = &mut drv.lat_ns;
            if !lat.is_empty() {
                lat.sort_by(|a, b| a.total_cmp(b));
                load.p50.push(percentile_sorted(lat, 50.0));
                load.p99.push(percentile_sorted(lat, 99.0));
                lat.clear();
            }
            if now >= until {
                break;
            }
        }
        drv.finish(expected, cluster);
        load.offered += drv.offered - offered0;
        load.refused += drv.shed + drv.errors - refused0;
        load.accepted += cluster.accepted_total() - accepted0;
        load.answered += cluster.answered_total() - answered0;
        load.queue_ticks.resize(QUEUE_TICK_BUCKETS, 0);
        for (acc, n) in load.queue_ticks.iter_mut().zip(&drv.queue_ticks) {
            *acc += n;
        }
        load.batches += batches.get() - batches0;
        load.batched += batched.get() - batched0;
        for (k, ((h, _), before)) in STAGES.iter().zip(&stages0).enumerate() {
            let d = metrics::log_histogram(h).snapshot().diff(before);
            match load.stages.get_mut(k) {
                Some(acc) => *acc = acc.merge(&d),
                None => load.stages.push(d),
            }
        }
        for (acc, span) in load.span_ns.iter_mut().zip(CLUSTER_SPANS) {
            acc.extend(run.sp.per_call_ns_since(span, mark));
        }
    }

    fn one_slice(&mut self, run: &mut Run, ctx: &Ctx, expected: &[Vec<usize>], until: Instant) {
        run.gap.restart();
        loop {
            let t0 = Instant::now();
            for &i in &self.picks {
                match self
                    .one
                    .serve_one(ctx.task.sample_kernel[i], &ctx.task.aux[i], &mut self.cls)
                {
                    Ok(()) => self.one_bad += u64::from(self.cls != expected[i]),
                    Err(_) => self.one_failed += 1,
                }
            }
            let done = Instant::now();
            self.one_ns
                .push((done - t0).as_nanos() as f64 / ONE_BATCH as f64);
            self.one_attempted += ONE_BATCH as u64;
            run.gap.beat();
            if done >= until {
                break;
            }
        }
    }

    pub fn finish(self, run: &mut Run) {
        run.rep.prov(
            "data_plane",
            format!("{:?}", self.cluster.data_plane()).to_lowercase(),
        );
        for (load, (_, tag, shed_metric)) in self.loads.iter().zip(LOADS) {
            run.rep
                .phase(format!("serve.hot_load_{tag}"), load.offered, load.refused);
            run.rep.gate(
                format!("hot {tag}: accepted_total == answered_total after flush"),
                load.accepted == load.answered && load.accepted + load.refused == load.offered,
                format!(
                    "accepted {}, answered {}, refused {}",
                    load.accepted, load.answered, load.refused
                ),
            );
            run.rep.metric(
                shed_metric,
                load.refused as f64 / load.offered.max(1) as f64,
            );
        }
        let one_x = &self.loads[1];
        run.rep.metric("hot_rps", fast_rate(&one_x.rps));
        run.rep.metric("hot_p50_us", fast_time(&one_x.p50) / 1e3);
        run.rep.metric("hot_p99_us", fast_time(&one_x.p99) / 1e3);
        run.rep
            .metric("serve.queue_ticks_p99", histogram_p99(&one_x.queue_ticks));
        run.rep.metric(
            "serve.batch_mean",
            one_x.batched as f64 / one_x.batches.max(1) as f64,
        );
        for ((_, name), hist) in STAGES.iter().zip(&one_x.stages) {
            run.rep.metric(name, hist.percentile(50.0) as f64);
        }
        for (ns, span) in one_x.span_ns.iter().zip(CLUSTER_SPANS) {
            if !ns.is_empty() {
                let scale = if span.ends_with("_us") { 1e-3 } else { 1.0 };
                run.rep.metric(span, median(ns) * scale);
            }
        }
        run.rep.gate(
            "hot: served classes == predict",
            self.drv.mismatches == 0,
            format!("{} of {} differ", self.drv.mismatches, self.drv.served),
        );

        run.rep
            .phase("serve.hot_one", self.one_attempted, self.one_failed);
        run.rep.gate(
            "hot one: served classes == predict",
            self.one_bad == 0,
            format!("{} of {} differ", self.one_bad, self.one_attempted),
        );
        run.rep.metric("hot_one_ns", median(&self.one_ns));

        let engines: Vec<&Engine<'_>> = (0..self.cluster.shards())
            .map(|s| self.cluster.engine(s))
            .chain(std::iter::once(&self.one))
            .collect();
        let (hits, misses) = engine_gates(run, "hot", &engines);
        run.rep.gate(
            "hot: cache hit share == 1",
            misses == 0 && hits > 0,
            format!("{hits} hits, {misses} misses"),
        );
        run.rep.metric(
            "serve.cache_hit_share.hot",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
}

/// Serve every fold-0 validation sample once on a warmed default
/// engine and check the served classes against `predict`.
pub fn validation_gate(
    run: &mut Run,
    ctx: &Ctx,
    model: &FusionModel,
    prep_all: &PreparedBatch,
    expected: &[Vec<usize>],
) {
    let mut engine = Engine::new(
        model,
        &ctx.ds.graphs,
        &ctx.ds.vectors,
        ServeConfig::default(),
    );
    engine.warm(prep_all);
    let mut cls = vec![0usize; engine.plan().num_heads()];
    let (mut failed, mut bad) = (0u64, 0u64);
    for &i in &ctx.folds[0].val {
        match engine.serve_one(ctx.task.sample_kernel[i], &ctx.task.aux[i], &mut cls) {
            Ok(()) => bad += u64::from(cls != expected[i]),
            Err(_) => failed += 1,
        }
    }
    let n = ctx.folds[0].val.len() as u64;
    run.rep.phase("serve.validation", n, failed);
    run.rep.gate(
        "validation: served classes == predict",
        bad == 0 && failed == 0,
        format!("{bad} of {n} differ, {failed} refused"),
    );
}
