//! Benchmark of the MGA tuner: one named workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_fig4|serve_hot> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. `--seconds` defaults to `run_seconds`
//! of `BENCHMARK.json`. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` runs the same workload with a span around every
//! layer call and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object; the lines before it
//! are the human-readable report (provenance, per-phase operation
//! counts, correctness gates, every metric with its unit). A failed gate
//! exits with status 1. See `perfbench/README.md`.

mod layers;
mod prov;
mod report;
mod run;
mod serve;
mod setup;
mod spans;
mod stats;
mod train;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mga_obs::json::{self, Json};

use report::{Declared, Report};
use run::Run;
use serve::{Cold, Hot};
use setup::{expected_classes, Ctx, FOLDS};
use spans::Spans;
use stats::{fast_time, median};
use train::{Cv, Epochs};

/// Set-up repetitions per run; `setup_s` is their median.
const TRAIN_SETUP_REPS: usize = 15;
/// Where run records and span files go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: mga-perfbench --workload <train_fig4|serve_hot> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainFig4,
    ServeHot,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "train_fig4" => Some(Workload::TrainFig4),
            "serve_hot" => Some(Workload::ServeHot),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::TrainFig4 => "train_fig4",
            Workload::ServeHot => "serve_hot",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(default_seconds: f64) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, default_seconds, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("expected seconds in (0, 600]"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let steal0 = prov::steal_ticks();
    let declared = match Declared::load() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("mga-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(declared.run_seconds) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mga-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        sp: Spans::new(args.trace),
        rep: Report::default(),
        gap: prov::GapMeter::default(),
    };
    match args.workload {
        Workload::TrainFig4 => train_fig4(&mut run, process_start),
        Workload::ServeHot => serve_hot(&mut run, process_start),
    }
    if let Some(mib) = prov::peak_rss_mib() {
        run.rep.metric("peak_rss_mb", mib);
    }
    stamp_provenance(&mut run, &args, steal0);

    let name = args.workload.name();
    if let Err(e) = write_records(&run, &args, &declared) {
        eprintln!("mga-perfbench: cannot write run records: {e}");
    }
    if args.trace {
        report_overhead(&run, name, args.seed, &declared);
    }
    let wanted = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    if let Err(e) = run.rep.emit(wanted) {
        eprintln!("mga-perfbench: {e}");
        return ExitCode::from(1);
    }
    if !run.rep.correct() {
        eprintln!("mga-perfbench: a correctness gate failed");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Shares of the measurement budget of (epochs, cold, hot) per
/// workload: the workload's own phase gets most of it, the others run
/// as shorter probes so every run reports every metric.
fn shares(workload: Workload) -> [f64; 3] {
    match workload {
        Workload::TrainFig4 => [0.5, 0.25, 0.25],
        Workload::ServeHot => [0.2, 0.25, 0.55],
    }
}

/// Length of one round of interleaved phases.
const ROUND_S: f64 = 0.5;

/// Run the phases interleaved in rounds of [`ROUND_S`], each phase
/// taking its share of every round, so a slow spell of the host falls
/// on all phases alike instead of on whichever ran during it. `extra`
/// runs `extras` times, spread evenly between rounds, for the repeated
/// operations that do not fit in a round (folds, set-up repetitions).
fn measure_rounds(
    run: &mut Run,
    ctx: &Ctx,
    expected: &[Vec<usize>],
    phases: (&mut Epochs<'_>, &mut Cold<'_>, &mut Hot<'_>),
    shares: [f64; 3],
    extras: usize,
    mut extra: impl FnMut(&mut Run, usize),
) {
    let (epochs, cold, hot) = phases;
    let rounds = (run.seconds / ROUND_S).round().max(1.0) as usize;
    let round = Duration::from_secs_f64(run.seconds / rounds as f64);
    let mut next = 0;
    for r in 0..rounds {
        epochs.step(run, Instant::now() + round.mul_f64(shares[0]));
        cold.step(
            run,
            ctx,
            expected,
            Instant::now() + round.mul_f64(shares[1]),
        );
        hot.step(
            run,
            ctx,
            expected,
            Instant::now() + round.mul_f64(shares[2]),
        );
        while next < extras && (next + 1) * rounds <= (r + 1) * (extras + 1) {
            extra(run, next);
            next += 1;
        }
    }
    for i in next..extras {
        extra(run, i);
    }
}

/// `train_fig4`: set-up is the dataset (catalog IR, graphs, IR2Vec,
/// profiling sweep). Epochs (a fold-0 model on every sample) get half
/// the rounds, short serving probes on a fold-0 model the rest; the
/// five CV folds and the other set-up repetitions run spread between
/// rounds.
fn train_fig4(run: &mut Run, process_start: Instant) {
    let mut setup_s = Vec::with_capacity(TRAIN_SETUP_REPS);
    let ctx = Ctx::build(run.seed);
    setup_s.push(process_start.elapsed().as_secs_f64());

    // Serving uses the model as fitted; the epochs train their own copy
    // further, for a count that depends on host speed.
    let model = ctx.fit_fold(0);
    let mut epoch_model = ctx.fit_fold(0);
    let expected = expected_classes(&ctx, &model);
    let prep_all = model.prepare(&ctx.data(), &ctx.all_samples());
    let mut epochs = Epochs::new(&ctx, &mut epoch_model);
    let mut cold = Cold::new(&ctx, &model, run.seed);
    let mut hot = Hot::new(&ctx, &model, &prep_all, run.seed);
    let mut cv = Cv::default();
    // Every fourth extra is the next fold: 5 folds among 19 extras.
    let extras = FOLDS + TRAIN_SETUP_REPS - 1;
    let phases = (&mut epochs, &mut cold, &mut hot);
    measure_rounds(
        run,
        &ctx,
        &expected,
        phases,
        shares(Workload::TrainFig4),
        extras,
        |run, i| {
            if i % 4 == 0 {
                cv.fold(run, &ctx, i / 4);
            } else {
                let t0 = Instant::now();
                drop(Ctx::build(run.seed));
                setup_s.push(t0.elapsed().as_secs_f64());
            }
        },
    );
    run.rep.metric("setup_s", median(&setup_s));
    cv.finish(run, &ctx);
    epochs.finish(run);
    cold.finish(run);
    hot.finish(run);
    if run.sp.on() {
        layers::measure(run, &ctx, &model);
    }
}

/// `serve_hot`: set-up is the dataset, a fold's fit and the warmed
/// cluster. Fold 0's set-up comes first and is measured; the other four
/// folds' set-ups run spread between rounds. The five fits give `fit_s`
/// and, through `predict` on each validation fold, `cv_speedup`. Cold
/// requests and epochs on a second fold-0 model run as shorter probes.
fn serve_hot(run: &mut Run, process_start: Instant) {
    let mut setup_s = Vec::with_capacity(FOLDS);
    let mut fit_s = Vec::with_capacity(FOLDS);
    let mut achieved = Vec::with_capacity(FOLDS * 300);
    let mut fit = |ctx: &Ctx, fold: usize| {
        let t0 = Instant::now();
        let model = ctx.fit_fold(fold);
        fit_s.push(t0.elapsed().as_secs_f64());
        model
    };
    let ctx = Ctx::build(run.seed);
    let model = fit(&ctx, 0);
    let prep_all = model.prepare(&ctx.data(), &ctx.all_samples());
    let mut hot = Hot::new(&ctx, &model, &prep_all, run.seed);
    setup_s.push(process_start.elapsed().as_secs_f64());
    train::fold_speedups(&ctx, &model, 0, &mut achieved);

    let expected = expected_classes(&ctx, &model);
    serve::validation_gate(run, &ctx, &model, &prep_all, &expected);
    let mut cold = Cold::new(&ctx, &model, run.seed);
    let mut epoch_model = ctx.fit_fold(0);
    let mut epochs = Epochs::new(&ctx, &mut epoch_model);
    let phases = (&mut epochs, &mut cold, &mut hot);
    measure_rounds(
        run,
        &ctx,
        &expected,
        phases,
        shares(Workload::ServeHot),
        FOLDS - 1,
        |run, i| {
            let fold = i + 1;
            let t0 = Instant::now();
            let ctx = Ctx::build(run.seed);
            let model = fit(&ctx, fold);
            let prep_all = model.prepare(&ctx.data(), &ctx.all_samples());
            drop(Hot::new(&ctx, &model, &prep_all, run.seed));
            setup_s.push(t0.elapsed().as_secs_f64());
            train::fold_speedups(&ctx, &model, fold, &mut achieved);
        },
    );
    run.rep.metric("setup_s", median(&setup_s));
    run.rep.metric("fit_s", fast_time(&fit_s));
    let cv = train::cv_speedup(run, &ctx, &achieved);
    run.rep.metric("cv_speedup", cv);
    epochs.finish(run);
    cold.finish(run);
    hot.finish(run);
    if run.sp.on() {
        layers::measure(run, &ctx, &model);
    }
}

fn stamp_provenance(run: &mut Run, args: &Args, steal0: Option<u64>) {
    let r = &mut run.rep;
    r.prov("workload", args.workload.name());
    r.prov("seed", args.seed);
    r.prov("seconds", args.seconds);
    r.prov("trace", u8::from(args.trace));
    r.prov("mode", "full");
    r.prov("pool_threads", mga_nn::pool::num_threads());
    r.prov(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    r.prov("cpu_model", prov::cpu_model());
    r.prov("simd_backend", prov::simd_backend());
    r.prov("git_rev", prov::git_rev());
    r.prov("build", prov::build_id());
    match (steal0, prov::steal_ticks()) {
        (Some(a), Some(b)) => r.prov("steal_ticks", b.saturating_sub(a)),
        _ => r.prov("steal_ticks", "unavailable"),
    }
    r.prov(
        "max_loop_gap_ms",
        format!("{:.3}", run.gap.max_ns as f64 / 1e6),
    );
    if run.sp.on() {
        r.prov("spans", run.sp.len());
    }
}

fn record_path(workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{OUT_DIR}/{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    )
}

/// Keep the run's provenance and end-to-end values (and, traced, its
/// spans) under `OUT_DIR`.
fn write_records(run: &Run, args: &Args, declared: &Declared) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let name = args.workload.name();
    let record = format!(
        "{{\"prov\":{},\"end_to_end\":{},\"per_layer\":{}}}\n",
        run.rep.prov_json(),
        run.rep.metrics_json(&declared.end_to_end),
        run.rep.metrics_json(&declared.per_layer)
    );
    std::fs::write(record_path(name, args.seed, args.trace), record)?;
    if args.trace {
        let path = format!("{OUT_DIR}/spans-{name}-seed{}.jsonl", args.seed);
        run.sp.write_jsonl(Path::new(&path))?;
        println!("spans   {} written to {path}", run.sp.len());
    }
    Ok(())
}

/// Provenance that must match between a traced run and the untraced
/// record it is compared with: same inputs, same length, same code.
const OVERHEAD_MATCH: [&str; 5] = ["workload", "seed", "seconds", "git_rev", "build"];

/// Tracing overhead: this traced run's end-to-end values against the
/// untraced run of the same workload, seed, length and build, when one
/// was recorded before it.
fn report_overhead(run: &Run, workload: &str, seed: u64, declared: &Declared) {
    let path = record_path(workload, seed, false);
    let untraced = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| json::parse(&t).ok());
    let Some(untraced) = untraced else {
        println!("overhead no untraced record at {path}; run with --trace 0 first");
        return;
    };
    let mismatched: Vec<&str> = OVERHEAD_MATCH
        .into_iter()
        .filter(|key| {
            let recorded = untraced
                .get("prov")
                .and_then(|p| p.get(key))
                .and_then(Json::as_str);
            recorded.is_none() || recorded != run.rep.prov_value(key)
        })
        .collect();
    if !mismatched.is_empty() {
        println!(
            "overhead no matching untraced record: {path} differs in {}; \
             run with --trace 0 first, same seed and --seconds",
            mismatched.join(", ")
        );
        return;
    }
    for (name, unit) in &declared.end_to_end {
        let base = untraced
            .get("end_to_end")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64);
        if let (Some(base), Some(traced)) = (base, run.rep.get(name)) {
            println!(
                "overhead {name:<24} untraced {base:>14.6} traced {traced:>14.6} {unit:<6} ({:+.2}%)",
                (traced - base) / base * 100.0
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use mga_obs::json::{self, Json};

    fn load(file: &str) -> Json {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("benchmark file present");
        json::parse(&text).expect("valid JSON")
    }

    fn names<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("list present")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("named"))
            .collect()
    }

    /// `metric_map.json` maps every declared per-layer metric, once, to
    /// declared metrics and workloads.
    #[test]
    fn metric_map_matches_benchmark_json() {
        let bench = load("../BENCHMARK.json");
        let map = load("metric_map.json");
        let e2e = names(&bench, "end_to_end");
        let layers = names(&bench, "per_layer");
        let workloads = names(&bench, "workloads");
        assert_eq!(names(&map, "per_layer"), layers);
        let home = map.get("home_workload").expect("home_workload");
        for name in &e2e {
            let w = home
                .get(name)
                .and_then(Json::as_arr)
                .expect("home of every metric");
            assert!(w.iter().all(|w| workloads.contains(&w.as_str().unwrap())));
        }
        for entry in map.get("per_layer").and_then(Json::as_arr).unwrap() {
            let moves = entry.get("moves").and_then(Json::as_arr).expect("moves");
            assert!(!moves.is_empty());
            for m in moves {
                let metric = m.get("metric").and_then(Json::as_str).unwrap();
                let named = e2e.contains(&metric) || layers.contains(&metric);
                assert!(metric == "failed" || named, "{metric}");
                for w in m.get("workloads").and_then(Json::as_arr).unwrap() {
                    assert!(workloads.contains(&w.as_str().unwrap()));
                }
            }
        }
        let held_out = map.get("held_out_seed").and_then(Json::as_f64).unwrap();
        assert_ne!(
            held_out,
            map.get("default_seed").and_then(Json::as_f64).unwrap()
        );
    }
}
