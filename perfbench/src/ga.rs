//! `ga_search`: back-to-back paper-scale GA searches (population 200 ×
//! 5 generations × 100 runs per evaluation, proximity objective), one
//! evaluation per CPU at a time.
//!
//! The search is composed from the same public parts
//! `SearchHarness::run_ga` uses — `GeneticAlgorithm::run` over a fitness
//! closure that decodes the genome, flies `runs_per_eval` seeded runs on
//! a serial `BatchRunner` and applies the paper's proximity formula —
//! so the closure can count generations and the runner can carry a
//! timing backend. The first search of every run is checked against
//! `run_ga` itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use uavca_evo::{GaConfig, GaResult, GeneticAlgorithm};
use uavca_exec::Executor;
use uavca_validation::{
    BatchRunner, EncounterRunner, FitnessFunction, FitnessKind, ScenarioSpace, SearchConfig,
    SearchHarness,
};

use crate::bench::{derive, Ctx, Window};
use crate::replay::replay_pairs;
use crate::trace::{quantile, Layer};
use crate::wrap::{pair_run_steps, TimedBackend};

/// GA population size.
pub const POPULATION: usize = 200;
/// GA generations.
pub const GENERATIONS: usize = 5;
/// Simulations per fitness evaluation.
pub const RUNS_PER_EVAL: usize = 100;

/// The search configuration of the `k`-th search of a run.
pub fn config(seed: u64, k: u64, threads: usize) -> SearchConfig {
    SearchConfig {
        population_size: POPULATION,
        generations: GENERATIONS,
        runs_per_eval: RUNS_PER_EVAL,
        seed: derive(seed, k),
        threads,
        objective: FitnessKind::Proximity,
    }
}

/// Per-search observations of [`search`].
#[derive(Debug, Default)]
pub struct SearchStats {
    /// ns (tracer clock) at which each generation's last evaluation
    /// finished.
    pub generation_done: Vec<u64>,
    /// UAV-steps and alert steps flown.
    pub uav_steps: u64,
    /// See `uav_steps`.
    pub alert_steps: u64,
    /// Single runs flown.
    pub runs: u64,
    /// The first runs flown: `(params, seed, outcome)`.
    pub sample: Vec<(
        uavca_encounter::EncounterParams,
        u64,
        uavca_sim::EncounterOutcome,
    )>,
}

/// One GA search composed from public parts, on `batch` (which must be
/// serial: the GA already fans out across genomes).
pub fn search<B: uavca_exec::Backend>(
    ctx: &Ctx,
    batch: &BatchRunner<B>,
    config: &SearchConfig,
    sample_cap: usize,
) -> (GaResult, SearchStats) {
    let tracer = ctx.tracer;
    let space = ScenarioSpace::default();
    let formula = FitnessFunction::new(batch.runner().clone(), space.clone(), config.runs_per_eval);
    let dt = batch.runner().sim().dt_s;
    let done = AtomicU64::new(0);
    let stats = Mutex::new(SearchStats::default());
    let ga = GeneticAlgorithm::new(
        GaConfig::new(config.population_size, config.generations)
            .seed(config.seed)
            .threads(config.threads),
        space.bounds(),
    );
    let result = {
        let _ga = tracer.span(Layer::Evo, "ga");
        let parent = tracer.current();
        ga.run(|genes: &[f64]| {
            let _adopt = tracer.adopt(parent);
            let _eval = tracer.span(Layer::Core, "fitness");
            let params = space.decode(genes);
            let seed_base = uavca_validation::EncounterRunner::seed_for(&params);
            let outcomes = batch.run_repeated(&params, config.runs_per_eval, seed_base);
            let fitness = formula.proximity_fitness(&outcomes);
            let steps: u64 = outcomes.iter().map(|o| pair_run_steps(o, dt)).sum();
            let alerts: u64 = outcomes
                .iter()
                .map(|o| (o.own_alert_steps + o.intruder_alert_steps) as u64)
                .sum();
            let mut s = stats.lock().expect("search stats lock poisoned");
            s.uav_steps += steps;
            s.alert_steps += alerts;
            s.runs += outcomes.len() as u64;
            let room = sample_cap.saturating_sub(s.sample.len());
            s.sample.extend(
                outcomes
                    .iter()
                    .enumerate()
                    .take(room)
                    .map(|(i, o)| (params, seed_base.wrapping_add(i as u64), *o)),
            );
            let n = done.fetch_add(1, Ordering::SeqCst) + 1;
            if n.is_multiple_of(config.population_size as u64) {
                s.generation_done.push(tracer.now());
            }
            fitness
        })
    };
    (
        result,
        stats.into_inner().expect("search stats lock poisoned"),
    )
}

fn json(result: &GaResult) -> String {
    serde_json::to_string(result).expect("GA results serialize")
}

/// Runs searches back to back for `ctx.seconds`, then checks the first
/// one against `SearchHarness::run_ga`.
pub fn window(ctx: &Ctx, runner: &EncounterRunner) -> Window {
    let tracer = ctx.tracer;
    let backend = TimedBackend::new(Executor::serial(), tracer);
    let counts = backend.counts.clone();
    let batch = BatchRunner::new(runner.clone(), backend);
    let mut w = Window {
        exec_threads: ctx.threads,
        start: tracer.now(),
        ..Window::default()
    };
    let deadline = w.start + (ctx.seconds * 1e9) as u64;
    let mut first: Option<GaResult> = None;
    let mut eval_ms = Vec::new();
    let mut generations = 0u64;
    let mut k = 0;
    while k == 0 || tracer.now() < deadline {
        let submitted = tracer.now();
        w.attempted += 1;
        let cfg = config(ctx.seed, k, ctx.threads);
        let (result, stats) = search(ctx, &batch, &cfg, if k == 0 { 64 } else { 0 });
        w.results_s.push((tracer.now() - submitted) as f64 * 1e-9);
        let mut last = submitted;
        for &t in &stats.generation_done {
            w.round_gaps_ms.push((t - last) as f64 * 1e-6);
            last = t;
        }
        w.rounds += stats.generation_done.len() as u64;
        generations += result.generations.len() as u64;
        w.uav_steps += stats.uav_steps;
        w.alert_steps += stats.alert_steps;
        w.jobs += stats.runs;
        let budget = (POPULATION * GENERATIONS) as u64;
        if result.num_evaluations() as u64 != budget || !result.best.fitness.is_finite() {
            w.failed += 1;
        }
        if k == 0 {
            w.first.uav_steps = stats.uav_steps;
            w.first.runs_to_target = stats.runs;
            w.first.evaluations = result.num_evaluations() as u64;
            if tracer.enabled() {
                w.replay = replay_pairs(runner, &stats.sample);
            }
            first = Some(result);
        }
        k += 1;
    }
    w.end = tracer.now();
    w.maps = counts.maps.load(Ordering::Relaxed);
    w.items = counts.items.load(Ordering::Relaxed);

    // Output check: the composed search equals the library's own run_ga.
    let reference = SearchHarness::new(runner.clone(), config(ctx.seed, 0, ctx.threads)).run_ga();
    if first.as_ref().map(json) != Some(json(&reference.result)) {
        w.failed += 1;
    }
    w.failed += u64::from(w.replay.mismatches > 0);

    if tracer.enabled() {
        let spans = tracer.spans();
        eval_ms.extend(
            spans
                .iter()
                .filter(|s| s.name == "fitness" && s.start >= w.start && s.start < w.end)
                .map(|s| s.duration() as f64 * 1e-6),
        );
    }
    w.extra.insert("evo.generations", generations as f64);
    w.extra.insert(
        "evo.eval_ms_p50",
        if eval_ms.is_empty() {
            0.0
        } else {
            quantile(&eval_ms, 0.5)
        },
    );
    w
}
