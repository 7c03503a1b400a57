//! `paired_local`: back-to-back adaptive paired campaigns to a risk-ratio
//! CI half-width target, in process, on a `BatchRunner` with the default
//! (cohort) engine and one worker per CPU.

use uavca_encounter::{StatisticalEncounterModel, Stratification};
use uavca_exec::Executor;
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignOutcome, CampaignPlanner, EncounterRunner, PairSource,
};

use crate::bench::{derive, Ctx, Window};
use crate::drive::drive;
use crate::replay::replay_pairs;
use crate::wrap::{TimedBackend, TimedSource};

/// CI half-width every campaign runs to.
pub const TARGET: f64 = 0.015;

/// The conflict-enriched encounter model: a 2500 ft / 500 ft CPA
/// envelope, so NMACs are common enough to estimate.
pub fn enriched() -> StatisticalEncounterModel {
    StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    }
}

/// The `k`-th campaign of a run with workload seed `seed`.
pub fn planner(runner: &EncounterRunner, seed: u64, k: u64) -> CampaignPlanner {
    let config = CampaignConfig {
        seed: derive(seed, k),
        pilot_per_stratum: 30,
        round_runs: 400,
        max_rounds: 200,
        target_half_width: TARGET,
        threads: 0,
    };
    CampaignPlanner::new(runner.clone(), config)
        .model(enriched())
        .stratification(Stratification::new(5))
}

/// The output check: the campaign stopped at the target, and its CI is
/// finite and brackets the ratio.
pub fn check(outcome: &CampaignOutcome) -> bool {
    let rr = &outcome.estimate.risk_ratio;
    outcome.reached_target
        && rr.half_width() <= TARGET
        && rr.ratio.is_finite()
        && rr.ci_low.is_finite()
        && rr.ci_high.is_finite()
        && rr.ci_low <= rr.ratio
        && rr.ratio <= rr.ci_high
}

/// Runs campaigns back to back for `ctx.seconds`.
pub fn window(ctx: &Ctx, runner: &EncounterRunner) -> Window {
    let tracer = ctx.tracer;
    let backend = TimedBackend::new(Executor::new(ctx.threads), tracer);
    let counts = backend.counts.clone();
    let source = TimedSource::new(
        BatchRunner::new(runner.clone(), backend),
        tracer,
        runner.sim().dt_s,
        64,
    );
    let mut w = Window {
        exec_threads: ctx.threads,
        start: tracer.now(),
        ..Window::default()
    };
    let deadline = w.start + (ctx.seconds * 1e9) as u64;
    let mut k = 0;
    while k == 0 || tracer.now() < deadline {
        let submitted = tracer.now();
        let mut last = submitted;
        w.attempted += 1;
        match planner(runner, ctx.seed, k).stepper() {
            Ok(mut stepper) => {
                w.rounds += drive(
                    tracer,
                    &mut stepper,
                    |p| source.run_pairs(&p.jobs),
                    || {
                        let now = tracer.now();
                        w.round_gaps_ms.push((now - last) as f64 * 1e-6);
                        last = now;
                    },
                ) as u64;
                let outcome = stepper.outcome();
                w.results_s.push((tracer.now() - submitted) as f64 * 1e-9);
                if !check(&outcome) {
                    w.failed += 1;
                }
                if k == 0 {
                    w.first.uav_steps = source.work.get().0;
                    w.first.runs_to_target = outcome.runs_to_half_width(TARGET).unwrap_or(0) as u64;
                }
            }
            Err(_) => w.failed += 1,
        }
        k += 1;
    }
    w.end = tracer.now();
    (w.uav_steps, w.alert_steps, w.jobs) = source.work.get();
    w.maps = counts.maps.load(std::sync::atomic::Ordering::Relaxed);
    w.items = counts.items.load(std::sync::atomic::Ordering::Relaxed);
    if tracer.enabled() {
        let sample: Vec<_> = source
            .sample
            .lock()
            .expect("job sample lock poisoned")
            .pairs
            .iter()
            .map(|(job, out)| (job.params, job.seed, out.equipped))
            .collect();
        w.replay = replay_pairs(runner, &sample);
        w.failed += u64::from(w.replay.mismatches > 0);
    }
    w
}
