//! `multi_local`: back-to-back k-aircraft campaigns over the density ×
//! geometry strata, alternating pairwise and coordinated mode, on a fixed
//! round budget with no early stop.

use uavca_encounter::MultiEncounterModel;
use uavca_exec::Executor;
use uavca_sim::MultiMode;
use uavca_validation::{
    BatchRunner, CampaignConfig, EncounterRunner, MultiCampaignOutcome, MultiCampaignPlanner,
    MultiSource,
};

use crate::bench::{derive, Ctx, Window};
use crate::drive::drive;
use crate::replay::replay_multis;
use crate::wrap::{TimedBackend, TimedSource};

/// The `k`-th campaign of a run with workload seed `seed`.
pub fn planner(runner: &EncounterRunner, seed: u64, k: u64) -> MultiCampaignPlanner {
    let config = CampaignConfig {
        seed: derive(seed, k),
        pilot_per_stratum: 8,
        round_runs: 180,
        max_rounds: 6,
        target_half_width: f64::INFINITY,
        threads: 0,
    };
    let mode = if k.is_multiple_of(2) {
        MultiMode::Pairwise
    } else {
        MultiMode::Coordinated
    };
    MultiCampaignPlanner::new(runner.clone(), config)
        .model(MultiEncounterModel::default())
        .mode(mode)
}

fn json(outcome: &MultiCampaignOutcome) -> String {
    serde_json::to_string(outcome).expect("campaign outcomes serialize")
}

/// Runs campaigns back to back for `ctx.seconds`, then repeats the first
/// one on a plain `BatchRunner` and requires an identical outcome.
pub fn window(ctx: &Ctx, runner: &EncounterRunner) -> Window {
    let tracer = ctx.tracer;
    let backend = TimedBackend::new(Executor::new(ctx.threads), tracer);
    let counts = backend.counts.clone();
    let source = TimedSource::new(
        BatchRunner::new(runner.clone(), backend),
        tracer,
        runner.sim().dt_s,
        16,
    );
    let mut w = Window {
        exec_threads: ctx.threads,
        start: tracer.now(),
        ..Window::default()
    };
    let deadline = w.start + (ctx.seconds * 1e9) as u64;
    let mut first: Option<String> = None;
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
                    |p| source.run_multis(&p.jobs),
                    || {
                        let now = tracer.now();
                        w.round_gaps_ms.push((now - last) as f64 * 1e-6);
                        last = now;
                    },
                ) as u64;
                let outcome = stepper.outcome();
                w.results_s.push((tracer.now() - submitted) as f64 * 1e-9);
                if k == 0 {
                    w.first.uav_steps = source.work.get().0;
                    w.first.runs_to_target = outcome.total_runs() as u64;
                    first = Some(json(&outcome));
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

    // Output check: the same seed repeated on an unwrapped runner.
    let repeat = planner(runner, ctx.seed, 0)
        .run_with(&BatchRunner::new(
            runner.clone(),
            Executor::new(ctx.threads),
        ))
        .map(|o| json(&o))
        .ok();
    if first.is_none() || repeat != first {
        w.failed += 1;
    }
    if tracer.enabled() {
        let sample: Vec<_> = source
            .sample
            .lock()
            .expect("job sample lock poisoned")
            .multis
            .iter()
            .map(|(job, out)| (job.params.clone(), job.seed, job.mode, out.equipped.clone()))
            .collect();
        w.replay = replay_multis(runner, &sample);
        w.failed += u64::from(w.replay.mismatches > 0);
    }
    w
}
