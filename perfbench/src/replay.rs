//! Tick-level attribution by replay: a sample of a workload's own jobs
//! is flown again through the public world constructors, with a timing
//! [`TimedAvoider`] around every `AcasXu` and a clock around every world
//! step. The live runs stay untouched (their avoiders are built inside
//! the library), and each replayed outcome must equal the live one.

use std::sync::Arc;
use std::time::Instant;

use uavca_acasx::AcasXu;
use uavca_encounter::{EncounterParams, MultiScenarioGenerator, ScenarioGenerator};
use uavca_sim::{
    CollisionAvoider, EncounterOutcome, EncounterWorld, MultiEncounterOutcome, MultiEncounterWorld,
    MultiMode,
};
use uavca_validation::EncounterRunner;

use crate::wrap::{DecideLog, TimedAvoider};

/// What a replay measured.
#[derive(Debug, Default, Clone)]
pub struct ReplayStats {
    /// ns per avoider decision.
    pub decide_ns: Vec<u64>,
    /// ns per world step.
    pub step_ns: Vec<u64>,
    /// Replayed runs whose outcome differed from the live one.
    pub mismatches: usize,
    /// Runs replayed.
    pub runs: usize,
}

impl ReplayStats {
    /// Decision time over step time.
    pub fn decide_share(&self) -> f64 {
        let step: u64 = self.step_ns.iter().sum();
        if step == 0 {
            return 0.0;
        }
        self.decide_ns.iter().sum::<u64>() as f64 / step as f64
    }
}

fn acas(runner: &EncounterRunner, log: &Arc<DecideLog>) -> Box<dyn CollisionAvoider> {
    Box::new(TimedAvoider::new(
        Box::new(AcasXu::new(runner.table().clone())),
        log.clone(),
    ))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Replays both-equipped two-aircraft runs `(params, seed, live outcome)`.
pub fn replay_pairs(
    runner: &EncounterRunner,
    runs: &[(EncounterParams, u64, EncounterOutcome)],
) -> ReplayStats {
    let log = Arc::new(DecideLog::default());
    let mut stats = ReplayStats::default();
    let steps = runner.sim().num_steps();
    for (params, seed, live) in runs {
        let enc = ScenarioGenerator::default().generate(params);
        let mut world = EncounterWorld::new(
            *runner.sim(),
            [enc.own, enc.intruder],
            [acas(runner, &log), acas(runner, &log)],
            *seed,
        );
        world.begin();
        while world.steps_done() < steps {
            let start = Instant::now();
            world.step();
            stats.step_ns.push(elapsed_ns(start));
        }
        stats.runs += 1;
        if world.outcome() != *live {
            stats.mismatches += 1;
        }
    }
    stats.decide_ns = std::mem::take(&mut *log.ns.lock().expect("decide log lock poisoned"));
    stats
}

/// Replays equipped k-aircraft runs `(initial states, seed, mode, live outcome)`.
pub fn replay_multis(
    runner: &EncounterRunner,
    runs: &[(
        uavca_encounter::MultiEncounterParams,
        u64,
        MultiMode,
        MultiEncounterOutcome,
    )],
) -> ReplayStats {
    let log = Arc::new(DecideLog::default());
    let mut stats = ReplayStats::default();
    let steps = runner.sim().num_steps();
    for (params, seed, mode, live) in runs {
        let initial = MultiScenarioGenerator::default().generate(params);
        let avoiders = initial.iter().map(|_| acas(runner, &log)).collect();
        let mut world = MultiEncounterWorld::new(*runner.sim(), *mode, &initial, avoiders, *seed);
        world.begin();
        while world.steps_done() < steps {
            let start = Instant::now();
            world.step();
            stats.step_ns.push(elapsed_ns(start));
        }
        stats.runs += 1;
        if world.outcome() != *live {
            stats.mismatches += 1;
        }
    }
    stats.decide_ns = std::mem::take(&mut *log.ns.lock().expect("decide log lock poisoned"));
    stats
}
