//! Engine comparison harness: scalar vs cohort widths, both equipages,
//! then the two-ship `EncounterWorld` vs the k = 2 `MultiEncounterWorld`.
//!
//! Unlike the criterion bench (which times each engine in its own block),
//! this interleaves one rep per engine round-robin inside a single process,
//! so clock drift and noisy neighbours hit every engine equally, and
//! reports the median rep. Numbers in `BENCH_simulation.json` come from
//! here.
//!
//! `cargo run --release -p uavca-bench --bin engine_profile` runs both
//! sections; pass `k2` to run only the world comparison.

// Experiment binary: wall-clock timing is the point (audit rule A2
// carves the bench crate out the same way).
#![allow(clippy::disallowed_methods)]
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_acasx::AcasXu;
use uavca_encounter::{ScenarioGenerator, StatisticalEncounterModel};
use uavca_sim::{
    CollisionAvoider, EncounterWorld, MultiEncounterWorld, MultiMode, UavState, Unequipped,
};
use uavca_validation::{BatchRunner, EncounterRunner, Equipage, SimEngine, SimJob};

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// `(p25, p50, p75)` of `xs` (nearest-rank).
fn quartiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

fn main() {
    if std::env::args().nth(1).as_deref() != Some("k2") {
        engines();
    }
    k2_worlds();
}

/// Interleaved `EncounterWorld` vs `MultiEncounterWorld` (pairwise, k = 2)
/// over 64 sampled encounters per rep, both equipages: the cost of running
/// two-ship encounters through the n-body world. Outcomes are checked
/// equal on every run (the k = 2 identity), so both sides do the same work.
fn k2_worlds() {
    let reps: u64 = 40;
    let runner = uavca_bench::coarse_runner();
    let model = StatisticalEncounterModel::default();
    let mut rng = StdRng::seed_from_u64(0);
    let encounters: Vec<[UavState; 2]> = (0..64)
        .map(|_| {
            let enc = ScenarioGenerator::default().generate(&model.sample(&mut rng));
            [enc.own, enc.intruder]
        })
        .collect();
    for (label, equipped) in [("Both", true), ("Neither", false)] {
        let avoider = |runner: &EncounterRunner| -> Box<dyn CollisionAvoider> {
            if equipped {
                Box::new(AcasXu::new(runner.table().clone()))
            } else {
                Box::new(Unequipped::new())
            }
        };
        let mut scalar = EncounterWorld::new(
            *runner.sim(),
            encounters[0],
            [avoider(&runner), avoider(&runner)],
            0,
        );
        let mut multi = MultiEncounterWorld::new(
            *runner.sim(),
            MultiMode::Pairwise,
            &encounters[0],
            vec![avoider(&runner), avoider(&runner)],
            0,
        );
        let mut times = [Vec::new(), Vec::new()];
        // Rep 0 warms up and is discarded.
        for r in 0..=reps {
            let seed = |j: usize| r * 64 + j as u64;
            let t = Instant::now();
            let scalar_out: Vec<_> = encounters
                .iter()
                .enumerate()
                .map(|(j, initial)| {
                    scalar.reset(*initial, seed(j));
                    scalar.run()
                })
                .collect();
            let scalar_ns = t.elapsed().as_secs_f64() * 1e9 / 64.0;
            let t = Instant::now();
            let multi_out: Vec<_> = encounters
                .iter()
                .enumerate()
                .map(|(j, initial)| {
                    multi.reset(initial, seed(j));
                    multi.run()
                })
                .collect();
            let multi_ns = t.elapsed().as_secs_f64() * 1e9 / 64.0;
            for (s, m) in scalar_out.iter().zip(&multi_out) {
                assert_eq!(*s, m.to_pairwise(), "k = 2 identity");
            }
            if r > 0 {
                times[0].push(scalar_ns);
                times[1].push(multi_ns);
            }
        }
        let ratios: Vec<f64> = times[1].iter().zip(&times[0]).map(|(m, s)| m / s).collect();
        for (world, t) in ["scalar_world", "multi_world_k2"].iter().zip(times) {
            let (lo, mid, hi) = quartiles(t);
            println!(
                "{label:7} {world:14}: {mid:9.1} ns/run [IQR {lo:.1}-{hi:.1}] (median of {reps})"
            );
        }
        let (lo, mid, hi) = quartiles(ratios);
        println!("{label:7} multi/scalar  : {mid:9.3} [IQR {lo:.3}-{hi:.3}] (per-rep ratio)");
    }
}

fn engines() {
    let params = uavca_encounter::EncounterParams::head_on_template();
    let reps: u64 = 60;
    let engines = [
        ("scalar", SimEngine::Scalar),
        ("cohort8", SimEngine::Cohort { width: 8 }),
        ("cohort16", SimEngine::Cohort { width: 16 }),
        ("cohort32", SimEngine::Cohort { width: 32 }),
        ("cohort64", SimEngine::Cohort { width: 64 }),
    ];
    for equipage in [Equipage::Both, Equipage::Neither] {
        let jobs = BatchRunner::repeated_jobs(&params, equipage, 64, 0);
        let runners: Vec<BatchRunner> = engines
            .iter()
            .map(|&(_, e)| BatchRunner::serial(uavca_bench::coarse_runner()).engine(e))
            .collect();
        for batch in &runners {
            let _ = batch.run_batch(&jobs); // warm up
        }
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); engines.len()];
        for r in 0..reps {
            for (k, batch) in runners.iter().enumerate() {
                let shifted: Vec<SimJob> = jobs
                    .iter()
                    .map(|j| SimJob {
                        seed: j.seed.wrapping_add(r * 64),
                        ..*j
                    })
                    .collect();
                let t = Instant::now();
                let out = batch.run_batch(&shifted);
                let dt = t.elapsed().as_secs_f64();
                assert_eq!(out.len(), 64);
                times[k].push(dt * 1e9 / 64.0);
            }
        }
        for ((label, _), t) in engines.iter().zip(times) {
            println!(
                "{:?} {:10}: {:9.1} ns/job (median of {reps})",
                equipage,
                label,
                median(t)
            );
        }
    }
}
