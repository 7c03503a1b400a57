//! Pinned output bytes: the simulator's serialized outcomes on fixed job
//! sets, hashed (FNV-1a 64 over the `serde_json` bytes) and compared
//! against constants recorded from a known-good build.
//!
//! Every other oracle in this crate compares one engine with another —
//! threads vs shards, cohort vs scalar, the k = 2 multi world vs the
//! scalar world. A change that shifts every engine the same way (one
//! more RNG draw, a reassociated sum in a shared kernel) passes all of
//! them. These digests do not: any change to a single outcome bit of the
//! paired, own-only, k-aircraft or splitting paths changes a hash.
//!
//! A digest may only be re-recorded by a change that *means* to alter
//! simulation results, and that change must say so.

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use uavca_acasx::{AcasConfig, LogicTable};
use uavca_encounter::{MultiEncounterModel, StatisticalEncounterModel, Stratification, Stratum};
use uavca_exec::Executor;
use uavca_sim::{MultiMode, NMAC_HORIZONTAL_FT};
use uavca_validation::{
    BatchRunner, EncounterRunner, Equipage, MultiJob, PairedJob, SimEngine, SimJob, SplitJob,
};

fn runner() -> EncounterRunner {
    static TABLE: OnceLock<Arc<LogicTable>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    EncounterRunner::new(table.clone())
}

/// FNV-1a, 64-bit, over the serialized outcome bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest<T: serde::Serialize>(outcomes: &T) -> String {
    let json = serde_json::to_string(outcomes).expect("serializable outcomes");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// The conflict-enriched pairwise model the campaign benches use: close
/// CPAs, so equipped runs alert and unequipped runs hit NMACs often.
fn enriched() -> StatisticalEncounterModel {
    StatisticalEncounterModel {
        max_cpa_horizontal_ft: 2500.0,
        max_cpa_vertical_ft: 500.0,
        ..StatisticalEncounterModel::default()
    }
}

fn paired_jobs() -> Vec<PairedJob> {
    let model = enriched();
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    (0..64)
        .map(|i| PairedJob {
            params: model.sample(&mut rng),
            seed: 10_000 + i,
        })
        .collect()
}

fn own_only_jobs() -> Vec<SimJob> {
    let model = enriched();
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    (0..24)
        .map(|i| SimJob {
            params: model.sample(&mut rng),
            seed: 20_000 + i,
            equipage: Equipage::OwnOnly,
        })
        .collect()
}

fn multi_jobs(mode: MultiMode) -> Vec<MultiJob> {
    let model = MultiEncounterModel {
        densities: vec![3, 5, 8],
        density_weights: vec![1.0, 1.0, 1.0],
        ..MultiEncounterModel::default()
    };
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    model
        .strata()
        .into_iter()
        .flat_map(|stratum| [stratum, stratum])
        .enumerate()
        .map(|(i, stratum)| MultiJob {
            params: model.sample_in(stratum, &mut rng),
            seed: 30_000 + i as u64,
            mode,
        })
        .collect()
}

fn split_jobs() -> Vec<SplitJob> {
    let model = enriched();
    let stratification = Stratification::new(3);
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    stratification
        .strata()
        .into_iter()
        .filter(|s: &Stratum| s.cpa_bin > 0)
        .take(6)
        .enumerate()
        .map(|(i, stratum)| {
            let levels = stratification.severity_levels(&model, stratum, 2, NMAC_HORIZONTAL_FT);
            SplitJob {
                params: stratification.sample(&model, stratum, &mut rng),
                seed: 40_000 + i as u64,
                branches: vec![3; levels.len()],
                levels,
            }
        })
        .collect()
}

fn check(name: &str, actual: &str, pinned: &str) {
    assert_eq!(
        actual, pinned,
        "{name}: serialized outcome bytes changed (digest now {actual})"
    );
}

#[test]
fn paired_enriched_jobs_match_pinned_bytes_on_both_engines() {
    let jobs = paired_jobs();
    for (name, engine) in [
        ("paired/cohort64", SimEngine::Cohort { width: 64 }),
        ("paired/scalar", SimEngine::Scalar),
    ] {
        let outcomes = BatchRunner::new(runner(), Executor::serial())
            .engine(engine)
            .run_paired(&jobs);
        assert!(
            outcomes.iter().any(|o| o.equipped.alerted())
                && outcomes.iter().any(|o| o.unequipped.nmac),
            "the pinned set must exercise alerts and NMACs"
        );
        check(name, &digest(&outcomes), "99d8be7bce1a66d8");
    }
}

#[test]
fn own_only_jobs_match_pinned_bytes_on_both_engines() {
    let jobs = own_only_jobs();
    for (name, engine) in [
        ("own_only/cohort64", SimEngine::Cohort { width: 64 }),
        ("own_only/scalar", SimEngine::Scalar),
    ] {
        let outcomes = BatchRunner::new(runner(), Executor::serial())
            .engine(engine)
            .run_batch(&jobs);
        check(name, &digest(&outcomes), "146d3ec514f35b91");
    }
}

#[test]
fn multi_jobs_match_pinned_bytes_in_both_modes() {
    for (name, mode, pinned) in [
        ("multi/pairwise", MultiMode::Pairwise, "874b390c4deea8e1"),
        (
            "multi/coordinated",
            MultiMode::Coordinated,
            "e11668044f7cd49c",
        ),
    ] {
        let jobs = multi_jobs(mode);
        let outcomes = BatchRunner::new(runner(), Executor::serial()).run_multis(&jobs);
        check(name, &digest(&outcomes), pinned);
    }
}

#[test]
fn splitting_jobs_match_pinned_bytes() {
    let jobs = split_jobs();
    assert!(
        jobs.iter().all(|j| !j.levels.is_empty()),
        "every pinned splitting job must branch on a severity ladder"
    );
    let outcomes = BatchRunner::new(runner(), Executor::serial()).run_splits(&jobs);
    assert!(
        outcomes.iter().any(|o| o.level_crossings[0] > 0),
        "some root must cross its first rung and branch"
    );
    check("splitting", &digest(&outcomes), "b7e003d7d606dc71");
}
