//! The timing wrappers are transparent: wrapped and unwrapped calls give
//! byte-identical (serialized) outcomes on a small seed.

use std::sync::{Arc, OnceLock};

use uavca_encounter::{
    EncounterParams, MultiEncounterModel, StatisticalEncounterModel, Stratification,
};
use uavca_exec::Executor;
use uavca_perfbench::drive::drive;
use uavca_perfbench::ga;
use uavca_perfbench::replay::{replay_multis, replay_pairs};
use uavca_perfbench::trace::{Layer, Tracer};
use uavca_perfbench::wrap::{Link, Metered, TimedBackend, TimedSource, WireLog};
use uavca_serve::{
    channel_pair, serve_shard, CampaignClient, CampaignRequest, CampaignResult, CampaignServer,
    CampaignSpec, ShardedBackend, Transport,
};
use uavca_sim::MultiMode;
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignPlanner, EncounterRunner, Equipage, MultiCampaignPlanner,
    PairSource, PairedJob, SearchConfig, SearchHarness, SimJob, SplitConfig, SplitPlanner,
};

fn runner() -> &'static EncounterRunner {
    static RUNNER: OnceLock<EncounterRunner> = OnceLock::new();
    RUNNER.get_or_init(EncounterRunner::with_coarse_table)
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<&'static Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Box::leak(Box::new(Tracer::new(true))))
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        pilot_per_stratum: 2,
        round_runs: 12,
        max_rounds: 2,
        target_half_width: f64::INFINITY,
        threads: 2,
    }
}

fn paired_planner() -> CampaignPlanner {
    CampaignPlanner::new(runner().clone(), campaign_config(7))
        .model(StatisticalEncounterModel {
            max_cpa_horizontal_ft: 2500.0,
            max_cpa_vertical_ft: 500.0,
            ..StatisticalEncounterModel::default()
        })
        .stratification(Stratification::new(2))
}

fn split_planner() -> SplitPlanner {
    SplitPlanner::new(
        runner().clone(),
        SplitConfig {
            seed: 5,
            levels: 2,
            max_branch: 2,
            pilot_roots_per_stratum: 1,
            round_roots: 4,
            max_rounds: 1,
            target_half_width: f64::INFINITY,
            threads: 2,
        },
    )
    .stratification(Stratification::new(2))
}

fn multi_planner(mode: MultiMode) -> MultiCampaignPlanner {
    MultiCampaignPlanner::new(
        runner().clone(),
        CampaignConfig {
            round_runs: 9,
            max_rounds: 1,
            ..campaign_config(3)
        },
    )
    .model(MultiEncounterModel {
        densities: vec![2, 3],
        density_weights: vec![0.5, 0.5],
        ..MultiEncounterModel::default()
    })
    .mode(mode)
}

fn timed_batch() -> BatchRunner<TimedBackend<Executor>> {
    BatchRunner::new(
        runner().clone(),
        TimedBackend::new(Executor::new(2), tracer()),
    )
}

fn plain_batch() -> BatchRunner {
    BatchRunner::new(runner().clone(), Executor::new(2))
}

#[test]
fn timed_backend_is_transparent() {
    let jobs: Vec<PairedJob> = (0..40)
        .map(|i| PairedJob {
            params: EncounterParams::head_on_template(),
            seed: 100 + i,
        })
        .collect();
    assert_eq!(
        json(&timed_batch().run_paired(&jobs)),
        json(&plain_batch().run_paired(&jobs))
    );
    let sims: Vec<SimJob> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| SimJob {
            params: j.params,
            seed: j.seed,
            equipage: [Equipage::Both, Equipage::OwnOnly, Equipage::Neither][i % 3],
        })
        .collect();
    assert_eq!(
        json(&timed_batch().run_batch(&sims)),
        json(&plain_batch().run_batch(&sims))
    );
    let spans = tracer().spans();
    assert!(spans
        .iter()
        .any(|s| s.layer == Layer::Exec && s.name == "map"));
    assert!(spans
        .iter()
        .any(|s| s.layer == Layer::Sim && s.parent.is_some()));
}

#[test]
fn timed_sources_are_transparent() {
    let dt = runner().sim().dt_s;
    let pairs = TimedSource::new(timed_batch(), tracer(), dt, 8);
    let planner = paired_planner();
    assert_eq!(
        json(&planner.run_with(&pairs).unwrap()),
        json(&planner.run().unwrap())
    );
    assert_eq!(
        json(&planner.run_uniform_with(&pairs).unwrap()),
        json(&planner.run_uniform().unwrap())
    );
    assert!(
        pairs.work.get().0 > 0,
        "steps were counted from the outcomes"
    );
    assert_eq!(pairs.sample.lock().unwrap().pairs.len(), 8);

    let splits = TimedSource::new(timed_batch(), tracer(), dt, 0);
    let planner = split_planner();
    assert_eq!(
        json(&planner.run_with(&splits).unwrap()),
        json(&planner.run().unwrap())
    );

    let multis = TimedSource::new(timed_batch(), tracer(), dt, 4);
    for mode in [MultiMode::Pairwise, MultiMode::Coordinated] {
        let planner = multi_planner(mode);
        assert_eq!(
            json(&planner.run_with(&multis).unwrap()),
            json(&planner.run().unwrap())
        );
    }
}

#[test]
fn the_round_driver_matches_the_planner_run_paths() {
    let source = plain_batch();
    let planner = paired_planner();
    let mut stepper = planner.stepper().unwrap();
    let rounds = drive(tracer(), &mut stepper, |p| source.run_pairs(&p.jobs), || {});
    let outcome = stepper.outcome();
    assert_eq!(rounds, outcome.rounds.len());
    assert_eq!(json(&outcome), json(&planner.run().unwrap()));

    let planner = split_planner();
    let mut stepper = planner.stepper().unwrap();
    drive(
        tracer(),
        &mut stepper,
        |p| source.run_splits(&p.jobs),
        || {},
    );
    assert_eq!(json(&stepper.outcome()), json(&planner.run().unwrap()));

    let planner = multi_planner(MultiMode::Coordinated);
    let mut stepper = planner.stepper().unwrap();
    drive(
        tracer(),
        &mut stepper,
        |p| source.run_multis(&p.jobs),
        || {},
    );
    assert_eq!(json(&stepper.outcome()), json(&planner.run().unwrap()));
}

/// A two-shard fleet over metered channel transports.
fn metered_fleet(log: &Arc<WireLog>) -> (ShardedBackend, Vec<std::thread::JoinHandle<()>>) {
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut threads = Vec::new();
    for i in 0..2 {
        let (coordinator, shard) = channel_pair();
        let batch = BatchRunner::new(
            runner().clone(),
            TimedBackend::new(Executor::serial(), tracer()),
        );
        let shard = Metered::new(shard, tracer(), log.clone(), Link::Shard, i);
        threads.push(std::thread::spawn(move || {
            serve_shard(shard, batch).expect("shard serves cleanly");
        }));
        transports.push(Box::new(Metered::new(
            coordinator,
            tracer(),
            log.clone(),
            Link::Coordinator,
            i,
        )));
    }
    (ShardedBackend::from_transports(transports), threads)
}

#[test]
fn metered_transports_are_transparent() {
    let log = Arc::new(WireLog::new(1 << 20));
    let (fleet, threads) = metered_fleet(&log);
    let planner = paired_planner();
    assert_eq!(
        json(&planner.run_with(&fleet).unwrap()),
        json(&planner.run().unwrap())
    );
    let splits = split_planner();
    assert_eq!(
        json(&splits.run_with(&fleet).unwrap()),
        json(&splits.run().unwrap())
    );
    assert!(fleet.take_faults().is_empty());
    drop(fleet);
    for t in threads {
        t.join().unwrap();
    }
    let (client, shard) = log.bytes();
    assert_eq!(client, 0);
    assert!(shard > 0);
    let frames = log.frames();
    assert!(frames.iter().all(|f| f.link == Link::Coordinator));
    assert!(frames.iter().any(|f| f.sent && f.batch.is_some()));
    assert!(frames.iter().any(|f| !f.sent && f.batch.is_some()));
    assert!(tracer().spans().iter().any(|s| s.name == "shard_busy"));
}

#[test]
fn metered_client_sessions_are_transparent() {
    let log = Arc::new(WireLog::new(1 << 20));
    let (fleet, threads) = metered_fleet(&log);
    let server = CampaignServer::new(runner().clone(), fleet);
    let (client_end, server_end) = channel_pair();
    let serving = server.clone();
    let handle = std::thread::spawn(move || serving.serve_sessions(vec![Box::new(server_end)]));
    let client = CampaignClient::new(Metered::new(
        client_end,
        tracer(),
        log.clone(),
        Link::Client,
        0,
    ));
    let request = CampaignRequest {
        config: campaign_config(9),
        model: StatisticalEncounterModel::default(),
        cpa_bins: 2,
        uniform: false,
    };
    let id = client
        .create_campaign(&CampaignSpec::Paired { request }, None)
        .unwrap();
    let served = client.stream_campaign(id, |_| {}).unwrap();
    let planner = CampaignPlanner::new(runner().clone(), request.config)
        .model(request.model)
        .stratification(Stratification::new(request.cpa_bins));
    let want = CampaignResult::Paired {
        outcome: planner.run().unwrap(),
    };
    assert_eq!(json(&served), json(&want));
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    drop(server);
    for t in threads {
        t.join().unwrap();
    }
    assert!(log.bytes().0 > 0);
}

#[test]
fn timed_avoiders_replay_the_live_outcomes() {
    let r = runner();
    let runs: Vec<_> = (0..3)
        .map(|seed| {
            let params = EncounterParams::head_on_template();
            (params, seed, r.run_once_with(&params, seed, Equipage::Both))
        })
        .collect();
    let stats = replay_pairs(r, &runs);
    assert_eq!(stats.runs, 3);
    assert_eq!(stats.mismatches, 0);
    assert_eq!(stats.step_ns.len(), 3 * r.sim().num_steps());
    assert_eq!(
        stats.decide_ns.len(),
        2 * stats.step_ns.len(),
        "two avoiders decide each step"
    );

    let batch = plain_batch();
    let planner = multi_planner(MultiMode::Coordinated);
    let mut stepper = planner.stepper().unwrap();
    let planned = stepper.plan_round().unwrap();
    let jobs = &planned.jobs[..3];
    let outs = batch.run_multis(jobs);
    let runs: Vec<_> = jobs
        .iter()
        .zip(&outs)
        .map(|(j, o)| (j.params.clone(), j.seed, j.mode, o.equipped.clone()))
        .collect();
    let stats = replay_multis(r, &runs);
    assert_eq!(stats.mismatches, 0);
    assert!(stats.decide_share() > 0.0);
}

#[test]
fn the_composed_search_equals_run_ga() {
    let config = SearchConfig {
        population_size: 8,
        generations: 2,
        runs_per_eval: 3,
        seed: 4,
        threads: 2,
        objective: uavca_validation::FitnessKind::Proximity,
    };
    let ctx = uavca_perfbench::bench::Ctx {
        seed: 0,
        seconds: 1.0,
        threads: 2,
        tracer: tracer(),
    };
    let batch = BatchRunner::new(
        runner().clone(),
        TimedBackend::new(Executor::serial(), tracer()),
    );
    let (result, stats) = ga::search(&ctx, &batch, &config, 5);
    let want = SearchHarness::new(runner().clone(), config).run_ga();
    assert_eq!(json(&result), json(&want.result));
    assert_eq!(stats.generation_done.len(), 2);
    assert_eq!(stats.runs, 8 * 2 * 3);
    assert_eq!(stats.sample.len(), 5);
}
