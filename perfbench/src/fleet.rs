//! `fleet_tcp`: a `CampaignServer` on loopback TCP over a two-shard
//! fleet (one serial worker per shard, hosted here via `serve_shard`),
//! driven by two client sessions that each loop create → stream → next
//! over adaptive paired, uniform paired and splitting campaigns with
//! small rounds (one or two dispatch quanta each). Every fourth campaign
//! of a session is paused, cancelled once it has completed at least two
//! rounds, and re-created from the checkpoint the cancel returned.
//!
//! The server runs up to 16 dispatch quanta between two requests of a
//! session, so the rounds a campaign completes before its creator's
//! `Stream` request is read reach the client as one replayed burst.
//! Campaigns are therefore long (about fifty rounds), so most rounds a
//! client sees arrive live.
//!
//! Every served result must serialize byte-identically to the
//! in-process planner run of the same spec; those references are
//! computed after the measured window.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use uavca_encounter::{StatisticalEncounterModel, Stratification};
use uavca_exec::Executor;
use uavca_serve::{
    decode, encode, serve_shard, CampaignClient, CampaignRequest, CampaignResult, CampaignServer,
    CampaignSpec, CampaignState, Event, Request, ServeError, ShardEvent, ShardRequest,
    ShardedBackend, SplitCampaignRequest, TcpTransport, Transport,
};
use uavca_validation::{
    BatchRunner, CampaignConfig, CampaignPlanner, EncounterRunner, PairSource, SplitConfig,
    SplitPlanner, SplitSource,
};

use crate::bench::{derive, Ctx, Window};
use crate::drive::drive;
use crate::paired::enriched;
use crate::replay::replay_pairs;
use crate::trace::{covered_len, median, quantile, Layer, Tracer};
use crate::wrap::{Frame, Link, MapCounts, Metered, TimedBackend, TimedSource, WireLog};

/// Shards in the fleet.
pub const SHARDS: usize = 2;
/// Client sessions driving load.
pub const SESSIONS: usize = 2;
/// Frame text kept for the codec replay, bytes.
const CAPTURE_BYTES: u64 = 48 << 20;

/// The `c`-th campaign of client session `session`, and whether it is
/// cancelled and resumed.
pub fn spec(seed: u64, session: usize, c: u64) -> (CampaignSpec, bool) {
    let seed = derive(derive(seed, session as u64), c);
    let victim = c % 4 == 3;
    let spec = match c % 3 {
        2 => CampaignSpec::Splitting {
            request: SplitCampaignRequest {
                config: SplitConfig {
                    seed,
                    levels: 2,
                    max_branch: 3,
                    pilot_roots_per_stratum: 2,
                    round_roots: 16,
                    max_rounds: 24,
                    target_half_width: f64::INFINITY,
                    threads: 0,
                },
                model: enriched(),
                cpa_bins: 2,
            },
        },
        kind => CampaignSpec::Paired {
            request: CampaignRequest {
                config: CampaignConfig {
                    seed,
                    pilot_per_stratum: 3,
                    round_runs: 32,
                    max_rounds: 48,
                    target_half_width: f64::INFINITY,
                    threads: 0,
                },
                model: StatisticalEncounterModel::default(),
                cpa_bins: 2 + kind as usize,
                uniform: kind == 1,
            },
        },
    };
    (spec, victim)
}

/// A running fleet: shard threads, the server thread and its clients.
pub struct Fleet {
    /// The server (for shard usage).
    pub server: CampaignServer,
    /// One client per session.
    pub clients: Vec<CampaignClient>,
    /// Fan-out counters of each shard's backend.
    pub shard_counts: Vec<Arc<MapCounts>>,
    server_thread: JoinHandle<Result<(), ServeError>>,
    shard_threads: Vec<JoinHandle<Result<(), ServeError>>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet").finish_non_exhaustive()
    }
}

fn io(e: std::io::Error) -> ServeError {
    ServeError::Transport(uavca_serve::TransportError::Io(e.to_string()))
}

/// Spawns the shards, connects the coordinator, starts the server and
/// connects the clients — the set-up before the first job.
pub fn start(
    runner: &EncounterRunner,
    tracer: &'static Tracer,
    log: &Arc<WireLog>,
) -> Result<Fleet, ServeError> {
    let mut addrs = Vec::new();
    let mut shard_threads = Vec::new();
    let mut shard_counts = Vec::new();
    for i in 0..SHARDS {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        addrs.push(listener.local_addr().map_err(io)?);
        let backend = TimedBackend::new(Executor::serial(), tracer);
        shard_counts.push(backend.counts.clone());
        let batch = BatchRunner::new(runner.clone(), backend);
        let log = log.clone();
        shard_threads.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().map_err(io)?;
            let transport = TcpTransport::from_stream(stream).map_err(io)?;
            serve_shard(Metered::new(transport, tracer, log, Link::Shard, i), batch)
        }));
    }
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    for (i, addr) in addrs.iter().enumerate() {
        let t = TcpTransport::connect(addr).map_err(io)?;
        transports.push(Box::new(Metered::new(
            t,
            tracer,
            log.clone(),
            Link::Coordinator,
            i,
        )));
    }
    let server = CampaignServer::new(runner.clone(), ShardedBackend::from_transports(transports));
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let mut clients = Vec::new();
    let mut sessions: Vec<Box<dyn Transport>> = Vec::new();
    for i in 0..SESSIONS {
        let client_end = TcpTransport::connect(addr).map_err(io)?;
        let (stream, _) = listener.accept().map_err(io)?;
        sessions.push(Box::new(TcpTransport::from_stream(stream).map_err(io)?));
        clients.push(CampaignClient::new(Metered::new(
            client_end,
            tracer,
            log.clone(),
            Link::Client,
            i,
        )));
    }
    let serving = server.clone();
    let server_thread = std::thread::spawn(move || serving.serve_sessions(sessions));
    Ok(Fleet {
        server,
        clients,
        shard_counts,
        server_thread,
        shard_threads,
    })
}

impl Fleet {
    /// Shuts the server down, drops the coordinator (which shuts the
    /// shards down) and joins every thread. `true` when all ended cleanly.
    pub fn stop(self) -> bool {
        let mut clients = self.clients.into_iter();
        let mut clean = clients.next().is_some_and(|c| c.shutdown().is_ok());
        drop(clients);
        clean &= matches!(self.server_thread.join(), Ok(Ok(())));
        drop(self.server);
        for handle in self.shard_threads {
            clean &= matches!(handle.join(), Ok(Ok(())));
        }
        clean
    }

    fn shard_jobs(&self) -> u64 {
        self.server
            .backend()
            .usage()
            .iter()
            .map(|u| u.jobs_completed as u64)
            .sum()
    }
}

/// One campaign as a client saw it.
struct Served {
    spec: CampaignSpec,
    result: Result<CampaignResult, ServeError>,
}

/// Round results seen by one session: `(previous, this)` times, ns.
type Rounds = Vec<(u64, u64)>;

/// Runs one campaign through `client`, recording live round intervals.
fn serve_one(
    tracer: &Tracer,
    client: &CampaignClient,
    spec: &CampaignSpec,
    victim: bool,
    rounds: &mut Rounds,
) -> Result<CampaignResult, ServeError> {
    let mut last = tracer.now();
    let mut id = client.create_campaign(spec, None)?;
    let mut replayed = 0;
    if victim {
        client.pause_campaign(id)?;
        let mut status = client.campaign_status(id)?;
        while status.rounds_completed < 2 && status.state == CampaignState::Paused {
            client.resume_campaign(id)?;
            client.pause_campaign(id)?;
            status = client.campaign_status(id)?;
        }
        let checkpoint = client.cancel_campaign(id)?;
        replayed = status.rounds_completed;
        id = client.create_campaign(spec, Some(&checkpoint))?;
        last = tracer.now();
    }
    let mut seen = 0;
    client.stream_campaign(id, |_| {
        seen += 1;
        if seen > replayed {
            let now = tracer.now();
            rounds.push((last, now));
            last = now;
        }
    })
}

fn json<T: serde::Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("results serialize")
}

/// The in-process planner run of `spec` on `pairs`/`splits`.
fn reference<P: PairSource, S: SplitSource>(
    tracer: &Tracer,
    runner: &EncounterRunner,
    spec: &CampaignSpec,
    pairs: &P,
    splits: &S,
) -> Option<CampaignResult> {
    match spec {
        CampaignSpec::Paired { request } => {
            let planner = CampaignPlanner::new(runner.clone(), request.config)
                .model(request.model)
                .stratification(Stratification::new(request.cpa_bins));
            let mut stepper = if request.uniform {
                planner.uniform_stepper()
            } else {
                planner.stepper()
            }
            .ok()?;
            drive(tracer, &mut stepper, |p| pairs.run_pairs(&p.jobs), || {});
            Some(CampaignResult::Paired {
                outcome: stepper.outcome(),
            })
        }
        CampaignSpec::Splitting { request } => {
            let mut stepper = SplitPlanner::new(runner.clone(), request.config)
                .model(request.model)
                .stratification(Stratification::new(request.cpa_bins))
                .stepper()
                .ok()?;
            drive(tracer, &mut stepper, |p| splits.run_splits(&p.jobs), || {});
            Some(CampaignResult::Splitting {
                outcome: stepper.outcome(),
            })
        }
    }
}

/// Runs the two sessions for `ctx.seconds`, then checks every result
/// against its in-process reference and measures the first campaign's
/// wire bytes alone.
pub fn window(ctx: &Ctx, runner: &EncounterRunner) -> Window {
    let tracer = ctx.tracer;
    let log = Arc::new(WireLog::new(if tracer.enabled() {
        CAPTURE_BYTES
    } else {
        0
    }));
    let mut w = Window {
        exec_threads: SHARDS,
        ..Window::default()
    };
    let fleet = match start(runner, tracer, &log) {
        Ok(fleet) => fleet,
        Err(_) => {
            w.attempted = 1;
            w.failed = 1;
            return w;
        }
    };
    let frames0 =
        log.client_frames.load(Ordering::Relaxed) + log.shard_frames.load(Ordering::Relaxed);
    let (client0, shard0) = log.bytes();
    let jobs0 = fleet.shard_jobs();
    w.start = tracer.now();
    let deadline = w.start + (ctx.seconds * 1e9) as u64;
    let sessions: Vec<(Vec<Served>, Rounds, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .clients
            .iter()
            .enumerate()
            .map(|(session, client)| {
                scope.spawn(move || {
                    let mut served = Vec::new();
                    let mut rounds = Rounds::new();
                    let mut times = Vec::new();
                    let mut c = 0;
                    while c == 0 || tracer.now() < deadline {
                        let (spec, victim) = spec(ctx.seed, session, c);
                        let submitted = tracer.now();
                        let result = serve_one(tracer, client, &spec, victim, &mut rounds);
                        times.push((tracer.now() - submitted) as f64 * 1e-9);
                        served.push(Served { spec, result });
                        c += 1;
                    }
                    (served, rounds, times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client session thread panicked"))
            .collect()
    });
    w.end = tracer.now();
    let frames = log.client_frames.load(Ordering::Relaxed)
        + log.shard_frames.load(Ordering::Relaxed)
        - frames0;
    let (client1, shard1) = log.bytes();
    let window_bytes = (client1 - client0) + (shard1 - shard0);
    w.jobs = fleet.shard_jobs() - jobs0;
    w.maps = fleet
        .shard_counts
        .iter()
        .map(|c| c.maps.load(Ordering::Relaxed))
        .sum();
    w.items = fleet
        .shard_counts
        .iter()
        .map(|c| c.items.load(Ordering::Relaxed))
        .sum();
    let mut round_intervals = Vec::new();
    for (served, rounds, times) in &sessions {
        w.attempted += served.len() as u64;
        w.results_s.extend(times);
        w.round_gaps_ms
            .extend(rounds.iter().map(|(a, b)| (b - a) as f64 * 1e-6));
        round_intervals.extend(rounds.iter().copied());
    }
    w.rounds = round_intervals.len() as u64;

    let usage = fleet.server.backend().usage();
    let faults = fleet.server.backend().take_faults();
    if !fleet.stop() || !faults.is_empty() {
        w.failed += 1;
    }

    // Probe: the first campaign of session 0 alone on a fresh fleet
    // (campaign ids, which every event carries, start again at 0), so
    // its wire bytes are a pure function of the seed.
    let probe_log = Arc::new(WireLog::new(0));
    let probe = start(runner, Tracer::off(), &probe_log).and_then(|fleet| {
        let (probe_spec, _) = spec(ctx.seed, 0, 0);
        let result = serve_one(
            Tracer::off(),
            &fleet.clients[0],
            &probe_spec,
            false,
            &mut Rounds::new(),
        );
        if fleet.stop() {
            result
        } else {
            Err(ServeError::Server(
                "the probe fleet did not shut down cleanly".into(),
            ))
        }
    });
    (w.first.wire_bytes_client, w.first.wire_bytes_shard) = probe_log.bytes();

    // References, outside the window.
    let reference_start = tracer.now();
    let batch = BatchRunner::new(runner.clone(), Executor::new(ctx.threads));
    let pairs = TimedSource::new(batch.clone(), tracer, runner.sim().dt_s, 16);
    let splits = TimedSource::new(batch, tracer, runner.sim().dt_s, 0);
    let mut first = true;
    for (served, _, _) in &sessions {
        for s in served {
            let want = reference(tracer, runner, &s.spec, &pairs, &splits);
            let ok = match (&s.result, &want) {
                (Ok(got), Some(want)) => json(got) == json(want),
                _ => false,
            };
            w.failed += u64::from(!ok);
            if first {
                first = false;
                w.first.uav_steps = pairs.work.get().0 + splits.work.get().0;
                w.first.runs_to_target = pairs.work.get().2 + splits.work.get().2;
                let probe_ok =
                    matches!((&probe, &want), (Ok(got), Some(want)) if json(got) == json(want));
                w.failed += u64::from(!probe_ok);
            }
        }
    }
    let reference_end = tracer.now();
    let (ps, pa, _) = pairs.work.get();
    let (ss, sa, _) = splits.work.get();
    w.uav_steps = ps + ss;
    w.alert_steps = pa + sa;

    w.extra.insert("serve.frames", frames as f64);
    w.extra.insert(
        "serve.wire_bytes_per_job",
        window_bytes as f64 / w.jobs.max(1) as f64,
    );
    w.extra.insert(
        "serve.requeued",
        usage.iter().map(|u| u.jobs_requeued as f64).sum(),
    );
    w.extra.insert(
        "serve.duplicates_rejected",
        usage.iter().map(|u| u.duplicates_rejected as f64).sum(),
    );
    if tracer.enabled() {
        analyse(
            ctx,
            &mut w,
            &log.frames(),
            &round_intervals,
            window_bytes,
            reference_start,
            reference_end,
        );
        let sample: Vec<_> = pairs
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

/// Serve-layer metrics from the frame log of a traced window.
fn analyse(
    ctx: &Ctx,
    w: &mut Window,
    frames: &[Frame],
    rounds: &[(u64, u64)],
    window_bytes: u64,
    reference_start: u64,
    reference_end: u64,
) {
    let tracer = ctx.tracer;
    let inside: Vec<&Frame> = frames
        .iter()
        .filter(|f| f.at >= w.start && f.at < w.end)
        .collect();

    // Batch round trips per shard link, and per batch across links.
    let mut per_link: BTreeMap<(usize, u64), (u64, u64)> = BTreeMap::new();
    for f in inside.iter().filter(|f| f.link == Link::Coordinator) {
        let Some(batch) = f.batch else { continue };
        let entry = per_link
            .entry((f.link_index, batch))
            .or_insert((u64::MAX, 0));
        if f.sent {
            entry.0 = entry.0.min(f.at);
        } else {
            entry.1 = entry.1.max(f.at);
        }
    }
    let mut per_batch: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut rtt_ms = Vec::new();
    for (&(_, batch), &(sent, last)) in &per_link {
        if sent == u64::MAX || last < sent {
            continue;
        }
        rtt_ms.push((last - sent) as f64 * 1e-6);
        let entry = per_batch.entry(batch).or_insert((sent, last));
        entry.0 = entry.0.min(sent);
        entry.1 = entry.1.max(last);
    }
    let batches: Vec<(u64, u64)> = per_batch.values().copied().collect();
    for &(start, end) in &batches {
        tracer.record(Layer::Serve, "batch", None, start, end);
    }
    let dispatch_ms: Vec<f64> = rounds
        .iter()
        .map(|&(a, b)| ((b - a) - covered_len(a, b, &batches)) as f64 * 1e-6)
        .collect();

    // Codec: captured window frames decoded and re-encoded.
    let mut captured_bytes = 0u64;
    let codec_start = Instant::now();
    for f in &inside {
        let Some(text) = &f.text else { continue };
        captured_bytes += f.bytes;
        let line = match (f.link, f.sent) {
            (Link::Coordinator, true) => decode::<ShardRequest>(text).map(|m| encode(&m)),
            (Link::Coordinator, false) => decode::<ShardEvent>(text).map(|m| encode(&m)),
            (_, true) => decode::<Request>(text).map(|m| encode(&m)),
            (_, false) => decode::<Event>(text).map(|m| encode(&m)),
        };
        std::hint::black_box(line.ok());
    }
    let codec_s =
        codec_start.elapsed().as_secs_f64() * window_bytes as f64 / captured_bytes.max(1) as f64;

    let spans = tracer.spans();
    let in_window = |s: &&crate::trace::Span| s.start >= w.start && s.start < w.end;
    let busy_s: f64 = spans
        .iter()
        .filter(in_window)
        .filter(|s| s.name == "shard_busy")
        .map(|s| s.duration() as f64 * 1e-9)
        .sum();
    let in_reference =
        |s: &&crate::trace::Span| s.start >= reference_start && s.start < reference_end;
    let core_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(in_reference)
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 * 1e-9)
            .sum()
    };
    w.extra.insert("serve.batch_rtt_ms_p50", median(&rtt_ms));
    w.extra.insert("serve.shard_busy_s", busy_s);
    w.extra.insert(
        "serve.shard_idle_frac",
        1.0 - busy_s / (w.wall_s() * SHARDS as f64),
    );
    w.extra.insert("serve.codec_s", codec_s);
    w.extra
        .insert("serve.dispatch_ms_p50", quantile(&dispatch_ms, 0.5));
    w.extra.insert("core.plan_s", core_s("plan_round"));
    w.extra.insert("core.complete_s", core_s("complete_round"));
    w.extra.insert(
        "core.source_s",
        batches.iter().map(|(a, b)| (b - a) as f64 * 1e-9).sum(),
    );
}
