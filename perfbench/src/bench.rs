//! What every workload reports, and how the two metric sets are built
//! from it.

use std::collections::BTreeMap;

use crate::replay::ReplayStats;
use crate::trace::{
    layer_self_ns, median, quantile, unattributed_frac, union_len, Layer, Span, Tracer,
};

/// Run-wide settings handed to a workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the measured window, s.
    pub seconds: f64,
    /// Worker threads for load (the machine's parallelism).
    pub threads: usize,
    /// Span recorder of this window.
    pub tracer: &'static Tracer,
}

/// splitmix64 of `seed` and `k`: the seed of the `k`-th input derived
/// from a workload seed.
pub fn derive(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Window bounds, ns since the tracer origin.
    pub start: u64,
    /// See `start`.
    pub end: u64,
    /// Submit → final result, s, per campaign or search.
    pub results_s: Vec<f64>,
    /// Gaps between consecutive round results seen by the caller, ms.
    pub round_gaps_ms: Vec<f64>,
    /// UAV-steps simulated for the results (from the outcomes).
    pub uav_steps: u64,
    /// UAV-steps with an active maneuver command.
    pub alert_steps: u64,
    /// Jobs run (paired runs, splitting roots, multi encounters, or
    /// single runs of a fitness evaluation).
    pub jobs: u64,
    /// Rounds completed (campaign rounds, or GA generations).
    pub rounds: u64,
    /// Campaigns or searches started.
    pub attempted: u64,
    /// Campaigns or searches that errored or failed their output check.
    pub failed: u64,
    /// Exact counts of the run's first campaign or search, a pure
    /// function of the seed: UAV-steps, runs to its result, GA
    /// evaluations, and (`fleet_tcp`) client and shard wire bytes of
    /// that campaign run alone.
    pub first: FirstUnit,
    /// `exec.map` calls and items.
    pub maps: u64,
    /// See `maps`.
    pub items: u64,
    /// Workers that can run `exec.map` items at once: one pool of
    /// `nproc` threads, the GA's `nproc` serial evaluations, or one
    /// serial worker per shard.
    pub exec_threads: usize,
    /// The tick-level replay of sampled jobs.
    pub replay: ReplayStats,
    /// Layer metrics only one workload can measure (`serve.*`, `evo.*`,
    /// and `core.*` overrides), by name.
    pub extra: BTreeMap<&'static str, f64>,
}

/// Exact counts of a run's first work unit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FirstUnit {
    /// UAV-steps.
    pub uav_steps: u64,
    /// Simulation runs needed before its result (to the CI target on
    /// `paired_local`).
    pub runs_to_target: u64,
    /// GA fitness evaluations.
    pub evaluations: u64,
    /// Client↔server bytes.
    pub wire_bytes_client: u64,
    /// Coordinator↔shard bytes.
    pub wire_bytes_shard: u64,
}

impl Window {
    /// Measured wall time, s.
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }

    /// UAV-steps per wall second.
    pub fn steps_per_s(&self) -> f64 {
        self.uav_steps as f64 / self.wall_s()
    }
}

/// One metric: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The untraced end-to-end metrics.
pub fn end_to_end(w: &Window, setup_s: &[f64], peak_rss_mib: f64) -> Metrics {
    let mut m = Metrics::new();
    m.insert("setup_s".into(), (median(setup_s), "s"));
    m.insert("time_to_result_s_p50".into(), (median(&w.results_s), "s"));
    m.insert("uav_steps_per_s".into(), (w.steps_per_s(), "1/s"));
    m.insert(
        "round_latency_ms_p50".into(),
        (quantile(&w.round_gaps_ms, 0.5), "ms"),
    );
    m.insert(
        "round_latency_ms_p90".into(),
        (quantile(&w.round_gaps_ms, 0.9), "ms"),
    );
    m.insert("peak_rss_mib".into(), (peak_rss_mib, "MiB"));
    m
}

/// The names of every metric the traced run reports, with units.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("mdp.solve_s", "s"),
    ("acasx.decides", "count"),
    ("acasx.decide_ns_p50", "ns"),
    ("acasx.decide_share", "frac"),
    ("sim.uav_steps", "count"),
    ("sim.ns_per_uav_step", "ns"),
    ("sim.alert_step_frac", "frac"),
    ("sim.step_ns_p50", "ns"),
    ("sim.self_s", "s"),
    ("exec.maps", "count"),
    ("exec.items", "count"),
    ("exec.busy_s", "s"),
    ("exec.wall_s", "s"),
    ("exec.parallel_eff", "frac"),
    ("exec.self_s", "s"),
    ("core.rounds", "count"),
    ("core.runs", "count"),
    ("core.runs_to_target", "count"),
    ("core.plan_s", "s"),
    ("core.complete_s", "s"),
    ("core.source_s", "s"),
    ("core.self_s", "s"),
    ("serve.frames", "count"),
    ("serve.wire_bytes_client", "bytes"),
    ("serve.wire_bytes_shard", "bytes"),
    ("serve.wire_bytes_per_job", "bytes"),
    ("serve.batch_rtt_ms_p50", "ms"),
    ("serve.shard_busy_s", "s"),
    ("serve.shard_idle_frac", "frac"),
    ("serve.codec_s", "s"),
    ("serve.dispatch_ms_p50", "ms"),
    ("serve.requeued", "count"),
    ("serve.duplicates_rejected", "count"),
    ("serve.self_s", "s"),
    ("evo.generations", "count"),
    ("evo.evaluations", "count"),
    ("evo.eval_ms_p50", "ms"),
    ("evo.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

fn sum_len(spans: &[&Span], layer: Layer, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.duration())
        .sum::<u64>() as f64
        * 1e-9
}

/// The traced per-layer metrics of window `w`, whose spans are the
/// recorded spans that start inside it. `untraced_steps_per_s` is the
/// same workload's untraced throughput, for the tracing overhead.
pub fn per_layer(
    w: &Window,
    spans: &[Span],
    solve_s: &[f64],
    untraced_steps_per_s: f64,
) -> Metrics {
    let inside: Vec<Span> = spans
        .iter()
        .filter(|s| s.start >= w.start && s.start < w.end)
        .copied()
        .collect();
    let refs: Vec<&Span> = inside.iter().collect();
    let selfs = layer_self_ns(&inside);
    let self_s = |l: Layer| selfs[&l] as f64 * 1e-9;
    let busy_s = sum_len(&refs, Layer::Sim, "job");
    let map_union: Vec<(u64, u64)> = refs
        .iter()
        .filter(|s| s.layer == Layer::Exec)
        .map(|s| (s.start, s.end))
        .collect();
    let exec_wall_s = union_len(&map_union) as f64 * 1e-9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let p50_ns = |ns: &[u64]| {
        let v: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
        if v.is_empty() {
            0.0
        } else {
            quantile(&v, 0.5)
        }
    };

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("mdp.solve_s", median(solve_s));
    v.insert("acasx.decides", w.replay.decide_ns.len() as f64);
    v.insert("acasx.decide_ns_p50", p50_ns(&w.replay.decide_ns));
    v.insert("acasx.decide_share", w.replay.decide_share());
    v.insert("sim.uav_steps", w.first.uav_steps as f64);
    v.insert(
        "sim.ns_per_uav_step",
        ratio(busy_s * 1e9, w.uav_steps as f64),
    );
    v.insert(
        "sim.alert_step_frac",
        ratio(w.alert_steps as f64, w.uav_steps as f64),
    );
    v.insert("sim.step_ns_p50", p50_ns(&w.replay.step_ns));
    v.insert("sim.self_s", self_s(Layer::Sim));
    v.insert("exec.maps", w.maps as f64);
    v.insert("exec.items", w.items as f64);
    v.insert("exec.busy_s", busy_s);
    v.insert("exec.wall_s", exec_wall_s);
    v.insert(
        "exec.parallel_eff",
        ratio(busy_s, exec_wall_s * w.exec_threads as f64),
    );
    v.insert("exec.self_s", self_s(Layer::Exec));
    v.insert("core.rounds", w.rounds as f64);
    v.insert("core.runs", w.jobs as f64);
    v.insert("core.runs_to_target", w.first.runs_to_target as f64);
    v.insert("core.plan_s", sum_len(&refs, Layer::Core, "plan_round"));
    v.insert(
        "core.complete_s",
        sum_len(&refs, Layer::Core, "complete_round"),
    );
    v.insert("core.source_s", sum_len(&refs, Layer::Core, "source"));
    v.insert("core.self_s", self_s(Layer::Core));
    v.insert("serve.self_s", self_s(Layer::Serve));
    v.insert("serve.wire_bytes_client", w.first.wire_bytes_client as f64);
    v.insert("serve.wire_bytes_shard", w.first.wire_bytes_shard as f64);
    v.insert("evo.evaluations", w.first.evaluations as f64);
    v.insert("evo.self_s", self_s(Layer::Evo));
    v.insert(
        "trace.overhead_frac",
        1.0 - ratio(w.steps_per_s(), untraced_steps_per_s),
    );
    v.insert(
        "trace.unattributed_frac",
        unattributed_frac(&inside, w.start, w.end),
    );
    for (k, x) in &w.extra {
        v.insert(k, *x);
    }

    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                (v.get(name).copied().unwrap_or(0.0), unit),
            )
        })
        .collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
