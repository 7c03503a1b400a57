//! Runs one workload and prints its metrics as the last stdout line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paired_local --seed 1 --seconds 15 --trace 0
//! ```

// A benchmark exists to read the wall clock.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::Instant;

use uavca_acasx::{AcasConfig, LogicTable};
use uavca_perfbench::bench::{end_to_end, peak_rss_mib, per_layer, result_line, Ctx, Window};
use uavca_perfbench::trace::{median, Tracer};
use uavca_perfbench::wrap::WireLog;
use uavca_perfbench::{fleet, ga, multi, paired};
use uavca_validation::EncounterRunner;

const WORKLOADS: [&str; 4] = ["paired_local", "multi_local", "fleet_tcp", "ga_search"];
/// Set-ups per run; the median is reported.
const SETUPS: usize = 11;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        argv.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].clone())
            .ok_or(format!("missing {name}"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let number = |name: &str| -> Result<u64, String> {
        value(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// One set-up: the coarse logic table, plus (for `fleet_tcp`) the shard
/// fleet, server and client sessions up to the first job. Returns the
/// runner, the set-up time and the solve time.
fn setup(workload: &str, untraced: &'static Tracer) -> Result<(EncounterRunner, f64, f64), String> {
    let started = Instant::now();
    let runner = EncounterRunner::new(Arc::new(LogicTable::solve(&AcasConfig::coarse())));
    let solve_s = started.elapsed().as_secs_f64();
    if workload == "fleet_tcp" {
        let fleet = fleet::start(&runner, untraced, &Arc::new(WireLog::new(0)))
            .map_err(|e| e.to_string())?;
        let setup_s = started.elapsed().as_secs_f64();
        if !fleet.stop() {
            return Err("the set-up fleet did not shut down cleanly".into());
        }
        return Ok((runner, setup_s, solve_s));
    }
    Ok((runner, started.elapsed().as_secs_f64(), solve_s))
}

fn window(workload: &str, ctx: &Ctx, runner: &EncounterRunner) -> Window {
    match workload {
        "paired_local" => paired::window(ctx, runner),
        "multi_local" => multi::window(ctx, runner),
        "fleet_tcp" => fleet::window(ctx, runner),
        _ => ga::window(ctx, runner),
    }
}

fn summary(label: &str, w: &Window) {
    eprintln!(
        "[{label}] {} attempted, {} failed, {} results, {} rounds, {} jobs, {} UAV-steps in {:.3} s; \
         first unit: {:?}",
        w.attempted,
        w.failed,
        w.results_s.len(),
        w.round_gaps_ms.len(),
        w.jobs,
        w.uav_steps,
        w.wall_s(),
        w.first,
    );
}

fn main() {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let untraced = Tracer::off();
    let traced: &'static Tracer = Box::leak(Box::new(Tracer::new(args.trace)));

    let mut setup_s = Vec::new();
    let mut solve_s = Vec::new();
    let mut runner = None;
    for _ in 0..SETUPS {
        match setup(&args.workload, untraced) {
            Ok((r, s, m)) => {
                setup_s.push(s);
                solve_s.push(m);
                runner = Some(r);
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let runner = runner.expect("at least one set-up ran");
    eprintln!(
        "[setup] {} set-ups, median {:.4} s (solve {:.4} s), {threads} CPUs",
        SETUPS,
        median(&setup_s),
        median(&solve_s)
    );

    let ctx = |tracer| Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        tracer,
    };
    let base = window(&args.workload, &ctx(untraced), &runner);
    summary("untraced", &base);
    let (attempted, failed, metrics) = if args.trace {
        let w = window(&args.workload, &ctx(traced), &runner);
        summary("traced", &w);
        let metrics = per_layer(&w, &traced.spans(), &solve_s, base.steps_per_s());
        (
            base.attempted + w.attempted,
            base.failed + w.failed,
            metrics,
        )
    } else {
        (
            base.attempted,
            base.failed,
            end_to_end(&base, &setup_s, peak_rss_mib()),
        )
    };
    let finite = metrics.values().all(|(v, _)| v.is_finite());
    if !finite {
        eprintln!("perfbench: a metric was not finite: {metrics:?}");
    }
    println!(
        "{}",
        result_line(failed == 0 && finite, attempted, failed, &metrics)
    );
}
