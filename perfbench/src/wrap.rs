//! Timing wrappers around the public seams of each crate.
//!
//! Every wrapper forwards to the wrapped value unchanged — the outcomes
//! are byte-identical to the unwrapped calls (`tests/transparency.rs`) —
//! and adds spans and counters to a [`Tracer`]. With a disabled tracer
//! the spans are inert; the cheap counters the untraced metrics need
//! (UAV-steps from the outcomes) are kept either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use uavca_exec::Backend;
use uavca_serve::{RecvOutcome, Transport, TransportError};
use uavca_sim::{
    AvoiderContext, CollisionAvoider, EncounterOutcome, ManeuverCommand, MultiEncounterOutcome,
    SenseSet,
};
use uavca_validation::{
    MultiJob, MultiPairedOutcome, MultiSource, PairSource, PairedJob, PairedOutcome, SplitJob,
    SplitOutcome, SplitSource,
};

use crate::trace::{Layer, SpanGuard, Tracer};

/// UAV-steps of one two-aircraft run, from its simulated duration.
pub fn pair_run_steps(o: &EncounterOutcome, dt_s: f64) -> u64 {
    2 * (o.duration_s / dt_s).round() as u64
}

/// UAV-steps of one k-aircraft run.
pub fn multi_run_steps(o: &MultiEncounterOutcome, dt_s: f64) -> u64 {
    o.num_aircraft() as u64 * (o.duration_s / dt_s).round() as u64
}

/// Work counted from the outcomes a job source returned.
#[derive(Debug, Default)]
pub struct Work {
    /// Simulated UAV-steps (every aircraft of every arm).
    pub uav_steps: AtomicU64,
    /// UAV-steps with an active maneuver command.
    pub alert_steps: AtomicU64,
    /// Jobs run (paired runs, splitting roots or multi encounters).
    pub jobs: AtomicU64,
}

impl Work {
    fn add(&self, uav_steps: u64, alert_steps: u64, jobs: u64) {
        self.uav_steps.fetch_add(uav_steps, Ordering::Relaxed);
        self.alert_steps.fetch_add(alert_steps, Ordering::Relaxed);
        self.jobs.fetch_add(jobs, Ordering::Relaxed);
    }

    /// `(uav_steps, alert_steps, jobs)` so far.
    pub fn get(&self) -> (u64, u64, u64) {
        (
            self.uav_steps.load(Ordering::Relaxed),
            self.alert_steps.load(Ordering::Relaxed),
            self.jobs.load(Ordering::Relaxed),
        )
    }
}

/// Jobs of one kind that passed through a source, kept for replay.
#[derive(Debug, Default)]
pub struct JobSample {
    /// Paired jobs with their outcomes.
    pub pairs: Vec<(PairedJob, PairedOutcome)>,
    /// Multi jobs with their outcomes.
    pub multis: Vec<(MultiJob, MultiPairedOutcome)>,
}

/// A job source (`PairSource`, `MultiSource` or `SplitSource`) that
/// opens a `core.source` span around each batch, counts the work in
/// the returned outcomes and keeps the first `sample_cap` jobs.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    tracer: &'static Tracer,
    dt_s: f64,
    /// Work done through this source.
    pub work: Arc<Work>,
    /// The first jobs seen, for replay.
    pub sample: Arc<Mutex<JobSample>>,
    sample_cap: usize,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`; `dt_s` is the simulation step the outcomes use.
    pub fn new(inner: S, tracer: &'static Tracer, dt_s: f64, sample_cap: usize) -> Self {
        Self {
            inner,
            tracer,
            dt_s,
            work: Arc::new(Work::default()),
            sample: Arc::new(Mutex::new(JobSample::default())),
            sample_cap,
        }
    }

    fn keep<J: Clone, O: Clone>(
        &self,
        pick: impl FnOnce(&mut JobSample) -> &mut Vec<(J, O)>,
        jobs: &[J],
        out: &[O],
    ) {
        if self.sample_cap == 0 {
            return;
        }
        let mut guard = self.sample.lock().expect("job sample lock poisoned");
        let kept = pick(&mut guard);
        let room = self.sample_cap.saturating_sub(kept.len());
        kept.extend(jobs.iter().cloned().zip(out.iter().cloned()).take(room));
    }
}

impl<S: PairSource> PairSource for TimedSource<S> {
    fn run_pairs(&self, jobs: &[PairedJob]) -> Vec<PairedOutcome> {
        let out = {
            let _span = self.tracer.span(Layer::Core, "source");
            self.inner.run_pairs(jobs)
        };
        let (mut steps, mut alerts) = (0, 0);
        for o in &out {
            steps +=
                pair_run_steps(&o.equipped, self.dt_s) + pair_run_steps(&o.unequipped, self.dt_s);
            alerts += (o.equipped.own_alert_steps + o.equipped.intruder_alert_steps) as u64;
        }
        self.work.add(steps, alerts, out.len() as u64);
        self.keep(|s| &mut s.pairs, jobs, &out);
        out
    }
}

impl<S: MultiSource> MultiSource for TimedSource<S> {
    fn run_multis(&self, jobs: &[MultiJob]) -> Vec<MultiPairedOutcome> {
        let out = {
            let _span = self.tracer.span(Layer::Core, "source");
            self.inner.run_multis(jobs)
        };
        let (mut steps, mut alerts) = (0, 0);
        for o in &out {
            steps +=
                multi_run_steps(&o.equipped, self.dt_s) + multi_run_steps(&o.unequipped, self.dt_s);
            alerts += o.equipped.alert_steps.iter().sum::<usize>() as u64;
        }
        self.work.add(steps, alerts, out.len() as u64);
        self.keep(|s| &mut s.multis, jobs, &out);
        out
    }
}

impl<S: SplitSource> SplitSource for TimedSource<S> {
    fn run_splits(&self, jobs: &[SplitJob]) -> Vec<SplitOutcome> {
        let out = {
            let _span = self.tracer.span(Layer::Core, "source");
            self.inner.run_splits(jobs)
        };
        // Splitting outcomes carry step counts but no equipped alert
        // counts, so they add no alert steps.
        let steps: u64 = out
            .iter()
            .map(|o| 2 * (o.equipped_steps + o.unequipped_steps))
            .sum();
        self.work.add(steps, 0, out.len() as u64);
        out
    }
}

/// Fan-out counters of a [`TimedBackend`].
#[derive(Debug, Default)]
pub struct MapCounts {
    /// `map_with` calls.
    pub maps: AtomicU64,
    /// Items mapped (jobs, or cohort chunks).
    pub items: AtomicU64,
}

/// An execution backend that opens an `exec.map` span per call and a
/// `sim.job` span (child of the map span, on whichever worker runs it)
/// per item.
#[derive(Debug, Clone)]
pub struct TimedBackend<B> {
    inner: B,
    tracer: &'static Tracer,
    /// Calls and items so far.
    pub counts: Arc<MapCounts>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B, tracer: &'static Tracer) -> Self {
        Self {
            inner,
            tracer,
            counts: Arc::new(MapCounts::default()),
        }
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn map_with<T, S, O, I, F>(&self, items: &[T], init: I, f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> O + Sync,
    {
        self.counts.maps.fetch_add(1, Ordering::Relaxed);
        self.counts
            .items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let _map = self.tracer.span(Layer::Exec, "map");
        let parent = self.tracer.current();
        let tracer = self.tracer;
        self.inner.map_with(items, init, move |scratch, item| {
            let _adopt = tracer.adopt(parent);
            let _job = tracer.span(Layer::Sim, "job");
            f(scratch, item)
        })
    }
}

/// Which link a [`Metered`] transport sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Client end of a client↔server session.
    Client,
    /// Coordinator end of a coordinator↔shard link.
    Coordinator,
    /// Shard end of a coordinator↔shard link (counts no bytes: the
    /// coordinator end already does; records shard busy spans).
    Shard,
}

/// One frame seen by a [`Metered`] transport.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Link kind.
    pub link: Link,
    /// Which link of that kind (shard index or session index).
    pub link_index: usize,
    /// `true` when sent from the metered end.
    pub sent: bool,
    /// ns since the tracer origin.
    pub at: u64,
    /// Bytes on the wire (line plus newline).
    pub bytes: u64,
    /// The `"batch"` number of a shard frame, if it carries one.
    pub batch: Option<u64>,
    /// The frame text, while the capture budget lasts.
    pub text: Option<String>,
}

/// Frames and byte counts shared by every metered link of a run.
#[derive(Debug)]
pub struct WireLog {
    /// Bytes on client↔server links.
    pub client_bytes: AtomicU64,
    /// Bytes on coordinator↔shard links.
    pub shard_bytes: AtomicU64,
    /// Frames on client↔server links.
    pub client_frames: AtomicU64,
    /// Frames on coordinator↔shard links.
    pub shard_frames: AtomicU64,
    frames: Mutex<Vec<Frame>>,
    capture_left: AtomicU64,
}

impl WireLog {
    /// A log that keeps frame texts up to `capture_bytes` in total.
    pub fn new(capture_bytes: u64) -> Self {
        Self {
            client_bytes: AtomicU64::new(0),
            shard_bytes: AtomicU64::new(0),
            client_frames: AtomicU64::new(0),
            shard_frames: AtomicU64::new(0),
            frames: Mutex::new(Vec::new()),
            capture_left: AtomicU64::new(capture_bytes),
        }
    }

    /// Every frame recorded (empty unless tracing).
    pub fn frames(&self) -> Vec<Frame> {
        self.frames.lock().expect("wire log lock poisoned").clone()
    }

    /// `(client_bytes, shard_bytes)` so far.
    pub fn bytes(&self) -> (u64, u64) {
        (
            self.client_bytes.load(Ordering::Relaxed),
            self.shard_bytes.load(Ordering::Relaxed),
        )
    }
}

/// Reads the number after `"batch":` in the first 96 bytes of a shard
/// frame.
pub fn batch_of(line: &str) -> Option<u64> {
    const KEY: &[u8] = b"\"batch\":";
    let head = &line.as_bytes()[..line.len().min(96)];
    let at = head.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = head[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&head[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// A transport that counts bytes and frames, and — when tracing — logs
/// frame timings and texts and records shard busy spans.
pub struct Metered<T> {
    inner: T,
    tracer: &'static Tracer,
    log: Arc<WireLog>,
    link: Link,
    link_index: usize,
    /// On a shard end: the busy span opened when a request arrived,
    /// closed when the shard asks for the next one.
    busy: Option<SpanGuard<'static>>,
}

impl<T> std::fmt::Debug for Metered<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metered")
            .field("link", &self.link)
            .field("link_index", &self.link_index)
            .finish_non_exhaustive()
    }
}

impl<T: Transport> Metered<T> {
    /// Meters `inner` as link `link_index` of kind `link`.
    pub fn new(
        inner: T,
        tracer: &'static Tracer,
        log: Arc<WireLog>,
        link: Link,
        link_index: usize,
    ) -> Self {
        Self {
            inner,
            tracer,
            log,
            link,
            link_index,
            busy: None,
        }
    }

    fn seen(&self, line: &str, sent: bool) {
        let bytes = line.len() as u64 + 1;
        match self.link {
            Link::Client => {
                self.log.client_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.log.client_frames.fetch_add(1, Ordering::Relaxed);
            }
            Link::Coordinator => {
                self.log.shard_bytes.fetch_add(bytes, Ordering::Relaxed);
                self.log.shard_frames.fetch_add(1, Ordering::Relaxed);
            }
            Link::Shard => return,
        }
        if !self.tracer.enabled() {
            return;
        }
        let at = self.tracer.now();
        let keep = self
            .log
            .capture_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(bytes)
            })
            .is_ok();
        let frame = Frame {
            link: self.link,
            link_index: self.link_index,
            sent,
            at,
            bytes,
            batch: if self.link == Link::Coordinator {
                batch_of(line)
            } else {
                None
            },
            text: keep.then(|| line.to_string()),
        };
        self.log
            .frames
            .lock()
            .expect("wire log lock poisoned")
            .push(frame);
    }

    fn arrived(&mut self, line: &str) {
        self.seen(line, false);
        if self.link == Link::Shard {
            self.busy = Some(self.tracer.span(Layer::Serve, "shard_busy"));
        }
    }
}

impl<T: Transport> Transport for Metered<T> {
    fn send(&mut self, line: &str) -> Result<(), TransportError> {
        self.seen(line, true);
        self.inner.send(line)
    }

    fn recv(&mut self) -> Result<Option<String>, TransportError> {
        self.busy = None;
        let got = self.inner.recv()?;
        if let Some(line) = &got {
            self.arrived(line);
        }
        Ok(got)
    }

    fn recv_deadline(&mut self, timeout: Duration) -> Result<RecvOutcome, TransportError> {
        self.busy = None;
        let got = self.inner.recv_deadline(timeout)?;
        if let RecvOutcome::Line(line) = &got {
            self.arrived(line);
        }
        Ok(got)
    }
}

/// Decision timings collected by [`TimedAvoider`]s.
#[derive(Debug, Default)]
pub struct DecideLog {
    /// ns per `decide`/`decide_multi` call.
    pub ns: Mutex<Vec<u64>>,
}

/// A collision avoider that times every decision of the avoider inside.
pub struct TimedAvoider {
    inner: Box<dyn CollisionAvoider>,
    log: Arc<DecideLog>,
}

impl std::fmt::Debug for TimedAvoider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedAvoider")
            .field("inner", &self.inner.name())
            .finish_non_exhaustive()
    }
}

impl TimedAvoider {
    /// Wraps `inner`, logging into `log`.
    pub fn new(inner: Box<dyn CollisionAvoider>, log: Arc<DecideLog>) -> Self {
        Self { inner, log }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn CollisionAvoider) -> R) -> R {
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.log
            .ns
            .lock()
            .expect("decide log lock poisoned")
            .push(ns);
        out
    }
}

impl CollisionAvoider for TimedAvoider {
    fn decide(&mut self, ctx: &AvoiderContext<'_>) -> Option<ManeuverCommand> {
        self.timed(|a| a.decide(ctx))
    }

    fn decide_multi(
        &mut self,
        ctx: &AvoiderContext<'_>,
        forbidden: SenseSet,
    ) -> Option<ManeuverCommand> {
        self.timed(|a| a.decide_multi(ctx, forbidden))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_boxed(&self) -> Box<dyn CollisionAvoider> {
        Box::new(TimedAvoider {
            inner: self.inner.clone_boxed(),
            log: self.log.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::batch_of;

    #[test]
    fn batch_numbers_are_read_from_the_frame_head() {
        assert_eq!(
            batch_of(r#"{"PairedChunk":{"batch":42,"indices":[1]}}"#),
            Some(42)
        );
        assert_eq!(batch_of(r#"{"RunSplits":{"batch":0,"jobs":[]}}"#), Some(0));
        assert_eq!(batch_of(r#"{"Shutdown":null}"#), None);
        assert_eq!(batch_of(r#"{"X":{"batch":}}"#), None);
        // A multi-byte character across the 96-byte cut must not panic.
        let line = format!("{}é\"batch\":7", "x".repeat(95));
        assert_eq!(batch_of(&line), None);
    }
}
