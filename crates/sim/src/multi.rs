//! The k-aircraft encounter world: [`EncounterWorld`] generalized from a
//! hardwired ownship/intruder pair to n bodies sharing one airspace
//! volume, with per-pair proximity/NMAC monitoring and two selectable
//! coordination configurations.
//!
//! # Equipage configurations
//!
//! * [`MultiMode::Pairwise`] — pairwise composition: each aircraft runs
//!   its unmodified [`CollisionAvoider`] against the single most urgent
//!   threat among the reports it receives, coordinating only with that
//!   threat ([`MultiCoordinationBoard::restriction_between`]). This is
//!   the "compose the certified two-ship logic" deployment model.
//! * [`MultiMode::Coordinated`] — coordinated deconfliction: each
//!   aircraft still resolves against its most urgent threat, but the
//!   restriction it honors is the union of every clearance in force
//!   across the airspace ([`MultiCoordinationBoard::forbidden_set`]),
//!   delivered through [`CollisionAvoider::decide_multi`]. With ≥ 3
//!   aircraft both senses can be forbidden at once.
//!
//! # k = 2 equivalence
//!
//! With two aircraft in [`MultiMode::Pairwise`], every phase of
//! [`MultiEncounterWorld::step`] visits the same state in the same order
//! as [`EncounterWorld::step`] and draws the same RNG values:
//!
//! 1. the receiver-major sensor sweep observes sender 1 (for receiver 0)
//!    then sender 0 (for receiver 1) — the scalar world's exact order
//!    and draw count (6 normals per report);
//! 2. threat selection is trivial (one candidate each), the board
//!    read-out equals the two-party board's `restriction_for` for every
//!    posting combination (proved exhaustively in the coordination
//!    tests), and decisions consume no randomness. Avoiders that opt out
//!    of threat context ([`CollisionAvoider::wants_context`]) skip both
//!    and decide exactly as they would on the real context, which they
//!    do not read;
//! 3. dynamics step aircraft 0 then aircraft 1 (one gust draw each);
//! 4. the single pair (0, 1) is monitored with the same continuous
//!    segment checks on the same relative motion.
//!
//! So the k = 2 run is bit-identical to the scalar engine; the
//! `multi_k2_oracle` integration tests in `uavca-validation` byte-compare
//! the serialized outcomes over a seed sweep to keep it that way.
//!
//! Unlike [`EncounterWorld`], this world records no [`crate::Trace`] and
//! offers no snapshot/branch support (importance splitting stays
//! pairwise); those can be added when a use case appears.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::world::{segment_min_separation, segment_nmac};
use crate::{
    AdsbReport, AdsbSensor, AvoiderContext, CollisionAvoider, EncounterOutcome,
    MultiCoordinationBoard, ProximityMeasurer, Sense, SenseSet, SimConfig, UavBody, UavPerformance,
    UavState, NMAC_HORIZONTAL_FT, NMAC_VERTICAL_FT,
};

#[cfg(doc)]
use crate::EncounterWorld;

/// How the k aircraft compose their avoidance logics (see the module
/// docs for the two deployment models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MultiMode {
    /// Each aircraft coordinates only with its selected threat, exactly
    /// like the two-ship engine.
    Pairwise,
    /// Each aircraft honors every sense clearance in force across the
    /// airspace (global deconfliction).
    Coordinated,
}

impl MultiMode {
    /// A short stable label for reports and seeds.
    pub fn label(self) -> &'static str {
        match self {
            MultiMode::Pairwise => "pairwise",
            MultiMode::Coordinated => "coordinated",
        }
    }
}

/// Canonical index of the unordered aircraft pair `(a, b)` (`a < b`)
/// among the `n·(n−1)/2` pairs of an `n`-aircraft world, in
/// lexicographic order: (0,1), (0,2), …, (0,n−1), (1,2), ….
///
/// # Panics
///
/// Panics if `a >= b` or `b >= n`.
pub fn pair_index(a: usize, b: usize, n: usize) -> usize {
    assert!(a < b && b < n, "pair ({a}, {b}) out of range for n = {n}");
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

/// All unordered pairs of `0..n` in the canonical lexicographic order of
/// [`pair_index`].
pub fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |a| (a + 1..n).map(move |b| (a, b)))
}

/// Proximity/NMAC record for one aircraft pair over a multi-aircraft
/// run — the per-pair slice of what [`EncounterOutcome`] reports for the
/// single pair of a two-ship run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Lower aircraft id of the pair.
    pub a: usize,
    /// Higher aircraft id of the pair.
    pub b: usize,
    /// Whether this pair entered the NMAC cylinder.
    pub nmac: bool,
    /// Time of this pair's first NMAC, s (if any).
    pub first_nmac_time_s: Option<f64>,
    /// Minimum 3-D separation of the pair over the run, ft.
    pub min_separation_ft: f64,
    /// Minimum horizontal separation of the pair, ft.
    pub min_horizontal_ft: f64,
    /// Minimum vertical separation of the pair, ft.
    pub min_vertical_ft: f64,
    /// Time of the pair's closest point of approach, s.
    pub time_of_min_s: f64,
}

/// Aggregated result of one k-aircraft encounter run: per-pair
/// proximity records plus per-aircraft alerting statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiEncounterOutcome {
    /// One record per unordered aircraft pair, in [`pair_index`] order.
    pub pairs: Vec<PairOutcome>,
    /// Steps at which each aircraft had an active maneuver command.
    pub alert_steps: Vec<usize>,
    /// Sense reversals commanded by each aircraft.
    pub reversals: Vec<usize>,
    /// Time of the first alert issued by any aircraft, s.
    pub first_alert_time_s: Option<f64>,
    /// Total simulated duration, s.
    pub duration_s: f64,
}

impl MultiEncounterOutcome {
    /// Number of aircraft in the run.
    pub fn num_aircraft(&self) -> usize {
        self.alert_steps.len()
    }

    /// Whether any pair experienced an NMAC.
    pub fn nmac_any(&self) -> bool {
        self.pairs.iter().any(|p| p.nmac)
    }

    /// Number of pairs that experienced an NMAC.
    pub fn nmac_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.nmac).count()
    }

    /// The record for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is out of range.
    pub fn pair(&self, a: usize, b: usize) -> &PairOutcome {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        &self.pairs[pair_index(lo, hi, self.num_aircraft())]
    }

    /// Projects a k = 2 outcome onto the scalar [`EncounterOutcome`].
    /// Field for field this is what [`EncounterWorld::outcome`] reports
    /// for the same run — the k = 2 oracle tests compare through it.
    ///
    /// # Panics
    ///
    /// Panics unless the run had exactly two aircraft.
    pub fn to_pairwise(&self) -> EncounterOutcome {
        assert_eq!(self.num_aircraft(), 2, "pairwise projection needs k = 2");
        let p = &self.pairs[0];
        EncounterOutcome {
            nmac: p.nmac,
            first_nmac_time_s: p.first_nmac_time_s,
            min_separation_ft: p.min_separation_ft,
            min_horizontal_ft: p.min_horizontal_ft,
            min_vertical_ft: p.min_vertical_ft,
            time_of_min_s: p.time_of_min_s,
            own_alert_steps: self.alert_steps[0],
            intruder_alert_steps: self.alert_steps[1],
            first_alert_time_s: self.first_alert_time_s,
            own_reversals: self.reversals[0],
            duration_s: self.duration_s,
        }
    }
}

/// The k-aircraft encounter world (see the module docs for the phase
/// structure and the k = 2 equivalence argument).
#[derive(Debug)]
pub struct MultiEncounterWorld {
    config: SimConfig,
    mode: MultiMode,
    uavs: Vec<UavBody>,
    avoiders: Vec<Box<dyn CollisionAvoider>>,
    /// Each avoider's [`CollisionAvoider::wants_context`], cached at
    /// construction: aircraft whose avoider reads no threat context skip
    /// threat selection and the board read-out.
    wants_context: Vec<bool>,
    board: MultiCoordinationBoard,
    sensor: AdsbSensor,
    /// Per-pair monitors, [`pair_index`] order.
    pair_proximity: Vec<ProximityMeasurer>,
    pair_nmac: Vec<bool>,
    pair_first_nmac_time_s: Vec<Option<f64>>,
    /// Receiver-major report matrix: slot `receiver · n + sender` holds
    /// the report `receiver` got from `sender` this step. Diagonal slots
    /// are never written after construction; they hold the placeholder
    /// report handed to avoiders that opted out of threat context.
    reports: Vec<AdsbReport>,
    /// Scratch buffers for the dynamics phase (positions before/after).
    before: Vec<crate::Vec3>,
    after: Vec<crate::Vec3>,
    rng: StdRng,
    time_s: f64,
    steps_done: usize,
    alert_steps: Vec<usize>,
    first_alert_time_s: Option<f64>,
    reversals: Vec<usize>,
    last_sense: Vec<Option<Sense>>,
}

impl MultiEncounterWorld {
    /// Creates a world with default UAV performance for all aircraft.
    ///
    /// # Panics
    ///
    /// Panics unless `initial` and `avoiders` have the same length ≥ 2.
    pub fn new(
        config: SimConfig,
        mode: MultiMode,
        initial: &[UavState],
        avoiders: Vec<Box<dyn CollisionAvoider>>,
        seed: u64,
    ) -> Self {
        let n = initial.len();
        assert!(n >= 2, "a multi-aircraft world needs at least two aircraft");
        assert_eq!(n, avoiders.len(), "one avoider per aircraft");
        let sensor = AdsbSensor::new(config.sensor_noise);
        let num_pairs = n * (n - 1) / 2;
        let placeholder = AdsbReport {
            sender: usize::MAX,
            position: crate::Vec3::ZERO,
            velocity: crate::Vec3::ZERO,
            time_s: 0.0,
        };
        Self {
            config,
            mode,
            uavs: initial
                .iter()
                .map(|&s| UavBody::new(s, UavPerformance::default()))
                .collect(),
            wants_context: avoiders.iter().map(|a| a.wants_context()).collect(),
            avoiders,
            board: MultiCoordinationBoard::new(n),
            sensor,
            pair_proximity: vec![ProximityMeasurer::new(); num_pairs],
            pair_nmac: vec![false; num_pairs],
            pair_first_nmac_time_s: vec![None; num_pairs],
            reports: vec![placeholder; n * n],
            before: vec![crate::Vec3::ZERO; n],
            after: vec![crate::Vec3::ZERO; n],
            rng: StdRng::seed_from_u64(seed),
            time_s: 0.0,
            steps_done: 0,
            alert_steps: vec![0; n],
            first_alert_time_s: None,
            reversals: vec![0; n],
            last_sense: vec![None; n],
        }
    }

    /// Rearms the world for a fresh encounter with the same aircraft
    /// count, reusing the avoider allocations — the counterpart of
    /// [`EncounterWorld::reset`] for batch evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` differs from the world's aircraft count.
    pub fn reset(&mut self, initial: &[UavState], seed: u64) {
        assert_eq!(initial.len(), self.uavs.len(), "aircraft count is fixed");
        for avoider in &mut self.avoiders {
            avoider.reset();
        }
        for (body, &state) in self.uavs.iter_mut().zip(initial) {
            *body = UavBody::new(state, *body.performance());
        }
        self.board.reset();
        self.pair_proximity.fill(ProximityMeasurer::new());
        self.pair_nmac.fill(false);
        self.pair_first_nmac_time_s.fill(None);
        self.rng = StdRng::seed_from_u64(seed);
        self.time_s = 0.0;
        self.steps_done = 0;
        self.alert_steps.fill(0);
        self.first_alert_time_s = None;
        self.reversals.fill(0);
        self.last_sense.fill(None);
    }

    /// Number of aircraft.
    pub fn num_aircraft(&self) -> usize {
        self.uavs.len()
    }

    /// The equipage configuration in force.
    pub fn mode(&self) -> MultiMode {
        self.mode
    }

    /// Current simulation time, s.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Steps taken so far.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// Whether any pair has latched an NMAC so far.
    pub fn nmac_any(&self) -> bool {
        self.pair_nmac.iter().any(|&x| x)
    }

    /// The current state of aircraft `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn uav_state(&self, id: usize) -> &UavState {
        self.uavs[id].state()
    }

    /// The most urgent threat for aircraft `own` among the reports it
    /// received this step: smallest horizontal τ (time to CPA; diverging
    /// or relatively static traffic scores `∞`), range as the
    /// tie-break, sender id as the final deterministic tie-break.
    fn select_threat(&self, own: usize) -> usize {
        let n = self.uavs.len();
        let own_state = self.uavs[own].state();
        let mut best: Option<(f64, f64, usize)> = None;
        for sender in 0..n {
            if sender == own {
                continue;
            }
            let report = &self.reports[own * n + sender];
            let rel = report.position - own_state.position;
            let relv = report.velocity - own_state.velocity;
            let range2 = rel.x * rel.x + rel.y * rel.y;
            let closure = rel.x * relv.x + rel.y * relv.y;
            let v2 = relv.x * relv.x + relv.y * relv.y;
            let tau = if v2 < 1e-9 || closure >= 0.0 {
                f64::INFINITY
            } else {
                -closure / v2
            };
            let candidate = (tau, range2, sender);
            let better = match &best {
                None => true,
                Some((bt, br, _)) => match tau.total_cmp(bt) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => range2.total_cmp(br).is_lt(),
                },
            };
            if better {
                best = Some(candidate);
            }
        }
        best.expect("worlds have at least two aircraft").2
    }

    /// Advances the world by one step (the scalar engine's five phases
    /// generalized to n bodies; see the module docs).
    pub fn step(&mut self) {
        let dt = self.config.dt_s;
        let n = self.uavs.len();

        // 1. ADS-B broadcast, receiver-major: each receiver gets an
        //    independent noisy draw of every other aircraft. At k = 2
        //    this is the scalar order: receiver 0 observes sender 1,
        //    then receiver 1 observes sender 0. The sweep draws from a
        //    local copy of the RNG so its state can live in registers
        //    across the 6k(k − 1) normals; the copy is written back after.
        let mut rng = self.rng.clone();
        for receiver in 0..n {
            for sender in 0..n {
                if sender != receiver {
                    self.reports[receiver * n + sender] = self.sensor.observe(
                        sender,
                        self.uavs[sender].state(),
                        self.time_s,
                        &mut rng,
                    );
                }
            }
        }
        self.rng = rng;

        // 2. Decisions in id order under the restrictions in force. An
        //    avoider that reads no threat context gets the diagonal
        //    placeholder report and no restriction (see
        //    `CollisionAvoider::wants_context`).
        let coordination = self.config.coordination;
        for id in 0..n {
            let threat = self.wants_context[id].then(|| self.select_threat(id));
            let ctx = AvoiderContext {
                own: self.uavs[id].state(),
                intruder: &self.reports[id * n + threat.unwrap_or(id)],
                forbidden_sense: None,
                time_s: self.time_s,
                dt_s: dt,
            };
            let command = match self.mode {
                MultiMode::Pairwise => {
                    let forbidden_sense = match threat {
                        Some(threat) if coordination => self.board.restriction_between(id, threat),
                        _ => None,
                    };
                    self.avoiders[id].decide(&AvoiderContext {
                        forbidden_sense,
                        ..ctx
                    })
                }
                MultiMode::Coordinated => {
                    let forbidden = match threat {
                        Some(_) if coordination => self.board.forbidden_set(id),
                        _ => SenseSet::NONE,
                    };
                    self.avoiders[id].decide_multi(&ctx, forbidden)
                }
            };
            match command {
                Some(cmd) => {
                    self.uavs[id].command_vertical_rate(cmd.target_vertical_rate_fps);
                    self.board.post(id, Some(cmd.sense));
                    self.alert_steps[id] += 1;
                    if self.first_alert_time_s.is_none() {
                        self.first_alert_time_s = Some(self.time_s);
                    }
                    if let Some(prev) = self.last_sense[id] {
                        if prev == cmd.sense.opposite() {
                            self.reversals[id] += 1;
                        }
                    }
                    self.last_sense[id] = Some(cmd.sense);
                }
                None => {
                    self.uavs[id].clear_command();
                    self.board.post(id, None);
                    self.last_sense[id] = None;
                }
            }
        }

        // 3. Coordination messages posted this step bind from next step.
        self.board.commit();

        // 4. Dynamics under disturbance, id order, again from a local RNG
        //    copy written back after the phase.
        let mut rng = self.rng.clone();
        for (i, body) in self.uavs.iter_mut().enumerate() {
            self.before[i] = body.state().position;
            body.step(dt, &self.config.disturbance, &mut rng);
            self.after[i] = body.state().position;
        }
        self.rng = rng;

        // 5. Continuous per-pair monitoring along the step's motion.
        for (idx, (a, b)) in pairs(n).enumerate() {
            let rel0 = self.before[a] - self.before[b];
            let rel1 = self.after[a] - self.after[b];
            let (s_min, d_min) = segment_min_separation(rel0, rel1);
            let t_at_min = self.time_s + s_min * dt;
            let a_interp = UavState::new(
                self.before[a].lerp(self.after[a], s_min),
                self.uavs[a].state().velocity,
            );
            let b_interp = UavState::new(
                self.before[b].lerp(self.after[b], s_min),
                self.uavs[b].state().velocity,
            );
            debug_assert!((a_interp.position.distance(b_interp.position) - d_min).abs() < 1e-6);
            self.pair_proximity[idx].observe(&a_interp, &b_interp, t_at_min);
            self.pair_proximity[idx].observe(
                self.uavs[a].state(),
                self.uavs[b].state(),
                self.time_s + dt,
            );
            if !self.pair_nmac[idx] {
                if let Some(s) = segment_nmac(rel0, rel1) {
                    self.pair_nmac[idx] = true;
                    self.pair_first_nmac_time_s[idx] = Some(self.time_s + s * dt);
                }
            }
        }

        self.time_s += dt;
        self.steps_done += 1;
    }

    /// Records the `t = 0` observation and instant-NMAC check for every
    /// pair (the counterpart of [`EncounterWorld::begin`]).
    pub fn begin(&mut self) {
        let n = self.uavs.len();
        for (idx, (a, b)) in pairs(n).enumerate() {
            self.pair_proximity[idx].observe(self.uavs[a].state(), self.uavs[b].state(), 0.0);
            let rel = self.uavs[a].state().position - self.uavs[b].state().position;
            if rel.horizontal_norm() < NMAC_HORIZONTAL_FT && rel.z.abs() < NMAC_VERTICAL_FT {
                self.pair_nmac[idx] = true;
                self.pair_first_nmac_time_s[idx] = Some(0.0);
            }
        }
    }

    /// Runs the encounter to `config.max_time_s` and returns the outcome.
    pub fn run(&mut self) -> MultiEncounterOutcome {
        self.begin();
        let steps = self.config.num_steps();
        while self.steps_done < steps {
            self.step();
        }
        self.outcome()
    }

    /// The outcome so far (valid mid-run as well as after
    /// [`run`](Self::run)).
    pub fn outcome(&self) -> MultiEncounterOutcome {
        let n = self.uavs.len();
        MultiEncounterOutcome {
            pairs: pairs(n)
                .enumerate()
                .map(|(idx, (a, b))| PairOutcome {
                    a,
                    b,
                    nmac: self.pair_nmac[idx],
                    first_nmac_time_s: self.pair_first_nmac_time_s[idx],
                    min_separation_ft: self.pair_proximity[idx].min_separation_ft(),
                    min_horizontal_ft: self.pair_proximity[idx].min_horizontal_ft(),
                    min_vertical_ft: self.pair_proximity[idx].min_vertical_ft(),
                    time_of_min_s: self.pair_proximity[idx].time_of_min_s(),
                })
                .collect(),
            alert_steps: self.alert_steps.clone(),
            reversals: self.reversals.clone(),
            first_alert_time_s: self.first_alert_time_s,
            duration_s: self.time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncounterWorld, Unequipped, Vec3};

    fn head_on(distance_ft: f64, speed_fps: f64) -> Vec<UavState> {
        vec![
            UavState::new(Vec3::ZERO, Vec3::new(speed_fps, 0.0, 0.0)),
            UavState::new(
                Vec3::new(distance_ft, 0.0, 0.0),
                Vec3::new(-speed_fps, 0.0, 0.0),
            ),
        ]
    }

    fn unequipped(n: usize) -> Vec<Box<dyn CollisionAvoider>> {
        (0..n)
            .map(|_| Box::new(Unequipped::new()) as Box<dyn CollisionAvoider>)
            .collect()
    }

    #[test]
    fn pair_index_is_lexicographic_and_dense() {
        for n in 2..9 {
            for (idx, (a, b)) in pairs(n).enumerate() {
                assert_eq!(pair_index(a, b, n), idx, "n={n} pair=({a},{b})");
            }
            assert_eq!(pairs(n).count(), n * (n - 1) / 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pair_index_rejects_unordered_pair() {
        pair_index(2, 1, 4);
    }

    #[test]
    fn k2_head_on_without_avoidance_is_nmac() {
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Pairwise,
            &head_on(8000.0, 150.0),
            unequipped(2),
            1,
        );
        let o = w.run();
        assert!(o.nmac_any());
        assert_eq!(o.nmac_count(), 1);
        assert_eq!(o.pair(0, 1).a, 0);
        assert_eq!(o.pair(1, 0).b, 1, "pair lookup is order-normalized");
    }

    #[test]
    fn k2_matches_scalar_world_exactly() {
        // The in-crate spot check of the k = 2 equivalence argument (the
        // full seed sweep with equipped avoiders lives in
        // uavca-validation's multi_k2_oracle tests).
        for seed in 0..20u64 {
            let initial = head_on(8000.0, 150.0);
            let mut scalar = EncounterWorld::new(
                SimConfig::default(),
                [initial[0], initial[1]],
                [Box::new(Unequipped::new()), Box::new(Unequipped::new())],
                seed,
            );
            let mut multi = MultiEncounterWorld::new(
                SimConfig::default(),
                MultiMode::Pairwise,
                &initial,
                unequipped(2),
                seed,
            );
            assert_eq!(scalar.run(), multi.run().to_pairwise(), "seed {seed}");
        }
    }

    #[test]
    fn k2_coordinated_mode_also_matches_scalar() {
        // At k = 2 the coordinated read-out equals the pairwise one for
        // every board state, so the whole run must match too.
        for seed in [3u64, 17, 99] {
            let initial = head_on(6000.0, 120.0);
            let mut scalar = EncounterWorld::new(
                SimConfig::default(),
                [initial[0], initial[1]],
                [Box::new(Unequipped::new()), Box::new(Unequipped::new())],
                seed,
            );
            let mut multi = MultiEncounterWorld::new(
                SimConfig::default(),
                MultiMode::Coordinated,
                &initial,
                unequipped(2),
                seed,
            );
            assert_eq!(scalar.run(), multi.run().to_pairwise(), "seed {seed}");
        }
    }

    #[test]
    fn three_converging_aircraft_record_three_pairs() {
        // Three aircraft converging on the origin at the same altitude.
        let r = 6000.0;
        let v = 150.0;
        let initial: Vec<UavState> = (0..3)
            .map(|i| {
                let th = i as f64 * 2.0 * std::f64::consts::PI / 3.0;
                UavState::new(
                    Vec3::new(r * th.cos(), r * th.sin(), 4000.0),
                    Vec3::new(-v * th.cos(), -v * th.sin(), 0.0),
                )
            })
            .collect();
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Pairwise,
            &initial,
            unequipped(3),
            5,
        );
        let o = w.run();
        assert_eq!(o.pairs.len(), 3);
        assert_eq!(o.nmac_count(), 3, "all three meet at the origin");
        assert_eq!(o.alert_steps, vec![0, 0, 0]);
    }

    #[test]
    fn reset_equals_fresh_world() {
        let initial = head_on(7000.0, 140.0);
        let mut w = MultiEncounterWorld::new(
            SimConfig::default(),
            MultiMode::Pairwise,
            &initial,
            unequipped(2),
            11,
        );
        let first = w.run();
        w.reset(&initial, 11);
        let again = w.run();
        assert_eq!(first, again, "reset world replays bit-identically");
    }

    #[test]
    fn instant_nmac_is_latched_by_begin() {
        let initial = vec![
            UavState::new(Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0)),
            UavState::new(Vec3::new(100.0, 0.0, 10.0), Vec3::new(100.0, 0.0, 0.0)),
        ];
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Pairwise,
            &initial,
            unequipped(2),
            0,
        );
        w.begin();
        assert!(w.nmac_any());
        assert_eq!(w.outcome().pair(0, 1).first_nmac_time_s, Some(0.0));
    }

    #[test]
    #[should_panic(expected = "at least two aircraft")]
    fn rejects_single_aircraft() {
        MultiEncounterWorld::new(
            SimConfig::default(),
            MultiMode::Pairwise,
            &[UavState::new(Vec3::ZERO, Vec3::ZERO)],
            unequipped(1),
            0,
        );
    }

    #[test]
    fn serde_round_trip_of_outcome() {
        let mut w = MultiEncounterWorld::new(
            SimConfig::deterministic(),
            MultiMode::Coordinated,
            &head_on(8000.0, 150.0),
            unequipped(2),
            1,
        );
        let o = w.run();
        let json = serde_json::to_string(&o).unwrap();
        let back: MultiEncounterOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(o, back);
    }
}
