use serde::{Deserialize, Serialize};

use crate::{AdsbReport, UavState};

/// Vertical sense of an avoidance maneuver, used both in advisories and in
/// coordination messages ("do not maneuver in the same direction").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sense {
    /// Upward maneuver (climb, or do-not-descend restriction on the peer).
    Up,
    /// Downward maneuver (descend, or do-not-climb restriction on the peer).
    Down,
}

impl Sense {
    /// The opposite sense.
    pub fn opposite(self) -> Sense {
        match self {
            Sense::Up => Sense::Down,
            Sense::Down => Sense::Up,
        }
    }
}

/// A set of forbidden vertical senses — the n-party generalization of the
/// single `Option<Sense>` coordination restriction.
///
/// In a two-aircraft encounter at most one restriction can be in force
/// against an aircraft, so [`AvoiderContext::forbidden_sense`] is an
/// `Option<Sense>`. With k aircraft coordinating, an aircraft can be
/// restricted in *both* senses at once (two different higher-priority
/// aircraft hold the two sense clearances), so the multi-aircraft decision
/// path ([`CollisionAvoider::decide_multi`]) carries a set instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SenseSet {
    /// Whether upward maneuvers are forbidden.
    pub up: bool,
    /// Whether downward maneuvers are forbidden.
    pub down: bool,
}

impl SenseSet {
    /// The empty set: no restriction in force.
    pub const NONE: SenseSet = SenseSet {
        up: false,
        down: false,
    };

    /// The set holding exactly the senses in `forbidden` (`None` maps to
    /// the empty set). The bridge from the pairwise restriction encoding:
    /// `SenseSet::from_option(f).contains(s)` ⇔ `f == Some(s)`.
    pub fn from_option(forbidden: Option<Sense>) -> SenseSet {
        match forbidden {
            None => SenseSet::NONE,
            Some(Sense::Up) => SenseSet {
                up: true,
                down: false,
            },
            Some(Sense::Down) => SenseSet {
                up: false,
                down: true,
            },
        }
    }

    /// Whether `sense` is in the set.
    pub fn contains(self, sense: Sense) -> bool {
        match sense {
            Sense::Up => self.up,
            Sense::Down => self.down,
        }
    }

    /// Adds `sense` to the set.
    pub fn insert(&mut self, sense: Sense) {
        match sense {
            Sense::Up => self.up = true,
            Sense::Down => self.down = true,
        }
    }

    /// Whether the set is empty (no restriction).
    pub fn is_empty(self) -> bool {
        !self.up && !self.down
    }

    /// Whether both senses are forbidden (no compliant maneuver exists).
    pub fn is_both(self) -> bool {
        self.up && self.down
    }

    /// Collapses a set holding at most one sense back to the pairwise
    /// `Option<Sense>` encoding. Returns `None` for the both-forbidden
    /// set too — callers that can distinguish "unrestricted" from
    /// "fully restricted" must check [`is_both`](Self::is_both) first.
    pub fn to_single(self) -> Option<Sense> {
        match (self.up, self.down) {
            (true, false) => Some(Sense::Up),
            (false, true) => Some(Sense::Down),
            _ => None,
        }
    }
}

/// A resolution maneuver emitted by a [`CollisionAvoider`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ManeuverCommand {
    /// Target vertical rate, ft/s (positive climbs).
    pub target_vertical_rate_fps: f64,
    /// The sense broadcast to the peer for coordination.
    pub sense: Sense,
    /// A short human-readable advisory label ("CLIMB", "DES1500", …) used
    /// in traces; not interpreted by the simulation.
    pub label: &'static str,
}

/// Everything an avoidance logic can see when making a decision.
#[derive(Debug, Clone, Copy)]
pub struct AvoiderContext<'a> {
    /// Own true kinematic state (own-ship navigation is assumed accurate;
    /// the datalink to the *intruder* is the noisy channel).
    pub own: &'a UavState,
    /// Latest ADS-B report received from the intruder.
    pub intruder: &'a AdsbReport,
    /// Coordination restriction currently in force from the peer: the
    /// sense this aircraft must **not** choose.
    pub forbidden_sense: Option<Sense>,
    /// Current simulation time, seconds.
    pub time_s: f64,
    /// Decision interval, seconds.
    pub dt_s: f64,
}

/// A pluggable collision avoidance logic (the role ACAS XU plays in the
/// paper's tool; SVO and "no equipage" are alternative implementations).
///
/// Implementations are driven once per decision step and return `None` for
/// clear-of-conflict or a [`ManeuverCommand`] to maneuver. They are `Send`
/// so encounter evaluations can fan out across threads.
pub trait CollisionAvoider: Send {
    /// Makes one decision. Returning `None` clears any previous command
    /// (the UAV maintains its current vertical rate).
    fn decide(&mut self, ctx: &AvoiderContext<'_>) -> Option<ManeuverCommand>;

    /// Makes one decision under a multi-party restriction set (see
    /// [`SenseSet`]). `ctx.forbidden_sense` is ignored; `forbidden` is the
    /// restriction actually in force.
    ///
    /// The default implementation bridges to [`decide`](Self::decide):
    /// a set with at most one sense is handed through unchanged, and the
    /// both-forbidden set stands the avoider down for this step (issuing
    /// no command is the only compliant behavior, and the next
    /// unrestricted decision re-alerts from the context alone). Avoiders
    /// with advisory memory should override this to keep their internal
    /// state machine updated even when fully restricted.
    fn decide_multi(
        &mut self,
        ctx: &AvoiderContext<'_>,
        forbidden: SenseSet,
    ) -> Option<ManeuverCommand> {
        if forbidden.is_both() {
            return None;
        }
        let mut pairwise = *ctx;
        pairwise.forbidden_sense = forbidden.to_single();
        self.decide(&pairwise)
    }

    /// Whether this avoider reads the threat-dependent parts of its
    /// context: [`AvoiderContext::intruder`] and the coordination
    /// restriction (`forbidden_sense`, or the `forbidden` set of
    /// [`decide_multi`](Self::decide_multi)). Defaults to `true`.
    ///
    /// An avoider whose decisions never depend on traffic (e.g.
    /// [`Unequipped`]) may return `false`; the multi-aircraft world then
    /// skips threat selection and the board read-out for it. Such an
    /// avoider is still asked to decide every step, but may read only
    /// `own`, `time_s` and `dt_s`: `intruder` is an unspecified placeholder
    /// report and the restriction is empty. The answer must not change over
    /// the avoider's lifetime (worlds cache it at construction). The
    /// sensor sweep still draws every report, so opting out never moves
    /// the RNG stream.
    fn wants_context(&self) -> bool {
        true
    }

    /// Resets internal state (advisory memory, alert latches) so the value
    /// can be reused for a fresh encounter.
    fn reset(&mut self);

    /// A short name for traces and reports.
    fn name(&self) -> &'static str;

    /// Clones the avoider *including its advisory memory* (previous
    /// advisory, alert latches, tracker state) behind a fresh box. This
    /// is what lets [`crate::EncounterWorld`] snapshot a mid-run
    /// trajectory and branch continuations for importance splitting:
    /// every branch must resume from the exact decision state, not a
    /// `reset()` one.
    fn clone_boxed(&self) -> Box<dyn CollisionAvoider>;
}

/// The "no collision avoidance system" baseline: never maneuvers.
///
/// Used by the paper's validation harness to (a) establish that a generated
/// encounter would actually collide without avoidance, and (b) compute
/// risk ratios for equipped vs unequipped Monte-Carlo runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unequipped {
    _private: (),
}

impl Unequipped {
    /// Creates the do-nothing avoider.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CollisionAvoider for Unequipped {
    fn decide(&mut self, _ctx: &AvoiderContext<'_>) -> Option<ManeuverCommand> {
        None
    }

    fn wants_context(&self) -> bool {
        false
    }

    fn reset(&mut self) {}

    fn name(&self) -> &'static str {
        "unequipped"
    }

    fn clone_boxed(&self) -> Box<dyn CollisionAvoider> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;

    #[test]
    fn sense_opposite() {
        assert_eq!(Sense::Up.opposite(), Sense::Down);
        assert_eq!(Sense::Down.opposite(), Sense::Up);
    }

    #[test]
    fn unequipped_never_maneuvers() {
        let own = UavState::new(Vec3::ZERO, Vec3::new(100.0, 0.0, 0.0));
        let intruder = AdsbReport {
            sender: 1,
            position: Vec3::new(200.0, 0.0, 0.0),
            velocity: Vec3::new(-100.0, 0.0, 0.0),
            time_s: 0.0,
        };
        let mut u = Unequipped::new();
        let ctx = AvoiderContext {
            own: &own,
            intruder: &intruder,
            forbidden_sense: None,
            time_s: 0.0,
            dt_s: 1.0,
        };
        assert!(u.decide(&ctx).is_none());
        u.reset();
        assert_eq!(u.name(), "unequipped");
    }

    #[test]
    fn avoider_is_object_safe_and_send() {
        fn assert_send<T: Send>(_: &T) {}
        let boxed: Box<dyn CollisionAvoider> = Box::new(Unequipped::new());
        assert_send(&boxed);
    }
}
