//! One round loop for every campaign family, with `core` spans around
//! the stepper calls.
//!
//! This is the loop the library's own `run_with*` entry points run
//! (plan a round, run its jobs on a source, complete the round); driving
//! it here is what lets the benchmark time `plan_round` and
//! `complete_round` and see each round result as it arrives.

use uavca_validation::{
    CampaignStepper, MultiCampaignStepper, MultiPairedOutcome, MultiPlannedRound, PairedOutcome,
    PlannedRound, PlannedSplitRound, SplitOutcome, SplitStepper,
};

use crate::trace::{Layer, Tracer};

/// A round-by-round campaign stepper.
pub trait Stepper {
    /// One planned round.
    type Planned;
    /// One job's outcome.
    type Outcome;
    /// Plans the next round; `None` when the campaign is finished.
    fn plan(&mut self) -> Option<Self::Planned>;
    /// Absorbs a round's outcomes.
    fn complete(&mut self, planned: &Self::Planned, outcomes: &[Self::Outcome]);
}

impl Stepper for CampaignStepper {
    type Planned = PlannedRound;
    type Outcome = PairedOutcome;
    fn plan(&mut self) -> Option<PlannedRound> {
        self.plan_round()
    }
    fn complete(&mut self, planned: &PlannedRound, outcomes: &[PairedOutcome]) {
        self.complete_round(planned, outcomes);
    }
}

impl Stepper for MultiCampaignStepper {
    type Planned = MultiPlannedRound;
    type Outcome = MultiPairedOutcome;
    fn plan(&mut self) -> Option<MultiPlannedRound> {
        self.plan_round()
    }
    fn complete(&mut self, planned: &MultiPlannedRound, outcomes: &[MultiPairedOutcome]) {
        self.complete_round(planned, outcomes);
    }
}

impl Stepper for SplitStepper {
    type Planned = PlannedSplitRound;
    type Outcome = SplitOutcome;
    fn plan(&mut self) -> Option<PlannedSplitRound> {
        self.plan_round()
    }
    fn complete(&mut self, planned: &PlannedSplitRound, outcomes: &[SplitOutcome]) {
        self.complete_round(planned, outcomes);
    }
}

/// Drives `stepper` to completion, running each round's jobs with
/// `run` and calling `on_round` after each completed round. Returns the
/// number of rounds.
pub fn drive<S: Stepper>(
    tracer: &Tracer,
    stepper: &mut S,
    mut run: impl FnMut(&S::Planned) -> Vec<S::Outcome>,
    mut on_round: impl FnMut(),
) -> usize {
    let mut rounds = 0;
    loop {
        let planned = {
            let _span = tracer.span(Layer::Core, "plan_round");
            stepper.plan()
        };
        let Some(planned) = planned else {
            return rounds;
        };
        let outcomes = run(&planned);
        {
            let _span = tracer.span(Layer::Core, "complete_round");
            stepper.complete(&planned, &outcomes);
        }
        rounds += 1;
        on_round();
    }
}
