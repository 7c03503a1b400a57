//! Equivalence tests for the two hot kernels rewritten for speed: the
//! ziggurat normal sampler (fast path inlined, tail and wedge moved out of
//! line) and the proximity measurer (minima kept as squared distances,
//! severity moved into [`crate::EncounterWorld`]).
//!
//! Each test runs the current kernel beside a verbatim copy of the code it
//! replaced (module `reference`) and demands bit-equality: every sampled
//! value and the generator state after every draw; every measurer field
//! after every observation. Both rewrites claim to be exact, not close, so
//! any difference is a bug.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::config::rand_distr_shim::sample_standard_normal;
use crate::world::observed_severity;
use crate::{ProximityMeasurer, UavState, Vec3};

/// The replaced implementations, copied verbatim.
mod reference {
    use serde::{Deserialize, Serialize};

    use crate::{nmac_severity, UavState};

    pub(crate) mod rand_distr_shim {
        use rand::Rng;
        use std::sync::OnceLock;

        /// Number of rectangular layers in the ziggurat.
        const LAYERS: usize = 128;
        /// Right edge of the base layer: x-coordinate where the tail begins.
        const R: f64 = 3.442_619_855_899;
        /// Common area of every layer (base rectangle + tail for layer 0).
        const V: f64 = 9.912_563_035_262_17e-3;

        /// Precomputed layer geometry: `x[i]` is the right edge of layer `i`
        /// (`x[0] = V / f(R) > R` spans the base-plus-tail box, `x[LAYERS] = 0`),
        /// and `f[i] = exp(-x[i]^2 / 2)`.
        struct Tables {
            x: [f64; LAYERS + 1],
            f: [f64; LAYERS + 1],
        }

        fn tables() -> &'static Tables {
            static TABLES: OnceLock<Tables> = OnceLock::new();
            TABLES.get_or_init(|| {
                let density = |x: f64| (-0.5 * x * x).exp();
                let mut x = [0.0; LAYERS + 1];
                let mut f = [0.0; LAYERS + 1];
                x[0] = V / density(R);
                x[1] = R;
                for i in 1..LAYERS {
                    // Invert f at the top of layer i: each layer has area V, so
                    // the next edge satisfies f(x[i+1]) = f(x[i]) + V / x[i].
                    let y = density(x[i]) + V / x[i];
                    x[i + 1] = if y >= 1.0 {
                        0.0
                    } else {
                        (-2.0 * y.ln()).sqrt()
                    };
                }
                // The chosen (R, V) make the recurrence land on 0 up to rounding;
                // pin it so the layer stack covers the density peak exactly.
                x[LAYERS] = 0.0;
                for i in 0..=LAYERS {
                    f[i] = density(x[i]);
                }
                Tables { x, f }
            })
        }

        /// Uniform in `(0, 1]`; guards the logarithms in the slow paths against
        /// `ln(0)`.
        fn nonzero_uniform<R2: Rng + ?Sized>(rng: &mut R2) -> f64 {
            loop {
                let u: f64 = rng.gen::<f64>();
                if u > 0.0 {
                    return u;
                }
            }
        }

        /// Samples one standard normal variate.
        ///
        /// Per-seed draw sequences changed when this switched from Box–Muller to
        /// the ziggurat (both the values and the number of `u64`s consumed per
        /// call), but the determinism contract is unchanged: a given seed still
        /// yields one stable stream, shared bit-for-bit by the scalar and cohort
        /// simulation paths.
        pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            let t = tables();
            loop {
                let bits = rng.next_u64();
                let i = (bits & (LAYERS as u64 - 1)) as usize;
                let u = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                // Signed uniform in [-1, 1); the low 7 bits picking the layer are
                // disjoint from the 53 mantissa bits.
                let s = 2.0 * u - 1.0;
                let x = s * t.x[i];
                if x.abs() < t.x[i + 1] {
                    // Strictly inside the layer's inscribed rectangle: accept
                    // without evaluating the density (~98.5% of draws).
                    return x;
                }
                if i == 0 {
                    // Base layer overhang is the tail beyond R; Marsaglia's
                    // exponential-majorant tail sampler.
                    loop {
                        let tail_x = -nonzero_uniform(rng).ln() / R;
                        let tail_y = -nonzero_uniform(rng).ln();
                        if tail_y + tail_y > tail_x * tail_x {
                            let mag = R + tail_x;
                            return if s < 0.0 { -mag } else { mag };
                        }
                    }
                }
                // Wedge between the inscribed rectangle and the density curve.
                let u2: f64 = rng.gen::<f64>();
                if t.f[i] + u2 * (t.f[i + 1] - t.f[i]) < (-0.5 * x * x).exp() {
                    return x;
                }
            }
        }
    }

    /// The paper's *Proximity Measurer*: tracks per-step separations and the
    /// minima experienced so far in a run.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct ProximityMeasurer {
        min_horizontal_ft: f64,
        min_vertical_ft: f64,
        min_separation_ft: f64,
        /// Time at which the smallest 3-D separation was observed.
        time_of_min_s: f64,
        /// Smallest *simultaneous* NMAC severity seen at any observed point
        /// (unlike `min_horizontal_ft`/`min_vertical_ft`, which are minima of
        /// different observations and therefore not jointly attained).
        min_severity: f64,
    }

    impl Default for ProximityMeasurer {
        fn default() -> Self {
            Self::new()
        }
    }

    impl ProximityMeasurer {
        /// Creates a measurer with no observations yet.
        pub fn new() -> Self {
            Self {
                min_horizontal_ft: f64::INFINITY,
                min_vertical_ft: f64::INFINITY,
                min_separation_ft: f64::INFINITY,
                time_of_min_s: 0.0,
                min_severity: f64::INFINITY,
            }
        }

        /// Records the separation between the two aircraft at time `time_s`.
        pub fn observe(&mut self, a: &UavState, b: &UavState, time_s: f64) {
            let horizontal = a.position.horizontal_distance(b.position);
            let vertical = (a.position.z - b.position.z).abs();
            let separation = a.position.distance(b.position);
            self.min_horizontal_ft = self.min_horizontal_ft.min(horizontal);
            self.min_vertical_ft = self.min_vertical_ft.min(vertical);
            if separation < self.min_separation_ft {
                self.min_separation_ft = separation;
                self.time_of_min_s = time_s;
            }
            self.min_severity = self.min_severity.min(nmac_severity(horizontal, vertical));
        }

        /// Smallest horizontal separation seen so far, ft.
        pub fn min_horizontal_ft(&self) -> f64 {
            self.min_horizontal_ft
        }

        /// Smallest vertical separation seen so far, ft.
        pub fn min_vertical_ft(&self) -> f64 {
            self.min_vertical_ft
        }

        /// Smallest 3-D separation seen so far, ft. This is the `d_k` of the
        /// paper's fitness function.
        pub fn min_separation_ft(&self) -> f64 {
            self.min_separation_ft
        }

        /// Time of the closest point of approach observed, s.
        pub fn time_of_min_s(&self) -> f64 {
            self.time_of_min_s
        }

        /// Smallest NMAC severity (see [`nmac_severity`]) attained at any
        /// observed point so far. Starts at `∞`; monotonically
        /// non-increasing over a run, which is what makes "first crossing of
        /// threshold `t`" a well-defined splitting checkpoint.
        pub fn min_severity(&self) -> f64 {
            self.min_severity
        }
    }
}

/// A generator wrapper counting the `u64`s drawn, so each normal draw can
/// be classified by the ziggurat branch that produced it.
struct Counting {
    inner: StdRng,
    draws: u64,
}

impl RngCore for Counting {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

#[test]
fn sampler_matches_reference_value_and_state_after_every_draw() {
    // Right edge of the base layer: a value beyond it came from the tail.
    const TAIL_START: f64 = 3.442_619_855_899;
    let (mut tail_hits, mut wedge_hits) = (0u64, 0u64);
    for seed in 0..200u64 {
        let mut fast = Counting {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        };
        let mut slow = StdRng::seed_from_u64(seed);
        for draw in 0..5_000 {
            let before = fast.draws;
            let x = sample_standard_normal(&mut fast);
            let y = reference::rand_distr_shim::sample_standard_normal(&mut slow);
            assert_eq!(x.to_bits(), y.to_bits(), "seed {seed} draw {draw}");
            assert_eq!(fast.inner, slow, "generator state, seed {seed} draw {draw}");
            if x.abs() >= TAIL_START {
                tail_hits += 1;
            } else if fast.draws - before > 1 {
                wedge_hits += 1;
            }
        }
    }
    assert!(tail_hits > 0, "the tail branch was never exercised");
    assert!(wedge_hits > 0, "the wedge branch was never exercised");
}

/// Fine offset unit, ft: jitter of a few units moves a squared separation
/// of 250² ft² or more by about one ulp.
const FINE_FT: f64 = 1.0 / (1u64 << 45) as f64;

/// A jitter of 0–3 fine units per axis.
fn jitter() -> impl Strategy<Value = Vec3> + Clone {
    (0i32..=3, 0i32..=3, 0i32..=3)
        .prop_map(|(i, j, k)| Vec3::new(f64::from(i), f64::from(j), f64::from(k)) * FINE_FT)
}

/// A sequence of 16 observations `(a, b, time)`: `a` near the origin, `b`
/// on a small coarse grid (250 ft horizontally, 50 ft vertically), both
/// jittered. The coarse grid makes exact ties common; the jitter makes
/// distinct squared separations with equal square roots occur too (see
/// the test below).
fn observations() -> impl Strategy<Value = Vec<(UavState, UavState, f64)>> {
    let coarse = (1i32..=2, 0i32..=1, 0i32..=1).prop_map(|(x, y, z)| {
        Vec3::new(
            f64::from(x) * 250.0,
            f64::from(y) * 250.0,
            f64::from(z) * 50.0,
        )
    });
    let observation = (jitter(), coarse, jitter(), 0u32..=5).prop_map(|(a, coarse, jb, t)| {
        (
            UavState::new(a, Vec3::ZERO),
            UavState::new(coarse + jb, Vec3::ZERO),
            f64::from(t),
        )
    });
    vec![observation; 16]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn measurer_matches_reference_after_every_observation(seq in observations()) {
        let mut old = reference::ProximityMeasurer::new();
        let mut new = ProximityMeasurer::new();
        let mut min_severity = f64::INFINITY;
        for (k, (a, b, t)) in seq.iter().enumerate() {
            old.observe(a, b, *t);
            new.observe(a, b, *t);
            min_severity = min_severity.min(observed_severity(a, b));
            let pairs = [
                ("min_horizontal_ft", new.min_horizontal_ft(), old.min_horizontal_ft()),
                ("min_vertical_ft", new.min_vertical_ft(), old.min_vertical_ft()),
                ("min_separation_ft", new.min_separation_ft(), old.min_separation_ft()),
                ("time_of_min_s", new.time_of_min_s(), old.time_of_min_s()),
                ("min_severity", min_severity, old.min_severity()),
            ];
            for (field, got, want) in pairs {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{} after observation {}", field, k);
            }
        }
    }
}

/// The property's own cases (regenerated exactly as the `proptest!` macro
/// draws them) must contain the hard case for the closest-approach time:
/// a squared 3-D separation strictly below the running minimum whose
/// square root nevertheless equals it.
#[test]
fn measurer_cases_include_equal_roots_of_distinct_squares() {
    let strategy = observations();
    let mut seeder = proptest::test_rng("measurer_matches_reference_after_every_observation");
    let mut hits = 0;
    for _ in 0..512 {
        let mut rng = proptest::next_case_rng(&mut seeder);
        let mut min_sq = f64::INFINITY;
        for (a, b, _) in strategy.generate(&mut rng) {
            let d = a.position - b.position;
            let sq = d.x * d.x + d.y * d.y + d.z * d.z;
            if sq < min_sq {
                if sq.sqrt() == min_sq.sqrt() {
                    hits += 1;
                }
                min_sq = sq;
            }
        }
    }
    assert!(hits > 0, "no equal-root tie was generated");
}
