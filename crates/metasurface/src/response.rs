//! The surface as the propagation layer sees it: a [`Metasurface`]
//! bundles a design with an operating state and answers "what happens to
//! a wave that crosses / reflects off you?"
//!
//! Transmissive mode returns the S21 Jones block (rotation + insertion
//! loss + residual ellipticity, all from the circuit model). Reflective
//! mode returns the S11 Jones block — which is where the paper's §5.2
//! observation that "the rotation will be cancelled after the signal is
//! reflected" emerges naturally: the reflected wave re-traverses the
//! front layers in mirrored order, undoing most of the rotation, so the
//! reflective voltage dependence is much flatter than the transmissive
//! one (Figure 21 vs Figure 15).

use std::cell::RefCell;

use microwave::polarized::PolarizedS;
use rfmath::jones::{JonesMatrix, JonesVector};
use rfmath::units::{Db, Degrees, Hertz, Volts};

use crate::designs::Design;
use crate::evaluator::StackEvaluator;
use crate::stack::{BiasState, SUPPLY_CEILING};

/// One full surface evaluation at a `(frequency, bias)` point: the
/// transmissive and reflective Jones matrices and both transmission
/// efficiencies, all derived from a single cascade.
///
/// Call sites that previously ran [`Metasurface::transmission`],
/// [`Metasurface::reflection`] and the efficiency accessors separately
/// paid one full cascade *each*; [`Metasurface::response`] bundles the
/// four observables behind one evaluation. An opaque (numerically
/// singular) cascade yields zero Jones transforms and `−∞ dB`
/// efficiencies, matching the individual accessors' fallbacks.
#[derive(Clone, Copy, Debug)]
pub struct SurfaceResponse {
    f: Hertz,
    polarized: Option<PolarizedS>,
}

impl SurfaceResponse {
    /// Wraps a raw cascade result evaluated at `f` (`None` = opaque
    /// surface). Carrying the frequency lets consumers assert that a
    /// precomputed response is not mixed with a link at a different
    /// carrier.
    pub fn new(f: Hertz, polarized: Option<PolarizedS>) -> Self {
        Self { f, polarized }
    }

    /// The frequency this response was evaluated at.
    pub fn frequency(&self) -> Hertz {
        self.f
    }

    /// The underlying polarized scattering description, when the cascade
    /// exists.
    pub fn polarized(&self) -> Option<PolarizedS> {
        self.polarized
    }

    /// True when the cascade was numerically singular (never the case
    /// for physical designs).
    pub fn is_opaque(&self) -> bool {
        self.polarized.is_none()
    }

    /// Transmissive Jones matrix (zero transform when opaque).
    pub fn transmission(&self) -> JonesMatrix {
        self.polarized
            .map(|r| r.transmission_jones())
            .unwrap_or(JonesMatrix(rfmath::Mat2::ZERO))
    }

    /// Reflective (front-face) Jones matrix (zero transform when opaque).
    pub fn reflection(&self) -> JonesMatrix {
        self.polarized
            .map(|r| r.reflection_jones())
            .unwrap_or(JonesMatrix(rfmath::Mat2::ZERO))
    }

    /// Transmission efficiency (Eq. 11) for an X-polarized wave, dB.
    pub fn efficiency_x_db(&self) -> Db {
        self.polarized
            .map(|r| r.efficiency_x_db())
            .unwrap_or(Db(f64::NEG_INFINITY))
    }

    /// Transmission efficiency (Eq. 11) for a Y-polarized wave, dB.
    pub fn efficiency_y_db(&self) -> Db {
        self.polarized
            .map(|r| r.efficiency_y_db())
            .unwrap_or(Db(f64::NEG_INFINITY))
    }

    /// The transmissive shadow's mean through-efficiency,
    /// `0.5 · (eff_x_db + eff_y_db)`, dB.
    fn mean_efficiency_db(&self) -> f64 {
        0.5 * (self.efficiency_x_db().0 + self.efficiency_y_db().0)
    }
}

/// What a `t = 0` probe reads from a surface response, independent of
/// the link it is projected onto: the Jones blocks the surface legs
/// apply and the transmissive shadow. A [`SurfaceResponse`] derives each
/// on demand, so a single probe computes only what its mount reads;
/// [`ResponseFactors`] holds them precomputed, so a batch projecting one
/// response onto many links pays for them once. Both give the same bits
/// and feed the same probe body.
pub trait ResponseSide {
    /// The frequency the response was evaluated at.
    fn frequency(&self) -> Hertz;
    /// A transmissive mount's legs: the transmission block `trans`, and
    /// `trans · refl` for the antenna↔surface bounce.
    fn transmissive_blocks(&self) -> (JonesMatrix, JonesMatrix);
    /// A reflective mount's fold: the surface's S11 block expressed in
    /// the incident frame, `mirror_x · refl` (mirror conjugation: the
    /// reflected wave's frame flips handedness, which is the §5.2
    /// rotation-cancellation mechanism as seen by the receiver).
    fn reflective_block(&self) -> JonesMatrix;
    /// The transmissive shadow's amplitude factor on a link whose
    /// shadow is darkened by a further `shadow_extra_db`.
    fn shadow(&self, shadow_extra_db: f64) -> f64;
}

impl ResponseSide for SurfaceResponse {
    fn frequency(&self) -> Hertz {
        SurfaceResponse::frequency(self)
    }

    fn transmissive_blocks(&self) -> (JonesMatrix, JonesMatrix) {
        let trans = self.transmission();
        (trans, trans * self.reflection())
    }

    fn reflective_block(&self) -> JonesMatrix {
        JonesMatrix::mirror_x() * self.reflection()
    }

    fn shadow(&self, shadow_extra_db: f64) -> f64 {
        shadow_amplitude(self.mean_efficiency_db(), shadow_extra_db)
    }
}

/// The default extra shadow attenuation of a link tuning, dB: none.
/// [`ResponseFactors`] resolves the shadow for it up front.
pub const DEFAULT_SHADOW_EXTRA_DB: f64 = 0.0;

/// The transmissive shadow's amplitude factor: the panel's mean
/// through-efficiency, floored at −30 dB, darkened by `shadow_extra_db`.
fn shadow_amplitude(mean_efficiency_db: f64, shadow_extra_db: f64) -> f64 {
    let eff_db = mean_efficiency_db - shadow_extra_db;
    10f64.powf(eff_db.max(-30.0 - shadow_extra_db) / 20.0)
}

/// Every link-independent factor of a `t = 0` probe under one surface
/// response, computed once: the transmission Jones block, `trans ·
/// refl`, `mirror_x · refl`, the mean efficiency and the transmissive
/// shadow at [`DEFAULT_SHADOW_EXTRA_DB`]. A batch that projects one
/// response onto many links builds this once per response instead of
/// once per link, and a shared plan store keeps it per bias cell
/// ([`StackEvaluator::cell_factors_into`]). A link at the default
/// tuning reads the shadow factor, any other runs its own shadow
/// `powf`; either way every factor ([`ResponseSide`]) is bitwise what
/// the [`SurfaceResponse`] gives.
#[derive(Clone, Copy, Debug)]
pub struct ResponseFactors {
    f: Hertz,
    trans: JonesMatrix,
    bounce: JonesMatrix,
    fold: JonesMatrix,
    mean_efficiency_db: f64,
    /// The shadow amplitude factor at [`DEFAULT_SHADOW_EXTRA_DB`].
    default_shadow: f64,
}

impl ResponseFactors {
    /// Precomputes the factors of `surface` (an opaque response yields
    /// zero blocks and a `−∞ dB` mean efficiency, as its accessors do).
    pub fn new(surface: &SurfaceResponse) -> Self {
        let trans = surface.transmission();
        let refl = surface.reflection();
        let mean_efficiency_db = surface.mean_efficiency_db();
        Self {
            f: surface.frequency(),
            trans,
            bounce: trans * refl,
            fold: JonesMatrix::mirror_x() * refl,
            mean_efficiency_db,
            default_shadow: shadow_amplitude(mean_efficiency_db, DEFAULT_SHADOW_EXTRA_DB),
        }
    }
}

impl ResponseSide for ResponseFactors {
    fn frequency(&self) -> Hertz {
        self.f
    }

    fn transmissive_blocks(&self) -> (JonesMatrix, JonesMatrix) {
        (self.trans, self.bounce)
    }

    fn reflective_block(&self) -> JonesMatrix {
        self.fold
    }

    /// Read from the precomputed factor at [`DEFAULT_SHADOW_EXTRA_DB`]
    /// (by bit pattern), recomputed at any other tuning.
    fn shadow(&self, shadow_extra_db: f64) -> f64 {
        if shadow_extra_db.to_bits() == DEFAULT_SHADOW_EXTRA_DB.to_bits() {
            self.default_shadow
        } else {
            shadow_amplitude(self.mean_efficiency_db, shadow_extra_db)
        }
    }
}

/// A deployed surface: design + current bias state.
#[derive(Clone, Debug)]
pub struct Metasurface {
    /// The electrical design. Private so the cached per-frequency
    /// evaluation plan can never go stale: read through
    /// [`Metasurface::design`], replace through
    /// [`Metasurface::set_design`] (which drops the cache).
    design: Design,
    /// Current DC bias state (set by the control plane).
    pub bias: BiasState,
    /// Supply ceiling (the paper sweeps 0–30 V).
    pub v_max: Volts,
    /// Cached per-frequency evaluation plan (bias-independent stages of
    /// the cascade, compiled lazily on first probe at a frequency).
    evaluator: RefCell<Option<StackEvaluator>>,
}

impl Metasurface {
    /// Deploys a design at a neutral bias.
    pub fn new(design: Design) -> Self {
        Self {
            design,
            bias: BiasState::new(6.0, 6.0),
            v_max: SUPPLY_CEILING,
            evaluator: RefCell::new(None),
        }
    }

    /// The paper's prototype surface (optimized FR4 design).
    pub fn llama() -> Self {
        Self::new(crate::designs::fr4_optimized())
    }

    /// The deployed electrical design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Replaces the design and invalidates the cached evaluation plan.
    pub fn set_design(&mut self, design: Design) {
        self.design = design;
        *self.evaluator.borrow_mut() = None;
    }

    /// Sets the bias state, clamped to the supply range.
    pub fn set_bias(&mut self, bias: BiasState) {
        self.bias = bias.clamped(self.v_max);
    }

    /// Full surface response at frequency `f` under the current bias:
    /// one cascade evaluation yielding transmission, reflection and both
    /// efficiencies.
    ///
    /// The bias-independent stages of the cascade are compiled once per
    /// frequency (via [`StackEvaluator`]) and reused across bias changes,
    /// so sweep loops that call this per probe pay only the tuned-branch
    /// work.
    pub fn response(&self, f: Hertz) -> SurfaceResponse {
        {
            let cached = self.evaluator.borrow();
            if let Some(ev) = cached.as_ref() {
                if ev.frequency().0.to_bits() == f.0.to_bits() {
                    return SurfaceResponse::new(f, ev.response(self.bias));
                }
            }
        }
        let ev = StackEvaluator::new(&self.design.stack, f);
        let response = SurfaceResponse::new(f, ev.response(self.bias));
        *self.evaluator.borrow_mut() = Some(ev);
        response
    }

    /// Transmissive Jones matrix at frequency `f` under the current bias.
    ///
    /// Falls back to an opaque (zero) transform if the cascade is
    /// numerically singular, which does not occur for physical designs.
    /// Prefer [`Metasurface::response`] when more than one observable is
    /// needed at the same `(f, bias)` point.
    pub fn transmission(&self, f: Hertz) -> JonesMatrix {
        self.response(f).transmission()
    }

    /// Reflective (front-face) Jones matrix at `f` under the current bias.
    pub fn reflection(&self, f: Hertz) -> JonesMatrix {
        self.response(f).reflection()
    }

    /// Transmission efficiency (Eq. 11) for an X-polarized wave, dB.
    pub fn efficiency_x_db(&self, f: Hertz) -> Db {
        self.response(f).efficiency_x_db()
    }

    /// Transmission efficiency (Eq. 11) for a Y-polarized wave, dB.
    pub fn efficiency_y_db(&self, f: Hertz) -> Db {
        self.response(f).efficiency_y_db()
    }

    /// Orientation change imparted on a linear probe state in
    /// transmission — the operational "rotation angle" of §3.4.
    pub fn measured_rotation(&self, f: Hertz, probe: JonesVector) -> Degrees {
        let out = self.transmission(f).apply(probe);
        let d = out.orientation().to_degrees().0 - probe.orientation().to_degrees().0;
        // Orientation is defined mod 180°; wrap to (-90°, 90°].
        let mut d = (d + 90.0).rem_euclid(180.0) - 90.0;
        if d == -90.0 {
            d = 90.0;
        }
        Degrees(d)
    }

    /// Reflective rotation: orientation change of the reflected wave
    /// (expressed in the incident wave's frame).
    pub fn measured_reflection_rotation(&self, f: Hertz, probe: JonesVector) -> Degrees {
        let out = self.reflection(f).apply(probe);
        let d = out.orientation().to_degrees().0 - probe.orientation().to_degrees().0;
        let mut d = (d + 90.0).rem_euclid(180.0) - 90.0;
        if d == -90.0 {
            d = 90.0;
        }
        Degrees(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::fr4_optimized;

    const F: Hertz = Hertz(2.44e9);

    #[test]
    fn default_bias_is_mid_range() {
        let m = Metasurface::llama();
        assert_eq!(m.bias, BiasState::new(6.0, 6.0));
    }

    #[test]
    fn set_bias_clamps_to_supply() {
        let mut m = Metasurface::llama();
        m.set_bias(BiasState::new(99.0, -5.0));
        assert_eq!(m.bias.vx, Volts(30.0));
        assert_eq!(m.bias.vy, Volts(0.0));
    }

    #[test]
    fn transmission_rotation_sweeps_with_bias() {
        let mut m = Metasurface::llama();
        let probe = JonesVector::horizontal();
        m.set_bias(BiasState::new(2.0, 15.0));
        let a = m.measured_rotation(F, probe).0;
        m.set_bias(BiasState::new(15.0, 2.0));
        let b = m.measured_rotation(F, probe).0;
        assert!(
            (a - b).abs() > 30.0,
            "rotation must sweep tens of degrees: {a}° vs {b}°"
        );
    }

    #[test]
    fn reflection_rotation_is_flatter_than_transmission() {
        // The §5.2 cancellation: reflective rotation varies far less with
        // bias than transmissive rotation.
        let mut m = Metasurface::llama();
        let probe = JonesVector::linear_deg(0.0);
        let mut t_angles = Vec::new();
        let mut r_angles = Vec::new();
        for (vx, vy) in [(2.0, 2.0), (2.0, 15.0), (15.0, 2.0), (8.0, 8.0)] {
            m.set_bias(BiasState::new(vx, vy));
            t_angles.push(m.measured_rotation(F, probe).0);
            r_angles.push(m.measured_reflection_rotation(F, probe).0);
        }
        let spread = |v: &[f64]| {
            v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - v.iter().cloned().fold(f64::INFINITY, f64::min)
        };
        assert!(
            spread(&r_angles) < spread(&t_angles),
            "reflective spread {:.1}° should be below transmissive {:.1}°",
            spread(&r_angles),
            spread(&t_angles)
        );
    }

    #[test]
    fn response_bundle_matches_individual_accessors() {
        let mut m = Metasurface::llama();
        m.set_bias(BiasState::new(4.0, 13.0));
        let r = m.response(F);
        assert!(!r.is_opaque());
        assert!(r.transmission().0.max_abs_diff(m.transmission(F).0) < 1e-12);
        assert!(r.reflection().0.max_abs_diff(m.reflection(F).0) < 1e-12);
        assert!((r.efficiency_x_db().0 - m.efficiency_x_db(F).0).abs() < 1e-12);
        assert!((r.efficiency_y_db().0 - m.efficiency_y_db(F).0).abs() < 1e-12);
    }

    #[test]
    fn cached_plan_survives_bias_and_frequency_changes() {
        let mut m = Metasurface::llama();
        let naive = |m: &Metasurface, f: Hertz| m.design().stack.response(f, m.bias).unwrap();
        // Warm the cache at F, then change bias: still matches naive.
        let _ = m.response(F);
        m.set_bias(BiasState::new(15.0, 2.0));
        let r = m.response(F).polarized().unwrap();
        assert!(r.s21.max_abs_diff(naive(&m, F).s21) < 1e-12);
        // Switch frequency: the plan recompiles and stays correct.
        let f2 = Hertz::from_ghz(2.5);
        let r2 = m.response(f2).polarized().unwrap();
        assert!(r2.s21.max_abs_diff(naive(&m, f2).s21) < 1e-12);
    }

    #[test]
    fn set_design_invalidates_cached_plan() {
        let mut m = Metasurface::llama();
        let llama_eff = m.response(F).efficiency_x_db().0;
        m.set_design(crate::designs::fr4_naive());
        let naive_eff = m.response(F).efficiency_x_db().0;
        let expected = crate::designs::fr4_naive()
            .stack
            .response(F, m.bias)
            .unwrap()
            .efficiency_x_db()
            .0;
        assert!(
            (naive_eff - expected).abs() < 1e-12,
            "stale plan: got {naive_eff}, expected {expected}"
        );
        assert!((llama_eff - naive_eff).abs() > 1.0, "designs must differ");
    }

    #[test]
    fn efficiency_accessors_are_finite_in_band() {
        let m = Metasurface::new(fr4_optimized());
        assert!(m.efficiency_x_db(F).0.is_finite());
        assert!(m.efficiency_y_db(F).0.is_finite());
        assert!(m.efficiency_x_db(F).0 > -10.0);
    }

    #[test]
    fn reflection_exists_but_does_not_exceed_unity() {
        let m = Metasurface::llama();
        let refl = m.reflection(F);
        let g = refl.transmittance(JonesVector::horizontal());
        assert!(g <= 1.0 + 1e-9, "|S11|² = {g}");
    }
}
