//! Multi-surface coupling: superposed per-panel fields at one receiver.
//!
//! A panel array serves each device from its *home* panel, but the other
//! panels are not silent: every biased surface scatters part of the
//! transmit field toward every receiver in the room. This module models
//! that leakage as a coherent superposition,
//!
//! ```text
//! a_rx = a_home(bias_home) + Σ_{k≠home} γ · s_k(bias_k)
//!                          + Σ_{k≠home} γ₂ · h_k · s_k(bias_k)
//! ```
//!
//! where `a_home` is the full single-surface amplitude the independent
//! scheduler already optimizes, `s_k` is panel k's engineered *scattered*
//! amplitude toward this receiver
//! ([`PreparedLink::scattered_amplitude`] — the surface-dependent
//! paths minus the static direct ray and environment tail, so the direct
//! field is never double counted), `γ` ([`CouplingConfig::gain`]) is the
//! fraction of a foreign panel's scattered field that reaches a receiver
//! outside its sector (aperture intercept — foreign panels sit off the
//! receiver's boresight), and the optional `γ₂ · h_k` term is a cascaded
//! two-hop route (foreign surface → home surface → device) with `h_k` the
//! free-space transfer over the inter-panel separation.
//!
//! **Zero-coupling guarantee:** when [`CouplingConfig::is_disabled`] the
//! superposition returns the home amplitude *unchanged* — cross terms are
//! skipped entirely, never added as zeros (adding `+0.0` can flip the
//! sign bit of `-0.0`), so a disabled coupled evaluation is bit-identical
//! to the single-surface path. `core::panels` property-tests this.

use metasurface::response::SurfaceResponse;
use rfmath::complex::Complex;
use rfmath::units::{Dbm, Meters, Watts};

use crate::friis;
use crate::link::PreparedLink;

/// Strength of inter-panel coupling in a [`MultiSurfaceField`].
///
/// Both gains are linear amplitude fractions. The defaults model an
/// indoor deployment where a foreign panel's scattered lobe is well off
/// the receiver's boresight: a modest direct-leakage intercept and no
/// cascaded hop unless explicitly requested.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouplingConfig {
    /// Amplitude fraction of a foreign panel's scattered field that
    /// reaches the receiver directly (aperture-intercept factor).
    pub gain: f64,
    /// Amplitude gain of the cascaded two-hop route (foreign surface →
    /// home surface → device), applied on top of the free-space
    /// inter-panel transfer. Zero disables the cascade term.
    pub cascade_gain: f64,
}

impl CouplingConfig {
    /// No coupling at all: the superposed field *is* the home field,
    /// bit for bit.
    pub fn disabled() -> Self {
        CouplingConfig {
            gain: 0.0,
            cascade_gain: 0.0,
        }
    }

    /// Representative indoor leakage: 20% amplitude intercept of foreign
    /// scattered lobes, no cascaded hop.
    pub fn indoor_default() -> Self {
        CouplingConfig {
            gain: 0.2,
            cascade_gain: 0.0,
        }
    }

    /// True when every cross term vanishes and the coupled evaluation
    /// must short-circuit to the home amplitude.
    pub fn is_disabled(&self) -> bool {
        self.gain == 0.0 && self.cascade_gain == 0.0
    }
}

impl Default for CouplingConfig {
    fn default() -> Self {
        CouplingConfig::disabled()
    }
}

/// One receiver's view of a whole panel array: the home-panel link plus
/// one re-mounted [`PreparedLink`] per foreign panel, ready to superpose
/// per-panel amplitudes under a [`CouplingConfig`].
///
/// Index `k` everywhere refers to the panel order passed to
/// [`MultiSurfaceField::new`]; all links must target the *same* physical
/// receiver (same endpoints, different surface mounts — the
/// [`PreparedLink::with_surface_placement`] contract).
#[derive(Clone, Debug)]
pub struct MultiSurfaceField {
    home: usize,
    links: Vec<PreparedLink>,
    /// Free-space inter-panel transfer for the cascaded hop, per panel:
    /// `hops[k]` carries foreign panel k's field to the home panel.
    /// Zero for the home panel itself and for mounts without positions.
    hops: Vec<Complex>,
}

impl MultiSurfaceField {
    /// Builds the superposition view. `links[home]` is the device's
    /// serving panel; the rest contribute cross terms only.
    ///
    /// # Panics
    /// When `home` is out of range.
    pub fn new(home: usize, links: Vec<PreparedLink>) -> Self {
        assert!(
            home < links.len(),
            "home panel {home} out of range for {} links",
            links.len()
        );
        let home_pos = links[home].link().deployment.surface_position();
        let f = links[home].link().frequency;
        let hops = links
            .iter()
            .enumerate()
            .map(|(k, prepared)| {
                if k == home {
                    return Complex::ZERO;
                }
                let (Some(a), Some(b)) = (prepared.link().deployment.surface_position(), home_pos)
                else {
                    return Complex::ZERO;
                };
                let d = a.distance(b);
                if d == 0.0 {
                    return Complex::ZERO;
                }
                friis::field_transfer(f, Meters(d))
            })
            .collect();
        MultiSurfaceField { home, links, hops }
    }

    /// Index of the serving panel within [`MultiSurfaceField::link`].
    pub fn home_index(&self) -> usize {
        self.home
    }

    /// Number of panels in the superposition (home included).
    pub fn panel_count(&self) -> usize {
        self.links.len()
    }

    /// Panel k's re-mounted link handle.
    pub fn link(&self, k: usize) -> &PreparedLink {
        &self.links[k]
    }

    /// The serving panel's link handle.
    pub fn home_link(&self) -> &PreparedLink {
        &self.links[self.home]
    }

    /// The full single-surface amplitude from the serving panel — exactly
    /// what [`PreparedLink::received_amplitude`] returns.
    pub fn home_amplitude(&self, response: Option<&SurfaceResponse>) -> Complex {
        self.links[self.home].received_amplitude(response)
    }

    /// Foreign panel k's cross-term contribution: scattered leakage plus
    /// the optional cascaded hop. Exactly zero for the home panel or when
    /// coupling is disabled.
    pub fn cross_amplitude(
        &self,
        k: usize,
        response: Option<&SurfaceResponse>,
        coupling: &CouplingConfig,
    ) -> Complex {
        if k == self.home || coupling.is_disabled() {
            return Complex::ZERO;
        }
        let scattered = self.links[k].scattered_amplitude(response);
        let mut term = scattered * coupling.gain;
        if coupling.cascade_gain != 0.0 {
            term += self.hops[k] * scattered * coupling.cascade_gain;
        }
        term
    }

    /// The superposed receiver amplitude. `responses[k]` is panel k's
    /// bias response (None = panel off). When coupling is disabled this
    /// returns the home amplitude *without touching the cross terms* —
    /// the bitwise zero-coupling guarantee.
    pub fn amplitude(
        &self,
        responses: &[Option<&SurfaceResponse>],
        coupling: &CouplingConfig,
    ) -> Complex {
        debug_assert_eq!(responses.len(), self.links.len());
        let home = self.home_amplitude(responses[self.home]);
        if coupling.is_disabled() {
            return home;
        }
        let mut total = home;
        for (k, response) in responses.iter().enumerate() {
            if k == self.home {
                continue;
            }
            total += self.cross_amplitude(k, *response, coupling);
        }
        total
    }

    /// Superposed received power in dBm.
    pub fn power_dbm(
        &self,
        responses: &[Option<&SurfaceResponse>],
        coupling: &CouplingConfig,
    ) -> Dbm {
        Watts(self.amplitude(responses, coupling).norm_sqr()).to_dbm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::{Antenna, OrientedAntenna};
    use crate::environment::Environment;
    use crate::link::Link;
    use crate::rays::Deployment;
    use metasurface::response::Metasurface;
    use metasurface::stack::BiasState;
    use rfmath::units::{Degrees, Hertz};

    fn base_link() -> Link {
        Link {
            tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
            rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(0.0)),
            frequency: Hertz::from_ghz(2.44),
            tx_power: rfmath::units::Watts::from_mw(50.0),
            deployment: Deployment::reflective_cm(60.0),
            environment: Environment::laboratory(9),
            extra_paths: Vec::new(),
            tuning: Default::default(),
        }
    }

    fn response(bias: BiasState) -> SurfaceResponse {
        let mut surface = Metasurface::llama();
        surface.set_bias(bias);
        surface.response(Hertz::from_ghz(2.44))
    }

    fn two_panel_field() -> MultiSurfaceField {
        let home = PreparedLink::new(base_link());
        let foreign =
            home.with_surface_placement(base_link().deployment.with_surface_fraction(0.8));
        MultiSurfaceField::new(0, vec![home, foreign])
    }

    #[test]
    fn disabled_coupling_is_bitwise_the_home_amplitude() {
        let field = two_panel_field();
        let ra = response(BiasState::new(9.0, 3.0));
        let rb = response(BiasState::new(21.0, 27.0));
        let home = field.home_amplitude(Some(&ra));
        let coupled = field.amplitude(&[Some(&ra), Some(&rb)], &CouplingConfig::disabled());
        assert_eq!(home.re.to_bits(), coupled.re.to_bits());
        assert_eq!(home.im.to_bits(), coupled.im.to_bits());
    }

    #[test]
    fn coupling_shifts_the_superposed_amplitude() {
        let field = two_panel_field();
        let ra = response(BiasState::new(9.0, 3.0));
        let rb = response(BiasState::new(21.0, 27.0));
        let home = field.home_amplitude(Some(&ra));
        let coupled = field.amplitude(&[Some(&ra), Some(&rb)], &CouplingConfig::indoor_default());
        assert!(
            (coupled - home).abs() > 1e-12,
            "a biased foreign panel must perturb the field"
        );
        // And the foreign bias matters: a different foreign response
        // lands at a different superposed amplitude.
        let rc = response(BiasState::new(3.0, 15.0));
        let other = field.amplitude(&[Some(&ra), Some(&rc)], &CouplingConfig::indoor_default());
        assert!((coupled - other).abs() > 1e-12);
    }

    #[test]
    fn single_panel_superposition_is_the_home_field() {
        let home = PreparedLink::new(base_link());
        let field = MultiSurfaceField::new(0, vec![home]);
        let r = response(BiasState::new(9.0, 3.0));
        let alone = field.home_amplitude(Some(&r));
        let coupled = field.amplitude(&[Some(&r)], &CouplingConfig::indoor_default());
        assert_eq!(alone.re.to_bits(), coupled.re.to_bits());
        assert_eq!(alone.im.to_bits(), coupled.im.to_bits());
    }

    #[test]
    fn cascade_hop_uses_the_inter_panel_separation() {
        let field = two_panel_field();
        let rb = response(BiasState::new(21.0, 27.0));
        let direct_only = field.cross_amplitude(
            1,
            Some(&rb),
            &CouplingConfig {
                gain: 0.2,
                cascade_gain: 0.0,
            },
        );
        let with_cascade = field.cross_amplitude(
            1,
            Some(&rb),
            &CouplingConfig {
                gain: 0.2,
                cascade_gain: 0.5,
            },
        );
        assert!(
            (with_cascade - direct_only).abs() > 1e-15,
            "cascade term must add a hop contribution"
        );
        // The home panel never contributes a cross term.
        let home_cross = field.cross_amplitude(0, Some(&rb), &CouplingConfig::indoor_default());
        assert_eq!(home_cross.re.to_bits(), 0.0f64.to_bits());
        assert_eq!(home_cross.im.to_bits(), 0.0f64.to_bits());
    }
}
