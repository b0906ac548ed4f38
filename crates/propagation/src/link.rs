//! The wireless link: coherent field summation over paths.
//!
//! A [`Link`] binds oriented antennas, a deployment geometry, an
//! environment and (optionally) a metasurface, and answers the question
//! every experiment in the paper asks: *what power does the receiver
//! see?* The receiver's port amplitude is the coherent sum of every
//! path's contribution projected onto the receive antenna's polarization
//! state:
//!
//! ```text
//! a_rx = √(Ptx·Gtx·Grx) · Σ_paths  t_path · ⟨rx_pol | J_path | tx_pol⟩
//! ```

use metasurface::response::{Metasurface, ResponseSide, SurfaceResponse, DEFAULT_SHADOW_EXTRA_DB};
use rfmath::complex::Complex;
use rfmath::jones::{JonesMatrix, JonesVector};
use rfmath::units::{Dbm, Hertz, Seconds, Watts};

use crate::antenna::OrientedAntenna;
use crate::environment::{Environment, ScatterDraw};
use crate::rays::{direct_path, engineered_paths, Deployment, Path, SurfaceLegs, SurfaceMount};

/// The link-independent probe factors of one surface response, computed
/// once per response by the surface layer; a link projects them through
/// [`PreparedLink::received_dbm_factored`].
pub use metasurface::response::ResponseFactors;

/// Calibration knobs of the link model — the parameters the Figure 20
/// fidelity sweep (`expts --calibrate-fig20`) explores. Defaults
/// reproduce the uncalibrated model bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkTuning {
    /// Extra surface insertion loss per surface interaction, dB (applied
    /// to engineered paths on top of the circuit model's own loss;
    /// negative values model a *less* lossy physical prototype).
    pub surface_excess_loss_db: f64,
    /// Override for the environment scatterers' cross-polar
    /// discrimination, dB (`None` keeps the environment's built-in
    /// depolarization statistics). Higher XPD = purer scatter
    /// polarization = deeper mismatch fades.
    pub scatter_xpd_db: Option<f64>,
    /// Extra attenuation of near-axis scatter shadowed by a deployed
    /// transmissive panel, dB (on top of the panel's mean through-loss).
    pub shadow_extra_db: f64,
}

impl Default for LinkTuning {
    fn default() -> Self {
        Self {
            surface_excess_loss_db: 0.0,
            scatter_xpd_db: None,
            shadow_extra_db: DEFAULT_SHADOW_EXTRA_DB,
        }
    }
}

impl LinkTuning {
    /// Amplitude factor the excess insertion loss applies to an
    /// engineered path, by how many times that path interacts with the
    /// surface (the bounce path crosses it twice).
    fn surface_loss_amp(&self, label: &str) -> f64 {
        if self.surface_excess_loss_db == 0.0 {
            return 1.0;
        }
        let interactions = match label {
            "through-surface" | "surface-reflection" => 1.0,
            "antenna-surface bounce" => 2.0,
            _ => 0.0,
        };
        10f64.powf(-self.surface_excess_loss_db * interactions / 20.0)
    }
}

/// A fully specified point-to-point link.
#[derive(Clone, Debug)]
pub struct Link {
    /// Transmit antenna and mount orientation.
    pub tx: OrientedAntenna,
    /// Receive antenna and mount orientation.
    pub rx: OrientedAntenna,
    /// Carrier frequency.
    pub frequency: Hertz,
    /// Transmit power at the TX antenna port.
    pub tx_power: Watts,
    /// Physical placement.
    pub deployment: Deployment,
    /// Propagation environment.
    pub environment: Environment,
    /// Additional scene paths beyond the engineered and environment ones
    /// (e.g. a breathing human target injected by the sensing layer).
    pub extra_paths: Vec<Path>,
    /// Calibration knobs (defaults = uncalibrated paper model).
    pub tuning: LinkTuning,
}

impl Link {
    /// All propagation paths for this link (engineered + environment +
    /// extras), with the surface's current bias state folded in when
    /// present.
    pub fn paths(&self, surface: Option<&Metasurface>) -> Vec<Path> {
        let response = surface.map(|s| s.response(self.frequency));
        self.paths_with(response.as_ref())
    }

    /// [`Link::paths`] against a precomputed surface response (one
    /// cascade evaluation shared by every consumer of this probe).
    pub fn paths_with(&self, surface: Option<&SurfaceResponse>) -> Vec<Path> {
        let mut paths = engineered_paths(self.deployment, surface, self.frequency);
        paths.extend(self.static_paths());
        paths
    }

    /// The bias-independent paths of this link: environment scatter plus
    /// caller-injected extras. These never change across a bias sweep,
    /// which is what [`PreparedLink`] exploits.
    fn static_paths(&self) -> Vec<Path> {
        let mut paths = self.environment.scatter_paths_with(
            self.deployment.tx_rx_distance(),
            self.frequency,
            self.tuning.scatter_xpd_db,
        );
        paths.extend(self.extra_paths.iter().cloned());
        paths
    }

    /// Complex receive-port amplitude at time `t` (√W units; |a|² is the
    /// received power in watts).
    ///
    /// Evaluates the surface cascade exactly once; grid sweeps that
    /// already hold a batched [`SurfaceResponse`] should call
    /// [`Link::received_amplitude_with`] instead.
    pub fn received_amplitude_at(&self, surface: Option<&Metasurface>, t: Seconds) -> Complex {
        let response = surface.map(|s| s.response(self.frequency));
        self.received_amplitude_with(response.as_ref(), t)
    }

    /// [`Link::received_amplitude_at`] against a precomputed surface
    /// response — the allocation-light inner loop of the heatmap and
    /// sweep engines.
    pub fn received_amplitude_with(
        &self,
        surface: Option<&SurfaceResponse>,
        t: Seconds,
    ) -> Complex {
        let paths = self.paths_with(surface);
        self.project_onto(&paths, surface, &self.rx, t)
    }

    /// Per-receiver amplitudes for several receive mounts sharing this
    /// link's transmitter, geometry and environment — the multi-device
    /// inner loop: the path set (engineered + scatter + extras) is built
    /// once per probe and only the polarization projection runs per
    /// receiver, instead of a full link rebuild per device.
    ///
    /// Element `i` equals `{rx = receivers[i], ..self}.
    /// received_amplitude_with(surface, t)` to within floating-point
    /// reassociation (≪ 1e-12 relative).
    pub fn received_amplitudes_for(
        &self,
        surface: Option<&SurfaceResponse>,
        receivers: &[OrientedAntenna],
        t: Seconds,
    ) -> Vec<Complex> {
        let paths = self.paths_with(surface);
        receivers
            .iter()
            .map(|rx| self.project_onto(&paths, surface, rx, t))
            .collect()
    }

    /// [`Link::received_amplitudes_for`] reduced to received powers in
    /// dBm at `t = 0`.
    pub fn received_dbm_for(
        &self,
        surface: Option<&SurfaceResponse>,
        receivers: &[OrientedAntenna],
    ) -> Vec<Dbm> {
        self.received_amplitudes_for(surface, receivers, Seconds(0.0))
            .into_iter()
            .map(|a| Watts(a.norm_sqr()).to_dbm())
            .collect()
    }

    /// The shared projection core: sums `paths` onto one receive mount.
    /// Every public power/amplitude accessor funnels through here, so
    /// single-receiver and batched evaluation stay in lockstep.
    fn project_onto(
        &self,
        paths: &[Path],
        surface: Option<&SurfaceResponse>,
        rx: &OrientedAntenna,
        t: Seconds,
    ) -> Complex {
        if let Some(surface) = surface {
            debug_assert!(
                surface.frequency().0.to_bits() == self.frequency.0.to_bits(),
                "surface response evaluated at {:?} but the link carrier is {:?}",
                surface.frequency(),
                self.frequency
            );
        }
        let shadow = self.shadow_factor(surface);
        let tx_state = self.tx.polarization();
        let rx_state = rx.polarization();
        let tx_rx = self.deployment.tx_rx_distance().0;
        let mut total = Complex::ZERO;
        for path in paths {
            total += self
                .path_term(path, rx, &tx_state, &rx_state, tx_rx, t.0)
                .contribution(shadow);
        }
        total * self.amp_scale(rx)
    }

    /// Boresight illumination scale: directional antennas apply their
    /// pattern to off-axis scatter per path, but the on-axis gain is a
    /// single factor on the summed amplitude.
    fn amp_scale(&self, rx: &OrientedAntenna) -> f64 {
        (self.tx_power.0 * self.tx.antenna.gain_linear() * rx.antenna.gain_linear()).sqrt()
    }

    /// A deployed transmissive panel shadows near-axis scatter: rays
    /// that would graze the link axis must now cross the panel and
    /// take its through-loss. This is the energy the surface *costs*
    /// an omni link in a rich environment (§5.1.2's low-power omni
    /// discussion). `1.0` when nothing shadows.
    fn shadow_factor<R: ResponseSide>(&self, surface: Option<&R>) -> f64 {
        match (surface, self.deployment.surface) {
            (Some(surface), SurfaceMount::Transmissive { .. }) => {
                surface.shadow(self.tuning.shadow_extra_db)
            }
            _ => 1.0,
        }
    }

    /// One path's projection term onto `rx` at time `t`: the complex
    /// transfer × polarization coupling, the pattern/loss penalty, and
    /// whether the bias-dependent shadow applies. The polarization
    /// states are passed in precomputed (they are per-probe, not
    /// per-path, trigonometry). For bias-independent (static) paths at
    /// `t = 0` the term itself is bias-independent, which is what
    /// [`PreparedLink`] caches; summing [`ProjTerm::contribution`]s in
    /// path order reproduces the direct projection bit for bit.
    fn path_term(
        &self,
        path: &Path,
        rx: &OrientedAntenna,
        tx_state: &rfmath::jones::JonesVector,
        rx_state: &rfmath::jones::JonesVector,
        tx_rx: f64,
        t: f64,
    ) -> ProjTerm {
        let (pen, shadowed) = if path.label == "scatter" {
            // Scatter arrives off-axis: a directional antenna picks
            // it up through its average side response (−10 dB per
            // directional end), an omni at full gain. This is the
            // mechanism behind the Figure 18-vs-19 contrast.
            let tx_pen = match self.tx.antenna.pattern {
                crate::antenna::Pattern::Directional { .. } => 0.316,
                crate::antenna::Pattern::Omni => 1.0,
            };
            let rx_pen = match rx.antenna.pattern {
                crate::antenna::Pattern::Directional { .. } => 0.316,
                crate::antenna::Pattern::Omni => 1.0,
            };
            // Near-axis bounces (small excess length) pass through
            // the panel's aperture and take its loss.
            let near_axis = path.length.0 - tx_rx < 1.5;
            (tx_pen * rx_pen, near_axis)
        } else {
            (self.tuning.surface_loss_amp(path.label), false)
        };
        let out = path.jones.apply(*tx_state);
        let coupled = rx_state.0.dot(out.0);
        ProjTerm {
            k: path.transfer_at(self.frequency, t) * coupled,
            pen,
            shadowed,
        }
    }

    /// Received power in watts at `t = 0`.
    pub fn received_power(&self, surface: Option<&Metasurface>) -> Watts {
        Watts(self.received_amplitude_at(surface, Seconds(0.0)).norm_sqr())
    }

    /// Received power in dBm at `t = 0`.
    pub fn received_dbm(&self, surface: Option<&Metasurface>) -> Dbm {
        self.received_power(surface).to_dbm()
    }

    /// Received power in watts at `t = 0` against a precomputed surface
    /// response.
    pub fn received_power_with(&self, surface: Option<&SurfaceResponse>) -> Watts {
        Watts(
            self.received_amplitude_with(surface, Seconds(0.0))
                .norm_sqr(),
        )
    }

    /// Received power in dBm at `t = 0` against a precomputed surface
    /// response.
    pub fn received_dbm_with(&self, surface: Option<&SurfaceResponse>) -> Dbm {
        self.received_power_with(surface).to_dbm()
    }

    /// Received power time-series sampled at `rate_hz` for `duration`
    /// seconds (used by the sensing pipeline).
    pub fn received_dbm_series(
        &self,
        surface: Option<&Metasurface>,
        rate_hz: f64,
        duration: Seconds,
    ) -> Vec<(Seconds, Dbm)> {
        // The bias is fixed over the series, so one cascade evaluation
        // serves every time sample.
        let response = surface.map(|s| s.response(self.frequency));
        let n = (rate_hz * duration.0).ceil() as usize;
        (0..n)
            .map(|i| {
                let t = Seconds(i as f64 / rate_hz);
                let p = Watts(
                    self.received_amplitude_with(response.as_ref(), t)
                        .norm_sqr(),
                );
                (t, p.to_dbm())
            })
            .collect()
    }

    /// Polarization mismatch between the mounts, degrees.
    pub fn mismatch_deg(&self) -> f64 {
        self.tx.misalignment_with(&self.rx).0
    }
}

/// One path's precomputed projection onto a fixed receive mount: the
/// complex transfer × polarization coupling (`k`), the scalar
/// pattern/loss penalty (`pen`), and whether the bias-dependent
/// transmissive shadow multiplies in. Summing contributions in path
/// order is bit-identical to projecting the paths directly.
#[derive(Clone, Copy, Debug)]
struct ProjTerm {
    k: Complex,
    pen: f64,
    shadowed: bool,
}

impl ProjTerm {
    /// The term's amplitude contribution under the probe's shadow
    /// factor. Replicates the direct projection's operation order
    /// exactly: `(transfer × coupled) × ((tx_pen × rx_pen) × shadow)`.
    fn contribution(&self, shadow: f64) -> Complex {
        let factor = if self.shadowed {
            self.pen * shadow
        } else {
            self.pen
        };
        self.k * factor
    }
}

/// A surface-interacting path's part of the `t = 0` projection that no
/// bias changes: the leg's scalar transfer and its excess-loss penalty.
/// A probe applies only the response's Jones block.
#[derive(Clone, Copy, Debug)]
struct LegTerm {
    transfer: Complex,
    pen: f64,
}

/// Every bias-independent factor of the `t = 0` projection onto the
/// link's own receive mount: both polarization states, the amplitude
/// scale, the direct ray's whole term and the surface legs' transfers.
#[derive(Clone, Copy, Debug)]
struct ProbeConstants {
    tx_state: JonesVector,
    rx_state: JonesVector,
    amp_scale: f64,
    /// The direct ray's term: the only engineered path of a probe with
    /// no response or no mount, and the first of a reflective probe.
    direct: ProjTerm,
    surface: SurfaceLegs<LegTerm>,
}

impl ProbeConstants {
    fn new(link: &Link) -> Self {
        let tx_state = link.tx.polarization();
        let rx_state = link.rx.polarization();
        let direct = link.path_term(
            &direct_path(link.deployment, link.frequency),
            &link.rx,
            &tx_state,
            &rx_state,
            link.deployment.tx_rx_distance().0,
            0.0,
        );
        let surface = SurfaceLegs::new(link.deployment, link.frequency).map(|leg| LegTerm {
            transfer: leg.transfer,
            pen: link.tuning.surface_loss_amp(leg.label),
        });
        Self {
            tx_state,
            rx_state,
            amp_scale: link.amp_scale(&link.rx),
            direct,
            surface,
        }
    }

    /// One surface leg's contribution under `jones`, in the direct
    /// projection's operation order: `(transfer × coupled) × pen`.
    fn leg(&self, leg: LegTerm, jones: JonesMatrix) -> Complex {
        let coupled = self.rx_state.0.dot(jones.apply(self.tx_state).0);
        (leg.transfer * coupled) * leg.pen
    }

    /// Adds the surface-interacting terms under `surface` to `total`, in
    /// [`crate::rays::engineered_paths_into`]'s path order.
    fn add_surface_terms<R: ResponseSide>(&self, surface: &R, total: &mut Complex) {
        self.surface
            .for_each_jones(surface, |leg, jones| *total += self.leg(leg, jones));
    }
}

/// A link with every bias-independent part of its probe precomputed: the
/// fleet engine's per-device probe handle.
///
/// Environment scatter and caller-injected extras never change across a
/// bias sweep, so a fleet scheduler probing hundreds of bias states pays
/// the scatter realization (RNG draws + allocation) once per device
/// instead of once per `(device, bias)` probe. The same holds for the
/// rest of the `t = 0` projection: the static paths' terms, both
/// antenna polarization states, the `√(Ptx·Gtx·Grx)` scale, the direct
/// ray's term and the surface legs' scalar transfers are all computed
/// once per bind ([`PreparedLink::new`], [`PreparedLink::rebind`],
/// [`PreparedLink::rebind_in_place`],
/// [`PreparedLink::with_surface_placement`]). A probe builds no paths:
/// it applies the surface response's Jones blocks to the cached legs,
/// the bias-dependent shadow to the cached terms, and sums in the
/// direct projection's order, so [`PreparedLink::received_dbm_with`] is
/// bit-identical to [`Link::received_dbm_with`] and touches no heap.
#[derive(Clone, Debug)]
pub struct PreparedLink {
    link: Link,
    static_paths: Vec<Path>,
    static_terms: Vec<ProjTerm>,
    scatter_draws: Vec<ScatterDraw>,
    probe: ProbeConstants,
}

impl PreparedLink {
    /// Precomputes the bias-independent paths of `link`.
    pub fn new(link: Link) -> Self {
        let scatter_draws = link.environment.scatter_draws(link.tuning.scatter_xpd_db);
        let mut static_paths = Vec::with_capacity(scatter_draws.len() + link.extra_paths.len());
        link.environment.scatter_paths_from(
            &scatter_draws,
            link.deployment.tx_rx_distance(),
            link.frequency,
            &mut static_paths,
        );
        static_paths.extend(link.extra_paths.iter().cloned());
        Self::from_parts(link, static_paths, scatter_draws)
    }

    /// Assembles a handle around already-realized static paths and
    /// derives its probe cache.
    fn from_parts(link: Link, static_paths: Vec<Path>, scatter_draws: Vec<ScatterDraw>) -> Self {
        let mut prepared = Self {
            probe: ProbeConstants::new(&link),
            link,
            static_paths,
            static_terms: Vec::new(),
            scatter_draws,
        };
        prepared.rebuild_static_terms();
        prepared
    }

    /// Re-derives the cached `t = 0` projection terms from the current
    /// link, probe constants and static paths. Reuses the term vector's
    /// storage, so the steady-state rebind path stays allocation-free
    /// once the capacity has grown to the path-set size.
    fn rebuild_static_terms(&mut self) {
        let Self {
            link,
            static_paths,
            static_terms,
            probe,
            ..
        } = self;
        let tx_rx = link.deployment.tx_rx_distance().0;
        static_terms.clear();
        static_terms.extend(static_paths.iter().map(|path| {
            link.path_term(path, &link.rx, &probe.tx_state, &probe.rx_state, tx_rx, 0.0)
        }));
    }

    /// The underlying link.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Re-targets the engineered geometry at a panel's mounting position
    /// while *reusing* the precomputed bias-independent paths — the
    /// per-panel probe handle of a panel array. Valid because the static
    /// paths (environment scatter + extras) depend only on the endpoint
    /// separation, which panel re-mounting never changes; only the one
    /// or two engineered surface paths move, and those are rebuilt per
    /// probe anyway.
    ///
    /// # Panics
    /// Panics if `deployment` changes the endpoint separation — that
    /// would invalidate the cached scatter realization.
    pub fn with_surface_placement(&self, deployment: Deployment) -> Self {
        assert!(
            deployment.tx_rx_distance().0.to_bits()
                == self.link.deployment.tx_rx_distance().0.to_bits(),
            "panel re-mounting must keep the endpoints fixed: {:?} vs {:?}",
            deployment.tx_rx_distance(),
            self.link.deployment.tx_rx_distance(),
        );
        let mut link = self.link.clone();
        link.deployment = deployment;
        Self::from_parts(link, self.static_paths.clone(), self.scatter_draws.clone())
    }

    /// True when `link`'s bias-independent paths are bit-identical to
    /// this prepared link's cached ones, so a rebind can skip the
    /// scatter re-realization. The cached paths depend only on the
    /// environment (its seed, scatterer count and power), the endpoint
    /// separation, the carrier, the scatter-XPD tuning knob, and any
    /// caller-injected extras — receive-mount rotation, transmit-power
    /// scaling and surface re-mounting all leave them untouched, which
    /// is what makes those the *cheap* mobility moves.
    pub fn static_paths_reusable(&self, link: &Link) -> bool {
        let old = &self.link;
        old.environment == link.environment
            && old.deployment.tx_rx_distance().0.to_bits()
                == link.deployment.tx_rx_distance().0.to_bits()
            && old.frequency.0.to_bits() == link.frequency.0.to_bits()
            && old.tuning.scatter_xpd_db == link.tuning.scatter_xpd_db
            && old.extra_paths.is_empty()
            && link.extra_paths.is_empty()
    }

    /// Re-prepares this handle for an updated link, reusing the cached
    /// bias-independent paths whenever [`PreparedLink::static_paths_reusable`]
    /// holds (a rotated mount, a power/blockage change, a re-mounted
    /// panel) and falling back to a full [`PreparedLink::new`] — fresh
    /// scatter realization included — when the device genuinely moved
    /// (endpoint separation, environment or carrier changed). The
    /// mobility simulator's per-device update path.
    pub fn rebind(&self, link: Link) -> Self {
        if self.static_paths_reusable(&link) {
            Self::from_parts(link, self.static_paths.clone(), self.scatter_draws.clone())
        } else {
            Self::new(link)
        }
    }

    /// True when the cached scatter *draws* — the geometry-independent
    /// random realization — still describe `link`'s environment, so a
    /// genuine move (changed endpoint separation) can replay them at the
    /// new distance instead of re-running the RNG stream. Strictly
    /// weaker than [`PreparedLink::static_paths_reusable`]: the draws
    /// depend only on the environment (seed, scatterer count) and the
    /// scatter-XPD knob, not on the separation or the carrier.
    fn scatter_draws_reusable(&self, link: &Link) -> bool {
        let old = &self.link;
        old.environment == link.environment
            && old.tuning.scatter_xpd_db == link.tuning.scatter_xpd_db
            && old.extra_paths.is_empty()
            && link.extra_paths.is_empty()
    }

    /// [`PreparedLink::rebind`] without constructing a new handle: the
    /// mobility engine's pooled update path. When the cached scatter is
    /// reusable (rotation, power, blockage — the common dirty moves)
    /// this swaps the link in place and touches no heap at all, instead
    /// of cloning the static path vector per rebind; a genuine move
    /// re-realizes the scatter into this handle's storage.
    /// Result is bitwise equal to `*self = self.rebind(link)`.
    pub fn rebind_in_place(&mut self, link: Link) {
        if !self.static_paths_reusable(&link) {
            if self.scatter_draws_reusable(&link) {
                // Genuine move with an unchanged environment: replay the
                // cached draws at the new separation. No RNG, and the
                // path vector's storage is reused — the steady-state
                // mobility tick touches no heap even when devices roam.
                self.static_paths.clear();
                link.environment.scatter_paths_from(
                    &self.scatter_draws,
                    link.deployment.tx_rx_distance(),
                    link.frequency,
                    &mut self.static_paths,
                );
            } else {
                self.static_paths = link.static_paths();
                self.scatter_draws = link.environment.scatter_draws(link.tuning.scatter_xpd_db);
            }
        }
        self.link = link;
        // Rotation, power and re-mounting all perturb the projection
        // geometry even when the ray set survives, so the probe cache is
        // always re-derived (in place — the term table's storage is
        // reused).
        self.probe = ProbeConstants::new(&self.link);
        self.rebuild_static_terms();
    }

    /// Receive-port amplitude at `t = 0` from the probe cache: the
    /// response's Jones blocks applied to the cached surface legs, plus
    /// the cached direct and static terms under the bias-dependent
    /// shadow. Same contributions in the same order as
    /// [`Link::received_amplitude_with`], so bit-identical to it; builds
    /// no paths and touches no heap.
    pub fn received_amplitude(&self, surface: Option<&SurfaceResponse>) -> Complex {
        self.amplitude(surface)
    }

    /// The one probe body behind [`PreparedLink::received_amplitude`] and
    /// [`PreparedLink::received_dbm_factored`]: the same contributions
    /// in the same order, whether the response's factors are derived on
    /// demand or were precomputed.
    fn amplitude<R: ResponseSide>(&self, surface: Option<&R>) -> Complex {
        if let Some(surface) = surface {
            debug_assert!(
                surface.frequency().0.to_bits() == self.link.frequency.0.to_bits(),
                "surface response evaluated at {:?} but the link carrier is {:?}",
                surface.frequency(),
                self.link.frequency
            );
        }
        let probe = &self.probe;
        let shadow = self.link.shadow_factor(surface);
        let mut total = Complex::ZERO;
        if surface.is_none() || !probe.surface.intercepts_direct() {
            total += probe.direct.contribution(shadow);
        }
        if let Some(surface) = surface {
            probe.add_surface_terms(surface, &mut total);
        }
        for term in &self.static_terms {
            total += term.contribution(shadow);
        }
        total * probe.amp_scale
    }

    /// The *surface-scattered* part of the receive-port amplitude at
    /// `t = 0`: only the engineered paths that interact with the
    /// deployed surface are projected. The bias-independent static tail
    /// (environment scatter, caller extras) and a reflective
    /// deployment's direct free-space ray are excluded, and no
    /// transmissive shadow applies — the shadow models what the *home*
    /// panel costs the static field, which a multi-surface superposition
    /// counts exactly once.
    ///
    /// This is the field a *foreign* panel of a panel array leaks toward
    /// this receiver: a coupled sum
    /// ([`crate::coupling::MultiSurfaceField`]) superposes the home
    /// link's full amplitude with each extra panel's scattered term, so
    /// direct and environment energy are never double-counted. `None`
    /// (panel dark / no response) yields exactly `Complex::ZERO`.
    pub fn scattered_amplitude(&self, surface: Option<&SurfaceResponse>) -> Complex {
        let Some(surface) = surface else {
            return Complex::ZERO;
        };
        let mut total = Complex::ZERO;
        self.probe.add_surface_terms(surface, &mut total);
        total * self.probe.amp_scale
    }

    /// Received power in dBm at `t = 0` from the probe cache
    /// ([`PreparedLink::received_amplitude`]); bit-identical to
    /// [`Link::received_dbm_with`] on the wrapped link.
    pub fn received_dbm_with(&self, surface: Option<&SurfaceResponse>) -> Dbm {
        Watts(self.received_amplitude(surface).norm_sqr()).to_dbm()
    }

    /// [`PreparedLink::received_dbm_with`] against a response's
    /// precomputed [`ResponseFactors`] — the batch probe: one set of
    /// factors serves every device a bias is projected onto. Bit-identical
    /// to `received_dbm_with(Some(response))` on the response the factors
    /// came from.
    pub fn received_dbm_factored(&self, factors: &ResponseFactors) -> Dbm {
        Watts(self.amplitude(Some(factors)).norm_sqr()).to_dbm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::antenna::Antenna;
    use metasurface::stack::BiasState;
    use rfmath::units::{Degrees, Meters};

    fn base_link(mismatch_deg: f64) -> Link {
        Link {
            tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
            rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0 - mismatch_deg)),
            frequency: Hertz::from_ghz(2.44),
            tx_power: Watts::from_mw(50.0),
            deployment: Deployment::transmissive_cm(36.0),
            environment: Environment::anechoic(),
            extra_paths: Vec::new(),
            tuning: LinkTuning::default(),
        }
    }

    #[test]
    fn matched_link_beats_mismatched_link() {
        let matched = base_link(0.0);
        let mismatched = base_link(90.0);
        let p_match = matched.received_dbm(None);
        let p_mis = mismatched.received_dbm(None);
        let gap = p_match.0 - p_mis.0;
        assert!(
            (10.0..30.0).contains(&gap),
            "match-vs-mismatch gap = {gap:.1} dB (XPD floor keeps it finite)"
        );
    }

    #[test]
    fn free_space_power_matches_friis() {
        // Matched antennas, no surface: the link budget must equal
        // Ptx + Gtx + Grx − FSPL within the XPD rounding.
        let link = base_link(0.0);
        let p = link.received_dbm(None).0;
        let expected = Watts::from_mw(50.0).to_dbm().0 + 10.0 + 10.0
            - crate::friis::path_loss_db(link.frequency, Meters(0.36)).0;
        assert!((p - expected).abs() < 0.2, "{p:.1} vs {expected:.1} dBm");
    }

    #[test]
    fn surface_rescues_mismatched_link() {
        // The headline result: with the surface biased for rotation, a
        // 90°-mismatched link gains >10 dB (Figure 16).
        let link = base_link(90.0);
        let baseline = link.received_dbm(None);
        let mut surface = Metasurface::llama();
        // Sweep coarsely for the best bias, like the controller would.
        let mut best = f64::NEG_INFINITY;
        for vx in [2.0, 4.0, 6.0, 10.0, 15.0, 30.0] {
            for vy in [2.0, 4.0, 6.0, 10.0, 15.0, 30.0] {
                surface.set_bias(BiasState::new(vx, vy));
                best = best.max(link.received_dbm(Some(&surface)).0);
            }
        }
        let gain = best - baseline.0;
        assert!(
            gain > 8.0,
            "surface should rescue the link: gain = {gain:.1} dB"
        );
    }

    #[test]
    fn surface_bias_changes_received_power() {
        let link = base_link(90.0);
        let mut surface = Metasurface::llama();
        surface.set_bias(BiasState::new(2.0, 2.0));
        let p1 = link.received_dbm(Some(&surface)).0;
        surface.set_bias(BiasState::new(15.0, 2.0));
        let p2 = link.received_dbm(Some(&surface)).0;
        assert!(
            (p1 - p2).abs() > 3.0,
            "bias must matter: {p1:.1} vs {p2:.1}"
        );
    }

    #[test]
    fn multipath_adds_variance_across_seeds() {
        // Omni endpoints pick up the full scatter field (directional
        // panels suppress it by ~20 dB), so per-realization fading is
        // clearly visible on a mismatched link.
        let mut powers = Vec::new();
        for seed in 0..20 {
            let mut link = base_link(90.0);
            link.tx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(90.0));
            link.rx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(0.0));
            link.environment = Environment::laboratory(seed);
            powers.push(link.received_dbm(None).0);
        }
        let spread = rfmath::stats::max(&powers) - rfmath::stats::min(&powers);
        assert!(spread > 3.0, "fading spread = {spread:.1} dB");
    }

    #[test]
    fn time_series_is_static_without_modulation() {
        let link = base_link(45.0);
        let series = link.received_dbm_series(None, 10.0, Seconds(1.0));
        assert_eq!(series.len(), 10);
        let first = series[0].1 .0;
        assert!(series.iter().all(|(_, p)| (p.0 - first).abs() < 1e-9));
    }

    #[test]
    fn batched_receivers_match_per_receiver_links() {
        // Mixed omni/directional mounts in a multipath room: the batched
        // projection must agree with N independent link evaluations.
        let mut link = base_link(90.0);
        link.environment = Environment::laboratory(5);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let receivers = vec![
            OrientedAntenna::new(Antenna::directional_panel(), Degrees(0.0)),
            OrientedAntenna::new(Antenna::directional_panel(), Degrees(55.0)),
            OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(120.0)),
        ];
        let batched = link.received_dbm_for(Some(&response), &receivers);
        for (rx, got) in receivers.iter().zip(&batched) {
            let mut solo = link.clone();
            solo.rx = rx.clone();
            let want = solo.received_dbm_with(Some(&response)).0;
            assert!(
                (got.0 - want).abs() < 1e-12,
                "{}: batched {} vs solo {}",
                rx.orientation.0,
                got.0,
                want
            );
        }
    }

    #[test]
    fn prepared_link_matches_fresh_link() {
        let mut link = base_link(35.0);
        link.environment = Environment::laboratory(9);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let prepared = PreparedLink::new(link.clone());
        assert!(
            (prepared.received_dbm_with(Some(&response)).0
                - link.received_dbm_with(Some(&response)).0)
                .abs()
                < 1e-12
        );
        assert!(
            (prepared.received_dbm_with(None).0 - link.received_dbm_with(None).0).abs() < 1e-12
        );
    }

    #[test]
    fn panel_placement_reuses_scatter_and_matches_fresh_prep() {
        // Re-mounting the surface for a panel must (a) keep the cached
        // scatter bit-identical (same room, same endpoints) and (b)
        // agree exactly with preparing the moved link from scratch.
        let mut link = base_link(60.0);
        link.deployment = Deployment::transmissive_cm(100.0);
        link.environment = Environment::laboratory(11);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let prepared = PreparedLink::new(link.clone());
        let moved = prepared.with_surface_placement(link.deployment.with_surface_fraction(0.2));
        let mut fresh_link = link.clone();
        fresh_link.deployment = link.deployment.with_surface_fraction(0.2);
        let fresh = PreparedLink::new(fresh_link);
        assert!(
            (moved.received_dbm_with(Some(&response)).0
                - fresh.received_dbm_with(Some(&response)).0)
                .abs()
                < 1e-12
        );
        // Moving the panel genuinely changes the physics (the bounce
        // path length tracks the mount point).
        assert!(
            (moved.received_dbm_with(Some(&response)).0
                - prepared.received_dbm_with(Some(&response)).0)
                .abs()
                > 1e-9
        );
    }

    #[test]
    fn rebind_reuses_scatter_for_rotation_and_power_only_changes() {
        let mut link = base_link(20.0);
        link.environment = Environment::laboratory(17);
        let prepared = PreparedLink::new(link.clone());
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);

        // Rotation + power scaling: static paths reusable, and the
        // rebound handle answers exactly like a fresh preparation (the
        // cached scatter IS the fresh scatter — same seed, same room).
        let mut turned = link.clone();
        turned.rx = OrientedAntenna::new(turned.rx.antenna.clone(), Degrees(47.0));
        turned.tx_power = Watts::from_mw(10.0);
        assert!(prepared.static_paths_reusable(&turned));
        let rebound = prepared.rebind(turned.clone());
        let fresh = PreparedLink::new(turned);
        assert_eq!(
            rebound.received_dbm_with(Some(&response)).0,
            fresh.received_dbm_with(Some(&response)).0
        );

        // Moving an endpoint invalidates the cached scatter: the rebind
        // must fall back to a full re-preparation (and still agree with
        // a fresh one).
        let mut walked = link.clone();
        walked.deployment = Deployment::transmissive_cm(50.0);
        assert!(!prepared.static_paths_reusable(&walked));
        let rebound = prepared.rebind(walked.clone());
        let fresh = PreparedLink::new(walked);
        assert_eq!(
            rebound.received_dbm_with(Some(&response)).0,
            fresh.received_dbm_with(Some(&response)).0
        );
    }

    #[test]
    fn rebind_in_place_is_bitwise_equal_to_rebind() {
        let mut link = base_link(20.0);
        link.environment = Environment::laboratory(23);
        let prepared = PreparedLink::new(link.clone());
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);

        // Reusable move (rotation) and a genuine move (endpoint walk):
        // the pooled path must match the allocating one bit for bit.
        let mut turned = link.clone();
        turned.rx = OrientedAntenna::new(turned.rx.antenna.clone(), Degrees(31.0));
        let mut walked = link.clone();
        walked.deployment = Deployment::transmissive_cm(44.0);
        for updated in [turned, walked] {
            let rebound = prepared.rebind(updated.clone());
            let mut pooled = prepared.clone();
            pooled.rebind_in_place(updated);
            assert_eq!(
                pooled.received_dbm_with(Some(&response)).0,
                rebound.received_dbm_with(Some(&response)).0
            );
            assert_eq!(
                pooled.received_dbm_with(None).0,
                rebound.received_dbm_with(None).0
            );
        }
    }

    #[test]
    fn cached_probe_is_bitwise_equal_to_the_path_projection() {
        let mut link = base_link(25.0);
        link.environment = Environment::laboratory(29);
        let prepared = PreparedLink::new(link.clone());
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        for surface in [Some(&response), None] {
            assert_eq!(
                prepared.received_dbm_with(surface).0.to_bits(),
                link.received_dbm_with(surface).0.to_bits()
            );
        }
    }

    #[test]
    fn scattered_amplitude_is_zero_without_a_surface() {
        let mut link = base_link(40.0);
        link.environment = Environment::laboratory(31);
        let amp = PreparedLink::new(link).scattered_amplitude(None);
        assert_eq!(amp.re.to_bits(), 0.0f64.to_bits());
        assert_eq!(amp.im.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn scattered_amplitude_ignores_the_static_tail() {
        // The scattered term projects only the engineered paths, so two
        // links differing only in environment scatter answer bit for
        // bit the same.
        let clean = base_link(40.0);
        let mut busy = clean.clone();
        busy.environment = Environment::laboratory(13);
        let surface = Metasurface::llama();
        let response = surface.response(clean.frequency);
        let a = PreparedLink::new(clean).scattered_amplitude(Some(&response));
        let b = PreparedLink::new(busy).scattered_amplitude(Some(&response));
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }

    #[test]
    fn reflective_scattered_term_is_the_full_field_minus_the_direct_ray() {
        // In absorber, a reflective link's field is direct + specular
        // reflection; the scattered term must recover exactly the
        // reflection's share (to reassociation).
        let mut link = base_link(30.0);
        link.deployment = Deployment::reflective_cm(36.0);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let prepared = PreparedLink::new(link.clone());
        let full = prepared.received_amplitude(Some(&response));
        let direct = prepared.received_amplitude(None);
        let scattered = prepared.scattered_amplitude(Some(&response));
        let resid = full - (direct + scattered);
        assert!(
            resid.abs() < 1e-15,
            "direct + scattered must reassemble the field: residual {resid:?}"
        );
        assert!(scattered.abs() > 0.0, "the surface contributes energy");
    }

    #[test]
    #[should_panic(expected = "endpoints fixed")]
    fn panel_placement_rejects_moved_endpoints() {
        let prepared = PreparedLink::new(base_link(0.0));
        let _ = prepared.with_surface_placement(Deployment::transmissive_cm(99.0));
    }

    #[test]
    fn default_tuning_is_identity() {
        let link = base_link(90.0);
        let mut tuned = link.clone();
        tuned.tuning = LinkTuning::default();
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        assert_eq!(
            link.received_dbm_with(Some(&response)).0,
            tuned.received_dbm_with(Some(&response)).0
        );
    }

    #[test]
    fn excess_loss_attenuates_surface_paths_only() {
        let mut link = base_link(90.0);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let base = link.received_dbm_with(Some(&response)).0;
        let free = link.received_dbm_with(None).0;
        link.tuning.surface_excess_loss_db = 3.0;
        let lossy = link.received_dbm_with(Some(&response)).0;
        // The dominant path crosses once: ≈3 dB down (bounce crosses
        // twice, nudging the exact figure).
        assert!(
            (base - lossy - 3.0).abs() < 1.0,
            "excess loss moved power by {:.2} dB",
            base - lossy
        );
        // No surface, no effect.
        assert_eq!(free, link.received_dbm_with(None).0);
    }

    #[test]
    fn extra_shadow_darkens_near_axis_scatter() {
        let mut link = base_link(90.0);
        link.tx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(90.0));
        link.rx = OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(0.0));
        link.environment = Environment::laboratory(3);
        let surface = Metasurface::llama();
        let response = surface.response(link.frequency);
        let base = link.received_dbm_with(Some(&response)).0;
        link.tuning.shadow_extra_db = 20.0;
        let shadowed = link.received_dbm_with(Some(&response)).0;
        assert!(
            (shadowed - base).abs() > 0.05,
            "shadow knob must move an omni multipath link: {base:.2} vs {shadowed:.2}"
        );
    }

    #[test]
    fn reflective_deployment_sees_surface() {
        let mut link = base_link(90.0);
        link.deployment = Deployment::reflective_cm(36.0);
        let without = link.received_dbm(None).0;
        let surface = Metasurface::llama();
        let with = link.received_dbm(Some(&surface)).0;
        // The folded specular path adds energy the direct mismatched path
        // lacks.
        assert!(
            with > without,
            "reflective surface should help: {with:.1} vs {without:.1} dBm"
        );
    }
}
