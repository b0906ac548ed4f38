//! Deployment geometry and propagation paths.
//!
//! Mirrors the paper's two experimental setups (Figure 14), promoted
//! from scalar line distances to planar **room coordinates**: the
//! transmitter, receiver and surface mount are [`Point2`] positions, and
//! every path length and illumination angle is *derived* from them.
//!
//! * **Transmissive** — the surface sits between the endpoints; the
//!   dominant path crosses it and picks up the surface's transmission
//!   Jones matrix. A weak antenna↔surface multi-bounce term makes the
//!   optimal bias *distance-dependent*, which is why the paper steps
//!   Tx–Rx spacing in half-wavelength increments (Figure 15). Mounting
//!   the panel off the link axis foreshortens its aperture by the
//!   cosine of the illumination angle.
//! * **Reflective** — both endpoints face the surface from the same
//!   side; the dominant engineered path reflects specularly off the
//!   surface front (image theory over the full Tx→surface→Rx fold),
//!   while a weak direct endpoint-to-endpoint path persists.
//!
//! Each path carries a complex scalar transfer (Friis amplitude + phase)
//! and a Jones matrix describing what it does to polarization. The link
//! layer sums path field contributions coherently.
//!
//! ## Collinear compatibility
//!
//! The legacy scalar constructors ([`Deployment::transmissive_cm`],
//! [`Deployment::reflective_cm`], [`Deployment::with_surface_fraction`])
//! survive as thin wrappers that lay the room out on the x-axis. Their
//! derived path lengths reproduce the pre-coordinate scalar formulas
//! **bit for bit**: axis-aligned distances evaluate as `sqrt(x²) == x`
//! exactly, the reflective fold `|tx−s| + |s−rx|` equals
//! `2·√(d² + (sep/2)²)` exactly (both halves are the same rounded
//! square root, and `x + x` is exact), and the aperture obliquity is
//! exactly `1.0` whenever the mount lies on the link line. This is what
//! keeps [`crate::link::PreparedLink`]'s scatter cache — keyed on the
//! endpoint separation — and every equivalence proptest meaningful
//! across the refactor.

use metasurface::response::{ResponseSide, SurfaceResponse};
use rfmath::complex::Complex;
use rfmath::jones::JonesMatrix;
use rfmath::units::{Degrees, Hertz, Meters};
use rfmath::vec2::Point2;

use crate::friis::field_transfer;

/// Where (and how) the surface hangs in the room.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SurfaceMount {
    /// No surface deployed (baseline measurements).
    None,
    /// The surface intercepts the link between the endpoints (Figure 14,
    /// left); the dominant path crosses it.
    Transmissive {
        /// Mount position in room coordinates, meters.
        position: Point2,
    },
    /// The surface faces both endpoints from one side (Figure 14,
    /// right); the engineered path folds off it specularly.
    Reflective {
        /// Mount position in room coordinates, meters.
        position: Point2,
    },
}

/// Physical placement of endpoints and surface in room coordinates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Deployment {
    /// Transmitter position, meters.
    pub tx: Point2,
    /// Receiver position, meters.
    pub rx: Point2,
    /// Surface mount (kind + position).
    pub surface: SurfaceMount,
}

impl Deployment {
    /// A general room placement from explicit coordinates.
    pub fn room(tx: Point2, rx: Point2, surface: SurfaceMount) -> Self {
        Self { tx, rx, surface }
    }

    /// A transmissive deployment laid out on the x-axis: Tx at the
    /// origin, Rx at `tx_rx`, surface on the line at `surface_fraction`
    /// of the way (clamped to the physical mount range `0.05..0.95`).
    pub fn transmissive(tx_rx: Meters, surface_fraction: f64) -> Self {
        let fraction = surface_fraction.clamp(0.05, 0.95);
        Self {
            tx: Point2::ORIGIN,
            rx: Point2::new(tx_rx.0, 0.0),
            surface: SurfaceMount::Transmissive {
                position: Point2::new(tx_rx.0 * fraction, 0.0),
            },
        }
    }

    /// The paper's default transmissive setup with the surface midway.
    pub fn transmissive_cm(tx_rx_cm: f64) -> Self {
        Self::transmissive(Meters::from_cm(tx_rx_cm), 0.5)
    }

    /// A reflective deployment laid out symmetrically: endpoints at
    /// `(±tx_rx/2, 0)`, surface at `(0, surface_distance)` facing them.
    pub fn reflective(tx_rx: Meters, surface_distance: Meters) -> Self {
        let half = tx_rx.0 / 2.0;
        Self {
            tx: Point2::new(-half, 0.0),
            rx: Point2::new(half, 0.0),
            surface: SurfaceMount::Reflective {
                position: Point2::new(0.0, surface_distance.0),
            },
        }
    }

    /// The paper's reflective setup: 70 cm endpoint separation.
    pub fn reflective_cm(surface_distance_cm: f64) -> Self {
        Self::reflective(Meters::from_cm(70.0), Meters::from_cm(surface_distance_cm))
    }

    /// A baseline (no surface) link on the x-axis.
    pub fn free(tx_rx: Meters) -> Self {
        Self {
            tx: Point2::ORIGIN,
            rx: Point2::new(tx_rx.0, 0.0),
            surface: SurfaceMount::None,
        }
    }

    /// Strips the surface while keeping the endpoints where they are
    /// (baseline measurements at the same spacing).
    pub fn without_surface(self) -> Self {
        Self {
            surface: SurfaceMount::None,
            ..self
        }
    }

    /// Endpoint separation along the direct line.
    pub fn tx_rx_distance(&self) -> Meters {
        Meters(self.tx.distance(self.rx))
    }

    /// Unit direction from Tx toward Rx (`(1, 0)` when the endpoints
    /// coincide).
    pub fn axis(&self) -> Point2 {
        (self.rx - self.tx).unit()
    }

    /// The surface's mount position, if one is deployed.
    pub fn surface_position(&self) -> Option<Point2> {
        match self.surface {
            SurfaceMount::None => None,
            SurfaceMount::Transmissive { position } | SurfaceMount::Reflective { position } => {
                Some(position)
            }
        }
    }

    /// Perpendicular distance from the surface mount to the endpoint
    /// line (the reflective "standoff"; zero for a mount on the link
    /// axis).
    pub fn surface_standoff(&self) -> Option<Meters> {
        let s = self.surface_position()?;
        let sep = self.tx_rx_distance().0;
        if sep == 0.0 {
            return Some(Meters(self.tx.distance(s)));
        }
        Some(Meters(((self.rx - self.tx).cross(s - self.tx) / sep).abs()))
    }

    /// Re-mounts the surface at a different position while keeping the
    /// endpoints fixed — the per-panel geometry adjustment of a panel
    /// array (each panel hangs at its own spot). Transmissive
    /// deployments move the surface to `fraction` of the link line;
    /// reflective ones re-standoff the surface to `fraction` of the
    /// endpoint separation, perpendicular to the link on the side it
    /// already occupies; `None` (no surface) is unchanged. Fractions are
    /// clamped to the physical range `0.05..0.95`.
    pub fn with_surface_fraction(self, fraction: f64) -> Self {
        let fraction = fraction.clamp(0.05, 0.95);
        match self.surface {
            SurfaceMount::None => self,
            SurfaceMount::Transmissive { .. } => Self {
                surface: SurfaceMount::Transmissive {
                    position: self.tx + (self.rx - self.tx) * fraction,
                },
                ..self
            },
            SurfaceMount::Reflective { position } => {
                let foot = (self.tx + self.rx) * 0.5;
                let sep = self.tx_rx_distance().0;
                let side = (self.rx - self.tx).cross(position - foot);
                let n = if side < 0.0 {
                    -self.axis().perp()
                } else {
                    self.axis().perp()
                };
                Self {
                    surface: SurfaceMount::Reflective {
                        position: foot + n * (sep * fraction),
                    },
                    ..self
                }
            }
        }
    }

    /// Moves the surface mount to an absolute room position, keeping its
    /// kind and the endpoints (the 2-D panel re-mounting primitive; a
    /// surface-less deployment is unchanged).
    pub fn with_surface_at(self, position: Point2) -> Self {
        let surface = match self.surface {
            SurfaceMount::None => SurfaceMount::None,
            SurfaceMount::Transmissive { .. } => SurfaceMount::Transmissive { position },
            SurfaceMount::Reflective { .. } => SurfaceMount::Reflective { position },
        };
        Self { surface, ..self }
    }

    /// Moves the receiver to an absolute room position (a device walking
    /// through the room; the transmitter and surface stay put).
    pub fn with_rx_at(self, rx: Point2) -> Self {
        Self { rx, ..self }
    }

    /// Re-scales the endpoint separation to `d` along the current link
    /// axis, keeping Tx fixed. A transmissive surface keeps its
    /// *fractional* station along the link (and any perpendicular
    /// offset); other mounts stay at their absolute position. This is
    /// the legacy `with_distance_cm` semantics for line deployments.
    pub fn with_endpoint_separation(self, d: Meters) -> Self {
        let u = self.axis();
        let old = self.tx_rx_distance().0;
        let rx = self.tx + u * d.0;
        let surface = match self.surface {
            SurfaceMount::Transmissive { position } if old > 0.0 => {
                let rel = position - self.tx;
                let along = rel.dot(u);
                let perp = rel - u * along;
                SurfaceMount::Transmissive {
                    position: self.tx + u * ((along / old) * d.0) + perp,
                }
            }
            other => other,
        };
        Self {
            tx: self.tx,
            rx,
            surface,
        }
    }

    /// Re-standoffs a reflective surface to perpendicular distance `d`
    /// from the endpoint line (keeping its station along the link);
    /// other deployments are unchanged. This is the legacy
    /// `with_distance_cm` semantics for reflective setups, where the
    /// Figure 21/22 x-axis is the surface distance.
    pub fn with_surface_standoff(self, d: Meters) -> Self {
        match self.surface {
            SurfaceMount::Reflective { position } => {
                let u = self.axis();
                let rel = position - self.tx;
                let along = rel.dot(u);
                let side = (self.rx - self.tx).cross(position - self.tx);
                let n = if side < 0.0 { -u.perp() } else { u.perp() };
                Self {
                    surface: SurfaceMount::Reflective {
                        position: self.tx + u * along + n * d.0,
                    },
                    ..self
                }
            }
            _ => self,
        }
    }

    /// Illumination angle at the surface, degrees from boresight
    /// (`None` without a surface).
    ///
    /// * Transmissive: the panel hangs facing the link, so the angle is
    ///   between the Tx→surface ray and the Tx→Rx axis — `0°` for a
    ///   mount on the line.
    /// * Reflective: the panel faces the endpoints' midpoint, so the
    ///   angle is between the surface→Tx ray and that facing normal —
    ///   the half-fold angle `atan(sep / (2·standoff))` for the legacy
    ///   symmetric layout.
    pub fn incidence_deg(&self) -> Option<Degrees> {
        let s = self.surface_position()?;
        let cos = match self.surface {
            SurfaceMount::None => return None,
            SurfaceMount::Transmissive { .. } => cos_between(self.rx - self.tx, s - self.tx),
            SurfaceMount::Reflective { .. } => {
                let foot = (self.tx + self.rx) * 0.5;
                cos_between(foot - s, self.tx - s)
            }
        };
        Some(Degrees(cos.acos().to_degrees()))
    }

    /// Aperture-projection factor a transmissive panel applies to the
    /// wave crossing it: `cos` of the illumination angle, and **exactly
    /// `1.0`** whenever the mount lies on the link line (the collinear
    /// compatibility guarantee). Reflective and surface-less
    /// deployments return `1.0` — the legacy reflective model carries
    /// its obliquity in the fold length itself.
    pub fn aperture_obliquity(&self) -> f64 {
        match self.surface {
            SurfaceMount::Transmissive { position } => {
                cos_between(self.rx - self.tx, position - self.tx)
            }
            _ => 1.0,
        }
    }
}

/// Cosine of the angle between two displacements, clamped to `[−1, 1]`,
/// returning **exactly** `1.0` for same-direction parallel vectors (and
/// for degenerate zero vectors) so collinear layouts stay bit-compatible
/// with the scalar geometry.
fn cos_between(u: Point2, v: Point2) -> f64 {
    if u.cross(v) == 0.0 {
        let d = u.dot(v);
        return if d >= 0.0 { 1.0 } else { -1.0 };
    }
    (u.dot(v) / (u.norm() * v.norm())).clamp(-1.0, 1.0)
}

/// One propagation path: a complex scalar transfer and a polarization
/// transform, plus an optional sinusoidal length modulation (breathing
/// targets).
#[derive(Clone, Debug)]
pub struct Path {
    /// Scalar field transfer (Friis amplitude, propagation phase, and
    /// any reflection losses).
    pub transfer: Complex,
    /// Polarization transform along the path.
    pub jones: JonesMatrix,
    /// Geometric length (for diagnostics).
    pub length: Meters,
    /// Optional sinusoidal path-length modulation: `(amplitude_m, rate_hz,
    /// phase_rad)`. The link layer turns this into a time-varying phase.
    pub modulation: Option<(f64, f64, f64)>,
    /// Debug label.
    pub label: &'static str,
}

impl Path {
    /// Transfer evaluated at time `t`, including length modulation.
    pub fn transfer_at(&self, f: Hertz, t: f64) -> Complex {
        match self.modulation {
            None => self.transfer,
            Some((amp_m, rate_hz, phase)) => {
                let dl = amp_m * (std::f64::consts::TAU * rate_hz * t + phase).sin();
                // Extra path length → extra propagation phase and a tiny
                // amplitude change (negligible; phase dominates).
                self.transfer * Complex::cis(-f.wavenumber() * dl)
            }
        }
    }
}

/// Fraction of the antenna-facing wave re-scattered back toward the
/// surface by the antenna fixture (sets the strength of the
/// surface↔antenna standing-wave term). Empirically small.
pub const ANTENNA_RESCATTER: f64 = 0.35;

/// The direct endpoint-to-endpoint path: no surface interaction.
pub(crate) fn direct_path(deployment: Deployment, f: Hertz) -> Path {
    let tx_rx = deployment.tx_rx_distance();
    Path {
        transfer: field_transfer(f, tx_rx),
        jones: JonesMatrix::identity(),
        length: tx_rx,
        modulation: None,
        label: "direct",
    }
}

/// The bias-independent half of one surface-interacting path: its scalar
/// field transfer (Friis amplitude and propagation phase, with the
/// aperture obliquity and antenna re-scatter already applied), its
/// length and its label. Pairing a leg with the surface's Jones block
/// gives the [`Path`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Leg {
    /// Scalar field transfer.
    pub transfer: Complex,
    /// Geometric length.
    pub length: Meters,
    /// The path's label.
    pub label: &'static str,
}

impl Leg {
    fn path(self, jones: JonesMatrix) -> Path {
        Path {
            transfer: self.transfer,
            jones,
            length: self.length,
            modulation: None,
            label: self.label,
        }
    }
}

/// The surface-interacting legs of a deployment, by how the mount makes
/// the wave meet the surface. All the geometry of the engineered paths
/// lives here and in [`direct_path`]: [`engineered_paths_into`] pairs the
/// legs with a response's Jones blocks per call, and
/// [`crate::link::PreparedLink`] computes them once per bind (mapping
/// each [`Leg`] to its cached projection factors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum SurfaceLegs<L = Leg> {
    /// No surface mounted: the direct ray alone reaches the receiver.
    None,
    /// The through-surface main path and the antenna↔surface bounce
    /// (no separate direct ray: the surface intercepts it).
    Transmissive {
        /// Crosses the surface once.
        main: L,
        /// Reflects off the surface front, re-scatters off the Tx
        /// antenna and crosses the surface.
        bounce: L,
    },
    /// The specular fold off the surface front, next to the direct ray.
    Reflective {
        /// Tx → surface → Rx.
        fold: L,
    },
}

impl<L: Copy> SurfaceLegs<L> {
    /// True when the surface intercepts the direct ray (a transmissive
    /// mount): the path set then has no separate direct path.
    pub fn intercepts_direct(&self) -> bool {
        matches!(self, Self::Transmissive { .. })
    }

    /// Calls `f` on every leg, in path order, with the Jones block
    /// `surface` applies along it ([`ResponseSide`] has the blocks).
    pub fn for_each_jones<R: ResponseSide>(&self, surface: &R, mut f: impl FnMut(L, JonesMatrix)) {
        match *self {
            Self::None => {}
            Self::Transmissive { main, bounce } => {
                let (trans, through_bounce) = surface.transmissive_blocks();
                f(main, trans);
                f(bounce, through_bounce);
            }
            Self::Reflective { fold } => f(fold, surface.reflective_block()),
        }
    }

    /// Applies `f` to every leg, keeping the mount kind.
    pub fn map<M>(self, f: impl Fn(L) -> M) -> SurfaceLegs<M> {
        match self {
            Self::None => SurfaceLegs::None,
            Self::Transmissive { main, bounce } => SurfaceLegs::Transmissive {
                main: f(main),
                bounce: f(bounce),
            },
            Self::Reflective { fold } => SurfaceLegs::Reflective { fold: f(fold) },
        }
    }
}

impl SurfaceLegs {
    /// Derives the surface legs of `deployment` at carrier `f` from the
    /// room coordinates.
    pub fn new(deployment: Deployment, f: Hertz) -> Self {
        let tx_rx = deployment.tx_rx_distance();
        match deployment.surface {
            SurfaceMount::None => Self::None,
            SurfaceMount::Transmissive { position } => {
                // Tx→surface leg: sets the standing-wave round trip. For
                // an off-axis mount the panel aperture is foreshortened
                // by the illumination cosine (exactly 1 on the link line).
                let d1 = Meters(deployment.tx.distance(position));
                let obliquity = deployment.aperture_obliquity();
                // One surface→antenna→surface bounce: the wave reflected
                // from the surface front travels back 2·d1 (picking up
                // the antenna's re-scatter) and crosses again. This is
                // the term that drags the optimum bias with distance.
                let bounce_length = Meters(tx_rx.0 + 2.0 * d1.0);
                Self::Transmissive {
                    main: Leg {
                        transfer: field_transfer(f, tx_rx) * obliquity,
                        length: tx_rx,
                        label: "through-surface",
                    },
                    bounce: Leg {
                        transfer: field_transfer(f, bounce_length) * ANTENNA_RESCATTER * obliquity,
                        length: bounce_length,
                        label: "antenna-surface bounce",
                    },
                }
            }
            SurfaceMount::Reflective { position } => {
                // Specular fold: Tx → surface → Rx, image theory over the
                // coordinate-derived legs (for the legacy symmetric
                // layout this is exactly 2·√(d² + (sep/2)²)).
                let fold =
                    Meters(deployment.tx.distance(position) + position.distance(deployment.rx));
                Self::Reflective {
                    fold: Leg {
                        transfer: field_transfer(f, fold),
                        length: fold,
                        label: "surface-reflection",
                    },
                }
            }
        }
    }
}

/// Enumerates the engineered (deterministic) paths for a deployment,
/// with every length and angle derived from the room coordinates.
///
/// Takes the surface's precomputed [`SurfaceResponse`] at the carrier
/// (one cascade evaluation serves both the transmissive and reflective
/// Jones blocks), so grid sweeps can evaluate the surface once per bias
/// state and rebuild paths cheaply. Environment scattering (multipath)
/// is added separately by [`crate::environment`].
pub fn engineered_paths(
    deployment: Deployment,
    surface: Option<&SurfaceResponse>,
    f: Hertz,
) -> Vec<Path> {
    let mut paths = Vec::with_capacity(2);
    engineered_paths_into(deployment, surface, f, &mut paths);
    paths
}

/// [`engineered_paths`] appending into a caller-owned buffer, so a
/// caller can assemble a full path set in one allocation. Does not
/// clear `out`; pushes the same paths in the same order as
/// [`engineered_paths`].
pub fn engineered_paths_into(
    deployment: Deployment,
    surface: Option<&SurfaceResponse>,
    f: Hertz,
    out: &mut Vec<Path>,
) {
    if let Some(surface) = surface {
        debug_assert!(
            surface.frequency().0.to_bits() == f.0.to_bits(),
            "surface response evaluated at {:?} but paths requested at {f:?}",
            surface.frequency()
        );
    }
    let legs = match surface {
        Some(_) => SurfaceLegs::new(deployment, f),
        None => SurfaceLegs::None,
    };
    if !legs.intercepts_direct() {
        out.push(direct_path(deployment, f));
    }
    if let Some(surface) = surface {
        legs.for_each_jones(surface, |leg, jones| out.push(leg.path(jones)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metasurface::response::Metasurface;
    use metasurface::stack::BiasState;

    const F: Hertz = Hertz(2.44e9);

    #[test]
    fn free_deployment_has_single_identity_path() {
        let paths = engineered_paths(Deployment::free(Meters(0.36)), None, F);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].label, "direct");
        assert!((paths[0].jones.0.max_abs_diff(rfmath::Mat2::IDENTITY)) < 1e-12);
    }

    #[test]
    fn transmissive_paths_include_bounce() {
        let surface = Metasurface::llama();
        let paths = engineered_paths(
            Deployment::transmissive_cm(36.0),
            Some(&surface.response(F)),
            F,
        );
        assert_eq!(paths.len(), 2);
        // The bounce is substantially weaker than the main path.
        assert!(paths[1].transfer.abs() < paths[0].transfer.abs());
    }

    #[test]
    fn bounce_length_tracks_surface_position() {
        let surface = Metasurface::llama();
        let response = surface.response(F);
        let near = engineered_paths(
            Deployment::transmissive(Meters(0.6), 0.2),
            Some(&response),
            F,
        );
        let far = engineered_paths(
            Deployment::transmissive(Meters(0.6), 0.8),
            Some(&response),
            F,
        );
        assert!(near[1].length.0 < far[1].length.0);
    }

    #[test]
    fn collinear_lengths_reproduce_the_scalar_formulas_exactly() {
        // The bit-compatibility contract: legacy constructors must
        // derive the pre-coordinate scalar path lengths exactly.
        let surface = Metasurface::llama();
        let response = surface.response(F);
        for (d, frac) in [(0.36, 0.5), (0.6, 0.2), (1.07, 0.83), (3.0, 0.5)] {
            let paths = engineered_paths(
                Deployment::transmissive(Meters(d), frac),
                Some(&response),
                F,
            );
            let d1 = d * frac.clamp(0.05, 0.95);
            assert_eq!(paths[0].length.0.to_bits(), d.to_bits());
            assert_eq!(paths[1].length.0.to_bits(), (d + 2.0 * d1).to_bits());
            // The obliquity of an on-axis mount is exactly 1.
            assert_eq!(
                Deployment::transmissive(Meters(d), frac).aperture_obliquity(),
                1.0
            );
        }
        for (sep, sd) in [(0.70, 0.30), (0.70, 0.36), (1.4, 0.9)] {
            let paths = engineered_paths(
                Deployment::reflective(Meters(sep), Meters(sd)),
                Some(&response),
                F,
            );
            let half = sep / 2.0;
            let fold = 2.0 * (sd * sd + half * half).sqrt();
            assert_eq!(paths[1].length.0.to_bits(), fold.to_bits());
            assert_eq!(paths[0].length.0.to_bits(), sep.to_bits());
        }
    }

    #[test]
    fn reflective_fold_length_is_geometric() {
        let surface = Metasurface::llama();
        let paths = engineered_paths(
            Deployment::reflective_cm(30.0),
            Some(&surface.response(F)),
            F,
        );
        let expected = 2.0 * (0.30f64 * 0.30 + 0.35 * 0.35).sqrt();
        assert!((paths[1].length.0 - expected).abs() < 1e-12);
    }

    #[test]
    fn surface_fraction_moves_the_panel_not_the_endpoints() {
        let d = Deployment::transmissive_cm(60.0).with_surface_fraction(0.25);
        assert_eq!(d.tx_rx_distance(), Meters(0.60));
        let s = d.surface_position().expect("transmissive keeps its mount");
        assert!((s.x - 0.15).abs() < 1e-12 && s.y == 0.0);
        // Fractions are clamped into the physical mount range.
        let clamped = Deployment::transmissive_cm(60.0).with_surface_fraction(2.0);
        let s = clamped.surface_position().unwrap();
        assert!((s.x - 0.57).abs() < 1e-12, "clamped to 0.95 of the line");
        // Free deployments have no surface to move.
        let free = Deployment::free(Meters(1.0)).with_surface_fraction(0.3);
        assert_eq!(free, Deployment::free(Meters(1.0)));
    }

    #[test]
    fn without_surface_strips_surface() {
        let d = Deployment::reflective_cm(30.0).without_surface();
        assert_eq!(d.surface, SurfaceMount::None);
        assert_eq!(d.tx_rx_distance(), Meters(0.70));
    }

    #[test]
    fn off_axis_mount_foreshortens_the_aperture() {
        // Hang the panel 30° off the link line: the obliquity drops to
        // cos(30°) and the through path weakens accordingly.
        let on_axis = Deployment::transmissive_cm(100.0);
        let off_axis = on_axis.with_surface_at(Point2::new(0.5, 0.5 / 3f64.sqrt()));
        let angle = off_axis.incidence_deg().unwrap().0;
        assert!((angle - 30.0).abs() < 1e-6, "angle = {angle}");
        assert!((off_axis.aperture_obliquity() - (30f64.to_radians()).cos()).abs() < 1e-9);
        let surface = Metasurface::llama();
        let response = surface.response(F);
        let p_on = engineered_paths(on_axis, Some(&response), F);
        let p_off = engineered_paths(off_axis, Some(&response), F);
        assert!(p_off[0].transfer.abs() < p_on[0].transfer.abs());
        // And the bounce leg is longer (the mount is farther from Tx).
        assert!(p_off[1].length.0 > p_on[1].length.0);
    }

    #[test]
    fn incidence_is_boresight_on_the_line_and_half_fold_reflectively() {
        let t = Deployment::transmissive_cm(36.0);
        assert_eq!(t.incidence_deg().unwrap().0, 0.0);
        let r = Deployment::reflective(Meters(0.70), Meters(0.35));
        // Half-fold angle: atan(sep / (2·standoff)) = atan(1) = 45°.
        assert!((r.incidence_deg().unwrap().0 - 45.0).abs() < 1e-9);
        assert_eq!(Deployment::free(Meters(1.0)).incidence_deg(), None);
    }

    #[test]
    fn endpoint_separation_rescale_keeps_the_surface_fraction() {
        let d = Deployment::transmissive(Meters(0.6), 0.25).with_endpoint_separation(Meters(1.2));
        assert_eq!(d.tx_rx_distance().0.to_bits(), 1.2f64.to_bits());
        let s = d.surface_position().unwrap();
        assert!((s.x - 0.3).abs() < 1e-12, "fraction preserved: {}", s.x);
    }

    #[test]
    fn surface_standoff_roundtrips() {
        let d = Deployment::reflective_cm(30.0).with_surface_standoff(Meters(0.48));
        assert!((d.surface_standoff().unwrap().0 - 0.48).abs() < 1e-12);
        assert_eq!(d.tx_rx_distance(), Meters(0.70));
        // The mount stays on its original side of the link line.
        assert!(d.surface_position().unwrap().y > 0.0);
    }

    #[test]
    fn reflective_bias_changes_reflection_less_than_transmission() {
        // §5.2: voltage dependence is much flatter reflectively.
        // What matters is the power a *mismatched receiver* collects:
        // project the path output onto the orthogonal receive state.
        let probe = rfmath::jones::JonesVector::vertical();
        let rx = rfmath::jones::JonesVector::horizontal();
        let spread = |dep: Deployment, idx: usize| {
            let mut surface = Metasurface::llama();
            let mut powers = Vec::new();
            for (vx, vy) in [(2.0, 2.0), (2.0, 15.0), (15.0, 2.0)] {
                surface.set_bias(BiasState::new(vx, vy));
                let paths = engineered_paths(dep, Some(&surface.response(F)), F);
                let out = paths[idx].jones.apply(probe);
                let coupled = rx.0.dot(out.0).norm_sqr();
                powers.push(coupled * paths[idx].transfer.norm_sqr());
            }
            let hi = powers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min);
            hi / lo.max(1e-30)
        };
        let trans_spread = spread(Deployment::transmissive_cm(36.0), 0);
        let refl_spread = spread(Deployment::reflective_cm(36.0), 1);
        assert!(
            trans_spread > refl_spread,
            "transmissive spread {trans_spread:.2}× vs reflective {refl_spread:.2}×"
        );
    }

    #[test]
    fn modulated_path_phase_oscillates() {
        let mut p = engineered_paths(Deployment::free(Meters(2.0)), None, F)
            .pop()
            .unwrap();
        p.modulation = Some((0.005, 0.25, 0.0));
        let t0 = p.transfer_at(F, 0.0);
        let t1 = p.transfer_at(F, 1.0); // quarter period: max displacement
        assert!((t0 - t1).abs() > 1e-6, "breathing must modulate the phase");
        // Magnitude is untouched.
        assert!((t0.abs() - t1.abs()).abs() < 1e-12);
    }
}
