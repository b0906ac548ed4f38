//! The prepared-probe contracts.
//!
//! * **Equivalence:** a [`PreparedLink`]'s cached probe must be *bitwise*
//!   equal to the reference [`Link::received_dbm_with`] on every surface
//!   mount (none, collinear and off-axis transmissive, reflective), with
//!   and without a surface response, under non-default [`LinkTuning`],
//!   with caller-injected extra paths, and after a panel re-mount.
//! * **Arena rebind:** a handle driven through any sequence of in-place
//!   rebinds — cheap moves (rotation, transmit power), genuine moves
//!   (endpoint separation), and environment swaps (new scatter seed) —
//!   must be bitwise indistinguishable from a fresh
//!   [`PreparedLink::new`] of the final link. The mobility engine leans
//!   on this to reuse one pooled handle per device across every tick
//!   instead of reallocating paths, draws and projection terms.

use metasurface::response::SurfaceResponse;
use metasurface::stack::BiasState;
use propagation::antenna::{Antenna, OrientedAntenna};
use propagation::environment::Environment;
use propagation::link::{Link, LinkTuning, PreparedLink};
use propagation::rays::{Deployment, Path};
use proptest::prelude::*;
use rfmath::complex::Complex;
use rfmath::jones::JonesMatrix;
use rfmath::units::{Degrees, Hertz, Meters, Watts};
use rfmath::vec2::Point2;

fn link(mismatch_deg: f64, tx_rx_cm: f64, env: Environment, power_mw: f64) -> Link {
    Link {
        tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
        rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0 - mismatch_deg)),
        frequency: Hertz::from_ghz(2.44),
        tx_power: Watts::from_mw(power_mw),
        deployment: Deployment::transmissive_cm(tx_rx_cm),
        environment: env,
        extra_paths: Vec::new(),
        tuning: LinkTuning::default(),
    }
}

/// One step of a device trajectory, as the mobility engine sees it.
#[derive(Clone, Debug)]
enum Move {
    /// Receive-mount rotation: the cached paths survive untouched.
    Rotate(f64),
    /// Transmit-power change: cached paths survive untouched.
    Power(f64),
    /// Genuine move: new separation, same environment — the cached
    /// scatter draws replay at the new distance.
    Walk(f64),
    /// Environment swap: a new scatter seed forces a full redraw.
    Reseed(u64),
}

fn moves() -> BoxedStrategy<Vec<Move>> {
    prop::collection::vec(
        prop_oneof![
            (-60.0f64..60.0).prop_map(Move::Rotate),
            (1.0f64..200.0).prop_map(Move::Power),
            (20.0f64..120.0).prop_map(Move::Walk),
            (0u64..32).prop_map(Move::Reseed),
        ],
        1..8,
    )
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After every in-place rebind along a random trajectory, the
    /// pooled handle's surface-off and surface-on probes are bitwise
    /// equal to a freshly constructed handle of the same link.
    #[test]
    fn arena_rebind_is_bitwise_fresh_construction(
        mismatch in -45.0f64..45.0,
        tx_rx_cm in 20.0f64..120.0,
        seed in 0u64..32,
        steps in moves(),
    ) {
        let design = metasurface::designs::fr4_optimized();
        let f = Hertz::from_ghz(2.44);
        let surface = SurfaceResponse::new(
            f,
            design.stack.response(f, BiasState::new(6.0, 6.0)),
        );
        let start = link(mismatch, tx_rx_cm, Environment::laboratory(seed), 50.0);
        let mut pooled = PreparedLink::new(start.clone());
        let mut current = start;
        for step in steps {
            match step {
                Move::Rotate(deg) => {
                    current.rx =
                        OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0 - deg));
                }
                Move::Power(mw) => current.tx_power = Watts::from_mw(mw),
                Move::Walk(cm) => {
                    current.deployment = current
                        .deployment
                        .with_endpoint_separation(Meters(cm / 100.0));
                }
                Move::Reseed(s) => current.environment = Environment::laboratory(s),
            }
            pooled.rebind_in_place(current.clone());
            let fresh = PreparedLink::new(current.clone());
            for response in [None, Some(&surface)] {
                let a = pooled.received_dbm_with(response).0;
                let b = fresh.received_dbm_with(response).0;
                let c = current.received_dbm_with(response).0;
                prop_assert!(
                    a.to_bits() == b.to_bits() && b.to_bits() == c.to_bits(),
                    "pooled {a} vs fresh {b} vs link {c} after {:?}",
                    response.map(|_| "surface")
                );
            }
        }
    }
}

/// Where the surface hangs, as a fraction of the endpoint separation.
#[derive(Clone, Copy, Debug)]
enum Mount {
    /// No surface deployed.
    None,
    /// Transmissive, on the link line at this fraction.
    Collinear(f64),
    /// Transmissive, off the line: `(along, across)` fractions.
    OffAxis(f64, f64),
    /// Reflective, at this standoff fraction.
    Reflective(f64),
}

impl Mount {
    fn deployment(self, tx_rx: Meters) -> Deployment {
        match self {
            Mount::None => Deployment::free(tx_rx),
            Mount::Collinear(frac) => Deployment::transmissive(tx_rx, frac),
            Mount::OffAxis(along, across) => Deployment::transmissive(tx_rx, 0.5)
                .with_surface_at(Point2::new(along * tx_rx.0, across * tx_rx.0)),
            Mount::Reflective(standoff) => {
                Deployment::reflective(tx_rx, Meters(standoff * tx_rx.0))
            }
        }
    }
}

fn mounts() -> BoxedStrategy<Mount> {
    prop_oneof![
        Just(Mount::None),
        (0.05f64..0.95).prop_map(Mount::Collinear),
        ((0.1f64..0.9), (0.05f64..0.6)).prop_map(|(along, across)| Mount::OffAxis(along, across)),
        (0.1f64..1.5).prop_map(Mount::Reflective),
    ]
    .boxed()
}

/// Default tuning, or every knob moved off its default.
fn tunings() -> BoxedStrategy<LinkTuning> {
    prop_oneof![
        Just(LinkTuning::default()),
        ((-3.0f64..6.0), (0.5f64..20.0), (5.0f64..30.0)).prop_map(|(loss, shadow, xpd)| {
            LinkTuning {
                surface_excess_loss_db: loss,
                scatter_xpd_db: Some(xpd),
                shadow_extra_db: shadow,
            }
        }),
    ]
    .boxed()
}

fn antennas() -> BoxedStrategy<OrientedAntenna> {
    prop_oneof![
        (-90.0f64..90.0)
            .prop_map(|deg| OrientedAntenna::new(Antenna::directional_panel(), Degrees(deg))),
        (-90.0f64..90.0).prop_map(|deg| OrientedAntenna::new(Antenna::omni_6dbi(), Degrees(deg))),
    ]
    .boxed()
}

fn environments() -> BoxedStrategy<Environment> {
    prop_oneof![
        Just(Environment::anechoic()),
        (0u64..32).prop_map(Environment::laboratory),
    ]
    .boxed()
}

/// A breathing-target-like extra path: modulated, so its `t = 0`
/// transfer differs from the static one.
fn extra_paths() -> BoxedStrategy<Vec<Path>> {
    prop_oneof![
        Just(Vec::new()),
        (0.0f64..std::f64::consts::TAU).prop_map(|phase| vec![Path {
            transfer: Complex::new(2e-3, -1e-3),
            jones: JonesMatrix::identity(),
            length: Meters(1.3),
            modulation: Some((0.005, 0.25, phase)),
            label: "human-direct",
        }]),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The cached probe equals the reference link projection bit for bit
    /// on every mount, with and without a response, under any tuning —
    /// fresh, re-mounted, and rebound in place from another mount.
    #[test]
    fn prepared_probe_is_bitwise_the_link_projection(
        mount in mounts(),
        tx_rx_cm in 20.0f64..300.0,
        tuning in tunings(),
        endpoints in (antennas(), antennas()),
        environment in environments(),
        extras in extra_paths(),
        bias in (0.0f64..30.0, 0.0f64..30.0),
        remount in 0.1f64..0.9,
    ) {
        let design = metasurface::designs::fr4_optimized();
        let f = Hertz::from_ghz(2.44);
        let surface = SurfaceResponse::new(f, design.stack.response(f, BiasState::new(bias.0, bias.1)));
        let link = Link {
            tx: endpoints.0,
            rx: endpoints.1,
            frequency: f,
            tx_power: Watts::from_mw(50.0),
            deployment: mount.deployment(Meters(tx_rx_cm / 100.0)),
            environment,
            extra_paths: extras,
            tuning,
        };
        let prepared = PreparedLink::new(link.clone());
        let mut moved = link.clone();
        moved.deployment = link.deployment.with_surface_fraction(remount);
        let remounted = prepared.with_surface_placement(moved.deployment);
        let mut pooled = PreparedLink::new(Link {
            deployment: Mount::Collinear(0.5).deployment(Meters(0.5)),
            ..link.clone()
        });
        pooled.rebind_in_place(link.clone());
        for response in [None, Some(&surface)] {
            let want = link.received_dbm_with(response).0;
            for (arm, got) in [
                ("fresh", prepared.received_dbm_with(response).0),
                ("by paths", prepared.received_dbm_by_paths(response).0),
                ("rebound", pooled.received_dbm_with(response).0),
            ] {
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "{arm} {got} vs link {want} on {mount:?}, surface {}",
                    response.is_some()
                );
            }
            let got = remounted.received_dbm_with(response).0;
            let want = moved.received_dbm_with(response).0;
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "re-mounted {got} vs link {want} on {mount:?}, surface {}",
                response.is_some()
            );
        }
    }
}
