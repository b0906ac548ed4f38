//! # propagation — the radio environment around the surface
//!
//! Everything between the endpoint antennas: antenna models with finite
//! cross-polarization purity, Friis free-space budgets, the paper's two
//! deployment geometries (through-surface and surface-reflective,
//! Figure 14), anechoic and laboratory environments, receiver noise,
//! Shannon capacity, and the USRP-style complex-baseband measurement
//! chain.
//!
//! The core abstraction is the [`link::Link`]: a coherent sum of
//! propagation [`rays::Path`]s, each carrying a complex transfer and a
//! Jones polarization transform. The metasurface enters as just another
//! element along a path — exactly how the physical world composes.
//!
//! ```
//! use propagation::antenna::{Antenna, OrientedAntenna};
//! use propagation::environment::Environment;
//! use propagation::link::Link;
//! use propagation::rays::Deployment;
//! use rfmath::units::{Degrees, Hertz, Watts};
//!
//! // The paper's mismatched USRP link, 36 cm apart, in absorber.
//! let mismatched = Link {
//!     tx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0)),
//!     rx: OrientedAntenna::new(Antenna::directional_panel(), Degrees(0.0)),
//!     frequency: Hertz::from_ghz(2.44),
//!     tx_power: Watts::from_mw(50.0),
//!     deployment: Deployment::transmissive_cm(36.0),
//!     environment: Environment::anechoic(),
//!     extra_paths: Vec::new(),
//!     tuning: Default::default(),
//! };
//! let mut matched = mismatched.clone();
//! matched.rx = OrientedAntenna::new(Antenna::directional_panel(), Degrees(90.0));
//!
//! // Polarization mismatch costs 10-20 dB (the Figure 2 effect).
//! let gap = matched.received_dbm(None).0 - mismatched.received_dbm(None).0;
//! assert!(gap > 10.0, "mismatch penalty = {gap:.1} dB");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod antenna;
pub mod capacity;
pub mod coupling;
pub mod environment;
pub mod friis;
pub mod link;
pub mod noise;
pub mod rays;
pub mod signal;

pub use antenna::{Antenna, OrientedAntenna, Pattern};
pub use coupling::{CouplingConfig, MultiSurfaceField};
pub use environment::Environment;
pub use link::{Link, LinkTuning, PreparedLink, ResponseFactors};
pub use noise::NoiseModel;
pub use rays::{Deployment, Path};
pub use signal::{rssi_reading, Capture};
