//! # control — the LLAMA control plane
//!
//! Everything between a receiver's power reports and the metasurface's
//! bias rails:
//!
//! * [`scpi`] — the SCPI command dialect the programmable supply speaks;
//! * [`psu`] — the Tektronix 2230G model: two 0–30 V rails, a 50 Hz
//!   switching budget, settling, and leakage metering;
//! * [`sweep`] — Algorithm 1, the coarse-to-fine (N, T) bias search that
//!   turns a ~30 s full scan into ~1 s: one round-driven [`GridSearch`],
//!   cold or warm, that every sweep caller drives;
//! * [`sync`] — Eq. (13) sample-to-voltage-state labeling and the
//!   clock-offset estimator that replaces a dedicated sync device;
//! * [`estimator`] — the §3.4 turntable procedure measuring how many
//!   degrees the surface actually rotated the wave;
//! * [`controller`] — the centralized state machine that ties it all
//!   together, stepping a [`GridSearch`] on asynchronous reports, with
//!   report-loss recovery and an audit log;
//! * [`server`] — the many-fleet front: one job cursor and a scoped
//!   worker pool (the calling thread among them) multiplexing many
//!   per-fleet optimizations under one controller process, with the
//!   controller's corrupt-report admission rule.
//!
//! ```
//! use control::sweep::{coarse_to_fine, SweepConfig};
//!
//! // Algorithm 1 on a synthetic power surface peaking at (17 V, 8 V).
//! let outcome = coarse_to_fine(&SweepConfig::paper_default(), |p| {
//!     -((p.vx.0 - 17.0).powi(2) + (p.vy.0 - 8.0).powi(2))
//! });
//! assert!((outcome.best.vx.0 - 17.0).abs() < 2.0);
//! // The paper's N = 2, T = 5 search costs 50 probes ≈ 1 s at 50 Hz.
//! assert_eq!(outcome.probes, 50);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod controller;
pub mod estimator;
pub mod psu;
pub mod scpi;
pub mod server;
pub mod sweep;
pub mod sync;

pub use controller::{Controller, Event, Phase, PowerReport, RetryPolicy};
pub use estimator::{estimate_rotation, RotationEstimate, RotationRig};
pub use psu::{PowerSupply, PsuError, Reply};
pub use server::{FleetServer, JobError, ServeStats};
pub use sweep::{
    coarse_to_fine, coarse_to_fine_multi, GridSearch, Probe, SweepConfig, SweepOutcome, WarmConfig,
};
pub use sync::{estimate_offset, label_samples, BiasSchedule};
