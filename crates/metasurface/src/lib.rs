//! # metasurface — the LLAMA programmable polarization rotator
//!
//! The paper's core artifact: a tunable metasurface built from two
//! quarter-wave plates at ±45° around a varactor-tuned birefringent
//! structure (BFS), implemented here as a circuit-level simulation that
//! reproduces the design study of §3.2:
//!
//! * [`geometry`] — the Figure 6 unit-cell dimensions and panel lattice;
//! * [`sheet`] — anisotropic patterned boards as per-axis LC tanks with
//!   dielectric-ESR loss (the FR4-vs-Rogers mechanism);
//! * [`stack`] — multi-board cascades with exact multiple-reflection
//!   accounting, producing the full dual-polarization response;
//! * [`evaluator`] — the batched surface-response engine: per-frequency
//!   compiled cascade plans with separable per-axis caching and
//!   parallel bias-grid evaluation;
//! * [`designs`] — the three §3.2 designs: the Rogers 5880 reference,
//!   the naive FR4 substitution, and LLAMA's optimized FR4 stack
//!   (Figures 8, 9, 10);
//! * [`bias`] — the (Vx, Vy) → rotation-angle map (Table 1), both from
//!   the circuit model and from the paper's published grid;
//! * [`response`] — the deployed-surface API: transmissive and
//!   reflective Jones responses under a bias state;
//! * [`power`] — the 15 nA leakage / buffer-capacitor power model;
//! * [`tables`] — the paper's Table 1 data embedded for comparison;
//! * [`fabrication`] — the $5-per-unit cost model of §4.
//!
//! ## Example: rotate a mismatched wave back into alignment
//!
//! ```
//! use metasurface::response::Metasurface;
//! use metasurface::stack::BiasState;
//! use rfmath::jones::JonesVector;
//! use rfmath::units::Hertz;
//!
//! let mut surface = Metasurface::llama();
//! let f = Hertz::from_ghz(2.44);
//!
//! // A horizontally polarized wave crossing the surface…
//! let probe = JonesVector::horizontal();
//! surface.set_bias(BiasState::new(15.0, 2.0));
//! let rotated = surface.transmission(f).apply(probe);
//!
//! // …comes out rotated by tens of degrees.
//! assert!(rotated.orientation().to_degrees().0.abs() > 20.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bias;
pub mod designs;
pub mod evaluator;
pub mod fabrication;
pub mod geometry;
pub mod power;
pub mod response;
pub mod sheet;
pub mod stack;
pub mod tables;

pub use bias::RotationMap;
pub use designs::{fr4_naive, fr4_optimized, rogers_reference, Design};
pub use evaluator::{PlanCache, SharedPlanCache, StackEvaluator};
pub use response::{Metasurface, ResponseFactors, SurfaceResponse};
pub use stack::{BiasState, SurfaceStack};
