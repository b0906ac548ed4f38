//! Batched surface-response engine: separable caching over the
//! `(frequency, bias)` plane.
//!
//! [`SurfaceStack::response`] rebuilds every stage of the cascade —
//! air gaps, fixed quarter-wave boards, tuned birefringent boards — for
//! each `(f, bias)` probe, even though most of that work is separable:
//!
//! * air gaps and fixed panels depend only on `f`;
//! * a tuned panel's X branch depends only on `(f, vx)` and its Y branch
//!   only on `(f, vy)`.
//!
//! [`StackEvaluator`] exploits that structure. Construction (per
//! frequency) converts every bias-independent stage to wave-transfer
//! form once and pre-multiplies maximal static runs, so a probe at a new
//! bias only evaluates the tuned branches (memoized per voltage) and a
//! handful of block multiplies. A `T×T` bias heatmap therefore costs
//! `O(T)` per-axis ABCD evaluations instead of `O(T²)` full cascade
//! rebuilds, and [`StackEvaluator::eval_grid`] additionally fans
//! independent grid rows out across threads (`std::thread::scope` — no
//! external dependencies).
//!
//! Two layers sit on top of the per-point plan:
//!
//! * **Structure-of-arrays batches.** [`StackEvaluator::eval_batch`]
//!   lowers axis-aligned plans (every catalog design) to contiguous
//!   per-component `f64` slabs: static stages become broadcast 4×4
//!   complex multiplies and tuned stages two-term diagonal updates, with
//!   no per-cell `WaveTransfer` structs in the inner loop — the layout
//!   the compiler can autovectorize. The original per-cell fold stays
//!   available as [`StackEvaluator::eval_batch_reference`]; the two
//!   paths agree to well below `1e-12` (property-tested).
//! * **Shared plan compilation.** [`SharedPlanCache`] owns compiled
//!   plans behind one short-lived mutex; [`PlanCache`] is a cheap
//!   shard-local handle over it, so worker threads serving disjoint
//!   fleets share compilations without ever contending on a hot-path
//!   lock (the handle's local `Rc` table answers repeat lookups
//!   lock-free).
//!
//! The per-point engine is *exactly* equivalent to the naive path:
//! stages are built by the same code, and both sides fold transfers
//! left-to-right, so batched and per-point results agree to well below
//! `1e-12` (`tests/proptest_evaluator.rs` is the contract).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use microwave::polarized::{PolarizedS, WaveTransfer};
use microwave::substrate::ETA0;
use microwave::twoport::{Abcd, SParams};
use rfmath::complex::Complex;
use rfmath::units::{Hertz, Radians, Volts};

use crate::response::SurfaceResponse;
use crate::sheet::AnisotropicSheet;
use crate::stack::{BiasState, SurfaceStack};

/// Upper bound on memoized per-axis voltage entries; beyond this the
/// evaluator computes without caching (protects pathological callers
/// that probe millions of distinct voltages at one frequency).
const MEMO_CAP: usize = 4096;

/// One step of the compiled cascade plan, in traversal order. Both
/// variants are indices into side tables so the plan stays compact
/// (`statics` for pre-multiplied bias-independent runs, `tuned` for
/// bias-dependent panels).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// A pre-multiplied run of bias-independent stages (gaps, fixed
    /// panels), indexed into [`PlanCore::statics`].
    Static(usize),
    /// A bias-dependent panel, indexed into [`PlanCore::tuned`].
    Tuned(usize),
}

/// The immutable half of a bias-dependent panel: what the plan needs to
/// solve either branch at any voltage. Per-voltage memos live in
/// [`TunedMemo`] on the evaluator instance, so the core is `Send + Sync`
/// and shareable across worker threads.
#[derive(Clone, Debug)]
struct TunedCore {
    sheet: AnisotropicSheet,
    rotation: Radians,
}

/// Per-instance voltage memos for one tuned panel (interior-mutable,
/// therefore thread-local by construction).
#[derive(Clone, Debug, Default)]
struct TunedMemo {
    x: RefCell<Vec<(u64, SParams)>>,
    y: RefCell<Vec<(u64, SParams)>>,
}

/// Memo lookup/insert shared by both axes.
fn axis_s(
    memo: &RefCell<Vec<(u64, SParams)>>,
    v: f64,
    compute: impl FnOnce() -> SParams,
) -> SParams {
    let bits = v.to_bits();
    if let Some(&(_, s)) = memo.borrow().iter().find(|(b, _)| *b == bits) {
        return s;
    }
    let s = compute();
    let mut memo = memo.borrow_mut();
    if memo.len() < MEMO_CAP {
        memo.push((bits, s));
    }
    s
}

/// Assembles a tuned panel's stage transfer from cached per-axis
/// S-parameters. Axis-aligned panels (the BFS layers) skip the rotation
/// conjugation entirely — `R(0) = I` exactly, so the result is
/// bit-identical and eight 2×2 multiplies cheaper per grid cell.
fn tuned_transfer(sx: SParams, sy: SParams, rotation: Radians) -> Option<WaveTransfer> {
    let stage = PolarizedS::from_axes(sx, sy);
    if rotation.0 == 0.0 {
        stage.wave_transfer()
    } else {
        stage.rotated(rotation).wave_transfer()
    }
}

/// A one-stage stack, mirrored bit-for-bit: [`PolarizedS::chain`]
/// returns a lone stage unchanged — even one with a singular
/// transmission block (a perfect mirror is a valid network) — so the
/// evaluator must not round-trip it through the wave-transfer domain.
#[derive(Clone, Debug)]
enum Lone {
    /// Bias-independent lone stage, precomputed (boxed to keep the
    /// cold enum small next to the dataless `Tuned` variant).
    Static(Box<PolarizedS>),
    /// Bias-dependent lone panel, assembled per probe from `tuned[0]`.
    Tuned,
}

/// The immutable, shareable part of a compiled plan: everything except
/// the per-voltage memos. `Send + Sync`, so a [`SharedPlanCache`] can
/// hand one compilation to every worker shard.
#[derive(Clone, Debug)]
struct PlanCore {
    f: Hertz,
    steps: Vec<Step>,
    statics: Vec<WaveTransfer>,
    tuned: Vec<TunedCore>,
    /// Single-stage stacks bypass the transfer-domain plan entirely.
    lone: Option<Lone>,
    /// True when a bias-independent stage was numerically opaque
    /// (singular transmission): every response is `None`.
    opaque: bool,
}

impl PlanCore {
    /// Compiles `stack` at `f`: converts every bias-independent stage to
    /// wave-transfer form and pre-multiplies maximal static runs.
    fn compile(stack: &SurfaceStack, f: Hertz) -> Self {
        let mut steps = Vec::new();
        let mut statics = Vec::new();
        let mut tuned = Vec::new();
        let mut pending: Option<WaveTransfer> = None;
        let mut opaque = false;

        // One-panel stacks: the cascade *is* the stage, bit for bit.
        if let [panel] = stack.panels.as_slice() {
            let lone = if panel.sheet.x.is_tuned() || panel.sheet.y.is_tuned() {
                tuned.push(TunedCore {
                    sheet: panel.sheet.clone(),
                    rotation: panel.rotation,
                });
                Lone::Tuned
            } else {
                let sx = panel.sheet.abcd_x(f, Volts(0.0)).to_s(ETA0);
                let sy = panel.sheet.abcd_y(f, Volts(0.0)).to_s(ETA0);
                Lone::Static(Box::new(
                    PolarizedS::from_axes(sx, sy).rotated(panel.rotation),
                ))
            };
            return Self {
                f,
                steps,
                statics,
                tuned,
                lone: Some(lone),
                opaque: false,
            };
        }

        let push_static = |pending: &mut Option<WaveTransfer>,
                           opaque: &mut bool,
                           stage: PolarizedS| match stage.wave_transfer()
        {
            Some(t) => match pending {
                Some(acc) => acc.push(&t),
                None => *pending = Some(t),
            },
            None => *opaque = true,
        };

        for (i, panel) in stack.panels.iter().enumerate() {
            if i > 0 {
                let gap = Abcd::air_gap(stack.gaps[i - 1], f).to_s(ETA0);
                push_static(&mut pending, &mut opaque, PolarizedS::from_axes(gap, gap));
            }
            if panel.sheet.x.is_tuned() || panel.sheet.y.is_tuned() {
                if let Some(t) = pending.take() {
                    steps.push(Step::Static(statics.len()));
                    statics.push(t);
                }
                steps.push(Step::Tuned(tuned.len()));
                tuned.push(TunedCore {
                    sheet: panel.sheet.clone(),
                    rotation: panel.rotation,
                });
            } else {
                // Fixed and transparent branches ignore bias, so the
                // whole stage is static at this frequency.
                let sx = panel.sheet.abcd_x(f, Volts(0.0)).to_s(ETA0);
                let sy = panel.sheet.abcd_y(f, Volts(0.0)).to_s(ETA0);
                push_static(
                    &mut pending,
                    &mut opaque,
                    PolarizedS::from_axes(sx, sy).rotated(panel.rotation),
                );
            }
        }
        if let Some(t) = pending.take() {
            steps.push(Step::Static(statics.len()));
            statics.push(t);
        }

        Self {
            f,
            steps,
            statics,
            tuned,
            lone: None,
            opaque,
        }
    }
}

/// The compiled, frequency-specific evaluation plan of a
/// [`SurfaceStack`].
///
/// Build one per operating frequency and probe it with as many bias
/// states as needed; see the module docs for the cost model. The
/// compiled cascade itself lives in a shared immutable core (so
/// [`SharedPlanCache`] can hand one compilation to many threads); only
/// the per-voltage memos are instance state.
#[derive(Clone, Debug)]
pub struct StackEvaluator {
    core: Arc<PlanCore>,
    memos: Vec<TunedMemo>,
}

impl StackEvaluator {
    /// Compiles `stack` for evaluation at frequency `f`: converts every
    /// bias-independent stage to wave-transfer form and pre-multiplies
    /// maximal static runs.
    pub fn new(stack: &SurfaceStack, f: Hertz) -> Self {
        Self::from_core(Arc::new(PlanCore::compile(stack, f)))
    }

    /// Wraps a shared compiled core with fresh (empty) voltage memos.
    fn from_core(core: Arc<PlanCore>) -> Self {
        let memos = core.tuned.iter().map(|_| TunedMemo::default()).collect();
        Self { core, memos }
    }

    /// The frequency this plan was compiled for.
    pub fn frequency(&self) -> Hertz {
        self.core.f
    }

    /// X-branch S-parameters of tuned panel `k` at `v`, memoized by
    /// voltage bit pattern.
    fn x_s(&self, k: usize, v: f64) -> SParams {
        let sheet = &self.core.tuned[k].sheet;
        let f = self.core.f;
        axis_s(&self.memos[k].x, v, || sheet.abcd_x(f, Volts(v)).to_s(ETA0))
    }

    /// Y-branch S-parameters of tuned panel `k` at `v`, memoized by
    /// voltage bit pattern.
    fn y_s(&self, k: usize, v: f64) -> SParams {
        let sheet = &self.core.tuned[k].sheet;
        let f = self.core.f;
        axis_s(&self.memos[k].y, v, || sheet.abcd_y(f, Volts(v)).to_s(ETA0))
    }

    /// Assembles a one-panel stack's stage exactly as
    /// [`SurfaceStack::response`] does (including the rotation call, so
    /// the result is bit-identical to the naive path).
    fn lone_stage(&self, lone: &Lone, vx: f64, vy: f64) -> PolarizedS {
        match lone {
            Lone::Static(stage) => **stage,
            Lone::Tuned => PolarizedS::from_axes(self.x_s(0, vx), self.y_s(0, vy))
                .rotated(self.core.tuned[0].rotation),
        }
    }

    /// Number of bias-dependent panels in the plan.
    pub fn tuned_panel_count(&self) -> usize {
        self.core.tuned.len()
    }

    /// Evaluates the full polarized response at one bias state.
    ///
    /// Equivalent to `stack.response(f, bias)` but reuses the compiled
    /// static stages and per-voltage branch memos; zero heap allocation
    /// per call once the memos are warm.
    pub fn response(&self, bias: BiasState) -> Option<PolarizedS> {
        let core = &*self.core;
        if let Some(lone) = &core.lone {
            return Some(self.lone_stage(lone, bias.vx.0, bias.vy.0));
        }
        if core.opaque {
            return None;
        }
        let mut acc: Option<WaveTransfer> = None;
        for step in &core.steps {
            let t = match step {
                Step::Static(k) => core.statics[*k],
                Step::Tuned(k) => tuned_transfer(
                    self.x_s(*k, bias.vx.0),
                    self.y_s(*k, bias.vy.0),
                    core.tuned[*k].rotation,
                )?,
            };
            match acc.as_mut() {
                Some(acc) => acc.push(&t),
                None => acc = Some(t),
            }
        }
        acc?.to_s()
    }

    /// [`StackEvaluator::response`] wrapped into the [`SurfaceResponse`]
    /// observable bundle the propagation layer consumes — the one-call
    /// bias→response step of every serving probe loop.
    pub fn surface_response(&self, bias: BiasState) -> SurfaceResponse {
        SurfaceResponse::new(self.frequency(), self.response(bias))
    }

    /// True when the plan can take the structure-of-arrays batch path:
    /// a real multi-stage cascade whose tuned panels are all
    /// axis-aligned (rotation 0 — every catalog design; rotated QWPs
    /// are static and pre-multiplied into the static runs).
    fn soa_eligible(&self) -> bool {
        let core = &*self.core;
        !core.opaque
            && core.lone.is_none()
            && !core.steps.is_empty()
            && core.tuned.iter().all(|t| t.rotation.0 == 0.0)
    }

    /// Evaluates the response at an arbitrary list of bias states with
    /// one shared plan — the fleet-serving probe path: a scheduler
    /// sweeping N devices probes each shared bias exactly once here and
    /// fans the per-device link projections out from the result, instead
    /// of recompiling a plan (or re-running the cascade) per device.
    ///
    /// Axis-aligned cascades (every catalog design) take a
    /// structure-of-arrays fast path: the chain state is kept in
    /// contiguous per-component `f64` slabs so static stages are
    /// broadcast 4×4 complex multiplies and tuned stages two-term
    /// diagonal updates — no per-cell transfer structs, autovectorizable.
    /// Results agree with [`StackEvaluator::eval_batch_reference`] (and
    /// therefore with [`StackEvaluator::response`]) to well below
    /// `1e-12`; rotated tuned panels, lone stages, and tiny batches fall
    /// back to the reference path exactly.
    pub fn eval_batch(&self, biases: &[BiasState]) -> Vec<Option<PolarizedS>> {
        if biases.len() >= SOA_MIN_BATCH && self.soa_eligible() {
            self.eval_batch_soa(biases)
        } else {
            self.eval_batch_reference(biases)
        }
    }

    /// The per-cell reference batch path: folds a [`WaveTransfer`] per
    /// cell exactly like [`StackEvaluator::response`]. Kept public as
    /// the A/B baseline for the structure-of-arrays path — benches
    /// measure `eval_batch` against this, and the proptests pin the two
    /// within `1e-12`.
    pub fn eval_batch_reference(&self, biases: &[BiasState]) -> Vec<Option<PolarizedS>> {
        let core = &*self.core;
        let mut out: Vec<Option<PolarizedS>> = vec![None; biases.len()];
        if biases.is_empty() || core.opaque {
            return out;
        }
        if let Some(lone) = &core.lone {
            for (slot, b) in out.iter_mut().zip(biases) {
                *slot = Some(self.lone_stage(lone, b.vx.0, b.vy.0));
            }
            return out;
        }

        let (vxs, vys, cells) = dedupe_biases(biases);
        let x_tables: Vec<Vec<SParams>> = (0..core.tuned.len())
            .map(|k| vxs.iter().map(|&v| self.x_s(k, v)).collect())
            .collect();
        let y_tables: Vec<Vec<SParams>> = (0..core.tuned.len())
            .map(|k| vys.iter().map(|&v| self.y_s(k, v)).collect())
            .collect();
        let rotations: Vec<Radians> = core.tuned.iter().map(|p| p.rotation).collect();
        let steps = &core.steps;
        let statics = &core.statics;

        let cell = |ix: usize, iy: usize| -> Option<PolarizedS> {
            let mut acc: Option<WaveTransfer> = None;
            for step in steps {
                let t = match step {
                    Step::Static(k) => statics[*k],
                    Step::Tuned(k) => {
                        tuned_transfer(x_tables[*k][ix], y_tables[*k][iy], rotations[*k])?
                    }
                };
                match acc.as_mut() {
                    Some(acc) => acc.push(&t),
                    None => acc = Some(t),
                }
            }
            acc?.to_s()
        };

        let threads = if biases.len() < 256 {
            1
        } else {
            rfmath::par::available_threads()
        };
        rfmath::par::par_fill(&mut out, threads, |i| {
            let (ix, iy) = cells[i];
            cell(ix, iy)
        });
        out
    }

    /// The structure-of-arrays batch path. See [`SoaCtx`] for the data
    /// layout and `soa_block` for the kernel.
    fn eval_batch_soa(&self, biases: &[BiasState]) -> Vec<Option<PolarizedS>> {
        let core = &*self.core;
        let mut out: Vec<Option<PolarizedS>> = vec![None; biases.len()];
        let (vxs, vys, cells) = dedupe_biases(biases);

        // O(distinct voltages) setup: per-axis branch solves (memoized).
        // The scalar wave transfers themselves are assembled per cell in
        // the kernel — the reference path couples the two axes through
        // one shared `det(S21) = s21x·s21y` inverse, and reproducing
        // that exact operation order is what keeps the fast path
        // bit-compatible.
        let x_params: Vec<Vec<SParams>> = (0..core.tuned.len())
            .map(|k| vxs.iter().map(|&v| self.x_s(k, v)).collect())
            .collect();
        let y_params: Vec<Vec<SParams>> = (0..core.tuned.len())
            .map(|k| vys.iter().map(|&v| self.y_s(k, v)).collect())
            .collect();
        let statics: Vec<[Complex; 16]> = core.statics.iter().map(|t| t.components()).collect();
        let z0 = core.statics.first().map(|t| t.z0()).unwrap_or(ETA0);

        let ctx = SoaCtx {
            steps: &core.steps,
            statics: &statics,
            x_params: &x_params,
            y_params: &y_params,
            cells: &cells,
            z0,
        };
        let threads = if biases.len() < 256 {
            1
        } else {
            rfmath::par::available_threads()
        };
        rfmath::par::par_fill_chunked(&mut out, threads, |offset, chunk| {
            soa_fill(&ctx, offset, chunk)
        });
        out
    }

    /// Evaluates the response over a bias grid, row-major with rows
    /// indexed by `vys` (cell `[iy·len(vxs) + ix]` holds the response at
    /// `(vxs[ix], vys[iy])`) — the layout of the Figure 15/21 heatmaps
    /// and Table 1.
    ///
    /// Each tuned panel's branches are evaluated once per distinct axis
    /// voltage (`O(T)` instead of `O(T²)` ABCD solves), then independent
    /// rows are evaluated in parallel with `std::thread::scope` when the
    /// grid is large enough to amortize thread spawn.
    pub fn eval_grid(&self, vxs: &[f64], vys: &[f64]) -> Vec<Option<PolarizedS>> {
        self.eval_grid_threaded(vxs, vys, rfmath::par::available_threads())
    }

    /// [`StackEvaluator::eval_grid`] with an explicit worker count
    /// (clamped to the row count; ≤ 1 evaluates sequentially). Exposed
    /// so the threaded path stays testable on single-core hosts.
    pub fn eval_grid_threaded(
        &self,
        vxs: &[f64],
        vys: &[f64],
        threads: usize,
    ) -> Vec<Option<PolarizedS>> {
        let core = &*self.core;
        let nx = vxs.len();
        let ny = vys.len();
        let mut out: Vec<Option<PolarizedS>> = vec![None; nx * ny];
        if core.opaque || nx == 0 || ny == 0 {
            return out;
        }
        if let Some(lone) = &core.lone {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = Some(self.lone_stage(lone, vxs[i % nx], vys[i / nx]));
            }
            return out;
        }

        // O(T) separable precompute: per-axis branch S-parameters.
        let x_tables: Vec<Vec<SParams>> = (0..core.tuned.len())
            .map(|k| vxs.iter().map(|&v| self.x_s(k, v)).collect())
            .collect();
        let y_tables: Vec<Vec<SParams>> = (0..core.tuned.len())
            .map(|k| vys.iter().map(|&v| self.y_s(k, v)).collect())
            .collect();
        let rotations: Vec<Radians> = core.tuned.iter().map(|p| p.rotation).collect();
        let steps = &core.steps;
        let statics = &core.statics;

        let cell = |ix: usize, iy: usize| -> Option<PolarizedS> {
            let mut acc: Option<WaveTransfer> = None;
            for step in steps {
                let t = match step {
                    Step::Static(k) => statics[*k],
                    Step::Tuned(k) => {
                        tuned_transfer(x_tables[*k][ix], y_tables[*k][iy], rotations[*k])?
                    }
                };
                match acc.as_mut() {
                    Some(acc) => acc.push(&t),
                    None => acc = Some(t),
                }
            }
            acc?.to_s()
        };

        // Worker count tracks rows (the original row-fan-out
        // granularity); the shared helper chunks by cell, which is
        // equivalent for a pure kernel.
        let threads = if nx * ny < 256 { 1 } else { threads.min(ny) };
        rfmath::par::par_fill(&mut out, threads, |i| cell(i % nx, i / nx));
        out
    }
}

/// Minimum batch size for the structure-of-arrays path; smaller batches
/// can't amortize the slab setup.
const SOA_MIN_BATCH: usize = 4;

/// Cells per structure-of-arrays block: 64 cells × 16 components × 4
/// slabs ≈ 32 KiB of `f64` scratch, sized to stay in L1.
const SOA_BLOCK: usize = 64;

/// The Mat2 singularity threshold ([`rfmath::matrix::Mat2::inverse`]):
/// a tuned stage whose transmission-block determinant falls below this
/// is opaque (`None`), matching the reference path's check exactly.
const SOA_SINGULAR: f64 = 1e-300;

/// Deduplicates per-axis voltages by bit pattern so every distinct value
/// costs one ABCD solve per tuned panel, batch-wide. Returns the
/// distinct voltage tables and each bias's `(ix, iy)` table indices.
fn dedupe_biases(biases: &[BiasState]) -> (Vec<f64>, Vec<f64>, Vec<(usize, usize)>) {
    let mut vxs: Vec<f64> = Vec::new();
    let mut vys: Vec<f64> = Vec::new();
    let index_of = |table: &mut Vec<f64>, v: f64| -> usize {
        match table.iter().position(|&u| u.to_bits() == v.to_bits()) {
            Some(i) => i,
            None => {
                table.push(v);
                table.len() - 1
            }
        }
    };
    let cells = biases
        .iter()
        .map(|b| (index_of(&mut vxs, b.vx.0), index_of(&mut vys, b.vy.0)))
        .collect();
    (vxs, vys, cells)
}

/// Shared read-only context for the structure-of-arrays kernel: the
/// compiled steps, static stages flattened to row-major 4×4 complex
/// components, per-panel per-voltage axis S-parameters, and each cell's
/// voltage-table indices.
struct SoaCtx<'a> {
    steps: &'a [Step],
    statics: &'a [[Complex; 16]],
    x_params: &'a [Vec<SParams>],
    y_params: &'a [Vec<SParams>],
    cells: &'a [(usize, usize)],
    z0: f64,
}

/// Fills one worker's contiguous range in L1-sized blocks.
fn soa_fill(ctx: &SoaCtx, offset: usize, out: &mut [Option<PolarizedS>]) {
    let mut start = 0;
    while start < out.len() {
        let m = (out.len() - start).min(SOA_BLOCK);
        soa_block(ctx, offset + start, &mut out[start..start + m]);
        start += m;
    }
}

/// The structure-of-arrays kernel for one block of cells.
///
/// Chain state is a 4×4 complex matrix per cell (the block transfer
/// viewed as `[[T11, T12], [T21, T22]]`), stored as 16 re + 16 im `f64`
/// slabs with the cell index innermost. Static steps broadcast one
/// constant matrix across the block (`((k0+k1)+(k2+k3))` grouping);
/// tuned steps exploit that an axis-aligned panel's blocks are diagonal,
/// so each output component needs exactly two products against gathered
/// per-axis scalars. Every inner loop runs over the contiguous cell
/// axis with no struct hops — the autovectorizable shape.
#[allow(clippy::needless_range_loop)]
fn soa_block(ctx: &SoaCtx, offset: usize, out: &mut [Option<PolarizedS>]) {
    let m = out.len();
    let mut acc_re = [[0.0f64; SOA_BLOCK]; 16];
    let mut acc_im = [[0.0f64; SOA_BLOCK]; 16];
    let mut nxt_re = [[0.0f64; SOA_BLOCK]; 16];
    let mut nxt_im = [[0.0f64; SOA_BLOCK]; 16];
    // Gathered per-axis transfers for the current tuned step: slabs
    // 0..4 hold the X axis's [t11, t12, t21, t22], 4..8 the Y axis's.
    let mut g_re = [[0.0f64; SOA_BLOCK]; 8];
    let mut g_im = [[0.0f64; SOA_BLOCK]; 8];
    let mut valid = [true; SOA_BLOCK];
    let mut first = true;

    for step in ctx.steps {
        match *step {
            Step::Static(k) => {
                let b = &ctx.statics[k];
                if first {
                    for comp in 0..16 {
                        acc_re[comp][..m].fill(b[comp].re);
                        acc_im[comp][..m].fill(b[comp].im);
                    }
                } else {
                    for r in 0..4 {
                        for c in 0..4 {
                            let o = r * 4 + c;
                            let (b0, b1, b2, b3) = (b[c], b[4 + c], b[8 + c], b[12 + c]);
                            let (a0, a1, a2, a3) = (r * 4, r * 4 + 1, r * 4 + 2, r * 4 + 3);
                            for i in 0..m {
                                let p0r = acc_re[a0][i] * b0.re - acc_im[a0][i] * b0.im;
                                let p0i = acc_re[a0][i] * b0.im + acc_im[a0][i] * b0.re;
                                let p1r = acc_re[a1][i] * b1.re - acc_im[a1][i] * b1.im;
                                let p1i = acc_re[a1][i] * b1.im + acc_im[a1][i] * b1.re;
                                let p2r = acc_re[a2][i] * b2.re - acc_im[a2][i] * b2.im;
                                let p2i = acc_re[a2][i] * b2.im + acc_im[a2][i] * b2.re;
                                let p3r = acc_re[a3][i] * b3.re - acc_im[a3][i] * b3.im;
                                let p3i = acc_re[a3][i] * b3.im + acc_im[a3][i] * b3.re;
                                nxt_re[o][i] = (p0r + p1r) + (p2r + p3r);
                                nxt_im[o][i] = (p0i + p1i) + (p2i + p3i);
                            }
                        }
                    }
                    std::mem::swap(&mut acc_re, &mut nxt_re);
                    std::mem::swap(&mut acc_im, &mut nxt_im);
                }
            }
            Step::Tuned(k) => {
                // Assemble each cell's per-axis scalar transfers with the
                // reference path's exact operation order: both axes share
                // one transmission-block determinant inverse
                // (`Mat2::inverse` of `diag(s21x, s21y)`), so
                // `t11x = s21y·(s21x·s21y)⁻¹` — not `1/s21x` — and the
                // results match the per-cell fold bit for bit.
                for i in 0..m {
                    let (ix, iy) = ctx.cells[offset + i];
                    let sx = &ctx.x_params[k][ix];
                    let sy = &ctx.y_params[k][iy];
                    let det = sx.s21 * sy.s21;
                    if det.abs() < SOA_SINGULAR {
                        // Masked at the end; lanes are independent, so
                        // the garbage this cell accumulates is inert.
                        valid[i] = false;
                    }
                    let inv = det.inv();
                    let t11x = sy.s21 * inv;
                    let t21x = sx.s11 * t11x;
                    let tx = [t11x, -(t11x * sx.s22), t21x, sx.s12 - t21x * sx.s22];
                    let t11y = sx.s21 * inv;
                    let t21y = sy.s11 * t11y;
                    let ty = [t11y, -(t11y * sy.s22), t21y, sy.s12 - t21y * sy.s22];
                    for j in 0..4 {
                        g_re[j][i] = tx[j].re;
                        g_im[j][i] = tx[j].im;
                        g_re[4 + j][i] = ty[j].re;
                        g_im[4 + j][i] = ty[j].im;
                    }
                }
                if first {
                    // The tuned matrix itself: nonzero only where the
                    // sub-row parity matches the sub-column parity.
                    for r in 0..4 {
                        for c in 0..4 {
                            if r % 2 != c % 2 {
                                continue;
                            }
                            let t = (c % 2) * 4 + (r / 2) * 2 + c / 2;
                            let o = r * 4 + c;
                            acc_re[o][..m].copy_from_slice(&g_re[t][..m]);
                            acc_im[o][..m].copy_from_slice(&g_im[t][..m]);
                        }
                    }
                } else {
                    for c in 0..4 {
                        // Block-diagonal column: only sub-rows matching
                        // the column parity contribute, one per block
                        // row — a two-product update.
                        let t0 = (c % 2) * 4 + c / 2;
                        let t1 = (c % 2) * 4 + 2 + c / 2;
                        let a0 = c % 2;
                        let a1 = c % 2 + 2;
                        for r in 0..4 {
                            let o = r * 4 + c;
                            let s0 = r * 4 + a0;
                            let s1 = r * 4 + a1;
                            for i in 0..m {
                                let p0r = acc_re[s0][i] * g_re[t0][i] - acc_im[s0][i] * g_im[t0][i];
                                let p0i = acc_re[s0][i] * g_im[t0][i] + acc_im[s0][i] * g_re[t0][i];
                                let p1r = acc_re[s1][i] * g_re[t1][i] - acc_im[s1][i] * g_im[t1][i];
                                let p1i = acc_re[s1][i] * g_im[t1][i] + acc_im[s1][i] * g_re[t1][i];
                                nxt_re[o][i] = p0r + p1r;
                                nxt_im[o][i] = p0i + p1i;
                            }
                        }
                    }
                    std::mem::swap(&mut acc_re, &mut nxt_re);
                    std::mem::swap(&mut acc_im, &mut nxt_im);
                }
            }
        }
        first = false;
    }

    for (i, slot) in out.iter_mut().enumerate() {
        *slot = if valid[i] {
            let mut comps = [Complex::ZERO; 16];
            for (c, comp) in comps.iter_mut().enumerate() {
                *comp = Complex::new(acc_re[c][i], acc_im[c][i]);
            }
            WaveTransfer::from_components(comps, ctx.z0).to_s()
        } else {
            None
        };
    }
}

/// The shared, thread-safe compilation store behind [`PlanCache`]
/// handles: one mutex-guarded table of immutable compiled cores per
/// surface stack.
///
/// The mutex is cold by construction — a worker shard takes it only on
/// a local-handle miss (first sighting of a frequency on that shard),
/// holds it for a table lookup or one compilation, and never touches it
/// on the probe hot path. K panels × N fleets across W shards therefore
/// compile each `(stack, frequency)` plan at most once process-wide
/// without serializing steady-state serving.
#[derive(Debug)]
pub struct SharedPlanCache {
    stack: SurfaceStack,
    master: Mutex<Vec<Arc<PlanCore>>>,
}

impl SharedPlanCache {
    /// An empty shared store for one surface stack.
    pub fn new(stack: &SurfaceStack) -> Self {
        Self {
            stack: stack.clone(),
            master: Mutex::new(Vec::new()),
        }
    }

    /// A fresh shard-local handle over this store. Handles are cheap
    /// (`Arc` clone + empty local table) — make one per worker thread.
    pub fn handle(self: &Arc<Self>) -> PlanCache {
        PlanCache {
            shared: Arc::clone(self),
            local: RefCell::new(Vec::new()),
        }
    }

    /// The shared compiled core at `f`, compiling under the master lock
    /// on first process-wide request.
    fn core(&self, f: Hertz) -> Arc<PlanCore> {
        let mut master = self.master.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(core) = master.iter().find(|c| c.f.0.to_bits() == f.0.to_bits()) {
            return Arc::clone(core);
        }
        let core = Arc::new(PlanCore::compile(&self.stack, f));
        master.push(Arc::clone(&core));
        core
    }

    /// Number of distinct frequencies compiled process-wide.
    pub fn compiled_count(&self) -> usize {
        self.master.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// A compile-once plan cache over the `(stack, frequency)` plane — the
/// panel-array amortization layer, as a **shard-local handle**.
///
/// A multi-panel deployment serves several surfaces cut from the *same*
/// design: every panel sweeping the same carrier would otherwise compile
/// its own identical [`StackEvaluator`]. `PlanCache` keys compiled plans
/// by frequency bit pattern and hands out shared [`Rc`] handles, so K
/// panels × F carriers cost `F` compilations instead of `K·F`.
///
/// Each handle's lookup table is single-threaded interior state
/// (`RefCell` + `Rc`): repeat lookups are lock-free on the owning
/// thread. Handles made from the same [`SharedPlanCache`]
/// (via [`SharedPlanCache::handle`]) share compiled cores across
/// threads — a local miss consults the shared store (one brief lock)
/// and wraps the immutable core with thread-local memos, so sharded
/// fleet serving never compiles the same plan twice nor contends on the
/// probe path. `PlanCache::new` creates a private store, which keeps
/// every single-threaded caller exactly as before.
#[derive(Clone, Debug)]
pub struct PlanCache {
    shared: Arc<SharedPlanCache>,
    local: RefCell<Vec<Rc<StackEvaluator>>>,
}

impl PlanCache {
    /// An empty cache for one surface stack (private shared store; use
    /// [`SharedPlanCache::handle`] to share compilations across
    /// threads).
    pub fn new(stack: &SurfaceStack) -> Self {
        Arc::new(SharedPlanCache::new(stack)).handle()
    }

    /// The shared store behind this handle — clone it across threads
    /// and call [`SharedPlanCache::handle`] per worker.
    pub fn shared(&self) -> Arc<SharedPlanCache> {
        Arc::clone(&self.shared)
    }

    /// The compiled plan at `f`, compiling on first process-wide
    /// request. Frequencies are keyed by bit pattern, matching the
    /// fleet engine's carrier deduplication. Repeat lookups on this
    /// handle are lock-free.
    pub fn plan(&self, f: Hertz) -> Rc<StackEvaluator> {
        if let Some(plan) = self
            .local
            .borrow()
            .iter()
            .find(|p| p.frequency().0.to_bits() == f.0.to_bits())
        {
            return Rc::clone(plan);
        }
        let plan = Rc::new(StackEvaluator::from_core(self.shared.core(f)));
        self.local.borrow_mut().push(Rc::clone(&plan));
        plan
    }

    /// Number of distinct frequencies compiled process-wide (shared
    /// across every handle of the same store).
    pub fn plan_count(&self) -> usize {
        self.shared.compiled_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{fr4_naive, fr4_optimized, rogers_reference};

    const F: Hertz = Hertz(2.44e9);

    fn max_diff(a: PolarizedS, b: PolarizedS) -> f64 {
        a.s11
            .max_abs_diff(b.s11)
            .max(a.s12.max_abs_diff(b.s12))
            .max(a.s21.max_abs_diff(b.s21))
            .max(a.s22.max_abs_diff(b.s22))
    }

    #[test]
    fn single_point_matches_naive_response() {
        for design in [fr4_optimized(), rogers_reference(), fr4_naive()] {
            let ev = StackEvaluator::new(&design.stack, F);
            for (vx, vy) in [(0.0, 0.0), (2.0, 15.0), (15.0, 2.0), (30.0, 30.0)] {
                let bias = BiasState::new(vx, vy);
                let naive = design.stack.response(F, bias).unwrap();
                let fast = ev.response(bias).unwrap();
                assert!(
                    max_diff(naive, fast) < 1e-12,
                    "{} at ({vx},{vy}): diff {}",
                    design.name,
                    max_diff(naive, fast)
                );
            }
        }
    }

    #[test]
    fn grid_matches_naive_per_point() {
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let vxs = [0.0, 4.0, 11.0, 30.0];
        let vys = [2.0, 6.0, 15.0];
        let grid = ev.eval_grid(&vxs, &vys);
        assert_eq!(grid.len(), vxs.len() * vys.len());
        for (iy, &vy) in vys.iter().enumerate() {
            for (ix, &vx) in vxs.iter().enumerate() {
                let naive = design.stack.response(F, BiasState::new(vx, vy)).unwrap();
                let fast = grid[iy * vxs.len() + ix].unwrap();
                assert!(max_diff(naive, fast) < 1e-12);
            }
        }
    }

    #[test]
    fn large_grid_takes_threaded_path_and_matches() {
        // 31×31 exceeds the sequential cutoff; force four workers so the
        // std::thread::scope row fan-out runs even on single-core hosts,
        // and check it agrees with the auto-threaded and naive paths.
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let volts: Vec<f64> = (0..31).map(|i| i as f64).collect();
        let grid = ev.eval_grid_threaded(&volts, &volts, 4);
        let auto = ev.eval_grid(&volts, &volts);
        for (i, (cell, auto_cell)) in grid.iter().zip(&auto).enumerate() {
            let (ix, iy) = (i % 31, i / 31);
            let naive = design
                .stack
                .response(F, BiasState::new(volts[ix], volts[iy]))
                .unwrap();
            assert!(max_diff(naive, cell.unwrap()) < 1e-12, "cell {i}");
            assert!(
                max_diff(cell.unwrap(), auto_cell.unwrap()) == 0.0,
                "cell {i}"
            );
        }
    }

    #[test]
    fn uneven_row_chunks_cover_every_cell() {
        // 3 workers over 20 rows (chunks of 7, 7, 6) — exercises the
        // remainder chunk of the fan-out.
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let vxs: Vec<f64> = (0..20).map(|i| 1.5 * i as f64).collect();
        let vys = vxs.clone();
        let threaded = ev.eval_grid_threaded(&vxs, &vys, 3);
        let sequential = ev.eval_grid_threaded(&vxs, &vys, 1);
        assert_eq!(threaded.len(), 400);
        for (a, b) in threaded.iter().zip(&sequential) {
            assert!(max_diff(a.unwrap(), b.unwrap()) == 0.0);
        }
    }

    #[test]
    fn plan_compresses_static_runs() {
        // fr4_optimized: QWP+·gap·QWP+·gap | BFS | gap | BFS | gap·QWP−·gap·QWP−
        // ⇒ 2 tuned panels and 3 compressed static segments.
        let ev = StackEvaluator::new(&fr4_optimized().stack, F);
        assert_eq!(ev.tuned_panel_count(), 2);
        assert_eq!(ev.core.steps.len(), 5);
    }

    #[test]
    fn one_panel_stack_is_bit_identical_to_naive() {
        // `PolarizedS::chain` returns a lone stage unchanged, so the
        // evaluator must not round-trip it through the transfer domain
        // — exercised for both fixed (QWP) and tuned (BFS) panels.
        let bias = BiasState::new(3.0, 21.0);
        for panel in fr4_optimized().stack.panels {
            let stack = SurfaceStack::new(vec![panel], vec![]);
            let ev = StackEvaluator::new(&stack, F);
            let naive = stack.response(F, bias).unwrap();
            assert_eq!(max_diff(naive, ev.response(bias).unwrap()), 0.0);
            let grid = ev.eval_grid(&[3.0], &[21.0]);
            assert_eq!(max_diff(naive, grid[0].unwrap()), 0.0);
        }
    }

    #[test]
    fn batch_matches_single_point_responses() {
        for design in [fr4_optimized(), rogers_reference(), fr4_naive()] {
            let ev = StackEvaluator::new(&design.stack, F);
            let biases: Vec<BiasState> = [(0.0, 0.0), (7.0, 13.0), (7.0, 13.0), (30.0, 2.5)]
                .iter()
                .map(|&(x, y)| BiasState::new(x, y))
                .collect();
            let batch = ev.eval_batch(&biases);
            assert_eq!(batch.len(), biases.len());
            for (b, fast) in biases.iter().zip(&batch) {
                let single = ev.response(*b).unwrap();
                assert!(
                    max_diff(single, fast.unwrap()) < 1e-12,
                    "{} at {:?}",
                    design.name,
                    b
                );
            }
        }
    }

    #[test]
    fn soa_batch_matches_reference_batch() {
        // The structure-of-arrays fast path against the per-cell fold,
        // across every catalog design and a batch long enough to cover
        // multiple kernel blocks (including a ragged tail).
        for design in [fr4_optimized(), rogers_reference(), fr4_naive()] {
            let ev = StackEvaluator::new(&design.stack, F);
            let biases: Vec<BiasState> = (0..150)
                .map(|i| BiasState::new((i % 13) as f64 * 2.3, (i % 7) as f64 * 4.1))
                .collect();
            assert!(ev.soa_eligible(), "{}", design.name);
            let soa = ev.eval_batch_soa(&biases);
            let reference = ev.eval_batch_reference(&biases);
            for (i, (a, b)) in soa.iter().zip(&reference).enumerate() {
                assert_eq!(a.is_some(), b.is_some(), "{} cell {i}", design.name);
                assert!(
                    max_diff(a.unwrap(), b.unwrap()) < 1e-12,
                    "{} cell {i}: diff {}",
                    design.name,
                    max_diff(a.unwrap(), b.unwrap())
                );
            }
        }
    }

    #[test]
    fn large_batch_takes_threaded_path_and_matches() {
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let biases: Vec<BiasState> = (0..300)
            .map(|i| BiasState::new((i % 17) as f64 * 1.7, (i % 23) as f64 * 1.3))
            .collect();
        let batch = ev.eval_batch(&biases);
        for (b, fast) in biases.iter().zip(&batch) {
            let naive = design.stack.response(F, *b).unwrap();
            assert!(max_diff(naive, fast.unwrap()) < 1e-12);
        }
    }

    #[test]
    fn one_panel_batch_is_bit_identical_to_naive() {
        let bias = BiasState::new(3.0, 21.0);
        for panel in fr4_optimized().stack.panels {
            let stack = SurfaceStack::new(vec![panel], vec![]);
            let ev = StackEvaluator::new(&stack, F);
            let naive = stack.response(F, bias).unwrap();
            let batch = ev.eval_batch(&[bias, bias]);
            assert_eq!(max_diff(naive, batch[0].unwrap()), 0.0);
            assert_eq!(max_diff(naive, batch[1].unwrap()), 0.0);
        }
    }

    #[test]
    fn empty_batch_and_empty_stack_yield_nothing() {
        let ev = StackEvaluator::new(&fr4_optimized().stack, F);
        assert!(ev.eval_batch(&[]).is_empty());
        let opaque = StackEvaluator::new(&SurfaceStack::new(vec![], vec![]), F);
        assert!(opaque.eval_batch(&[BiasState::new(1.0, 1.0)])[0].is_none());
    }

    #[test]
    fn plan_cache_compiles_once_per_frequency() {
        let design = fr4_optimized();
        let cache = PlanCache::new(&design.stack);
        let f2 = Hertz(2.48e9);
        let a = cache.plan(F);
        let b = cache.plan(F);
        // Same frequency → the same shared plan, not a recompilation.
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(cache.plan_count(), 1);
        let c = cache.plan(f2);
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(cache.plan_count(), 2);
        // Cached plans answer exactly like a fresh compilation.
        let fresh = StackEvaluator::new(&design.stack, F);
        let bias = BiasState::new(7.0, 13.0);
        assert_eq!(
            max_diff(a.response(bias).unwrap(), fresh.response(bias).unwrap()),
            0.0
        );
    }

    #[test]
    fn shared_cache_handles_share_compiled_cores() {
        let design = fr4_optimized();
        let shared = Arc::new(SharedPlanCache::new(&design.stack));
        let bias = BiasState::new(7.0, 13.0);

        // Two handles — two threads' worth — compile the frequency once.
        let h1 = shared.handle();
        let h2 = shared.handle();
        let p1 = h1.plan(F);
        let p2 = h2.plan(F);
        assert_eq!(shared.compiled_count(), 1);
        assert_eq!(h1.plan_count(), 1);
        // Distinct per-handle evaluators (thread-local memos) over the
        // same immutable core → bit-identical answers.
        assert!(!Rc::ptr_eq(&p1, &p2));
        assert!(Arc::ptr_eq(&p1.core, &p2.core));
        assert_eq!(
            max_diff(p1.response(bias).unwrap(), p2.response(bias).unwrap()),
            0.0
        );

        // And the store really is usable from other threads.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&shared);
        let from_worker = std::thread::scope(|scope| {
            scope
                .spawn(|| shared.handle().plan(F).response(bias).unwrap())
                .join()
                .unwrap()
        });
        assert_eq!(max_diff(from_worker, p1.response(bias).unwrap()), 0.0);
        assert_eq!(shared.compiled_count(), 1);
    }

    #[test]
    fn empty_stack_yields_none() {
        let stack = SurfaceStack::new(vec![], vec![]);
        let ev = StackEvaluator::new(&stack, F);
        assert!(ev.response(BiasState::new(0.0, 0.0)).is_none());
        assert!(ev.eval_grid(&[1.0], &[1.0])[0].is_none());
    }
}
