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
//! rebuilds, and the batch paths additionally fan independent cells out
//! across the caller's thread budget ([`rfmath::par`] — no external
//! dependencies).
//!
//! Three layers sit on top of the per-point plan:
//!
//! * **Structure-of-arrays batches.** [`StackEvaluator::eval_batch`]
//!   and [`StackEvaluator::eval_grid_map`] lower axis-aligned plans
//!   (every catalog design) to contiguous per-component `f64` slabs:
//!   static stages become broadcast 4×4 complex multiplies and tuned
//!   stages two-term diagonal updates, with no per-cell `WaveTransfer`
//!   structs in the inner loop — the layout the compiler can
//!   autovectorize. The per-cell fold serves rotated tuned panels, lone
//!   stages and the [`StackEvaluator::eval_batch_reference`] arm; the
//!   kernel keeps the fold's operation order, so both agree bit for bit
//!   (property-tested). The grid entry point maps each cell (a heatmap
//!   projects it onto a link) as it leaves the kernel, inside the same
//!   fan-out; [`StackEvaluator::eval_grid`] is its identity map.
//! * **Shared plan compilation and branch memos.** [`SharedPlanCache`]
//!   owns compiled plans behind one short-lived mutex, and each compiled
//!   core owns the per-voltage branch S-parameters every handle has
//!   solved. [`PlanCache`] is a cheap shard-local handle over the store:
//!   its local `Rc` table and each plan's local memo front answer repeat
//!   lookups lock-free, a local miss consults the store under a brief
//!   lock, and a branch is solved only when the store lacks it. Worker
//!   threads serving disjoint fleets therefore share compilations and
//!   branch solves without contending on a hot-path lock.
//! * **The cell memo.** Each core compiled by a
//!   [`SharedPlanCache::new`] store also keeps the probe factors
//!   ([`ResponseFactors`]) of every applied bias cell any handle has
//!   evaluated through [`StackEvaluator::cell_factors_into`], the
//!   fleet-serving batch entry point: Algorithm 1 sweeps one
//!   supply-range lattice and then ±step windows around its winners, so
//!   jobs served through one store keep probing the same few hundred
//!   cells, and a cell some job has evaluated costs every later job one
//!   hashed lookup. Only the misses reach the kernel. A private store
//!   ([`PlanCache::new`]) keeps no cell memo. The kernel entry points
//!   above (`eval_batch`, `eval_batch_reference`, `eval_grid_map`,
//!   `response`) never read or fill it.
//!
//! The per-point engine is *exactly* equivalent to the naive path:
//! stages are built by the same code, and both sides fold transfers
//! left-to-right, so batched and per-point results agree to well below
//! `1e-12` (`tests/proptest_evaluator.rs` is the contract).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};

use microwave::polarized::{PolarizedS, WaveTransfer};
use microwave::substrate::ETA0;
use microwave::twoport::{Abcd, SParams};
use rfmath::complex::Complex;
use rfmath::rng::MixState;
use rfmath::units::{Hertz, Radians, Volts};

use crate::response::{ResponseFactors, SurfaceResponse};
use crate::sheet::AnisotropicSheet;
use crate::stack::{BiasState, SurfaceStack};

/// Upper bound on memoized per-axis voltage entries, in a handle's local
/// front and in the store alike, and on a store's memoized cells; beyond
/// this the evaluator computes without caching (protects pathological
/// callers that probe millions of distinct voltages at one frequency).
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
/// solve either branch at any voltage.
#[derive(Clone, Debug)]
struct TunedCore {
    sheet: AnisotropicSheet,
    rotation: Radians,
}

/// One polarization branch of a tuned panel.
#[derive(Clone, Copy, Debug)]
enum Axis {
    X = 0,
    Y = 1,
}

/// A handle's lock-free local front over its core's branch store, one
/// per tuned panel: the voltages this instance has already looked up
/// (interior-mutable, therefore thread-local by construction).
#[derive(Clone, Debug, Default)]
struct TunedMemo {
    axes: [RefCell<Vec<(u64, SParams)>>; 2],
}

/// The store-owned memos of one compiled core, shared by every handle
/// over it: per-voltage branch S-parameters and per-cell probe factors.
/// Each entry is a pure function of (plan, key bits), so whichever
/// handle computes it first, every handle reads the same bits.
#[derive(Debug)]
struct PlanStore {
    /// `[x, y]` memos per tuned panel, keyed by voltage bit pattern (a
    /// hashed lookup: a warm store holds up to [`MEMO_CAP`] entries).
    memos: Vec<[HashMap<u64, SParams, MixState>; 2]>,
    /// Branch solves run on this core, over every handle.
    solves: u64,
    /// Applied bias cells, keyed by their `(vx, vy)` bit patterns, as
    /// indices into `factors` (up to [`MEMO_CAP`] cells; empty unless
    /// the core keeps a cell memo).
    cells: HashMap<(u64, u64), usize, MixState>,
    /// The probe factors of each memoized cell, in insertion order.
    factors: Vec<ResponseFactors>,
    /// Cells this core's kernel evaluated for the cell memo, over every
    /// handle.
    cells_evaluated: u64,
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

/// The shareable part of a compiled plan: the immutable cascade plus
/// the store of branch solves and cell factors. `Send + Sync`, so a
/// [`SharedPlanCache`] can hand one compilation to every worker shard.
#[derive(Debug)]
struct PlanCore {
    f: Hertz,
    steps: Vec<Step>,
    statics: Vec<WaveTransfer>,
    /// `statics` flattened to row-major 4×4 complex components, the
    /// form the structure-of-arrays kernel broadcasts.
    static_components: Vec<[Complex; 16]>,
    tuned: Vec<TunedCore>,
    /// Single-stage stacks bypass the transfer-domain plan entirely.
    lone: Option<Lone>,
    /// True when a bias-independent stage was numerically opaque
    /// (singular transmission): every response is `None`.
    opaque: bool,
    /// True when the store keeps the cell memo (a core compiled by a
    /// [`SharedPlanCache::new`] store); a private core evaluates every
    /// cell it is asked for.
    cell_memo: bool,
    memos: Mutex<PlanStore>,
}

impl PlanCore {
    /// Compiles `stack` at `f`: converts every bias-independent stage to
    /// wave-transfer form and pre-multiplies maximal static runs. The
    /// store keeps a cell memo when `cell_memo` is set.
    fn compile(stack: &SurfaceStack, f: Hertz, cell_memo: bool) -> Self {
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
                static_components: Vec::new(),
                memos: PlanStore::new(tuned.len()),
                tuned,
                lone: Some(lone),
                opaque: false,
                cell_memo,
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
            static_components: statics.iter().map(WaveTransfer::components).collect(),
            statics,
            memos: PlanStore::new(tuned.len()),
            tuned,
            lone: None,
            opaque,
            cell_memo,
        }
    }

    /// The store, locked. A caller holds the lock for one lookup or one
    /// batch's lookups, plus the solves of voltages no handle has seen —
    /// each ~0.5 µs, and rare once the store is warm — and never across
    /// the cascade kernel.
    fn store(&self) -> MutexGuard<'_, PlanStore> {
        self.memos.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Tuned panel `k`'s `axis` branch S-parameters at `v`, from the
    /// locked `store` when any handle has solved it before, solved (and
    /// stored, up to [`MEMO_CAP`]) otherwise.
    fn branch(&self, store: &mut PlanStore, k: usize, axis: Axis, v: f64) -> SParams {
        let memo = &mut store.memos[k][axis as usize];
        let full = memo.len() >= MEMO_CAP;
        match memo.entry(v.to_bits()) {
            Entry::Occupied(hit) => *hit.get(),
            Entry::Vacant(slot) => {
                let sheet = &self.tuned[k].sheet;
                let abcd = match axis {
                    Axis::X => sheet.abcd_x(self.f, Volts(v)),
                    Axis::Y => sheet.abcd_y(self.f, Volts(v)),
                };
                let s = abcd.to_s(ETA0);
                if !full {
                    slot.insert(s);
                }
                store.solves += 1;
                s
            }
        }
    }
}

impl PlanStore {
    /// An empty store for `panels` tuned panels, behind its lock.
    fn new(panels: usize) -> Mutex<Self> {
        Mutex::new(Self {
            memos: (0..panels).map(|_| Default::default()).collect(),
            solves: 0,
            cells: HashMap::default(),
            factors: Vec::new(),
            cells_evaluated: 0,
        })
    }
}

/// The compiled, frequency-specific evaluation plan of a
/// [`SurfaceStack`].
///
/// Build one per operating frequency and probe it with as many bias
/// states as needed; see the module docs for the cost model. The
/// compiled cascade and the store of branch solves and cell factors
/// live in a shared core (so [`SharedPlanCache`] can hand one
/// compilation, and everything it has computed, to many threads). The
/// instance holds only a lock-free local front over that store (the
/// voltages it has already looked up) and the storage its cell-memo
/// misses reuse from call to call.
#[derive(Clone, Debug)]
pub struct StackEvaluator {
    core: Arc<PlanCore>,
    memos: Vec<TunedMemo>,
    misses: RefCell<CellMisses>,
}

/// The cells one [`StackEvaluator::cell_factors_into`] call found
/// missing from the store, in storage the next call reuses: their
/// positions in the caller's list and their per-axis voltage tables.
#[derive(Clone, Debug, Default)]
struct CellMisses {
    at: Vec<usize>,
    cells: BiasCells,
}

/// A cell-memo key: the applied bias's bit patterns.
fn cell_key(bias: &BiasState) -> (u64, u64) {
    (bias.vx.0.to_bits(), bias.vy.0.to_bits())
}

impl StackEvaluator {
    /// Compiles `stack` for evaluation at frequency `f`: converts every
    /// bias-independent stage to wave-transfer form and pre-multiplies
    /// maximal static runs.
    pub fn new(stack: &SurfaceStack, f: Hertz) -> Self {
        Self::from_core(Arc::new(PlanCore::compile(stack, f, false)))
    }

    /// Wraps a shared compiled core with a fresh (empty) local front.
    fn from_core(core: Arc<PlanCore>) -> Self {
        let memos = core.tuned.iter().map(|_| TunedMemo::default()).collect();
        Self {
            core,
            memos,
            misses: RefCell::default(),
        }
    }

    /// The frequency this plan was compiled for.
    pub fn frequency(&self) -> Hertz {
        self.core.f
    }

    /// Branch S-parameters of tuned panel `k` on `axis` at `v`: the
    /// local front when this instance has seen `v`, the core's store
    /// otherwise (see [`PlanCore::branch`]). The store is locked at the
    /// first miss and stays locked in `store` until the caller drops it,
    /// so a batch takes the lock at most once.
    fn axis_s<'c>(
        &'c self,
        store: &mut Option<MutexGuard<'c, PlanStore>>,
        k: usize,
        axis: Axis,
        v: f64,
    ) -> SParams {
        let bits = v.to_bits();
        let mut front = self.memos[k].axes[axis as usize].borrow_mut();
        if let Some(&(_, s)) = front.iter().find(|(b, _)| *b == bits) {
            return s;
        }
        let store = store.get_or_insert_with(|| self.core.store());
        let s = self.core.branch(store, k, axis, v);
        if front.len() < MEMO_CAP {
            front.push((bits, s));
        }
        s
    }

    /// X-branch S-parameters of tuned panel `k` at `v`.
    fn x_s(&self, k: usize, v: f64) -> SParams {
        self.axis_s(&mut None, k, Axis::X, v)
    }

    /// Y-branch S-parameters of tuned panel `k` at `v`.
    fn y_s(&self, k: usize, v: f64) -> SParams {
        self.axis_s(&mut None, k, Axis::Y, v)
    }

    /// Every tuned panel's branch S-parameters at every X voltage
    /// `vxs`, then at every Y voltage `vys` (see [`BranchTable`]), under
    /// at most one lock of the store.
    fn branch_table(&self, vxs: &[f64], vys: &[f64]) -> BranchTable {
        let panels = self.core.tuned.len();
        let mut params = Vec::with_capacity(panels * (vxs.len() + vys.len()));
        let mut store = None;
        for (axis, volts) in [(Axis::X, vxs), (Axis::Y, vys)] {
            for k in 0..panels {
                params.extend(volts.iter().map(|&v| self.axis_s(&mut store, k, axis, v)));
            }
        }
        BranchTable {
            nx: vxs.len(),
            ny: vys.len(),
            y_start: panels * vxs.len(),
            params,
        }
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
    /// Per-axis voltages are deduplicated batch-wide, then axis-aligned
    /// cascades (every catalog design) take the structure-of-arrays
    /// kernel: the chain state is kept in contiguous per-component `f64`
    /// slabs so static stages are broadcast 4×4 complex multiplies and
    /// tuned stages two-term diagonal updates — no per-cell transfer
    /// structs, autovectorizable. The kernel reproduces the per-cell
    /// fold's operation order, so results are bit-identical to
    /// [`StackEvaluator::eval_batch_reference`] (property-tested);
    /// rotated tuned panels, lone stages and tiny batches take the fold.
    pub fn eval_batch(&self, biases: &[BiasState]) -> Vec<Option<PolarizedS>> {
        self.eval_list(biases, true)
    }

    /// Appends the [`ResponseFactors`] of each applied bias in `cells`
    /// to `out`, in order — the fleet-serving batch entry point. Returns
    /// how many cells went to the cascade kernel; the rest were read
    /// from the store's cell memo.
    ///
    /// On a plan from a [`SharedPlanCache::new`] store, every cell is
    /// looked up in the memo under one lock of the store. The misses
    /// (duplicates in `cells` included) then run, deduplicated per axis,
    /// through the same dispatch as [`StackEvaluator::eval_batch`], with
    /// no lock held, and their factors are stored (up to 4096 cells per
    /// store) under a second lock. A plan of a private store
    /// ([`PlanCache::new`], [`StackEvaluator::new`]) keeps no memo and
    /// sends every cell to the kernel.
    ///
    /// A hit is bitwise the factors of
    /// [`StackEvaluator::eval_batch_reference`]'s response (NaN
    /// payloads aside, which the kernel and the fold need not share):
    /// each cell is evaluated independently of its batch, and the kernel
    /// and the per-cell fold agree bit for bit, so whichever handle
    /// evaluates a cell first, every handle reads the same bits. Keys
    /// are the bit patterns of the bias as given, so callers pass the
    /// bias the hardware applies (after clamping and faults).
    pub fn cell_factors_into(&self, cells: &[BiasState], out: &mut Vec<ResponseFactors>) -> usize {
        let f = self.core.f;
        let factors =
            move |r: Option<PolarizedS>| ResponseFactors::new(&SurfaceResponse::new(f, r));
        let base = out.len();
        let mut misses = self.misses.borrow_mut();
        let CellMisses { at, cells: table } = &mut *misses;
        if !self.core.cell_memo {
            table.refill(cells.iter().copied());
            out.resize(base + cells.len(), factors(None));
            self.eval_cells(
                &table.vxs,
                &table.vys,
                &table.cells,
                true,
                &mut out[base..],
                factors,
            );
            self.core.store().cells_evaluated += cells.len() as u64;
            return cells.len();
        }
        at.clear();
        let mut filler = None;
        {
            let store = self.core.store();
            for (i, cell) in cells.iter().enumerate() {
                out.push(match store.cells.get(&cell_key(cell)) {
                    Some(&hit) => store.factors[hit],
                    None => {
                        at.push(i);
                        *filler.get_or_insert_with(|| factors(None))
                    }
                });
            }
        }
        let Some(filler) = filler else {
            return 0;
        };
        // The misses are evaluated into slots past the list's own and
        // moved into place.
        table.refill(at.iter().map(|&i| cells[i]));
        let end = out.len();
        out.resize(end + at.len(), filler);
        let (listed, evaluated) = out.split_at_mut(end);
        self.eval_cells(
            &table.vxs,
            &table.vys,
            &table.cells,
            true,
            evaluated,
            factors,
        );
        let mut guard = self.core.store();
        let store = &mut *guard;
        // Grown once per call rather than insert by insert: a cold
        // store fills in a few large batches.
        let room = at.len().min(MEMO_CAP.saturating_sub(store.factors.len()));
        store.cells.reserve(room);
        store.factors.reserve(room);
        for (&i, &computed) in at.iter().zip(evaluated.iter()) {
            listed[base + i] = computed;
            if store.factors.len() < MEMO_CAP {
                if let Entry::Vacant(slot) = store.cells.entry(cell_key(&cells[i])) {
                    slot.insert(store.factors.len());
                    store.factors.push(computed);
                }
            }
        }
        store.cells_evaluated += at.len() as u64;
        out.truncate(end);
        at.len()
    }

    /// The per-cell reference batch path: folds a [`WaveTransfer`] per
    /// cell exactly like [`StackEvaluator::response`]. Kept public as
    /// the oracle the proptests pin the structure-of-arrays kernel
    /// against, bit for bit.
    pub fn eval_batch_reference(&self, biases: &[BiasState]) -> Vec<Option<PolarizedS>> {
        self.eval_list(biases, false)
    }

    /// Deduplicates `biases` and runs them through [`Self::eval_cells`].
    fn eval_list(&self, biases: &[BiasState], soa: bool) -> Vec<Option<PolarizedS>> {
        let cells = BiasCells::new(biases.iter().copied());
        let mut out = vec![None; cells.len()];
        self.eval_cells(&cells.vxs, &cells.vys, &cells.cells, soa, &mut out, |r| r);
        out
    }

    /// Evaluates the response over a bias grid, row-major with rows
    /// indexed by `vys` (cell `[iy·len(vxs) + ix]` holds the response at
    /// `(vxs[ix], vys[iy])`) — the layout of Table 1. The identity case
    /// of [`StackEvaluator::eval_grid_map`]; bit-identical to
    /// [`StackEvaluator::eval_batch_reference`] over the same cells.
    pub fn eval_grid(&self, vxs: &[f64], vys: &[f64]) -> Vec<Option<PolarizedS>> {
        self.eval_grid_map(vxs, vys, |r| r)
    }

    /// Evaluates the response over a bias grid and maps each cell's
    /// response through `map` as it leaves the kernel, row-major with
    /// rows indexed by `vys`: cell `[iy·len(vxs) + ix]` holds `map` of
    /// the response at `(vxs[ix], vys[iy])`, the layout of the Figure
    /// 15/21 heatmaps. A heatmap projects each cell onto its link here,
    /// so the projections share the grid's fan-out and no response grid
    /// is ever materialized.
    ///
    /// Each tuned panel's branches are evaluated once per axis voltage
    /// (`O(T)` instead of `O(T²)` ABCD solves). The cells then run
    /// through the same dispatch as [`StackEvaluator::eval_batch`] — the
    /// structure-of-arrays kernel for axis-aligned plans, the per-cell
    /// fold for rotated, lone or tiny plans — fanned out up to the
    /// caller's [`rfmath::par::budget`] workers (the caller among them)
    /// when the grid is large enough to amortize thread spawn. Grid cells
    /// already index the axis tables, so no deduplication pass runs.
    /// Each cell's response is computed and mapped in the same
    /// operation order at every budget, so the output equals
    /// [`StackEvaluator::eval_grid`] followed by `map`, bit for bit.
    pub fn eval_grid_map<T, F>(&self, vxs: &[f64], vys: &[f64], map: F) -> Vec<T>
    where
        T: Default + Send,
        F: Fn(Option<PolarizedS>) -> T + Sync,
    {
        let cells: Vec<(usize, usize)> = (0..vys.len())
            .flat_map(|iy| (0..vxs.len()).map(move |ix| (ix, iy)))
            .collect();
        let mut out = Vec::new();
        out.resize_with(cells.len(), T::default);
        self.eval_cells(vxs, vys, &cells, true, &mut out, map);
        out
    }

    /// The one batch dispatch behind every batch entry point: evaluates
    /// each `(ix, iy)` of `cells` at `(vxs[ix], vys[iy])` and writes its
    /// response, mapped through `map`, into the matching slot of `out`.
    /// `soa` admits the structure-of-arrays kernel for eligible plans;
    /// everything else — the reference arm, rotated tuned panels, lone
    /// stages, tiny batches — folds a [`WaveTransfer`] per cell exactly
    /// like [`StackEvaluator::response`].
    fn eval_cells<T, F>(
        &self,
        vxs: &[f64],
        vys: &[f64],
        cells: &[(usize, usize)],
        soa: bool,
        out: &mut [T],
        map: F,
    ) where
        T: Send,
        F: Fn(Option<PolarizedS>) -> T + Sync,
    {
        assert_eq!(out.len(), cells.len(), "one output slot per cell");
        let core = &*self.core;
        if cells.is_empty() || core.opaque {
            out.fill_with(|| map(None));
            return;
        }
        if let Some(lone) = &core.lone {
            for (slot, &(ix, iy)) in out.iter_mut().zip(cells) {
                *slot = map(Some(self.lone_stage(lone, vxs[ix], vys[iy])));
            }
            return;
        }

        // O(distinct voltages) setup: per-axis branch solves (memoized).
        let branches = self.branch_table(vxs, vys);
        let threads = if cells.len() < 256 {
            1
        } else {
            rfmath::par::budget()
        };

        if soa && cells.len() >= SOA_MIN_BATCH && self.soa_eligible() {
            // The scalar wave transfers are assembled per cell in the
            // kernel — the fold couples the two axes through one shared
            // `det(S21) = s21x·s21y` inverse, and reproducing that exact
            // operation order is what keeps the kernel bit-compatible.
            let ctx = SoaCtx {
                steps: &core.steps,
                statics: &core.static_components,
                branches: &branches,
                cells,
                z0: core.statics.first().map(|t| t.z0()).unwrap_or(ETA0),
            };
            rfmath::par::par_fill_chunked(out, threads, |offset, chunk| {
                soa_fill(&ctx, offset, chunk, &map)
            });
            return;
        }

        let fold = |(ix, iy): (usize, usize)| {
            let mut acc: Option<WaveTransfer> = None;
            for step in &core.steps {
                let t = match step {
                    Step::Static(k) => core.statics[*k],
                    Step::Tuned(k) => tuned_transfer(
                        branches.x(*k, ix),
                        branches.y(*k, iy),
                        core.tuned[*k].rotation,
                    )?,
                };
                match acc.as_mut() {
                    Some(acc) => acc.push(&t),
                    None => acc = Some(t),
                }
            }
            acc?.to_s()
        };
        rfmath::par::par_fill(out, threads, |i| map(fold(cells[i])));
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

/// Every tuned panel's branch S-parameters at every distinct voltage of
/// a batch, in one table: X entries first (panel-major, `k · nx + ix`),
/// then Y entries (`panels · nx + k · ny + iy`).
struct BranchTable {
    nx: usize,
    ny: usize,
    y_start: usize,
    params: Vec<SParams>,
}

impl BranchTable {
    /// Panel `k`'s X branch at X voltage index `ix`.
    #[inline]
    fn x(&self, k: usize, ix: usize) -> SParams {
        self.params[k * self.nx + ix]
    }

    /// Panel `k`'s Y branch at Y voltage index `iy`.
    #[inline]
    fn y(&self, k: usize, iy: usize) -> SParams {
        self.params[self.y_start + k * self.ny + iy]
    }
}

/// A bias list reduced to what the batch kernels read: per-axis tables
/// of the distinct voltages (by bit pattern) and each bias's `(ix, iy)`
/// indices into them, in list order. Every distinct voltage then costs
/// one ABCD solve per tuned panel, however many biases share it.
#[derive(Clone, Debug, Default)]
struct BiasCells {
    vxs: Vec<f64>,
    vys: Vec<f64>,
    cells: Vec<(usize, usize)>,
}

impl BiasCells {
    /// Deduplicates `biases` per axis, keeping first-seen order.
    fn new(biases: impl IntoIterator<Item = BiasState>) -> Self {
        let mut cells = Self::default();
        cells.refill(biases);
        cells
    }

    /// Replaces the list with `biases`, reusing the tables' storage.
    fn refill(&mut self, biases: impl IntoIterator<Item = BiasState>) {
        let biases = biases.into_iter();
        let n = biases.size_hint().0;
        let Self { vxs, vys, cells } = self;
        for table in [&mut *vxs, &mut *vys] {
            table.clear();
            table.reserve(n);
        }
        cells.clear();
        cells.reserve(n);
        let index_of = |table: &mut Vec<f64>, v: f64| -> usize {
            match table.iter().position(|&u| u.to_bits() == v.to_bits()) {
                Some(i) => i,
                None => {
                    table.push(v);
                    table.len() - 1
                }
            }
        };
        cells.extend(biases.map(|b| (index_of(vxs, b.vx.0), index_of(vys, b.vy.0))));
    }

    /// Number of biases.
    fn len(&self) -> usize {
        self.cells.len()
    }
}

/// Shared read-only context for the structure-of-arrays kernel: the
/// compiled steps, static stages flattened to row-major 4×4 complex
/// components, per-panel per-voltage axis S-parameters, and each cell's
/// voltage-table indices.
struct SoaCtx<'a> {
    steps: &'a [Step],
    statics: &'a [[Complex; 16]],
    branches: &'a BranchTable,
    cells: &'a [(usize, usize)],
    z0: f64,
}

/// One slab set of the structure-of-arrays kernel: `rows` slabs of
/// `w` cells each, cell index innermost.
struct Slabs<'a> {
    w: usize,
    data: &'a mut [f64],
}

impl<'a> Slabs<'a> {
    /// Splits `rows · w` values off the front of `buf`.
    #[inline]
    fn take(buf: &mut &'a mut [f64], rows: usize, w: usize) -> Self {
        let (data, rest) = std::mem::take(buf).split_at_mut(rows * w);
        *buf = rest;
        Self { w, data }
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.w..(r + 1) * self.w]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.w..(r + 1) * self.w]
    }
}

/// Fills one worker's contiguous range in L1-sized blocks, mapping each
/// cell's response through `map` as its block finishes. The working
/// slabs are allocated once per range and only as wide as its largest
/// block, so a grid of a few cells does not clear a full block's worth.
fn soa_fill<T>(ctx: &SoaCtx, offset: usize, out: &mut [T], map: &impl Fn(Option<PolarizedS>) -> T) {
    let w = out.len().min(SOA_BLOCK);
    // 16 re + 16 im chain components, the same for the next state, and
    // 8 re + 8 im gathered per-axis transfers.
    let mut slab_data = vec![0.0f64; 80 * w];
    let mut start = 0;
    while start < out.len() {
        let m = (out.len() - start).min(w);
        let mut buf = slab_data.as_mut_slice();
        let slabs = [16, 16, 16, 16, 8, 8].map(|rows| Slabs::take(&mut buf, rows, w));
        soa_block(ctx, offset + start, &mut out[start..start + m], slabs, map);
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
/// axis with no struct hops — the autovectorizable shape. Every slab a
/// step reads was written earlier in the same block, so the slabs
/// carry nothing between blocks. Each cell's response goes through
/// `map` straight into its slot. A non-identity map instantiates the
/// kernel in the caller's crate, so the slab and branch-table accessors
/// it calls are `#[inline]`: without that, the serial 31×31 heatmap
/// ran 10–20% slower on a 2-vCPU host.
#[allow(clippy::needless_range_loop)]
fn soa_block<T>(
    ctx: &SoaCtx,
    offset: usize,
    out: &mut [T],
    slabs: [Slabs; 6],
    map: &impl Fn(Option<PolarizedS>) -> T,
) {
    let m = out.len();
    let [mut acc_re, mut acc_im, mut nxt_re, mut nxt_im, mut g_re, mut g_im] = slabs;
    // Gathered per-axis transfers for the current tuned step: slabs
    // 0..4 hold the X axis's [t11, t12, t21, t22], 4..8 the Y axis's.
    let mut valid = [true; SOA_BLOCK];
    let mut first = true;

    for step in ctx.steps {
        match *step {
            Step::Static(k) => {
                let b = &ctx.statics[k];
                if first {
                    for comp in 0..16 {
                        acc_re.row_mut(comp)[..m].fill(b[comp].re);
                        acc_im.row_mut(comp)[..m].fill(b[comp].im);
                    }
                } else {
                    for r in 0..4 {
                        for c in 0..4 {
                            let o = r * 4 + c;
                            let (b0, b1, b2, b3) = (b[c], b[4 + c], b[8 + c], b[12 + c]);
                            let (a0r, a0i) = (&acc_re.row(r * 4)[..m], &acc_im.row(r * 4)[..m]);
                            let (a1r, a1i) =
                                (&acc_re.row(r * 4 + 1)[..m], &acc_im.row(r * 4 + 1)[..m]);
                            let (a2r, a2i) =
                                (&acc_re.row(r * 4 + 2)[..m], &acc_im.row(r * 4 + 2)[..m]);
                            let (a3r, a3i) =
                                (&acc_re.row(r * 4 + 3)[..m], &acc_im.row(r * 4 + 3)[..m]);
                            let nr = &mut nxt_re.row_mut(o)[..m];
                            let ni = &mut nxt_im.row_mut(o)[..m];
                            for i in 0..m {
                                let p0r = a0r[i] * b0.re - a0i[i] * b0.im;
                                let p0i = a0r[i] * b0.im + a0i[i] * b0.re;
                                let p1r = a1r[i] * b1.re - a1i[i] * b1.im;
                                let p1i = a1r[i] * b1.im + a1i[i] * b1.re;
                                let p2r = a2r[i] * b2.re - a2i[i] * b2.im;
                                let p2i = a2r[i] * b2.im + a2i[i] * b2.re;
                                let p3r = a3r[i] * b3.re - a3i[i] * b3.im;
                                let p3i = a3r[i] * b3.im + a3i[i] * b3.re;
                                nr[i] = (p0r + p1r) + (p2r + p3r);
                                ni[i] = (p0i + p1i) + (p2i + p3i);
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
                    let sx = &ctx.branches.x(k, ix);
                    let sy = &ctx.branches.y(k, iy);
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
                        g_re.row_mut(j)[i] = tx[j].re;
                        g_im.row_mut(j)[i] = tx[j].im;
                        g_re.row_mut(4 + j)[i] = ty[j].re;
                        g_im.row_mut(4 + j)[i] = ty[j].im;
                    }
                }
                if first {
                    // The tuned matrix itself: nonzero only where the
                    // sub-row parity matches the sub-column parity; the
                    // other components are exact zeros.
                    for r in 0..4 {
                        for c in 0..4 {
                            let o = r * 4 + c;
                            if r % 2 != c % 2 {
                                acc_re.row_mut(o)[..m].fill(0.0);
                                acc_im.row_mut(o)[..m].fill(0.0);
                                continue;
                            }
                            let t = (c % 2) * 4 + (r / 2) * 2 + c / 2;
                            acc_re.row_mut(o)[..m].copy_from_slice(&g_re.row(t)[..m]);
                            acc_im.row_mut(o)[..m].copy_from_slice(&g_im.row(t)[..m]);
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
                        let (g0r, g0i) = (&g_re.row(t0)[..m], &g_im.row(t0)[..m]);
                        let (g1r, g1i) = (&g_re.row(t1)[..m], &g_im.row(t1)[..m]);
                        for r in 0..4 {
                            let o = r * 4 + c;
                            let (s0r, s0i) =
                                (&acc_re.row(r * 4 + a0)[..m], &acc_im.row(r * 4 + a0)[..m]);
                            let (s1r, s1i) =
                                (&acc_re.row(r * 4 + a1)[..m], &acc_im.row(r * 4 + a1)[..m]);
                            let nr = &mut nxt_re.row_mut(o)[..m];
                            let ni = &mut nxt_im.row_mut(o)[..m];
                            for i in 0..m {
                                let p0r = s0r[i] * g0r[i] - s0i[i] * g0i[i];
                                let p0i = s0r[i] * g0i[i] + s0i[i] * g0r[i];
                                let p1r = s1r[i] * g1r[i] - s1i[i] * g1i[i];
                                let p1i = s1r[i] * g1i[i] + s1i[i] * g1r[i];
                                nr[i] = p0r + p1r;
                                ni[i] = p0i + p1i;
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
        *slot = map(if valid[i] {
            let mut comps = [Complex::ZERO; 16];
            for (c, comp) in comps.iter_mut().enumerate() {
                *comp = Complex::new(acc_re.row(c)[i], acc_im.row(c)[i]);
            }
            WaveTransfer::from_components(comps, ctx.z0).to_s()
        } else {
            None
        });
    }
}

/// The shared, thread-safe compilation store behind [`PlanCache`]
/// handles: one mutex-guarded table of compiled cores per surface
/// stack, each core owning the branch S-parameters solved on it and
/// the probe factors of the cells evaluated on it.
///
/// The table's mutex is cold by construction — a worker shard takes it
/// only on a local-handle miss (first sighting of a frequency on that
/// shard), holds it for a table lookup or one compilation, and never
/// touches it on the probe hot path. K panels × N fleets across W
/// shards therefore compile each `(stack, frequency)` plan at most once
/// process-wide without serializing steady-state serving. A core's
/// branch store is consulted only when a handle's local front misses a
/// voltage, so a fresh handle over a warm store solves no branch at
/// all: it pays one brief lock per batch that holds voltages it has
/// not yet seen. Its cell memo answers a whole fleet batch under one
/// lock ([`StackEvaluator::cell_factors_into`]). So a store never
/// compiles a plan twice, and never solves again a branch or evaluates
/// again a cell that it holds. Two handles that miss the same cell at
/// the same time may each evaluate it (the same bits, each counted in
/// [`SharedPlanCache::cells_evaluated`]), and branches and cells past a
/// memo's 4096 entries are computed on every request.
///
/// Only a store made by [`SharedPlanCache::new`] keeps the cell memo.
/// The private store of [`PlanCache::new`] (one room run, one
/// schedule) shares its compilations and branch memos between its own
/// plans but sends every cell to the kernel.
#[derive(Debug)]
pub struct SharedPlanCache {
    stack: SurfaceStack,
    master: Mutex<Vec<Arc<PlanCore>>>,
    /// Whether the cores compiled here keep a cell memo.
    cell_memo: bool,
}

impl SharedPlanCache {
    /// An empty shared store for one surface stack, with a cell memo.
    pub fn new(stack: &SurfaceStack) -> Self {
        Self::with_cell_memo(stack, true)
    }

    /// An empty store for one surface stack, keeping a cell memo when
    /// `cell_memo` is set.
    fn with_cell_memo(stack: &SurfaceStack, cell_memo: bool) -> Self {
        Self {
            stack: stack.clone(),
            master: Mutex::new(Vec::new()),
            cell_memo,
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
        let core = Arc::new(PlanCore::compile(&self.stack, f, self.cell_memo));
        master.push(Arc::clone(&core));
        core
    }

    /// Number of distinct frequencies compiled process-wide.
    pub fn compiled_count(&self) -> usize {
        self.master.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Branch solves (one per-axis ABCD solve of one tuned panel at one
    /// voltage) run on this store's cores, over every handle. A handle
    /// that finds every voltage in the store adds none.
    pub fn branch_solves(&self) -> u64 {
        self.sum_over_cores(|store| store.solves)
    }

    /// Cells the cascade kernel evaluated for
    /// [`StackEvaluator::cell_factors_into`] on this store's plans (the
    /// cell-memo misses), over every handle. A batch whose cells are all
    /// in the memo adds none; on a private store every cell counts.
    pub fn cells_evaluated(&self) -> u64 {
        self.sum_over_cores(|store| store.cells_evaluated)
    }

    /// `count` of every compiled core's store, summed.
    fn sum_over_cores(&self, count: impl Fn(&PlanStore) -> u64) -> u64 {
        let master = self.master.lock().unwrap_or_else(|e| e.into_inner());
        master.iter().map(|core| count(&core.store())).sum()
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
/// and wraps the core with a thread-local memo front. The front misses
/// only on a voltage this handle has not seen; the core's branch store
/// then answers it, and solves it only if no handle has. A fleet batch
/// reads every cell's probe factors from the core's cell memo, and only
/// cells the memo lacks reach the kernel. So sharded fleet serving
/// never compiles the same plan twice, never solves again a branch or
/// evaluates again a cell the store holds, and does not contend on the
/// probe path (handles that miss one cell at the same time may each
/// evaluate it; see [`SharedPlanCache`]).
/// `PlanCache::new` creates a private store, so a single-threaded
/// caller shares nothing with anyone; a private store keeps no cell
/// memo.
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
        Arc::new(SharedPlanCache::with_cell_memo(stack, false)).handle()
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

    /// Every response component's bit pattern, so two batches compare
    /// bit for bit (`-0.0` and `NaN` included).
    fn bits(batch: &[Option<PolarizedS>]) -> Vec<Option<Vec<u64>>> {
        batch
            .iter()
            .map(|s| {
                s.map(|s| {
                    let parts = [s.s11, s.s12, s.s21, s.s22]
                        .into_iter()
                        .flat_map(|m| [m.a, m.b, m.c, m.d])
                        .flat_map(|c| [c.re, c.im]);
                    parts.chain([s.z0]).map(f64::to_bits).collect()
                })
            })
            .collect()
    }

    #[test]
    fn large_grid_takes_threaded_path_and_matches() {
        // 31×31 exceeds the sequential cutoff; a budget of four runs the
        // kernel's fan-out even on single-core hosts, and it must agree
        // with the serial budget bitwise and with the naive path.
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let volts: Vec<f64> = (0..31).map(|i| i as f64).collect();
        let grid = rfmath::par::with_budget(4, || ev.eval_grid(&volts, &volts));
        let serial = rfmath::par::with_budget(1, || ev.eval_grid(&volts, &volts));
        assert_eq!(bits(&grid), bits(&serial));
        for (i, cell) in grid.iter().enumerate() {
            let (ix, iy) = (i % 31, i / 31);
            let naive = design
                .stack
                .response(F, BiasState::new(volts[ix], volts[iy]))
                .unwrap();
            assert!(max_diff(naive, cell.unwrap()) < 1e-12, "cell {i}");
        }
    }

    #[test]
    fn uneven_row_chunks_cover_every_cell() {
        // 3 workers over 400 cells (chunks of 134, 134, 132) — exercises
        // the remainder chunk of the fan-out.
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let vxs: Vec<f64> = (0..20).map(|i| 1.5 * i as f64).collect();
        let vys = vxs.clone();
        let threaded = rfmath::par::with_budget(3, || ev.eval_grid(&vxs, &vys));
        let sequential = rfmath::par::with_budget(1, || ev.eval_grid(&vxs, &vys));
        assert_eq!(threaded.len(), 400);
        assert!(threaded.iter().all(Option::is_some));
        assert_eq!(bits(&threaded), bits(&sequential));
    }

    #[test]
    fn grid_map_on_fold_plans_equals_grid_then_map() {
        // Rotated tuned panels and a lone tuned panel take the per-cell
        // fold, not the kernel. 20×20 cells cross the fan-out threshold,
        // so at a budget of three the rotated plan maps on spawned
        // workers as well as on the caller. Either way the mapped grid
        // must equal the grid mapped afterwards.
        let mut rotated = fr4_optimized().stack;
        for panel in &mut rotated.panels {
            if panel.sheet.x.is_tuned() || panel.sheet.y.is_tuned() {
                panel.rotation = Radians(0.3);
            }
        }
        let tuned = rotated.panels.iter().find(|p| p.sheet.x.is_tuned());
        let lone = SurfaceStack::new(vec![tuned.unwrap().clone()], vec![]);
        let vxs: Vec<f64> = (0..20).map(|i| 1.5 * i as f64).collect();
        let vys: Vec<f64> = vxs.iter().map(|v| 30.0 - v).collect();
        let cell_bits = |r: Option<PolarizedS>| bits(&[r]).pop().flatten();
        for stack in [&rotated, &lone] {
            let ev = StackEvaluator::new(stack, F);
            assert!(!ev.soa_eligible());
            for threads in [1, 3] {
                let (mapped, grid) = rfmath::par::with_budget(threads, || {
                    (
                        ev.eval_grid_map(&vxs, &vys, cell_bits),
                        ev.eval_grid(&vxs, &vys),
                    )
                });
                assert_eq!(mapped.len(), 400);
                assert!(mapped.iter().all(Option::is_some));
                let then_mapped: Vec<_> = grid.into_iter().map(cell_bits).collect();
                assert_eq!(mapped, then_mapped, "budget {threads}");
            }
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
    fn soa_batch_matches_the_per_cell_fold() {
        // The structure-of-arrays fast path against the per-cell fold,
        // across every catalog design and a batch long enough to cover
        // multiple kernel blocks (including a ragged tail).
        for design in [fr4_optimized(), rogers_reference(), fr4_naive()] {
            let ev = StackEvaluator::new(&design.stack, F);
            let biases: Vec<BiasState> = (0..150)
                .map(|i| BiasState::new((i % 13) as f64 * 2.3, (i % 7) as f64 * 4.1))
                .collect();
            assert!(ev.soa_eligible(), "{}", design.name);
            let soa = ev.eval_batch(&biases);
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
        // 300 biases cross the 256-bias fan-out threshold, so a budget of
        // four runs both batch kernels threaded on any host; each must
        // match its serial run bitwise, and the naive path.
        let design = fr4_optimized();
        let ev = StackEvaluator::new(&design.stack, F);
        let biases: Vec<BiasState> = (0..300)
            .map(|i| BiasState::new((i % 17) as f64 * 1.7, (i % 23) as f64 * 1.3))
            .collect();
        assert!(ev.soa_eligible());
        let run = |threads: usize| {
            rfmath::par::with_budget(threads, || {
                (ev.eval_batch(&biases), ev.eval_batch_reference(&biases))
            })
        };
        let (soa_serial, reference_serial) = run(1);
        let (soa, reference) = run(4);
        assert_eq!(bits(&soa), bits(&soa_serial));
        assert_eq!(bits(&reference), bits(&reference_serial));
        for (b, fast) in biases.iter().zip(&soa) {
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
        // Distinct per-handle evaluators (thread-local memo fronts) over
        // the same core → bit-identical answers. The first handle solves
        // each tuned panel's two branches once; the second finds them in
        // the core's store and solves none.
        assert!(!Rc::ptr_eq(&p1, &p2));
        assert!(Arc::ptr_eq(&p1.core, &p2.core));
        let r1 = p1.response(bias).unwrap();
        assert_eq!(shared.branch_solves(), 2 * 2);
        assert_eq!(max_diff(r1, p2.response(bias).unwrap()), 0.0);
        assert_eq!(shared.branch_solves(), 2 * 2);

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
