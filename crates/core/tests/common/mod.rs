//! Oracles shared by the `llama-core` property tests.

use control::controller::Objective;
use llama_core::fleet::{Fleet, PowerRow};
use metasurface::response::Metasurface;
use metasurface::stack::BiasState;
use rfmath::units::Dbm;

/// The naive per-device loop: every device deploys its own
/// [`Metasurface`] and rebuilds its link per probe, through public API
/// only. `result[b][d]` is device `d`'s power under `biases[b]`; the
/// shared-plan batch path must match it bit for bit.
pub fn naive_powers_matrix(fleet: &Fleet, biases: &[BiasState]) -> Vec<Vec<f64>> {
    let mut rows = vec![Vec::with_capacity(fleet.len()); biases.len()];
    for device in fleet.devices() {
        let mut surface = Metasurface::new(fleet.design.clone());
        for (row, &bias) in rows.iter_mut().zip(biases) {
            surface.set_bias(bias);
            row.push(device.scenario.link().received_dbm(Some(&surface)).0);
        }
    }
    rows
}

/// The dBm-path oracle of a shared-bias objective: convert every entry
/// of a linear (milliwatt) row, then score the converted row. The
/// fleet search scores linear rows directly; the two must agree bit for
/// bit.
#[allow(dead_code)]
pub fn dbm_path_score(objective: &Objective, row_mw: &[f64]) -> Option<f64> {
    let dbm: Vec<f64> = row_mw.iter().map(|&p| Dbm::from_mw(p).0).collect();
    objective.score(&dbm)
}

/// The dBm-path oracle of time division's per-device winner: convert
/// device `d`'s column entry by entry and keep `max_by(total_cmp)` (the
/// last of equal maxima), as the schedule did before it read linear
/// rows.
#[allow(dead_code)]
pub fn dbm_path_winner(history: &[(BiasState, PowerRow)], d: usize) -> (BiasState, f64) {
    history
        .iter()
        .map(|(bias, row)| (*bias, Dbm::from_mw(row.mw()[d]).0))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty history")
}
