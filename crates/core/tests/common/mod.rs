//! Oracles shared by the `llama-core` property tests.

use llama_core::fleet::Fleet;
use metasurface::response::Metasurface;
use metasurface::stack::BiasState;

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
