//! # llama_bench — regeneration harness for every table and figure
//!
//! One `print_*` function per published result: each runs the
//! corresponding typed experiment from [`llama_core::experiments`] and
//! renders the same rows/series the paper reports, plus the shape checks
//! EXPERIMENTS.md records (who wins, by roughly what factor, where
//! crossovers fall). The `expts` binary dispatches on experiment id;
//! the Criterion benches time the same runners.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc_counter;
pub mod calibrate;
pub mod chaos;
pub mod cli;
pub mod joint;
pub mod matrix;
pub mod perf;
pub mod report;
pub mod scenario;
pub mod trace;

use llama_core::experiments as ex;
use llama_core::render;

/// Default seed used by the regeneration harness (any seed works; this
/// one matches EXPERIMENTS.md).
pub const SEED: u64 = 2021;

/// All experiment ids in paper order.
pub const ALL_IDS: [&str; 18] = [
    "fig2a", "fig2b", "fig8", "fig9", "fig10", "fig11", "table1", "fig12", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "alg1",
];

/// Builds zoo room `name` under `seed`; `Err` on an unknown name,
/// listing the catalog.
pub fn room(name: &str, seed: u64) -> Result<llama_core::rooms::RoomScenario, String> {
    llama_core::rooms::build(name, seed).ok_or_else(|| {
        format!(
            "unknown scenario {name:?}; known scenarios: {}",
            llama_core::rooms::SCENARIOS.join(", ")
        )
    })
}

/// Runs one experiment by id and returns its printed report.
///
/// Unknown ids return an error listing the known ones.
pub fn run(id: &str) -> Result<String, String> {
    match id {
        "fig2a" => Ok(print_fig2a()),
        "fig2b" => Ok(print_fig2b()),
        "fig8" => Ok(print_design(8)),
        "fig9" => Ok(print_design(9)),
        "fig10" => Ok(print_design(10)),
        "fig11" => Ok(print_fig11()),
        "table1" => Ok(print_table1()),
        "fig12" => Ok(print_fig12()),
        "fig15" => Ok(print_fig15()),
        "fig16" => Ok(print_fig16()),
        "fig17" => Ok(print_fig17()),
        "fig18" => Ok(print_fig18()),
        "fig19" => Ok(print_fig19()),
        "fig20" => Ok(print_fig20()),
        "fig21" => Ok(print_fig21()),
        "fig22" => Ok(print_fig22()),
        "fig23" => Ok(print_fig23()),
        "alg1" => Ok(print_alg1()),
        other => Err(format!(
            "unknown experiment {other:?}; known ids: {}",
            ALL_IDS.join(", ")
        )),
    }
}

/// Figure 2(a): Wi-Fi RSSI distributions under match/mismatch.
pub fn print_fig2a() -> String {
    let d = ex::fig2a(SEED, 4000);
    let mut out = String::new();
    out.push_str(&render::histogram_chart(
        "Figure 2a — Wi-Fi RSSI, matched mounts",
        &d.hist_a,
        40,
    ));
    out.push_str(&render::histogram_chart(
        "Figure 2a — Wi-Fi RSSI, mismatched mounts",
        &d.hist_b,
        40,
    ));
    out.push_str(&render::metric(
        "mode gap (paper: ~10 dB)",
        d.mode_gap_db,
        "dB",
    ));
    out
}

/// Figure 2(b): BLE RSSI distributions under match/mismatch.
pub fn print_fig2b() -> String {
    let d = ex::fig2b(SEED, 4000);
    let mut out = String::new();
    out.push_str(&render::histogram_chart(
        "Figure 2b — BLE RSSI, matched mounts",
        &d.hist_a,
        40,
    ));
    out.push_str(&render::histogram_chart(
        "Figure 2b — BLE RSSI, mismatched mounts",
        &d.hist_b,
        40,
    ));
    out.push_str(&render::metric(
        "mode gap (paper: ~10 dB)",
        d.mode_gap_db,
        "dB",
    ));
    out
}

/// Figures 8/9/10: design efficiency curves.
pub fn print_design(which: u8) -> String {
    let curves = match which {
        8 => ex::fig8(81),
        9 => ex::fig9(81),
        _ => ex::fig10(81),
    };
    let xs: Vec<f64> = curves.x_trace.freqs.iter().map(|f| f.ghz()).collect();
    let mut out = render::series_table(
        &format!("Figure {which} — S21 efficiency, {}", curves.name),
        "GHz",
        &[
            ("x-pol eff (dB)", &curves.x_trace.values_db),
            ("y-pol eff (dB)", &curves.y_trace.values_db),
        ],
        &xs,
    );
    out.push_str(&render::metric(
        "worst in-band (2.4-2.5 GHz)",
        curves.worst_in_band_db,
        "dB",
    ));
    out
}

/// Figure 11: bias-dependent efficiency family.
pub fn print_fig11() -> String {
    let fam = ex::fig11(81);
    let xs: Vec<f64> = fam.traces[0].freqs.iter().map(|f| f.ghz()).collect();
    let labels: Vec<String> = fam
        .vy_values
        .iter()
        .map(|v| format!("Vy={v:.0}V (dB)"))
        .collect();
    let columns: Vec<(&str, &[f64])> = labels
        .iter()
        .map(|s| s.as_str())
        .zip(fam.traces.iter().map(|t| t.values_db.as_slice()))
        .collect();
    let mut out = render::series_table(
        "Figure 11 — S21 efficiency under bias combinations (x-pol)",
        "GHz",
        &columns,
        &xs,
    );
    out.push_str(&render::metric(
        "worst in-band (paper: > -8 dB)",
        fam.worst_in_band_db,
        "dB",
    ));
    out
}

/// Table 1: simulated vs published rotation grid.
pub fn print_table1() -> String {
    let t = ex::table1();
    let volts = t.simulated.voltages().to_vec();
    let mut out = String::new();
    out.push_str("== Table 1 — simulated rotation degrees θr(Vx, Vy)\n");
    out.push_str("        Vx →");
    for v in &volts {
        out.push_str(&format!("{v:>8.0}"));
    }
    out.push('\n');
    let flat = t.simulated.flat();
    let n = volts.len();
    for (iy, vy) in volts.iter().enumerate() {
        out.push_str(&format!("Vy {vy:>5.0} |"));
        for ix in 0..n {
            out.push_str(&format!("{:>8.1}", flat[iy * n + ix]));
        }
        out.push('\n');
    }
    let (lo, hi) = t.simulated.magnitude_range();
    out.push_str(&render::metric(
        "simulated |θr| min",
        lo.0,
        "° (paper: 1.9°)",
    ));
    out.push_str(&render::metric(
        "simulated |θr| max",
        hi.0,
        "° (paper: 48.7°)",
    ));
    out.push_str(&render::metric(
        "range overlap vs paper",
        t.range_overlap,
        "",
    ));
    out.push_str(&render::metric(
        "Spearman rho vs paper grid",
        t.spearman_rho,
        "",
    ));
    out
}

/// Figure 12: rotation-angle estimation procedure.
pub fn print_fig12() -> String {
    let est = ex::fig12(SEED);
    let mut out = String::from("== Figure 12 — rotation-angle estimation (§3.4)\n");
    out.push_str(&render::metric("theta0 (co-aligned)", est.theta0.0, "°"));
    out.push_str(&render::metric(
        "min rotation (paper: ~4.8°)",
        est.min_rotation.0,
        "°",
    ));
    out.push_str(&render::metric(
        "max rotation (paper: ~45.1°)",
        est.max_rotation.0,
        "°",
    ));
    out.push_str(&format!(
        "Vmin = ({:.0} V, {:.0} V)   Vmax = ({:.0} V, {:.0} V)\n",
        est.v_min.0 .0, est.v_min.1 .0, est.v_max.0 .0, est.v_max.1 .0
    ));
    out
}

/// Figure 15: transmissive heatmaps + rotation range vs distance.
pub fn print_fig15() -> String {
    let f = ex::fig15(SEED, 13);
    let mut out = String::new();
    for map in &f.heatmaps {
        out.push_str(&render::heatmap(
            &format!("Figure 15 — Rx power heatmap @ {} cm", map.distance_cm),
            &map.volts,
            &map.power_dbm,
        ));
        out.push_str(&format!(
            "   best bias: Vx={:.1} V Vy={:.1} V, spread {:.1} dB\n",
            map.best_bias.vx.0, map.best_bias.vy.0, map.spread_db
        ));
    }
    let xs: Vec<f64> = ex::FIG15_DISTANCES_CM.to_vec();
    let mins: Vec<f64> = f.rotation_min_max_deg.iter().map(|(a, _)| *a).collect();
    let maxs: Vec<f64> = f.rotation_min_max_deg.iter().map(|(_, b)| *b).collect();
    out.push_str(&render::series_table(
        "Figure 15h — rotation range vs distance (paper: 3-45°)",
        "cm",
        &[("min rot (°)", &mins), ("max rot (°)", &maxs)],
        &xs,
    ));
    out
}

/// Figure 16: transmissive power vs distance.
pub fn print_fig16() -> String {
    let f = ex::fig16(SEED);
    let mut out = render::series_table(
        "Figure 16 — received power vs distance (transmissive, mismatch)",
        "cm",
        &[
            ("with surface (dBm)", &f.with_surface_dbm),
            ("without (dBm)", &f.without_surface_dbm),
        ],
        &f.x_values,
    );
    out.push_str(&render::metric(
        "max improvement (paper: up to 15 dB)",
        f.max_improvement_db,
        "dB",
    ));
    out
}

/// Figure 17: power vs operating frequency.
pub fn print_fig17() -> String {
    let f = ex::fig17(SEED);
    let mut out = render::series_table(
        "Figure 17 — received power vs frequency (2.40-2.50 GHz)",
        "GHz",
        &[
            ("with surface (dBm)", &f.with_surface_dbm),
            ("without (dBm)", &f.without_surface_dbm),
        ],
        &f.x_values,
    );
    let min_gain = f
        .with_surface_dbm
        .iter()
        .zip(&f.without_surface_dbm)
        .map(|(w, wo)| w - wo)
        .fold(f64::INFINITY, f64::min);
    out.push_str(&render::metric(
        "min improvement across band (paper: > 10 dB)",
        min_gain,
        "dB",
    ));
    out
}

fn print_capacity(title: &str, study: &ex::CapacityStudy) -> String {
    let mut out = render::series_table(
        title,
        "mW",
        &[
            ("with surface (b/s/Hz)", &study.with_surface),
            ("without (b/s/Hz)", &study.without_surface),
        ],
        &study.tx_mw,
    );
    match study.crossover_mw {
        Some(mw) => out.push_str(&render::metric("surface wins from", mw, "mW")),
        None => out.push_str("surface never wins on this sweep\n"),
    }
    out
}

/// Figure 18: capacity vs Tx power, anechoic.
pub fn print_fig18() -> String {
    let mut out = print_capacity(
        "Figure 18a — capacity vs Tx power (omni, anechoic)",
        &ex::fig18_omni(SEED),
    );
    out.push_str(&print_capacity(
        "Figure 18b — capacity vs Tx power (directional, anechoic)",
        &ex::fig18_directional(SEED),
    ));
    out
}

/// Figure 19: capacity vs Tx power, laboratory multipath.
pub fn print_fig19() -> String {
    let omni = ex::fig19_omni(SEED);
    let mut out = print_capacity(
        "Figure 19a — capacity vs Tx power (omni, laboratory)",
        &omni,
    );
    out.push_str(&print_capacity(
        "Figure 19b — capacity vs Tx power (directional, laboratory)",
        &ex::fig19_directional(SEED),
    ));
    if let Some(mw) = omni.crossover_mw {
        out.push_str(&render::metric(
            "omni multipath crossover (paper: ~2 mW)",
            mw,
            "mW",
        ));
    }
    out
}

/// Figure 20: IoT RSSI distributions with/without the surface.
pub fn print_fig20() -> String {
    let d = ex::fig20(SEED, 4000);
    let mut out = String::new();
    out.push_str(&render::histogram_chart(
        "Figure 20 — ESP8266 RSSI with surface (mismatch setup)",
        &d.hist_a,
        40,
    ));
    out.push_str(&render::histogram_chart(
        "Figure 20 — ESP8266 RSSI without surface",
        &d.hist_b,
        40,
    ));
    out.push_str(&render::metric(
        "mode gap (paper: ~10 dB)",
        d.mode_gap_db,
        "dB",
    ));
    out
}

/// Figure 21: reflective heatmaps.
pub fn print_fig21() -> String {
    let maps = ex::fig21(SEED, 13);
    let mut out = String::new();
    let mut spreads = Vec::new();
    for map in &maps {
        out.push_str(&render::heatmap(
            &format!(
                "Figure 21 — reflective Rx power heatmap @ {} cm",
                map.distance_cm
            ),
            &map.volts,
            &map.power_dbm,
        ));
        spreads.push(map.spread_db);
    }
    out.push_str(&render::metric(
        "mean voltage-dependence spread (flatter than Fig 15)",
        rfmath::stats::mean(&spreads),
        "dB",
    ));
    out
}

/// Figure 22: reflective power and capacity.
pub fn print_fig22() -> String {
    let f = ex::fig22(SEED);
    let mut out = render::series_table(
        "Figure 22 — reflective power vs Tx-surface distance",
        "cm",
        &[
            ("with surface (dBm)", &f.power.with_surface_dbm),
            ("without (dBm)", &f.power.without_surface_dbm),
        ],
        &f.power.x_values,
    );
    out.push_str(&render::series_table(
        "Figure 22 — reflective capacity",
        "cm",
        &[
            ("with surface (b/s/Hz)", &f.capacity_with),
            ("without (b/s/Hz)", &f.capacity_without),
        ],
        &f.power.x_values,
    ));
    out.push_str(&render::metric(
        "max power improvement (paper: up to 17 dB)",
        f.power.max_improvement_db,
        "dB",
    ));
    out
}

/// Figure 23: respiration sensing.
pub fn print_fig23() -> String {
    let f = ex::fig23(SEED);
    let with_series = ex::trace_dbm(&f.with_surface);
    let without_series = ex::trace_dbm(&f.without_surface);
    let mut out = String::new();
    out.push_str(&render::sparkline(
        "Figure 23 — RSS with surface (5 mW)",
        &with_series[..with_series.len().min(240)],
    ));
    out.push_str(&render::sparkline(
        "Figure 23 — RSS without surface (5 mW)",
        &without_series[..without_series.len().min(240)],
    ));
    out.push_str(&render::metric(
        "respiration band SNR with surface",
        f.with_surface.band_snr_db,
        "dB",
    ));
    out.push_str(&render::metric(
        "respiration band SNR without surface",
        f.without_surface.band_snr_db,
        "dB",
    ));
    out.push_str(&format!(
        "true rate {:.1} bpm; detected with surface: {:?} bpm; without: {:?}\n",
        f.true_bpm,
        f.with_surface
            .detected_bpm
            .map(|b| (b * 10.0).round() / 10.0),
        f.without_surface.detected_bpm,
    ));
    out
}

/// Algorithm 1 timing comparison.
pub fn print_alg1() -> String {
    let t = ex::alg1(SEED);
    let mut out = String::from("== Algorithm 1 — sweep timing (paper: ~30 s → ~1 s)\n");
    out.push_str(&render::metric("full 1 V-step scan", t.full_scan_s, "s"));
    out.push_str(&render::metric(
        "coarse-to-fine (N=2, T=5)",
        t.coarse_fine_s,
        "s",
    ));
    out.push_str(&render::metric(
        "speed-up",
        t.full_scan_s / t.coarse_fine_s,
        "×",
    ));
    out.push_str(&render::metric(
        "quality gap (full − fast)",
        t.full_scan_dbm - t.coarse_fine_dbm,
        "dB",
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_lists_catalog() {
        let err = run("fig99").unwrap_err();
        assert!(err.contains("fig15"));
    }

    #[test]
    fn fast_experiments_produce_reports() {
        for id in ["fig2a", "fig2b", "table1", "alg1"] {
            let report = run(id).unwrap();
            assert!(report.len() > 100, "{id} report too small");
        }
    }

    #[test]
    fn catalog_ids_are_unique() {
        let mut ids: Vec<&str> = ALL_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_IDS.len());
    }
}
