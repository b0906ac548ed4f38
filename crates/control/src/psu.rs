//! Programmable DC power supply model (Tektronix 2230G class, §3.3/§4).
//!
//! Two 0–30 V channels drive the metasurface's X and Y bias rails. The
//! properties the control plane depends on — and that we therefore model
//! — are the **bounded switching rate** (the paper drives it at up to
//! 50 Hz, making a 1 V-step full scan take ~30 s), the settling delay
//! after each step, and the SCPI command interface.

use std::fmt;

use rfmath::units::{Amperes, Seconds, Volts};

use crate::scpi::{self, Command};

/// Reply to an SCPI query.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// No payload (set commands).
    Ack,
    /// A text payload (identification).
    Text(String),
    /// A numeric payload (voltage/current queries).
    Number(f64),
    /// Command rejected.
    Error(String),
}

/// Typed failure modes of the supply's control surface. Every variant's
/// `Display` reproduces the legacy string (the one `Reply::Error` used
/// to carry verbatim), so substring matching on error text keeps
/// working while callers gain a matchable type.
#[derive(Clone, Debug, PartialEq)]
pub enum PsuError {
    /// A setpoint change arrived inside the instrument's switching
    /// period and was rejected.
    TooFast {
        /// Time elapsed since the last accepted switch.
        since: Seconds,
        /// The instrument's minimum switching period.
        period: Seconds,
    },
    /// The SCPI line did not parse (malformed command, bad channel…).
    Parse(String),
    /// A setpoint that is not a finite voltage (NaN or ±∞) was refused,
    /// as the SCPI `APPL` parser refuses one.
    NonFinite {
        /// The requested X-rail voltage.
        vx: Volts,
        /// The requested Y-rail voltage.
        vy: Volts,
    },
    /// An injected transport fault: the instrument never answered
    /// within the wait budget. The simulated instrument itself never
    /// times out — this variant exists for fault-injection harnesses
    /// that model a flaky serial link.
    Timeout {
        /// How long the caller waited before giving up.
        after: Seconds,
    },
}

impl fmt::Display for PsuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PsuError::TooFast { since, period } => write!(
                f,
                "switching too fast: {:.1} ms since last step, period is {:.1} ms",
                since.0 * 1e3,
                period.0 * 1e3
            ),
            PsuError::Parse(msg) => write!(f, "{msg}"),
            PsuError::NonFinite { vx, vy } => {
                write!(f, "voltage must be finite: ({}, {}) V", vx.0, vy.0)
            }
            PsuError::Timeout { after } => {
                write!(
                    f,
                    "no reply from the instrument after {:.1} ms",
                    after.0 * 1e3
                )
            }
        }
    }
}

impl std::error::Error for PsuError {}

/// The supply's programmable state.
#[derive(Clone, Debug)]
pub struct PowerSupply {
    /// Channel setpoints (two bias rails; channel 3 unused but present
    /// on the real instrument).
    setpoints: [Volts; 3],
    /// Master output enable.
    output_on: bool,
    /// Maximum voltage per channel.
    pub v_max: Volts,
    /// Minimum interval between setpoint changes (switching period).
    pub switch_period: Seconds,
    /// Settling time after a step before the output is within spec.
    pub settling: Seconds,
    /// Load leakage current drawn from each rail (the metasurface's
    /// 15 nA).
    pub load_leakage: Amperes,
    /// Simulation clock of the most recent accepted switch.
    last_switch_at: Seconds,
    /// Count of accepted switching operations (for timing audits).
    pub switch_count: u64,
}

impl PowerSupply {
    /// A Tektronix 2230G-30-1 class instrument: 2×30 V channels, 50 Hz
    /// effective switching, 5 ms settling.
    pub fn tektronix_2230g() -> Self {
        Self {
            setpoints: [Volts(0.0); 3],
            output_on: false,
            v_max: Volts(30.0),
            switch_period: Seconds(0.02),
            settling: Seconds(0.005),
            load_leakage: Amperes(15e-9),
            last_switch_at: Seconds(f64::NEG_INFINITY),
            switch_count: 0,
        }
    }

    /// Current channel setpoint (1-based channel index).
    pub fn setpoint(&self, channel: u8) -> Volts {
        self.setpoints[(channel as usize - 1).min(2)]
    }

    /// True when outputs are enabled.
    pub fn output_enabled(&self) -> bool {
        self.output_on
    }

    /// The actual rail voltage at simulation time `now`: zero when
    /// disabled, the setpoint once settled, and a first-order ramp while
    /// settling.
    pub fn rail_voltage(&self, channel: u8, now: Seconds) -> Volts {
        if !self.output_on {
            return Volts(0.0);
        }
        let target = self.setpoint(channel);
        let since = now.0 - self.last_switch_at.0;
        if since >= self.settling.0 {
            target
        } else {
            // Exponential settling with τ = settling/4.
            let tau = self.settling.0 / 4.0;
            let frac = 1.0 - (-since / tau).exp();
            Volts(target.0 * frac.clamp(0.0, 1.0))
        }
    }

    /// Executes one SCPI line at simulation time `now`.
    ///
    /// Setpoint changes are rejected (with an error reply) when they
    /// arrive faster than the instrument's switching period — the
    /// control plane must respect the 50 Hz budget, as the paper's
    /// timing analysis assumes.
    pub fn execute(&mut self, line: &str, now: Seconds) -> Reply {
        let cmd = match scpi::parse(line) {
            Ok(c) => c,
            Err(e) => return Reply::Error(PsuError::Parse(e.to_string()).to_string()),
        };
        match cmd {
            Command::Identify => Reply::Text("TEKTRONIX,2230G-30-1,SIM,FV:1.0".to_string()),
            Command::Output { on } => {
                self.output_on = on;
                Reply::Ack
            }
            Command::QueryApply { channel } => Reply::Number(self.setpoint(channel).0),
            Command::MeasureCurrent { channel } => {
                let _ = channel;
                if self.output_on {
                    Reply::Number(self.load_leakage.0)
                } else {
                    Reply::Number(0.0)
                }
            }
            Command::Apply { channel, volts } => {
                if now.0 - self.last_switch_at.0 < self.switch_period.0 - 1e-12 {
                    return Reply::Error(
                        PsuError::TooFast {
                            since: Seconds(now.0 - self.last_switch_at.0),
                            period: self.switch_period,
                        }
                        .to_string(),
                    );
                }
                let v = Volts(volts).clamp(Volts(0.0), self.v_max);
                self.setpoints[(channel as usize - 1).min(2)] = v;
                self.last_switch_at = now;
                self.switch_count += 1;
                Reply::Ack
            }
        }
    }

    /// Convenience: set both bias rails (channels 1 = X, 2 = Y) as one
    /// logical switch operation at time `now`. Returns a typed
    /// [`PsuError`] when either voltage is not finite or the rate limit
    /// rejects the change (its `Display` carries the legacy instrument
    /// message); a rejected call changes nothing and spends no switching
    /// slot.
    pub fn set_bias(&mut self, vx: Volts, vy: Volts, now: Seconds) -> Result<(), PsuError> {
        // `f64::clamp` passes NaN through: refuse it before it reaches a
        // setpoint.
        if !(vx.0.is_finite() && vy.0.is_finite()) {
            return Err(PsuError::NonFinite { vx, vy });
        }
        // The real script programs both channels back-to-back within one
        // switching slot; model it as a single rate-limited operation.
        if now.0 - self.last_switch_at.0 < self.switch_period.0 - 1e-12 {
            return Err(PsuError::TooFast {
                since: Seconds(now.0 - self.last_switch_at.0),
                period: self.switch_period,
            });
        }
        self.setpoints[0] = vx.clamp(Volts(0.0), self.v_max);
        self.setpoints[1] = vy.clamp(Volts(0.0), self.v_max);
        self.last_switch_at = now;
        self.switch_count += 1;
        Ok(())
    }

    /// Earliest simulation time at which another switch is accepted.
    pub fn next_switch_time(&self) -> Seconds {
        Seconds(self.last_switch_at.0 + self.switch_period.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identification() {
        let mut psu = PowerSupply::tektronix_2230g();
        match psu.execute("*IDN?", Seconds(0.0)) {
            Reply::Text(t) => assert!(t.contains("2230G")),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn apply_sets_and_queries() {
        let mut psu = PowerSupply::tektronix_2230g();
        assert_eq!(psu.execute("OUTP ON", Seconds(0.0)), Reply::Ack);
        assert_eq!(psu.execute("APPL CH1,12.5", Seconds(0.1)), Reply::Ack);
        assert_eq!(psu.execute("APPL? CH1", Seconds(0.2)), Reply::Number(12.5));
    }

    #[test]
    fn rate_limit_enforced() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        assert_eq!(psu.execute("APPL CH1,5", Seconds(0.10)), Reply::Ack);
        // 10 ms later: rejected (period is 20 ms).
        match psu.execute("APPL CH1,6", Seconds(0.11)) {
            Reply::Error(e) => assert!(e.contains("too fast")),
            other => panic!("expected rate-limit error, got {other:?}"),
        }
        // At the period boundary: accepted.
        assert_eq!(psu.execute("APPL CH1,6", Seconds(0.12)), Reply::Ack);
        assert_eq!(psu.switch_count, 2);
    }

    #[test]
    fn voltage_clamped_to_rail() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        psu.execute("APPL CH2,99", Seconds(0.1));
        assert_eq!(psu.setpoint(2), Volts(30.0));
    }

    #[test]
    fn rail_is_zero_when_output_off() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("APPL CH1,10", Seconds(0.0));
        assert_eq!(psu.rail_voltage(1, Seconds(1.0)), Volts(0.0));
    }

    #[test]
    fn rail_settles_exponentially() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        psu.set_bias(Volts(10.0), Volts(0.0), Seconds(1.0)).unwrap();
        let early = psu.rail_voltage(1, Seconds(1.0005)).0;
        let later = psu.rail_voltage(1, Seconds(1.003)).0;
        let settled = psu.rail_voltage(1, Seconds(1.01)).0;
        assert!(early < later && later < settled + 1e-9);
        assert_eq!(settled, 10.0);
    }

    #[test]
    fn measured_current_is_leakage() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        match psu.execute("MEAS:CURR? CH1", Seconds(0.1)) {
            Reply::Number(i) => assert!((i - 15e-9).abs() < 1e-15),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_bias_convenience_respects_rate() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        assert!(psu.set_bias(Volts(5.0), Volts(7.0), Seconds(0.1)).is_ok());
        assert!(psu
            .set_bias(Volts(6.0), Volts(7.0), Seconds(0.105))
            .is_err());
        assert!((psu.next_switch_time().0 - 0.12).abs() < 1e-12);
    }

    #[test]
    fn non_finite_bias_is_refused_without_spending_a_slot() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        psu.set_bias(Volts(5.0), Volts(7.0), Seconds(0.1)).unwrap();
        for (vx, vy) in [
            (f64::NAN, 7.0),
            (5.0, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NAN),
        ] {
            let err = psu
                .set_bias(Volts(vx), Volts(vy), Seconds(0.2))
                .unwrap_err();
            assert!(matches!(err, PsuError::NonFinite { .. }), "{err}");
            assert!(err.to_string().contains("must be finite"), "{err}");
        }
        assert_eq!(psu.setpoint(1), Volts(5.0));
        assert_eq!(psu.setpoint(2), Volts(7.0));
        assert_eq!(psu.switch_count, 1);
        // The refusals left the slot open: a finite bias at the same
        // instant is accepted.
        assert!((psu.next_switch_time().0 - 0.12).abs() < 1e-12);
        psu.set_bias(Volts(6.0), Volts(8.0), Seconds(0.2)).unwrap();
        assert_eq!(psu.switch_count, 2);
    }

    #[test]
    fn typed_errors_display_the_legacy_strings() {
        // The non-breaking contract of the PsuError migration: every
        // variant's Display reproduces the strings Reply::Error used to
        // carry, so substring matching ("too fast", SCPI parse text)
        // keeps working across the API change.
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        psu.set_bias(Volts(5.0), Volts(7.0), Seconds(0.1)).unwrap();
        let err = psu
            .set_bias(Volts(6.0), Volts(7.0), Seconds(0.105))
            .unwrap_err();
        assert!(matches!(err, PsuError::TooFast { .. }));
        assert!(err.to_string().contains("too fast"), "{err}");
        assert!(err.to_string().contains("5.0 ms since last step"), "{err}");
        // The SCPI Apply path and set_bias agree on the message shape.
        match psu.execute("APPL CH1,6", Seconds(0.106)) {
            Reply::Error(e) => assert!(e.contains("too fast") && e.contains("period"), "{e}"),
            other => panic!("expected rate-limit error, got {other:?}"),
        }
        let parse = PsuError::Parse("channel out of range".to_string());
        assert_eq!(parse.to_string(), "channel out of range");
        let timeout = PsuError::Timeout {
            after: Seconds(0.25),
        };
        assert!(timeout.to_string().contains("250.0 ms"), "{timeout}");
    }

    #[test]
    fn malformed_scpi_lines_reply_errors_without_state_changes() {
        // Every malformed line must come back as Reply::Error and leave
        // the instrument untouched — no setpoint change, no switch
        // consumed, no output toggle.
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        psu.execute("APPL CH1,5", Seconds(0.1));
        for (i, line) in [
            "",
            "   ",
            "VOLT 5",
            "APPL",
            "APPL CH1",
            "APPL CH1,abc",
            "APPL CH1,NaN",
            "APPL CH1,inf",
            "APPL X2,5",
            "OUTP MAYBE",
            "MEAS:CURR? 1",
            "*IDN",
        ]
        .iter()
        .enumerate()
        {
            match psu.execute(line, Seconds(1.0 + i as f64)) {
                Reply::Error(e) => assert!(!e.is_empty(), "{line:?} error must explain itself"),
                other => panic!("{line:?} must be rejected, got {other:?}"),
            }
        }
        assert_eq!(psu.setpoint(1), Volts(5.0), "setpoint survived the garbage");
        assert!(psu.output_enabled());
        assert_eq!(psu.switch_count, 1, "no malformed line consumed a switch");
    }

    #[test]
    fn out_of_range_channels_are_rejected() {
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        for line in ["APPL CH0,5", "APPL CH4,5", "APPL? CH9", "MEAS:CURR? CH0"] {
            match psu.execute(line, Seconds(0.5)) {
                Reply::Error(e) => {
                    assert!(
                        e.contains("out of range") || e.contains("channel"),
                        "{line:?}: {e}"
                    );
                }
                other => panic!("{line:?} must be rejected, got {other:?}"),
            }
        }
        // Channel 3 exists on the instrument (unused by the surface).
        assert_eq!(psu.execute("APPL CH3,7", Seconds(1.0)), Reply::Ack);
        assert_eq!(psu.setpoint(3), Volts(7.0));
    }

    #[test]
    fn bias_set_while_output_disabled_stores_but_does_not_drive() {
        // The real instrument accepts setpoints with outputs off; the
        // rails stay dark until OUTP ON, then drive the stored value.
        // The control plane depends on this ordering (program first,
        // enable second), so pin it.
        let mut psu = PowerSupply::tektronix_2230g();
        assert!(!psu.output_enabled());
        assert_eq!(psu.execute("APPL CH1,12.5", Seconds(0.0)), Reply::Ack);
        assert!(psu.set_bias(Volts(9.0), Volts(4.0), Seconds(0.1)).is_ok());
        assert_eq!(psu.setpoint(1), Volts(9.0), "setpoint stored while off");
        assert_eq!(psu.setpoint(2), Volts(4.0));
        assert_eq!(psu.rail_voltage(1, Seconds(1.0)), Volts(0.0));
        assert_eq!(psu.rail_voltage(2, Seconds(1.0)), Volts(0.0));
        // Disabled outputs also meter no current.
        assert_eq!(
            psu.execute("MEAS:CURR? CH1", Seconds(0.2)),
            Reply::Number(0.0)
        );
        // Enable: the stored setpoints drive the rails.
        assert_eq!(psu.execute("OUTP ON", Seconds(0.3)), Reply::Ack);
        assert_eq!(psu.rail_voltage(1, Seconds(1.0)), Volts(9.0));
        assert_eq!(psu.rail_voltage(2, Seconds(1.0)), Volts(4.0));
    }

    #[test]
    fn full_scan_takes_about_thirty_seconds() {
        // The paper's motivating number: a 1 V-step full 2-D sweep at
        // 50 Hz takes ~30 s. 31 × 31 = 961 combinations × 20 ms ≈ 19 s of
        // pure switching; with the per-sample dwell (~10 ms) it crosses
        // 30 s. Here we verify the switching-time floor.
        let mut psu = PowerSupply::tektronix_2230g();
        psu.execute("OUTP ON", Seconds(0.0));
        let mut t = Seconds(0.1);
        let mut combos = 0;
        for vx in 0..=30 {
            for vy in 0..=30 {
                psu.set_bias(Volts(vx as f64), Volts(vy as f64), t).unwrap();
                t = psu.next_switch_time();
                combos += 1;
            }
        }
        assert_eq!(combos, 961);
        assert!(t.0 > 19.0, "switching floor = {:.1} s", t.0);
    }
}
