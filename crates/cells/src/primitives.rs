//! Shared logic primitives: inverter, NOR2, transmission gate.
//!
//! Each builder adds its devices to a caller-supplied [`Circuit`] with
//! a name prefix, so cells compose without subcircuit overhead and
//! every internal device stays addressable for Monte Carlo
//! perturbation.

use vls_device::{MosGeometry, MosModel};
use vls_netlist::{Circuit, NodeId};

/// A static CMOS inverter with explicit device widths (µm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inverter {
    /// PMOS width, µm.
    pub wp: f64,
    /// NMOS width, µm.
    pub wn: f64,
    /// Channel length, µm.
    pub l: f64,
}

impl Inverter {
    /// The minimum-size inverter of this library (the paper's input
    /// drivers are "same sized \[minimum\] inverters").
    pub fn minimum() -> Self {
        Self {
            wp: 0.4,
            wn: 0.2,
            l: 0.1,
        }
    }

    /// Adds the inverter to `c`. Device names are `{prefix}.mp` and
    /// `{prefix}.mn`; PMOS bulk ties to `vdd`, NMOS bulk to ground.
    pub fn build(&self, c: &mut Circuit, prefix: &str, input: NodeId, output: NodeId, vdd: NodeId) {
        c.add_mosfet(
            &format!("{prefix}.mp"),
            output,
            input,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(self.wp, self.l),
        );
        c.add_mosfet(
            &format!("{prefix}.mn"),
            output,
            input,
            Circuit::GROUND,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(self.wn, self.l),
        );
    }
}

impl Default for Inverter {
    fn default() -> Self {
        Self::minimum()
    }
}

/// A two-input static CMOS NOR gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nor2 {
    /// Width of each series PMOS, µm (doubled vs an inverter PMOS to
    /// compensate the stack).
    pub wp: f64,
    /// Width of each parallel NMOS, µm.
    pub wn: f64,
    /// Channel length, µm.
    pub l: f64,
}

impl Nor2 {
    /// A NOR2 with the drive strength of a minimum inverter (the
    /// paper's stated property of the SS-TVS output stage).
    pub fn minimum_drive() -> Self {
        Self {
            wp: 0.8,
            wn: 0.2,
            l: 0.1,
        }
    }

    /// Adds the gate to `c`: `output = !(in_a | in_b)`, supplied from
    /// `vdd`. The PMOS stack places the `in_b` device next to the
    /// output. Device names: `{prefix}.mpa`, `{prefix}.mpb`,
    /// `{prefix}.mna`, `{prefix}.mnb`.
    pub fn build(
        &self,
        c: &mut Circuit,
        prefix: &str,
        in_a: NodeId,
        in_b: NodeId,
        output: NodeId,
        vdd: NodeId,
    ) {
        let mid = c.node(&format!("{prefix}.pmid"));
        c.add_mosfet(
            &format!("{prefix}.mpa"),
            mid,
            in_a,
            vdd,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(self.wp, self.l),
        );
        c.add_mosfet(
            &format!("{prefix}.mpb"),
            output,
            in_b,
            mid,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(self.wp, self.l),
        );
        for (suffix, gate) in [("mna", in_a), ("mnb", in_b)] {
            c.add_mosfet(
                &format!("{prefix}.{suffix}"),
                output,
                gate,
                Circuit::GROUND,
                Circuit::GROUND,
                MosModel::ptm90_nmos(),
                MosGeometry::from_microns(self.wn, self.l),
            );
        }
    }
}

impl Default for Nor2 {
    fn default() -> Self {
        Self::minimum_drive()
    }
}

/// A CMOS transmission gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransmissionGate {
    /// NMOS width, µm.
    pub wn: f64,
    /// PMOS width, µm.
    pub wp: f64,
    /// Channel length, µm.
    pub l: f64,
}

impl TransmissionGate {
    /// Minimum-size transmission gate.
    pub fn minimum() -> Self {
        Self {
            wn: 0.2,
            wp: 0.4,
            l: 0.1,
        }
    }

    /// Adds the gate: conducts between `a` and `b` when `enable` is
    /// high and `enable_b` (its complement) is low. The PMOS bulk ties
    /// to `vdd`. Device names: `{prefix}.mn`, `{prefix}.mp`.
    #[allow(clippy::too_many_arguments)] // four signal terminals plus supply are inherent to a TG
    pub fn build(
        &self,
        c: &mut Circuit,
        prefix: &str,
        a: NodeId,
        b: NodeId,
        enable: NodeId,
        enable_b: NodeId,
        vdd: NodeId,
    ) {
        c.add_mosfet(
            &format!("{prefix}.mn"),
            a,
            enable,
            b,
            Circuit::GROUND,
            MosModel::ptm90_nmos(),
            MosGeometry::from_microns(self.wn, self.l),
        );
        c.add_mosfet(
            &format!("{prefix}.mp"),
            a,
            enable_b,
            b,
            vdd,
            MosModel::ptm90_pmos(),
            MosGeometry::from_microns(self.wp, self.l),
        );
    }
}

impl Default for TransmissionGate {
    fn default() -> Self {
        Self::minimum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vls_device::SourceWaveform;
    use vls_engine::{solve_dc, SimOptions};

    fn powered(vdd_value: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.add_vsource("vdd", vdd, Circuit::GROUND, SourceWaveform::Dc(vdd_value));
        (c, vdd)
    }

    #[test]
    fn inverter_inverts_at_dc() {
        for (vin, expect_high) in [(0.0, true), (1.2, false)] {
            let (mut c, vdd) = powered(1.2);
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("vin", inp, Circuit::GROUND, SourceWaveform::Dc(vin));
            Inverter::minimum().build(&mut c, "u0", inp, out, vdd);
            let sol = solve_dc(&c, &SimOptions::default()).unwrap();
            let v = sol.voltage(out);
            if expect_high {
                assert!((v - 1.2).abs() < 0.02, "expected high, got {v}");
            } else {
                assert!(v < 0.02, "expected low, got {v}");
            }
        }
    }

    #[test]
    fn nor2_truth_table() {
        for (a, b, expect_high) in [
            (0.0, 0.0, true),
            (0.0, 1.2, false),
            (1.2, 0.0, false),
            (1.2, 1.2, false),
        ] {
            let (mut c, vdd) = powered(1.2);
            let na = c.node("a");
            let nb = c.node("b");
            let out = c.node("out");
            c.add_vsource("va", na, Circuit::GROUND, SourceWaveform::Dc(a));
            c.add_vsource("vb", nb, Circuit::GROUND, SourceWaveform::Dc(b));
            Nor2::minimum_drive().build(&mut c, "u0", na, nb, out, vdd);
            let sol = solve_dc(&c, &SimOptions::default()).unwrap();
            let v = sol.voltage(out);
            if expect_high {
                assert!((v - 1.2).abs() < 0.02, "NOR({a},{b}) = {v}");
            } else {
                assert!(v < 0.02, "NOR({a},{b}) = {v}");
            }
        }
    }

    #[test]
    fn transmission_gate_conducts_when_enabled() {
        let (mut c, vdd) = powered(1.2);
        let a = c.node("a");
        let b = c.node("b");
        let en = c.node("en");
        let enb = c.node("enb");
        c.add_vsource("va", a, Circuit::GROUND, SourceWaveform::Dc(0.9));
        c.add_vsource("ven", en, Circuit::GROUND, SourceWaveform::Dc(1.2));
        c.add_vsource("venb", enb, Circuit::GROUND, SourceWaveform::Dc(0.0));
        TransmissionGate::minimum().build(&mut c, "tg", a, b, en, enb, vdd);
        c.add_resistor("rload", b, Circuit::GROUND, 1e7);
        let sol = solve_dc(&c, &SimOptions::default()).unwrap();
        // Conducting: b follows a closely despite the load.
        assert!(
            (sol.voltage(b) - 0.9).abs() < 0.05,
            "b = {}",
            sol.voltage(b)
        );
    }

    #[test]
    fn transmission_gate_blocks_when_disabled() {
        let (mut c, vdd) = powered(1.2);
        let a = c.node("a");
        let b = c.node("b");
        let en = c.node("en");
        let enb = c.node("enb");
        c.add_vsource("va", a, Circuit::GROUND, SourceWaveform::Dc(0.9));
        c.add_vsource("ven", en, Circuit::GROUND, SourceWaveform::Dc(0.0));
        c.add_vsource("venb", enb, Circuit::GROUND, SourceWaveform::Dc(1.2));
        TransmissionGate::minimum().build(&mut c, "tg", a, b, en, enb, vdd);
        c.add_resistor("rload", b, Circuit::GROUND, 1e7);
        let sol = solve_dc(&c, &SimOptions::default()).unwrap();
        // Blocking: only leakage reaches the load resistor.
        assert!(sol.voltage(b) < 0.1, "b = {}", sol.voltage(b));
    }

    #[test]
    fn default_sizes_match_minimum() {
        assert_eq!(Inverter::default(), Inverter::minimum());
        assert_eq!(Nor2::default(), Nor2::minimum_drive());
        assert_eq!(TransmissionGate::default(), TransmissionGate::minimum());
    }
}
