//! The linearized MOSFET the MNA assembly stamps: the terminal bias a
//! device is evaluated at, and the Newton-stamp conductances and
//! equivalent current built from that evaluation.

use crate::MosOp;

/// Absolute terminal voltages of a MOSFET at one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosBias {
    /// Gate voltage, volts.
    pub vg: f64,
    /// Drain voltage, volts.
    pub vd: f64,
    /// Source voltage, volts.
    pub vs: f64,
    /// Bulk voltage, volts.
    pub vb: f64,
}

impl MosBias {
    /// Bundles the four terminal voltages.
    pub fn new(vg: f64, vd: f64, vs: f64, vb: f64) -> Self {
        Self { vg, vd, vs, vb }
    }
}

/// The Newton-stamp linearization of a MOSFET: the conductances and the
/// equivalent current the MNA assembly writes, anchoring the tangent
/// plane at the evaluated bias.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosStamp {
    /// `∂I_D/∂V_G`.
    pub gm: f64,
    /// `∂I_D/∂V_D`.
    pub gds: f64,
    /// `∂I_D/∂V_B`.
    pub gmb: f64,
    /// `∂I_D/∂V_S = −(gm + gds + gmb)`.
    pub gss: f64,
    /// Equivalent current source anchoring the tangent plane at the
    /// evaluated operating point.
    pub ieq: f64,
}

impl MosStamp {
    /// Builds the stamp from an evaluated operating point and the bias
    /// it was evaluated at.
    pub fn from_op(op: &MosOp, bias: &MosBias) -> Self {
        let gss = -(op.gm + op.gds + op.gmb);
        // Equivalent current source so that the tangent plane passes
        // through the evaluated operating point.
        let ieq = op.id - op.gm * bias.vg - op.gds * bias.vd - op.gmb * bias.vb - gss * bias.vs;
        Self {
            gm: op.gm,
            gds: op.gds,
            gmb: op.gmb,
            gss,
            ieq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_matches_manual_formula() {
        let op = MosOp {
            id: 1e-6,
            gm: 2e-5,
            gds: 3e-6,
            gmb: 4e-7,
        };
        let bias = MosBias::new(1.2, 0.8, 0.1, 0.0);
        let s = MosStamp::from_op(&op, &bias);
        let gss = -(op.gm + op.gds + op.gmb);
        assert_eq!(s.gss, gss);
        assert_eq!(
            s.ieq,
            op.id - op.gm * bias.vg - op.gds * bias.vd - op.gmb * bias.vb - gss * bias.vs
        );
    }
}
