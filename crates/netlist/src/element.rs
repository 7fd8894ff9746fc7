//! The element variants a circuit can contain.

use vls_device::{Capacitor, MosGeometry, MosModel, Resistor, SourceWaveform};

use crate::NodeId;

/// One circuit element. The engine pattern-matches on this to stamp the
/// MNA system; everything it needs (values, model cards, geometry) is
/// stored inline so a `Circuit` is self-contained and cheaply cloneable
/// for Monte Carlo perturbation.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Unique element name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Value.
        resistor: Resistor,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Unique element name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Value.
        capacitor: Capacitor,
    },
    /// Independent voltage source; `pos` is held at `wave(t)` volts
    /// above `neg`.
    VoltageSource {
        /// Unique element name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Time dependence.
        wave: SourceWaveform,
    },
    /// Independent current source driving conventional current out of
    /// `pos` through the external circuit into `neg`.
    CurrentSource {
        /// Unique element name.
        name: String,
        /// Positive terminal.
        pos: NodeId,
        /// Negative terminal.
        neg: NodeId,
        /// Time dependence.
        wave: SourceWaveform,
    },
    /// Four-terminal MOSFET.
    Mosfet {
        /// Unique element name.
        name: String,
        /// Drain terminal.
        drain: NodeId,
        /// Gate terminal.
        gate: NodeId,
        /// Source terminal.
        source: NodeId,
        /// Bulk terminal.
        bulk: NodeId,
        /// Model card (owned per instance so variation sampling can
        /// perturb each device independently).
        model: MosModel,
        /// Drawn geometry.
        geom: MosGeometry,
    },
}

impl Element {
    /// The element's unique name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VoltageSource { name, .. }
            | Element::CurrentSource { name, .. }
            | Element::Mosfet { name, .. } => name,
        }
    }

    /// All terminals of the element, in declaration order.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => vec![*a, *b],
            Element::VoltageSource { pos, neg, .. } | Element::CurrentSource { pos, neg, .. } => {
                vec![*pos, *neg]
            }
            Element::Mosfet {
                drain,
                gate,
                source,
                bulk,
                ..
            } => {
                vec![*drain, *gate, *source, *bulk]
            }
        }
    }

    /// `true` for elements that need an MNA branch-current unknown
    /// (voltage sources).
    pub fn needs_branch_current(&self) -> bool {
        matches!(self, Element::VoltageSource { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;

    #[test]
    fn names_and_nodes_round_trip() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let r = Element::Resistor {
            name: "r1".into(),
            a,
            b,
            resistor: Resistor::new(50.0),
        };
        assert_eq!(r.name(), "r1");
        assert_eq!(r.nodes(), vec![a, b]);
        assert!(!r.needs_branch_current());

        let v = Element::VoltageSource {
            name: "v1".into(),
            pos: a,
            neg: Circuit::GROUND,
            wave: SourceWaveform::Dc(1.2),
        };
        assert!(v.needs_branch_current());
        assert_eq!(v.nodes(), vec![a, Circuit::GROUND]);
    }
}
