//! Device calibration legs: the per-call cost of the public MOSFET
//! model functions on the terminal voltages of a workload's own DC
//! solution. They calibrate the `device` layer and never headline.

use std::hint::black_box;
use std::time::Instant;

use vls_device::{MosGeometry, MosModel, MosOp};
use vls_engine::{solve_dc, SimOptions};
use vls_netlist::{Circuit, Element};

/// Timed samples per leg; the median is reported.
const SAMPLES: usize = 7;

/// Model calls per sample, spread over the circuit's devices.
const CALLS_PER_SAMPLE: usize = 20_000;

/// Nanoseconds per call of each leg.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCalibration {
    /// `MosModel::op` (central differences).
    pub op_ns: f64,
    /// `MosModel::op_analytic`.
    pub op_analytic_ns: f64,
    /// `MosModel::caps`.
    pub caps_ns: f64,
}

/// One device at its DC bias: model, geometry and `(vg, vd, vs, vb)`.
type Biased<'a> = (&'a MosModel, &'a MosGeometry, [f64; 4]);

/// Every field of an operating point, so none can be optimised away.
fn op_sum(op: MosOp) -> f64 {
    op.id + op.gm + op.gds + op.gmb
}

/// Solves `circuit` at DC with default options and times the three model
/// functions on every MOSFET's terminal voltages.
///
/// # Panics
///
/// Panics when the DC solve fails or the circuit has no MOSFET.
pub fn measure(circuit: &Circuit) -> DeviceCalibration {
    let options = SimOptions::default();
    let dc = solve_dc(circuit, &options).expect("calibration DC operating point");
    let devices: Vec<Biased> = circuit
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Mosfet {
                drain,
                gate,
                source,
                bulk,
                model,
                geom,
                ..
            } => Some((
                model,
                geom,
                [
                    dc.voltage(*gate),
                    dc.voltage(*drain),
                    dc.voltage(*source),
                    dc.voltage(*bulk),
                ],
            )),
            _ => None,
        })
        .collect();
    assert!(!devices.is_empty(), "calibration circuit has no MOSFET");
    let temp_k = options.temperature.as_kelvin();
    let leg = |f: &dyn Fn(&Biased) -> f64| {
        let mut per_call: Vec<f64> = (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0.0;
                for k in 0..CALLS_PER_SAMPLE {
                    acc += f(black_box(&devices[k % devices.len()]));
                }
                black_box(acc);
                t.elapsed().as_secs_f64() * 1e9 / CALLS_PER_SAMPLE as f64
            })
            .collect();
        per_call.sort_by(f64::total_cmp);
        per_call[SAMPLES / 2]
    };
    DeviceCalibration {
        op_ns: leg(&|(m, g, [vg, vd, vs, vb])| op_sum(m.op(g, *vg, *vd, *vs, *vb, temp_k))),
        op_analytic_ns: leg(&|(m, g, [vg, vd, vs, vb])| {
            op_sum(m.op_analytic(g, *vg, *vd, *vs, *vb, temp_k))
        }),
        caps_ns: leg(&|(m, g, [vg, vd, vs, vb])| {
            let c = m.caps(g, *vg, *vd, *vs, *vb, temp_k);
            c.cgs + c.cgd + c.cgb + c.cdb + c.csb
        }),
    }
}
