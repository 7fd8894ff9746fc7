//! Benches for the table-generating characterization flows:
//! one full paper-protocol characterization per iteration (delay/power
//! run plus the two forked leakage holds). These are the units of work
//! behind Tables 1–4.

use vls_bench::timing::bench_function;
use vls_cells::{ShifterKind, VoltagePair};
use vls_core::{characterize, CharacterizeOptions};

fn main() {
    let opts = CharacterizeOptions::default();
    for (name, kind, domains) in [
        (
            "table1_sstvs",
            ShifterKind::sstvs(),
            VoltagePair::low_to_high(),
        ),
        (
            "table1_combined",
            ShifterKind::combined(),
            VoltagePair::low_to_high(),
        ),
        (
            "table2_sstvs",
            ShifterKind::sstvs(),
            VoltagePair::high_to_low(),
        ),
        (
            "table2_combined",
            ShifterKind::combined(),
            VoltagePair::high_to_low(),
        ),
    ] {
        bench_function(&format!("characterize/{name}"), || {
            characterize(&kind, domains, &opts).expect("characterization fails");
        });
    }
}
