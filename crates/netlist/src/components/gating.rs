//! Operand isolation (gating) cells.
//!
//! The HPS design depends on gating to switch off the unused portion of its
//! 8×8 multiplier array in 4-bit and 2-bit modes, and the BSC bit-split unit
//! gates the upper half of its operand in 2-bit mode.  Gating an already
//! stable signal costs the AND cell's area and leakage but suppresses all
//! downstream switching — exactly the trade the paper's designs make.

use crate::{Bus, Netlist, NodeId};

/// Forces every bit of `bus` to zero when `enable` is low (AND gating).
pub fn isolate(n: &mut Netlist, bus: &Bus, enable: NodeId) -> Bus {
    bus.and_bit(n, enable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn disabled_bus_is_zero() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        let en = n.input("en");
        let g = isolate(&mut n, &a, en);
        n.mark_output_bus("g", &g);
        let mut sim = Simulator::new(&n).unwrap();
        sim.write_bus_lane(&a, 0, 0b1011);
        sim.write(en, 0);
        sim.eval();
        assert_eq!(sim.read_bus_unsigned_lane(&g, 0), 0);
        sim.write(en, 1);
        sim.eval();
        assert_eq!(sim.read_bus_unsigned_lane(&g, 0), 0b1011);
    }

    #[test]
    fn gating_stops_downstream_toggles() {
        use crate::Activity;
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        let en = n.input("en");
        let g = isolate(&mut n, &a, en);
        // Downstream logic: XOR-reduce the gated bus.
        let mut acc = g.bit(0);
        for i in 1..4 {
            acc = n.xor(acc, g.bit(i));
        }
        n.mark_output(acc, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(en, 0);
        sim.eval();
        let mut act = Activity::new(&sim);
        for v in [0b1010i64, 0b0101, 0b1111, 0b0000] {
            sim.write_bus_lane(&a, 0, v);
            sim.eval();
            act.record(&sim);
        }
        // With gating disabled (enable low), XOR cells never toggle.
        assert_eq!(act.toggles(crate::GateKind::Xor), 0);
    }
}
