//! Extraction of a technology-independent network from a mapped netlist.
//!
//! The paper's synthesis starts from "the technology-independent
//! representation of the original circuit" with complex nodes of 10–15
//! inputs (§4.1). [`extract`] produces that representation by *partial
//! collapse*: every gate becomes an SOP node, then single-fanout nodes
//! are greedily inlined into their reader while the combined support
//! stays within the requested bound.

use crate::netlist::{Driver, Netlist};
use crate::sop_network::{SigId, SopNetwork};
use crate::types::NetId;
use std::collections::HashMap;
use tm_logic::{qm, TruthTable};

/// Options controlling partial collapse.
#[derive(Clone, Copy, Debug)]
pub struct ExtractOptions {
    /// Maximum node support (fanin count) after collapsing. The paper
    /// works with 10–15-input nodes; the default is 12.
    pub max_support: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions { max_support: 12 }
    }
}

/// A gate cluster during collapse: a truth table over boundary nets.
#[derive(Clone)]
struct Cluster {
    boundary: Vec<NetId>,
    tt: TruthTable,
}

/// Extracts a technology-independent [`SopNetwork`] from a mapped
/// [`Netlist`] by partial collapse.
///
/// The result computes the same function (input/output order preserved).
/// Node supports never exceed `options.max_support`, except that a single
/// gate whose own fanin count exceeds the bound is kept as-is.
///
/// # Panics
///
/// Panics if `options.max_support` exceeds
/// [`tm_logic::tt::MAX_TT_VARS`] or is zero.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use tm_netlist::{extract::{extract, ExtractOptions}, library::lsi10k_like, netlist::Netlist};
///
/// let lib = Arc::new(lsi10k_like());
/// let mut nl = Netlist::new("chain", lib.clone());
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let c = nl.add_input("c");
/// let t = nl.add_gate(lib.expect("AND2"), &[a, b], "t");
/// let y = nl.add_gate(lib.expect("OR2"), &[t, c], "y");
/// nl.mark_output(y);
///
/// let net = extract(&nl, ExtractOptions::default());
/// // The chain collapses into one 3-input node.
/// assert_eq!(net.num_nodes(), 1);
/// assert_eq!(net.eval(&[true, true, false]), vec![true]);
/// ```
pub fn extract(netlist: &Netlist, options: ExtractOptions) -> SopNetwork {
    assert!(options.max_support > 0, "max_support must be positive");
    assert!(
        options.max_support <= tm_logic::tt::MAX_TT_VARS,
        "max_support exceeds dense truth-table limit"
    );
    let k = options.max_support;
    let lib = netlist.library();

    // Fanout counts per net (reads by gates + primary-output uses).
    let mut fanout = vec![0usize; netlist.num_nets()];
    for (_, g) in netlist.gates() {
        for &i in g.inputs() {
            fanout[i.index()] += 1;
        }
    }
    let mut is_output = vec![false; netlist.num_nets()];
    for &o in netlist.outputs() {
        is_output[o.index()] = true;
    }

    // Build clusters in topological order.
    let mut clusters: HashMap<NetId, Cluster> = HashMap::new();
    for (_, gate) in netlist.gates() {
        let cell = lib.cell(gate.cell());
        // Deduplicate fanins (a gate may in principle read a net twice).
        let mut boundary: Vec<NetId> = Vec::new();
        let mut pin_to_pos: Vec<usize> = Vec::with_capacity(gate.inputs().len());
        for &inp in gate.inputs() {
            match boundary.iter().position(|&b| b == inp) {
                Some(p) => pin_to_pos.push(p),
                None => {
                    boundary.push(inp);
                    pin_to_pos.push(boundary.len() - 1);
                }
            }
        }
        // A pin reading the same net as an earlier pin becomes a copy of
        // that pin's variable and is dropped; the last pins go first so
        // earlier pin indices stay put. The surviving first-occurrence
        // pins are in boundary order.
        let mut tt = cell.function().clone();
        for (pin, &pos) in pin_to_pos.iter().enumerate().rev() {
            let first = pin_to_pos.iter().position(|&p| p == pos).unwrap_or(pin);
            if first < pin {
                let x = TruthTable::var(tt.num_vars(), first);
                let copied = &(&x & &tt.cofactor(pin, true)) | &(&!&x & &tt.cofactor(pin, false));
                let rest: Vec<usize> = (0..tt.num_vars()).filter(|&v| v != pin).collect();
                tt = copied.project(&rest);
            }
        }
        let mut cluster = Cluster { boundary, tt };

        // Greedy inlining: repeatedly absorb an eligible boundary net.
        loop {
            let mut absorbed = false;
            for (pos, &net) in cluster.boundary.clone().iter().enumerate() {
                let eligible = matches!(netlist.driver(net), Driver::Gate(_))
                    && fanout[net.index()] == 1
                    && !is_output[net.index()]
                    && clusters.contains_key(&net);
                if !eligible {
                    continue;
                }
                let inner = &clusters[&net];
                // Merged boundary size check.
                let mut merged = cluster.boundary.clone();
                merged.remove(pos);
                let mut inner_pos_map = Vec::with_capacity(inner.boundary.len());
                for &ib in &inner.boundary {
                    match merged.iter().position(|&b| b == ib) {
                        Some(p) => inner_pos_map.push(p),
                        None => {
                            merged.push(ib);
                            inner_pos_map.push(merged.len() - 1);
                        }
                    }
                }
                if merged.len() > k {
                    continue;
                }
                // `merged` keeps the outer boundary minus `pos` in order,
                // then appends the inner nets it lacked: compose as
                // inner ? outer|pos=1 : outer|pos=0 over `merged`.
                let rest: Vec<usize> = (0..cluster.boundary.len()).filter(|&v| v != pos).collect();
                let identity: Vec<usize> = (0..rest.len()).collect();
                let outer_with = |value: bool| {
                    cluster.tt.cofactor(pos, value).project(&rest).expand(merged.len(), &identity)
                };
                let sel = inner.tt.expand(merged.len(), &inner_pos_map);
                let new_tt = &(&sel & &outer_with(true)) | &(&!&sel & &outer_with(false));
                cluster = Cluster { boundary: merged, tt: new_tt };
                absorbed = true;
                break;
            }
            if !absorbed {
                break;
            }
        }

        // Drop boundary entries the function does not depend on.
        let support = cluster.tt.support();
        if support.len() != cluster.boundary.len() {
            let kept: Vec<NetId> = support.iter().map(|&p| cluster.boundary[p]).collect();
            let tt = cluster.tt.project(&support);
            cluster = Cluster { boundary: kept, tt };
        }

        clusters.insert(gate.output(), cluster);
    }

    // Materialize: outputs plus every net referenced by a materialized
    // cluster's boundary.
    let mut materialize = vec![false; netlist.num_nets()];
    let mut stack: Vec<NetId> = netlist.outputs().to_vec();
    while let Some(net) = stack.pop() {
        if materialize[net.index()] {
            continue;
        }
        materialize[net.index()] = true;
        if let Some(cluster) = clusters.get(&net) {
            stack.extend(cluster.boundary.iter().copied());
        }
    }

    // Emit the new network in topological order of the original nets.
    let mut out = SopNetwork::new(netlist.name().to_string());
    let mut sig_of: HashMap<NetId, SigId> = HashMap::new();
    for &pi in netlist.inputs() {
        let sig = out.add_input(netlist.net_name(pi).to_string());
        sig_of.insert(pi, sig);
    }
    for (net_idx, &mat) in materialize.iter().enumerate() {
        let net = NetId::from_index(net_idx);
        if !mat || sig_of.contains_key(&net) {
            continue;
        }
        let cluster = match clusters.get(&net) {
            Some(c) => c,
            None => continue, // an input, already added
        };
        let inputs: Vec<SigId> = cluster.boundary.iter().map(|b| sig_of[b]).collect();
        let cover = qm::minimize(&cluster.tt, &TruthTable::zero(cluster.boundary.len()));
        let sig = out.add_node(netlist.net_name(net).to_string(), inputs, cover);
        sig_of.insert(net, sig);
    }
    for &o in netlist.outputs() {
        out.mark_output(sig_of[&o]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::lsi10k_like;
    use std::sync::Arc;

    fn lib() -> Arc<crate::library::Library> {
        Arc::new(lsi10k_like())
    }

    /// Two-level tree: y = (a&b) | (c&d), all intermediate single-fanout.
    fn tree() -> Netlist {
        let lib = lib();
        let mut nl = Netlist::new("tree", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let ab = nl.add_gate(lib.expect("AND2"), &[a, b], "ab");
        let cd = nl.add_gate(lib.expect("AND2"), &[c, d], "cd");
        let y = nl.add_gate(lib.expect("OR2"), &[ab, cd], "y");
        nl.mark_output(y);
        nl
    }

    fn equivalent(nl: &Netlist, net: &SopNetwork) {
        let n = nl.inputs().len();
        assert!(n <= 16, "exhaustive check limited");
        for m in 0..(1u64 << n) {
            let a: Vec<bool> = (0..n).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(nl.eval(&a), net.eval(&a), "mismatch at {m:#b}");
        }
    }

    #[test]
    fn collapses_single_fanout_tree() {
        let nl = tree();
        let net = extract(&nl, ExtractOptions::default());
        assert_eq!(net.num_nodes(), 1);
        let y = net.outputs()[0];
        assert_eq!(net.node_of(y).unwrap().inputs().len(), 4);
        equivalent(&nl, &net);
    }

    #[test]
    fn support_cap_limits_collapse() {
        let nl = tree();
        let net = extract(&nl, ExtractOptions { max_support: 3 });
        // Merging both ANDs would need 4 inputs; only one can inline.
        assert!(net.num_nodes() >= 2);
        equivalent(&nl, &net);
    }

    #[test]
    fn multifanout_nodes_survive() {
        let lib = lib();
        let mut nl = Netlist::new("mf", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let t = nl.add_gate(lib.expect("AND2"), &[a, b], "t");
        let y = nl.add_gate(lib.expect("OR2"), &[t, c], "y");
        let z = nl.add_gate(lib.expect("NAND2"), &[t, c], "z");
        nl.mark_output(y);
        nl.mark_output(z);
        let net = extract(&nl, ExtractOptions::default());
        // t feeds two readers: stays a node.
        assert_eq!(net.num_nodes(), 3);
        equivalent(&nl, &net);
    }

    #[test]
    fn output_gates_not_inlined() {
        let lib = lib();
        let mut nl = Netlist::new("o", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let t = nl.add_gate(lib.expect("AND2"), &[a, b], "t");
        let y = nl.add_gate(lib.expect("INV"), &[t], "y");
        nl.mark_output(t); // t is itself an output
        nl.mark_output(y);
        let net = extract(&nl, ExtractOptions::default());
        assert_eq!(net.num_nodes(), 2);
        equivalent(&nl, &net);
    }

    #[test]
    fn redundant_support_dropped() {
        let lib = lib();
        let mut nl = Netlist::new("r", lib.clone());
        let a = nl.add_input("a");
        let na = nl.add_gate(lib.expect("INV"), &[a], "na");
        // a | !a = 1: function independent of everything.
        let y = nl.add_gate(lib.expect("OR2"), &[a, na], "y");
        nl.mark_output(y);
        let net = extract(&nl, ExtractOptions::default());
        equivalent(&nl, &net);
        let y_sig = net.outputs()[0];
        assert!(net.node_of(y_sig).unwrap().inputs().is_empty());
    }

    #[test]
    fn repeated_fanins_become_one_variable() {
        // An asymmetric 4-input cell, so a repeat wired to the wrong
        // earlier pin changes the function: x0·x1 + x2·x3'.
        let mut library = lsi10k_like();
        let f = TruthTable::from_fn(4, |m| (m & 3 == 3) || (m & 12 == 4));
        let asym = library.add(crate::library::Cell::new(
            "ASYM4",
            f,
            4.0,
            3.0,
            vec![crate::types::Delay::new(3.0); 4],
        ));
        let lib = Arc::new(library);
        let mut nl = Netlist::new("dup", lib.clone());
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        // Pins (a, a, b, b): the repeat of b at pin 3 copies pin 2, not
        // boundary position 1. Then (c, t, c) through an asymmetric MUX.
        let t = nl.add_gate(asym, &[a, a, b, b], "t");
        let y = nl.add_gate(lib.expect("MUX2"), &[c, t, c], "y");
        nl.mark_output(t);
        nl.mark_output(y);
        let net = extract(&nl, ExtractOptions::default());
        equivalent(&nl, &net);
        let t_sig = net.outputs()[0];
        assert_eq!(net.node_of(t_sig).unwrap().inputs().len(), 1, "t = a");
    }

    #[test]
    fn deep_chain_respects_bound() {
        let lib = lib();
        let mut nl = Netlist::new("chain", lib.clone());
        let inputs: Vec<_> = (0..10).map(|i| nl.add_input(format!("x{i}"))).collect();
        let mut acc = inputs[0];
        for (i, &x) in inputs.iter().enumerate().skip(1) {
            acc = nl.add_gate(lib.expect("AND2"), &[acc, x], format!("t{i}"));
        }
        nl.mark_output(acc);
        let net = extract(&nl, ExtractOptions { max_support: 4 });
        equivalent(&nl, &net);
        for sig in net.node_sigs() {
            assert!(net.node_of(sig).unwrap().inputs().len() <= 4);
        }
    }
}
