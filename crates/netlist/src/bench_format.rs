//! ISCAS89 `.bench` reader and writer.
//!
//! The `.bench` dialect understood here is the classic one:
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = NAND(G0, G1)
//! G7  = DFF(G14)
//! ```
//!
//! Explicit `DFF` elements are collapsed into per-connection flip-flop
//! counts on the [`Circuit`] edges (chains of DFFs accumulate), which is
//! the edge-weighted representation retiming operates on.

use crate::{Circuit, Sink, Unit, UnitId, UnitKind};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    /// 1-based line number, 0 for whole-file problems.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for ParseBenchError {}

fn err(line: usize, message: impl Into<String>) -> ParseBenchError {
    ParseBenchError {
        line,
        message: message.into(),
    }
}

/// Per-gate-type raw delay (ps) and area (µm²) used when instantiating
/// `.bench` gates as functional units.
fn gate_params(kind: &str) -> (f64, f64) {
    match kind {
        "NOT" | "INV" => (0.7, 0.8),
        "BUF" | "BUFF" => (0.6, 0.8),
        "AND" => (1.2, 1.4),
        "NAND" => (1.0, 1.2),
        "OR" => (1.3, 1.4),
        "NOR" => (1.1, 1.2),
        "XOR" => (1.8, 2.2),
        "XNOR" => (1.9, 2.2),
        _ => (1.5, 1.8),
    }
}

#[derive(Debug, Clone)]
enum Def {
    Input,
    Gate { kind: String, inputs: Vec<String> },
    Dff { input: String },
}

/// Parses `.bench` text into a [`Circuit`] named `name`.
///
/// # Errors
///
/// Returns [`ParseBenchError`] on malformed lines, references to undefined
/// signals, duplicate definitions (including duplicate `OUTPUT` markers),
/// an empty netlist, or all-DFF loops (a cycle made solely of flip-flops
/// has no functional unit to attach them to). Every error carries the
/// 1-based line number of the offending definition (0 only for
/// whole-file problems such as an empty netlist).
///
/// # Examples
///
/// ```
/// let src = "
/// INPUT(a)
/// OUTPUT(z)
/// q = DFF(g)
/// g = NAND(a, q)
/// z = BUF(g)
/// ";
/// let c = lacr_netlist::bench_format::parse("demo", src)?;
/// assert_eq!(c.num_flops(), 1);
/// assert!(c.validate().is_empty());
/// # Ok::<(), lacr_netlist::bench_format::ParseBenchError>(())
/// ```
pub fn parse(name: &str, text: &str) -> Result<Circuit, ParseBenchError> {
    let _span = lacr_obs::span!("netlist.parse_bench", bytes = text.len());
    // Each definition remembers its 1-based source line, so errors found
    // during resolution (undefined signals, DFF-only cycles) can still
    // point at a concrete line.
    let mut defs: HashMap<String, (Def, usize)> = HashMap::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<(String, usize)> = Vec::new();
    let mut order: Vec<String> = Vec::new(); // gate instantiation order

    for (ln, raw) in text.lines().enumerate() {
        let line_no = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("INPUT") {
            let sig = strip_parens(rest)
                .ok_or_else(|| err(line_no, format!("malformed INPUT line {line:?}")))?;
            if defs
                .insert(sig.to_string(), (Def::Input, line_no))
                .is_some()
            {
                return Err(err(line_no, format!("signal {sig:?} defined twice")));
            }
            inputs.push(sig.to_string());
        } else if let Some(rest) = line.strip_prefix("OUTPUT") {
            let sig = strip_parens(rest)
                .ok_or_else(|| err(line_no, format!("malformed OUTPUT line {line:?}")))?;
            if outputs.iter().any(|(s, _)| s == sig) {
                return Err(err(line_no, format!("output {sig:?} defined twice")));
            }
            outputs.push((sig.to_string(), line_no));
        } else if let Some(eq) = line.find('=') {
            let lhs = line[..eq].trim();
            let rhs = line[eq + 1..].trim();
            let open = rhs
                .find('(')
                .ok_or_else(|| err(line_no, format!("missing '(' in {line:?}")))?;
            let kind = rhs[..open].trim().to_ascii_uppercase();
            let args = rhs[open..]
                .trim()
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| err(line_no, format!("malformed gate in {line:?}")))?;
            let ins: Vec<String> = args
                .split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect();
            if ins.is_empty() {
                return Err(err(line_no, format!("gate {lhs:?} has no inputs")));
            }
            let def = if kind == "DFF" || kind == "DFFSR" {
                if ins.len() != 1 {
                    return Err(err(line_no, format!("DFF {lhs:?} must have one input")));
                }
                Def::Dff {
                    input: ins[0].clone(),
                }
            } else {
                Def::Gate { kind, inputs: ins }
            };
            if defs.insert(lhs.to_string(), (def, line_no)).is_some() {
                return Err(err(line_no, format!("signal {lhs:?} defined twice")));
            }
            order.push(lhs.to_string());
        } else {
            return Err(err(line_no, format!("unrecognised line {line:?}")));
        }
    }

    // Resolve a signal through any chain of DFFs to its combinational or
    // primary-input source, counting flip-flops. `ref_line` is the line
    // that referenced the signal, used for errors with no better anchor.
    let resolve = |sig: &str, ref_line: usize| -> Result<(String, u32), ParseBenchError> {
        let mut cur = sig.to_string();
        let mut flops = 0u32;
        let mut hops = 0usize;
        let mut last_line = ref_line;
        loop {
            match defs.get(&cur) {
                Some((Def::Dff { input }, def_line)) => {
                    flops += 1;
                    last_line = *def_line;
                    cur = input.clone();
                    hops += 1;
                    if hops > defs.len() {
                        return Err(err(
                            last_line,
                            format!("cycle of DFFs with no logic through {sig:?}"),
                        ));
                    }
                }
                Some(_) => return Ok((cur, flops)),
                None => {
                    return Err(err(last_line, format!("undefined signal {cur:?}")));
                }
            }
        }
    };

    let mut circuit = Circuit::new(name);
    let mut unit_of: HashMap<String, UnitId> = HashMap::new();
    for sig in &inputs {
        let id = circuit.add_unit(Unit::input(sig.clone()));
        unit_of.insert(sig.clone(), id);
    }
    for sig in &order {
        if let Some((Def::Gate { kind, .. }, _)) = defs.get(sig) {
            let (delay, area) = gate_params(kind);
            let id = circuit.add_unit(Unit::logic(sig.clone(), delay, area));
            unit_of.insert(sig.clone(), id);
        }
    }
    let mut output_units: HashMap<String, UnitId> = HashMap::new();
    for (sig, _) in &outputs {
        let id = circuit.add_unit(Unit::output(format!("out:{sig}")));
        output_units.insert(sig.clone(), id);
    }

    // Gather connections grouped by driving unit.
    let mut fanout: HashMap<UnitId, Vec<Sink>> = HashMap::new();
    for sig in &order {
        if let Some((Def::Gate { inputs: ins, .. }, def_line)) = defs.get(sig) {
            let to = unit_of[sig];
            for in_sig in ins {
                let (src, flops) = resolve(in_sig, *def_line)?;
                let from = *unit_of
                    .get(&src)
                    .ok_or_else(|| err(*def_line, format!("undefined signal {src:?}")))?;
                fanout.entry(from).or_default().push(Sink::new(to, flops));
            }
        }
    }
    for (sig, out_line) in &outputs {
        let to = output_units[sig];
        let (src, flops) = resolve(sig, *out_line)?;
        let from = *unit_of
            .get(&src)
            .ok_or_else(|| err(*out_line, format!("undefined signal {src:?}")))?;
        fanout.entry(from).or_default().push(Sink::new(to, flops));
    }

    let mut drivers: Vec<UnitId> = fanout.keys().copied().collect();
    drivers.sort();
    for d in drivers {
        let sinks = fanout.remove(&d).expect("key present");
        circuit.add_net(d, sinks);
    }
    if circuit.num_units() == 0 {
        return Err(err(0, "empty netlist: no signals defined"));
    }
    Ok(circuit)
}

/// Writes a circuit back to `.bench` text.
///
/// Flip-flops on edges are expanded back into named `DFF` elements; logic
/// units are emitted as generic `UNIT` gates (gate identities are not
/// preserved by the edge-weighted model). The result parses back into a
/// circuit with the same input, output and flop counts, which the tests
/// rely on. It is isomorphic unless two outputs share a signal: `OUTPUT`
/// may name a signal only once, so each later output on a marked signal
/// is fed through a fresh `BUFF`, one extra logic unit per such output.
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", circuit.name()));
    for id in circuit.units_of_kind(UnitKind::Input) {
        out.push_str(&format!("INPUT({})\n", circuit.unit(id).name));
    }
    // Output markers: each Output unit's incoming signal.
    let mut dff_count = 0usize;
    let mut lines = Vec::new();
    let mut output_lines = Vec::new();
    let mut marked: HashSet<String> = HashSet::new();
    let mut buff_count = 0usize;
    for net in circuit.nets() {
        let driver_name = &circuit.unit(net.driver).name;
        for s in &net.sinks {
            // Chain of `flops` DFFs between driver and sink.
            let mut src = driver_name.clone();
            for _ in 0..s.flops {
                let q = format!("dff{dff_count}");
                dff_count += 1;
                lines.push(format!("{q} = DFF({src})"));
                src = q;
            }
            let sink_unit = circuit.unit(s.unit);
            if sink_unit.kind == UnitKind::Output {
                // OUTPUT lines are markers, not definitions, so referring to
                // the (possibly DFF-chained) driving signal is enough.
                if !marked.insert(src.clone()) {
                    let buff = loop {
                        let name = format!("obuf{buff_count}");
                        buff_count += 1;
                        if circuit.unit_by_name(&name).is_none() {
                            break name;
                        }
                    };
                    lines.push(format!("{buff} = BUFF({src})"));
                    src = buff;
                }
                output_lines.push(format!("OUTPUT({src})"));
            }
        }
    }
    // Re-emit logic units as UNIT gates with their gathered fanins.
    let mut fanins: HashMap<UnitId, Vec<String>> = HashMap::new();
    let mut dff_idx = 0usize;
    for net in circuit.nets() {
        let driver_name = circuit.unit(net.driver).name.clone();
        for s in &net.sinks {
            let mut src = driver_name.clone();
            for _ in 0..s.flops {
                src = format!("dff{dff_idx}");
                dff_idx += 1;
            }
            if circuit.unit(s.unit).kind == UnitKind::Logic {
                fanins.entry(s.unit).or_default().push(src);
            }
        }
    }
    for id in circuit.units_of_kind(UnitKind::Logic) {
        let name = &circuit.unit(id).name;
        let ins = fanins
            .get(&id)
            .map(|v| v.join(", "))
            .unwrap_or_else(|| "vdd".to_string());
        lines.push(format!("{name} = UNIT({ins})"));
    }
    for l in output_lines {
        out.push_str(&l);
        out.push('\n');
    }
    for l in lines {
        out.push_str(&l);
        out.push('\n');
    }
    out
}

fn strip_parens(s: &str) -> Option<&str> {
    let s = s.trim();
    let inner = s.strip_prefix('(')?.strip_suffix(')')?;
    let inner = inner.trim();
    if inner.is_empty() {
        None
    } else {
        Some(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "
# a small sequential circuit
INPUT(a)
INPUT(b)
OUTPUT(z)
q1 = DFF(g2)
g1 = NAND(a, q1)
g2 = NOR(g1, b)
z = BUF(g2)
";

    #[test]
    fn parses_small_circuit() {
        let c = parse("small", SMALL).expect("parse");
        assert_eq!(c.name(), "small");
        // units: a, b, g1, g2, z-buf(BUF is a gate), out:z
        assert_eq!(
            c.units_of_kind(UnitKind::Input).count(),
            2,
            "two primary inputs"
        );
        assert_eq!(c.units_of_kind(UnitKind::Output).count(), 1);
        assert_eq!(c.num_flops(), 1);
        assert!(c.validate().is_empty(), "{:?}", c.validate());
    }

    #[test]
    fn dff_chain_accumulates() {
        let src = "
INPUT(a)
OUTPUT(z)
q1 = DFF(a)
q2 = DFF(q1)
q3 = DFF(q2)
z = BUF(q3)
";
        let c = parse("chain", src).expect("parse");
        assert_eq!(c.num_flops(), 3);
        let edge = c.edges().find(|e| e.flops == 3).expect("3-flop edge");
        assert_eq!(c.unit(edge.from).kind, UnitKind::Input);
    }

    #[test]
    fn all_dff_loop_rejected() {
        let src = "
INPUT(a)
OUTPUT(z)
q1 = DFF(q2)
q2 = DFF(q1)
z = BUF(q1)
";
        let e = parse("loop", src).unwrap_err();
        assert!(e.message.contains("cycle of DFFs"), "{e}");
    }

    #[test]
    fn undefined_signal_rejected() {
        let src = "
INPUT(a)
OUTPUT(z)
z = BUF(ghost)
";
        let e = parse("bad", src).unwrap_err();
        assert!(e.message.contains("undefined"), "{e}");
    }

    #[test]
    fn duplicate_definition_rejected() {
        let src = "
INPUT(a)
a = BUF(a)
";
        let e = parse("bad", src).unwrap_err();
        assert!(e.message.contains("defined twice"), "{e}");
    }

    #[test]
    fn malformed_line_rejected() {
        let e = parse("bad", "whatever this is").unwrap_err();
        assert!(e.message.contains("unrecognised"), "{e}");
        assert_eq!(e.line, 1);
    }

    #[test]
    fn missing_inputs_rejected() {
        let e = parse("bad", "g = AND()").unwrap_err();
        assert!(e.message.contains("no inputs"), "{e}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = parse("c", "# nothing\n\n   \nINPUT(a)\nOUTPUT(z)\nz = BUF(a)\n").unwrap();
        assert_eq!(c.num_units(), 3); // a, z-buf gate, out:z
    }

    #[test]
    fn roundtrip_preserves_counts() {
        let c = parse("small", SMALL).expect("parse");
        let text = write(&c);
        let c2 = parse("small2", &text).expect("reparse:\n{text}");
        assert_eq!(c.num_flops(), c2.num_flops());
        assert_eq!(
            c.units_of_kind(UnitKind::Input).count(),
            c2.units_of_kind(UnitKind::Input).count()
        );
        assert_eq!(
            c.units_of_kind(UnitKind::Output).count(),
            c2.units_of_kind(UnitKind::Output).count()
        );
        assert!(c2.validate().is_empty(), "{:?}", c2.validate());
    }

    #[test]
    fn outputs_sharing_a_signal_reparse_through_a_buff() {
        // One gate drives two outputs with no flip-flop on either, so both
        // markers would name the gate. The gate is called `obuf0` to force
        // the buffer onto a name no unit uses.
        let mut c = Circuit::new("shared");
        let a = c.add_unit(Unit::input("a"));
        let g = c.add_unit(Unit::logic("obuf0", 1.0, 1.0));
        let o1 = c.add_unit(Unit::output("o1"));
        let o2 = c.add_unit(Unit::output("o2"));
        c.add_net(a, vec![Sink::new(g, 1)]);
        c.add_net(g, vec![Sink::new(o1, 0), Sink::new(o2, 0)]);
        assert!(c.validate().is_empty(), "{:?}", c.validate());

        let text = write(&c);
        let back = parse("shared", &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert!(text.contains("OUTPUT(obuf0)\nOUTPUT(obuf1)\n"), "{text}");
        assert!(text.contains("obuf1 = BUFF(obuf0)\n"), "{text}");
        assert_eq!(back.units_of_kind(UnitKind::Output).count(), 2);
        assert_eq!(back.num_flops(), c.num_flops());
        assert_eq!(back.num_units(), c.num_units() + 1);
        assert!(back.validate().is_empty(), "{:?}", back.validate());
    }

    #[test]
    fn empty_file_is_an_error_not_an_empty_circuit() {
        for src in ["", "\n\n", "# only a comment\n", "   \n#x\n  \n"] {
            let e = parse("empty", src).unwrap_err();
            assert!(e.message.contains("empty netlist"), "{src:?}: {e}");
            assert_eq!(e.line, 0, "whole-file problem carries line 0");
        }
    }

    #[test]
    fn crlf_line_endings_parse_and_number_correctly() {
        let src = SMALL.replace('\n', "\r\n");
        let c = parse("crlf", &src).expect("CRLF text parses");
        assert_eq!(c.num_flops(), 1);
        assert!(c.validate().is_empty());
        // Errors under CRLF still cite the right 1-based line.
        let bad = "INPUT(a)\r\nOUTPUT(z)\r\ngarbage\r\nz = BUF(a)\r\n";
        let e = parse("crlf-bad", bad).unwrap_err();
        assert!(e.message.contains("unrecognised"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn duplicate_output_cites_its_line() {
        let src = "\nINPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = BUF(a)\n";
        let e = parse("dup-out", src).unwrap_err();
        assert!(e.message.contains("output \"z\" defined twice"), "{e}");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn dff_self_loop_cites_the_dff_line() {
        let src = "\nINPUT(a)\nOUTPUT(z)\nq = DFF(q)\nz = NAND(a, q)\n";
        let e = parse("dff-self", src).unwrap_err();
        assert!(e.message.contains("cycle of DFFs"), "{e}");
        assert_eq!(e.line, 4, "points at the self-looping DFF");
    }

    #[test]
    fn trailing_garbage_cites_its_line() {
        let src = "INPUT(a)\nOUTPUT(z)\nz = BUF(a)\nthis is not bench\n";
        let e = parse("trailing", src).unwrap_err();
        assert!(e.message.contains("unrecognised"), "{e}");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn undefined_signal_cites_the_referencing_line() {
        let src = "\nINPUT(a)\nOUTPUT(z)\nz = BUF(ghost)\n";
        let e = parse("undef", src).unwrap_err();
        assert!(e.message.contains("undefined"), "{e}");
        assert_eq!(e.line, 4);
    }

    #[test]
    fn self_loop_through_dff_ok() {
        let src = "
INPUT(a)
OUTPUT(z)
q = DFF(g)
g = NAND(a, q)
z = BUF(g)
";
        let c = parse("selfloop", src).expect("parse");
        assert!(c.validate().is_empty());
        // g drives itself through one flop.
        let self_edge = c.edges().find(|e| e.from == e.to).expect("self edge");
        assert_eq!(self_edge.flops, 1);
    }
}
