//! A plain-text circuit format, read and write.
//!
//! LEQA and QSPR "share the same parsers for parsing the inputs" (§4.1);
//! this module is that shared parser. The format is line-based:
//!
//! ```text
//! # ham3-style example
//! .name demo
//! .qubits 3
//! h 0
//! t 1
//! tdg 1
//! cnot 0 1
//! toffoli 0 1 2
//! fredkin 0 1 2
//! mct 0 1 2 3        # last operand is the target
//! mcf 0 1 : 2 3      # controls : swapped pair
//! ```
//!
//! Blank lines and `#` comments are ignored. Qubit indices are 0-based.

use leqa_fabric::OneQubitKind;

use crate::{Circuit, CircuitError, Gate, QubitId};

/// Parses a circuit from the text format.
///
/// # Errors
///
/// Returns [`CircuitError::Parse`] with a 1-based line number for malformed
/// input, and the underlying validation error (wrapped as a parse error) for
/// semantically invalid gates.
///
/// # Examples
///
/// ```
/// use leqa_circuit::parser;
///
/// # fn main() -> Result<(), leqa_circuit::CircuitError> {
/// let c = parser::parse(".qubits 2\ncnot 0 1\n")?;
/// assert_eq!(c.num_qubits(), 2);
/// assert_eq!(c.gates().len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn parse(text: &str) -> Result<Circuit, CircuitError> {
    let mut circuit: Option<Circuit> = None;
    let mut name: Option<String> = None;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line has a token");
        let rest: Vec<&str> = tokens.collect();

        match head {
            ".name" => {
                name = Some(rest.join(" "));
            }
            ".qubits" => {
                let n = parse_count(&rest, line_no)?;
                let mut c = Circuit::new(n);
                if let Some(n) = name.take() {
                    c.set_name(n);
                }
                circuit = Some(c);
            }
            _ => {
                let c = circuit.as_mut().ok_or_else(|| CircuitError::Parse {
                    line: line_no,
                    message: "gate before `.qubits` declaration".into(),
                })?;
                let gate = parse_gate(head, &rest, line_no)?;
                c.push(gate).map_err(|e| CircuitError::Parse {
                    line: line_no,
                    message: e.to_string(),
                })?;
            }
        }
    }

    circuit.ok_or(CircuitError::Parse {
        line: 0,
        message: "missing `.qubits` declaration".into(),
    })
}

fn parse_count(rest: &[&str], line: usize) -> Result<u32, CircuitError> {
    if rest.len() != 1 {
        return Err(CircuitError::Parse {
            line,
            message: "`.qubits` takes exactly one argument".into(),
        });
    }
    rest[0].parse().map_err(|_| CircuitError::Parse {
        line,
        message: format!("invalid qubit count `{}`", rest[0]),
    })
}

fn parse_qubits(rest: &[&str], line: usize) -> Result<Vec<QubitId>, CircuitError> {
    rest.iter()
        .map(|t| {
            t.parse::<u32>()
                .map(QubitId)
                .map_err(|_| CircuitError::Parse {
                    line,
                    message: format!("invalid qubit index `{t}`"),
                })
        })
        .collect()
}

fn arity_error(head: &str, want: usize, got: usize, line: usize) -> CircuitError {
    CircuitError::Parse {
        line,
        message: format!("`{head}` takes {want} operand(s), got {got}"),
    }
}

fn wrap(line: usize) -> impl Fn(CircuitError) -> CircuitError {
    move |e| CircuitError::Parse {
        line,
        message: e.to_string(),
    }
}

fn parse_gate(head: &str, rest: &[&str], line: usize) -> Result<Gate, CircuitError> {
    let one_qubit = |kind: OneQubitKind| -> Result<Gate, CircuitError> {
        let qs = parse_qubits(rest, line)?;
        if qs.len() != 1 {
            return Err(arity_error(head, 1, qs.len(), line));
        }
        Ok(Gate::one_qubit(kind, qs[0]))
    };

    match head.to_ascii_lowercase().as_str() {
        "h" => one_qubit(OneQubitKind::H),
        "t" => one_qubit(OneQubitKind::T),
        "tdg" | "t+" => one_qubit(OneQubitKind::Tdg),
        "s" => one_qubit(OneQubitKind::S),
        "sdg" | "s+" => one_qubit(OneQubitKind::Sdg),
        "x" | "not" => one_qubit(OneQubitKind::X),
        "y" => one_qubit(OneQubitKind::Y),
        "z" => one_qubit(OneQubitKind::Z),
        "cnot" => {
            let qs = parse_qubits(rest, line)?;
            if qs.len() != 2 {
                return Err(arity_error(head, 2, qs.len(), line));
            }
            Gate::cnot(qs[0], qs[1]).map_err(wrap(line))
        }
        "toffoli" => {
            let qs = parse_qubits(rest, line)?;
            if qs.len() != 3 {
                return Err(arity_error(head, 3, qs.len(), line));
            }
            Gate::toffoli(qs[0], qs[1], qs[2]).map_err(wrap(line))
        }
        "fredkin" => {
            let qs = parse_qubits(rest, line)?;
            if qs.len() != 3 {
                return Err(arity_error(head, 3, qs.len(), line));
            }
            Gate::fredkin(qs[0], qs[1], qs[2]).map_err(wrap(line))
        }
        "mct" => {
            let qs = parse_qubits(rest, line)?;
            if qs.len() < 2 {
                return Err(arity_error(head, 2, qs.len(), line));
            }
            let (target, controls) = qs.split_last().expect("checked length");
            Gate::mct(controls.to_vec(), *target).map_err(wrap(line))
        }
        "mcf" => {
            let sep = rest
                .iter()
                .position(|&t| t == ":")
                .ok_or(CircuitError::Parse {
                    line,
                    message: "`mcf` needs `controls : a b`".into(),
                })?;
            let controls = parse_qubits(&rest[..sep], line)?;
            let targets = parse_qubits(&rest[sep + 1..], line)?;
            if targets.len() != 2 {
                return Err(CircuitError::Parse {
                    line,
                    message: "`mcf` needs exactly two swapped wires".into(),
                });
            }
            Gate::mcf(controls, targets[0], targets[1]).map_err(wrap(line))
        }
        other => Err(CircuitError::Parse {
            line,
            message: format!("unknown gate `{other}`"),
        }),
    }
}

/// Renders a circuit back to the text format; `parse(&write(c))` round-trips.
///
/// The text is measured first and then written into a buffer of exactly
/// that size: one allocation per call, none per gate.
pub fn write(circuit: &Circuit) -> String {
    let mut len = 0usize;
    render(circuit, &mut len);
    let mut out = String::with_capacity(len);
    render(circuit, &mut out);
    debug_assert_eq!(out.len(), len, "the measuring pass sizes the text exactly");
    out
}

/// Where [`render`] puts the text: a byte count when measuring, the
/// buffer when writing.
trait Sink {
    fn text(&mut self, text: &str);
    fn id(&mut self, id: u32);
}

impl Sink for usize {
    fn text(&mut self, text: &str) {
        *self += text.len();
    }

    fn id(&mut self, id: u32) {
        *self += id.checked_ilog10().map_or(1, |digits| digits as usize + 1);
    }
}

impl Sink for String {
    fn text(&mut self, text: &str) {
        self.push_str(text);
    }

    fn id(&mut self, mut id: u32) {
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (id % 10) as u8;
            id /= 10;
            if id == 0 {
                break;
            }
        }
        self.extend(digits[at..].iter().map(|&d| char::from(d)));
    }
}

/// The text format's mnemonic for a one-qubit kind.
fn mnemonic(kind: OneQubitKind) -> &'static str {
    match kind {
        OneQubitKind::H => "h",
        OneQubitKind::T => "t",
        OneQubitKind::Tdg => "tdg",
        OneQubitKind::S => "s",
        OneQubitKind::Sdg => "sdg",
        OneQubitKind::X => "x",
        OneQubitKind::Y => "y",
        OneQubitKind::Z => "z",
    }
}

/// Writes `ids` separated by single spaces.
fn id_list(out: &mut impl Sink, ids: &[QubitId]) {
    for (i, q) in ids.iter().enumerate() {
        if i > 0 {
            out.text(" ");
        }
        out.id(q.0);
    }
}

/// The one rendering of the text format, run once to measure and once to
/// write.
fn render(circuit: &Circuit, out: &mut impl Sink) {
    if let Some(name) = circuit.name() {
        out.text(".name ");
        out.text(name);
        out.text("\n");
    }
    out.text(".qubits ");
    out.id(circuit.num_qubits());
    out.text("\n");
    for gate in circuit.gates() {
        match gate {
            Gate::OneQubit { kind, target } => {
                out.text(mnemonic(*kind));
                out.text(" ");
                out.id(target.0);
            }
            Gate::Cnot { control, target } => {
                out.text("cnot ");
                id_list(out, &[*control, *target]);
            }
            Gate::Toffoli { c1, c2, target } => {
                out.text("toffoli ");
                id_list(out, &[*c1, *c2, *target]);
            }
            Gate::Fredkin { control, a, b } => {
                out.text("fredkin ");
                id_list(out, &[*control, *a, *b]);
            }
            Gate::Mct { controls, target } => {
                out.text("mct ");
                id_list(out, controls);
                out.text(" ");
                out.id(target.0);
            }
            Gate::Mcf { controls, a, b } => {
                out.text("mcf ");
                id_list(out, controls);
                out.text(" : ");
                id_list(out, &[*a, *b]);
            }
        }
        out.text("\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_gate_forms() {
        let text = "\
# full alphabet
.name alphabet
.qubits 6
h 0
t 1
tdg 2
s 3
sdg 4
x 5
y 0
z 1
not 2
cnot 0 1
toffoli 0 1 2
fredkin 0 1 2
mct 0 1 2 3
mcf 0 1 : 2 3
";
        let c = parse(text).unwrap();
        assert_eq!(c.name(), Some("alphabet"));
        assert_eq!(c.num_qubits(), 6);
        assert_eq!(c.gates().len(), 14);
    }

    #[test]
    fn roundtrip() {
        let text = "\
.name rt
.qubits 5
tdg 0
sdg 1
cnot 0 1
toffoli 0 1 2
fredkin 2 3 4
mct 0 1 2 4
mcf 0 1 : 3 4
";
        let c = parse(text).unwrap();
        let c2 = parse(&write(&c)).unwrap();
        assert_eq!(c, c2);
    }

    #[test]
    fn error_has_line_number() {
        let err = parse(".qubits 2\nbogus 0\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }));
    }

    #[test]
    fn gate_before_header_is_rejected() {
        let err = parse("cnot 0 1\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 1, .. }));
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = parse("# nothing\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 0, .. }));
    }

    #[test]
    fn out_of_range_is_a_parse_error_with_location() {
        let err = parse(".qubits 2\ncnot 0 5\n").unwrap_err();
        match err {
            CircuitError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("out of range"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn arity_errors() {
        assert!(parse(".qubits 3\ncnot 0\n").is_err());
        assert!(parse(".qubits 3\ntoffoli 0 1\n").is_err());
        assert!(parse(".qubits 3\nh 0 1\n").is_err());
        assert!(parse(".qubits 3\nmcf 0 1 2\n").is_err()); // missing `:`
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = parse("\n# hi\n.qubits 1\n\nx 0 # inline\n").unwrap();
        assert_eq!(c.gates().len(), 1);
    }
}
