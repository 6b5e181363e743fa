//! A small text format for describing mapping problems — the CLI's input.
//!
//! The format is line-oriented (`#` comments, blank lines ignored):
//!
//! ```text
//! # pipeline.pmap
//! procs 64
//! mem_per_proc 500000
//! replication on
//!
//! task colffts
//!   exec poly 0.0 1.573 0.0015
//!   memory 16000 1310720
//!
//! edge
//!   icom poly 0.0 0.04 0.0
//!   ecom poly 0.002 0.05 0.05 0.0 0.0
//!
//! task rowffts
//!   exec poly 0.0 1.573 0.0015
//!   memory 16000 1048576
//!   replicable no
//!   min_procs 2
//! ```
//!
//! `exec`/`icom` accept `poly C1 C2 C3` or `table p1:t1 p2:t2 …`;
//! `ecom` accepts `poly C1 C2 C3 C4 C5`. Tasks and edges must alternate
//! (a chain of k tasks has k−1 edges). No external parser dependency is
//! used: the grammar is three keyword forms.

use pipemap_chain::{ChainBuilder, Edge, Problem, Task};
use pipemap_model::{BinaryCost, MemoryReq, PolyEcom, PolyUnary, Tabulated, UnaryCost};

/// A parse failure, with the 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct SpecError {
    /// Line the error was detected on (0 = end of input).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

fn parse_f64(line: usize, tok: &str, what: &str) -> Result<f64, SpecError> {
    tok.parse::<f64>()
        .map_err(|_| err(line, format!("expected a number for {what}, got '{tok}'")))
}

fn parse_usize(line: usize, tok: &str, what: &str) -> Result<usize, SpecError> {
    tok.parse::<usize>()
        .map_err(|_| err(line, format!("expected an integer for {what}, got '{tok}'")))
}

fn parse_unary(line: usize, toks: &[&str]) -> Result<UnaryCost, SpecError> {
    match toks.first().copied() {
        Some("poly") => {
            if toks.len() != 4 {
                return Err(err(line, "poly needs exactly 3 coefficients: C1 C2 C3"));
            }
            Ok(UnaryCost::Poly(PolyUnary::new(
                parse_f64(line, toks[1], "C1")?,
                parse_f64(line, toks[2], "C2")?,
                parse_f64(line, toks[3], "C3")?,
            )))
        }
        Some("table") => {
            if toks.len() < 2 {
                return Err(err(line, "table needs at least one p:t sample"));
            }
            let mut pts = Vec::new();
            for t in &toks[1..] {
                let (p, v) = t
                    .split_once(':')
                    .ok_or_else(|| err(line, format!("bad sample '{t}', expected p:t")))?;
                pts.push((
                    parse_usize(line, p, "sample processor count")?,
                    parse_f64(line, v, "sample time")?,
                ));
            }
            Ok(UnaryCost::Table(Tabulated::new(pts)))
        }
        Some("zero") => Ok(UnaryCost::Zero),
        other => Err(err(
            line,
            format!("expected 'poly', 'table' or 'zero', got {other:?}"),
        )),
    }
}

fn parse_ecom(line: usize, toks: &[&str]) -> Result<BinaryCost, SpecError> {
    match toks.first().copied() {
        Some("poly") => {
            if toks.len() != 6 {
                return Err(err(line, "ecom poly needs 5 coefficients: C1 C2 C3 C4 C5"));
            }
            let c: Result<Vec<f64>, _> = toks[1..]
                .iter()
                .map(|t| parse_f64(line, t, "coefficient"))
                .collect();
            let c = c?;
            Ok(BinaryCost::Poly(PolyEcom::new(
                c[0], c[1], c[2], c[3], c[4],
            )))
        }
        Some("zero") => Ok(BinaryCost::Zero),
        other => Err(err(
            line,
            format!("expected 'poly' or 'zero', got {other:?}"),
        )),
    }
}

enum Section {
    None,
    Task {
        line: usize,
        name: String,
        exec: Option<UnaryCost>,
        memory: MemoryReq,
        replicable: bool,
        min_procs: Option<usize>,
    },
    Edge {
        icom: UnaryCost,
        ecom: BinaryCost,
    },
}

/// Parse a problem spec.
pub fn parse_spec(text: &str) -> Result<Problem, SpecError> {
    let mut procs: Option<usize> = None;
    let mut mem: Option<f64> = None;
    let mut replication = true;
    let mut builder = ChainBuilder::new();
    let mut tasks = 0usize;
    let mut edges = 0usize;
    let mut section = Section::None;

    let flush = |section: &mut Section,
                 builder: &mut ChainBuilder,
                 tasks: &mut usize,
                 edges: &mut usize|
     -> Result<(), SpecError> {
        let taken = std::mem::replace(section, Section::None);
        match taken {
            Section::None => Ok(()),
            Section::Task {
                line,
                name,
                exec,
                memory,
                replicable,
                min_procs,
            } => {
                let exec =
                    exec.ok_or_else(|| err(line, format!("task '{name}' is missing 'exec'")))?;
                if *tasks != *edges {
                    return Err(err(
                        line,
                        "two tasks in a row: an 'edge' must separate them",
                    ));
                }
                let mut t = Task::new(name, exec).with_memory(memory);
                if !replicable {
                    t = t.not_replicable();
                }
                if let Some(m) = min_procs {
                    t = t.with_min_procs(m);
                }
                let b = std::mem::take(builder);
                *builder = b.task(t);
                *tasks += 1;
                Ok(())
            }
            Section::Edge { icom, ecom } => {
                if *tasks != *edges + 1 {
                    return Err(err(0, "an edge must follow a task"));
                }
                let b = std::mem::take(builder);
                *builder = b.edge(Edge::new(icom, ecom));
                *edges += 1;
                Ok(())
            }
        }
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "procs" => {
                let n = parse_usize(lineno, toks.get(1).copied().unwrap_or(""), "procs")?;
                // The solvers' parent tables hold processor counts as u16.
                if n > u16::MAX as usize {
                    return Err(err(
                        lineno,
                        format!("procs {n} exceeds the solvers' limit of {}", u16::MAX),
                    ));
                }
                procs = Some(n);
            }
            "mem_per_proc" => {
                mem = Some(parse_f64(
                    lineno,
                    toks.get(1).copied().unwrap_or(""),
                    "mem_per_proc",
                )?)
            }
            "replication" => {
                replication = match toks.get(1).copied() {
                    Some("on") | Some("yes") | Some("maximal") => true,
                    Some("off") | Some("no") => false,
                    other => return Err(err(lineno, format!("replication on/off, got {other:?}"))),
                }
            }
            "task" => {
                flush(&mut section, &mut builder, &mut tasks, &mut edges)?;
                let name = toks
                    .get(1)
                    .ok_or_else(|| err(lineno, "task needs a name"))?
                    .to_string();
                section = Section::Task {
                    line: lineno,
                    name,
                    exec: None,
                    memory: MemoryReq::none(),
                    replicable: true,
                    min_procs: None,
                };
            }
            "edge" => {
                flush(&mut section, &mut builder, &mut tasks, &mut edges)?;
                section = Section::Edge {
                    icom: UnaryCost::Zero,
                    ecom: BinaryCost::Zero,
                };
            }
            "exec" => match &mut section {
                Section::Task { exec, .. } => *exec = Some(parse_unary(lineno, &toks[1..])?),
                _ => return Err(err(lineno, "'exec' belongs inside a task")),
            },
            "memory" => match &mut section {
                Section::Task { memory, .. } => {
                    if toks.len() != 3 {
                        return Err(err(
                            lineno,
                            "memory needs: resident_bytes distributed_bytes",
                        ));
                    }
                    *memory = MemoryReq::new(
                        parse_f64(lineno, toks[1], "resident bytes")?,
                        parse_f64(lineno, toks[2], "distributed bytes")?,
                    );
                }
                _ => return Err(err(lineno, "'memory' belongs inside a task")),
            },
            "replicable" => match &mut section {
                Section::Task { replicable, .. } => {
                    *replicable = matches!(toks.get(1).copied(), Some("yes") | Some("true"));
                }
                _ => return Err(err(lineno, "'replicable' belongs inside a task")),
            },
            "min_procs" => match &mut section {
                Section::Task { min_procs, .. } => {
                    *min_procs = Some(parse_usize(
                        lineno,
                        toks.get(1).copied().unwrap_or(""),
                        "min_procs",
                    )?)
                }
                _ => return Err(err(lineno, "'min_procs' belongs inside a task")),
            },
            "icom" => match &mut section {
                Section::Edge { icom, .. } => *icom = parse_unary(lineno, &toks[1..])?,
                _ => return Err(err(lineno, "'icom' belongs inside an edge")),
            },
            "ecom" => match &mut section {
                Section::Edge { ecom, .. } => *ecom = parse_ecom(lineno, &toks[1..])?,
                _ => return Err(err(lineno, "'ecom' belongs inside an edge")),
            },
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    flush(&mut section, &mut builder, &mut tasks, &mut edges)?;

    if tasks == 0 {
        return Err(err(0, "spec defines no tasks"));
    }
    if tasks != edges + 1 {
        return Err(err(0, "spec must end on a task (k tasks need k-1 edges)"));
    }
    let procs = procs.ok_or_else(|| err(0, "missing 'procs' directive"))?;
    let mem = mem.unwrap_or(f64::MAX / 4.0);
    let mut problem = Problem::new(builder.build(), procs, mem);
    if !replication {
        problem = problem.without_replication();
    }
    Ok(problem)
}

/// Render a problem back into the spec format, so fitted models can be
/// saved and reloaded. Only representable cost forms are supported:
/// polynomial and tabulated costs round-trip; a chain holding `Custom`
/// closures (e.g. a ground-truth machine model) cannot be serialised and
/// returns an error naming the offending task or edge.
pub fn render_spec(problem: &Problem) -> Result<String, SpecError> {
    use std::fmt::Write as _;
    fn unary_line(kind: &str, c: &UnaryCost, what: &str) -> Result<String, SpecError> {
        match c {
            UnaryCost::Zero => Ok(format!("  {kind} zero\n")),
            UnaryCost::Poly(p) => Ok(format!("  {kind} poly {} {} {}\n", p.c1, p.c2, p.c3)),
            UnaryCost::Table(t) => {
                let pts: Vec<String> = t.points().iter().map(|(p, v)| format!("{p}:{v}")).collect();
                Ok(format!("  {kind} table {}\n", pts.join(" ")))
            }
            other => Err(err(
                0,
                format!("{what}: cost form {other:?} cannot be written to a spec"),
            )),
        }
    }
    fn ecom_line(c: &BinaryCost, what: &str) -> Result<String, SpecError> {
        match c {
            BinaryCost::Zero => Ok("  ecom zero\n".to_string()),
            BinaryCost::Poly(p) => Ok(format!(
                "  ecom poly {} {} {} {} {}\n",
                p.c1, p.c2, p.c3, p.c4, p.c5
            )),
            other => Err(err(
                0,
                format!("{what}: cost form {other:?} cannot be written to a spec"),
            )),
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# generated by pipemap (render_spec)");
    let _ = writeln!(out, "procs {}", problem.total_procs);
    let _ = writeln!(out, "mem_per_proc {}", problem.mem_per_proc);
    let _ = writeln!(
        out,
        "replication {}",
        if problem.replication == pipemap_chain::ReplicationPolicy::Maximal {
            "on"
        } else {
            "off"
        }
    );
    let chain = &problem.chain;
    for i in 0..chain.len() {
        let t = chain.task(i);
        let _ = writeln!(out, "\ntask {}", t.name.replace(char::is_whitespace, "_"));
        out.push_str(&unary_line("exec", &t.exec, &format!("task {}", t.name))?);
        if t.memory != MemoryReq::none() {
            let _ = writeln!(
                out,
                "  memory {} {}",
                t.memory.resident_bytes, t.memory.distributed_bytes
            );
        }
        if !t.replicable {
            let _ = writeln!(out, "  replicable no");
        }
        if let Some(m) = t.min_procs {
            let _ = writeln!(out, "  min_procs {m}");
        }
        if i + 1 < chain.len() {
            let e = chain.edge(i);
            let _ = writeln!(out, "\nedge");
            out.push_str(&unary_line("icom", &e.icom, &format!("edge {i}"))?);
            out.push_str(&ecom_line(&e.ecom, &format!("edge {i}"))?);
        }
    }
    Ok(out)
}

/// Parse a mapping string of the form `0-0:8x3,1-2:10x4` — a
/// comma-separated list of modules `first-last:replicas x procs`
/// (whitespace around tokens allowed; a singleton range may be written as
/// a single index: `0:8x3`).
pub fn parse_mapping(text: &str) -> Result<pipemap_chain::Mapping, SpecError> {
    let mut modules = Vec::new();
    for (i, part) in text.split(',').enumerate() {
        let part = part.trim();
        let (range, alloc) = part
            .split_once(':')
            .ok_or_else(|| err(i + 1, format!("module '{part}' needs range:alloc")))?;
        let (first, last) = match range.trim().split_once('-') {
            Some((a, b)) => (
                parse_usize(i + 1, a.trim(), "first task")?,
                parse_usize(i + 1, b.trim(), "last task")?,
            ),
            None => {
                let t = parse_usize(i + 1, range.trim(), "task index")?;
                (t, t)
            }
        };
        let (r, p) = alloc.trim().split_once(['x', 'X']).ok_or_else(|| {
            err(
                i + 1,
                format!("allocation '{alloc}' needs replicas x procs"),
            )
        })?;
        let replicas = parse_usize(i + 1, r.trim(), "replicas")?;
        let procs = parse_usize(i + 1, p.trim(), "procs")?;
        if replicas == 0 || procs == 0 || last < first {
            return Err(err(i + 1, format!("invalid module '{part}'")));
        }
        modules.push(pipemap_chain::ModuleAssignment::new(
            first, last, replicas, procs,
        ));
    }
    if modules.is_empty() {
        return Err(err(0, "empty mapping"));
    }
    Ok(pipemap_chain::Mapping::new(modules))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# demo pipeline
procs 16
mem_per_proc 1000
replication off

task front
  exec poly 0.1 2.0 0.0
  memory 10 500

edge
  icom zero
  ecom poly 0.01 0.1 0.1 0 0

task back
  exec table 1:3.0 4:0.9 16:0.4
  replicable no
  min_procs 2
";

    #[test]
    fn parses_a_full_spec() {
        let p = parse_spec(GOOD).unwrap();
        assert_eq!(p.total_procs, 16);
        assert_eq!(p.mem_per_proc, 1000.0);
        assert_eq!(p.num_tasks(), 2);
        assert_eq!(p.chain.task(0).name, "front");
        assert!((p.chain.task(0).exec.eval(2) - 1.1).abs() < 1e-12);
        assert_eq!(p.task_floor(0), Some(1));
        // Table interpolation for the second task.
        assert!((p.chain.task(1).exec.eval(4) - 0.9).abs() < 1e-12);
        assert!(!p.chain.task(1).replicable);
        assert_eq!(p.chain.task(1).min_procs, Some(2));
        assert_eq!(p.replication, pipemap_chain::ReplicationPolicy::Disabled);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let p = parse_spec("procs 4\n\n# hi\ntask t\n exec zero # inline\n").unwrap();
        assert_eq!(p.num_tasks(), 1);
    }

    #[test]
    fn missing_exec_is_an_error() {
        let e = parse_spec("procs 4\ntask t\n").unwrap_err();
        assert!(e.message.contains("missing 'exec'"), "{e}");
    }

    #[test]
    fn adjacent_tasks_rejected() {
        let e = parse_spec("procs 4\ntask a\n exec zero\ntask b\n exec zero\n").unwrap_err();
        assert!(e.message.contains("edge"), "{e}");
    }

    #[test]
    fn trailing_edge_rejected() {
        let e = parse_spec("procs 4\ntask a\n exec zero\nedge\n").unwrap_err();
        assert!(e.message.contains("end on a task"), "{e}");
    }

    #[test]
    fn procs_above_u16_max_rejected_with_its_line() {
        assert!(parse_spec("procs 65535\ntask t\n exec zero\n").is_ok());
        let e = parse_spec("# big\nprocs 65536\ntask t\n exec zero\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("65535"), "{e}");
    }

    #[test]
    fn missing_procs_rejected() {
        let e = parse_spec("task a\n exec zero\n").unwrap_err();
        assert!(e.message.contains("procs"), "{e}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_spec("procs 4\ntask t\n exec poly a b c\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn unknown_directive_rejected() {
        let e = parse_spec("procs 4\nfrobnicate\n").unwrap_err();
        assert!(e.message.contains("frobnicate"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn mapping_string_roundtrip() {
        let m = parse_mapping("0-0:8x3, 1-2:10x4").unwrap();
        assert_eq!(m.num_modules(), 2);
        assert_eq!(m.modules[0].replicas, 8);
        assert_eq!(m.modules[0].procs, 3);
        assert_eq!(m.modules[1].first, 1);
        assert_eq!(m.modules[1].last, 2);
        // Singleton shorthand.
        let m = parse_mapping("0:1x16").unwrap();
        assert_eq!(m.modules[0].first, 0);
        assert_eq!(m.modules[0].last, 0);
    }

    #[test]
    fn mapping_string_roundtrips_compact_form() {
        let m = pipemap_chain::Mapping::new(vec![
            pipemap_chain::ModuleAssignment::new(0, 1, 4, 6),
            pipemap_chain::ModuleAssignment::new(2, 2, 1, 16),
        ]);
        let parsed = parse_mapping(&m.to_compact_string()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn mapping_string_errors() {
        assert!(parse_mapping("").is_err());
        assert!(parse_mapping("0-0").is_err());
        assert!(parse_mapping("0-0:3").is_err());
        assert!(parse_mapping("2-1:1x4").is_err());
        assert!(parse_mapping("0-0:0x4").is_err());
    }

    #[test]
    fn render_spec_roundtrips() {
        let original = parse_spec(GOOD).unwrap();
        let text = render_spec(&original).unwrap();
        let reparsed = parse_spec(&text).unwrap();
        assert_eq!(reparsed.total_procs, original.total_procs);
        assert_eq!(reparsed.mem_per_proc, original.mem_per_proc);
        assert_eq!(reparsed.replication, original.replication);
        assert_eq!(reparsed.num_tasks(), original.num_tasks());
        for i in 0..original.num_tasks() {
            for procs in 1..=16 {
                let a = original.chain.task(i).exec.eval(procs);
                let b = reparsed.chain.task(i).exec.eval(procs);
                assert!((a - b).abs() < 1e-9, "task {i} at {procs}: {a} vs {b}");
            }
            assert_eq!(
                original.chain.task(i).replicable,
                reparsed.chain.task(i).replicable
            );
            assert_eq!(
                original.chain.task(i).min_procs,
                reparsed.chain.task(i).min_procs
            );
        }
        for e in 0..original.num_tasks() - 1 {
            for s in 1..=8 {
                for r in 1..=8 {
                    let a = original.chain.edge(e).ecom.eval(s, r);
                    let b = reparsed.chain.edge(e).ecom.eval(s, r);
                    assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn render_spec_rejects_custom_costs() {
        let chain = pipemap_chain::ChainBuilder::new()
            .task(Task::new(
                "closure",
                pipemap_model::UnaryCost::custom(|p| 1.0 / p as f64),
            ))
            .build();
        let p = Problem::new(chain, 4, 1e9);
        let e = render_spec(&p).unwrap_err();
        assert!(e.message.contains("cannot be written"), "{e}");
    }

    #[test]
    fn parsed_problem_is_solvable() {
        let p = parse_spec(GOOD).unwrap();
        let sol = pipemap_core::dp_mapping(&p).unwrap();
        assert!(sol.throughput > 0.0);
    }
}
