//! The shared diagnostic type: every static finding about a program —
//! parse errors, validation errors, lint findings — renders through this
//! one structure.
//!
//! A [`Diagnostic`] carries a stable `P3xxx` code, a [`Severity`], a
//! human message, and (when the program came from source text) a byte
//! [`Span`] resolved to a 1-based line and column. Two renderings are
//! provided: [`Diagnostic::render`] produces rustc-style text with the
//! offending source line and a caret underline, and
//! [`Diagnostic::to_value`] builds a machine-readable JSON object for the
//! service protocol and `p3 lint --json`.

use crate::parser::Span;
use p3_obs::json::Value;
use std::fmt;

/// How serious a finding is.
///
/// Ordered so that `Info < Warn < Error` — `report.worst() >=
/// Severity::Error` is the gate condition used by the CLI, CI, and the
/// `load-program` op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory only (cost estimates, style).
    Info,
    /// Suspicious but evaluable (dead rules, typos, degenerate labels).
    Warn,
    /// The program is rejected (unsafe, unstratified, malformed).
    Error,
}

impl Severity {
    /// Lowercase name used in text rendering and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One static finding about a program.
#[derive(Clone, PartialEq, Debug)]
pub struct Diagnostic {
    /// Stable code, e.g. `"P3101"` (see `DESIGN.md` §10 for the table).
    pub code: &'static str,
    /// Error / warning / info.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Byte range in the source, when the program came from text.
    pub span: Option<Span>,
    /// 1-based line of `span.start`; 0 when unknown.
    pub line: usize,
    /// 1-based column of `span.start`; 0 when unknown.
    pub column: usize,
    /// Label of the clause the finding is about, when there is one.
    pub clause: Option<String>,
    /// Optional suggestion appended as a `= help:` note.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A diagnostic with no location; attach one with [`Self::with_span`].
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Self {
            code,
            severity,
            message: message.into(),
            span: None,
            line: 0,
            column: 0,
            clause: None,
            help: None,
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Error, message)
    }

    /// A warning-severity diagnostic.
    pub fn warn(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Warn, message)
    }

    /// An info-severity diagnostic.
    pub fn info(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(code, Severity::Info, message)
    }

    /// Attaches a source span (no-op for `None`).
    pub fn with_span(mut self, span: Option<Span>) -> Self {
        self.span = span;
        self
    }

    /// Records which clause the finding is about.
    pub fn with_clause(mut self, label: impl Into<String>) -> Self {
        self.clause = Some(label.into());
        self
    }

    /// Adds a `= help:` suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Resolves the span to a 1-based line and column against `src`.
    pub fn locate(mut self, src: &str) -> Self {
        if let Some(span) = self.span {
            let (line, column) = line_col(src, span.start);
            self.line = line;
            self.column = column;
        }
        self
    }

    /// Rustc-style text rendering. With `src`, the offending line is
    /// quoted with a caret underline; `path` names the file in the
    /// `-->` locus line.
    pub fn render(&self, src: Option<&str>, path: Option<&str>) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code, self.message);
        let Some(span) = self.span else {
            if let Some(clause) = &self.clause {
                out.push_str(&format!("\n  = note: in clause '{clause}'"));
            }
            if let Some(help) = &self.help {
                out.push_str(&format!("\n  = help: {help}"));
            }
            return out;
        };
        let (line, column) = match src {
            Some(src) => line_col(src, span.start),
            None => (self.line, self.column),
        };
        if line > 0 {
            let file = path.unwrap_or("<program>");
            out.push_str(&format!("\n  --> {file}:{line}:{column}"));
        }
        if let Some(src) = src {
            if let Some(text) = src.lines().nth(line.saturating_sub(1)) {
                let gutter = line.to_string();
                let pad = " ".repeat(gutter.len());
                // Caret width: the span clipped to the quoted line.
                let width = (span.end - span.start)
                    .min(text.chars().count().saturating_sub(column - 1))
                    .max(1);
                out.push_str(&format!("\n {pad} |\n {gutter} | {text}"));
                out.push_str(&format!(
                    "\n {pad} | {}{}",
                    " ".repeat(column - 1),
                    "^".repeat(width)
                ));
            }
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("\n  = help: {help}"));
        }
        out
    }

    /// The diagnostic as a JSON object: `code`, `severity`, `message`,
    /// then `span`, `line`/`column`, `clause` and `help` when known.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("code", Value::from(self.code)),
            ("severity", Value::from(self.severity.as_str())),
            ("message", Value::from(self.message.as_str())),
        ];
        if let Some(span) = self.span {
            let span = Value::object(vec![("start", span.start.into()), ("end", span.end.into())]);
            fields.push(("span", span));
        }
        if self.line > 0 {
            fields.push(("line", self.line.into()));
            fields.push(("column", self.column.into()));
        }
        if let Some(clause) = &self.clause {
            fields.push(("clause", clause.as_str().into()));
        }
        if let Some(help) = &self.help {
            fields.push(("help", help.as_str().into()));
        }
        Value::object(fields)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if self.line > 0 {
            write!(f, " at line {}, column {}", self.line, self.column)?;
        }
        Ok(())
    }
}

/// Computes the 1-based (line, column) of byte `offset` in `src`.
pub fn line_col(src: &str, offset: usize) -> (usize, usize) {
    let clamped = offset.min(src.len());
    let mut line = 1;
    let mut col = 1;
    for (i, ch) in src.char_indices() {
        if i >= clamped {
            break;
        }
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_counts_lines_and_columns() {
        let src = "abc\ndef\nghi";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 2), (1, 3));
        assert_eq!(line_col(src, 4), (2, 1));
        assert_eq!(line_col(src, 9), (3, 2));
        assert_eq!(line_col("ab", 99), (1, 3));
    }

    #[test]
    fn severity_orders_info_warn_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn render_quotes_the_offending_line() {
        let src = "a(1).\nb(X) :- a(X), X != Z.\n";
        let span = Span::new(src.find('Z').unwrap(), src.find('Z').unwrap() + 1);
        let d = Diagnostic::error("P3101", "variable Z is unbound")
            .with_span(Some(span))
            .locate(src)
            .with_help("bind Z in a positive body atom");
        let text = d.render(Some(src), Some("prog.pl"));
        assert!(text.contains("error[P3101]"), "{text}");
        assert!(text.contains("--> prog.pl:2:"), "{text}");
        assert!(text.contains("b(X) :- a(X), X != Z."), "{text}");
        assert!(text.contains('^'), "{text}");
        assert!(text.contains("= help:"), "{text}");
    }

    #[test]
    fn render_without_span_still_mentions_clause() {
        let d = Diagnostic::warn("P3302", "probability 0").with_clause("t1");
        let text = d.render(None, None);
        assert!(text.contains("warning[P3302]"), "{text}");
        assert!(text.contains("in clause 't1'"), "{text}");
    }

    #[test]
    fn json_escapes_and_carries_location() {
        let d = Diagnostic::error("P3105", "used \"weird\"\narity")
            .with_span(Some(Span::new(3, 7)))
            .locate("abcdefgh")
            .with_clause("r1");
        let json = d.to_value().to_json();
        assert!(json.contains(r#""code":"P3105""#), "{json}");
        assert!(json.contains(r#""severity":"error""#), "{json}");
        assert!(json.contains(r#"\"weird\"\narity"#), "{json}");
        assert!(json.contains(r#""span":{"start":3,"end":7}"#), "{json}");
        assert!(json.contains(r#""line":1,"column":4"#), "{json}");
        assert!(json.contains(r#""clause":"r1""#), "{json}");
    }
}
