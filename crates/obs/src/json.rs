//! The workspace's one JSON string escaper (RFC 8259).
//!
//! Every crate that writes JSON by hand — audit records, explain and
//! analyze plans, lint diagnostics, Chrome traces and the service's wire
//! encoder — escapes strings here, so their outputs agree byte for byte.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping: quotes, backslashes and
/// control characters are escaped, everything else is copied verbatim. No
/// surrounding quotes are added.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `s` as a complete JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(
            quote("a\"b\\c\nd\re\tf\u{1}g λ"),
            r#""a\"b\\c\nd\re\tf\u0001g λ""#
        );
        let mut out = String::from("x");
        escape_into(&mut out, "\u{1f}");
        assert_eq!(out, "x\\u001f");
    }
}
