//! A line-oriented text codec for histories.
//!
//! The format is self-contained (no external serialization crates are
//! available offline) and diff-friendly, one operation per line:
//!
//! ```text
//! # anything after '#' is a comment
//! session
//! begin
//! w 1 10        # write key 1 value 10
//! r 2 0         # read key 2, observed the initial value
//! commit        # or `abort`
//! ```
//!
//! [`encode`] and [`decode`] round-trip exactly.

use crate::history::{History, HistoryBuilder};
use crate::ids::{Key, Value};
use crate::op::{Op, TxnStatus};
use std::fmt::Write as _;

/// A parse error with 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Serialize a history to the text format.
pub fn encode(h: &History) -> String {
    let mut out = String::new();
    out.push_str("# polysi history v1\n");
    for s in h.sessions() {
        out.push_str("session\n");
        for t in s.txns {
            out.push_str("begin\n");
            for op in &t.ops {
                match *op {
                    Op::Read { key, value } => writeln!(out, "r {key} {value}").unwrap(),
                    Op::Write { key, value } => writeln!(out, "w {key} {value}").unwrap(),
                }
            }
            out.push_str(match t.status {
                TxnStatus::Committed => "commit\n",
                TxnStatus::Aborted => "abort\n",
            });
        }
    }
    out
}

/// Parse a history from the text format.
pub fn decode(text: &str) -> Result<History, ParseError> {
    let mut b = HistoryBuilder::new();
    // The open transaction's operation count, if one is open.
    let mut open: Option<usize> = None;
    let mut have_session = false;
    let err = |line: usize, message: &str| ParseError { line, message: message.to_string() };

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_ascii_whitespace();
        let word = parts.next().unwrap();
        match word {
            "session" => {
                if open.is_some() {
                    return Err(err(line, "`session` inside an open transaction"));
                }
                b.session();
                have_session = true;
            }
            "begin" => {
                if !have_session {
                    return Err(err(line, "`begin` before any `session`"));
                }
                if open.is_some() {
                    return Err(err(line, "nested `begin`"));
                }
                b.begin();
                open = Some(0);
            }
            "commit" | "abort" => {
                match open.take() {
                    None => return Err(err(line, "`commit`/`abort` without `begin`")),
                    Some(0) => return Err(err(line, "empty transaction (Definition 3)")),
                    Some(_) => {}
                }
                if word == "commit" {
                    b.commit();
                } else {
                    b.abort();
                }
            }
            "r" | "w" => {
                let Some(ops) = open.as_mut() else {
                    return Err(err(line, "operation outside a transaction"));
                };
                *ops += 1;
                let key: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line, "expected numeric key"))?;
                let value: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line, "expected numeric value"))?;
                if parts.next().is_some() {
                    return Err(err(line, "trailing tokens"));
                }
                if word == "r" {
                    b.read(Key(key), Value(value));
                } else {
                    b.write(Key(key), Value(value));
                }
            }
            other => return Err(err(line, &format!("unknown directive `{other}`"))),
        }
    }
    if open.is_some() {
        return Err(err(text.lines().count(), "history ends inside an open transaction"));
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TxnId;

    #[test]
    fn round_trip() {
        let mut b = HistoryBuilder::new();
        b.session();
        b.begin().write(Key(1), Value(10)).read(Key(2), Value::INIT).commit();
        b.begin().write(Key(2), Value(20)).abort();
        b.session();
        b.begin().read(Key(1), Value(10)).commit();
        let h = b.build();
        let text = encode(&h);
        let h2 = decode(&text).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "
# header
session
begin
w 1 10  # inline comment

commit
";
        let h = decode(text).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.txn(TxnId(0)).ops, vec![Op::Write { key: Key(1), value: Value(10) }]);
    }

    #[test]
    fn rejects_op_outside_txn() {
        let e = decode("session\nw 1 2\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_begin_without_session() {
        let e = decode("begin\ncommit\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_nested_begin() {
        let e = decode("session\nbegin\nbegin\n").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn rejects_unterminated_txn() {
        let e = decode("session\nbegin\nw 1 2\n").unwrap_err();
        assert!(e.message.contains("open transaction"));
    }

    /// Definition 3 wants every transaction non-empty: the line that
    /// closes an empty one is a parse error, not a builder panic.
    #[test]
    fn rejects_empty_transaction() {
        for close in ["commit", "abort"] {
            let e =
                decode(&format!("session\nbegin\nw 1 2\ncommit\nbegin\n{close}\n")).unwrap_err();
            assert_eq!(e.line, 6, "{close}");
            assert!(e.message.contains("empty transaction"), "{e}");
        }
    }

    #[test]
    fn rejects_bad_numbers() {
        let e = decode("session\nbegin\nw x 2\ncommit\n").unwrap_err();
        assert!(e.message.contains("numeric key"));
    }

    #[test]
    fn rejects_unknown_directive() {
        let e = decode("sessionX\n").unwrap_err();
        assert!(e.message.contains("unknown directive"));
    }

    #[test]
    fn error_display() {
        let e = decode("oops\n").unwrap_err();
        assert!(e.to_string().starts_with("line 1:"));
    }
}
